//! End-to-end CLI contract tests for the `repro` binary.
//!
//! Argument parsing happens before any simulation work, so every case
//! here is instant: `--help` exits 0 with the usage text on stdout;
//! every malformed invocation exits 2 with a `repro:`-prefixed
//! diagnostic plus the usage text on stderr. Pinning the exit codes
//! keeps shell scripts and the CI pipeline honest — `$?` is part of
//! the interface.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Assert a malformed invocation exits 2 and names the problem.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = repro(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2, got {:?}\nstderr: {}",
        out.status.code(),
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(
        err.contains(needle),
        "{args:?} stderr must mention `{needle}`:\n{err}"
    );
    assert!(
        err.contains("usage: repro"),
        "{args:?} stderr must include the usage text:\n{err}"
    );
}

#[test]
fn help_exits_zero_with_usage_on_stdout() {
    for flag in ["--help", "-h"] {
        let out = repro(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage: repro"), "{flag} prints usage");
        // The cluster target and its flags are documented.
        assert!(stdout.contains("cluster"), "usage lists the cluster target");
        assert!(stdout.contains("--hosts"), "usage documents --hosts");
        assert!(stdout.contains("--policy"), "usage documents --policy");
        assert!(out.stderr.is_empty(), "{flag} writes nothing to stderr");
    }
}

#[test]
fn unknown_flag_exits_two() {
    assert_usage_error(&["--bogus"], "unknown option `--bogus`");
    assert_usage_error(&["cluster", "--bench"], "unknown option `--bench`");
}

/// `perf` is gone with the other timing harnesses: the `benchmark/`
/// package times the program.
#[test]
fn unknown_target_exits_two() {
    assert_usage_error(&["fig99"], "unknown target `fig99`");
    assert_usage_error(&["perf"], "unknown target `perf`");
}

#[test]
fn missing_values_exit_two() {
    assert_usage_error(&["--seed"], "--seed needs a value");
    assert_usage_error(&["--jobs"], "--jobs needs a value");
    assert_usage_error(&["--trace"], "--trace needs a directory");
    assert_usage_error(&["cluster", "--policy"], "--policy needs a value");
}

#[test]
fn non_numeric_values_exit_two() {
    assert_usage_error(&["--seed", "banana"], "`banana` is not a number");
    assert_usage_error(&["--class", "q"], "unknown class `q`");
}

#[test]
fn bad_cluster_flags_exit_two() {
    assert_usage_error(&["cluster", "--policy", "bogus"], "unknown policy `bogus`");
    assert_usage_error(&["cluster", "--hosts", "1"], "at least 2");
    assert_usage_error(&["cluster", "--vms", "0"], "at least 1");
    assert_usage_error(&["cluster", "--epochs", "0"], "at least 1");
}

#[test]
fn bad_jobs_flags_exit_two() {
    assert_usage_error(&["--jobs", "banana"], "`banana` is not a number");
    assert_usage_error(&["cluster", "--jobs", "2x"], "`2x` is not a number");
}

/// `--jobs 0` means "one worker per core" everywhere (SweepRunner's
/// convention), so it must be accepted, not rejected as malformed.
#[test]
fn jobs_zero_means_auto_and_exits_zero() {
    let out = repro(&["cluster", "--jobs", "0", "--epochs", "1", "--policy", "static", "-q"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "--jobs 0 must run with auto parallelism\nstderr: {}",
        stderr(&out)
    );
}

#[test]
fn bad_series_flags_exit_two() {
    assert_usage_error(&["series", "--window"], "--window needs a value");
    assert_usage_error(&["series", "--window", "banana"], "`banana` is not a number");
    assert_usage_error(&["series", "--window", "0"], "at least 1");
    assert_usage_error(&["series", "--nsigma"], "--nsigma needs a value");
    assert_usage_error(&["series", "--nsigma", "3x"], "`3x` is not a number");
    assert_usage_error(&["series", "--nsigma", "0"], "positive finite");
    assert_usage_error(&["series", "--nsigma", "-2.5"], "positive finite");
}

#[test]
fn usage_documents_series_target_and_flags() {
    let out = repro(&["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("series"), "usage lists the series target");
    for flag in ["--window", "--nsigma"] {
        assert!(stdout.contains(flag), "usage documents {flag}");
    }
}

#[test]
fn series_runs_and_renders_the_timeline() {
    let out = repro(&["series", "--epochs", "2", "--policy", "static", "-q"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "series must run\nstderr: {}",
        stderr(&out)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Cluster series"), "series prints its header:\n{stdout}");
    assert!(stdout.contains("reaction:"), "series prints the reaction line:\n{stdout}");
}

#[test]
fn usage_documents_soak_target_and_flags() {
    let out = repro(&["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("soak"), "usage lists the soak target");
    for flag in ["--churn", "--audit-every"] {
        assert!(stdout.contains(flag), "usage documents {flag}");
    }
}

#[test]
fn bad_churn_plans_exit_two() {
    assert_usage_error(&["soak", "--churn"], "--churn needs a plan");
    assert_usage_error(&["soak", "--churn", "explode@3"], "unknown churn kind");
    assert_usage_error(&["soak", "--churn", "rand:42"], "want rand:SEED:RATE");
    assert_usage_error(&["soak", "--churn", "rand:42:0"], "churn rate must be 1..=100");
    assert_usage_error(
        &["soak", "--churn", "depart@1:h9:v0", "--hosts", "3"],
        "names host 9",
    );
    assert_usage_error(&["soak", "--audit-every", "0"], "at least 1");
}

#[test]
fn soak_runs_asserts_and_renders_the_summary() {
    let out = repro(&[
        "soak",
        "--epochs",
        "40",
        "--churn",
        "arrive@2:bg1,depart@5:h1:v0",
        "--audit-every",
        "10",
        "-q",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "soak must run\nstderr: {}",
        stderr(&out)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("soak: 40 epochs"), "soak prints its header:\n{stdout}");
    assert!(stdout.contains("churn: 1 arrivals"), "soak prints churn outcome:\n{stdout}");
    assert!(
        stdout.contains("[PASS] jobs 1 vs 4 bit-identical"),
        "soak prints the determinism check:\n{stdout}"
    );
}

#[test]
fn usage_documents_checkpoint_and_bisect_flags() {
    let out = repro(&["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bisect"), "usage lists the bisect target");
    for flag in [
        "--checkpoint-every",
        "--resume",
        "--b-policy",
        "--b-seed",
        "--b-faults",
        "--b-churn",
        "--b-mutate",
    ] {
        assert!(stdout.contains(flag), "usage documents {flag}");
    }
}

#[test]
fn bad_checkpoint_flags_exit_two() {
    assert_usage_error(&["soak", "--checkpoint-every"], "needs a value");
    assert_usage_error(
        &["soak", "--checkpoint-every", "banana"],
        "`banana` is not a number",
    );
    assert_usage_error(&["soak", "--checkpoint-every", "0"], "at least 1");
    // Checkpoints are artifacts; without an artifact directory there is
    // nowhere to put them.
    assert_usage_error(
        &["soak", "--checkpoint-every", "5"],
        "needs --json DIR",
    );
    assert_usage_error(&["soak", "--resume"], "needs a checkpoint file");
    assert_usage_error(
        &["soak", "--resume", "/nonexistent/CKPT_000001.json"],
        "cannot read",
    );
}

#[test]
fn resume_conflicts_with_scenario_flags() {
    // The conflict is caught before the file is even opened — the
    // scenario comes from the checkpoint, full stop.
    for (flag, val) in [
        ("--seed", "7"),
        ("--hosts", "4"),
        ("--vms", "3"),
        ("--churn", "rand:1:2"),
        ("--max-moves", "2"),
    ] {
        assert_usage_error(
            &["soak", "--resume", "/nonexistent/CKPT.json", flag, val],
            "conflicts with --resume",
        );
    }
}

/// End-to-end through real checkpoint files: a tiny soak writes them,
/// a resumed run finishes from one, and the two poison cases — a
/// version from the future and a horizon the checkpoint has already
/// passed — exit 2 with pointed messages.
#[test]
fn resume_round_trip_version_and_horizon_checks() {
    let dir = std::env::temp_dir().join(format!("asman-cli-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dirs = dir.to_str().expect("utf8 temp dir");
    let out = repro(&[
        "soak",
        "--epochs",
        "4",
        "--checkpoint-every",
        "2",
        "--json",
        dirs,
        "-q",
    ]);
    assert_eq!(out.status.code(), Some(0), "soak runs\nstderr: {}", stderr(&out));
    let ck2 = dir.join("CKPT_000000002.json");
    let ck4 = dir.join("CKPT_000000004.json");
    assert!(ck2.exists() && ck4.exists(), "soak wrote both checkpoints");

    let out = repro(&["soak", "--resume", ck2.to_str().unwrap(), "--epochs", "4", "-q"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "resume from a real checkpoint runs\nstderr: {}",
        stderr(&out)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("soak: 4 epochs"),
        "resumed soak renders the summary"
    );

    // `--resume DIR` picks the newest checkpoint by numeric epoch —
    // here CKPT_000000004.json, so the horizon must be raised past 4.
    let out = repro(&["soak", "--resume", dirs, "--epochs", "6", "-q"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "resume from the artifact directory runs\nstderr: {}",
        stderr(&out)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("soak: 6 epochs"),
        "directory resume picked the newest checkpoint and finished"
    );

    // Horizon already reached: nothing left to run.
    assert_usage_error(
        &["soak", "--resume", ck4.to_str().unwrap(), "--epochs", "4"],
        "raise --epochs past the checkpoint",
    );

    // A checkpoint from a future schema version is refused, not
    // misread.
    let text = std::fs::read_to_string(&ck2).expect("read checkpoint");
    assert!(text.contains("\"version\": 2"), "checkpoint carries its version");
    let future = dir.join("CKPT_future.json");
    std::fs::write(&future, text.replace("\"version\": 2", "\"version\": 99")).unwrap();
    assert_usage_error(
        &["soak", "--resume", future.to_str().unwrap()],
        "99 unsupported (this build reads versions 1..=2)",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bisect_identical_twin_exits_zero_and_divergence_exits_one() {
    let out = repro(&["bisect", "--epochs", "4", "-q"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "identical sides exit 0\nstderr: {}",
        stderr(&out)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("bit-identical"),
        "negative twin says so"
    );
    let out = repro(&["bisect", "--epochs", "4", "--b-seed", "43", "-q"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "diverging sides exit 1\nstderr: {}",
        stderr(&out)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("first divergent epoch: 0"),
        "a seed difference diverges before any epoch runs"
    );
}

#[test]
fn bad_bisect_flags_exit_two() {
    assert_usage_error(&["bisect", "--b-policy"], "--b-policy needs a value");
    assert_usage_error(&["bisect", "--b-policy", "bogus"], "unknown policy");
    assert_usage_error(&["bisect", "--b-seed", "x"], "`x` is not a number");
    assert_usage_error(&["bisect", "--b-mutate"], "--b-mutate needs a value");
    assert_usage_error(&["bisect", "--b-mutate", "bogus"], "unknown mutation");
    assert_usage_error(
        &["bisect", "--hosts", "3", "--b-faults", "crash@2:h7"],
        "host 7",
    );
}

/// In a build without the audit feature the boost-skip mutation cannot
/// be injected; the CLI must say which build to use. (The audit build
/// accepts it, so the case only exists in the default build.)
#[cfg(not(feature = "audit"))]
#[test]
fn boost_skip_mutation_requires_audit_build() {
    assert_usage_error(
        &["bisect", "--b-mutate", "boost-skip"],
        "requires a build with --features audit",
    );
}

#[test]
fn bad_max_moves_flags_exit_two() {
    assert_usage_error(&["cluster", "--max-moves"], "--max-moves needs a value");
    assert_usage_error(
        &["cluster", "--max-moves", "banana"],
        "`banana` is not a number",
    );
    assert_usage_error(&["cluster", "--max-moves", "0"], "at least 1");
}

#[test]
fn usage_documents_max_moves() {
    let out = repro(&["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--max-moves"), "usage documents --max-moves");
}

#[test]
fn bad_fault_plans_exit_two() {
    assert_usage_error(&["cluster", "--faults"], "--faults needs a plan");
    assert_usage_error(&["cluster", "--faults", "explode@3"], "unknown fault");
    assert_usage_error(&["cluster", "--faults", "crash@2"], "crash");
    assert_usage_error(&["cluster", "--faults", "slow@1:h2:0"], "1..=99");
    assert_usage_error(&["cluster", "--faults", "rand:banana"], "rand:");
    // Plans may only name hosts the cluster actually has.
    assert_usage_error(
        &["cluster", "--hosts", "3", "--faults", "crash@2:h7"],
        "host 7",
    );
    // A plan that crashes every host leaves the last crash nowhere to
    // evacuate its VMs to.
    for args in [
        &["cluster", "--hosts", "2", "--faults", "crash@0:h0,crash@1:h1"][..],
        &["series", "--faults", "crash@1:h2,crash@2:h0,crash@3:h1"],
        &["bisect", "--hosts", "2", "--faults", "crash@0:h1,crash@1:h0"],
    ] {
        assert_usage_error(args, "--faults crashes every host (h0, h1");
    }
    assert_usage_error(
        &["bisect", "--hosts", "2", "--b-faults", "crash@3:h1,crash@5:h0,crash@6:h1"],
        "--b-faults crashes every host (h0, h1)",
    );
}

/// A flag that none of the requested targets reads is an error, not a
/// silent no-op: each of these used to run exactly as if the flag were
/// absent. The message names the flag and the target.
#[test]
fn flags_no_requested_target_reads_exit_two() {
    for (args, flag, target) in [
        (&["soak", "--epochs", "30", "--faults", "crash@5:h1"][..], "--faults", "soak"),
        (&["soak", "--epochs", "30", "--policy", "static"], "--policy", "soak"),
        (
            &["cluster", "--epochs", "4", "--churn", "arrive@1:gang4,depart@2:h0:v0"],
            "--churn",
            "cluster",
        ),
        (&["series", "--epochs", "4", "--churn", "arrive@1:gang4"], "--churn", "series"),
        (&["fig1", "--class", "s", "--rounds", "1", "--hosts", "9"], "--hosts", "fig1"),
        (&["audit", "--rounds", "3"], "--rounds", "audit"),
        (&["ablations", "--hosts", "4"], "--hosts", "ablations"),
        // A resumed soak never read --faults either; the scenario check
        // is not even reached.
        (&["soak", "--resume", "/nonexistent/CKPT.json", "--faults", "abort@1"], "--faults", "soak"),
    ] {
        assert_usage_error(args, &format!("{flag} is not read by {target}"));
    }
}

/// A flag is accepted when any requested target reads it.
#[test]
fn flag_read_by_any_requested_target_is_accepted() {
    let out = repro(&["cluster", "series", "--hosts", "3", "--epochs", "1", "--policy", "static", "-q"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
}

#[test]
fn bad_sweep_flags_exit_two() {
    assert_usage_error(&["sweep", "--class", "q"], "unknown class `q`");
    assert_usage_error(&["sweep", "--nas", "BOGUS"], "unknown benchmark `BOGUS`");
    assert_usage_error(&["sweep", "--rates", "50,abc"], "`abc` is not a number");
    assert_usage_error(&["sweep", "--rates", "0"], "(0, 100]");
    assert_usage_error(&["sweep", "--scheds", "credit,fifo"], "unknown scheduler `fifo`");
}

#[test]
fn usage_names_every_flag_and_every_trace_category() {
    let out = repro(&["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for flag in [
        "-h", "--help", "-q", "--quiet", "--class", "--seed", "--rounds", "--jobs", "--json",
        "--trace", "--trace-cats", "--cells", "--hosts", "--vms", "--epochs", "--policy",
        "--faults", "--churn", "--max-moves", "--audit-every", "--checkpoint-every", "--resume",
        "--b-policy", "--b-seed", "--b-faults", "--b-churn", "--b-mutate", "--window",
        "--nsigma", "--nas", "--rates", "--scheds", "--csv",
    ] {
        let documented = stdout
            .split(|c: char| c.is_whitespace() || c == ',')
            .any(|word| word == flag);
        assert!(documented, "usage documents {flag}");
    }
    assert!(stdout.contains("sweep"), "usage lists the sweep target");
    assert!(stdout.contains("ablations"), "usage lists the ablations target");
    let cats = stdout.split("  --trace-cats").nth(1).expect("--trace-cats documented");
    let cats = cats.split("\n  -").next().unwrap();
    for cat in asman_sim::TraceCat::ALL {
        assert!(cats.contains(cat.name()), "--trace-cats help lists `{}`:\n{cats}", cat.name());
    }
}
