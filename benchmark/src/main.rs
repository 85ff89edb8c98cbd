//! End-to-end and per-layer benchmark of the asman workspace, driven
//! only through the crates' public API.
//!
//! ```text
//! asman-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! asman-benchmark --workload <name> --repeat N [--seed N] [--seconds S]
//! asman-benchmark --workload all [--seconds S]
//! ```
//!
//! One run repeats passes of one workload (set-up, then a fixed amount
//! of simulated work cut into at least 1000 units) until `--seconds`
//! have passed and at least [`MIN_PASSES`] passes were timed. The
//! host-time metrics keep each step's fastest time over the run's
//! passes: other tenants of the host only ever add time.
//! Every pass checks its outputs (pinned digests on the default seed,
//! repeatability on every seed). The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`. `--repeat N` runs N processes on seeds `seed..seed+N`
//! and prints each metric's spread; `--workload all` runs every workload
//! on the default and the held-out seed and prints one row each.

mod cluster;
mod engine;
mod ledger;
mod probe;
mod stats;
mod trace;

use ledger::{Pass, Values, Workload, END_TO_END, PER_LAYER};
use probe::{Probe, SpanTotals};
use serde::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// The seed the digests are pinned for.
const DEFAULT_SEED: u64 = 42;
/// A seed no pin or tuning used: only seed-independent checks apply.
const HELD_OUT_SEED: u64 = 7;
/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["engine", "cluster-epochs", "soak-ckpt", "trace"];
/// Untraced passes a run needs before it may stop, so the reported
/// medians are medians.
const MIN_PASSES: usize = 3;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        repeat: 1,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: `{value}` is not 0 or 1")),
                }
            }
            "--repeat" => args.repeat = number()?.max(1) as usize,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("asman-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    if args.repeat > 1 {
        return steadiness(&args);
    }
    let result = match args.workload.as_str() {
        "engine" => measure(&engine::Engine, &args),
        "cluster-epochs" => measure(&cluster::ClusterEpochs, &args),
        "soak-ckpt" => {
            let dir = out_dir().join(format!("ckpt-{}", std::process::id()));
            measure(&cluster::SoakCkpt { dir }, &args)
        }
        "trace" => measure(&trace::Trace, &args),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    println!(
        "{}",
        serde_json::to_string(&result.to_value()).expect("result serializes")
    );
    ExitCode::SUCCESS
}

/// Where runs leave files: inside the benchmark's own directory.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

// ------------------------------------------------------------- one run

/// Correctness checks made during a run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {name}");
        }
    }

    /// Compare one pass with the pins (default seed only) and with the
    /// run's first pass (every seed: digests and counts repeat, and a
    /// traced pass counts exactly what an untraced one does).
    fn judge(&mut self, pins: &[(&str, u64)], seed: u64, pass: &Pass, first: Option<&Pass>) {
        for (name, ok) in &pass.checks {
            self.check(name, *ok);
        }
        if seed == DEFAULT_SEED {
            for (name, digest) in &pass.digests {
                let pin = pins.iter().find(|(p, _)| p == name).map(|(_, v)| *v);
                self.check(
                    &format!("{name} digest {digest:016x} matches its pin"),
                    pin == Some(*digest),
                );
            }
        }
        if let Some(first) = first {
            self.check(
                "digests repeat across passes",
                pass.digests == first.digests,
            );
            for (name, v) in &pass.counts {
                self.check(
                    &format!("count {name} repeats ({v} vs {:?})", first.counts.get(name)),
                    first.counts.get(name) == Some(v),
                );
            }
            self.check(
                "count names repeat across passes",
                pass.counts.len() == first.counts.len(),
            );
        }
    }
}

/// The measured outcome of one run.
struct RunResult {
    checks: Checks,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, unit, v)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::F64(v)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.checks.failed == 0)),
            ("attempted".to_string(), Value::U64(self.checks.attempted)),
            ("failed".to_string(), Value::U64(self.checks.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
    }
}

/// Run passes of `w` until the time budget and the sample minimums are
/// met, then reduce them to the end-to-end metrics (untraced) or the
/// per-layer ledger (`--trace 1`, which alternates untraced and traced
/// passes so their walls can be compared).
fn measure<W: Workload>(w: &W, args: &Args) -> RunResult {
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut checks = Checks::default();
    let mut first: Option<Pass> = None;
    let (mut setup, mut wall) = (Vec::new(), Vec::new());
    // Every pass repeats the same simulated work step by step (the
    // digests check it), so each step's and unit's fastest time over the
    // run is kept.
    let (mut best_steps, mut best_units) = (Vec::new(), Vec::new());
    let (mut traced_wall, mut ledgers) = (Vec::new(), Vec::new());
    let mut last_spans = Vec::new();
    loop {
        for &tracing in modes {
            let t0 = Instant::now();
            let mut st = w.setup(args.seed, tracing);
            let setup_s = t0.elapsed().as_secs_f64();
            let mut probe = Probe::new(tracing);
            let t1 = Instant::now();
            w.run(&mut st, &mut probe);
            let wall_s = t1.elapsed().as_secs_f64();
            let totals = tracing.then(|| SpanTotals::of(probe.spans()));
            let pass = w.finish(st, totals.as_ref());
            checks.judge(W::PINS, args.seed, &pass, first.as_ref());
            if tracing {
                let covered: u64 = probe
                    .spans()
                    .iter()
                    .filter(|s| s.parent.is_none())
                    .map(|s| s.end_ns - s.start_ns)
                    .sum();
                let coverage = covered as f64 * 1e-9 / wall_s;
                checks.check(
                    &format!("span self times cover {coverage:.4} >= 0.95 of the timed wall"),
                    coverage >= 0.95,
                );
                let mut ledger = pass.counts.clone();
                ledger.extend(pass.layers.iter());
                ledger.insert("bench.units", probe.units().len() as f64);
                ledger.insert("bench.span_coverage", coverage);
                ledgers.push(ledger);
                traced_wall.push(wall_s);
                last_spans = probe.spans().to_vec();
            } else {
                setup.push(setup_s);
                wall.push(wall_s);
                for (best, times) in [
                    (&mut best_steps, probe.steps()),
                    (&mut best_units, probe.units()),
                ] {
                    if best.is_empty() {
                        best.extend_from_slice(times);
                    }
                    checks.check(
                        "steps and units repeat across passes",
                        best.len() == times.len(),
                    );
                    for (b, &t) in best.iter_mut().zip(times) {
                        *b = f64::min(*b, t);
                    }
                }
            }
            first.get_or_insert(pass);
        }
        if start.elapsed() >= budget && wall.len() >= MIN_PASSES {
            break;
        }
    }
    let metrics = if args.trace {
        write_spans(&args.workload, &last_spans);
        per_layer(
            &ledgers,
            stats::fastest(&traced_wall) - stats::fastest(&wall),
        )
    } else {
        let rss = stats::peak_rss_mb().unwrap_or_else(|e| {
            checks.check(&e, false);
            0.0
        });
        let p99 = stats::tail_percentile(&best_units, 99)
            .unwrap_or_else(|e| panic!("{}: a pass is too short: {e}", args.workload));
        let values = [
            best_steps.iter().sum(),
            p99 * 1e3,
            stats::fastest(&setup),
            rss,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    eprintln!(
        "{}: seed {}, {} passes (fastest {:.4} s), {} units per pass, {:.1} s; failed_frac {} ({} of {} checks)",
        args.workload,
        args.seed,
        wall.len() + traced_wall.len(),
        stats::fastest(&wall),
        best_units.len(),
        start.elapsed().as_secs_f64(),
        ledger::ratio(checks.failed as f64, checks.attempted as f64),
        checks.failed,
        checks.attempted
    );
    for (name, unit, v) in &metrics {
        eprintln!("  {name:<34} {v:>16.6} {unit}");
    }
    RunResult { checks, metrics }
}

/// The per-layer ledger: each value's median over the traced passes
/// (counts are identical in every pass; `judge` checks that), every
/// catalogued metric present, zero where the workload has no such layer.
fn per_layer(ledgers: &[Values], span_overhead_s: f64) -> Vec<(&'static str, &'static str, f64)> {
    for ledger in ledgers {
        for name in ledger.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "{name} is not a catalogued per-layer metric"
            );
        }
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = if name == "bench.span_overhead" {
                span_overhead_s
            } else {
                let xs: Vec<f64> = ledgers
                    .iter()
                    .filter_map(|l| l.get(name).copied())
                    .collect();
                if xs.is_empty() {
                    0.0
                } else {
                    stats::median(&xs)
                }
            };
            (name, unit, v)
        })
        .collect()
}

/// Write the last traced pass's spans (name, start, end, parent) to
/// `out/spans_<workload>.json` once the run is over.
fn write_spans(workload: &str, spans: &[probe::Span]) {
    let path = out_dir().join(format!("spans_{workload}.json"));
    let written = std::fs::create_dir_all(out_dir()).and_then(|_| {
        let json = serde_json::to_vec(&probe::spans_to_value(spans)).expect("spans serialize");
        std::fs::write(&path, json)
    });
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

// ------------------------------------------------ runs in child processes

/// Run this binary once more as a child process and parse the JSON
/// object on the last line of its standard output.
fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} (seed {seed}) exited with {}",
            out.status
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

fn count(result: &Value, key: &str) -> u64 {
    result.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// Every workload on the default and the held-out seed, one row each.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    println!(
        "{:<15} {:>5} {:>10} {:>12} {:>10} {:>12} {:>12}",
        "workload", "seed", "wall_s", "unit_p99_ms", "setup_s", "peak_rss_mb", "failed_frac"
    );
    println!(
        "{:<15} {:>5} {:>10} {:>12} {:>10} {:>12} {:>12}",
        "", "", "s", "ms", "s", "MB", "ratio"
    );
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        for w in WORKLOADS {
            match child(w, seed, args.seconds, false) {
                Ok(r) => {
                    let (attempted, failed) = (count(&r, "attempted"), count(&r, "failed"));
                    ok &= failed == 0 && attempted > 0;
                    println!(
                        "{w:<15} {seed:>5} {:>10.4} {:>12.4} {:>10.4} {:>12.1} {:>12}",
                        metric(&r, "wall_s"),
                        metric(&r, "unit_p99_ms"),
                        metric(&r, "setup_s"),
                        metric(&r, "peak_rss_mb"),
                        ledger::ratio(failed as f64, attempted as f64)
                    );
                }
                Err(e) => {
                    ok = false;
                    eprintln!("{e}");
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Repeat one workload in `--repeat` processes on consecutive seeds and
/// print each metric's median, quartiles, range and relative spread
/// (quartile distance over median, as the regression bounds judge it).
fn steadiness(args: &Args) -> ExitCode {
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); catalogue.len()];
    let mut failed = 0;
    for i in 0..args.repeat as u64 {
        match child(&args.workload, args.seed + i, args.seconds, args.trace) {
            Ok(r) => {
                failed += count(&r, "failed");
                for (xs, (name, _)) in values.iter_mut().zip(catalogue) {
                    xs.push(metric(&r, name));
                }
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{} x{} (seeds {}..{}, {} s each, {} failed checks)",
        args.workload,
        args.repeat,
        args.seed,
        args.seed + args.repeat as u64 - 1,
        args.seconds,
        failed
    );
    println!(
        "{:<34} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "metric", "median", "q1", "q3", "min", "max", "iqr/med"
    );
    for (xs, (name, unit)) in values.iter().zip(catalogue) {
        let (q1, med, q3) = stats::quartiles(xs);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{:<34} {med:>12.6} {q1:>12.6} {q3:>12.6} {min:>12.6} {max:>12.6} {:>8.4}",
            format!("{name} ({unit})"),
            ledger::ratio(q3 - q1, med)
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Value {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn keys(v: &Value) -> Vec<&str> {
        match v {
            Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object: {v:?}"),
        }
    }

    fn names(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{key} is not an array"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn manifest_lists_the_catalogue() {
        let m = manifest();
        assert_eq!(
            keys(&m),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(names(&m, "workloads"), WORKLOADS);
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(&m, "end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(&m, "per_layer"), layers);
        let seconds = m
            .get("run_seconds")
            .and_then(Value::as_u64)
            .expect("run_seconds");
        assert!((1..=60).contains(&seconds));
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for (entry, (name, unit)) in m
                .get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .zip(catalogue)
            {
                assert_eq!(
                    entry.get("unit").and_then(Value::as_str),
                    Some(*unit),
                    "{name}"
                );
                let better = entry.get("better").and_then(Value::as_str);
                assert!(matches!(better, Some("lower" | "higher")), "{name}");
                let want: &[&str] = if key == "end_to_end" {
                    &["name", "unit", "better", "bound"]
                } else {
                    &["name", "unit", "better"]
                };
                assert_eq!(keys(entry), want, "{name}");
                if let Some(bound) = entry.get("bound") {
                    let b = bound.as_f64().expect("numeric bound");
                    assert!(b > 0.0 && b <= 0.25, "{name} bound {b}");
                }
            }
        }
        let setup = &m.get("end_to_end").and_then(Value::as_array).unwrap()[2];
        assert_eq!(setup.get("name").and_then(Value::as_str), Some("setup_s"));
        assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
        let largest = m
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|e| e.get("bound").and_then(Value::as_f64).unwrap())
            .fold(0.0, f64::max);
        assert_eq!(setup.get("bound").and_then(Value::as_f64), Some(largest));
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut checks = Checks::default();
        checks.check("ok", true);
        let r = RunResult {
            checks,
            metrics: vec![("wall_s", "s", 1.25), ("setup_s", "s", 0.0123456789)],
        };
        let line = serde_json::to_string(&r.to_value()).unwrap();
        assert!(!line.contains('\n'));
        let back = serde_json::from_str(&line).unwrap();
        assert_eq!(keys(&back), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(count(&back, "attempted"), 1);
        assert_eq!(count(&back, "failed"), 0);
        assert_eq!(metric(&back, "setup_s"), 0.0123456789);
        let wall = back.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(keys(wall), ["value", "unit"]);
    }

    #[test]
    fn failed_checks_are_counted_against_attempts() {
        let pins = [("a", 1u64)];
        let mut pass = Pass::default();
        pass.digests.push(("a", 1));
        pass.counts.insert("sim.events", 5.0);
        let mut checks = Checks::default();
        checks.judge(&pins, DEFAULT_SEED, &pass, None);
        assert_eq!((checks.attempted, checks.failed), (1, 0));
        let mut other = Pass::default();
        other.digests.push(("a", 2));
        other.counts.insert("sim.events", 6.0);
        checks.judge(&pins, DEFAULT_SEED, &other, Some(&pass));
        // The pin, digest repetition and the count all fail; the count
        // names still match.
        assert_eq!((checks.attempted, checks.failed), (5, 3));
        // Off the default seed only repeatability is judged.
        let mut held_out = Checks::default();
        held_out.judge(&pins, HELD_OUT_SEED, &other, Some(&other));
        assert_eq!((held_out.attempted, held_out.failed), (3, 0));
    }

    #[test]
    fn bad_arguments_are_refused() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload engine --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload engine --trace 2").is_err());
        assert!(parse("--workload engine --seed").is_err());
        assert!(parse("--workload engine --seed x").is_err());
        assert!(parse("--workload engine --bogus 1").is_err());
    }
}
