//! The reproduction's command line: every experiment is a target of
//! this one binary.
//!
//! ```text
//! repro [TARGET ...] [OPTIONS]
//! ```
//!
//! With no target (or `all`), `repro` regenerates the paper's figures
//! (`fig1` … `fig12`), printing each figure's table and shape checks;
//! `--json DIR` additionally writes the raw series as JSON artifacts.
//! The other targets:
//!
//! * `extensions` — the extension-policy panel (CON, relaxed
//!   coscheduling, out-of-VM VCRD inference).
//! * `timeline` — an ASCII Gantt chart of the guest VM's VCPU duty
//!   cycles at a 22.2% online rate, under Credit and under ASMan: the
//!   visual core of the paper in two panels.
//! * `sweep` — a free-form benchmark × online rate × scheduler grid
//!   beyond the paper's fixed one (`--nas`, `--rates`, `--scheds`).
//! * `trace` — flight-records the Figure 1 testbed (LU at the 22.2%
//!   online rate) under Credit and ASMan and writes Perfetto-loadable
//!   Chrome trace JSON, LHP episode summaries and a metrics dump into
//!   the `--trace` directory. `--trace DIR` alongside other targets
//!   appends this target.
//! * `ablations` — the design-parameter sweeps (δ, Roth–Erev learning,
//!   IPI cost, cache warm-up, credit interval K, LLC-aware placement) on
//!   the LU @ 22.2% testbed.
//! * `audit` — the differential oracle harness: `--cells` randomized
//!   scenario cells run on both the optimized engine and the naive
//!   oracle, comparing digests and full flight-event streams; exits 1
//!   on any divergence. Build with `--features audit` to also run the
//!   in-engine invariant auditor.
//! * `cluster` — multi-host consolidation with live migration,
//!   comparing placement policies.
//! * `series` — the consolidation cluster with the telemetry layer
//!   armed: epoch × metric sparklines, the trailing-window Nσ anomaly
//!   pass, scheduler-latency quantiles and the reaction-latency summary.
//! * `soak` — the long-horizon cluster under VM churn, with amortized
//!   audits, bounded-memory checkpoints, `--checkpoint-every` artifacts
//!   and `--resume`.
//! * `bisect` — steps two cluster configurations (the `--b-*` flags
//!   turn side B's knobs) in lockstep to the first epoch whose state
//!   digests differ, and reports the differing fields and the first
//!   divergent flight event; exits 1 on divergence.
//!
//! Every option is declared once, in [`FLAGS`], with the targets whose
//! code reads it: the parser, the usage text and the check that rejects
//! a flag no requested target reads (exit 2) all come from that table.

use std::fmt::Display;
use std::fs;
use std::path::PathBuf;
use std::str::FromStr;

use asman_cluster::{scenario::ConsolidationSpec, CheckpointConfig, ChurnSpec, Policy};
use asman_report::bisect::Mutation;
use asman_report::cluster::{self, ClusterParams};
use asman_report::figures::{
    fig01, fig02, fig07, fig08, fig09, fig10, fig11, fig12, FigureParams, ShapeCheck,
};
use asman_report::{flightrec, logger, progress, series, Sched, WEIGHT_RATES};
use asman_sim::{CatMask, FaultPlan, FaultSpec, TraceCat};
use asman_workloads::{NasBenchmark, ProblemClass};

/// Every target, in usage order. A [`Targets`] set has bit `i` for
/// `TARGETS[i]`.
const TARGETS: [&str; 18] = [
    "fig1",
    "fig2",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "extensions",
    "timeline",
    "sweep",
    "trace",
    "ablations",
    "audit",
    "cluster",
    "series",
    "soak",
    "bisect",
];

type Targets = u32;

const FIGS: Targets = 0xff;
const FIG10: Targets = 1 << 5;
const FIG11: Targets = 1 << 6;
const FIG12: Targets = 1 << 7;
const EXTENSIONS: Targets = 1 << 8;
const TIMELINE: Targets = 1 << 9;
const SWEEP: Targets = 1 << 10;
const TRACE: Targets = 1 << 11;
const ABLATIONS: Targets = 1 << 12;
const AUDIT: Targets = 1 << 13;
const CLUSTER: Targets = 1 << 14;
const SERIES: Targets = 1 << 15;
const SOAK: Targets = 1 << 16;
const BISECT: Targets = 1 << 17;
const EVERY: Targets = (1 << TARGETS.len()) - 1;
/// The targets that build the consolidation cluster.
const CLUSTERS: Targets = CLUSTER | SERIES | SOAK | BISECT;

/// One command-line option.
struct Flag {
    /// Spelling; a short alias comes first, as in `-q, --quiet`.
    name: &'static str,
    /// The value's placeholder in the usage text, empty for a switch.
    /// `DIR`, `PLAN`, `LIST`, `CKPT` and `CATS` also name what a missing
    /// value is reported as.
    value: &'static str,
    /// The targets whose code reads the flag.
    targets: Targets,
    help: &'static str,
    /// Store the value, or say what is wrong with it.
    set: fn(&mut Args, &str) -> Result<(), String>,
}

impl Flag {
    /// The long spelling, used in every message.
    fn long(&self) -> &'static str {
        self.name.rsplit(", ").next().unwrap_or(self.name)
    }
}

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "-h, --help", value: "", targets: EVERY, help: "show this help",
        set: |_, _| { println!("{}", usage()); std::process::exit(0) } },
    Flag { name: "-q, --quiet", value: "", targets: EVERY,
        help: "suppress progress lines and buffer-overflow warnings on stderr",
        set: |_, _| { logger::set_quiet(true); Ok(()) } },
    Flag { name: "--class", value: "s|w|a",
        targets: (FIGS & !FIG10) | EXTENSIONS | TIMELINE | SWEEP | TRACE | ABLATIONS,
        help: "NAS problem class (default w)",
        set: |a, v| class(v).map(|c| a.params.class = c) },
    Flag { name: "--seed", value: "N", targets: EVERY, help: "base RNG seed (default 42)",
        set: |a, v| num(v).map(|n| a.params.seed = n) },
    Flag { name: "--rounds", value: "N", targets: FIG11 | FIG12,
        help: "measured rounds of the multi-VM figures (default 10)",
        set: |a, v| at_least(v, 1).map(|n| a.params.rounds = n) },
    Flag { name: "--jobs", value: "N", targets: EVERY & !SWEEP,
        help: "worker threads, at most 128; 0 = one per core (default 0). Results are \
               bit-identical for every value",
        set: |a, v| at_most(v, MAX_JOBS).map(|n| a.params.jobs = n) },
    Flag { name: "--json", value: "DIR",
        targets: FIGS | EXTENSIONS | TRACE | ABLATIONS | AUDIT | CLUSTER | SERIES | SOAK,
        help: "also write the JSON artifacts (raw series, reports, checkpoints) into DIR",
        set: |a, v| { a.json_dir = Some(v.into()); Ok(()) } },
    Flag { name: "--trace", value: "DIR", targets: TRACE | CLUSTER,
        help: "write the flight-recorder bundle (Chrome trace, LHP episodes, metrics) \
               into DIR; implies the trace target. cluster writes its host-tagged \
               flight streams there too",
        set: |a, v| { a.trace_dir = Some(v.into()); Ok(()) } },
    Flag { name: "--trace-cats", value: "CATS", targets: TRACE | CLUSTER,
        help: "comma list of flight categories to record, of \
               sched,credit,cosched,lock,futex,barrier,fault (default all)",
        set: |a, v| cats(v).map(|m| a.trace_cats = m) },
    Flag { name: "--cells", value: "N", targets: AUDIT,
        help: "randomized scenario cells in the audit grid (default 200)",
        set: |a, v| num(v).map(|n| a.cells = n) },
    Flag { name: "--hosts", value: "N", targets: CLUSTERS,
        help: "simulated hosts; migration needs at least 2 (default 3)",
        set: |a, v| at_least(v, 2).map(|n| a.hosts = n) },
    Flag { name: "--vms", value: "N", targets: CLUSTERS,
        help: "gang VMs consolidated on host 0 (default 2)",
        set: |a, v| at_least(v, 1).map(|n| a.vms = n) },
    Flag { name: "--epochs", value: "N", targets: CLUSTERS,
        help: "balancer epochs (default 8; soak: 100000)",
        set: |a, v| at_least(v, 1).map(|n| a.epochs = n) },
    Flag { name: "--policy", value: "P", targets: CLUSTER | SERIES | BISECT,
        help: "compare only static vs P, one of static|least-loaded|vcrd-aware \
               (default: all three). bisect: side A's policy (default vcrd-aware)",
        set: |a, v| policy(v).map(|p| a.policy = Some(p)) },
    Flag { name: "--faults", value: "PLAN", targets: CLUSTER | SERIES | BISECT,
        help: "inject faults: a comma list of crash@E:hH | slow@E:hH:P | abort@E \
               tokens, or rand:SEED for a generated plan",
        set: |a, v| FaultSpec::parse(v).map(|s| a.faults = Some(s)) },
    Flag { name: "--churn", value: "PLAN", targets: SOAK | BISECT,
        help: "VM arrivals and departures: a comma list of arrive@E:gangN[:wW] | \
               arrive@E:bgN[:wW] | depart@E:hH:vV tokens, or rand:SEED:RATE for a \
               generated plan (RATE% arrival and RATE% departure chance per epoch)",
        set: |a, v| ChurnSpec::parse(v).map(|s| a.churn = s) },
    Flag { name: "--max-moves", value: "N", targets: CLUSTERS,
        help: "concurrent migrations the balancer may plan per epoch (default hosts/8, \
               at least 1; 1 reproduces the historical single-move driver bit for bit)",
        set: |a, v| at_least(v, 1).map(|n| a.max_moves = Some(n)) },
    Flag { name: "--audit-every", value: "N", targets: SOAK,
        help: "audit and occupancy-checkpoint cadence in epochs (default 1000; the \
               end-of-run audit always runs)",
        set: |a, v| at_least(v, 1).map(|n| a.audit_every = n) },
    Flag { name: "--checkpoint-every", value: "N", targets: SOAK,
        help: "write a CKPT_<epoch>.json checkpoint into the --json directory every N \
               epochs",
        set: |a, v| at_least(v, 1).map(|n| a.checkpoint_every = n) },
    Flag { name: "--resume", value: "CKPT", targets: SOAK,
        help: "resume from a checkpoint file, or from the newest CKPT_<epoch>.json in a \
               directory: replay to its epoch, verify the replay against it, and \
               continue byte-identically to the uninterrupted run. The scenario comes \
               from the checkpoint, so only --epochs, --jobs, --json and \
               --checkpoint-every may accompany it",
        set: |a, v| { a.resume = Some(v.into()); Ok(()) } },
    Flag { name: "--b-policy", value: "P", targets: BISECT,
        help: "side B's policy (default: side A's)",
        set: |a, v| policy(v).map(|p| a.b_policy = Some(p)) },
    Flag { name: "--b-seed", value: "N", targets: BISECT,
        help: "side B's seed (default: side A's)",
        set: |a, v| num(v).map(|n| a.b_seed = Some(n)) },
    Flag { name: "--b-faults", value: "PLAN", targets: BISECT, help: "side B's fault plan",
        set: |a, v| FaultSpec::parse(v).map(|s| a.b_faults = Some(s)) },
    Flag { name: "--b-churn", value: "PLAN", targets: BISECT, help: "side B's churn plan",
        set: |a, v| ChurnSpec::parse(v).map(|s| a.b_churn = Some(s)) },
    Flag { name: "--b-mutate", value: "M", targets: BISECT,
        help: "inject a behavioral mutation into side B: dirty-undercount (halved \
               dirty-page rate) or boost-skip (host 0 skips BOOST; needs a build with \
               --features audit)",
        set: |a, v| mutation(v).map(|m| a.b_mutate = Some(m)) },
    Flag { name: "--window", value: "N", targets: SERIES,
        help: "trailing-window length in epochs for the anomaly pass (default 4)",
        set: |a, v| at_least(v, 1).map(|n| a.window = n) },
    Flag { name: "--nsigma", value: "X", targets: SERIES,
        help: "flag samples more than X sigma above the trailing mean (default 3.0)",
        set: |a, v| nsigma(v).map(|x| a.nsigma = x) },
    Flag { name: "--nas", value: "LIST", targets: SWEEP,
        help: "NAS benchmarks to sweep, or all (default LU)",
        set: |a, v| nas(v).map(|l| a.nas = l) },
    Flag { name: "--rates", value: "LIST", targets: SWEEP,
        help: "VCPU online rates in percent, each in (0, 100] (default 100,66.7,40,22.2)",
        set: |a, v| list(v, rate).map(|l| a.rates = l) },
    Flag { name: "--scheds", value: "LIST", targets: SWEEP,
        help: "schedulers to sweep, of credit,asman,con (default credit,asman)",
        set: |a, v| list(v, sched).map(|l| a.scheds = l) },
    Flag { name: "--csv", value: "", targets: SWEEP, help: "print CSV instead of a table",
        set: |a, _| { a.csv = true; Ok(()) } },
];

/// The most workers `--jobs` takes. Every runner spawns `jobs − 1`
/// threads, and a run builds one runner per cluster plus one per
/// `cluster` policy sweep, so a mistyped count would ask the OS for
/// that many threads several times over.
const MAX_JOBS: usize = 128;

/// Flags a resumed soak honours; the checkpoint fixes everything else.
const RESUME_KEEPS: [&str; 6] = [
    "--resume",
    "--epochs",
    "--jobs",
    "--json",
    "--checkpoint-every",
    "--quiet",
];

/// Everything the command line sets, holding each default until a flag
/// overrides it.
struct Args {
    /// Targets to run, in order.
    targets: Vec<&'static str>,
    /// Long spellings of the flags given.
    given: Vec<&'static str>,
    params: FigureParams,
    json_dir: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    trace_cats: CatMask,
    cells: usize,
    hosts: usize,
    vms: usize,
    epochs: u64,
    policy: Option<Policy>,
    faults: Option<FaultSpec>,
    churn: ChurnSpec,
    max_moves: Option<usize>,
    audit_every: u64,
    checkpoint_every: u64,
    resume: Option<PathBuf>,
    b_policy: Option<Policy>,
    b_seed: Option<u64>,
    b_faults: Option<FaultSpec>,
    b_churn: Option<ChurnSpec>,
    b_mutate: Option<Mutation>,
    window: usize,
    nsigma: f64,
    nas: Vec<NasBenchmark>,
    rates: Vec<(u32, f64)>,
    scheds: Vec<Sched>,
    csv: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            targets: Vec::new(),
            given: Vec::new(),
            params: FigureParams::default(),
            json_dir: None,
            trace_dir: None,
            trace_cats: CatMask::ALL,
            cells: 200,
            hosts: 3,
            vms: 2,
            epochs: 8,
            policy: None,
            faults: None,
            churn: ChurnSpec::default(),
            max_moves: None,
            audit_every: 1_000,
            checkpoint_every: 0,
            resume: None,
            b_policy: None,
            b_seed: None,
            b_faults: None,
            b_churn: None,
            b_mutate: None,
            window: series::DEFAULT_WINDOW,
            nsigma: series::DEFAULT_NSIGMA,
            nas: vec![NasBenchmark::LU],
            rates: WEIGHT_RATES.to_vec(),
            scheds: vec![Sched::Credit, Sched::Asman],
            csv: false,
        }
    }
}

impl Args {
    /// The cluster the shared cluster flags make of `base`: `--hosts`,
    /// `--vms` and `--seed` shape the scenario, `--faults` and `--churn`
    /// are resolved against the horizon `epochs`, a churned run reuses
    /// tombstone slots, and the move budget is `--max-moves` or the
    /// scale default `max(1, hosts/8)` (1 for every pinned scenario, so
    /// defaults keep golden digests intact).
    fn recipe(&self, base: CheckpointConfig, epochs: u64) -> CheckpointConfig {
        let churn = self.churn.resolve(epochs, self.hosts);
        CheckpointConfig {
            scenario: ConsolidationSpec {
                hosts: self.hosts,
                gangs: self.vms,
                seed: self.params.seed,
                ..base.scenario
            },
            epochs,
            faults: self
                .faults
                .as_ref()
                .map_or_else(FaultPlan::empty, |s| s.resolve(epochs, self.hosts)),
            slot_reuse: base.slot_reuse || !churn.is_empty(),
            churn,
            max_moves: self.max_moves.unwrap_or((self.hosts / 8).max(1)),
            ..base
        }
    }
}

fn num<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("`{v}` is not a number"))
}

fn at_least<T: FromStr + PartialOrd + Display>(v: &str, min: T) -> Result<T, String> {
    let n = num(v)?;
    if n < min {
        return Err(format!("must be at least {min}"));
    }
    Ok(n)
}

fn at_most<T: FromStr + PartialOrd + Display>(v: &str, max: T) -> Result<T, String> {
    let n = num(v)?;
    if n > max {
        return Err(format!("must be at most {max}"));
    }
    Ok(n)
}

fn list<T>(v: &str, item: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    v.split(',').map(|s| item(s.trim())).collect()
}

fn nsigma(v: &str) -> Result<f64, String> {
    let x: f64 = num(v)?;
    if !x.is_finite() || x <= 0.0 {
        return Err("must be a positive finite number".to_string());
    }
    Ok(x)
}

fn class(v: &str) -> Result<ProblemClass, String> {
    match v.to_ascii_lowercase().as_str() {
        "s" => Ok(ProblemClass::S),
        "w" => Ok(ProblemClass::W),
        "a" => Ok(ProblemClass::A),
        _ => Err(format!("unknown class `{v}` (use s|w|a)")),
    }
}

fn cats(v: &str) -> Result<CatMask, String> {
    CatMask::parse(v).ok_or_else(|| {
        let known: Vec<&str> = TraceCat::ALL.iter().map(|c| c.name()).collect();
        format!(
            "`{v}` has an unknown or repeated category (known: {})",
            known.join(",")
        )
    })
}

fn policy(v: &str) -> Result<Policy, String> {
    Policy::parse(v)
        .ok_or_else(|| format!("unknown policy `{v}` (use static|least-loaded|vcrd-aware)"))
}

fn mutation(v: &str) -> Result<Mutation, String> {
    match Mutation::parse(v) {
        None => Err(format!(
            "unknown mutation `{v}` (use dirty-undercount|boost-skip)"
        )),
        Some(m) if !m.available() => Err(format!("{v} requires a build with --features audit")),
        Some(m) => Ok(m),
    }
}

fn nas(v: &str) -> Result<Vec<NasBenchmark>, String> {
    if v == "all" {
        return Ok(NasBenchmark::ALL.to_vec());
    }
    list(v, |name| {
        NasBenchmark::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown benchmark `{name}`"))
    })
}

/// An online rate in percent, with the V1 weight that yields it.
/// Equation 2 with V0 weight 256, |P| = 8 and |C| = 4 gives
/// rate = 2w/(w+256), so w = 256·rate/(2−rate).
fn rate(v: &str) -> Result<(u32, f64), String> {
    let pct: f64 = num(v)?;
    if !(pct > 0.0 && pct <= 100.0) {
        return Err(format!("`{v}` is not a rate in (0, 100]"));
    }
    let r = pct / 100.0;
    Ok((((256.0 * r / (2.0 - r)).round() as u32).max(1), pct))
}

fn sched(v: &str) -> Result<Sched, String> {
    Sched::ALL
        .into_iter()
        .find(|s| s.label().eq_ignore_ascii_case(v))
        .ok_or_else(|| format!("unknown scheduler `{v}` (use credit|asman|con)"))
}

/// The names of the targets in `set`.
fn names(set: Targets) -> Vec<&'static str> {
    (0..TARGETS.len())
        .filter(|i| set & 1 << i != 0)
        .map(|i| TARGETS[i])
        .collect()
}

fn usage() -> String {
    const INDENT: usize = 24;
    let mut s = format!(
        "usage: repro [TARGET ...] [OPTIONS]\n\n\
         Targets (default: all, which is every figN):\n  {}\n  {}\n\n\
         Options, with the targets that read them:\n",
        names(FIGS).join(" "),
        names(EVERY & !FIGS).join(" ")
    );
    for f in FLAGS {
        let mut text = f.help.to_string();
        if f.targets != EVERY {
            text += &format!(" [{}]", names(f.targets).join(" "));
        }
        s += &format!(
            "  {:<w$}",
            format!("{} {}", f.name, f.value),
            w = INDENT - 2
        );
        let mut col = INDENT;
        for word in text.split_whitespace() {
            if col + 1 + word.len() > 80 && col > INDENT {
                s += &format!("\n{:INDENT$}", "");
                col = INDENT;
            } else if col > INDENT {
                s.push(' ');
                col += 1;
            }
            s += word;
            col += word.len();
        }
        s.push('\n');
    }
    s
}

fn fail(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("{}", usage());
    std::process::exit(2);
}

/// Fail unless every host a plan names exists.
fn check_hosts(flag: &str, named: Option<usize>, hosts: usize) {
    if let Some(h) = named.filter(|&h| h >= hosts) {
        fail(&format!(
            "{flag} names host {h} but the cluster only has {hosts} hosts"
        ));
    }
}

/// Fail unless a fault plan names only existing hosts and leaves one
/// uncrashed: the last crash would have nowhere to evacuate its VMs to.
fn check_faults(flag: &str, plan: &FaultPlan, hosts: usize) {
    check_hosts(flag, plan.max_host(), hosts);
    let crashed = plan.crashed_hosts();
    if crashed.len() == hosts {
        let named: Vec<String> = crashed.iter().map(|h| format!("h{h}")).collect();
        fail(&format!(
            "{flag} crashes every host ({}); at least one must stay up to take the \
             evacuated VMs",
            named.join(", ")
        ));
    }
}

fn parse_args() -> Args {
    let mut a = Args::default();
    let mut all = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            match TARGETS.iter().find(|&&t| t == arg) {
                Some(t) => a.targets.push(t),
                None if arg == "all" => all = true,
                None => fail(&format!("unknown target `{arg}`")),
            }
            continue;
        }
        let f = FLAGS
            .iter()
            .find(|f| f.name.split(", ").any(|n| n == arg))
            .unwrap_or_else(|| fail(&format!("unknown option `{arg}`")));
        let v = match f.value {
            "" => String::new(),
            kind => it.next().unwrap_or_else(|| {
                let what = match kind {
                    "DIR" => "a directory",
                    "PLAN" => "a plan",
                    "LIST" => "a comma list",
                    "CKPT" => "a checkpoint file",
                    "CATS" => "a category list",
                    _ => "a value",
                };
                fail(&format!("{} needs {what}", f.long()))
            }),
        };
        (f.set)(&mut a, &v).unwrap_or_else(|e| fail(&format!("{}: {e}", f.long())));
        a.given.push(f.long());
    }
    if all || a.targets.is_empty() {
        // Every figure, then the other targets named alongside `all`.
        let others = a.targets.iter().filter(|t| !t.starts_with("fig"));
        a.targets = names(FIGS).into_iter().chain(others.copied()).collect();
    }
    if a.trace_dir.is_some() && !a.targets.contains(&"trace") {
        a.targets.push("trace");
    }
    let requested = (0..TARGETS.len())
        .filter(|&i| a.targets.contains(&TARGETS[i]))
        .fold(0, |set, i| set | 1 << i);
    let unread: Vec<String> = FLAGS
        .iter()
        .filter(|f| f.targets & requested == 0 && a.given.contains(&f.long()))
        .map(|f| {
            format!(
                "{} is not read by {} (it is read by {})",
                f.long(),
                names(requested).join(", "),
                names(f.targets).join(", ")
            )
        })
        .collect();
    if !unread.is_empty() {
        fail(&unread.join("\nrepro: "));
    }
    if let Some(spec) = &a.faults {
        check_faults("--faults", &spec.resolve(a.epochs, a.hosts), a.hosts);
    }
    check_hosts("--churn", a.churn.resolve(1, a.hosts).max_host(), a.hosts);
    if let Some(spec) = &a.b_faults {
        check_faults("--b-faults", &spec.resolve(a.epochs, a.hosts), a.hosts);
    }
    if let Some(spec) = &a.b_churn {
        check_hosts(
            "--b-churn",
            spec.resolve(a.epochs, a.hosts).max_host(),
            a.hosts,
        );
    }
    // Checkpoints are artifacts: they need somewhere to land.
    if a.checkpoint_every != 0 && a.json_dir.is_none() {
        fail("--checkpoint-every needs --json DIR to write checkpoints into");
    }
    // The checkpoint carries the scenario; flags that would rebuild a
    // different one are contradictions, not overrides.
    if a.resume.is_some() {
        if let Some(flag) = a.given.iter().find(|f| !RESUME_KEEPS.contains(f)) {
            fail(&format!(
                "{flag} conflicts with --resume: the scenario is rebuilt from the \
                 checkpoint (only --epochs, --jobs, --json and --checkpoint-every apply)"
            ));
        }
    }
    a
}

fn emit<T: serde::Serialize>(
    args: &Args,
    name: &str,
    table: String,
    checks: Vec<ShapeCheck>,
    value: &T,
) {
    println!("{table}");
    for c in &checks {
        println!(
            "  [{}] {} — {}",
            if c.holds { "PASS" } else { "MISS" },
            c.claim,
            c.evidence
        );
    }
    println!();
    if let Some(dir) = &args.json_dir {
        fs::create_dir_all(dir).expect("create json dir");
        let path = dir.join(format!("{name}.json"));
        fs::write(&path, serde_json::to_vec_pretty(value).expect("serialize")).expect("write json");
        progress!("wrote {}", path.display());
    }
}

/// Flight-record the Figure 1 testbed under both schedulers and write
/// the bundle (Chrome trace, LHP episodes, metrics, text summary) into
/// the `--trace` directory (falling back to `--json`, then `.`).
fn run_trace(args: &Args) {
    let dir = args
        .trace_dir
        .clone()
        .or_else(|| args.json_dir.clone())
        .unwrap_or_else(|| PathBuf::from("."));
    let bundles =
        flightrec::capture_bundles(&args.params, args.trace_cats, flightrec::TRACE_CAPACITY);
    for b in &bundles {
        println!("{}", b.summary);
    }
    let paths = flightrec::write_bundles(&dir, &bundles).expect("write trace bundle");
    for p in paths {
        progress!("wrote {}", p.display());
    }
}

fn run_timeline(p: &FigureParams) {
    use asman_report::Timeline;
    use asman_sim::Clock;
    let clk = Clock::default();
    // Render both panels as strings on the sweep runner, then print in
    // the fixed Credit-then-ASMan order.
    let panels = p
        .runner()
        .map(vec![Sched::Credit, Sched::Asman], |sched| {
            let tl = Timeline::lu_testbed(sched, p.class, p.seed);
            format!(
                "LU @ 22.2% under {} — guest VCPU duty cycles, 400 ms window\n(# online, + partial, . offline; rows: dom0 x8 then guest x4)\n{}",
                sched.label(),
                tl.gantt(clk.secs(2), clk.secs(2) + clk.ms(400), 100)
            )
        });
    for panel in panels {
        println!("{panel}");
    }
}

/// Differential oracle audit: run the optimized engine and the naive
/// oracle over a randomized scenario grid and demand bit-identical
/// behavior, then cross-check that the sweep digests are independent
/// of the worker count. Exits non-zero on any divergence, printing the
/// first mismatching event of each divergent cell with context.
fn run_audit(args: &Args) {
    use asman_report::audit;
    let report = audit::run_grid(args.cells, args.params.seed, args.params.jobs);
    println!("{}", report.render());
    // jobs cross-check: the same leading cells under 1 and 4 workers
    // must produce identical digests.
    let sub = args.cells.min(18);
    let seq = audit::run_grid(sub, args.params.seed, 1);
    let par = audit::run_grid(sub, args.params.seed, 4);
    let jobs_ok = seq.digests == par.digests;
    println!(
        "jobs cross-check over {sub} cells: {}",
        if jobs_ok {
            "1 and 4 workers bit-identical"
        } else {
            "FAILED — digests depend on worker count"
        }
    );
    if let Some(dir) = &args.json_dir {
        fs::create_dir_all(dir).expect("create json dir");
        let path = dir.join("AUDIT_diff.json");
        fs::write(
            &path,
            serde_json::to_vec_pretty(&report).expect("serialize"),
        )
        .expect("write json");
        progress!("wrote {}", path.display());
    }
    if !report.ok() || !jobs_ok {
        std::process::exit(1);
    }
}

/// The cluster experiment the flags describe: the shared recipe, and
/// the policies `--policy` names.
fn cluster_params(args: &Args) -> ClusterParams {
    let policies = match args.policy {
        // A single policy is always compared against the static
        // baseline, which anchors every shape check.
        Some(Policy::Static) => vec![Policy::Static],
        Some(p) => vec![Policy::Static, p],
        None => Policy::ALL.to_vec(),
    };
    ClusterParams {
        recipe: args.recipe(CheckpointConfig::default(), args.epochs),
        policies,
        jobs: args.params.jobs,
    }
}

/// The multi-host consolidation experiment: compare placement policies
/// on the same seeded cluster, print the table and shape checks, and —
/// when an output directory is available — write the host-tagged
/// flight-recorder streams and migration-span cost table of each
/// compared policy.
fn run_cluster(args: &Args) {
    use serde::Serialize;
    let p = cluster_params(args);
    let exp = cluster::run(&p);
    emit(
        args,
        "CLUSTER_consolidation",
        exp.render(),
        exp.shape_checks(),
        &exp,
    );

    // Flight streams, tagged by host id, one artifact per policy.
    if let Some(dir) = args.trace_dir.clone().or_else(|| args.json_dir.clone()) {
        #[derive(Serialize)]
        struct HostStream {
            host: usize,
            events: Vec<asman_sim::FlightEvent>,
        }
        fs::create_dir_all(&dir).expect("create trace dir");
        for &policy in &p.policies {
            let (streams, metrics) = cluster::capture_flight(
                &p,
                policy,
                args.trace_cats,
                flightrec::TRACE_CAPACITY,
                cluster::CLUSTER_STREAM_BUDGET,
            );
            // Migration-span cost table: derived from the merged,
            // budgeted streams — it covers exactly what the flight
            // artifact shows.
            let merged = asman_sim::merge_streams(
                streams.iter().map(|(_, events)| events.clone()).collect(),
            );
            let spans = flightrec::migration_spans(&merged);
            let tagged: Vec<HostStream> = streams
                .into_iter()
                .map(|(host, events)| HostStream { host, events })
                .collect();
            let path = dir.join(format!("CLUSTER_flight_{}.json", policy.label()));
            fs::write(&path, serde_json::to_vec(&tagged).expect("serialize"))
                .expect("write flight streams");
            progress!("wrote {}", path.display());
            let path = dir.join(format!("CLUSTER_spans_{}.json", policy.label()));
            fs::write(&path, serde_json::to_vec_pretty(&spans).expect("serialize"))
                .expect("write migration spans");
            progress!("wrote {}", path.display());
            let path = dir.join(format!("CLUSTER_metrics_{}.json", policy.label()));
            fs::write(
                &path,
                serde_json::to_vec_pretty(&metrics).expect("serialize"),
            )
            .expect("write cluster metrics");
            progress!("wrote {}", path.display());
        }
    }
}

/// The telemetry series report (`repro series`): the consolidation
/// cluster with the epoch sampler and latency histograms armed. Prints
/// the sparkline timeline, anomaly flags and reaction summary; with
/// `--json DIR`, writes one `CLUSTER_series_<policy>.json` per policy
/// (byte-identical for every `--jobs` value).
fn run_series(args: &Args) {
    let p = series::SeriesParams {
        cluster: cluster_params(args),
        window: args.window,
        nsigma: args.nsigma,
    };
    let rep = series::run(&p);
    println!("{}", rep.render());
    if let Some(dir) = &args.json_dir {
        fs::create_dir_all(dir).expect("create json dir");
        for o in &rep.outcomes {
            let path = dir.join(format!("CLUSTER_series_{}.json", o.policy));
            fs::write(&path, serde_json::to_vec_pretty(o).expect("serialize"))
                .expect("write series json");
            progress!("wrote {}", path.display());
        }
    }
}

/// The long-horizon soak (`repro soak`): the consolidation cluster
/// driven for `--epochs` boundaries (default 100k) under `--churn`,
/// with amortized audits, occupancy checkpoints asserting the
/// bounded-memory invariant, and a jobs-1-vs-4 determinism prefix.
/// Exits non-zero when the cross-check digests diverge.
fn run_soak(args: &Args) {
    use asman_report::{checkpoint, soak};

    let defaults = soak::SoakParams::default();
    // A soak with no explicit --epochs runs its own long-horizon
    // default (or, resumed, the horizon the checkpointed run was headed
    // for), not the 8-epoch cluster-experiment default.
    let horizon = |default| {
        if args.given.contains(&"--epochs") {
            args.epochs
        } else {
            default
        }
    };
    let (recipe, resume) = if let Some(path) = &args.resume {
        // A directory means "the newest checkpoint in here", found by
        // numeric epoch (lexicographic order lies past epoch 999,999).
        let path = if path.is_dir() {
            checkpoint::latest_checkpoint(path).unwrap_or_else(|e| fail(&format!("--resume {e}")))
        } else {
            path.clone()
        };
        let ck =
            checkpoint::read_checkpoint(&path).unwrap_or_else(|e| fail(&format!("--resume {e}")));
        let epochs = horizon(ck.config.epochs);
        if ck.state.epoch >= epochs {
            fail(&format!(
                "--resume checkpoint is at epoch {} but the horizon is {epochs}; \
                 raise --epochs past the checkpoint",
                ck.state.epoch
            ));
        }
        // The scenario is the checkpoint's whole configuration.
        let recipe = CheckpointConfig {
            epochs,
            ..ck.config.clone()
        };
        (recipe, Some(ck))
    } else {
        let epochs = horizon(defaults.recipe.epochs);
        let recipe = CheckpointConfig {
            audit_every: args.audit_every.min(epochs),
            ..args.recipe(defaults.recipe.clone(), epochs)
        };
        (recipe, None)
    };
    let p = soak::SoakParams {
        recipe,
        jobs: args.params.jobs,
        checkpoint_every: args.checkpoint_every,
        ckpt_dir: args.json_dir.clone(),
        resume,
        ..defaults
    };
    // Only a resume can fail: its replay did not reconverge.
    let rep = soak::run(&p).unwrap_or_else(|e| fail(&format!("--resume {e}")));
    emit(args, "SOAK_report", rep.render(), rep.shape_checks(), &rep);
    if !rep.jobs_identical() {
        std::process::exit(1);
    }
}

/// The divergence bisector (`repro bisect`): build side A from the
/// cluster-family flags and side B from the `--b-*` overrides (or an
/// injected `--b-mutate` behavioral mutation), step both to the first
/// epoch boundary whose cluster state digests differ, and report the
/// first divergent flight event in context. Exits 0 when the runs are
/// bit-identical, 1 on divergence.
fn run_bisect(args: &Args) {
    use asman_report::bisect;

    let epochs = args.epochs;
    let a = CheckpointConfig {
        policy: args.policy.unwrap_or(Policy::VcrdAware),
        ..args.recipe(CheckpointConfig::default(), epochs)
    };
    let mut b = a.clone();
    if let Some(p) = args.b_policy {
        b.policy = p;
    }
    if let Some(s) = args.b_seed {
        b.scenario.seed = s;
    }
    if let Some(spec) = &args.b_faults {
        b.faults = spec.resolve(epochs, args.hosts);
    }
    if let Some(spec) = &args.b_churn {
        b.churn = spec.resolve(epochs, args.hosts);
        b.slot_reuse = b.slot_reuse || !b.churn.is_empty();
    }
    // Slot reuse changes tombstone behavior, so both sides must agree
    // on it or the bisector would report the knob, not the real cause.
    let slot_reuse = a.slot_reuse || b.slot_reuse;
    let (mut a, mut b) = (a, b);
    a.slot_reuse = slot_reuse;
    b.slot_reuse = slot_reuse;
    let out = bisect::run(&bisect::BisectParams {
        a,
        b,
        jobs: args.params.jobs,
        mutate: args.b_mutate,
    });
    println!("{}", out.render());
    if !out.identical() {
        std::process::exit(1);
    }
}

/// The free-form sweep (`repro sweep`): one row per NAS benchmark ×
/// online rate × scheduler with run time, slowdown against the 100%
/// Credit baseline, spin waste and VCRD activity.
fn run_sweep(args: &Args) {
    use asman_report::SingleVmScenario;
    use asman_workloads::NasSpec;

    let p = &args.params;
    if args.csv {
        println!("bench,rate_pct,sched,run_secs,slowdown,spin_secs,vcrd_raises,high_frac");
    } else {
        println!(
            "{:<6} {:>7} {:<7} {:>9} {:>9} {:>9} {:>7} {:>6}",
            "bench", "rate%", "sched", "run(s)", "slowdown", "spin(s)", "raises", "high%"
        );
    }
    for &bench in &args.nas {
        let run = |sched, weight| {
            let program = NasSpec::new(bench, p.class, 4).build(p.seed ^ 7);
            SingleVmScenario::new(sched, weight, p.seed).run(Box::new(program))
        };
        let base = run(Sched::Credit, 256);
        for &(w, pct) in &args.rates {
            for &sched in &args.scheds {
                let out = run(sched, w);
                let spin = out.spin_kernel_secs + out.spin_pipeline_secs + out.spin_barrier_secs;
                let slowdown = out.run_secs / base.run_secs;
                if args.csv {
                    println!(
                        "{},{},{},{:.3},{:.3},{:.3},{},{:.3}",
                        bench.name(),
                        pct,
                        sched.label(),
                        out.run_secs,
                        slowdown,
                        spin,
                        out.vcrd_raises,
                        out.vcrd_high_frac
                    );
                } else {
                    println!(
                        "{:<6} {:>7.1} {:<7} {:>9.1} {:>9.2} {:>9.2} {:>7} {:>6.1}",
                        bench.name(),
                        pct,
                        sched.label(),
                        out.run_secs,
                        slowdown,
                        spin,
                        out.vcrd_raises,
                        out.vcrd_high_frac * 100.0
                    );
                }
            }
        }
    }
}

fn main() {
    let args = parse_args();
    let p = &args.params;
    progress!(
        "class={:?} seed={} rounds={} figures={:?}",
        p.class,
        p.seed,
        p.rounds,
        args.targets
    );
    for &target in &args.targets {
        let t0 = std::time::Instant::now();
        match target {
            "fig1" => {
                let f = fig01::run(p);
                emit(&args, "fig01", f.render(), f.shape_checks(), &f);
            }
            "fig2" => {
                let f = fig02::run(p);
                emit(&args, "fig02", f.render(), f.shape_checks(), &f);
            }
            "fig7" => {
                let f = fig07::run(p);
                emit(&args, "fig07", f.render(), f.shape_checks(), &f);
            }
            "fig8" => {
                let f = fig08::run(p);
                emit(&args, "fig08", f.render(), f.shape_checks(), &f);
            }
            "fig9" => {
                let f = fig09::run(p);
                emit(&args, "fig09", f.render(), f.shape_checks(), &f);
            }
            "fig10" => {
                let f = fig10::run(p);
                emit(&args, "fig10", f.render(), f.shape_checks(), &f);
            }
            "fig11" => {
                let f = fig11::run(p);
                emit(&args, "fig11", f.render(), f.shape_checks(), &f);
            }
            "fig12" => {
                let f = fig12::run(p);
                emit(&args, "fig12", f.render(), f.shape_checks(), &f);
            }
            "extensions" => {
                let f = asman_report::extensions::run(p);
                emit(&args, "extensions", f.render(), f.shape_checks(), &f);
            }
            "timeline" => run_timeline(p),
            "sweep" => run_sweep(&args),
            "trace" => run_trace(&args),
            "ablations" => {
                let f = asman_report::ablations::run(p);
                emit(&args, "ablations", f.render(), f.shape_checks(), &f);
            }
            "audit" => run_audit(&args),
            "cluster" => run_cluster(&args),
            "series" => run_series(&args),
            "soak" => run_soak(&args),
            "bisect" => run_bisect(&args),
            other => unreachable!("target `{other}` validated in parse_args"),
        }
        progress!("[{target} took {:.1?}]", t0.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_sets_are_named_for_their_targets() {
        assert_eq!(names(FIGS), TARGETS[..8]);
        for (set, name) in [
            (FIG10, "fig10"),
            (FIG11, "fig11"),
            (FIG12, "fig12"),
            (EXTENSIONS, "extensions"),
            (TIMELINE, "timeline"),
            (SWEEP, "sweep"),
            (TRACE, "trace"),
            (ABLATIONS, "ablations"),
            (AUDIT, "audit"),
            (CLUSTER, "cluster"),
            (SERIES, "series"),
            (SOAK, "soak"),
            (BISECT, "bisect"),
        ] {
            assert_eq!(names(set), [name]);
        }
    }

    #[test]
    fn every_flag_is_unique_read_and_documented() {
        let usage = usage();
        for f in FLAGS {
            assert_eq!(
                FLAGS.iter().filter(|g| g.long() == f.long()).count(),
                1,
                "{}",
                f.name
            );
            assert_ne!(f.targets, 0, "{} is read by no target", f.name);
            assert!(usage.contains(f.name), "usage documents {}", f.name);
        }
    }

    /// `--jobs` refuses a count above [`MAX_JOBS`] while parsing, before
    /// any runner spawns a thread, and keeps `0` for one per core.
    #[test]
    fn jobs_is_bounded() {
        let flag = FLAGS
            .iter()
            .find(|f| f.long() == "--jobs")
            .expect("--jobs flag");
        let set = |v: &str| {
            let mut a = Args::default();
            (flag.set)(&mut a, v).map(|()| a.params.jobs)
        };
        assert_eq!(set("0"), Ok(0));
        assert_eq!(set("128"), Ok(128));
        for v in ["129", "100000"] {
            assert_eq!(set(v), Err("must be at most 128".to_string()), "--jobs {v}");
        }
    }
}
