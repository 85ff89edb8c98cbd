//! Differential oracle harness: the optimized engine vs the naive one.
//!
//! Every cell of the audit grid builds **two** machines from identical
//! configuration and workload specs — one on the optimized
//! [`EventQueue`](asman_sim::EventQueue)-backed engine with all its
//! caches (sorted event array, runqueue position index, idle/queued
//! bitmasks, scratch buffers), and one on the naive
//! [`OracleMachine`] whose [`OracleQueue`](asman_sim::OracleQueue)
//! linear-scans an unsorted vector and whose scheduler recomputes every
//! lookup from first principles. Both run over the same horizon and the
//! harness demands bit-identical observable behavior: event counts,
//! final simulated time, per-VCPU state/credit snapshots, the full
//! metrics registry, and — for tracing cells — the complete merged
//! flight-recorder event stream.
//!
//! Event keys `(time, seq)` are unique, so any correct min-ordered
//! queue pops the same sequence; a single divergent flight event
//! therefore pinpoints the *first* scheduling decision where an
//! optimized-path cache disagreed with the recomputed truth, and the
//! report quotes it with surrounding context from both streams.
//!
//! The grid spans seeds × schedulers × workload shapes × PCPU counts ×
//! cap modes × tracing on/off, and runs on the [`SweepRunner`] so the
//! `--jobs` axis is exercised too (results are bit-identical for every
//! worker count by construction).

use std::fmt::Write as _;

use asman_core::{asman_setup, AsmanConfig};
use asman_hypervisor::{CapMode, CoschedPolicy, Ev, Machine, MachineConfig, OracleMachine, VmSpec};
use asman_sim::{
    check_episode_invariants, detect_lhp, CatMask, Clock, FlightEvent, Fnv, MetricsRegistry,
    SimQueue, SweepRunner,
};
use asman_workloads::{Op, ScriptProgram};
use serde::Serialize;

use crate::scenario::Sched;

/// Flight-recorder capacity per category per layer for tracing cells —
/// large enough that a 40 ms cell never drops, so the streams compare
/// exactly.
pub const TRACE_CAPACITY: usize = 100_000;

/// Workload shapes of the audit grid, chosen to cover the distinct
/// guest-kernel paths: spin-heavy lock contention (LHP territory),
/// mixed compute/sleep with short critical sections (block/wake churn),
/// and barrier synchronization (futex block + kernel bookkeeping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Long critical sections under one contended spinlock.
    Locky,
    /// Compute, a short critical section, then a real sleep.
    MixedSleep,
    /// Compute then an all-thread barrier, repeatedly.
    BarrierSync,
}

impl Workload {
    /// Every workload shape.
    pub const ALL: [Workload; 3] = [Workload::Locky, Workload::MixedSleep, Workload::BarrierSync];

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Locky => "locky",
            Workload::MixedSleep => "mixed",
            Workload::BarrierSync => "barrier",
        }
    }

    fn program(self, threads: usize) -> ScriptProgram {
        let clk = Clock::default();
        let ops = match self {
            Workload::Locky => vec![
                Op::CriticalSection {
                    lock: 0,
                    hold: clk.us(150),
                },
                Op::Compute(clk.us(80)),
            ],
            Workload::MixedSleep => vec![
                Op::Compute(clk.us(120)),
                Op::CriticalSection {
                    lock: 0,
                    hold: clk.us(40),
                },
                Op::Sleep(clk.us(300)),
            ],
            Workload::BarrierSync => vec![Op::Compute(clk.us(90)), Op::Barrier { id: 0 }],
        };
        ScriptProgram::homogeneous(self.label(), threads, ops).looping()
    }
}

/// One cell of the audit grid: a fully determined scenario that both
/// engines run independently.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Grid index (stable across job counts).
    pub id: usize,
    /// Machine RNG seed.
    pub seed: u64,
    /// Scheduler under test.
    pub sched: Sched,
    /// Guest workload shape.
    pub workload: Workload,
    /// Physical CPU count (2 = overcommitted, 4 = fully provisioned).
    pub pcpus: usize,
    /// Whether the flight recorder runs (full stream comparison).
    pub tracing: bool,
    /// Whether VM "b" is capped non-work-conserving (parking paths).
    pub nwc_cap: bool,
    /// Simulated horizon in milliseconds.
    pub horizon_ms: u64,
}

impl CellSpec {
    /// Human-readable cell label used in divergence reports.
    pub fn label(&self) -> String {
        format!(
            "cell {:03} [{} {} pcpus={} cap={} trace={} seed={:#018x}]",
            self.id,
            self.sched.label(),
            self.workload.label(),
            self.pcpus,
            if self.nwc_cap { "nwc" } else { "wc" },
            if self.tracing { "on" } else { "off" },
            self.seed,
        )
    }
}

/// Build the audit grid: `cells` specs cycling through every axis
/// combination (scheduler fastest, then workload, tracing, PCPU count,
/// cap mode) with a per-cell seed derived from `base_seed`.
pub fn grid(cells: usize, base_seed: u64) -> Vec<CellSpec> {
    (0..cells)
        .map(|id| CellSpec {
            id,
            seed: base_seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            sched: Sched::ALL[id % 3],
            workload: Workload::ALL[(id / 3) % 3],
            tracing: (id / 9) % 2 == 0,
            pcpus: [2, 4][(id / 18) % 2],
            nwc_cap: (id / 36) % 2 == 1,
            horizon_ms: 40,
        })
        .collect()
}

/// The two-VM spec set for a cell. Rebuilt from scratch for each
/// machine so the optimized and oracle runs share no state at all.
fn specs_for(spec: &CellSpec) -> Vec<VmSpec> {
    let a = VmSpec::new("a", 2, Box::new(spec.workload.program(2))).concurrent();
    let mut b = VmSpec::new("b", 2, Box::new(spec.workload.program(2)))
        .concurrent()
        .weight(if spec.seed & 1 == 1 { 128 } else { 256 });
    if spec.nwc_cap {
        b = b.cap(CapMode::NonWorkConserving);
    }
    vec![a, b]
}

/// Resolve a cell into the final `(MachineConfig, specs)` pair exactly
/// the way [`crate::machine_for`] would, but without committing to a
/// queue implementation — so the same inputs can feed either engine.
fn resolved(spec: &CellSpec) -> (MachineConfig, Vec<VmSpec>) {
    let cfg = MachineConfig {
        pcpus: spec.pcpus,
        seed: spec.seed,
        ..MachineConfig::default()
    };
    let specs = specs_for(spec);
    match spec.sched {
        Sched::Credit => (
            MachineConfig {
                policy: CoschedPolicy::None,
                ..cfg
            },
            specs,
        ),
        Sched::Con => (
            MachineConfig {
                policy: CoschedPolicy::Static,
                ..cfg
            },
            specs,
        ),
        Sched::Asman => asman_setup(
            AsmanConfig {
                machine: cfg,
                ..AsmanConfig::default()
            },
            specs,
        ),
    }
}

/// A confirmed optimized-vs-oracle disagreement in one cell.
#[derive(Clone, Debug, Serialize)]
pub struct Divergence {
    /// The cell's label (axes + seed).
    pub cell: String,
    /// First-mismatch report with surrounding context.
    pub report: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}\n{}", self.cell, self.report)
    }
}

/// Result of one audited cell.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// The cell's label.
    pub label: String,
    /// FNV-1a fingerprint of the optimized engine's digest (identical
    /// across job counts by construction; used for cross-checks).
    pub digest: u64,
    /// The first divergence found, if any.
    pub divergence: Option<Divergence>,
}

/// Everything observable about a finished machine, as ordered text
/// lines: engine counters, per-VM VCPU state/credit snapshots, VCRD
/// levels, and the full metrics registry (serialized from `BTreeMap`s,
/// hence deterministic).
fn digest<Q: SimQueue<Ev>>(m: &Machine<Q>) -> String {
    let mut s = String::new();
    writeln!(s, "events_processed={}", m.events_processed()).unwrap();
    writeln!(s, "now={}", m.now().as_u64()).unwrap();
    for vm in 0..m.vm_count() {
        writeln!(s, "vm{vm}.vcpus={:?}", m.vcpu_snapshot(vm)).unwrap();
        writeln!(s, "vm{vm}.vcrd={:?}", m.vm_vcrd(vm)).unwrap();
        writeln!(s, "vm{vm}.online={}", m.vm_online_count(vm)).unwrap();
    }
    let mut reg = MetricsRegistry::new();
    m.export_metrics(&mut reg);
    s.push_str(&serde_json::to_string(&reg).expect("serialize registry"));
    s.push('\n');
    s
}

/// Compare the two digests line by line; on mismatch, report the first
/// differing line from both engines.
fn first_digest_divergence(cell: &str, opt: &str, ora: &str) -> Option<Divergence> {
    if opt == ora {
        return None;
    }
    let (mut lo, mut ln) = (opt.lines(), ora.lines());
    let mut i = 0usize;
    loop {
        match (lo.next(), ln.next()) {
            (Some(a), Some(b)) if a == b => i += 1,
            (a, b) => {
                return Some(Divergence {
                    cell: cell.to_string(),
                    report: format!(
                        "digest line {i} differs\n  optimized: {}\n  oracle:    {}",
                        a.unwrap_or("<missing>"),
                        b.unwrap_or("<missing>"),
                    ),
                });
            }
        }
    }
}

/// Compare the merged flight-recorder streams event by event; on
/// mismatch, report the first divergent event index with up to three
/// events of context on either side from both streams.
fn first_stream_divergence(
    cell: &str,
    opt: &[FlightEvent],
    ora: &[FlightEvent],
) -> Option<Divergence> {
    let n = opt.len().min(ora.len());
    let idx = (0..n)
        .find(|&i| opt[i] != ora[i])
        .or_else(|| (opt.len() != ora.len()).then_some(n))?;
    let mut report = format!(
        "flight streams diverge at event {idx} (optimized has {}, oracle has {})\n",
        opt.len(),
        ora.len(),
    );
    let render = |s: &[FlightEvent], i: usize| {
        s.get(i)
            .map(|e| format!("t={} {:?}", e.t.as_u64(), e.ev))
            .unwrap_or_else(|| "<end of stream>".to_string())
    };
    for i in idx.saturating_sub(3)..(idx + 4).min(opt.len().max(ora.len())) {
        let mark = if i == idx { ">>" } else { "  " };
        writeln!(report, "  [{i}] {mark} optimized: {}", render(opt, i)).unwrap();
        writeln!(report, "  [{i}] {mark} oracle:    {}", render(ora, i)).unwrap();
    }
    Some(Divergence {
        cell: cell.to_string(),
        report,
    })
}

/// Run one cell on both engines and compare everything observable.
pub fn run_cell(spec: &CellSpec) -> CellOutcome {
    run_cell_impl(spec, |_| {})
}

/// Run one cell with a fault armed on the **optimized** engine only,
/// while the oracle stays clean. A correct differential harness must
/// then report a divergence; the mutation tests assert it does. The
/// hook runs after construction and before the first event, so it can
/// call the machine's `audit_inject_*` mutators.
#[cfg(feature = "audit")]
pub fn run_cell_with_fault(spec: &CellSpec, arm: impl FnOnce(&mut Machine)) -> CellOutcome {
    run_cell_impl(spec, arm)
}

fn run_cell_impl(spec: &CellSpec, arm: impl FnOnce(&mut Machine)) -> CellOutcome {
    let (cfg, specs) = resolved(spec);
    let mut opt = Machine::new(cfg, specs);
    arm(&mut opt);
    let (cfg, specs) = resolved(spec);
    let mut ora = OracleMachine::build(cfg, specs);
    if spec.tracing {
        opt.enable_flight(CatMask::ALL, TRACE_CAPACITY);
        ora.enable_flight(CatMask::ALL, TRACE_CAPACITY);
    }
    let deadline = opt.config().clock.ms(spec.horizon_ms);
    opt.run_until(deadline);
    ora.run_until(deadline);

    let label = spec.label();
    let d_opt = digest(&opt);
    let d_ora = digest(&ora);
    let mut divergence = first_digest_divergence(&label, &d_opt, &d_ora);
    if divergence.is_none() && spec.tracing {
        let so = opt.flight_events();
        let sn = ora.flight_events();
        divergence = first_stream_divergence(&label, &so, &sn);
        if divergence.is_none() {
            // The agreed stream must also satisfy the LHP episode
            // invariants (bounded wasted spin, ordered spans).
            check_episode_invariants(&detect_lhp(&so));
        }
    }
    let mut h = Fnv::new();
    h.write_bytes(d_opt.as_bytes());
    CellOutcome {
        label,
        digest: h.finish(),
        divergence,
    }
}

/// Aggregate result of an audit grid run.
#[derive(Clone, Debug, Serialize)]
pub struct AuditReport {
    /// Cells run.
    pub cells: usize,
    /// Cells where both engines agreed bit-for-bit.
    pub passed: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Per-cell digest fingerprints (hex), in cell order.
    pub digests: Vec<String>,
    /// Every confirmed divergence, in cell order.
    pub divergences: Vec<Divergence>,
}

impl AuditReport {
    /// Whether every cell agreed.
    pub fn ok(&self) -> bool {
        self.divergences.is_empty() && self.passed == self.cells
    }

    /// Render the summary table (and any divergence reports).
    pub fn render(&self) -> String {
        let mut s = format!(
            "Differential audit — optimized engine vs naive oracle\n\
             {} cells ({} workers): {} agreed, {} diverged\n",
            self.cells,
            self.jobs,
            self.passed,
            self.divergences.len(),
        );
        for d in &self.divergences {
            writeln!(s, "\nDIVERGENCE in {d}").unwrap();
        }
        if self.ok() {
            s.push_str("every cell bit-identical across both engines\n");
        }
        s
    }
}

/// Run an audit grid of `cells` cells on `jobs` workers.
pub fn run_grid(cells: usize, base_seed: u64, jobs: usize) -> AuditReport {
    let specs = grid(cells, base_seed);
    let runner = SweepRunner::new(jobs);
    let outcomes = runner.map(specs, |s| run_cell(&s));
    let mut passed = 0usize;
    let mut digests = Vec::with_capacity(outcomes.len());
    let mut divergences = Vec::new();
    for o in outcomes {
        match o.divergence {
            None => passed += 1,
            Some(d) => divergences.push(d),
        }
        digests.push(format!("{:016x}", o.digest));
    }
    AuditReport {
        cells,
        passed,
        jobs: runner.jobs(),
        digests,
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asman_sim::{Cycles, FlightEv};

    /// 18 cells cover every scheduler × workload × tracing combination;
    /// each must agree bit-for-bit across the two engines.
    #[test]
    fn small_grid_bit_agrees() {
        let report = run_grid(18, 42, 2);
        assert!(
            report.ok(),
            "optimized and oracle engines diverged:\n{}",
            report.render()
        );
    }

    /// Digest fingerprints must not depend on the worker count.
    #[test]
    fn jobs_do_not_change_digests() {
        let seq = run_grid(9, 7, 1);
        let par = run_grid(9, 7, 4);
        assert!(seq.ok() && par.ok());
        assert_eq!(seq.digests, par.digests, "jobs changed audit digests");
    }

    /// The stream diff names the first divergent event and quotes both
    /// streams around it.
    #[test]
    fn divergence_report_names_first_event() {
        let ev = |t: u64, vcpu: u32| FlightEvent {
            t: Cycles(t),
            ev: FlightEv::Park { vcpu, vm: 0 },
        };
        let a: Vec<_> = (0..6).map(|i| ev(i * 10, 1)).collect();
        let mut b = a.clone();
        b[2] = ev(20, 7);
        let d = first_stream_divergence("cell x", &a, &b).expect("must diverge");
        assert!(d.report.contains("diverge at event 2"), "{}", d.report);
        assert!(d.report.contains("vcpu: 1"), "{}", d.report);
        assert!(d.report.contains("vcpu: 7"), "{}", d.report);
        assert!(first_stream_divergence("cell x", &a, &a.clone()).is_none());
        // Length mismatch alone is a divergence at the shorter length.
        let d = first_stream_divergence("cell x", &a[..4], &a).expect("must diverge");
        assert!(d.report.contains("diverge at event 4"), "{}", d.report);
        assert!(d.report.contains("<end of stream>"), "{}", d.report);
    }

    /// A wake-churn cell where BOOST decides the schedule: sleeping
    /// VCPUs wake constantly on an overcommitted host, so whether a
    /// woken VCPU preempts the runner is observable in every digest
    /// line. The injected BOOST-skip fault (armed on the optimized
    /// engine only) must surface as a divergence, and the identical
    /// un-armed cell must stay green — proving the harness catches a
    /// pure scheduling-policy mutation that miscounts no credit.
    #[cfg(feature = "audit")]
    #[test]
    fn boost_skip_fault_is_flagged_by_the_differential_harness() {
        let spec = CellSpec {
            id: 0,
            seed: 42,
            sched: Sched::Credit,
            workload: Workload::MixedSleep,
            pcpus: 2,
            tracing: true,
            nwc_cap: false,
            horizon_ms: 40,
        };
        let clean = run_cell(&spec);
        assert!(
            clean.divergence.is_none(),
            "un-armed cell must agree: {}",
            clean.divergence.unwrap()
        );
        let armed = run_cell_with_fault(&spec, |m| m.audit_inject_boost_skip());
        let d = armed
            .divergence
            .expect("BOOST-skip fault must diverge from the oracle");
        assert!(
            d.report.contains("differs") || d.report.contains("diverge"),
            "divergence report must name the first mismatch:\n{d}"
        );
        assert_ne!(clean.digest, armed.digest, "fault must change the digest");
    }

    /// The digest diff reports the first differing line from both sides.
    #[test]
    fn digest_divergence_reports_first_line() {
        let opt = "a=1\nb=2\nc=3\n";
        let ora = "a=1\nb=9\nc=3\n";
        let d = first_digest_divergence("cell y", opt, ora).expect("must diverge");
        assert!(d.report.contains("digest line 1"), "{}", d.report);
        assert!(
            d.report.contains("b=2") && d.report.contains("b=9"),
            "{}",
            d.report
        );
        assert!(first_digest_divergence("cell y", opt, opt).is_none());
    }
}
