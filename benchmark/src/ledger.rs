//! The metric catalogue and what one pass of a workload hands back.
//!
//! `END_TO_END` and `PER_LAYER` are the names and units the benchmark
//! prints; `BENCHMARK.json` lists the same ones (a test keeps the two
//! in step). Per-layer counts are simulated quantities read from the
//! crates' public counters: they repeat bit for bit for a given seed,
//! so a changed count flags a behaviour change, not a speed-up.

use crate::probe::{Probe, SpanTotals};
use asman_hypervisor::Machine;
use asman_sim::{Fnv, MetricsRegistry};
use std::collections::BTreeMap;

/// End-to-end metrics, measured in untraced passes. `failed_frac` is
/// printed beside them but travels in the result's `attempted` and
/// `failed` fields: it is 0 on a correct run, and a zero median has no
/// relative spread.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("unit_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, measured in traced passes. A workload that does
/// not reach a layer reports zero for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.events_per_busy_s", "1/s"),
    ("hypervisor.run_until_s", "s"),
    ("hypervisor.dispatches", "count"),
    ("hypervisor.pcpu_migrations", "count"),
    ("hypervisor.cosched_bursts", "count"),
    ("guest.lock_acquisitions", "count"),
    ("guest.holder_preemptions", "count"),
    ("guest.timer_ticks", "count"),
    ("guest.spin_cycles", "cycles"),
    ("core.vcrd_raises", "count"),
    ("exec.parallel_wall_s", "s"),
    ("exec.worker_busy_s", "s"),
    ("exec.barrier_stall_s", "s"),
    ("exec.utilisation", "ratio"),
    ("exec.host_events_max_over_mean", "ratio"),
    ("cluster.run_epoch_s", "s"),
    ("cluster.serial_s", "s"),
    ("cluster.audit_s", "s"),
    ("balancer.moves_planned", "count"),
    ("balancer.moves_denied_conflict", "count"),
    ("migration.committed", "count"),
    ("migration.aborts", "count"),
    ("migration.evacuations", "count"),
    ("migration.commit_ratio", "ratio"),
    ("churn.arrivals", "count"),
    ("churn.departures", "count"),
    ("churn.rejected", "count"),
    ("checkpoint.capture_ms", "ms"),
    ("checkpoint.encode_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.decode_ms", "ms"),
    ("checkpoint.replay_s", "s"),
    ("checkpoint.validate_ms", "ms"),
    ("checkpoint.apply_ms", "ms"),
    ("checkpoint.resume_s", "s"),
    ("serde_json.encode_mb_per_s", "MB/s"),
    ("serde_json.decode_mb_per_s", "MB/s"),
    ("flight.events_seen", "count"),
    ("flight.events_dropped", "count"),
    ("flight.record_overhead", "ratio"),
    ("flightrec.capture_ms", "ms"),
    ("flightrec.bundle_bytes", "bytes"),
    ("bench.units", "count"),
    ("bench.span_coverage", "ratio"),
    ("bench.span_overhead", "s"),
];

/// Named values in a fixed order.
pub type Values = BTreeMap<&'static str, f64>;

/// Add `v` to the value named `name`.
pub fn add(values: &mut Values, name: &'static str, v: f64) {
    *values.entry(name).or_insert(0.0) += v;
}

/// What one pass of a workload hands back after its timed phase.
#[derive(Default)]
pub struct Pass {
    /// Seed-dependent outputs: compared with the pins on the default
    /// seed and between every pass of a run.
    pub digests: Vec<(&'static str, u64)>,
    /// Exact simulated counts; must repeat in every pass, traced or not.
    pub counts: Values,
    /// Seed-independent checks made inside the pass.
    pub checks: Vec<(&'static str, bool)>,
    /// Per-layer host-time values (traced passes only).
    pub layers: Values,
}

/// One benchmark workload: inputs from a seed, a set-up, and a fixed
/// amount of simulated work cut into units.
pub trait Workload {
    /// Everything built by set-up and consumed by the timed phase.
    type State;
    /// Digests of the default seed's outputs, by name.
    const PINS: &'static [(&'static str, u64)];
    /// Generate the inputs from `seed`, build and warm up. `tracing`
    /// says whether the coming timed phase is traced.
    fn setup(&self, seed: u64, tracing: bool) -> Self::State;
    /// The timed phase: the workload's fixed simulated work.
    fn run(&self, st: &mut Self::State, probe: &mut Probe);
    /// Read outputs and counters once the timed phase is over. `spans`
    /// holds the pass's span totals when it was traced.
    fn finish(&self, st: Self::State, spans: Option<&SpanTotals>) -> Pass;
}

/// Sum the machines' exported counters into per-layer counts.
pub fn machine_counts<'a>(machines: impl IntoIterator<Item = &'a Machine>, out: &mut Values) {
    for m in machines {
        let mut reg = MetricsRegistry::new();
        m.export_metrics(&mut reg);
        for (name, v) in reg.counters() {
            // `hv.<metric>` is machine-wide, `vm<i>.<metric>` per VM.
            let key = name.split_once('.').map_or(name, |(_, rest)| rest);
            let metric = match key {
                "events_processed" => "sim.events",
                "dispatches" => "hypervisor.dispatches",
                "migrations" => "hypervisor.pcpu_migrations",
                "cosched_bursts" => "hypervisor.cosched_bursts",
                "vcrd_raises" => "core.vcrd_raises",
                "guest.lock_acquisitions" => "guest.lock_acquisitions",
                "guest.holder_preemptions" => "guest.holder_preemptions",
                "guest.timer_ticks" => "guest.timer_ticks",
                k if k.starts_with("flight.") && k.ends_with(".seen") => "flight.events_seen",
                k if k.starts_with("flight.") && k.ends_with(".dropped") => "flight.events_dropped",
                _ => continue,
            };
            add(out, metric, v as f64);
        }
        for vm in 0..m.vm_count() {
            add(out, "guest.spin_cycles", m.vm_counters(vm).spin as f64);
        }
    }
}

/// Host seconds the machines spent inside their run drivers.
pub fn machine_busy_s<'a>(machines: impl IntoIterator<Item = &'a Machine>) -> f64 {
    machines
        .into_iter()
        .map(|m| m.perf().wall.as_secs_f64())
        .sum()
}

/// FNV-1a over a sequence of words (folds fingerprints into one digest).
pub fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    for w in words {
        h.write_u64(w);
    }
    h.finish()
}

/// `num / den`, or zero when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
