//! The two cluster workloads.
//!
//! `cluster-epochs` is 16 uniform hosts under the static policy, so no
//! migration is ever planned (the VCRD-aware policy does move VMs of
//! this scenario at 5 ms epochs: 17 moves in 1,020 epochs on seed 42).
//! An epoch is the pool's spawn/join of host advances plus the barrier
//! stall, which is what a persistent epoch pool or cost-ordered
//! dispatch would change.
//!
//! `soak-ckpt` is an 8-host consolidation with generated churn and
//! faults on one worker, writing a checkpoint file every
//! [`CKPT_EVERY`] epochs. Part-way it drops the cluster, resumes from
//! the newest checkpoint file (read, decode, rebuild, replay, validate,
//! apply) and finishes the horizon. The serial barrier (balancer,
//! migration with abort and retry, churn, audit, checkpoint capture,
//! the vendored `serde_json`) does most of the work; one worker
//! bypasses the pool.

use crate::ledger::{self, add, Pass, Values, Workload};
use crate::probe::{Probe, SpanTotals};
use asman_cluster::scenario::{self, ConsolidationSpec};
use asman_cluster::{
    Checkpoint, CheckpointConfig, ChurnPlan, Cluster, ClusterConfig, ClusterReport, Policy,
};
use asman_report::checkpoint::{ckpt_filename, latest_checkpoint};
use asman_report::cluster::digest_report;
use asman_report::soak::SOAK_SERIES_CAPACITY;
use asman_sim::FaultPlan;
use std::path::PathBuf;

/// Epoch length of both workloads, as in the soak target.
const EPOCH_MS: u64 = 5;

/// Everything a cluster pass reports: report digest, final state
/// digest, host fingerprints, and the per-layer counts of the run.
fn cluster_pass(c: &Cluster, report: &ClusterReport, pass: &mut Pass) {
    let digest = u64::from_str_radix(&digest_report(report), 16).expect("hex report digest");
    pass.digests.push(("report", digest));
    pass.digests.push(("state_digest", c.state_digest()));
    pass.digests
        .push(("host_fingerprints", ledger::fold(c.host_fingerprints())));
    ledger::machine_counts(c.hosts(), &mut pass.counts);
    let counts = &mut pass.counts;
    let committed = c.records().len() as f64;
    let aborts = c.aborts().len() as f64;
    add(counts, "migration.committed", committed);
    add(counts, "migration.aborts", aborts);
    add(
        counts,
        "migration.evacuations",
        c.evacuations().len() as f64,
    );
    add(
        counts,
        "migration.commit_ratio",
        ledger::ratio(committed, committed + aborts),
    );
    let (arrivals, departures, rejected, _) = c.churn_counts();
    add(counts, "churn.arrivals", arrivals as f64);
    add(counts, "churn.departures", departures as f64);
    add(counts, "churn.rejected", rejected as f64);
    if let Some(series) = c.series() {
        for s in series.samples() {
            add(counts, "balancer.moves_planned", s.moves_planned as f64);
            add(
                counts,
                "balancer.moves_denied_conflict",
                s.moves_denied_conflict as f64,
            );
        }
    }
}

/// Host-time split of the epochs run since `from` (an index into the
/// cluster's epoch profile), added into `layers`.
fn profile_layers(c: &Cluster, from: usize, layers: &mut Values) {
    let jobs = c.jobs() as f64;
    let s = |ns: u64| ns as f64 * 1e-9;
    for p in &c.profile()[from..] {
        add(layers, "exec.parallel_wall_s", s(p.parallel_wall_ns));
        add(layers, "exec.worker_busy_s", s(p.worker_busy_ns));
        add(layers, "exec.barrier_stall_s", s(p.barrier_stall_ns));
        add(layers, "cluster.serial_s", s(p.serial_wall_ns));
        add(
            layers,
            "bench.parallel_capacity_s",
            jobs * s(p.parallel_wall_ns),
        );
    }
}

/// Derived ratios of the per-layer host times.
fn finish_layers(layers: &mut Values, spans: &SpanTotals, timed_events: f64) {
    let capacity = layers.remove("bench.parallel_capacity_s").unwrap_or(0.0);
    let busy = layers.get("exec.worker_busy_s").copied().unwrap_or(0.0);
    layers.insert("exec.utilisation", ledger::ratio(busy, capacity));
    let run_until = layers.get("hypervisor.run_until_s").copied().unwrap_or(0.0);
    layers.insert(
        "sim.events_per_busy_s",
        ledger::ratio(timed_events, run_until),
    );
    layers.insert("cluster.run_epoch_s", spans.self_s("cluster.run_epoch"));
    layers.insert("cluster.audit_s", spans.self_s("cluster.audit_check"));
}

fn events(c: &Cluster) -> u64 {
    c.hosts().iter().map(|m| m.events_processed()).sum()
}

// ------------------------------------------------------- cluster-epochs

const UNIFORM_HOSTS: usize = 16;
const UNIFORM_WARM_EPOCHS: u64 = 20;
const UNIFORM_EPOCHS: u64 = 1_500;

pub struct ClusterEpochs;

pub struct EpochsState {
    cluster: Cluster,
    tracing: bool,
    events_at_start: u64,
    busy_at_start: f64,
    /// Per timed epoch: the busiest host's events over the mean.
    imbalance: Vec<f64>,
    report: Option<ClusterReport>,
}

impl Workload for ClusterEpochs {
    type State = EpochsState;
    const PINS: &'static [(&'static str, u64)] = &[
        ("report", 0x15f2012bae397242),
        ("state_digest", 0xfa751406314a4ece),
        ("host_fingerprints", 0x88a946ce888a2ed2),
    ];

    fn setup(&self, seed: u64, tracing: bool) -> EpochsState {
        let cfg = ClusterConfig {
            epoch_ms: EPOCH_MS,
            epochs: UNIFORM_WARM_EPOCHS + UNIFORM_EPOCHS,
            policy: Policy::Static,
            // One worker per core.
            jobs: 0,
            max_moves: (UNIFORM_HOSTS / 8).max(1),
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(cfg, scenario::uniform(UNIFORM_HOSTS, seed));
        if tracing {
            cluster.enable_profiling();
        }
        for _ in 0..UNIFORM_WARM_EPOCHS {
            cluster.run_epoch();
        }
        EpochsState {
            events_at_start: events(&cluster),
            busy_at_start: ledger::machine_busy_s(cluster.hosts()),
            cluster,
            tracing,
            imbalance: Vec::new(),
            report: None,
        }
    }

    fn run(&self, st: &mut EpochsState, probe: &mut Probe) {
        let c = &mut st.cluster;
        let mut last: Vec<u64> = c.hosts().iter().map(|m| m.events_processed()).collect();
        for _ in 0..UNIFORM_EPOCHS {
            probe.unit("cluster.run_epoch", |_| c.run_epoch());
            if st.tracing {
                let now: Vec<u64> = c.hosts().iter().map(|m| m.events_processed()).collect();
                let deltas: Vec<f64> = now.iter().zip(&last).map(|(a, b)| (a - b) as f64).collect();
                let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
                let max = deltas.iter().copied().fold(0.0, f64::max);
                st.imbalance.push(ledger::ratio(max, mean));
                last = now;
            }
        }
        probe.span("cluster.audit_check", |_| c.audit_check());
        st.report = Some(probe.span("cluster.report", |_| c.report()));
    }

    fn finish(&self, st: EpochsState, spans: Option<&SpanTotals>) -> Pass {
        let c = &st.cluster;
        let mut pass = Pass::default();
        let report = st.report.as_ref().expect("timed phase ran");
        pass.checks
            .push(("cluster-epochs.no_migrations", report.migrations.is_empty()));
        cluster_pass(c, report, &mut pass);
        if let Some(spans) = spans {
            let layers = &mut pass.layers;
            profile_layers(c, UNIFORM_WARM_EPOCHS as usize, layers);
            add(
                layers,
                "hypervisor.run_until_s",
                ledger::machine_busy_s(c.hosts()) - st.busy_at_start,
            );
            add(
                layers,
                "exec.host_events_max_over_mean",
                st.imbalance.iter().sum::<f64>() / st.imbalance.len() as f64,
            );
            finish_layers(layers, spans, (events(c) - st.events_at_start) as f64);
        }
        pass
    }
}

// ------------------------------------------------------------ soak-ckpt

const SOAK_HOSTS: usize = 8;
/// Gang VMs consolidated on host 0 at the start: enough that the
/// balancer keeps planning moves for the whole horizon.
const SOAK_GANGS: usize = 6;
const SOAK_EPOCHS: u64 = 2_000;
const SOAK_WARM_EPOCHS: u64 = 50;
/// A checkpoint file is written every this many epochs.
pub const CKPT_EVERY: u64 = 250;
/// The run is dropped here, between two checkpoints, so the resume
/// replays past the newest one and re-runs the epochs after it.
const KILL_AT: u64 = 1_600;
/// Per-epoch arrival and departure chance of the generated churn plan.
const CHURN_PCT: u32 = 5;
/// Seed of the churn plan. A churn plan drawn from the run's seed makes
/// the population a random walk: across seeds the simulated work of a
/// pass moved by ±25 %, which would hide any host-time change. With
/// this plan held fixed, the scenario and fault plan still follow the
/// run's seed and the work moves by about ±5 %.
const CHURN_SEED: u64 = 42;

pub struct SoakCkpt {
    /// Directory the checkpoint files go to; emptied by every pass.
    pub dir: PathBuf,
}

pub struct SoakState {
    config: CheckpointConfig,
    /// Taken by the timed phase, which drops it part-way and puts the
    /// resumed cluster back.
    cluster: Option<Cluster>,
    tracing: bool,
    events_at_start: u64,
    layers: Values,
    digest_at_kill: u64,
    resume_ok: bool,
    resume_matches: bool,
    /// Size of the checkpoint file the resume read.
    ckpt_bytes: u64,
    /// Bytes of every checkpoint file written.
    written_bytes: u64,
    report: Option<ClusterReport>,
}

impl SoakCkpt {
    /// Capture, encode and write the checkpoint at `c`'s boundary.
    fn write(&self, st: &mut SoakState, c: &Cluster, probe: &mut Probe) {
        st.written_bytes += probe.span("checkpoint.write", |p| {
            let ck = p.span("checkpoint.capture", |_| {
                Checkpoint::capture(c, st.config.clone())
            });
            let value = p.span("checkpoint.to_value", |_| ck.to_value());
            let bytes = p.span("serde_json.to_vec_pretty", |_| {
                serde_json::to_vec_pretty(&value).expect("checkpoint serializes")
            });
            let path = self.dir.join(ckpt_filename(ck.state.epoch));
            p.span("fs.write", |_| std::fs::write(&path, &bytes))
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            bytes.len() as u64
        });
    }

    /// Read the newest checkpoint back and rebuild the cluster from it:
    /// replay to its epoch, validate, apply.
    fn resume(&self, st: &mut SoakState, probe: &mut Probe) -> Cluster {
        probe.span("checkpoint.resume", |p| {
            let path = p
                .span("checkpoint.find", |_| latest_checkpoint(&self.dir))
                .expect("a checkpoint was written");
            let text = p
                .span("fs.read", |_| std::fs::read_to_string(&path))
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            st.ckpt_bytes = text.len() as u64;
            let value = p
                .span("serde_json.from_str", |_| serde_json::from_str(&text))
                .expect("checkpoint file parses");
            let ck = p
                .span("checkpoint.from_value", |_| Checkpoint::from_value(&value))
                .expect("checkpoint decodes");
            let mut c = p.span("checkpoint.rebuild", |_| ck.config.build_cluster(1));
            if st.tracing {
                c.enable_profiling();
            }
            p.span("checkpoint.replay", |p| {
                for _ in 0..ck.state.epoch {
                    p.unit("cluster.run_epoch", |_| c.run_epoch());
                }
            });
            let errors = p.span("checkpoint.validate", |_| ck.validate(&c));
            for e in &errors {
                eprintln!("soak-ckpt: resume validation: {e}");
            }
            st.resume_ok = errors.is_empty();
            p.span("checkpoint.apply", |_| ck.apply(&mut c));
            c
        })
    }
}

impl Workload for SoakCkpt {
    type State = SoakState;
    const PINS: &'static [(&'static str, u64)] = &[
        ("report", 0xfcf6f26086b2e8fc),
        ("state_digest", 0x3f6b56ddb55525e2),
        ("host_fingerprints", 0x1912b36ed5062896),
    ];

    fn setup(&self, seed: u64, tracing: bool) -> SoakState {
        let _ = std::fs::remove_dir_all(&self.dir);
        std::fs::create_dir_all(&self.dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", self.dir.display()));
        let d = ClusterConfig::default();
        let config = CheckpointConfig {
            scenario: ConsolidationSpec {
                hosts: SOAK_HOSTS,
                gangs: SOAK_GANGS,
                seed,
                ..ConsolidationSpec::default()
            },
            epoch_ms: EPOCH_MS,
            epochs: SOAK_EPOCHS,
            policy: Policy::VcrdAware,
            cooldown_epochs: d.cooldown_epochs,
            retry_cap: d.retry_cap,
            audit_every: d.audit_every,
            model: d.model,
            faults: FaultPlan::generate(seed, SOAK_EPOCHS, SOAK_HOSTS),
            churn: ChurnPlan::generate(CHURN_SEED, CHURN_PCT, SOAK_EPOCHS, SOAK_HOSTS),
            slot_reuse: true,
            series_capacity: SOAK_SERIES_CAPACITY,
            max_moves: (SOAK_HOSTS / 8).max(1),
        };
        let mut cluster = config.build_cluster(1);
        if tracing {
            cluster.enable_profiling();
        }
        for _ in 0..SOAK_WARM_EPOCHS {
            cluster.run_epoch();
        }
        SoakState {
            events_at_start: events(&cluster),
            config,
            cluster: Some(cluster),
            tracing,
            layers: Values::new(),
            digest_at_kill: 0,
            resume_ok: false,
            resume_matches: false,
            ckpt_bytes: 0,
            written_bytes: 0,
            report: None,
        }
    }

    fn run(&self, st: &mut SoakState, probe: &mut Probe) {
        let mut c = st.cluster.take().expect("set-up built the cluster");
        for epoch in SOAK_WARM_EPOCHS..KILL_AT {
            probe.unit("cluster.run_epoch", |_| c.run_epoch());
            if (epoch + 1) % CKPT_EVERY == 0 {
                self.write(st, &c, probe);
            }
        }
        st.digest_at_kill = probe.span("checkpoint.state_digest", |_| c.state_digest());
        if st.tracing {
            profile_layers(&c, SOAK_WARM_EPOCHS as usize, &mut st.layers);
            add(
                &mut st.layers,
                "hypervisor.run_until_s",
                ledger::machine_busy_s(c.hosts()),
            );
        }
        st.events_at_start = events(&c) - st.events_at_start;
        probe.span("cluster.drop", |_| drop(c));

        let mut c = self.resume(st, probe);
        let resumed_at = c.checkpoint_state().epoch;
        for epoch in resumed_at..SOAK_EPOCHS {
            probe.unit("cluster.run_epoch", |_| c.run_epoch());
            let done = epoch + 1;
            if done == KILL_AT {
                st.resume_matches = probe.span("checkpoint.state_digest", |_| c.state_digest())
                    == st.digest_at_kill;
            }
            if done % CKPT_EVERY == 0 {
                self.write(st, &c, probe);
            }
        }
        probe.span("cluster.audit_check", |_| c.audit_check());
        st.report = Some(probe.span("cluster.report", |_| c.report()));
        st.cluster = Some(c);
    }

    fn finish(&self, mut st: SoakState, spans: Option<&SpanTotals>) -> Pass {
        let _ = std::fs::remove_dir_all(&self.dir);
        let c = st.cluster.as_ref().expect("timed phase ran");
        let mut pass = Pass::default();
        pass.checks
            .push(("soak-ckpt.resume_validates", st.resume_ok));
        pass.checks.push((
            "soak-ckpt.resume_matches_straight_through",
            st.resume_matches,
        ));
        let report = st.report.as_ref().expect("timed phase ran");
        cluster_pass(c, report, &mut pass);
        add(&mut pass.counts, "checkpoint.bytes", st.ckpt_bytes as f64);
        if let Some(spans) = spans {
            let layers = &mut st.layers;
            profile_layers(c, 0, layers);
            add(
                layers,
                "hypervisor.run_until_s",
                ledger::machine_busy_s(c.hosts()),
            );
            // Events of the first life (after warm-up) plus the resumed one.
            let timed_events = st.events_at_start as f64 + events(c) as f64;
            finish_layers(layers, spans, timed_events);
            let writes = spans.get("checkpoint.write").calls as f64;
            let encode = spans.get("checkpoint.to_value").total_s
                + spans.get("serde_json.to_vec_pretty").total_s;
            layers.insert("checkpoint.capture_ms", spans.mean_ms("checkpoint.capture"));
            layers.insert("checkpoint.encode_ms", ledger::ratio(encode * 1e3, writes));
            layers.insert(
                "checkpoint.decode_ms",
                (spans.get("serde_json.from_str").total_s
                    + spans.get("checkpoint.from_value").total_s)
                    * 1e3,
            );
            layers.insert(
                "checkpoint.replay_s",
                spans.get("checkpoint.replay").total_s,
            );
            layers.insert(
                "checkpoint.validate_ms",
                spans.mean_ms("checkpoint.validate"),
            );
            layers.insert("checkpoint.apply_ms", spans.mean_ms("checkpoint.apply"));
            layers.insert(
                "checkpoint.resume_s",
                spans.get("checkpoint.resume").total_s,
            );
            layers.insert(
                "serde_json.encode_mb_per_s",
                ledger::ratio(
                    st.written_bytes as f64 / 1e6,
                    spans.get("serde_json.to_vec_pretty").total_s,
                ),
            );
            layers.insert(
                "serde_json.decode_mb_per_s",
                ledger::ratio(
                    st.ckpt_bytes as f64 / 1e6,
                    spans.get("serde_json.from_str").total_s,
                ),
            );
            pass.layers = st.layers;
        }
        pass
    }
}
