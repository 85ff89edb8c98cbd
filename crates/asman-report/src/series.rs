//! The time-series telemetry report (`repro series`).
//!
//! Re-runs the consolidation cluster of `repro cluster` with the
//! telemetry layer armed — the per-epoch [`SeriesSampler`](asman_sim::SeriesSampler) ring in the
//! cluster driver's serial barrier, plus scheduler-latency histograms
//! on every host — and renders what an operator watching the cluster
//! would have seen: an epoch × metric sparkline timeline per policy, a
//! trailing-window Nσ anomaly pass (wasted-spin and VCRD-HIGH deltas,
//! flagged with epoch and host), per-host scheduler-latency quantiles,
//! and a reaction-latency summary (epochs from the first VCRD-HIGH
//! spike to the first migration).
//!
//! Everything serialized into `CLUSTER_series_<policy>.json` is
//! simulation-derived — epoch samples are captured in the serial
//! barrier and latency histograms observe only simulated cycles — so
//! the artifact is byte-identical for every `--jobs` value, clean or
//! faulted. Wall-clock self-profiling deliberately lives elsewhere
//! (the `benchmark/` package), where bit-identity is not promised.

use asman_cluster::{CheckpointConfig, Policy};
use asman_sim::{detect_anomalies, sparkline, Anomaly, EpochSample, SweepRunner};
use serde::Serialize;
use std::fmt::Write as _;

use crate::cluster::ClusterParams;

/// Default trailing-window length (epochs) for the anomaly pass.
pub const DEFAULT_WINDOW: usize = 4;

/// Default Nσ threshold for the anomaly pass.
pub const DEFAULT_NSIGMA: f64 = 3.0;

/// Parameters of the series report: the cluster experiment plus the
/// anomaly pass knobs.
#[derive(Clone, Debug)]
pub struct SeriesParams {
    /// The underlying cluster experiment.
    pub cluster: ClusterParams,
    /// Trailing-window length in epochs for the anomaly pass.
    pub window: usize,
    /// Flag a sample when it exceeds the trailing mean by this many σ.
    pub nsigma: f64,
}

impl Default for SeriesParams {
    fn default() -> Self {
        SeriesParams {
            cluster: ClusterParams::default(),
            window: DEFAULT_WINDOW,
            nsigma: DEFAULT_NSIGMA,
        }
    }
}

/// Per-host scheduler-latency summary, in cycles. Quantiles come from
/// the host's streaming [`asman_sim::QuantileHist`]s over simulated
/// time, so they are deterministic.
#[derive(Clone, Debug, Serialize)]
pub struct HostLatency {
    /// Host index.
    pub host: usize,
    /// vCPU wakeup→dispatch observations.
    pub wake_count: u64,
    /// Median wakeup→dispatch latency in cycles.
    pub wake_p50: f64,
    /// 99th-percentile wakeup→dispatch latency in cycles.
    pub wake_p99: f64,
    /// Preemption-hold observations (runnable-after-preempt durations).
    pub preempt_count: u64,
    /// Median preemption-hold duration in cycles.
    pub preempt_p50: f64,
    /// 99th-percentile preemption-hold duration in cycles.
    pub preempt_p99: f64,
}

/// One policy's telemetry outcome.
#[derive(Clone, Debug, Serialize)]
pub struct PolicySeries {
    /// Policy label.
    pub policy: &'static str,
    /// Epochs the sampler observed (== epochs run).
    pub sampled_epochs: u64,
    /// Epochs evicted from the ring (0 unless capacity < epochs).
    pub dropped_epochs: u64,
    /// The per-epoch samples, oldest first.
    pub samples: Vec<EpochSample>,
    /// Anomaly-pass flags, sorted by (epoch, host, metric).
    pub anomalies: Vec<Anomaly>,
    /// Per-host scheduler-latency quantiles.
    pub latency: Vec<HostLatency>,
    /// Epoch of the first VCRD-HIGH spike on any host, if any.
    pub first_spike_epoch: Option<u64>,
    /// Epoch of the first committed migration, if any.
    pub first_migration_epoch: Option<u64>,
    /// Epochs from spike to first migration (the policy's reaction
    /// latency); `None` if it never reacted.
    pub reaction_epochs: Option<u64>,
}

/// The full series report: one [`PolicySeries`] per requested policy.
#[derive(Clone, Debug, Serialize)]
pub struct SeriesReport {
    /// Host count.
    pub hosts: usize,
    /// Gangs consolidated on host 0.
    pub gangs: usize,
    /// Epochs run.
    pub epochs: u64,
    /// Base seed.
    pub seed: u64,
    /// Anomaly-pass trailing window (epochs).
    pub window: usize,
    /// Anomaly-pass Nσ threshold.
    pub nsigma: f64,
    /// Per-policy outcomes, in parameter order.
    pub outcomes: Vec<PolicySeries>,
}

fn quantiles(h: &asman_sim::QuantileHist) -> (u64, f64, f64) {
    (
        h.count(),
        h.quantile(0.50).unwrap_or(0.0),
        h.quantile(0.99).unwrap_or(0.0),
    )
}

/// Run one policy cell with telemetry armed.
fn run_cell(p: &SeriesParams, policy: Policy) -> PolicySeries {
    let recipe = CheckpointConfig {
        // One sample per epoch; a zero-epoch run keeps an empty ring.
        series_capacity: (p.cluster.recipe.epochs as usize).max(1),
        ..p.cluster.recipe_for(policy)
    };
    let mut cluster = recipe.build_cluster(p.cluster.jobs);
    cluster.enable_sched_latency();
    let report = cluster.run();
    let sampler = cluster.series().expect("series enabled above");
    let samples: Vec<EpochSample> = sampler.samples().cloned().collect();
    let anomalies = detect_anomalies(&samples, p.window, p.nsigma);
    let latency = cluster
        .hosts()
        .iter()
        .enumerate()
        .map(|(host, m)| {
            let lat = m.sched_latency().expect("latency enabled above");
            let (wake_count, wake_p50, wake_p99) = quantiles(&lat.wake_to_dispatch);
            let (preempt_count, preempt_p50, preempt_p99) = quantiles(&lat.preempt_hold);
            HostLatency {
                host,
                wake_count,
                wake_p50,
                wake_p99,
                preempt_count,
                preempt_p50,
                preempt_p99,
            }
        })
        .collect();
    let first_spike_epoch = samples
        .iter()
        .find(|s| s.hosts.iter().any(|h| h.vcrd_high_delta > 0))
        .map(|s| s.epoch);
    let first_migration_epoch = report.migrations.first().map(|m| m.epoch);
    let reaction_epochs = match (first_spike_epoch, first_migration_epoch) {
        (Some(s), Some(m)) => m.checked_sub(s),
        _ => None,
    };
    PolicySeries {
        policy: policy.label(),
        sampled_epochs: sampler.seen(),
        dropped_epochs: sampler.dropped(),
        samples,
        anomalies,
        latency,
        first_spike_epoch,
        first_migration_epoch,
        reaction_epochs,
    }
}

/// Run the series report: every requested policy as an independent
/// sweep cell, bit-identical for any worker count.
pub fn run(p: &SeriesParams) -> SeriesReport {
    let outcomes = SweepRunner::new(p.cluster.jobs)
        .map(p.cluster.policies.clone(), |policy| run_cell(p, policy));
    let r = &p.cluster.recipe;
    SeriesReport {
        hosts: r.scenario.hosts,
        gangs: r.scenario.gangs,
        epochs: r.epochs,
        seed: r.scenario.seed,
        window: p.window,
        nsigma: p.nsigma,
        outcomes,
    }
}

/// The host metrics the timeline renders, in row order.
const TIMELINE_METRICS: [asman_sim::HostMetric; 3] = [
    ("runnable", |h| h.runnable_vcpus as f64),
    ("spin_delta", |h| h.spin_delta as f64),
    ("vcrd_high", |h| h.vcrd_high_delta as f64),
];

impl SeriesReport {
    /// Human-readable timeline: per policy, an epoch × metric sparkline
    /// table, the anomaly flags, latency quantiles and the reaction
    /// summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        writeln!(
            s,
            "Cluster series — {} hosts, {} gangs on host 0, {} epochs, seed {}; \
             anomaly pass: {}σ over trailing {} epochs",
            self.hosts, self.gangs, self.epochs, self.seed, self.nsigma, self.window
        )
        .unwrap();
        for o in &self.outcomes {
            writeln!(
                s,
                "\n[{}] epoch timeline ({} epochs sampled{})",
                o.policy,
                o.sampled_epochs,
                if o.dropped_epochs > 0 {
                    format!(", {} evicted from ring", o.dropped_epochs)
                } else {
                    String::new()
                }
            )
            .unwrap();
            for host in 0..self.hosts {
                for (name, f) in TIMELINE_METRICS {
                    let vals: Vec<f64> = o
                        .samples
                        .iter()
                        .map(|e| e.hosts.get(host).map(f).unwrap_or(0.0))
                        .collect();
                    let (lo, hi) = vals
                        .iter()
                        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                            (lo.min(v), hi.max(v))
                        });
                    writeln!(
                        s,
                        "  host{host} {name:>10} |{}| {:.0}..{:.0}",
                        sparkline(&vals),
                        if lo.is_finite() { lo } else { 0.0 },
                        if hi.is_finite() { hi } else { 0.0 },
                    )
                    .unwrap();
                }
            }
            let inflight: Vec<f64> = o
                .samples
                .iter()
                .map(|e| e.migrations_in_flight as f64)
                .collect();
            writeln!(s, "  {:>16} |{}|", "in-flight", sparkline(&inflight)).unwrap();
            for a in &o.anomalies {
                writeln!(
                    s,
                    "  ANOMALY epoch {} host{} {}: {:.0} vs mean {:.1} (σ {:.1})",
                    a.epoch, a.host, a.metric, a.value, a.mean, a.sigma
                )
                .unwrap();
            }
            for l in &o.latency {
                writeln!(
                    s,
                    "  host{} latency: wake→dispatch p50 {:.0} / p99 {:.0} cycles ({} obs), \
                     preempt-hold p50 {:.0} / p99 {:.0} cycles ({} obs)",
                    l.host,
                    l.wake_p50,
                    l.wake_p99,
                    l.wake_count,
                    l.preempt_p50,
                    l.preempt_p99,
                    l.preempt_count
                )
                .unwrap();
            }
            match (o.first_spike_epoch, o.reaction_epochs) {
                (Some(spike), Some(r)) => writeln!(
                    s,
                    "  reaction: {} epoch(s) from VCRD-HIGH spike (epoch {}) to first migration",
                    r, spike
                )
                .unwrap(),
                (Some(spike), None) => writeln!(
                    s,
                    "  reaction: never migrated after VCRD-HIGH spike at epoch {spike}"
                )
                .unwrap(),
                (None, _) => writeln!(s, "  reaction: no VCRD-HIGH spike observed").unwrap(),
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asman_sim::FaultPlan;

    fn small() -> SeriesParams {
        SeriesParams {
            cluster: ClusterParams {
                recipe: CheckpointConfig {
                    epochs: 6,
                    ..CheckpointConfig::default()
                },
                jobs: 1,
                ..ClusterParams::default()
            },
            ..SeriesParams::default()
        }
    }

    #[test]
    fn series_samples_every_epoch_and_detects_the_reaction() {
        let rep = run(&small());
        assert_eq!(rep.outcomes.len(), 3);
        for o in &rep.outcomes {
            assert_eq!(o.sampled_epochs, 6);
            assert_eq!(o.dropped_epochs, 0);
            assert_eq!(o.samples.len(), 6);
            for (i, e) in o.samples.iter().enumerate() {
                assert_eq!(e.epoch, i as u64);
                assert_eq!(e.hosts.len(), rep.hosts);
            }
            assert!(
                o.latency.iter().any(|l| l.wake_count > 0),
                "{}: wakeup→dispatch histograms must observe",
                o.policy
            );
        }
        let aware = rep
            .outcomes
            .iter()
            .find(|o| o.policy == "vcrd-aware")
            .unwrap();
        assert_eq!(
            aware.first_spike_epoch,
            Some(0),
            "host 0 is overloaded from epoch 0"
        );
        assert!(
            aware.reaction_epochs.is_some(),
            "vcrd-aware must react to the spike"
        );
        let stat = rep.outcomes.iter().find(|o| o.policy == "static").unwrap();
        assert_eq!(stat.first_migration_epoch, None, "static never migrates");
    }

    #[test]
    fn series_artifacts_are_worker_count_independent() {
        let seq = run(&small());
        let mut p = small();
        p.cluster.jobs = 4;
        let par = run(&p);
        let bytes = |r: &SeriesReport| serde_json::to_string(r).unwrap();
        assert_eq!(
            bytes(&seq),
            bytes(&par),
            "series must be byte-identical across jobs"
        );
    }

    #[test]
    fn faulted_series_reports_crash_and_stays_jobs_independent() {
        let mut p = small();
        p.cluster.recipe.faults = FaultPlan::parse("abort@0,crash@4:h1").unwrap();
        let seq = run(&p);
        let aware = seq
            .outcomes
            .iter()
            .find(|o| o.policy == "vcrd-aware")
            .unwrap();
        let last = aware.samples.last().unwrap();
        assert!(last.hosts[1].crashed, "host 1 crashed at epoch 4");
        assert_eq!(
            last.hosts[1].resident_vms, 0,
            "refugees re-placed elsewhere"
        );
        assert!(last.aborts >= 1);
        assert!(last.evacuations >= 1);
        let mut p4 = p.clone();
        p4.cluster.jobs = 4;
        let par = run(&p4);
        let bytes = |r: &SeriesReport| serde_json::to_string(r).unwrap();
        assert_eq!(bytes(&seq), bytes(&par));
    }

    #[test]
    fn render_carries_sparkline_rows_and_reaction_line() {
        let rep = run(&small());
        let text = rep.render();
        assert!(text.contains("spin_delta"), "{text}");
        assert!(text.contains("reaction:"), "{text}");
        assert!(text.contains("wake→dispatch p50"), "{text}");
    }
}
