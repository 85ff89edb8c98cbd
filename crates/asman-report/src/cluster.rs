//! The cluster consolidation experiment (`repro cluster`).
//!
//! An operator consolidated several concurrent (gang) VMs onto host 0
//! while the other hosts run quiet background services. Per-host
//! adaptive coscheduling cannot help — host 0's gangs demand more
//! PCPUs than exist — so the experiment compares *cluster* placement
//! policies: `static` (never migrate), `least-loaded` (VCPU-count
//! balancing, blind to synchronization), and `vcrd-aware` (ASMan's
//! VCRD/spin telemetry driving live migration). `--jobs` drives two
//! layers of parallelism: policies run as independent sweep cells, and
//! within each cell the cluster driver advances its hosts to every
//! epoch boundary on a worker pool of its own, whose helpers stay
//! parked between epochs (`asman_cluster::ClusterConfig::jobs`).
//! Neither layer reaches inside a host's simulation, so results are
//! bit-identical for any worker count.

use asman_cluster::{
    scenario::{self, ConsolidationSpec},
    ClusterConfig, ClusterReport, Policy,
};
use asman_sim::{CatMask, FaultPlan, FlightEvent, Fnv, MetricsRegistry, StreamBudget, SweepRunner};
use serde::Serialize;
use std::fmt::Write as _;

use crate::figures::ShapeCheck;

/// Parameters of the cluster experiment.
#[derive(Clone, Debug)]
pub struct ClusterParams {
    /// Host count (host 0 is the consolidated one).
    pub hosts: usize,
    /// Concurrent gang VMs packed onto host 0.
    pub gangs: usize,
    /// Balancer epochs to run.
    pub epochs: u64,
    /// Base seed.
    pub seed: u64,
    /// Sweep worker threads (0 = one per core).
    pub jobs: usize,
    /// Policies to compare, in cell order.
    pub policies: Vec<Policy>,
    /// Fault plan injected into every policy cell (empty = clean run).
    pub faults: FaultPlan,
    /// Per-epoch migration budget (`--max-moves`; 1 = the historical
    /// single-move driver and the golden-digest baseline).
    pub max_moves: usize,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            hosts: 3,
            gangs: 2,
            epochs: 8,
            seed: 42,
            jobs: 0,
            policies: Policy::ALL.to_vec(),
            faults: FaultPlan::empty(),
            max_moves: 1,
        }
    }
}

/// Default cross-host retention budget for cluster flight captures:
/// per-category capacities bound each host, but total memory grows
/// linearly with host count, so the merged capture is capped too.
pub const CLUSTER_STREAM_BUDGET: usize = 1_000_000;

impl ClusterParams {
    pub(crate) fn cluster_config(&self, policy: Policy) -> ClusterConfig {
        ClusterConfig {
            policy,
            epochs: self.epochs,
            faults: self.faults.clone(),
            // The same knob drives both layers of parallelism: policy
            // cells across the sweep, and host advancement within each
            // cluster's epochs. Both are bit-identical for any count.
            jobs: self.jobs,
            max_moves: self.max_moves,
            ..ClusterConfig::default()
        }
    }

    pub(crate) fn scenario_spec(&self) -> ConsolidationSpec {
        ConsolidationSpec {
            hosts: self.hosts,
            gangs: self.gangs,
            seed: self.seed,
            ..ConsolidationSpec::default()
        }
    }
}

/// One policy's result plus its content digest.
#[derive(Clone, Debug, Serialize)]
pub struct PolicyOutcome {
    /// The cluster run's full report.
    pub report: ClusterReport,
    /// FNV-1a digest of the serialized report — the bit-identity
    /// handle the jobs cross-checks and golden tests compare.
    pub digest: String,
}

/// The full experiment: one outcome per requested policy.
#[derive(Clone, Debug, Serialize)]
pub struct ClusterExperiment {
    /// Host count.
    pub hosts: usize,
    /// Gangs consolidated on host 0.
    pub gangs: usize,
    /// Epochs run.
    pub epochs: u64,
    /// Base seed.
    pub seed: u64,
    /// Per-policy outcomes, in [`ClusterParams::policies`] order.
    pub outcomes: Vec<PolicyOutcome>,
}

/// FNV-1a over a serialized report: stable, dependency-free digest.
pub fn digest_report(report: &ClusterReport) -> String {
    let json = serde_json::to_string(report).expect("serialize cluster report");
    let mut h = Fnv::new();
    h.write_bytes(json.as_bytes());
    format!("{:016x}", h.finish())
}

/// Run one policy cell to its report.
fn run_cell(p: &ClusterParams, policy: Policy) -> ClusterReport {
    scenario::consolidation_cluster(p.cluster_config(policy), &p.scenario_spec()).run()
}

/// Run the experiment: every requested policy as an independent sweep
/// cell.
pub fn run(p: &ClusterParams) -> ClusterExperiment {
    let outcomes = SweepRunner::new(p.jobs).map(p.policies.clone(), |policy| {
        let report = run_cell(p, policy);
        let digest = digest_report(&report);
        PolicyOutcome { report, digest }
    });
    ClusterExperiment {
        hosts: p.hosts,
        gangs: p.gangs,
        epochs: p.epochs,
        seed: p.seed,
        outcomes,
    }
}

/// Re-run one policy with the flight recorder armed on every host and
/// return the host-tagged streams plus the merged metrics registry —
/// per-host scheduler counters, gauges and histograms prefixed
/// `hostN.` and, when faults are armed, the cluster recovery counters.
/// Recording does not perturb the simulation, so the run matches its
/// digest-bearing twin.
///
/// `stream_budget` caps the *total* events retained across all hosts
/// (per-category capacities only bound each host): streams are
/// admitted in host order, each truncated to its time-ordered prefix
/// once the budget runs low, with warn-once drop accounting.
pub fn capture_flight(
    p: &ClusterParams,
    policy: Policy,
    mask: CatMask,
    capacity: usize,
    stream_budget: usize,
) -> (Vec<(usize, Vec<FlightEvent>)>, MetricsRegistry) {
    let mut cluster = scenario::consolidation_cluster(p.cluster_config(policy), &p.scenario_spec());
    cluster.enable_flight(mask, capacity);
    cluster.run();
    let mut reg = MetricsRegistry::new();
    for (h, m) in cluster.hosts().iter().enumerate() {
        let mut host_reg = MetricsRegistry::new();
        m.export_metrics(&mut host_reg);
        reg.merge_prefixed(&format!("host{h}."), &host_reg);
    }
    cluster.export_recovery_metrics(&mut reg);
    let mut budget = StreamBudget::new(stream_budget);
    let streams = cluster
        .drain_flight()
        .into_iter()
        .map(|(h, mut events)| {
            budget.admit(&mut events);
            (h, events)
        })
        .collect();
    (streams, reg)
}

impl ClusterExperiment {
    fn outcome(&self, label: &str) -> Option<&PolicyOutcome> {
        self.outcomes.iter().find(|o| o.report.policy == label)
    }

    /// Human-readable comparison table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        writeln!(
            s,
            "Cluster consolidation — {} hosts, {} gangs on host 0, {} epochs, seed {}",
            self.hosts, self.gangs, self.epochs, self.seed
        )
        .unwrap();
        writeln!(
            s,
            "{:>12} {:>6} {:>14} {:>14} {:>13} {:>18}",
            "policy", "moves", "spin Mcycles", "useful Mcyc", "pause Mcyc", "digest"
        )
        .unwrap();
        for o in &self.outcomes {
            let r = &o.report;
            writeln!(
                s,
                "{:>12} {:>6} {:>14.1} {:>14.1} {:>13.2} {:>18}",
                r.policy,
                r.migrations.len(),
                r.total_spin_cycles as f64 / 1e6,
                r.total_useful_cycles as f64 / 1e6,
                r.total_pause_cycles as f64 / 1e6,
                o.digest,
            )
            .unwrap();
        }
        for o in &self.outcomes {
            for m in &o.report.migrations {
                writeln!(
                    s,
                    "  [{}] epoch {}: {} host{} -> host{} ({} dirty pages, {:.2} Mcycles pause)",
                    o.report.policy,
                    m.epoch,
                    m.name,
                    m.from,
                    m.to,
                    m.dirty_pages,
                    m.pause as f64 / 1e6,
                )
                .unwrap();
            }
        }
        for o in &self.outcomes {
            let Some(rec) = &o.report.recovery else {
                continue;
            };
            for a in &rec.aborts {
                writeln!(
                    s,
                    "  [{}] epoch {}: ABORT {} host{} -> host{} attempt {} ({:.2} Mcycles penalty)",
                    o.report.policy,
                    a.epoch,
                    a.name,
                    a.from,
                    a.to,
                    a.attempt,
                    a.penalty as f64 / 1e6,
                )
                .unwrap();
            }
            for e in &rec.evacuations {
                writeln!(
                    s,
                    "  [{}] epoch {}: EVACUATE {} host{} -> host{} ({:.2} Mcycles pause)",
                    o.report.policy,
                    e.epoch,
                    e.name,
                    e.from,
                    e.to,
                    e.pause as f64 / 1e6,
                )
                .unwrap();
            }
            writeln!(
                s,
                "  [{}] recovery: {} aborts / {} retries committed / {} abandoned / \
                 {} gave up / {} evacuations",
                o.report.policy,
                rec.aborts.len(),
                rec.retries_committed,
                rec.retries_abandoned,
                rec.gave_up,
                rec.evacuations.len(),
            )
            .unwrap();
        }
        s
    }

    /// The experiment's qualitative claims.
    pub fn shape_checks(&self) -> Vec<ShapeCheck> {
        let mut checks = Vec::new();
        if let Some(stat) = self.outcome("static") {
            checks.push(ShapeCheck {
                claim: "static placement never migrates".into(),
                holds: stat.report.migrations.is_empty(),
                evidence: format!("{} migrations", stat.report.migrations.len()),
            });
            if let Some(aware) = self.outcome("vcrd-aware") {
                let moved_gang = aware
                    .report
                    .migrations
                    .first()
                    .is_some_and(|m| m.name.starts_with("gang") && m.from == 0);
                checks.push(ShapeCheck {
                    claim: "vcrd-aware moves a gang off the consolidated host".into(),
                    holds: moved_gang,
                    evidence: match aware.report.migrations.first() {
                        Some(m) => format!("first move: {} host{} -> host{}", m.name, m.from, m.to),
                        None => "no migrations".into(),
                    },
                });
                checks.push(ShapeCheck {
                    claim: "vcrd-aware recovers wasted spin static placement cannot".into(),
                    holds: aware.report.total_spin_cycles < stat.report.total_spin_cycles,
                    evidence: format!(
                        "spin {:.1} Mcycles vs {:.1} static",
                        aware.report.total_spin_cycles as f64 / 1e6,
                        stat.report.total_spin_cycles as f64 / 1e6
                    ),
                });
            }
            if let Some(ll) = self.outcome("least-loaded") {
                checks.push(ShapeCheck {
                    claim: "least-loaded is synchronization-blind (its first move is not a gang)"
                        .into(),
                    holds: ll
                        .report
                        .migrations
                        .first()
                        .is_none_or(|m| !m.name.starts_with("gang")),
                    evidence: match ll.report.migrations.first() {
                        Some(m) => format!("first move: {}", m.name),
                        None => "no migrations".into(),
                    },
                });
            }
        }
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ClusterParams {
        ClusterParams {
            epochs: 6,
            jobs: 1,
            ..ClusterParams::default()
        }
    }

    #[test]
    fn experiment_shape_checks_hold() {
        let exp = run(&small());
        for c in exp.shape_checks() {
            assert!(c.holds, "{}: {}", c.claim, c.evidence);
        }
    }

    #[test]
    fn jobs_count_does_not_change_digests() {
        let seq = run(&small());
        let par = run(&ClusterParams { jobs: 4, ..small() });
        let d = |e: &ClusterExperiment| -> Vec<String> {
            e.outcomes.iter().map(|o| o.digest.clone()).collect()
        };
        assert_eq!(d(&seq), d(&par), "digests must be worker-count independent");
    }

    /// A plan that exercises the whole recovery machinery under the
    /// default scenario: epoch 0's first move aborts and commits on
    /// retry at epoch 1; host 1 crashes at epoch 4 and is evacuated.
    fn faulted() -> ClusterParams {
        ClusterParams {
            jobs: 1,
            faults: FaultPlan::parse("abort@0,crash@4:h1").unwrap(),
            ..ClusterParams::default()
        }
    }

    #[test]
    fn faulted_run_aborts_then_commits_the_retry() {
        let exp = run(&faulted());
        let aware = exp.outcome("vcrd-aware").expect("vcrd-aware cell");
        let rec = aware
            .report
            .recovery
            .as_ref()
            .expect("faulted run carries recovery");
        assert!(!rec.aborts.is_empty(), "abort@0 must abort the first move");
        assert_eq!(rec.aborts[0].attempt, 1);
        assert!(
            rec.retries_committed >= 1,
            "the aborted move must commit on retry"
        );
        // The committed retry lands one epoch after the abort and moves
        // the same VM to the same destination.
        let a = &rec.aborts[0];
        let m = aware
            .report
            .migrations
            .iter()
            .find(|m| m.vm == a.vm && m.epoch == a.epoch + 1)
            .expect("retry commits at the next epoch");
        assert_eq!((m.from, m.to), (a.from, a.to));
    }

    #[test]
    fn crash_evacuation_conserves_every_vm() {
        let exp = run(&faulted());
        for o in &exp.outcomes {
            let rec = o.report.recovery.as_ref().expect("recovery present");
            // Host 1 crashed, so nothing may report it as home.
            for row in &o.report.vm_rows {
                assert_ne!(
                    row.host, 1,
                    "{}: {} still on crashed host",
                    o.report.policy, row.name
                );
            }
            assert_eq!(
                o.report.vm_rows.len(),
                exp.gangs + exp.hosts,
                "{}: VM count must be conserved",
                o.report.policy
            );
            assert_eq!(rec.host_health[1], asman_cluster::HostHealth::Crashed);
        }
    }

    #[test]
    fn faulted_digests_are_worker_count_independent() {
        let seq = run(&faulted());
        let par = run(&ClusterParams {
            jobs: 4,
            ..faulted()
        });
        let d = |e: &ClusterExperiment| -> Vec<String> {
            e.outcomes.iter().map(|o| o.digest.clone()).collect()
        };
        assert_eq!(
            d(&seq),
            d(&par),
            "faulted digests must be worker-count independent"
        );
    }

    #[test]
    fn clean_runs_serialize_without_a_recovery_field() {
        let exp = run(&small());
        let json = serde_json::to_string(&exp.outcomes[0].report).unwrap();
        assert!(
            !json.contains("recovery"),
            "clean reports must stay byte-identical to the pre-fault format"
        );
        let f = run(&faulted());
        let json = serde_json::to_string(&f.outcomes[0].report).unwrap();
        assert!(json.contains("\"recovery\""));
    }

    #[test]
    fn faulted_capture_records_fault_events_and_recovery_metrics() {
        let p = faulted();
        let (streams, reg) = capture_flight(
            &p,
            asman_cluster::Policy::VcrdAware,
            CatMask::ALL,
            50_000,
            CLUSTER_STREAM_BUDGET,
        );
        let fault_evs: Vec<&str> = streams
            .iter()
            .flat_map(|(_, evs)| evs.iter())
            .filter(|e| e.ev.cat() == asman_sim::TraceCat::Fault)
            .map(|e| e.ev.kind())
            .collect();
        for kind in [
            "migrate_prepare",
            "migrate_copy",
            "migrate_commit",
            "migrate_abort",
            "migrate_retry",
            "host_crash",
            "evacuate",
        ] {
            assert!(
                fault_evs.contains(&kind),
                "flight stream missing {kind}: {fault_evs:?}"
            );
        }
        assert!(reg.counter("cluster.migration.aborts").unwrap_or(0) >= 1);
        assert!(
            reg.counter("cluster.migration.retries_committed")
                .unwrap_or(0)
                >= 1
        );
        assert_eq!(reg.counter("cluster.hosts.crashed"), Some(1));
        assert!(reg.counter("cluster.evacuations").unwrap_or(0) >= 1);
        // Per-host scheduler counters ride along, host-prefixed.
        assert!(reg.counters().any(|(name, _)| name.starts_with("host0.")));
    }

    /// Every attempt of a faulted run's retry chain shares the span id
    /// minted at its first prepare, end to end through the streams.
    #[test]
    fn retry_chain_shares_one_span_id() {
        use asman_sim::FlightEv;
        let p = faulted();
        let (streams, _) = capture_flight(
            &p,
            asman_cluster::Policy::VcrdAware,
            CatMask::ALL,
            50_000,
            CLUSTER_STREAM_BUDGET,
        );
        let mut abort_span = None;
        let mut retry_span = None;
        let mut commit_spans = Vec::new();
        for (_, evs) in &streams {
            for e in evs {
                match e.ev {
                    FlightEv::MigrateAbort { span, .. } => abort_span = Some(span),
                    FlightEv::MigrateRetry { span, .. } => retry_span = Some(span),
                    FlightEv::MigrateCommit { span, .. } => commit_spans.push(span),
                    _ => {}
                }
            }
        }
        let a = abort_span.expect("abort@0 recorded");
        assert_eq!(
            retry_span,
            Some(a),
            "retry reuses the aborted attempt's span"
        );
        assert!(
            commit_spans.contains(&a),
            "the chain's commit carries the same span: {commit_spans:?}"
        );
    }

    #[test]
    fn flight_capture_tags_every_host() {
        let p = ClusterParams {
            epochs: 2,
            jobs: 1,
            ..ClusterParams::default()
        };
        let (streams, _) = capture_flight(
            &p,
            Policy::Static,
            CatMask::ALL,
            50_000,
            CLUSTER_STREAM_BUDGET,
        );
        assert_eq!(streams.len(), p.hosts);
        assert!(
            streams.iter().all(|(_, evs)| !evs.is_empty()),
            "every host must record activity"
        );
        for (h, evs) in &streams {
            assert!(*h < p.hosts);
            assert!(
                evs.windows(2).all(|w| w[0].t <= w[1].t),
                "streams are time-ordered"
            );
        }
    }

    /// A tiny cross-host budget truncates the capture to the cap: host
    /// 0's stream is admitted first and later hosts get the leftovers,
    /// so total retention never exceeds the budget.
    #[test]
    fn stream_budget_caps_total_capture_memory() {
        asman_sim::trace::set_overflow_warnings(false);
        let p = ClusterParams {
            epochs: 2,
            jobs: 1,
            ..ClusterParams::default()
        };
        let (unbounded, _) = capture_flight(
            &p,
            Policy::Static,
            CatMask::ALL,
            50_000,
            CLUSTER_STREAM_BUDGET,
        );
        let total: usize = unbounded.iter().map(|(_, evs)| evs.len()).sum();
        assert!(total > 100, "capture must be big enough to truncate");
        let budget = total / 2;
        let (capped, _) = capture_flight(&p, Policy::Static, CatMask::ALL, 50_000, budget);
        let capped_total: usize = capped.iter().map(|(_, evs)| evs.len()).sum();
        assert_eq!(capped_total, budget, "budget must bind exactly");
        assert_eq!(
            capped[0].1.len(),
            unbounded[0].1.len().min(budget),
            "host 0 is admitted first"
        );
        for (h, evs) in &capped {
            assert!(
                evs.iter()
                    .zip(unbounded[*h].1.iter())
                    .all(|(a, b)| a.t == b.t),
                "truncation keeps each stream's time-ordered prefix"
            );
        }
        asman_sim::trace::set_overflow_warnings(true);
    }
}
