//! Divergence bisection (`repro bisect`).
//!
//! Given two run configurations A and B that may disagree — different
//! seed, policy, fault/churn plan, or an injected behavioral mutation
//! via the audit hooks — the bisector steps both clusters together and
//! compares their [`Cluster::state_digest`]s at every epoch boundary,
//! stopping at the *first* boundary where they differ. The field diff
//! comes from the two live states there. Both sides are then replayed
//! untraced up to the start of the divergent epoch, and only that one
//! epoch is flight-recorded, to report the first divergent flight
//! event in context.
//!
//! Divergence at boundary `d` costs `2·d` epochs to find and `2·d` more
//! to replay, and recording a single epoch keeps the capture well inside
//! its per-category ring however late the divergence comes.

use asman_cluster::{checkpoint::diff_states, CheckpointConfig, Cluster};
use asman_sim::{merge_streams, CatMask, FlightEvent};

/// Flight-ring capacity per host/category for the divergence capture,
/// which records a single epoch.
const BISECT_TRACE_CAPACITY: usize = 50_000;

/// Flight events printed around the first divergent one.
const CONTEXT_EVENTS: usize = 3;

/// A canned behavioral mutation injected into side B — the "mutated
/// binary" of the test battery, without needing a second binary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// The migration cost model undercounts dirty pages (halves the
    /// dirtying rate), so every migration of side B copies fewer pages
    /// and pauses shorter. A config-level mutation, available in every
    /// build; diverges at side A's first migration epoch. (The
    /// engine-level `audit_inject_dirty_undercount` hook is *not* used
    /// here: it exists as an auditor self-test and the auditor catches
    /// it by design, aborting the run instead of diverging silently.)
    DirtyUndercount,
    /// Host 0's scheduler silently skips the BOOST priority tier, via
    /// the engine's audit hook (requires a `--features audit` build).
    BoostSkip,
}

impl Mutation {
    /// Parse a `--b-mutate` value.
    pub fn parse(s: &str) -> Option<Mutation> {
        match s {
            "dirty-undercount" => Some(Mutation::DirtyUndercount),
            "boost-skip" => Some(Mutation::BoostSkip),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn label(&self) -> &'static str {
        match self {
            Mutation::DirtyUndercount => "dirty-undercount",
            Mutation::BoostSkip => "boost-skip",
        }
    }

    /// Whether this build can inject the mutation.
    pub fn available(&self) -> bool {
        match self {
            Mutation::DirtyUndercount => true,
            Mutation::BoostSkip => cfg!(feature = "audit"),
        }
    }
}

/// Parameters of a bisection.
#[derive(Clone, Debug)]
pub struct BisectParams {
    /// Side A's full run configuration.
    pub a: CheckpointConfig,
    /// Side B's full run configuration (often A with one knob turned).
    pub b: CheckpointConfig,
    /// Worker threads for cluster epochs (results are identical for
    /// every value; this only affects wall time).
    pub jobs: usize,
    /// Behavioral mutation injected into side B's engines.
    pub mutate: Option<Mutation>,
}

/// The bisection's result.
#[derive(Clone, Debug)]
pub struct BisectOutcome {
    /// Horizon compared (the smaller of the two configs').
    pub epochs: u64,
    /// Side A's state digest where stepping stopped: the first
    /// divergent boundary, or the horizon.
    pub digest_a: u64,
    /// Side B's state digest at the same boundary.
    pub digest_b: u64,
    /// First epoch whose post-boundary digests differ; `None` when the
    /// runs are identical end to end.
    pub first_divergent_epoch: Option<u64>,
    /// Cluster epochs run across both sides, replays included.
    pub epochs_stepped: u64,
    /// Field-level state mismatches at the divergent boundary.
    pub mismatches: Vec<String>,
    /// The first divergent flight event, rendered as `A: ... / B: ...`.
    pub first_event: Option<(String, String)>,
    /// Index of the first divergent event in the divergent epoch's
    /// merged streams.
    pub first_event_index: Option<usize>,
    /// Side A's merged stream around the divergence, rendered.
    pub context: Vec<String>,
}

impl BisectOutcome {
    /// True when the two runs were bit-identical.
    pub fn identical(&self) -> bool {
        self.first_divergent_epoch.is_none()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "bisect: {} epochs, digest A {:016x} vs B {:016x} at epoch {} ({} epochs stepped)",
            self.epochs,
            self.digest_a,
            self.digest_b,
            self.first_divergent_epoch.unwrap_or(self.epochs),
            self.epochs_stepped
        );
        match self.first_divergent_epoch {
            None => {
                let _ = write!(s, "runs are bit-identical — nothing to bisect");
            }
            Some(e) => {
                let _ = writeln!(s, "first divergent epoch: {e}");
                for m in self.mismatches.iter().take(10) {
                    let _ = writeln!(s, "  {m}");
                }
                if self.mismatches.len() > 10 {
                    let _ = writeln!(s, "  ... and {} more", self.mismatches.len() - 10);
                }
                if let (Some(i), Some((a, b))) = (self.first_event_index, &self.first_event) {
                    let _ = writeln!(s, "first divergent flight event (index {i}):");
                    let _ = writeln!(s, "  A: {a}");
                    let _ = writeln!(s, "  B: {b}");
                    let _ = writeln!(s, "context (side A):");
                    for line in &self.context {
                        let _ = writeln!(s, "  {line}");
                    }
                }
                let _ = write!(s, "exit: divergence confirmed");
            }
        }
        s
    }
}

fn build(cfg: &CheckpointConfig, jobs: usize, mutate: Option<Mutation>) -> Cluster {
    let mut cfg = cfg.clone();
    if mutate == Some(Mutation::DirtyUndercount) {
        cfg.model.dirty_pages_per_mcycle /= 2;
    }
    let mut c = cfg.build_cluster(jobs);
    if mutate == Some(Mutation::BoostSkip) {
        inject_boost_skip(&mut c);
    }
    c
}

#[cfg(feature = "audit")]
fn inject_boost_skip(c: &mut Cluster) {
    c.audit_inject_boost_skip(0);
}

#[cfg(not(feature = "audit"))]
fn inject_boost_skip(_c: &mut Cluster) {
    unreachable!("boost-skip requires a build with --features audit")
}

/// The flight events of epoch `epoch` alone (the one ending at that
/// boundary): replay to its start untraced, then record one epoch.
fn flight_of_epoch(
    cfg: &CheckpointConfig,
    jobs: usize,
    mutate: Option<Mutation>,
    epoch: u64,
) -> Vec<FlightEvent> {
    let mut c = build(cfg, jobs, mutate);
    for _ in 1..epoch {
        c.run_epoch();
    }
    c.enable_flight(CatMask::ALL, BISECT_TRACE_CAPACITY);
    c.run_epoch();
    merge_streams(c.drain_flight().into_iter().map(|(_, evs)| evs).collect())
}

fn render_event(e: &FlightEvent) -> String {
    serde_json::to_string(e).expect("serialize flight event")
}

/// Run the bisection. Side A runs `p.a` unmodified; side B runs `p.b`
/// with `p.mutate` (if any) injected.
pub fn run(p: &BisectParams) -> BisectOutcome {
    let epochs = p.a.epochs.min(p.b.epochs);
    let mut a = build(&p.a, p.jobs, None);
    let mut b = build(&p.b, p.jobs, p.mutate);
    let mut at = 0;
    while at < epochs && a.state_digest() == b.state_digest() {
        a.run_epoch();
        b.run_epoch();
        at += 1;
    }
    let (digest_a, digest_b) = (a.state_digest(), b.state_digest());
    let mut epochs_stepped = 2 * at;
    if digest_a == digest_b {
        return BisectOutcome {
            epochs,
            digest_a,
            digest_b,
            first_divergent_epoch: None,
            epochs_stepped,
            mismatches: Vec::new(),
            first_event: None,
            first_event_index: None,
            context: Vec::new(),
        };
    }
    let first = at;
    let mismatches = diff_states(&a.checkpoint_state(), &b.checkpoint_state());
    // Free the live clusters before the replays build two more.
    drop((a, b));
    // Built clusters that already differ have no epoch to record.
    let (fa, fb) = if first == 0 {
        (Vec::new(), Vec::new())
    } else {
        epochs_stepped += 2 * first;
        (
            flight_of_epoch(&p.a, p.jobs, None, first),
            flight_of_epoch(&p.b, p.jobs, p.mutate, first),
        )
    };
    let ra: Vec<String> = fa.iter().map(render_event).collect();
    let rb: Vec<String> = fb.iter().map(render_event).collect();
    let first_idx = ra
        .iter()
        .zip(&rb)
        .position(|(a, b)| a != b)
        .or_else(|| (ra.len() != rb.len()).then(|| ra.len().min(rb.len())));
    let (first_event, context) = match first_idx {
        Some(i) => {
            let at = |r: &[String], i: usize| {
                r.get(i)
                    .cloned()
                    .unwrap_or_else(|| "<stream ended>".to_string())
            };
            let lo = i.saturating_sub(CONTEXT_EVENTS);
            let hi = (i + CONTEXT_EVENTS + 1).min(ra.len());
            let ctx = (lo..hi)
                .map(|k| format!("[{k}]{} {}", if k == i { " >>" } else { "" }, at(&ra, k)))
                .collect();
            (Some((at(&ra, i), at(&rb, i))), ctx)
        }
        // Digest divergence with byte-identical flight streams can
        // happen when the differing state is control-plane only (e.g.
        // a counter) — still report the epoch, just without an event.
        None => (None, Vec::new()),
    };
    BisectOutcome {
        epochs,
        digest_a,
        digest_b,
        first_divergent_epoch: Some(first),
        epochs_stepped,
        mismatches,
        first_event,
        first_event_index: first_idx,
        context,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asman_cluster::{scenario::ConsolidationSpec, Policy};

    fn config(seed: u64, policy: Policy, epochs: u64) -> CheckpointConfig {
        CheckpointConfig {
            scenario: ConsolidationSpec {
                seed,
                ..ConsolidationSpec::default()
            },
            epochs,
            policy,
            ..CheckpointConfig::default()
        }
    }

    /// The negative twin: identical configs must report no divergence
    /// after stepping both sides to the horizon once.
    #[test]
    fn identical_configs_bisect_to_nothing() {
        let a = config(42, Policy::VcrdAware, 6);
        let out = run(&BisectParams {
            a: a.clone(),
            b: a,
            jobs: 1,
            mutate: None,
        });
        assert!(out.identical());
        assert_eq!(out.digest_a, out.digest_b);
        assert_eq!(
            out.epochs_stepped, 12,
            "each side steps to the horizon once"
        );
        assert!(out.mismatches.is_empty());
    }

    /// Different policies diverge, with field-level mismatches and a
    /// first divergent event from the one recorded epoch.
    #[test]
    fn policy_difference_names_fields_and_event() {
        let out = run(&BisectParams {
            a: config(42, Policy::Static, 6),
            b: config(42, Policy::VcrdAware, 6),
            jobs: 1,
            mutate: None,
        });
        let first = out.first_divergent_epoch.expect("policies diverge");
        assert!(first > 0, "the built clusters are identical");
        assert_eq!(out.epochs_stepped, 4 * first, "2·d to find, 2·d to replay");
        assert!(!out.mismatches.is_empty(), "divergence names state fields");
        assert!(
            out.first_event.is_some(),
            "schedules differ -> flight events differ"
        );
    }

    /// Scenario-shape differences (seed) diverge at epoch 0 — before
    /// any epoch runs, the built clusters already differ.
    #[test]
    fn seed_difference_diverges_at_epoch_zero() {
        let out = run(&BisectParams {
            a: config(42, Policy::Static, 4),
            b: config(43, Policy::Static, 4),
            jobs: 1,
            mutate: None,
        });
        assert_eq!(out.first_divergent_epoch, Some(0));
        assert_eq!(out.epochs_stepped, 0);
    }

    /// The canned dirty-undercount mutation must land on the exact
    /// first epoch a migration executes (identical configs otherwise).
    #[test]
    fn dirty_undercount_mutation_bisects_to_first_migration_epoch() {
        let a = config(42, Policy::VcrdAware, 8);
        let out = run(&BisectParams {
            a: a.clone(),
            b: a.clone(),
            jobs: 1,
            mutate: Some(Mutation::DirtyUndercount),
        });
        let first = out.first_divergent_epoch.expect("mutation diverges");
        // The mutation only changes migration cost, so the first
        // divergent epoch is the first one that records a migration.
        let mut c = a.build_cluster(1);
        let mut first_migration = None;
        for e in 0..8 {
            c.run_epoch();
            if !c.records().is_empty() {
                first_migration = Some(e + 1);
                break;
            }
        }
        assert_eq!(
            Some(first),
            first_migration,
            "diverges where the first migration lands"
        );
        assert!(
            out.mismatches.iter().any(|m| m.contains("records")),
            "migration records differ: {:?}",
            out.mismatches
        );
    }

    /// The boost-skip mutation flows through the scheduler's audit
    /// hook; available only in audit builds.
    #[cfg(feature = "audit")]
    #[test]
    fn boost_skip_mutation_diverges_once_epochs_run() {
        let a = config(42, Policy::VcrdAware, 6);
        let out = run(&BisectParams {
            a: a.clone(),
            b: a,
            jobs: 1,
            mutate: Some(Mutation::BoostSkip),
        });
        let first = out.first_divergent_epoch.expect("mutation diverges");
        assert!(first > 0, "skipping BOOST only shows once epochs run");
    }
}
