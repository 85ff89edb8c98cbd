//! The long-horizon soak harness (`repro soak`).
//!
//! A soak run drives the consolidation cluster for a horizon two to
//! three orders of magnitude past the other targets — `>= 100_000`
//! epochs — with a deterministic VM-churn plan layered on top, hunting
//! the class of bug that only surfaces when state outlives the window
//! it was designed for: stale slot references after tombstone reuse,
//! counter baselines that drift across migrate/depart epochs, rings or
//! retry chains that grow without bound.
//!
//! Three mechanisms keep a 100k-epoch run honest *and* affordable:
//!
//! * **Amortized auditing** — the cluster's O(registry + records)
//!   invariant auditor runs every [`CheckpointConfig::audit_every`]
//!   epochs of the soak's recipe (plus unconditionally at the end)
//!   instead of every boundary.
//! * **Occupancy checkpoints** — at every audit boundary the driver
//!   samples [`Cluster::occupancy`], the RSS proxy: host slot tables,
//!   series-ring fill, pending retry chains. Each checkpoint asserts
//!   the bounded-memory invariant (ring fill never exceeds capacity,
//!   retry chains bounded by the move budget, slots fully accounted as
//!   resident + tombstones, registry exactly tracks admissions) and the
//!   report keeps the peaks so a slow leak is visible even when no
//!   assert fires.
//! * **Worker cross-check** — a prefix of the horizon is re-run under
//!   `jobs = 1` and `jobs = 4` and the serialized reports' digests
//!   must match byte-for-byte, extending the repo's determinism
//!   contract to churned long-horizon runs.

use asman_cluster::{Checkpoint, CheckpointConfig, Cluster, Occupancy, Policy};
use serde::Serialize;
use std::fmt::Write as _;
use std::path::PathBuf;

use crate::cluster::digest_report;
use crate::figures::ShapeCheck;
use crate::progress;

/// Capacity of the series ring a soak run arms: large enough to hold a
/// meaningful trailing window, small enough that "ring fill is bounded"
/// is a real assertion long before the horizon ends.
pub const SOAK_SERIES_CAPACITY: usize = 4096;

/// Parameters of a soak run.
#[derive(Clone, Debug)]
pub struct SoakParams {
    /// The cluster the soak builds and runs to its `epochs` horizon,
    /// and the `config` its checkpoints record. A resumed soak's recipe
    /// is its checkpoint's configuration with the horizon replaced, so
    /// what the artifact records (policy, faults, cost model, PCPUs,
    /// ...) is what the continuation runs.
    pub recipe: CheckpointConfig,
    /// Worker threads for the main run (0 = one per core).
    pub jobs: usize,
    /// Epochs of the jobs-1-vs-4 determinism cross-check prefix
    /// (clamped to the horizon).
    pub crosscheck_epochs: u64,
    /// Emit a checkpoint artifact every N epochs into
    /// [`SoakParams::ckpt_dir`] (0 = off).
    pub checkpoint_every: u64,
    /// Directory for `CKPT_<epoch>.json` artifacts.
    pub ckpt_dir: Option<PathBuf>,
    /// Resume from this checkpoint: the run rebuilds the cluster from
    /// the recipe, replays to the checkpoint epoch, proves the replay
    /// reconverged, applies the artifact's control state
    /// authoritatively, and continues to the horizon — byte-identical
    /// to the uninterrupted run.
    pub resume: Option<Checkpoint>,
}

impl Default for SoakParams {
    fn default() -> Self {
        SoakParams {
            recipe: CheckpointConfig {
                epochs: 100_000,
                // Much shorter than the experiment targets' epochs: a
                // soak exercises epoch-boundary *logic* per unit of wall
                // time, not per-epoch guest behavior.
                epoch_ms: 5,
                policy: Policy::VcrdAware,
                audit_every: 1_000,
                // A soak is exactly the workload slot reuse exists for:
                // without it, host slot tables grow with every arrival.
                slot_reuse: true,
                series_capacity: SOAK_SERIES_CAPACITY,
                ..CheckpointConfig::default()
            },
            jobs: 0,
            crosscheck_epochs: 2_000,
            checkpoint_every: 0,
            ckpt_dir: None,
            resume: None,
        }
    }
}

/// One occupancy checkpoint, taken at an audit boundary.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct SoakCheckpoint {
    /// Epochs completed when the sample was taken.
    pub epoch: u64,
    /// The occupancy sample.
    pub occupancy: Occupancy,
}

/// The soak run's full result.
#[derive(Clone, Debug, Serialize)]
pub struct SoakReport {
    /// Horizon actually run.
    pub epochs: u64,
    /// Epoch length in milliseconds.
    pub epoch_ms: u64,
    /// Base seed.
    pub seed: u64,
    /// The churn plan's event counts (the plan itself is in the
    /// embedded cluster report when churn was armed).
    pub churn_arrivals_planned: usize,
    /// Planned departures.
    pub churn_departures_planned: usize,
    /// Every occupancy checkpoint, in epoch order.
    pub checkpoints: Vec<SoakCheckpoint>,
    /// Peak host-slot-table total over all checkpoints.
    pub peak_slots: usize,
    /// Peak resident VM count over all checkpoints.
    pub peak_resident: usize,
    /// Peak tombstone count over all checkpoints.
    pub peak_tombstones: usize,
    /// Digest of the main run's cluster report.
    pub digest: String,
    /// Digest of the `jobs = 1` cross-check prefix.
    pub crosscheck_digest_jobs1: String,
    /// Digest of the `jobs = 4` cross-check prefix.
    pub crosscheck_digest_jobs4: String,
    /// Epochs the cross-check prefix covered.
    pub crosscheck_epochs: u64,
    /// The main run's cluster report (migrations, churn outcome,
    /// per-VM rows with departed VMs' frozen accounting).
    pub report: asman_cluster::ClusterReport,
}

impl SoakReport {
    /// True when the determinism cross-check held.
    pub fn jobs_identical(&self) -> bool {
        self.crosscheck_digest_jobs1 == self.crosscheck_digest_jobs4
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "soak: {} epochs x {} ms, seed {}, {} hosts",
            self.epochs, self.epoch_ms, self.seed, self.report.hosts,
        );
        if let Some(ch) = &self.report.churn {
            let _ = writeln!(
                s,
                "churn: {} arrivals ({} rejected), {} departures ({} skipped), \
                 {} resident at end, {} departed having finished",
                ch.arrivals,
                ch.arrivals_rejected,
                ch.departures,
                ch.departures_skipped,
                ch.resident_end,
                ch.departed_finished,
            );
        } else {
            let _ = writeln!(s, "churn: none (static population)");
        }
        let _ = writeln!(
            s,
            "occupancy: {} checkpoints; peak slots {}, peak resident {}, \
             peak tombstones {}, series ring <= {}",
            self.checkpoints.len(),
            self.peak_slots,
            self.peak_resident,
            self.peak_tombstones,
            SOAK_SERIES_CAPACITY,
        );
        let _ = writeln!(
            s,
            "migrations: {} committed over the horizon",
            self.report.migrations.len(),
        );
        let _ = writeln!(
            s,
            "jobs cross-check over {} epochs: {}",
            self.crosscheck_epochs,
            if self.jobs_identical() {
                "1 and 4 workers bit-identical"
            } else {
                "FAILED — digests depend on worker count"
            },
        );
        let _ = write!(s, "digest: {}", self.digest);
        s
    }

    /// Shape checks in the repo's standard pass/fail form.
    pub fn shape_checks(&self) -> Vec<ShapeCheck> {
        let last = self.checkpoints.last();
        vec![
            ShapeCheck::new(
                "soak horizon completed",
                self.report.epochs == self.epochs,
                format!("{} of {} epochs", self.report.epochs, self.epochs),
            ),
            ShapeCheck::new(
                "series ring bounded",
                self.checkpoints
                    .iter()
                    .all(|c| c.occupancy.series_len <= SOAK_SERIES_CAPACITY),
                format!(
                    "max fill {} of {}",
                    self.checkpoints
                        .iter()
                        .map(|c| c.occupancy.series_len)
                        .max()
                        .unwrap_or(0),
                    SOAK_SERIES_CAPACITY,
                ),
            ),
            ShapeCheck::new(
                "slot tables bounded by population",
                last.is_none_or(|c| {
                    c.occupancy.slots == c.occupancy.resident + c.occupancy.tombstones
                }),
                format!(
                    "final slots {} = resident {} + tombstones {}",
                    last.map_or(0, |c| c.occupancy.slots),
                    last.map_or(0, |c| c.occupancy.resident),
                    last.map_or(0, |c| c.occupancy.tombstones),
                ),
            ),
            ShapeCheck::new(
                "jobs 1 vs 4 bit-identical",
                self.jobs_identical(),
                format!(
                    "{} vs {}",
                    self.crosscheck_digest_jobs1, self.crosscheck_digest_jobs4
                ),
            ),
        ]
    }
}

/// Run the soak: the full horizon under the requested worker count with
/// amortized audits and occupancy checkpoints, then the jobs-1-vs-4
/// determinism prefix. Panics (with the offending epoch) the moment a
/// bounded-memory invariant breaks — a soak that limps on after a leak
/// would bury the first failure under a hundred thousand more epochs.
///
/// A resumed soak whose replay does not reconverge with its checkpoint
/// stops there and returns the differing fields, one per line.
pub fn run(p: &SoakParams) -> Result<SoakReport, String> {
    let cfg = &p.recipe;
    let epochs = cfg.epochs;
    let mut c = cfg.build_cluster(p.jobs);
    let initial = c.vm_count() as u64;
    let mut checkpoints = Vec::new();
    let take = |c: &Cluster, epoch: u64, checkpoints: &mut Vec<SoakCheckpoint>| {
        let occ = c.occupancy();
        let (arrivals, ..) = c.churn_counts();
        // The bounded-memory invariant, checked while the run is still
        // cheap to bisect. Registry growth tracks admissions exactly;
        // everything else must be flat in the horizon.
        assert_eq!(
            occ.registry as u64,
            initial + arrivals,
            "epoch {epoch}: registry leaked entries"
        );
        assert_eq!(
            occ.slots,
            occ.resident + occ.tombstones,
            "epoch {epoch}: slot table holds unaccounted slots"
        );
        assert!(
            occ.pending_retries <= cfg.max_moves,
            "epoch {epoch}: retry chains accumulated past the move budget"
        );
        assert!(
            occ.series_len <= cfg.series_capacity,
            "epoch {epoch}: series ring overflowed its capacity"
        );
        checkpoints.push(SoakCheckpoint {
            epoch,
            occupancy: occ,
        });
    };
    for epoch in 0..epochs {
        c.run_epoch();
        let done = epoch + 1;
        // Resume: the loop above IS the replay. At the checkpoint's
        // boundary, prove the replay reconverged, then apply the
        // artifact's control state authoritatively — making every
        // serialized field load-bearing for the continuation.
        if let Some(ck) = p.resume.as_ref().filter(|ck| ck.state.epoch == done) {
            let errs = ck.validate(&c);
            if !errs.is_empty() {
                return Err(format!(
                    "replay diverged from the checkpoint at epoch {done}:\n  {}",
                    errs.join("\n  ")
                ));
            }
            ck.apply(&mut c);
            progress!("resume: checkpoint validated and applied at epoch {done}");
        }
        // Checkpoints are (re-)emitted at every boundary, including
        // those replayed on resume, so a resumed run's artifact
        // directory is `diff -r`-identical to the straight-through
        // run's.
        if p.checkpoint_every != 0 && done % p.checkpoint_every == 0 {
            if let Some(dir) = &p.ckpt_dir {
                let ck = Checkpoint::capture(&c, cfg.clone());
                let path = crate::checkpoint::write_checkpoint(dir, &ck)
                    .expect("write checkpoint artifact");
                progress!("wrote {}", path.display());
            }
        }
        if done % cfg.audit_every == 0 {
            take(&c, done, &mut checkpoints);
        }
    }
    // End-of-run audit is unconditional, as in [`Cluster::run`].
    c.audit_check();
    let report = c.report();
    if checkpoints.last().is_none_or(|ck| ck.epoch != epochs) {
        take(&c, epochs, &mut checkpoints);
    }
    let digest = digest_report(&report);

    // Determinism prefix: the same soak under 1 and 4 workers.
    let crosscheck_epochs = p.crosscheck_epochs.min(epochs);
    let prefix = |jobs: usize| {
        let recipe = CheckpointConfig {
            epochs: crosscheck_epochs,
            ..cfg.clone()
        };
        digest_report(&recipe.build_cluster(jobs).run())
    };
    let crosscheck_digest_jobs1 = prefix(1);
    let crosscheck_digest_jobs4 = prefix(4);

    let peak = |f: fn(&Occupancy) -> usize| {
        checkpoints
            .iter()
            .map(|c| f(&c.occupancy))
            .max()
            .unwrap_or(0)
    };
    Ok(SoakReport {
        epochs,
        epoch_ms: cfg.epoch_ms,
        seed: cfg.scenario.seed,
        churn_arrivals_planned: cfg.churn.arrivals(),
        churn_departures_planned: cfg.churn.departures(),
        peak_slots: peak(|o| o.slots),
        peak_resident: peak(|o| o.resident),
        peak_tombstones: peak(|o| o.tombstones),
        checkpoints,
        digest,
        crosscheck_digest_jobs1,
        crosscheck_digest_jobs4,
        crosscheck_epochs,
        report,
    })
}
