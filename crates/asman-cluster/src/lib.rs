//! Cluster layer: N simulated hosts advanced in lock-step epochs with a
//! global balancer and cost-modeled live migration.
//!
//! The single-machine model reproduces ASMan's *intra-host* adaptive
//! coscheduling; this crate asks the paper's natural follow-on question:
//! when the VCRD/spin telemetry is exported off-host, can a *cluster*
//! scheduler use it to fix placements that no per-host scheduler can?
//! A host whose resident gangs demand more PCPUs than exist will thrash
//! on lock-holder preemption no matter how cleverly it coschedules —
//! the only cure is moving a gang elsewhere.
//!
//! The driver is deterministic *and parallel*: hosts are advanced to
//! each epoch boundary on a persistent worker pool that the cluster
//! owns ([`ClusterConfig::jobs`]; each host is itself a deterministic
//! event-driven simulation with its own seed and flight buffer, so no
//! RNG draw or recorded event can leak across workers), each worker
//! snapshots its host's per-VM telemetry counters before the barrier,
//! and then the serial section runs: deltas are formed from the
//! captured counters, a conflict-free multi-move plan is taken
//! ([`balancer::plan`], bounded by [`ClusterConfig::max_moves`]), and
//! the planned stop-and-copy migrations execute in plan order with
//! their pauses charged through the [`MigrationModel`].
//! Results are bit-identical for every worker count — `jobs == 1`
//! degenerates to the historical sequential loop, and any other count
//! only changes which thread advances which host, never what the host
//! computes. An always-on auditor re-derives every invariant it can
//! (VM conservation, registry/host agreement, migration-cost
//! conservation) each epoch.
//!
//! # Faults and recovery
//!
//! A [`FaultPlan`] in [`ClusterConfig::faults`] injects three failure
//! modes at epoch boundaries, and the driver must stay correct under
//! all of them:
//!
//! * **Migration aborts** — a move fails mid-copy: the extracted
//!   [`asman_hypervisor::VmImage`] is rolled back onto the source
//!   (tombstone cleared, counters monotone), the guest eats a modeled
//!   [`MigrationModel::abort_penalty`], and the balancer retries the
//!   same move with exponential backoff until
//!   [`ClusterConfig::retry_cap`] attempts are spent.
//! * **Host slowdowns** — the host advertises derated capacity and
//!   stops admitting new VMs; residents keep running.
//! * **Host crashes** — every resident VM is evacuated and re-placed
//!   deterministically (healthy hosts first, then least-loaded, then
//!   lowest index); the dead host admits nothing forever after.
//!
//! Because the plan is a pure data schedule (and randomly generated
//! plans draw from their own forked RNG stream), a faulted run is
//! exactly as replayable and `--jobs`-independent as a clean one.

#![warn(missing_docs)]

pub mod balancer;
pub mod checkpoint;
pub mod churn;
pub mod migration;
pub mod scenario;

pub use balancer::{decide, plan, HostView, Move, Plan, Policy, Snapshot, VmView};
pub use checkpoint::{diff_states, Checkpoint, CheckpointConfig, ClusterState};
pub use churn::{ChurnKind, ChurnPlan, ChurnSpec, ShapeKind, VmShape};
pub use migration::{AbortRecord, MigrationModel, MigrationRecord};

use asman_hypervisor::{Machine, VmCounters};
use asman_sim::{
    CatMask, Cycles, EpochSample, FaultKind, FaultPlan, FlightEv, FlightEvent, HostSample,
    MetricsRegistry, SeriesSampler, SweepRunner,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Cluster driver parameters.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Lock-step epoch length in milliseconds (the balancer's cadence).
    pub epoch_ms: u64,
    /// Number of epochs to run.
    pub epochs: u64,
    /// Placement policy.
    pub policy: Policy,
    /// Migration cost model.
    pub model: MigrationModel,
    /// A migrated VM may not move again for this many epochs.
    pub cooldown_epochs: u64,
    /// Deterministic fault schedule (empty = clean run).
    pub faults: FaultPlan,
    /// Maximum migration attempts per retry chain before the balancer
    /// gives up on the VM for the rest of the run.
    pub retry_cap: u32,
    /// Deterministic VM arrival/departure schedule (empty = static
    /// population).
    pub churn: ChurnPlan,
    /// Run the (O(registry + records)) invariant auditor only every
    /// this many epochs. `1` (the default) audits every boundary; soak
    /// runs amortize it so the audit's record re-derivation does not
    /// dominate a 100k-epoch run. The end-of-run audit in
    /// [`Cluster::run`] is unconditional.
    pub audit_every: u64,
    /// Worker threads for intra-epoch host advancement; `0` selects
    /// [`std::thread::available_parallelism`] (the
    /// [`SweepRunner::new`] convention). Results are bit-identical for
    /// every value.
    pub jobs: usize,
    /// Per-epoch migration budget: how many migration chains (live
    /// retries plus freshly planned moves) the cluster may carry per
    /// epoch boundary. `1` reproduces the historical
    /// one-migration-per-epoch driver bit-for-bit; the CLI default is
    /// `max(1, hosts/8)`.
    pub max_moves: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            epoch_ms: 60,
            epochs: 10,
            policy: Policy::Static,
            model: MigrationModel::default(),
            cooldown_epochs: 3,
            faults: FaultPlan::empty(),
            retry_cap: 3,
            churn: ChurnPlan::empty(),
            audit_every: 1,
            jobs: 0,
            max_moves: 1,
        }
    }
}

/// Health of one host, as the cluster driver tracks it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum HostHealth {
    /// Fully operational; admits new VMs.
    Healthy,
    /// Advertising derated capacity; residents keep running but
    /// admission control rejects new VMs.
    Degraded {
        /// Capacity reduction in percent.
        pct: u32,
    },
    /// Dead: residents were evacuated, nothing runs or is admitted.
    Crashed,
}

/// An aborted migration waiting out its exponential backoff. The chain
/// holds one of the cluster's [`ClusterConfig::max_moves`] migration
/// slots — and its source/destination endpoint caps — until it
/// commits, is abandoned, or exhausts the attempt cap.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PendingRetry {
    /// Cluster-wide VM id being moved.
    pub vm: usize,
    /// Destination of the original decision.
    pub to: usize,
    /// Epoch at whose boundary the retry may run (a checkpoint can
    /// catch it mid-countdown).
    pub due: u64,
    /// Attempts already made (>= 1).
    pub attempts: u32,
    /// Causal span id minted at the chain's first `prepare`; every
    /// retry attempt reuses it so the flight stream ties the whole
    /// chain together.
    pub span: u32,
}

/// Wall-time attribution of one epoch of the parallel driver, captured
/// only when [`Cluster::enable_profiling`] was called. Wall-clock is
/// inherently non-deterministic, so this never feeds a digest-bearing
/// artifact — only the `benchmark/` package's per-layer ledger reads it.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct EpochProfile {
    /// Epoch index.
    pub epoch: u64,
    /// Wall time of the parallel host-advance phase.
    pub parallel_wall_ns: u64,
    /// Sum of per-host worker run times inside that phase.
    pub worker_busy_ns: u64,
    /// Idle worker-time at the barrier: `jobs * parallel_wall -
    /// worker_busy`, clamped at zero.
    pub barrier_stall_ns: u64,
    /// Wall time of the serial balancer section (delta collection,
    /// faults, audit, decision, migration, series sampling).
    pub serial_wall_ns: u64,
}

/// Memory-occupancy proxy of the cluster driver, from
/// [`Cluster::occupancy`]. Every component is a piece of state that
/// could silently grow with run length if a lifetime bug leaked it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct Occupancy {
    /// Registry entries (one per VM that ever lived; grows only with
    /// arrivals, never with epochs).
    pub registry: usize,
    /// Registered VMs currently resident.
    pub resident: usize,
    /// Host VM-slot tables, summed (with slot reuse, bounded by peak
    /// residency plus a few stranded shapes; without it, grows with
    /// every arrival).
    pub slots: usize,
    /// Evacuated slots awaiting reuse.
    pub tombstones: usize,
    /// In-flight migration retry chains (bounded by
    /// [`ClusterConfig::max_moves`]).
    pub pending_retries: usize,
    /// Epoch samples held by the series ring (bounded by its capacity).
    pub series_len: usize,
}

/// What the parallel advance hands back to the serial section: every
/// worker-captured per-host payload plus wall-time attribution. Only
/// `counters` and `runnable` are deterministic; the `*_ns` fields are
/// wall-clock and must never feed a digest-bearing artifact.
struct AdvanceOut {
    counters: Vec<Vec<VmCounters>>,
    runnable: Vec<u32>,
    parallel_wall_ns: u64,
    worker_busy_ns: u64,
}

/// Cluster-side registry entry for one VM. The cluster id is stable for
/// the whole run; `host`/`local` track where the VM currently lives.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VmEntry {
    /// VM name.
    pub name: String,
    /// Current host.
    pub host: usize,
    /// Host-local slot.
    pub local: usize,
    /// VCPU count.
    pub vcpus: usize,
    /// Epoch of the last migration, evacuation or arrival (the
    /// cooldown anchor).
    pub last_migration: Option<u64>,
    /// Times the VM was live-migrated or evacuated.
    pub migrations: u64,
    /// Spin-counter baseline the next epoch's delta is formed against.
    pub prev_spin: u64,
    /// VCRD-HIGH baseline.
    pub prev_vcrd_high: u64,
    /// Online-cycles baseline.
    pub prev_online: u64,
    /// Spin delta of the last epoch.
    pub spin_delta: u64,
    /// VCRD-HIGH delta of the last epoch.
    pub vcrd_high_delta: u64,
    /// Online delta of the last epoch.
    pub online_delta: u64,
    /// Attempts spent by the current (or last) retry chain.
    pub attempts: u32,
    /// The retry chain exhausted its cap; the balancer leaves the VM
    /// alone for the rest of the run.
    pub gave_up: bool,
    /// The VM shut down and left the cluster. The entry stays in the
    /// registry (cluster ids are stable for the whole run) but is
    /// skipped by the balancer, delta collection, evacuation and the
    /// auditor; its `host`/`local` fields are frozen at the departure
    /// location and must not be dereferenced — with slot reuse enabled
    /// a later arrival may live there.
    pub departed: bool,
    /// Final report row, captured from the travelling counters at the
    /// moment of departure.
    pub final_row: Option<VmRow>,
}

impl VmEntry {
    /// A newly registered VM: never moved, zero baselines and deltas.
    fn new(
        name: String,
        host: usize,
        local: usize,
        vcpus: usize,
        last_migration: Option<u64>,
    ) -> Self {
        VmEntry {
            name,
            host,
            local,
            vcpus,
            last_migration,
            migrations: 0,
            prev_spin: 0,
            prev_vcrd_high: 0,
            prev_online: 0,
            spin_delta: 0,
            vcrd_high_delta: 0,
            online_delta: 0,
            attempts: 0,
            gave_up: false,
            departed: false,
            final_row: None,
        }
    }
}

/// Per-VM row of the final report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VmRow {
    /// VM name.
    pub name: String,
    /// Host the VM ended the run on.
    pub host: usize,
    /// VCPU count.
    pub vcpus: usize,
    /// Times the VM was live-migrated.
    pub migrations: u64,
    /// Total cycles burned spinning (kernel locks, barriers, pipeline
    /// flags) — the wasted-CPU metric the balancer tries to recover.
    pub spin_cycles: u64,
    /// Total cycles of useful guest work.
    pub useful_cycles: u64,
    /// Total cycles the VMM saw the VM's VCRD HIGH.
    pub vcrd_high_cycles: u64,
    /// Total VCPU-online cycles.
    pub online_cycles: u64,
}

/// Per-host row of the final report.
#[derive(Clone, Debug, Serialize)]
pub struct HostRow {
    /// Host index.
    pub host: usize,
    /// Physical CPUs.
    pub pcpus: usize,
    /// Names of the VMs resident at the end of the run.
    pub vms: Vec<String>,
    /// Total resident VCPUs at the end of the run.
    pub resident_vcpus: usize,
    /// Simulation events the host processed.
    pub events_processed: u64,
}

/// Serializable result of one cluster run.
///
/// `Serialize` is written by hand: the `recovery` section appears only
/// when a fault plan was armed, so the serialized form — and therefore
/// every golden digest — of a clean run is byte-identical to what it
/// was before faults existed.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Policy label.
    pub policy: &'static str,
    /// Host count.
    pub hosts: usize,
    /// Epochs run.
    pub epochs: u64,
    /// Epoch length in milliseconds.
    pub epoch_ms: u64,
    /// Final per-host placement.
    pub host_rows: Vec<HostRow>,
    /// Per-VM outcome (cluster id order).
    pub vm_rows: Vec<VmRow>,
    /// Every migration executed, in order.
    pub migrations: Vec<MigrationRecord>,
    /// Cluster-wide wasted spin cycles (sum over VMs).
    pub total_spin_cycles: u64,
    /// Cluster-wide useful cycles (sum over VMs).
    pub total_useful_cycles: u64,
    /// Total guest-visible migration dead time in cycles.
    pub total_pause_cycles: u64,
    /// Fault/recovery outcome; `None` for clean runs (and then omitted
    /// from serialization entirely).
    pub recovery: Option<RecoveryReport>,
    /// Churn outcome; `None` for static-population runs (and then
    /// omitted from serialization entirely, keeping churn-free digests
    /// byte-identical to the pre-churn format).
    pub churn: Option<ChurnReport>,
}

impl Serialize for ClusterReport {
    fn to_value(&self) -> serde::Value {
        // Field order mirrors the struct declaration, exactly as the
        // derive would emit it.
        let mut fields = vec![
            ("policy".to_string(), self.policy.to_value()),
            ("hosts".to_string(), self.hosts.to_value()),
            ("epochs".to_string(), self.epochs.to_value()),
            ("epoch_ms".to_string(), self.epoch_ms.to_value()),
            ("host_rows".to_string(), self.host_rows.to_value()),
            ("vm_rows".to_string(), self.vm_rows.to_value()),
            ("migrations".to_string(), self.migrations.to_value()),
            (
                "total_spin_cycles".to_string(),
                self.total_spin_cycles.to_value(),
            ),
            (
                "total_useful_cycles".to_string(),
                self.total_useful_cycles.to_value(),
            ),
            (
                "total_pause_cycles".to_string(),
                self.total_pause_cycles.to_value(),
            ),
        ];
        if let Some(rec) = &self.recovery {
            fields.push(("recovery".to_string(), rec.to_value()));
        }
        if let Some(ch) = &self.churn {
            fields.push(("churn".to_string(), ch.to_value()));
        }
        serde::Value::Object(fields)
    }
}

/// Churn outcome of a run with a non-empty [`ClusterConfig::churn`].
#[derive(Clone, Debug, Serialize)]
pub struct ChurnReport {
    /// The churn plan that was armed.
    pub plan: ChurnPlan,
    /// VMs that arrived and were admitted.
    pub arrivals: u64,
    /// VMs that departed.
    pub departures: u64,
    /// Arrivals rejected because no healthy host could fit them.
    pub arrivals_rejected: u64,
    /// Departures skipped because the named host held no live VM.
    pub departures_skipped: u64,
    /// VMs resident (live, non-departed) at the end of the run.
    pub resident_end: u64,
    /// Departed VMs whose guest program had run to completion.
    pub departed_finished: u64,
}

/// Fault and recovery outcome of a faulted run.
#[derive(Clone, Debug, Serialize)]
pub struct RecoveryReport {
    /// The fault plan that was armed.
    pub plan: FaultPlan,
    /// Final health of every host.
    pub host_health: Vec<HostHealth>,
    /// Every aborted migration attempt, in order.
    pub aborts: Vec<AbortRecord>,
    /// Every crash evacuation, in order (same cost model and record
    /// shape as a planned migration).
    pub evacuations: Vec<MigrationRecord>,
    /// Aborted-then-retried migrations that eventually committed.
    pub retries_committed: u64,
    /// Retry chains dropped because the destination stopped admitting
    /// (or the VM was evacuated onto it) mid-chain.
    pub retries_abandoned: u64,
    /// VMs whose retry chains exhausted [`ClusterConfig::retry_cap`].
    pub gave_up: u64,
    /// Total guest-visible dead time of failed attempts, in cycles.
    pub total_abort_penalty_cycles: u64,
    /// Total guest-visible dead time of evacuations, in cycles.
    pub total_evacuation_pause_cycles: u64,
}

/// N machines in lock-step plus the global balancer state.
pub struct Cluster {
    cfg: ClusterConfig,
    /// Worker pool advancing hosts within an epoch. Sized once from
    /// [`ClusterConfig::jobs`] at construction; its parked helper
    /// threads live as long as the cluster.
    runner: SweepRunner,
    hosts: Vec<Machine>,
    /// The serial control state: registry, health, retry chains,
    /// records and counters. Checkpoint capture clones it and restore
    /// assigns it.
    state: ClusterState,
    /// Per-epoch time-series sampler; `None` (zero cost, digest
    /// unchanged) unless [`Cluster::enable_series`] was called.
    series: Option<SeriesSampler>,
    /// Per-epoch wall-time attribution; `None` unless
    /// [`Cluster::enable_profiling`] was called.
    prof: Option<Vec<EpochProfile>>,
    #[cfg(feature = "audit")]
    fault_dirty_undercount: bool,
    #[cfg(feature = "audit")]
    fault_sticky_tombstone: bool,
}

impl Cluster {
    /// Assemble a cluster from pre-built hosts. Every VM currently
    /// resident on any host is registered with a cluster-wide id
    /// (host-major order).
    pub fn new(cfg: ClusterConfig, hosts: Vec<Machine>) -> Self {
        assert!(!hosts.is_empty(), "cluster needs at least one host");
        let mut vms = Vec::new();
        for (h, m) in hosts.iter().enumerate() {
            for local in 0..m.vm_count() {
                assert!(!m.vm_evacuated(local), "seed hosts must have no tombstones");
                let vcpus = m.vm_kernel(local).vcpu_count();
                vms.push(VmEntry::new(
                    m.vm_name(local).to_string(),
                    h,
                    local,
                    vcpus,
                    None,
                ));
            }
        }
        if let Some(h) = cfg.faults.max_host() {
            assert!(
                h < hosts.len(),
                "fault plan touches host {h} but the cluster has {}",
                hosts.len()
            );
        }
        if let Some(h) = cfg.churn.max_host() {
            assert!(
                h < hosts.len(),
                "churn plan departs from host {h} but the cluster has {}",
                hosts.len()
            );
        }
        assert!(cfg.audit_every >= 1, "audit_every must be at least 1");
        assert!(cfg.max_moves >= 1, "max_moves must be at least 1");
        let state = ClusterState {
            health: vec![HostHealth::Healthy; hosts.len()],
            vms,
            ..ClusterState::default()
        };
        let runner = SweepRunner::new(cfg.jobs);
        Cluster {
            cfg,
            runner,
            hosts,
            state,
            series: None,
            prof: None,
            #[cfg(feature = "audit")]
            fault_dirty_undercount: false,
            #[cfg(feature = "audit")]
            fault_sticky_tombstone: false,
        }
    }

    /// Epoch length in cycles (all hosts share host 0's clock).
    pub fn epoch_cycles(&self) -> Cycles {
        self.hosts[0].config().clock.ms(self.cfg.epoch_ms)
    }

    /// The hosts, for inspection.
    pub fn hosts(&self) -> &[Machine] {
        &self.hosts
    }

    /// Registered VM count: every VM that ever lived in the cluster,
    /// including departed ones (cluster ids are stable for the run).
    pub fn vm_count(&self) -> usize {
        self.state.vms.len()
    }

    /// VMs currently resident (registered and not departed).
    pub fn resident_vm_count(&self) -> usize {
        self.state.vms.iter().filter(|e| !e.departed).count()
    }

    /// VCPUs of the live VMs resident on host `h`.
    fn resident_vcpus(&self, h: usize) -> usize {
        let live = self.state.vms.iter().filter(|e| !e.departed && e.host == h);
        live.map(|e| e.vcpus).sum()
    }

    /// Enable tombstone slot reuse on every host: a departing VM's slot
    /// becomes eligible for a later arrival of the same VCPU count, and
    /// the slot's generation counter invalidates any stale timers or
    /// wakes armed for the previous occupant. Without this, a long
    /// churned run grows each host's slot table with every arrival.
    pub fn enable_slot_reuse(&mut self) {
        for m in &mut self.hosts {
            m.enable_slot_reuse();
        }
    }

    /// Point-in-time memory-occupancy proxy of the cluster driver. A
    /// soak run samples this at every audit checkpoint and asserts each
    /// component stays bounded — the cheap stand-in for "RSS does not
    /// grow with epochs".
    pub fn occupancy(&self) -> Occupancy {
        let slots: usize = self.hosts.iter().map(|m| m.vm_count()).sum();
        let live_slots: usize = self.hosts.iter().map(|m| m.active_vm_count()).sum();
        Occupancy {
            registry: self.state.vms.len(),
            resident: self.resident_vm_count(),
            slots,
            tombstones: slots - live_slots,
            pending_retries: self.state.pending.len(),
            series_len: self.series.as_ref().map_or(0, |s| s.samples().count()),
        }
    }

    /// Churn counters so far: `(arrivals, departures, arrivals_rejected,
    /// departures_skipped)`. Readable mid-run, unlike the end-of-run
    /// [`ChurnReport`], so a soak can cross-check the registry against
    /// the admitted population at every checkpoint.
    pub fn churn_counts(&self) -> (u64, u64, u64, u64) {
        (
            self.state.arrivals,
            self.state.departures,
            self.state.arrivals_rejected,
            self.state.departures_skipped,
        )
    }

    /// Migrations executed so far.
    pub fn records(&self) -> &[MigrationRecord] {
        &self.state.records
    }

    /// Aborted migration attempts so far.
    pub fn aborts(&self) -> &[AbortRecord] {
        &self.state.aborts
    }

    /// Crash evacuations so far.
    pub fn evacuations(&self) -> &[MigrationRecord] {
        &self.state.evacuations
    }

    /// Current health of every host.
    pub fn host_health(&self) -> &[HostHealth] {
        &self.state.health
    }

    /// Register the recovery counters into `reg` under `cluster.*`.
    /// Zero-valued counters are skipped so a clean run exports nothing.
    pub fn export_recovery_metrics(&self, reg: &mut MetricsRegistry) {
        let s = &self.state;
        let crashed = s
            .health
            .iter()
            .filter(|h| **h == HostHealth::Crashed)
            .count() as u64;
        let degraded = s
            .health
            .iter()
            .filter(|h| matches!(h, HostHealth::Degraded { .. }))
            .count() as u64;
        let penalty: u64 = s.aborts.iter().map(|a| a.penalty).sum();
        let evac_pause: u64 = s.evacuations.iter().map(|r| r.pause).sum();
        for (name, v) in [
            ("cluster.hosts.crashed", crashed),
            ("cluster.hosts.degraded", degraded),
            ("cluster.migration.aborts", s.aborts.len() as u64),
            ("cluster.migration.retries_committed", s.retries_committed),
            ("cluster.migration.retries_abandoned", s.retries_abandoned),
            ("cluster.migration.gave_up", s.gave_up),
            ("cluster.migration.abort_penalty_cycles", penalty),
            ("cluster.evacuations", s.evacuations.len() as u64),
            ("cluster.evacuation_pause_cycles", evac_pause),
        ] {
            if v > 0 {
                reg.inc(name, v);
            }
        }
    }

    /// Arm the dirty-page undercount fault: executed migrations copy
    /// only half the modeled dirty pages, so their records no longer
    /// satisfy the cost model. The cluster auditor must catch this at
    /// the next epoch boundary.
    #[cfg(feature = "audit")]
    pub fn audit_inject_dirty_undercount(&mut self) {
        self.fault_dirty_undercount = true;
    }

    /// Injected fault for auditor self-tests: abort rollbacks "forget"
    /// to clear the source tombstone, leaving the registry pointing at
    /// an evacuated slot. The auditor must catch it at the next epoch
    /// boundary.
    #[cfg(feature = "audit")]
    pub fn audit_inject_sticky_tombstone(&mut self) {
        self.fault_sticky_tombstone = true;
    }

    /// Injected mutation for the divergence bisector's self-tests:
    /// `host`'s scheduler silently skips the BOOST priority tier, a
    /// subtle behavioral change whose first observable divergence the
    /// bisector must pinpoint.
    #[cfg(feature = "audit")]
    pub fn audit_inject_boost_skip(&mut self, host: usize) {
        self.hosts[host].audit_inject_boost_skip();
    }

    /// Enable flight recording on every host (host streams are kept
    /// per-host; see [`Cluster::drain_flight`]).
    pub fn enable_flight(&mut self, mask: CatMask, capacity: usize) {
        for m in &mut self.hosts {
            m.enable_flight(mask, capacity);
        }
    }

    /// Drain each host's merged flight stream, tagged with its host id.
    pub fn drain_flight(&mut self) -> Vec<(usize, Vec<FlightEvent>)> {
        self.hosts
            .iter_mut()
            .enumerate()
            .map(|(h, m)| (h, m.flight_events()))
            .collect()
    }

    /// Enable per-epoch time-series sampling into a ring of `capacity`
    /// epochs. Sampling runs entirely inside the serial barrier section
    /// of [`Cluster::run_epoch`] and only *reads* host and registry
    /// state, so enabling it cannot change any simulation result for
    /// any worker count.
    pub fn enable_series(&mut self, capacity: usize) {
        self.series = Some(SeriesSampler::new(capacity));
    }

    /// The series sampler, if [`Cluster::enable_series`] was called.
    pub fn series(&self) -> Option<&SeriesSampler> {
        self.series.as_ref()
    }

    /// Enable scheduler-latency histograms (vCPU wakeup-to-dispatch and
    /// preemption-hold) and guest spin-episode distributions on every
    /// host.
    pub fn enable_sched_latency(&mut self) {
        for m in &mut self.hosts {
            m.enable_sched_latency();
        }
    }

    /// Enable per-epoch wall-time attribution of the parallel driver
    /// (worker run vs. barrier stall vs. serial balancer section).
    pub fn enable_profiling(&mut self) {
        self.prof = Some(Vec::new());
    }

    /// Per-epoch driver profile; empty unless
    /// [`Cluster::enable_profiling`] was called before running.
    pub fn profile(&self) -> &[EpochProfile] {
        self.prof.as_deref().unwrap_or(&[])
    }

    /// Run the configured number of epochs and produce the report.
    pub fn run(&mut self) -> ClusterReport {
        for _ in 0..self.cfg.epochs {
            self.run_epoch();
        }
        self.audit_check();
        self.report()
    }

    /// The effective intra-epoch worker count.
    pub fn jobs(&self) -> usize {
        self.runner.jobs()
    }

    /// Advance every live host to the next epoch boundary — in parallel
    /// on the worker pool — apply the epoch's scheduled faults, then
    /// balance. Crashed hosts stay frozen at the boundary where they
    /// died.
    ///
    /// Everything after the advance is deliberately serial: fault
    /// application, the balancer plan and the migrations all mutate
    /// cross-host state and happen at the barrier, in a fixed order, on
    /// the calling thread. Combined with per-host RNG streams, per-host
    /// flight buffers (merged later by stable `(time, host, seq)`
    /// order) and worker-side telemetry capture, this makes the run
    /// bit-identical for every worker count.
    pub fn run_epoch(&mut self) {
        let epoch = self.state.epoch;
        let end = self.epoch_cycles() * (epoch + 1);
        let adv = self.advance_hosts(end);
        let serial_t0 = Instant::now();
        self.collect_deltas(&adv.counters);
        // Churn runs right after delta collection: departures fold the
        // leaving VM's counter tail into this epoch's deltas (the slot
        // indices captured by the workers are still valid), and
        // arrivals are placed before faults can crash their host out of
        // the candidate set at this same boundary.
        self.apply_churn(epoch, end);
        self.apply_host_faults(epoch, end);
        if epoch.is_multiple_of(self.cfg.audit_every) {
            self.audit_check();
        }
        // Migration step. Retry chains go first, in FIFO chain order: a
        // due chain revalidates and re-attempts, one still backing off
        // keeps its slot. Every chain alive at the start of the step —
        // due, waiting, or abandoned at revalidation — consumes one
        // unit of this epoch's move budget, so at `max_moves == 1` a
        // live chain suppresses fresh planning exactly as the
        // historical single-slot driver did. Chains and executed
        // retries claim their endpoints' per-host send/receive caps;
        // the planner then fills the remaining budget with
        // conflict-free fresh moves.
        let chains_at_start = self.state.pending.len();
        let mut src_used = vec![false; self.hosts.len()];
        let mut dst_used = vec![false; self.hosts.len()];
        for p in std::mem::take(&mut self.state.pending) {
            if p.due <= epoch {
                if let Some((mv, attempt, span)) = self.revalidate_retry(p) {
                    let from = self.state.vms[mv.vm].host;
                    // Committed, re-queued, or given up: the attempt
                    // occupied both endpoints this epoch either way.
                    self.execute_migration(epoch, mv, end, attempt, span);
                    src_used[from] = true;
                    dst_used[mv.to] = true;
                }
            } else {
                src_used[self.state.vms[p.vm].host] = true;
                dst_used[p.to] = true;
                self.state.pending.push(p);
            }
        }
        let budget = self.cfg.max_moves.saturating_sub(chains_at_start);
        let (moves_planned, moves_denied_conflict) = if budget > 0 {
            let mut snap = self.snapshot(epoch);
            // VMs owned by a chain that is still alive (waiting, or
            // re-queued by an abort just now) are off-limits to the
            // planner regardless of endpoint caps.
            for p in &self.state.pending {
                snap.vms[p.vm].cooling = true;
            }
            let plan = balancer::plan(self.cfg.policy, &snap, budget, &mut src_used, &mut dst_used);
            let planned = plan.moves.len() as u32;
            for mv in plan.moves {
                self.execute_migration(epoch, mv, end, 1, None);
            }
            (planned, plan.denied_conflict as u32)
        } else {
            (0, 0)
        };
        self.sample_series(epoch, &adv.runnable, moves_planned, moves_denied_conflict);
        self.state.epoch = epoch + 1;
        if let Some(prof) = self.prof.as_mut() {
            let jobs = self.runner.jobs() as u64;
            prof.push(EpochProfile {
                epoch,
                parallel_wall_ns: adv.parallel_wall_ns,
                worker_busy_ns: adv.worker_busy_ns,
                barrier_stall_ns: jobs
                    .saturating_mul(adv.parallel_wall_ns)
                    .saturating_sub(adv.worker_busy_ns),
                serial_wall_ns: serial_t0.elapsed().as_nanos() as u64,
            });
        }
    }

    /// Parallel phase of an epoch: every live host runs to the boundary
    /// as one sweep cell, and the worker that advanced it snapshots its
    /// per-slot telemetry counters before returning — so the serial
    /// section never touches a guest kernel or accounting registry.
    /// Hosts share no state (the one cross-host operation, migration,
    /// happens serially at the barrier), so cell index `h` fully
    /// determines cell `h`'s result and the pool's claim order cannot
    /// matter. Crashed hosts are frozen and skipped; their telemetry
    /// slots stay empty, and the registry never points at them.
    fn advance_hosts(&mut self, end: Cycles) -> AdvanceOut {
        let mut counters: Vec<Vec<VmCounters>> = vec![Vec::new(); self.hosts.len()];
        let mut runnable = vec![0u32; self.hosts.len()];
        let runner = &self.runner;
        let health = &self.state.health;
        let live: Vec<(usize, &mut Machine)> = self
            .hosts
            .iter_mut()
            .enumerate()
            .filter(|(h, _)| health[*h] != HostHealth::Crashed)
            .collect();
        let wall_t0 = Instant::now();
        let mut worker_busy_ns = 0u64;
        for (h, c, r, busy) in runner.map(live, |(h, m)| {
            let t0 = Instant::now();
            m.run_until(end);
            let busy = t0.elapsed().as_nanos() as u64;
            (h, m.all_vm_counters(), m.runnable_vcpus() as u32, busy)
        }) {
            counters[h] = c;
            runnable[h] = r;
            worker_busy_ns += busy;
        }
        AdvanceOut {
            counters,
            runnable,
            parallel_wall_ns: wall_t0.elapsed().as_nanos() as u64,
            worker_busy_ns,
        }
    }

    /// Build and push this epoch's series sample. Runs after the
    /// migration so placement counters reflect the epoch's outcome;
    /// reads only registry deltas, health, and the worker-captured
    /// runnable counts — never a guest kernel — so it is identical for
    /// every worker count.
    fn sample_series(
        &mut self,
        epoch: u64,
        runnable: &[u32],
        moves_planned: u32,
        moves_denied_conflict: u32,
    ) {
        if self.series.is_none() {
            return;
        }
        let mut hosts: Vec<HostSample> = (0..self.hosts.len())
            .map(|h| HostSample {
                host: h as u32,
                resident_vms: 0,
                resident_vcpus: 0,
                runnable_vcpus: runnable[h],
                online_delta: 0,
                spin_delta: 0,
                vcrd_high_delta: 0,
                derate_pct: match self.state.health[h] {
                    HostHealth::Degraded { pct } => pct,
                    _ => 0,
                },
                crashed: self.state.health[h] == HostHealth::Crashed,
            })
            .collect();
        for e in &self.state.vms {
            let hs = &mut hosts[e.host];
            // A VM that departed at this boundary still contributes its
            // final partial-epoch deltas (it burned them on this host),
            // but no longer counts as resident; entries departed in
            // earlier epochs carry zeroed deltas.
            if !e.departed {
                hs.resident_vms += 1;
                hs.resident_vcpus += e.vcpus as u32;
            }
            hs.online_delta += e.online_delta;
            hs.spin_delta += e.spin_delta;
            hs.vcrd_high_delta += e.vcrd_high_delta;
        }
        let sample = EpochSample {
            epoch,
            migrations_in_flight: self.state.pending.len() as u32,
            moves_planned,
            moves_denied_conflict,
            migrations: self.state.records.len() as u64,
            aborts: self.state.aborts.len() as u64,
            retries_committed: self.state.retries_committed,
            gave_up: self.state.gave_up,
            evacuations: self.state.evacuations.len() as u64,
            hosts,
        };
        self.series.as_mut().expect("checked above").push(sample);
    }

    /// Apply this epoch's scheduled host faults: derate slow hosts,
    /// crash and evacuate dead ones. Fault events land in the affected
    /// (or, for evacuations, receiving) host's flight stream.
    fn apply_host_faults(&mut self, epoch: u64, now: Cycles) {
        let faults: Vec<FaultKind> = self.cfg.faults.host_faults_at(epoch).collect();
        for kind in faults {
            match kind {
                FaultKind::Slow { host, derate_pct } => {
                    if self.state.health[host] == HostHealth::Crashed {
                        continue;
                    }
                    self.hosts[host].set_capacity_derate(derate_pct);
                    self.state.health[host] = HostHealth::Degraded { pct: derate_pct };
                    self.hosts[host].record_cluster_event(FlightEv::HostDerate {
                        host: host as u32,
                        pct: derate_pct,
                    });
                }
                FaultKind::Crash { host } => {
                    if self.state.health[host] == HostHealth::Crashed {
                        continue;
                    }
                    self.state.health[host] = HostHealth::Crashed;
                    self.hosts[host]
                        .record_cluster_event(FlightEv::HostCrash { host: host as u32 });
                    self.evacuate_host(host, epoch, now);
                }
                // host_faults_at never yields aborts; those are
                // consumed by execute_migration.
                FaultKind::Abort => unreachable!("abort is not a host fault"),
            }
        }
    }

    /// Apply this epoch's scheduled churn events in plan order.
    fn apply_churn(&mut self, epoch: u64, now: Cycles) {
        if self.cfg.churn.is_empty() {
            return;
        }
        let events: Vec<ChurnKind> = self.cfg.churn.events_at(epoch).collect();
        for kind in events {
            match kind {
                ChurnKind::Arrive { shape } => self.apply_arrival(epoch, shape, now),
                ChurnKind::Depart { host, slot } => self.apply_departure(host, slot),
            }
        }
    }

    /// Admit an arriving VM: place it on the healthy host with the
    /// fewest resident VCPUs that fits it (ties: lowest index), create
    /// it there and register it. Arrivals start their post-placement
    /// cooldown immediately so the balancer cannot bounce a VM that
    /// just landed. With no admitting host the arrival is rejected
    /// (counted, not fatal — a full cluster is a legitimate state).
    fn apply_arrival(&mut self, epoch: u64, shape: VmShape, now: Cycles) {
        let dest = (0..self.hosts.len())
            .filter(|&h| {
                self.state.health[h] == HostHealth::Healthy
                    && shape.vcpus <= self.hosts[h].config().pcpus
            })
            .min_by_key(|&h| (self.resident_vcpus(h), h));
        let Some(dest) = dest else {
            self.state.arrivals_rejected += 1;
            return;
        };
        // Names are minted from a global arrival sequence number, so
        // they are unique for the run and independent of placement.
        let name = format!("{}-c{}", shape.kind.prefix(), self.state.arrivals);
        self.state.arrivals += 1;
        let spec = scenario::arrival_spec(&shape, name.clone(), self.hosts[dest].config());
        let local = self.hosts[dest].create_vm(spec, now);
        let entry = VmEntry::new(name, dest, local, shape.vcpus, Some(epoch));
        self.state.vms.push(entry);
    }

    /// Depart the `slot`-th live VM on `host` (cluster-id order,
    /// wrapping modulo the live count): destroy it on its host, fold
    /// its counter tail into this epoch's deltas, finalize its report
    /// row, and abandon any retry chain that was moving it. A host with
    /// no live VM (empty, or crashed and already evacuated) skips the
    /// departure.
    fn apply_departure(&mut self, host: usize, slot: usize) {
        let candidates: Vec<usize> = (0..self.state.vms.len())
            .filter(|&id| !self.state.vms[id].departed && self.state.vms[id].host == host)
            .collect();
        if candidates.is_empty() {
            self.state.departures_skipped += 1;
            return;
        }
        let id = candidates[slot % candidates.len()];
        // A migration chain moving the departing VM has lost its
        // subject: the chain is abandoned, never retried against a VM
        // that no longer exists.
        let before = self.state.pending.len();
        self.state.pending.retain(|p| p.vm != id);
        self.state.retries_abandoned += (before - self.state.pending.len()) as u64;
        let local = self.state.vms[id].local;
        let ret = self.hosts[host].destroy_vm(local);
        // The travelling counters are final at destruction; reconcile
        // so the departure epoch's deltas (and this host's series
        // sample) cover the VM's last partial epoch.
        self.reconcile_extracted(id, ret.counters);
        self.state.departures += 1;
        if ret.finished {
            self.state.departed_finished += 1;
        }
        let e = &mut self.state.vms[id];
        e.departed = true;
        e.final_row = Some(VmRow {
            name: e.name.clone(),
            host,
            vcpus: e.vcpus,
            migrations: e.migrations,
            spin_cycles: ret.counters.spin,
            useful_cycles: ret.useful_cycles,
            vcrd_high_cycles: ret.counters.vcrd_high,
            online_cycles: ret.counters.online,
        });
    }

    /// Fold the counter tail of a just-extracted VM into its current
    /// epoch deltas and advance the baselines to the travelling image's
    /// values.
    ///
    /// The workers capture counters at the epoch boundary *before* the
    /// serial section runs; extraction then closes every in-progress
    /// accounting segment (a VCPU mid-spin is charged up to the
    /// boundary when the kernel preempts it), so the image's counters
    /// run ahead of the captured ones. Without this reconciliation the
    /// tail leaks into the *next* epoch's delta — under-counting the
    /// migration epoch (shrinking the dirty-page charge below what the
    /// guest really ran) and mis-attributing the spin to the
    /// destination host's series sample. On a departure the tail would
    /// be dropped entirely.
    fn reconcile_extracted(&mut self, vm: usize, c: VmCounters) {
        let e = &mut self.state.vms[vm];
        e.spin_delta += c.spin.saturating_sub(e.prev_spin);
        e.vcrd_high_delta += c.vcrd_high.saturating_sub(e.prev_vcrd_high);
        e.online_delta += c.online.saturating_sub(e.prev_online);
        e.prev_spin = c.spin;
        e.prev_vcrd_high = c.vcrd_high;
        e.prev_online = c.online;
    }

    /// Evacuate every VM registered on a crashed host and re-place it:
    /// healthy destinations before degraded ones, then fewest resident
    /// VCPUs, then lowest index. Each evacuation is charged like a
    /// stop-and-copy migration (the simulator restores the VM from its
    /// at-crash state; the full pause models the restore).
    fn evacuate_host(&mut self, host: usize, epoch: u64, now: Cycles) {
        let refugees: Vec<usize> = (0..self.state.vms.len())
            .filter(|&id| !self.state.vms[id].departed && self.state.vms[id].host == host)
            .collect();
        for id in refugees {
            let (local, vcpus, name) = {
                let e = &self.state.vms[id];
                (e.local, e.vcpus, e.name.clone())
            };
            let dest = (0..self.hosts.len())
                .filter(|&h| {
                    h != host
                        && self.state.health[h] != HostHealth::Crashed
                        && vcpus <= self.hosts[h].config().pcpus
                })
                .min_by_key(|&h| {
                    let degraded = self.state.health[h] != HostHealth::Healthy;
                    (degraded, self.resident_vcpus(h), h)
                })
                .unwrap_or_else(|| {
                    panic!("evacuation failed: no live host can take vm {id} ({name})")
                });
            let image = self.hosts[host].extract_vm(local);
            // Extraction closed the VM's in-progress accounting
            // segments; fold the tail into this epoch's deltas so the
            // evacuation is charged for everything the guest ran.
            self.reconcile_extracted(id, image.counters());
            let online_delta = self.state.vms[id].online_delta;
            let dirty = self.cfg.model.dirty_pages(Cycles(online_delta));
            let pause = self.cfg.model.pause(dirty);
            let new_local = self.hosts[dest].inject_vm(image, now + pause);
            self.hosts[dest].record_cluster_event(FlightEv::Evacuate {
                vm: id as u32,
                from: host as u32,
                to: dest as u32,
            });
            self.state.evacuations.push(MigrationRecord {
                epoch,
                vm: id,
                name,
                from: host,
                to: dest,
                online_delta,
                dirty_pages: dirty,
                pause: pause.as_u64(),
            });
            let e = &mut self.state.vms[id];
            e.host = dest;
            e.local = new_local;
            e.last_migration = Some(epoch);
            e.migrations += 1;
        }
        // Retry chains headed for (or rolling back onto) the dead host
        // cannot continue.
        let before = self.state.pending.len();
        self.state.pending.retain(|p| p.to != host);
        self.state.retries_abandoned += (before - self.state.pending.len()) as u64;
    }

    /// Re-check a due retry against the current cluster state: the VM
    /// must still exist (departures abandon their chains eagerly, but
    /// this is the backstop), the destination must still admit and must
    /// not have become the VM's home (a crash evacuation may have
    /// re-placed it meanwhile).
    fn revalidate_retry(&mut self, p: PendingRetry) -> Option<(Move, u32, Option<u32>)> {
        let stale = self.state.vms[p.vm].departed
            || self.state.health[p.to] != HostHealth::Healthy
            || self.state.vms[p.vm].host == p.to;
        if stale {
            self.state.retries_abandoned += 1;
            return None;
        }
        Some((Move { vm: p.vm, to: p.to }, p.attempts + 1, Some(p.span)))
    }

    /// Form epoch deltas from the telemetry the workers captured during
    /// the parallel advance — a pure array lookup per VM, so the serial
    /// section stays O(registry) with no host rescans. The counters
    /// travel with the VM (kernel stats move with the kernel,
    /// accounting moves with the image), so the deltas stay monotone
    /// across migrations.
    fn collect_deltas(&mut self, telemetry: &[Vec<VmCounters>]) {
        for e in &mut self.state.vms {
            // A departed entry's slot may belong to someone else now;
            // its deltas are zeroed so stale values cannot leak into a
            // later epoch's series sample.
            if e.departed {
                e.spin_delta = 0;
                e.vcrd_high_delta = 0;
                e.online_delta = 0;
                continue;
            }
            let c = telemetry[e.host][e.local];
            e.spin_delta = c.spin.saturating_sub(e.prev_spin);
            e.vcrd_high_delta = c.vcrd_high.saturating_sub(e.prev_vcrd_high);
            e.online_delta = c.online.saturating_sub(e.prev_online);
            e.prev_spin = c.spin;
            e.prev_vcrd_high = c.vcrd_high;
            e.prev_online = c.online;
        }
    }

    /// Build the balancer's view of this epoch. Hosts advertise their
    /// *effective* (derate-shrunk) capacity, and only healthy hosts
    /// admit; VMs that exhausted their retry cap read as cooling
    /// forever, so no policy re-proposes them.
    fn snapshot(&self, epoch: u64) -> Snapshot {
        Snapshot {
            hosts: self
                .hosts
                .iter()
                .enumerate()
                .map(|(h, m)| HostView {
                    pcpus: m.effective_pcpus(),
                    admit: self.state.health[h] == HostHealth::Healthy,
                })
                .collect(),
            vms: self
                .state
                .vms
                .iter()
                .map(|e| {
                    // Departed entries stay in the snapshot so cluster
                    // ids keep indexing it, but read as weightless and
                    // permanently cooling: no policy aggregates them
                    // into a host's load or proposes moving them.
                    if e.departed {
                        return VmView {
                            host: e.host,
                            vcpus: 0,
                            spin_delta: 0,
                            vcrd_high_delta: 0,
                            cooling: true,
                        };
                    }
                    VmView {
                        host: e.host,
                        vcpus: e.vcpus,
                        spin_delta: e.spin_delta,
                        vcrd_high_delta: e.vcrd_high_delta,
                        cooling: e.gave_up
                            || e.last_migration.is_some_and(|m| {
                                epoch.saturating_sub(m) < self.cfg.cooldown_epochs
                            }),
                    }
                })
                .collect(),
            epoch_cycles: self.epoch_cycles().as_u64(),
        }
    }

    /// Attempt to stop-and-copy `mv.vm` onto `mv.to` (attempt number
    /// `attempt` of its chain). The state machine:
    ///
    /// * **prepare** — extract the [`asman_hypervisor::VmImage`] at the
    ///   epoch boundary;
    /// * **copy** — charge the dirty-rate-proportional cost; if the
    ///   fault plan aborts this epoch, the copy fails here;
    /// * **commit** — inject on the destination, resuming after the
    ///   full pause; or
    /// * **abort** — roll the image back onto the source (tombstone
    ///   cleared, [`MigrationModel::abort_penalty`] of dead time) and
    ///   schedule a retry with exponential backoff (1, 2, 4… epochs)
    ///   until the per-VM attempt cap is spent.
    fn execute_migration(
        &mut self,
        epoch: u64,
        mv: Move,
        now: Cycles,
        attempt: u32,
        span: Option<u32>,
    ) {
        let (from, local, name) = {
            let e = &self.state.vms[mv.vm];
            (e.host, e.local, e.name.clone())
        };
        assert_ne!(from, mv.to, "balancer proposed a no-op move");
        // A fresh decision mints a new span; a retry inherits the
        // chain's span from its PendingRetry, so the whole
        // prepare/copy/abort/retry/commit lifecycle shares one causal
        // id in the flight stream.
        let span = span.unwrap_or_else(|| {
            let s = self.state.next_span;
            self.state.next_span += 1;
            s
        });
        if attempt > 1 {
            self.hosts[from].record_cluster_event(FlightEv::MigrateRetry {
                span,
                vm: mv.vm as u32,
                attempt,
            });
        }
        self.hosts[from].record_cluster_event(FlightEv::MigratePrepare {
            span,
            vm: mv.vm as u32,
            from: from as u32,
            to: mv.to as u32,
            attempt,
        });
        let image = self.hosts[from].extract_vm(local);
        // Extraction closes the VM's in-progress accounting segments, so
        // the travelling image's counters run ahead of the worker capture
        // this epoch's deltas were built from. Fold that tail in *before*
        // deriving the copy cost: the dirty-page charge (and the audit's
        // re-derivation of it) must see everything the guest ran online.
        self.reconcile_extracted(mv.vm, image.counters());
        let online_delta = self.state.vms[mv.vm].online_delta;
        #[allow(unused_mut)]
        let mut dirty = self.cfg.model.dirty_pages(Cycles(online_delta));
        #[cfg(feature = "audit")]
        if self.fault_dirty_undercount {
            dirty /= 2;
        }
        self.hosts[from].record_cluster_event(FlightEv::MigrateCopy {
            span,
            vm: mv.vm as u32,
            pages: dirty,
        });
        if self.cfg.faults.aborts_at(epoch) {
            // Abort with rollback: the image returns to its original
            // slot on the source, which eats the failed copy's penalty
            // as guest-visible dead time.
            let penalty = self.cfg.model.abort_penalty(dirty);
            self.hosts[from].undo_extract_vm(local, image, now + penalty);
            #[cfg(feature = "audit")]
            if self.fault_sticky_tombstone {
                self.hosts[from].audit_mark_evacuated(local);
            }
            // Stamped at the end of the penalty window so the span's
            // prepare->abort duration is the guest-visible dead time
            // (merge_streams restores time order).
            self.hosts[from].record_cluster_event_at(
                now + penalty,
                FlightEv::MigrateAbort {
                    span,
                    vm: mv.vm as u32,
                    attempt,
                },
            );
            self.state.aborts.push(AbortRecord {
                epoch,
                vm: mv.vm,
                name,
                from,
                to: mv.to,
                attempt,
                online_delta,
                dirty_pages: dirty,
                penalty: penalty.as_u64(),
            });
            self.state.vms[mv.vm].attempts = attempt;
            if attempt < self.cfg.retry_cap {
                self.state.pending.push(PendingRetry {
                    vm: mv.vm,
                    to: mv.to,
                    due: epoch + (1 << (attempt - 1)),
                    attempts: attempt,
                    span,
                });
            } else {
                self.state.vms[mv.vm].gave_up = true;
                self.state.gave_up += 1;
            }
            return;
        }
        let pause = self.cfg.model.pause(dirty);
        let new_local = self.hosts[mv.to].inject_vm(image, now + pause);
        // Commit lands on the destination stream, stamped when the
        // guest resumes (prepare->commit duration == injected pause).
        self.hosts[mv.to].record_cluster_event_at(
            now + pause,
            FlightEv::MigrateCommit {
                span,
                vm: mv.vm as u32,
                to: mv.to as u32,
                pause: pause.as_u64(),
            },
        );
        self.state.records.push(MigrationRecord {
            epoch,
            vm: mv.vm,
            name,
            from,
            to: mv.to,
            online_delta,
            dirty_pages: dirty,
            pause: pause.as_u64(),
        });
        if attempt > 1 {
            self.state.retries_committed += 1;
        }
        let e = &mut self.state.vms[mv.vm];
        e.host = mv.to;
        e.local = new_local;
        e.last_migration = Some(epoch);
        e.migrations += 1;
        e.attempts = 0;
    }

    /// Cluster invariant auditor (always on — it is cheap relative to
    /// an epoch of simulation):
    ///
    /// * **registry/host agreement** — every entry points at a live VM
    ///   on a live host, with the right name and VCPU count, and no
    ///   retry chain overran its attempt cap;
    /// * **VM conservation** — live VMs across hosts equal the registry;
    /// * **migration-cost conservation** — every migration and
    ///   evacuation record's `dirty_pages` and `pause`, and every abort
    ///   record's `penalty`, re-derive from `online_delta` through the
    ///   model (catches any path that charges less than the model
    ///   demands — e.g. the injected undercount fault — and any
    ///   rollback that forgot to clear the source tombstone).
    pub fn audit_check(&self) {
        for (id, e) in self.state.vms.iter().enumerate() {
            if e.departed {
                // A departed entry's host/local are frozen history; its
                // slot may have been reused. The only invariant left is
                // that departure captured its final accounting row.
                assert!(
                    e.final_row.is_some(),
                    "cluster audit: departed vm {} has no final row",
                    id
                );
                continue;
            }
            let m = &self.hosts[e.host];
            assert!(
                !m.vm_evacuated(e.local),
                "cluster audit: registry vm {} points at a tombstone",
                id
            );
            assert!(
                self.state.health[e.host] != HostHealth::Crashed,
                "cluster audit: registry vm {} resident on crashed host {}",
                id,
                e.host
            );
            assert_eq!(
                m.vm_name(e.local),
                e.name,
                "cluster audit: registry vm {} name mismatch",
                id
            );
            assert_eq!(
                m.vm_kernel(e.local).vcpu_count(),
                e.vcpus,
                "cluster audit: registry vm {} vcpu count mismatch",
                id
            );
            assert!(
                e.attempts <= self.cfg.retry_cap,
                "cluster audit: vm {} overran the retry cap ({} > {})",
                id,
                e.attempts,
                self.cfg.retry_cap
            );
        }
        let live: usize = self.hosts.iter().map(|m| m.active_vm_count()).sum();
        let resident = self.state.vms.iter().filter(|e| !e.departed).count();
        assert_eq!(
            live, resident,
            "cluster audit: VM count not conserved ({} live vs {} resident)",
            live, resident
        );
        for r in self.state.records.iter().chain(&self.state.evacuations) {
            let dirty = self.cfg.model.dirty_pages(Cycles(r.online_delta));
            assert_eq!(
                dirty, r.dirty_pages,
                "cluster audit: migration dirty pages not conserved (vm {} epoch {})",
                r.vm, r.epoch
            );
            assert_eq!(
                self.cfg.model.pause(r.dirty_pages).as_u64(),
                r.pause,
                "cluster audit: migration pause not conserved (vm {} epoch {})",
                r.vm,
                r.epoch
            );
        }
        for a in &self.state.aborts {
            let dirty = self.cfg.model.dirty_pages(Cycles(a.online_delta));
            assert_eq!(
                dirty, a.dirty_pages,
                "cluster audit: abort dirty pages not conserved (vm {} epoch {})",
                a.vm, a.epoch
            );
            assert_eq!(
                self.cfg.model.abort_penalty(a.dirty_pages).as_u64(),
                a.penalty,
                "cluster audit: abort penalty not conserved (vm {} epoch {})",
                a.vm,
                a.epoch
            );
            assert!(
                a.attempt >= 1 && a.attempt <= self.cfg.retry_cap,
                "cluster audit: abort attempt {} outside 1..={} (vm {})",
                a.attempt,
                self.cfg.retry_cap,
                a.vm
            );
        }
        #[cfg(feature = "audit")]
        for m in &self.hosts {
            m.check_invariants();
        }
    }

    /// Final report from the registry and host state.
    pub fn report(&self) -> ClusterReport {
        let vm_rows: Vec<VmRow> = self
            .state
            .vms
            .iter()
            .map(|e| {
                // Departed VMs report the row frozen at departure; a
                // live lookup would read a dead (or reused) slot.
                if let Some(row) = &e.final_row {
                    return row.clone();
                }
                let m = &self.hosts[e.host];
                let st = m.vm_kernel(e.local).stats();
                let acct = m.vm_accounting(e.local);
                VmRow {
                    name: e.name.clone(),
                    host: e.host,
                    vcpus: e.vcpus,
                    migrations: e.migrations,
                    spin_cycles: (st.spin_kernel_cycles
                        + st.spin_barrier_cycles
                        + st.spin_pipeline_cycles)
                        .as_u64(),
                    useful_cycles: st.useful_cycles.as_u64(),
                    vcrd_high_cycles: acct.vcrd_high_cycles.as_u64(),
                    online_cycles: acct.total_online().as_u64(),
                }
            })
            .collect();
        let host_rows = self
            .hosts
            .iter()
            .enumerate()
            .map(|(h, m)| HostRow {
                host: h,
                pcpus: m.config().pcpus,
                vms: self
                    .state
                    .vms
                    .iter()
                    .filter(|e| !e.departed && e.host == h)
                    .map(|e| e.name.clone())
                    .collect(),
                resident_vcpus: self.resident_vcpus(h),
                events_processed: m.events_processed(),
            })
            .collect();
        let recovery = if self.cfg.faults.is_empty() {
            None
        } else {
            Some(RecoveryReport {
                plan: self.cfg.faults.clone(),
                host_health: self.state.health.clone(),
                aborts: self.state.aborts.clone(),
                evacuations: self.state.evacuations.clone(),
                retries_committed: self.state.retries_committed,
                retries_abandoned: self.state.retries_abandoned,
                gave_up: self.state.gave_up,
                total_abort_penalty_cycles: self.state.aborts.iter().map(|a| a.penalty).sum(),
                total_evacuation_pause_cycles: self.state.evacuations.iter().map(|r| r.pause).sum(),
            })
        };
        let churn = if self.cfg.churn.is_empty() {
            None
        } else {
            Some(ChurnReport {
                plan: self.cfg.churn.clone(),
                arrivals: self.state.arrivals,
                departures: self.state.departures,
                arrivals_rejected: self.state.arrivals_rejected,
                departures_skipped: self.state.departures_skipped,
                resident_end: self.resident_vm_count() as u64,
                departed_finished: self.state.departed_finished,
            })
        };
        ClusterReport {
            policy: self.cfg.policy.label(),
            hosts: self.hosts.len(),
            epochs: self.state.epoch,
            epoch_ms: self.cfg.epoch_ms,
            host_rows,
            total_spin_cycles: vm_rows.iter().map(|r| r.spin_cycles).sum(),
            total_useful_cycles: vm_rows.iter().map(|r| r.useful_cycles).sum(),
            total_pause_cycles: self.state.records.iter().map(|r| r.pause).sum(),
            vm_rows,
            migrations: self.state.records.clone(),
            recovery,
            churn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{consolidation_cluster, ConsolidationSpec};

    fn migrating_cfg() -> ClusterConfig {
        ClusterConfig {
            epoch_ms: 50,
            epochs: 20,
            policy: Policy::VcrdAware,
            ..ClusterConfig::default()
        }
    }

    /// Drive one epoch with the Static policy (so no spontaneous move
    /// competes with the forced one), then return the boundary time.
    /// At this boundary, gang1 on host 0 of the default consolidation
    /// scenario provably has an *open guest spin segment*: `settle()`
    /// closes online/VCRD accrual at the deadline, but an in-progress
    /// spin only reaches the kernel's cumulative stats when extraction
    /// preempts the spinning VCPU — so the travelling image's `spin`
    /// counter runs ahead of the worker-side barrier capture.
    fn one_epoch_with_spin_tail(c: &mut Cluster) -> Cycles {
        c.run_epoch();
        let end = c.epoch_cycles();
        let e = &c.state.vms[GANG1];
        let live = c.hosts[e.host].vm_counters(e.local);
        // Baseline sanity for the regression below: the tail exists at
        // this boundary only as an *open* segment — capture == stats.
        assert_eq!(e.prev_spin, live.spin, "capture should match lazy stats");
        end
    }

    /// Cluster id of host 0's second gang VM (registry order: gang0,
    /// gang1, bg0, bg1, bg2 for the default consolidation scenario).
    const GANG1: usize = 1;

    /// Regression (per-VM delta reconciliation, commit path): extraction
    /// closes the travelling VM's in-progress guest spin segment, so the
    /// image's `spin` counter runs *ahead* of the worker-side barrier
    /// capture this epoch's deltas came from. The migration must fold
    /// that tail into the current epoch's delta and advance the registry
    /// baseline to the image — otherwise `prev_spin` stays at the stale
    /// capture and the tail is smeared into the *next* epoch's delta,
    /// mis-attributed to the destination host's series sample.
    #[test]
    fn migration_reconciles_spin_tail_against_the_travelling_image() {
        let mut c = consolidation_cluster(migrating_cfg(), &ConsolidationSpec::default());
        let now = one_epoch_with_spin_tail(&mut c);
        let delta_before = c.state.vms[GANG1].spin_delta;
        c.execute_migration(1, Move { vm: GANG1, to: 1 }, now, 1, None);
        let e = &c.state.vms[GANG1];
        assert_eq!(e.host, 1, "forced move must have committed");
        let live = c.hosts[e.host].vm_counters(e.local);
        // Post-commit the destination slot holds exactly the image;
        // reconciliation must have advanced the baseline to it
        // (pre-fix: baseline == stale worker capture).
        assert_eq!(
            (e.prev_spin, e.prev_vcrd_high, e.prev_online),
            (live.spin, live.vcrd_high, live.online),
            "registry baseline diverges from the migrated VM's counters"
        );
        assert!(
            e.spin_delta > delta_before,
            "the extraction-closed spin tail must land in this epoch's delta"
        );
    }

    /// Regression (per-VM delta reconciliation, abort path): a rolled-back
    /// migration also extracts an image — the rollback restores it to the
    /// source slot with its spin segment closed, so the same
    /// baseline-equals-counters invariant must hold on the source.
    #[test]
    fn aborted_migration_reconciles_spin_tail_on_the_source() {
        let mut c = consolidation_cluster(
            ClusterConfig {
                faults: FaultPlan {
                    events: vec![asman_sim::FaultEvent {
                        epoch: 1,
                        kind: FaultKind::Abort,
                    }],
                },
                ..migrating_cfg()
            },
            &ConsolidationSpec::default(),
        );
        let now = one_epoch_with_spin_tail(&mut c);
        let delta_before = c.state.vms[GANG1].spin_delta;
        c.execute_migration(1, Move { vm: GANG1, to: 1 }, now, 1, None);
        let e = &c.state.vms[GANG1];
        assert_eq!(e.host, 0, "move must have aborted back to the source");
        assert_eq!(c.state.aborts.len(), 1);
        let live = c.hosts[e.host].vm_counters(e.local);
        assert_eq!(
            (e.prev_spin, e.prev_vcrd_high, e.prev_online),
            (live.spin, live.vcrd_high, live.online),
            "registry baseline diverges after rollback"
        );
        assert!(
            e.spin_delta > delta_before,
            "the extraction-closed spin tail must land in this epoch's delta"
        );
    }
}
