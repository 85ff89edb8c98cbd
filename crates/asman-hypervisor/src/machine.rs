//! The virtual machine monitor model: PCPUs, VCPUs, VMs and the
//! discrete-event scheduling loop.
//!
//! The scheduler is the Xen **Credit scheduler** (proportional-share
//! weights, 10 ms accounting slots, 30 ms credit assignment, BOOST
//! priority for waking VCPUs, idle-stealing load balancing, work- and
//! non-work-conserving cap modes), extended with the coscheduling
//! machinery of the paper:
//!
//! * [`CoschedPolicy::Static`] — always coschedule VMs flagged as
//!   concurrent (the authors' earlier VEE'09 system, `CON`);
//! * [`CoschedPolicy::Adaptive`] — ASMan: coschedule while the guest's
//!   Monitoring Module holds the VCRD HIGH. On a LOW→HIGH hypercall the
//!   VM's runnable VCPUs are relocated to distinct PCPU runqueues
//!   (Algorithm 3, lines 8–15) and, at scheduling events, the dispatching
//!   PCPU sends IPIs that temporarily raise the priority of sibling VCPUs
//!   so the whole VM comes online together (Algorithm 4).
//!
//! Timing realism notes: per-PCPU accounting ticks are staggered (as on
//! real hardware, where each CPU's local APIC timer has its own phase),
//! and wake-ups incur a small random dispatch latency (interrupt/softirq
//! noise). Both are what desynchronizes sibling VCPUs under the plain
//! Credit scheduler and creates the lock-holder-preemption exposure that
//! the paper measures.

use asman_guest::{Effects, GuestKernel, GuestWork, Vcrd, VcrdUpdate};
use asman_sim::audit::{OracleQueue, SimQueue};
use asman_sim::flight::{CatMask, FlightEv, FlightEvent, FlightRecorder, TraceCat};
use asman_sim::registry::{MetricsRegistry, QuantileHist};
use asman_sim::{merge_streams, Cycles, EventQueue, Fnv, SimRng};

use crate::config::{CapMode, CoschedPolicy, MachineConfig, VmSpec};
use crate::metrics::VmAccounting;

/// Kinds of scheduling transitions, recorded as flight events (park and
/// unpark in the `credit` category, the rest in `sched`).
enum SchedEventKind {
    /// VCPU given a PCPU.
    Dispatch,
    /// VCPU involuntarily preempted back to a runqueue.
    Preempt,
    /// VCPU blocked (guest idle).
    Block,
    /// VCPU woken (runnable again).
    Wake,
    /// VCPU parked by cap enforcement.
    Park,
    /// VCPU unparked at an accounting event.
    Unpark,
}

/// VCPU scheduling state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum VState {
    /// Waiting in the runqueue of `assigned` PCPU.
    Runnable,
    /// Currently on its assigned PCPU.
    Running,
    /// Nothing runnable in the guest; not in any runqueue.
    Blocked,
}

struct Vcpu {
    vm: usize,
    /// VM-local index.
    slot: usize,
    state: VState,
    assigned: usize,
    credit: i64,
    boost: bool,
    /// Invalidates in-flight `WorkDone` events.
    epoch: u64,
    /// Start of the current unaccounted running span.
    last_charge: Cycles,
    /// Parked by cap enforcement (set/cleared only at accounting
    /// events, like Xen's CSCHED_PRI_TS_PARKED).
    parked: bool,
    /// Set on involuntary preemption: the next dispatch pays the cache
    /// warm-up penalty.
    cold: bool,
    /// PCPU the VCPU last ran on (migration implies cold caches).
    last_ran: Option<usize>,
    /// Set while the VCPU's installed guest work is a kernel spin
    /// (Pause-Loop-Exit style detection for the OutOfVm policy).
    spinning_since: Option<Cycles>,
    /// Relaxed coscheduling: accumulated time descheduled while at least
    /// one sibling ran.
    skew: Cycles,
    /// When the VCPU last blocked (None while runnable/running).
    blocked_since: Option<Cycles>,
    /// Blocked time accumulated since the last credit assignment.
    blocked_accum: Cycles,
    /// When the VCPU last became runnable via a wake delivery. Stamped
    /// only while scheduler-latency telemetry is enabled; consumed by
    /// the next dispatch (wakeup→dispatch latency).
    wake_at: Option<Cycles>,
    /// When the VCPU was last involuntarily preempted. Stamped only
    /// while scheduler-latency telemetry is enabled; consumed by the
    /// next dispatch (preemption-hold duration).
    preempt_at: Option<Cycles>,
    /// Position in `assigned`'s runqueue while Runnable; `NOT_QUEUED`
    /// otherwise. Keeps dequeues O(1) instead of a linear scan.
    runq_pos: usize,
}

impl Vcpu {
    /// VCPU `slot` of VM `vm`, homed on PCPU `assigned`: Blocked since
    /// `now`, unqueued, with no credit and cold caches. This is how a
    /// VCPU enters a slot after construction; [`Machine::build`]
    /// overrides it to Runnable, warm and queued.
    fn new(vm: usize, slot: usize, assigned: usize, now: Cycles) -> Vcpu {
        Vcpu {
            vm,
            slot,
            state: VState::Blocked,
            assigned,
            credit: 0,
            boost: false,
            epoch: 0,
            last_charge: now,
            parked: false,
            // The first dispatch pays the warm-up penalty: no working
            // set has been built on this host.
            cold: true,
            last_ran: None,
            spinning_since: None,
            skew: Cycles::ZERO,
            blocked_since: Some(now),
            blocked_accum: Cycles::ZERO,
            wake_at: None,
            preempt_at: None,
            runq_pos: NOT_QUEUED,
        }
    }
}

/// `runq_pos` sentinel for a VCPU that is not in any runqueue.
const NOT_QUEUED: usize = usize::MAX;

/// Most PCPUs a machine can have: one bit each in the `u128` idle and
/// queued masks. [`Machine::build`] refuses more.
pub const MAX_PCPUS: usize = 128;

struct Pcpu {
    runq: Vec<usize>,
    running: Option<usize>,
}

struct Vm {
    name: String,
    weight: u32,
    cap: CapMode,
    concurrent_hint: bool,
    finite: bool,
    kernel: GuestKernel,
    vcpu_ids: Vec<usize>,
    vcrd: Vcrd,
    vcrd_epoch: u64,
    vcrd_high_since: Cycles,
    last_cosched: Option<Cycles>,
    acct: VmAccounting,
    /// VCPUs currently online (concurrency histogram bookkeeping).
    online_count: usize,
    co_last: Cycles,
    /// The VM was live-migrated away: its slot stays as a tombstone (so
    /// VM/VCPU indices remain stable) but it holds a zero-thread stub
    /// kernel, carries no weight, and never schedules again.
    evacuated: bool,
    /// Incarnation counter of this slot. Bumped only when a tombstone
    /// is *reused* for a different VM (never on extraction alone, so an
    /// aborted migration's rollback keeps its in-flight events valid).
    /// Wake and sleep-timer events carry the generation they were armed
    /// for and are dropped on mismatch; external holders of a
    /// `(vm, generation)` pair can detect staleness via
    /// [`Machine::vm_generation`].
    generation: u32,
}

impl Vm {
    /// A live VM made from `image` over the VCPUs `vcpu_ids`, its VMM
    /// view of the VCRD LOW and its open spans starting at `now`.
    fn new(image: VmImage, vcpu_ids: Vec<usize>, now: Cycles) -> Vm {
        Vm {
            name: image.name,
            weight: image.weight,
            cap: image.cap,
            concurrent_hint: image.concurrent_hint,
            finite: image.finite,
            kernel: image.kernel,
            vcpu_ids,
            vcrd: Vcrd::Low,
            vcrd_epoch: 0,
            vcrd_high_since: now,
            last_cosched: None,
            acct: image.acct,
            online_count: 0,
            co_last: now,
            evacuated: false,
            generation: 0,
        }
    }
}

/// A VM lifted off its host for live migration: everything needed to
/// resume it bit-exactly on another [`Machine`] via
/// [`Machine::inject_vm`]. Produced by [`Machine::extract_vm`].
pub struct VmImage {
    /// VM name (stable across hosts).
    pub name: String,
    /// Credit-scheduler weight.
    pub weight: u32,
    /// Cap mode.
    pub cap: CapMode,
    /// Static concurrent-workload hint (for `CoschedPolicy::Static`).
    pub concurrent_hint: bool,
    /// Whether the program is finite (run-to-completion semantics).
    pub finite: bool,
    /// The guest kernel, moved by value: threads, locks, barriers,
    /// semaphores, stats — the entire guest state travels.
    pub kernel: GuestKernel,
    /// VMM-side accounting, accumulated across hosts.
    pub acct: VmAccounting,
}

impl VmImage {
    /// The image of a VM with zero history: `spec`'s guest kernel
    /// freshly booted, its accounting empty.
    fn boot(spec: VmSpec) -> VmImage {
        let finite = spec.program.finite();
        let kernel = GuestKernel::new(spec.program, spec.vcpus, spec.costs, spec.observer);
        VmImage {
            name: spec.name,
            weight: spec.weight,
            cap: spec.cap,
            concurrent_hint: spec.concurrent_hint,
            finite,
            kernel,
            acct: VmAccounting::new(spec.vcpus),
        }
    }

    /// Number of VCPUs the destination host must provide.
    pub fn vcpus(&self) -> usize {
        self.kernel.vcpu_count()
    }

    /// Cumulative spin/VCRD/online counters carried by this image, in
    /// exactly [`Machine::vm_counters`]' units. An image's counters are
    /// *later* than the worker-captured barrier snapshot: extraction
    /// closes in-progress spin segments (via the final preempts), so the
    /// cluster reconciles its per-VM baselines against this value when a
    /// VM migrates or departs — otherwise the closing tail is smeared
    /// into the next epoch on the destination, or lost with the VM.
    pub fn counters(&self) -> VmCounters {
        let st = self.kernel.stats();
        VmCounters {
            spin: (st.spin_kernel_cycles + st.spin_barrier_cycles + st.spin_pipeline_cycles)
                .as_u64(),
            vcrd_high: self.acct.vcrd_high_cycles.as_u64(),
            online: self.acct.total_online().as_u64(),
        }
    }
}

/// Final accounting of a VM destroyed with [`Machine::destroy_vm`]: the
/// numbers a cluster report needs after the kernel itself is gone.
#[derive(Clone, Debug)]
pub struct VmRetirement {
    /// VM name.
    pub name: String,
    /// VCPU count the VM had.
    pub vcpus: usize,
    /// Cumulative spin/VCRD/online counters at destruction.
    pub counters: VmCounters,
    /// Cycles of useful (non-spin) guest work completed.
    pub useful_cycles: u64,
    /// Whether a finite program had run to completion.
    pub finished: bool,
}

#[derive(Clone, Copy, Debug)]
/// Event payload of the machine's event queue. Entity indices are
/// `u32` so the whole enum packs into 16 bytes — the event queue moves
/// these on every insert, and the simulation never has 4 billion VCPUs.
///
/// Public so the machine can be instantiated over any
/// [`SimQueue`]`<Ev>` implementation (see [`OracleMachine`]); the
/// variants themselves are an implementation detail and carry no
/// stability promise.
pub enum Ev {
    /// Per-PCPU accounting tick (every scheduling slot, staggered).
    Tick {
        /// The PCPU whose tick fires.
        pcpu: u32,
    },
    /// Global 30 ms credit assignment.
    Assign,
    /// Run the scheduler on one PCPU.
    Reschedule {
        /// The PCPU to reschedule.
        pcpu: u32,
    },
    /// A VCPU's installed guest work segment completed.
    WorkDone {
        /// The VCPU whose work finished.
        vcpu: u32,
        /// Invalidates the event if the VCPU was rescheduled meanwhile.
        epoch: u64,
    },
    /// A sleeping guest thread's timer expired.
    SleepTimer {
        /// VM index.
        vm: u32,
        /// VM-local thread index.
        thread: u32,
        /// Slot generation the timer was armed for; invalidates the
        /// event if the slot has been reused by a different VM since.
        gen: u32,
    },
    /// Expiry of a VCRD HIGH period raised with a deadline.
    VcrdTimer {
        /// VM index.
        vm: u32,
        /// Invalidates the event if the VCRD was re-raised meanwhile.
        epoch: u64,
    },
    /// Coscheduling IPI delivery.
    Ipi {
        /// Target VCPU.
        vcpu: u32,
    },
    /// Delayed wake-up delivery (interrupt latency jitter).
    Wake {
        /// Target VCPU.
        vcpu: u32,
        /// Slot generation the wake was armed for; invalidates the
        /// event if the slot has been reused by a different VM since.
        gen: u32,
    },
}

/// The simulated physical machine: PCPUs, the VMM scheduler, and the VMs
/// with their guest kernels.
///
/// Generic over the event-queue implementation `Q`. The default is the
/// optimized [`EventQueue`]; [`OracleMachine`] instantiates the same
/// scheduler logic over the naive [`OracleQueue`], with every cached
/// lookup (runqueue position index, idle/queued masks, scratch buffers)
/// replaced by a from-scratch scan wherever `Q::NAIVE` is set.
pub struct Machine<Q: SimQueue<Ev> = EventQueue<Ev>> {
    cfg: MachineConfig,
    now: Cycles,
    events: Q,
    pcpus: Vec<Pcpu>,
    vcpus: Vec<Vcpu>,
    vms: Vec<Vm>,
    rng: SimRng,
    total_weight: u64,
    events_processed: u64,
    run_wall: std::time::Duration,
    /// Hypervisor-layer flight recorder (sched/credit/cosched
    /// categories). Disabled by default; every record site is guarded by
    /// a one-word mask test, so the disabled cost is a load + branch.
    flight: FlightRecorder,
    /// Bit p set ⇔ PCPU p has no running VCPU. Lets tickle sites find
    /// the first idle PCPU without scanning the PCPU table.
    idle_mask: u128,
    /// Bit p set ⇔ PCPU p's runqueue is non-empty. Lets the stealing
    /// scan skip PCPUs with nothing to steal.
    queued_mask: u128,
    /// Scratch for `assign_credit` (avoids a per-VM allocation every
    /// 30 ms accounting interval).
    scratch_actives: Vec<u64>,
    /// Reusable guest-effects buffer for the hot event handlers, boxed
    /// so that taking it and putting it back moves one pointer. A take
    /// that finds the slot empty (the first, or one nested inside an
    /// effects pass) gets a fresh buffer.
    scratch_fx: Option<Box<Effects>>,
    /// Scratch for `relocate_siblings` (avoids an allocation per IPI
    /// burst).
    scratch_occupied: Vec<bool>,
    /// Flight-recorder streams drained from guests extracted by live
    /// migration, already rebased to this host's global indices. Merged
    /// into [`Machine::flight_events`] so an evacuated VM's history is
    /// not lost with its kernel.
    adopted_streams: Vec<Vec<FlightEvent>>,
    /// Advertised capacity derate in percent (0 = healthy). Purely an
    /// admission-control signal for the cluster layer: it shrinks
    /// [`Machine::effective_pcpus`] but never changes engine timing, so
    /// arming it cannot perturb a host's event stream.
    derate_pct: u32,
    /// Scheduler-latency telemetry (wakeup→dispatch, preemption-hold).
    /// `None` by default: the stamp sites then cost a single branch and
    /// no VCPU timestamps are ever taken, so artifacts are unchanged.
    lat: Option<Box<SchedLatency>>,
    /// When set, [`Machine::inject_vm`] reuses the lowest-index
    /// tombstone slot of matching VCPU count (bumping its generation)
    /// instead of appending a new slot. Off by default so static-
    /// population experiments keep their exact slot layout and digests;
    /// churned soaks enable it to bound slot growth.
    reuse_slots: bool,
    /// Invariant-auditor state (shadow ledgers, injected mutations).
    /// Costs nothing unless the `audit` feature is compiled in.
    #[cfg(feature = "audit")]
    audit: AuditState,
}

/// State of the compiled-in invariant auditor (`audit` feature): a
/// shadow credit ledger per VM, the injected mutation knobs, and the
/// last checkpoint time for monotonicity checks.
#[cfg(feature = "audit")]
#[derive(Clone, Debug, Default)]
struct AuditState {
    /// Expected per-VM sum of VCPU credits. Updated in lockstep with
    /// every credit assignment and charge; any divergence between this
    /// and the actual sum means a burn or assignment was lost,
    /// duplicated, or mis-sized.
    ledger: Vec<i64>,
    /// Simulated time of the previous checkpoint (monotonicity check).
    last_checkpoint: Cycles,
    /// Number of checkpoints executed (so tests can assert coverage).
    checkpoints: u64,
    /// Injected off-by-`skew` error added to every credit burn but not
    /// to the shadow ledger — the mutation the auditor must catch.
    skew: i64,
    /// Injected fault: priority computation ignores BOOST, silently
    /// demoting freshly woken VCPUs. The differential harness must flag
    /// the resulting schedule divergence against the oracle.
    boost_skip: bool,
}

/// Engine throughput snapshot: how many events the machine has popped,
/// how much host wall time the run drivers spent popping them, and the
/// derived rate. Purely observational — reading it never perturbs the
/// simulation.
#[derive(Clone, Copy, Debug)]
pub struct PerfSnapshot {
    /// Events popped from the queue since construction.
    pub events: u64,
    /// Host wall time accumulated inside the run drivers.
    pub wall: std::time::Duration,
    /// `events / wall`, or 0 if no time has been recorded.
    pub events_per_sec: f64,
}

/// Scheduler-latency distributions, observed purely from existing state
/// transitions (no extra events, no RNG draws), so enabling them cannot
/// perturb the simulation. Durations are in cycles.
#[derive(Clone, Debug, Default)]
pub struct SchedLatency {
    /// Wake delivery (Blocked→Runnable) to the dispatch that next put
    /// the VCPU on a PCPU.
    pub wake_to_dispatch: QuantileHist,
    /// Involuntary preemption (Running→Runnable) to the dispatch that
    /// got the VCPU back on a PCPU.
    pub preempt_hold: QuantileHist,
}

/// Cumulative telemetry counters of one resident VM, as the cluster
/// balancer consumes them. A snapshot is taken by the worker that
/// advanced the host — inside the parallel phase of a cluster epoch —
/// so the serial balancer section never rescans guest kernels or
/// accounting registries at the barrier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmCounters {
    /// Cycles burned busy-waiting (kernel locks + barriers + pipeline
    /// flags), cumulative since the VM booted.
    pub spin: u64,
    /// Cycles the VMM saw the VM's VCRD held HIGH, cumulative.
    pub vcrd_high: u64,
    /// Total VCPU-online cycles, cumulative.
    pub online: u64,
}

/// A machine is a self-contained deterministic simulation (owned event
/// queue, owned guests, owned RNG), so it can be advanced on a worker
/// thread. The cluster driver relies on this to parallelize intra-epoch
/// host advancement; this assertion turns any future non-`Send` field
/// into a compile error at the point of introduction.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Machine>();
    assert_send::<OracleMachine>();
};

impl Machine {
    /// Build a machine with the given VMs over the optimized event
    /// queue. VCPUs are spread round-robin over the PCPU runqueues and
    /// everything starts runnable at t = 0.
    pub fn new(cfg: MachineConfig, specs: Vec<VmSpec>) -> Self {
        Self::build(cfg, specs)
    }
}

/// A [`Machine`] over the naive [`OracleQueue`]: same scheduler
/// semantics, dumbest-possible data structures. Built with
/// [`Machine::build`]; the differential audit harness runs one of these
/// in lockstep with the optimized machine and diffs every observable.
pub type OracleMachine = Machine<OracleQueue<Ev>>;

impl<Q: SimQueue<Ev>> Machine<Q> {
    /// Build a machine with the given VMs over any event-queue
    /// implementation (see [`Machine::new`] for the optimized default).
    pub fn build(cfg: MachineConfig, specs: Vec<VmSpec>) -> Self {
        assert!(cfg.pcpus > 0, "need at least one PCPU");
        assert!(
            cfg.pcpus <= MAX_PCPUS,
            "the idle/queued masks hold 128 PCPUs"
        );
        assert!(!specs.is_empty(), "need at least one VM");
        let mut vms = Vec::with_capacity(specs.len());
        let mut vcpus = Vec::new();
        let mut pcpus: Vec<Pcpu> = (0..cfg.pcpus)
            .map(|_| Pcpu {
                runq: Vec::new(),
                running: None,
            })
            .collect();
        let mut total_weight = 0u64;
        let mut next_pcpu = 0usize;
        for (vm_idx, spec) in specs.into_iter().enumerate() {
            assert!(
                spec.vcpus <= cfg.pcpus,
                "a VM cannot have more VCPUs than the machine has PCPUs"
            );
            total_weight += spec.weight as u64;
            let image = VmImage::boot(spec);
            let first = vcpus.len();
            for slot in 0..image.vcpus() {
                let assigned = next_pcpu % cfg.pcpus;
                next_pcpu += 1;
                let runq_pos = pcpus[assigned].runq.len();
                pcpus[assigned].runq.push(vcpus.len());
                vcpus.push(Vcpu {
                    state: VState::Runnable,
                    blocked_since: None,
                    cold: false,
                    runq_pos,
                    ..Vcpu::new(vm_idx, slot, assigned, Cycles::ZERO)
                });
            }
            vms.push(Vm::new(image, (first..vcpus.len()).collect(), Cycles::ZERO));
        }
        // All PCPUs start idle; the initial runqueues are all non-empty
        // or empty per the round-robin spread above.
        let idle_mask = if cfg.pcpus == 128 {
            u128::MAX
        } else {
            (1u128 << cfg.pcpus) - 1
        };
        let queued_mask = pcpus
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.runq.is_empty())
            .fold(0u128, |m, (i, _)| m | (1u128 << i));
        let mut m = Machine {
            rng: SimRng::new(cfg.seed),
            events: Q::fresh(1024),
            now: Cycles::ZERO,
            #[cfg(feature = "audit")]
            audit: AuditState {
                ledger: vec![0; vms.len()],
                ..AuditState::default()
            },
            pcpus,
            vcpus,
            vms,
            total_weight,
            events_processed: 0,
            run_wall: std::time::Duration::ZERO,
            flight: FlightRecorder::disabled(),
            idle_mask,
            queued_mask,
            scratch_actives: Vec::new(),
            scratch_fx: None,
            scratch_occupied: Vec::new(),
            adopted_streams: Vec::new(),
            derate_pct: 0,
            lat: None,
            reuse_slots: false,
            cfg,
        };
        // Initial credit: one assignment interval's worth, so the first
        // 30 ms behave like steady state.
        m.assign_credit();
        // Staggered per-PCPU ticks and the global assignment cadence.
        let slot = m.cfg.slot();
        for p in 0..m.cfg.pcpus {
            let phase = slot.mul_ratio(p as u64, m.cfg.pcpus as u64);
            m.events.schedule(phase + slot, Ev::Tick { pcpu: p as u32 });
            m.events
                .schedule(Cycles::ZERO, Ev::Reschedule { pcpu: p as u32 });
        }
        m.events.schedule(m.cfg.assign_interval(), Ev::Assign);
        m
    }

    // ------------------------------------------------------------------
    // Public accessors
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Advertise a capacity derate of `pct` percent (a degraded host
    /// under a fault plan). The knob only changes what
    /// [`Machine::effective_pcpus`] reports to admission control —
    /// engine timing is untouched, so arming it never perturbs the
    /// host's own event stream.
    pub fn set_capacity_derate(&mut self, pct: u32) {
        assert!(pct < 100, "a 100% derate is a crash, not a slowdown");
        self.derate_pct = pct;
    }

    /// PCPUs advertised to cluster admission control after the derate,
    /// never below one.
    pub fn effective_pcpus(&self) -> usize {
        (self.cfg.pcpus * (100 - self.derate_pct as usize) / 100).max(1)
    }

    /// Number of VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// VM name.
    pub fn vm_name(&self, vm: usize) -> &str {
        &self.vms[vm].name
    }

    /// Global VCPU indices belonging to a VM, in slot order.
    pub fn vm_vcpu_ids(&self, vm: usize) -> &[usize] {
        &self.vms[vm].vcpu_ids
    }

    /// The guest kernel of a VM (measurement access).
    pub fn vm_kernel(&self, vm: usize) -> &GuestKernel {
        &self.vms[vm].kernel
    }

    /// Mutable guest kernel (e.g. to gate wait traces to a window).
    pub fn vm_kernel_mut(&mut self, vm: usize) -> &mut GuestKernel {
        &mut self.vms[vm].kernel
    }

    /// VMM-side accounting for a VM.
    pub fn vm_accounting(&self, vm: usize) -> &VmAccounting {
        &self.vms[vm].acct
    }

    /// The VMM's current view of a VM's VCRD.
    pub fn vm_vcrd(&self, vm: usize) -> Vcrd {
        self.vms[vm].vcrd
    }

    /// How many of a VM's VCPUs are online right now (diagnostics).
    pub fn vm_online_count(&self, vm: usize) -> usize {
        self.vms[vm].online_count
    }

    /// Per-VCPU `(state-discriminant, credit)` snapshot for diagnostics:
    /// 0 = runnable, 1 = running, 2 = blocked.
    pub fn vcpu_snapshot(&self, vm: usize) -> Vec<(u8, i64)> {
        self.vms[vm]
            .vcpu_ids
            .iter()
            .map(|&v| {
                let d = match self.vcpus[v].state {
                    VState::Runnable => 0,
                    VState::Running => 1,
                    VState::Blocked => 2,
                };
                (d, self.vcpus[v].credit)
            })
            .collect()
    }

    /// Total events processed so far (engine benchmarking).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Engine throughput so far: events popped, wall time spent in the
    /// run drivers, and events/sec.
    pub fn perf(&self) -> PerfSnapshot {
        let secs = self.run_wall.as_secs_f64();
        PerfSnapshot {
            events: self.events_processed,
            wall: self.run_wall,
            events_per_sec: if secs > 0.0 {
                self.events_processed as f64 / secs
            } else {
                0.0
            },
        }
    }

    /// Check the machine's structural invariants, panicking on any
    /// violation. Intended for tests and debug-build stress harnesses:
    ///
    /// * a PCPU's `running` VCPU is `Running`, assigned to it, and not
    ///   queued anywhere;
    /// * every runqueue entry is `Runnable`, assigned to that PCPU, and
    ///   its `runq_pos` index points back at its exact queue position;
    /// * every `Runnable` VCPU appears in exactly its assigned PCPU's
    ///   runqueue; `Blocked` VCPUs appear in none;
    /// * the idle and queued masks agree with the PCPU table.
    pub fn check_invariants(&self) {
        let mut queued_seen = 0usize;
        for (p, pc) in self.pcpus.iter().enumerate() {
            if let Some(v) = pc.running {
                assert_eq!(self.vcpus[v].state, VState::Running, "running vcpu {v}");
                assert_eq!(self.vcpus[v].assigned, p, "running vcpu {v} assignment");
                assert_eq!(
                    self.vcpus[v].runq_pos, NOT_QUEUED,
                    "running vcpu {v} queued"
                );
                assert_eq!(self.idle_mask & (1u128 << p), 0, "pcpu {p} marked idle");
            } else {
                assert_ne!(self.idle_mask & (1u128 << p), 0, "pcpu {p} not marked idle");
            }
            assert_eq!(
                self.queued_mask & (1u128 << p) != 0,
                !pc.runq.is_empty(),
                "pcpu {p} queued-mask bit"
            );
            for (pos, &v) in pc.runq.iter().enumerate() {
                assert_eq!(self.vcpus[v].state, VState::Runnable, "queued vcpu {v}");
                assert_eq!(self.vcpus[v].assigned, p, "queued vcpu {v} assignment");
                assert_eq!(self.vcpus[v].runq_pos, pos, "vcpu {v} position index");
                queued_seen += 1;
            }
        }
        // Position-index equality above already rules out duplicates
        // within a queue; cross-queue duplicates would break the per-VCPU
        // totals here.
        let runnable = self
            .vcpus
            .iter()
            .filter(|v| v.state == VState::Runnable)
            .count();
        assert_eq!(queued_seen, runnable, "every runnable vcpu queued once");
        for (i, v) in self.vcpus.iter().enumerate() {
            if v.state != VState::Runnable {
                assert_eq!(v.runq_pos, NOT_QUEUED, "non-runnable vcpu {i} queued");
            }
        }
    }

    /// Number of auditor checkpoints executed so far (`audit` feature),
    /// so tests can assert the auditor actually ran.
    #[cfg(feature = "audit")]
    pub fn audit_checkpoints(&self) -> u64 {
        self.audit.checkpoints
    }

    /// Arm the credit-burn mutation: every subsequent charge burns
    /// `skew` extra credit without telling the shadow ledger. Exists
    /// purely so the mutation test can prove the invariant auditor
    /// catches a hot-path off-by-one; never armed in normal runs.
    #[cfg(feature = "audit")]
    pub fn audit_inject_credit_skew(&mut self, skew: i64) {
        self.audit.skew = skew;
    }

    /// Arm the BOOST-skip mutation: priority computation ignores the
    /// BOOST class from now on, so freshly woken VCPUs no longer preempt
    /// running ones. Exists purely so the differential mutation test can
    /// prove the oracle harness flags a scheduling-policy fault (the
    /// shadow credit ledger alone would stay green — no credit is
    /// miscounted); never armed in normal runs.
    #[cfg(feature = "audit")]
    pub fn audit_inject_boost_skip(&mut self) {
        self.audit.boost_skip = true;
    }

    /// Re-mark a live VM as an evacuated tombstone *without* touching
    /// anything else — the exact footprint of a migration rollback that
    /// forgot to clear the source tombstone. Exists purely so the
    /// injected-fault test can prove the cluster auditor catches that
    /// bug; never armed in normal runs.
    #[cfg(feature = "audit")]
    pub fn audit_mark_evacuated(&mut self, vm: usize) {
        self.vms[vm].evacuated = true;
    }

    /// The invariant auditor's checkpoint, run at every accounting
    /// event (per-PCPU ticks and the global credit assignment):
    ///
    /// * simulated time never moves backwards between checkpoints;
    /// * per-VM credit conservation — the actual sum of VCPU credits
    ///   equals the shadow ledger maintained in lockstep with every
    ///   assignment and burn;
    /// * the structural invariants of [`Machine::check_invariants`]
    ///   (runqueue position index, idle/queued masks, state agreement);
    /// * the event queue's own internal invariants (strict `(time, seq)`
    ///   order, lifetime counters).
    #[cfg(feature = "audit")]
    fn audit_checkpoint(&mut self) {
        assert!(
            self.now >= self.audit.last_checkpoint,
            "audit: time went backwards ({} -> {})",
            self.audit.last_checkpoint.as_u64(),
            self.now.as_u64()
        );
        self.audit.last_checkpoint = self.now;
        self.audit.checkpoints += 1;
        for vm in 0..self.vms.len() {
            let sum: i64 = self.vms[vm]
                .vcpu_ids
                .iter()
                .map(|&v| self.vcpus[v].credit)
                .sum();
            assert_eq!(
                sum,
                self.audit.ledger[vm],
                "audit: credit not conserved for vm {vm} ({}): actual {sum} vs ledger {} at t={}",
                self.vms[vm].name,
                self.audit.ledger[vm],
                self.now.as_u64()
            );
        }
        self.check_invariants();
        self.events.audit_check();
    }

    /// Start flight-recording: the hypervisor records the sched, credit
    /// and cosched categories of `mask`, and every VM's guest kernel
    /// records the lock, futex and barrier categories; each category
    /// retains at most `capacity` events per layer. The hypervisor's
    /// recorder is the standing spec: a VM that enters a slot later
    /// gets a guest recorder with the same mask and capacity.
    pub fn enable_flight(&mut self, mask: CatMask, capacity: usize) {
        self.flight = FlightRecorder::labeled(mask, capacity, "hypervisor");
        for vm in &mut self.vms {
            vm.kernel.enable_flight(mask, capacity);
        }
    }

    /// The hypervisor-layer flight recorder (per-category drop counters,
    /// retained hypervisor events).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Start scheduler-latency telemetry: wakeup→dispatch and
    /// preemption-hold histograms in the VMM, spin-episode duration
    /// histograms in every guest kernel. Off by default; the telemetry
    /// reads only existing state transitions (no events, no RNG), so
    /// enabling it never changes simulation results — only the exported
    /// metrics gain `hv.lat.*` / `vm*.guest.spin_episode_cycles`.
    pub fn enable_sched_latency(&mut self) {
        self.lat = Some(Box::default());
        for vm in &mut self.vms {
            vm.kernel.enable_spin_episodes();
        }
    }

    /// Scheduler-latency distributions, if telemetry is enabled.
    pub fn sched_latency(&self) -> Option<&SchedLatency> {
        self.lat.as_deref()
    }

    /// VCPUs currently in the Runnable state (waiting in a runqueue).
    /// Side-effect free, for barrier-time telemetry snapshots.
    pub fn runnable_vcpus(&self) -> usize {
        self.vcpus
            .iter()
            .filter(|v| v.state == VState::Runnable)
            .count()
    }

    /// Record a cluster-layer event (fault injection, migration
    /// abort/retry, evacuation) into this host's flight stream at the
    /// current simulated time. No-op unless the recorder wants the
    /// event's category, like every other record site.
    pub fn record_cluster_event(&mut self, ev: FlightEv) {
        self.record_cluster_event_at(self.now, ev);
    }

    /// Record a cluster-layer event at an explicit timestamp — e.g. a
    /// migration commit stamped at the end of its stop-and-copy pause,
    /// which lies beyond the host's current epoch-boundary `now`. The
    /// final [`merge_streams`] sort restores global time order, so a
    /// slightly out-of-order buffer here is harmless.
    pub fn record_cluster_event_at(&mut self, t: Cycles, ev: FlightEv) {
        if self.flight.wants(ev.cat()) {
            self.flight.record(t, ev);
        }
    }

    /// Drain every layer's flight-recorder buffers into one time-ordered
    /// event stream. Guest events are rebased to global VM/VCPU indices.
    /// The merge visits layers in a fixed order (hypervisor, then VMs by
    /// index) and sorts stably by timestamp, so the result is fully
    /// deterministic.
    pub fn flight_events(&mut self) -> Vec<FlightEvent> {
        let mut streams = Vec::with_capacity(1 + self.adopted_streams.len() + self.vms.len());
        streams.push(self.flight.drain_events());
        // Streams adopted from guests extracted by live migration, in
        // extraction order (already rebased at extraction time).
        streams.append(&mut self.adopted_streams);
        for (vm_idx, vm) in self.vms.iter_mut().enumerate() {
            let map: Vec<u32> = vm.vcpu_ids.iter().map(|&v| v as u32).collect();
            let mut events = vm.kernel.flight_mut().drain_events();
            for e in &mut events {
                e.ev.rebase_guest(vm_idx as u32, &map);
            }
            streams.push(events);
        }
        merge_streams(streams)
    }

    /// Per-category flight-recorder totals summed over every layer:
    /// `(category, seen, dropped)` for each category, hypervisor plus
    /// all guest kernels.
    pub fn flight_totals(&self) -> Vec<(TraceCat, u64, u64)> {
        TraceCat::ALL
            .iter()
            .map(|&cat| {
                let mut seen = self.flight.seen(cat);
                let mut dropped = self.flight.dropped(cat);
                for vm in &self.vms {
                    seen += vm.kernel.flight().seen(cat);
                    dropped += vm.kernel.flight().dropped(cat);
                }
                (cat, seen, dropped)
            })
            .collect()
    }

    /// Register this run's counters and distributions into `reg`. Names
    /// are `hv.*` for machine-wide metrics, `vm<i>.*` for per-VM ones.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.inc("hv.events_processed", self.events_processed);
        reg.gauge("hv.sim_secs", self.cfg.clock.to_secs(self.now));
        for (cat, seen, dropped) in self.flight_totals() {
            if seen > 0 {
                reg.inc(&format!("hv.flight.{}.seen", cat.name()), seen);
                reg.inc(&format!("hv.flight.{}.dropped", cat.name()), dropped);
            }
        }
        if let Some(lat) = &self.lat {
            // P² state cannot be re-observed, so the histograms are
            // installed wholesale. Only present when telemetry is on,
            // keeping default artifacts byte-identical.
            reg.set_hist(
                "hv.lat.wake_to_dispatch_cycles",
                lat.wake_to_dispatch.clone(),
            );
            reg.set_hist("hv.lat.preempt_hold_cycles", lat.preempt_hold.clone());
        }
        for (i, vm) in self.vms.iter().enumerate() {
            let p = format!("vm{i}");
            reg.inc(&format!("{p}.dispatches"), vm.acct.dispatches.iter().sum());
            reg.inc(&format!("{p}.migrations"), vm.acct.migrations);
            reg.inc(&format!("{p}.cosched_bursts"), vm.acct.cosched_bursts);
            reg.inc(&format!("{p}.vcrd_raises"), vm.acct.vcrd_raises);
            reg.gauge(
                &format!("{p}.online_rate"),
                vm.acct.online_rate(self.now.max(Cycles(1))),
            );
            let stats = vm.kernel.stats();
            reg.inc(
                &format!("{p}.guest.lock_acquisitions"),
                stats.lock_acquisitions,
            );
            reg.inc(
                &format!("{p}.guest.holder_preemptions"),
                stats.holder_preemptions,
            );
            reg.inc(
                &format!("{p}.guest.barriers_completed"),
                stats.barriers_completed,
            );
            reg.inc(&format!("{p}.guest.timer_ticks"), stats.timer_ticks);
            reg.inc(
                &format!("{p}.guest.spin_kernel_cycles"),
                stats.spin_kernel_cycles.as_u64(),
            );
            if stats.wait_cycles.count() > 0 {
                reg.set_hist(&format!("{p}.guest.wait_cycles"), stats.wait_cycles.clone());
            }
            if let Some(episodes) = stats.spin_episodes() {
                reg.set_hist(&format!("{p}.guest.spin_episode_cycles"), episodes.clone());
            }
        }
    }

    #[inline]
    fn trace_sched(&mut self, vcpu: usize, pcpu: usize, kind: SchedEventKind) {
        if self.flight.is_enabled() {
            self.flight_sched(vcpu, pcpu, kind);
        }
    }

    /// Record a `trace_sched` transition, out of line so the disabled
    /// path stays a single branch in the hot functions.
    #[cold]
    fn flight_sched(&mut self, vcpu: usize, pcpu: usize, kind: SchedEventKind) {
        let vm = self.vcpus[vcpu].vm as u32;
        let vcpu_id = vcpu as u32;
        let pcpu_id = pcpu as u32;
        let ev = match kind {
            SchedEventKind::Dispatch => FlightEv::Dispatch {
                vcpu: vcpu_id,
                vm,
                pcpu: pcpu_id,
            },
            SchedEventKind::Preempt => FlightEv::Preempt {
                vcpu: vcpu_id,
                vm,
                pcpu: pcpu_id,
            },
            SchedEventKind::Block => FlightEv::Block {
                vcpu: vcpu_id,
                vm,
                pcpu: pcpu_id,
            },
            SchedEventKind::Wake => FlightEv::Wake {
                vcpu: vcpu_id,
                vm,
                boost: self.vcpus[vcpu].boost,
            },
            SchedEventKind::Park => FlightEv::Park { vcpu: vcpu_id, vm },
            SchedEventKind::Unpark => FlightEv::Unpark { vcpu: vcpu_id, vm },
        };
        self.flight.record(self.now, ev);
    }

    /// The configured weight proportion ω(V_i) of a VM — Equation (1).
    pub fn weight_proportion(&self, vm: usize) -> f64 {
        self.vms[vm].weight as f64 / self.total_weight as f64
    }

    /// The configured VCPU online rate of a VM — Equation (2):
    /// `|P| · ω(V_i) / |C(V_i)|`.
    pub fn configured_online_rate(&self, vm: usize) -> f64 {
        self.cfg.pcpus as f64 * self.weight_proportion(vm) / self.vms[vm].vcpu_ids.len() as f64
    }

    // ------------------------------------------------------------------
    // Live migration (cluster layer)
    // ------------------------------------------------------------------

    /// Whether a VM slot is a tombstone left behind by live migration.
    pub fn vm_evacuated(&self, vm: usize) -> bool {
        self.vms[vm].evacuated
    }

    /// Incarnation counter of a VM slot: bumped each time the tombstone
    /// is reused for a different VM (see [`Machine::enable_slot_reuse`]).
    /// Holders of a `(vm, generation)` pair can compare against this to
    /// detect that their reference now names a different VM.
    pub fn vm_generation(&self, vm: usize) -> u32 {
        self.vms[vm].generation
    }

    /// Let [`Machine::inject_vm`] recycle tombstone slots of matching
    /// VCPU count instead of appending forever. Off by default (static-
    /// population experiments keep their exact slot layout); long
    /// churned soaks enable it so slot count — and with it VCPU arrays,
    /// audit ledgers and telemetry captures — stays bounded by the peak
    /// concurrent population instead of growing with total arrivals.
    pub fn enable_slot_reuse(&mut self) {
        self.reuse_slots = true;
    }

    /// VMs currently resident on this host (tombstones excluded).
    pub fn active_vm_count(&self) -> usize {
        self.vms.iter().filter(|v| !v.evacuated).count()
    }

    /// Cumulative spin/VCRD/online counters of one VM slot. Reading is
    /// side-effect free, so a telemetry snapshot never perturbs the
    /// simulation (or its digests).
    pub fn vm_counters(&self, vm: usize) -> VmCounters {
        let st = self.vms[vm].kernel.stats();
        let acct = &self.vms[vm].acct;
        VmCounters {
            spin: (st.spin_kernel_cycles + st.spin_barrier_cycles + st.spin_pipeline_cycles)
                .as_u64(),
            vcrd_high: acct.vcrd_high_cycles.as_u64(),
            online: acct.total_online().as_u64(),
        }
    }

    /// Telemetry counters for every VM slot, tombstones included (an
    /// evacuated slot reads as its stub kernel's zeros — the cluster
    /// registry never points at one). Captured by the worker advancing
    /// this host so the cluster's serial section is a pure array lookup.
    pub fn all_vm_counters(&self) -> Vec<VmCounters> {
        (0..self.vms.len()).map(|v| self.vm_counters(v)).collect()
    }

    /// Lift a VM off this host for live migration (the "stop" half of
    /// stop-and-copy). Must be called between run drivers — i.e. at a
    /// cluster epoch boundary, never from inside an event handler.
    ///
    /// Every VCPU is charged, descheduled and frozen as `Blocked`; the
    /// VM's slot stays behind as an evacuated tombstone (holding a
    /// zero-thread stub kernel) so VM/VCPU indices remain stable and
    /// stale in-flight events are dropped harmlessly. The guest kernel,
    /// accounting and identity move into the returned [`VmImage`].
    /// Credits do not travel: the destination's next credit assignment
    /// funds the VM afresh, which keeps both hosts' ledgers exact.
    pub fn extract_vm(&mut self, vm: usize) -> VmImage {
        assert!(!self.vms[vm].evacuated, "vm {vm} already extracted");
        for i in 0..self.vms[vm].vcpu_ids.len() {
            let v = self.vms[vm].vcpu_ids[i];
            match self.vcpus[v].state {
                VState::Running => {
                    self.charge(v);
                    let pcpu = self.vcpus[v].assigned;
                    let slot = self.vcpus[v].slot;
                    self.vms[vm].kernel.preempt(slot, self.now);
                    self.note_online_change(vm, -1);
                    self.pcpus[pcpu].running = None;
                    self.idle_mask |= 1u128 << pcpu;
                    self.trace_sched(v, pcpu, SchedEventKind::Block);
                }
                VState::Runnable => self.runq_remove(v),
                VState::Blocked => {}
            }
            let vc = &mut self.vcpus[v];
            vc.state = VState::Blocked;
            vc.blocked_since = Some(self.now);
            vc.blocked_accum = Cycles::ZERO;
            // Invalidate in-flight WorkDone events for this VCPU.
            vc.epoch += 1;
            vc.credit = 0;
            vc.boost = false;
            vc.parked = false;
            vc.spinning_since = None;
            vc.skew = Cycles::ZERO;
            // Stale latency stamps must not charge the migration pause
            // to the destination host's scheduler.
            vc.wake_at = None;
            vc.preempt_at = None;
            debug_assert_eq!(vc.runq_pos, NOT_QUEUED);
        }
        // Close the concurrency histogram and the VCRD-high span at the
        // departure time, then force the VMM view back to LOW (the
        // destination host starts from a LOW view; the guest's
        // Monitoring Module will re-raise if still warranted).
        self.note_online_change(vm, 0);
        if self.vms[vm].vcrd == Vcrd::High {
            let since = self.vms[vm].vcrd_high_since;
            self.vms[vm].acct.vcrd_high_cycles += self.now - since;
            self.vms[vm].vcrd = Vcrd::Low;
        }
        // Invalidate in-flight VcrdTimer events.
        self.vms[vm].vcrd_epoch += 1;
        self.vms[vm].last_cosched = None;
        self.total_weight -= self.vms[vm].weight as u64;
        #[cfg(feature = "audit")]
        {
            // Credits were zeroed above; the shadow ledger follows.
            self.audit.ledger[vm] = 0;
        }
        // The guest's flight history must survive the kernel swap:
        // rebase it to this host's global indices now and merge it into
        // flight_events() later.
        if self.vms[vm].kernel.flight().is_enabled() {
            let map: Vec<u32> = self.vms[vm].vcpu_ids.iter().map(|&v| v as u32).collect();
            let mut events = self.vms[vm].kernel.flight_mut().drain_events();
            for e in &mut events {
                e.ev.rebase_guest(vm as u32, &map);
            }
            if !events.is_empty() {
                self.adopted_streams.push(events);
            }
        }
        let vcpu_count = self.vms[vm].vcpu_ids.len();
        // The tombstone's kernel: zero threads, so every VCPU reports
        // not-runnable forever and stale wakes are dropped.
        struct EvacuatedProgram;
        impl asman_workloads::Program for EvacuatedProgram {
            fn name(&self) -> &str {
                "evacuated"
            }
            fn thread_count(&self) -> usize {
                0
            }
            fn next_op(&mut self, _tid: usize) -> asman_workloads::Op {
                asman_workloads::Op::Done
            }
        }
        let stub = GuestKernel::new(
            Box::new(EvacuatedProgram),
            vcpu_count,
            asman_guest::GuestCosts::default(),
            Box::new(asman_guest::NullObserver),
        );
        let kernel = std::mem::replace(&mut self.vms[vm].kernel, stub);
        let acct = std::mem::replace(&mut self.vms[vm].acct, VmAccounting::new(vcpu_count));
        let image = VmImage {
            name: self.vms[vm].name.clone(),
            weight: self.vms[vm].weight,
            cap: self.vms[vm].cap,
            concurrent_hint: self.vms[vm].concurrent_hint,
            finite: self.vms[vm].finite,
            kernel,
            acct,
        };
        let v = &mut self.vms[vm];
        v.evacuated = true;
        v.concurrent_hint = false;
        // A tombstone must not hold run_to_completion hostage.
        v.finite = false;
        image
    }

    /// Resume a migrated VM on this host (the "copy done" half of
    /// stop-and-copy). `resume_at` is when the guest becomes visible
    /// again — the stop-and-copy pause between extraction and
    /// `resume_at` is guest-visible dead time: runnable VCPUs only wake
    /// then, and sleep deadlines that expired during the pause fire
    /// late. Must be called between run drivers, with
    /// `resume_at >= now`. Returns the VM's index on this host.
    ///
    /// The VM gets a new slot, or, with [`Machine::enable_slot_reuse`]
    /// armed, the lowest-index tombstone of its VCPU count. A reused
    /// slot's generation is bumped first, so every wake or sleep timer
    /// still in flight for the previous occupant dies at delivery — a
    /// wake for VM A must never start VM B — and its VCPUs are reset
    /// cold, exactly as a new slot's (home PCPU by slot index, no
    /// latency stamps or spin residue); `epoch` and `vcrd_epoch` stay
    /// monotone so events from older incarnations remain dead.
    pub fn inject_vm(&mut self, image: VmImage, resume_at: Cycles) -> usize {
        let vcpu_count = image.vcpus();
        assert!(
            vcpu_count <= self.cfg.pcpus,
            "a VM cannot have more VCPUs than the destination has PCPUs"
        );
        assert!(vcpu_count > 0, "cannot inject a VM with no VCPUs");
        let vm = match self.reusable_tombstone(vcpu_count) {
            Some(vm) => {
                debug_assert!(self.vms[vm].evacuated, "reuse target must be a tombstone");
                self.vms[vm].generation = self.vms[vm].generation.wrapping_add(1);
                for &v in &self.vms[vm].vcpu_ids {
                    let vc = &self.vcpus[v];
                    debug_assert_eq!(vc.state, VState::Blocked);
                    debug_assert_eq!(vc.runq_pos, NOT_QUEUED);
                    self.vcpus[v] = Vcpu {
                        epoch: vc.epoch,
                        ..Vcpu::new(vm, vc.slot, vc.slot % self.cfg.pcpus, self.now)
                    };
                }
                self.refill_tombstone(vm, image);
                vm
            }
            None => {
                let vm = self.vms.len();
                let first = self.vcpus.len();
                for slot in 0..vcpu_count {
                    self.vcpus
                        .push(Vcpu::new(vm, slot, slot % self.cfg.pcpus, self.now));
                }
                let vcpu_ids = (first..self.vcpus.len()).collect();
                self.vms.push(Vm::new(image, vcpu_ids, self.now));
                #[cfg(feature = "audit")]
                self.audit.ledger.push(0);
                vm
            }
        };
        self.resume(vm, resume_at);
        vm
    }

    /// Lowest-index tombstone slot whose VCPU count matches, if slot
    /// reuse is on and there is one.
    fn reusable_tombstone(&self, vcpus: usize) -> Option<usize> {
        if !self.reuse_slots {
            return None;
        }
        self.vms
            .iter()
            .position(|v| v.evacuated && v.vcpu_ids.len() == vcpus)
    }

    /// Move `image` into tombstone slot `vm`. The slot keeps its VCPUs,
    /// its generation and its `vcrd_epoch` (so VCRD timers of the
    /// extracted incarnation stay dead); the rest is what a new slot
    /// gets, the VMM's view of the VCRD restarting LOW.
    fn refill_tombstone(&mut self, vm: usize, image: VmImage) {
        let old = &mut self.vms[vm];
        debug_assert_eq!(old.online_count, 0, "a tombstone cannot have online VCPUs");
        let vcpu_ids = std::mem::take(&mut old.vcpu_ids);
        *old = Vm {
            vcrd_epoch: old.vcrd_epoch,
            generation: old.generation,
            ..Vm::new(image, vcpu_ids, self.now)
        };
    }

    /// Resume the VM just put into slot `vm`; every way a VM enters a
    /// slot after construction ends here. It re-arms what a source
    /// host's event queue held in flight, under the slot's generation:
    /// a wake at `resume_at` for each runnable VCPU, then one timer per
    /// sleeping thread at its deadline or `resume_at`, whichever is
    /// later. The VM's weight rejoins the credit pool, and its credits
    /// (zeroed at extraction, or never assigned) start the shadow
    /// ledger at zero; the next assignment funds it. The machine's
    /// standing guest telemetry is armed where the kernel lacks it: a
    /// travelling kernel that already records keeps its history.
    fn resume(&mut self, vm: usize, resume_at: Cycles) {
        let resume = resume_at.max(self.now);
        let gen = self.vms[vm].generation;
        for (slot, &vcpu) in self.vms[vm].vcpu_ids.iter().enumerate() {
            if self.vms[vm].kernel.vcpu_runnable(slot) {
                self.events.schedule(
                    resume,
                    Ev::Wake {
                        vcpu: vcpu as u32,
                        gen,
                    },
                );
            }
        }
        for (thread, until) in self.vms[vm].kernel.sleeping_threads() {
            self.events.schedule(
                until.max(resume),
                Ev::SleepTimer {
                    vm: vm as u32,
                    thread: thread as u32,
                    gen,
                },
            );
        }
        self.total_weight += self.vms[vm].weight as u64;
        #[cfg(feature = "audit")]
        {
            self.audit.ledger[vm] = 0;
        }
        let kernel = &mut self.vms[vm].kernel;
        if self.flight.is_enabled() && !kernel.flight().is_enabled() {
            kernel.enable_flight(self.flight.mask(), self.flight.capacity());
        }
        if self.lat.is_some() {
            kernel.enable_spin_episodes();
        }
    }

    /// Roll back an aborted migration: re-inject `image` into the
    /// tombstone slot it was extracted from on *this* host. The inverse
    /// of [`Machine::extract_vm`], resumed like [`Machine::inject_vm`]:
    /// runnable VCPUs wake at `resume_at` (the abort penalty's end) and
    /// each sleeping thread gets a timer at its deadline or `resume_at`,
    /// whichever is later. Unlike injection the working set never left
    /// this host, so the VCPUs are not reset and no cold-dispatch
    /// penalty is charged, and the generation is not bumped. Events
    /// armed before the extraction therefore still deliver once the
    /// slot is live again: a sleep timer whose deadline falls inside
    /// the penalty fires on time, and its thread runs during the
    /// penalty rather than after it. (Bumping the generation here would
    /// hold it to the penalty's end, but changes the state fingerprint
    /// of every run with an abort.) Must be called between run drivers,
    /// like extract/inject.
    pub fn undo_extract_vm(&mut self, vm: usize, image: VmImage, resume_at: Cycles) {
        assert!(
            self.vms[vm].evacuated,
            "undo_extract_vm: vm {vm} is not a tombstone"
        );
        assert_eq!(
            image.vcpus(),
            self.vms[vm].vcpu_ids.len(),
            "undo_extract_vm: image shape does not match the tombstone"
        );
        self.refill_tombstone(vm, image);
        self.resume(vm, resume_at);
    }

    /// Boot a brand-new VM on this host at an epoch boundary. The spec
    /// is materialized into a fresh guest kernel and admitted through
    /// the [`Machine::inject_vm`] path (reusing a tombstone slot when
    /// [`Machine::enable_slot_reuse`] is armed), so a created VM behaves
    /// exactly like a migrated-in VM with zero history: VCPUs wake at
    /// `start_at`, first dispatches pay the cold-cache penalty, and the
    /// next credit assignment funds it. Must be called between run
    /// drivers. Returns the VM's slot index.
    pub fn create_vm(&mut self, spec: VmSpec, start_at: Cycles) -> usize {
        self.inject_vm(VmImage::boot(spec), start_at)
    }

    /// Permanently remove a VM from the simulation at an epoch boundary:
    /// the "departure" half of cluster churn. The VM is extracted like a
    /// migration source — VCPUs frozen, accounting closed exactly, slot
    /// left as a reusable tombstone, flight history adopted into this
    /// host's stream — but instead of travelling, the image is finalized
    /// into a [`VmRetirement`] and dropped. Must be called between run
    /// drivers.
    pub fn destroy_vm(&mut self, vm: usize) -> VmRetirement {
        let image = self.extract_vm(vm);
        let counters = image.counters();
        VmRetirement {
            vcpus: image.vcpus(),
            counters,
            useful_cycles: image.kernel.stats().useful_cycles.as_u64(),
            finished: image.kernel.is_finished(),
            name: image.name,
        }
    }

    // ------------------------------------------------------------------
    // Run drivers
    // ------------------------------------------------------------------

    /// Process events until `deadline`, a stop predicate fires, or the
    /// event queue drains. Returns `true` if the predicate fired.
    pub fn run_while<F: FnMut(&Self) -> bool>(
        &mut self,
        deadline: Cycles,
        mut keep_going: F,
    ) -> bool {
        let wall_start = std::time::Instant::now();
        let fired = loop {
            if !keep_going(self) {
                self.settle();
                break true;
            }
            match self.events.pop_before(deadline) {
                Some((t, _, ev)) => {
                    debug_assert!(t >= self.now, "time went backwards");
                    self.now = t;
                    self.events_processed += 1;
                    self.handle(ev);
                }
                None => {
                    // Pending events (if any) all lie beyond the deadline.
                    if !self.events.is_empty() {
                        self.now = deadline;
                    }
                    self.settle();
                    break false;
                }
            }
        };
        self.run_wall += wall_start.elapsed();
        fired
    }

    /// Run until `deadline` unconditionally.
    pub fn run_until(&mut self, deadline: Cycles) {
        self.run_while(deadline, |_| true);
    }

    /// Run until every finite VM's program completed (or `deadline`).
    /// Returns `true` on completion.
    pub fn run_to_completion(&mut self, deadline: Cycles) -> bool {
        self.run_while(deadline, |m| {
            m.vms.iter().any(|vm| vm.finite && !vm.kernel.is_finished())
        })
    }

    /// Charge all running VCPUs up to `now` so accounting reads are exact.
    fn settle(&mut self) {
        for p in 0..self.pcpus.len() {
            if let Some(v) = self.pcpus[p].running {
                self.charge(v);
            }
        }
        for vm in 0..self.vms.len() {
            self.note_online_change(vm, 0);
            if self.vms[vm].vcrd == Vcrd::High {
                let since = self.vms[vm].vcrd_high_since;
                self.vms[vm].acct.vcrd_high_cycles += self.now - since;
                self.vms[vm].vcrd_high_since = self.now;
            }
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Tick { pcpu } => {
                #[cfg(feature = "audit")]
                self.audit_checkpoint();
                let pcpu = pcpu as usize;
                if let Some(v) = self.pcpus[pcpu].running {
                    // BOOST lasts until the first accounting tick the
                    // VCPU survives (Xen semantics).
                    self.vcpus[v].boost = false;
                    self.charge(v);
                    // Out-of-VM VCRD inference: sustained busy-waiting is
                    // visible to the VMM via Pause-Loop-Exit hardware.
                    if self.cfg.policy == CoschedPolicy::OutOfVm {
                        if let Some(since) = self.vcpus[v].spinning_since {
                            // PLE window: only sustained spinning (about
                            // the over-threshold scale) raises the VCRD;
                            // short benign spins must not trigger
                            // coscheduling churn.
                            if self.now - since > Cycles(1 << 21) {
                                self.vcpus[v].spinning_since = Some(self.now);
                                let vm = self.vcpus[v].vm;
                                self.handle_vcrd(
                                    vm,
                                    VcrdUpdate {
                                        vcrd: Vcrd::High,
                                        expire_in: Some(self.cfg.assign_interval()),
                                    },
                                );
                            }
                        }
                    }
                    self.enforce_cap(v);
                }
                if self.cfg.policy == CoschedPolicy::Relaxed && pcpu == 0 {
                    self.relaxed_skew_pass();
                }
                self.schedule_pcpu(pcpu);
                self.post_schedule_cosched(pcpu);
                self.events
                    .schedule(self.now + self.cfg.slot(), Ev::Tick { pcpu: pcpu as u32 });
            }
            Ev::Assign => {
                #[cfg(feature = "audit")]
                self.audit_checkpoint();
                self.assign_credit();
                // Parked NWC VCPUs that regained credit are *not* tickled
                // here: as in Xen, they are picked up lazily at each
                // PCPU's next (staggered) accounting tick. This is what
                // desynchronizes sibling VCPUs' duty cycles at low online
                // rates — the phenomenon the paper measures.
                self.events
                    .schedule(self.now + self.cfg.assign_interval(), Ev::Assign);
            }
            Ev::Reschedule { pcpu } => {
                let pcpu = pcpu as usize;
                self.schedule_pcpu(pcpu);
                self.post_schedule_cosched(pcpu);
            }
            Ev::WorkDone { vcpu, epoch } => {
                let vcpu = vcpu as usize;
                if self.vcpus[vcpu].epoch != epoch || self.vcpus[vcpu].state != VState::Running {
                    return;
                }
                self.charge(vcpu);
                if self.enforce_cap(vcpu) {
                    return;
                }
                let vm = self.vcpus[vcpu].vm;
                let slot = self.vcpus[vcpu].slot;
                let mut fx = self.scratch_fx.take().unwrap_or_default();
                let work = self.vms[vm].kernel.work_complete(slot, self.now, &mut fx);
                let still_running = self.install_work(vcpu, work);
                self.apply_effects(vm, &mut fx);
                self.scratch_fx = Some(fx);
                if still_running
                    && matches!(
                        self.cfg.policy,
                        CoschedPolicy::Adaptive | CoschedPolicy::OutOfVm
                    )
                    && self.cosched_active(vm)
                {
                    // Segment boundaries are scheduling events too
                    // (Algorithm 4): ASMan keeps its gang together for
                    // the whole estimated lasting time. The static
                    // coscheduler (VEE'09) re-gangs only at scheduler
                    // events proper, or it starves everything else.
                    self.maybe_cosched(vm);
                }
            }
            Ev::SleepTimer { vm, thread, gen } => {
                let (vm, thread) = (vm as usize, thread as usize);
                if self.vms[vm].evacuated || gen != self.vms[vm].generation {
                    // The VM migrated away (or its slot has since been
                    // reused by a different VM); the stale timer must
                    // not be delivered. The destination host re-armed
                    // the sleep from the kernel's thread state at
                    // injection time.
                    return;
                }
                let mut fx = self.scratch_fx.take().unwrap_or_default();
                self.vms[vm].kernel.sleep_timer(thread, self.now, &mut fx);
                self.apply_effects(vm, &mut fx);
                self.scratch_fx = Some(fx);
            }
            Ev::VcrdTimer { vm, epoch } => {
                let vm = vm as usize;
                if self.vms[vm].vcrd_epoch != epoch || self.vms[vm].evacuated {
                    return;
                }
                if self.cfg.policy == CoschedPolicy::OutOfVm {
                    // No guest-side Monitoring Module to consult: the
                    // hypervisor lowers the VCRD itself.
                    self.handle_vcrd(
                        vm,
                        VcrdUpdate {
                            vcrd: Vcrd::Low,
                            expire_in: None,
                        },
                    );
                    return;
                }
                let mut fx = self.scratch_fx.take().unwrap_or_default();
                self.vms[vm].kernel.vcrd_timer(self.now, &mut fx);
                self.apply_effects(vm, &mut fx);
                self.scratch_fx = Some(fx);
            }
            Ev::Ipi { vcpu } => {
                let vcpu = vcpu as usize;
                if self.vcpus[vcpu].state == VState::Runnable {
                    let p = self.vcpus[vcpu].assigned;
                    self.schedule_pcpu(p);
                }
            }
            Ev::Wake { vcpu, gen } => {
                let vcpu = vcpu as usize;
                if gen != self.vms[self.vcpus[vcpu].vm].generation {
                    // Armed for a previous incarnation of a since-reused
                    // slot: a wake for VM A must never start VM B.
                    return;
                }
                self.deliver_wake(vcpu);
            }
        }
    }

    // ------------------------------------------------------------------
    // Credit accounting
    // ------------------------------------------------------------------

    /// Distribute one interval's credit: `Cred_total = |P| × Cred_unit ×
    /// K` split by weight, equally among each VM's VCPUs (Algorithm 3).
    fn assign_credit(&mut self) {
        if self.total_weight == 0 {
            // Every VM migrated away; nothing to fund.
            return;
        }
        let interval = self.cfg.assign_interval();
        let total = self.cfg.slot() * self.cfg.pcpus as u64 * self.cfg.assign_interval_slots as u64;
        for vm in 0..self.vms.len() {
            if self.vms[vm].evacuated {
                continue;
            }
            let inc = total.mul_ratio(self.vms[vm].weight as u64, self.total_weight);
            let per_vcpu = (inc / self.vms[vm].vcpu_ids.len() as u64).as_u64() as i64;
            let cap = per_vcpu.saturating_mul(self.cfg.credit_cap_intervals as i64);
            // The domain's income is divided among its VCPUs according to
            // their *active* (non-blocked) time this interval, mirroring
            // the Credit scheduler's active-set accounting. The division
            // preserves the domain total, so a VCPU that busy-waits while
            // its siblings block soaks up the whole domain's credit — the
            // positive feedback that lets sibling duty cycles drift apart
            // under asynchronous scheduling.
            // The oracle allocates a fresh buffer every interval rather
            // than reusing scratch — deliberately cache-free.
            let mut actives = if Q::NAIVE {
                Vec::new()
            } else {
                std::mem::take(&mut self.scratch_actives)
            };
            actives.clear();
            for i in 0..self.vms[vm].vcpu_ids.len() {
                let v = self.vms[vm].vcpu_ids[i];
                let mut blocked = self.vcpus[v].blocked_accum;
                if let Some(since) = self.vcpus[v].blocked_since {
                    blocked += self.now.saturating_sub(since);
                    self.vcpus[v].blocked_since = Some(self.now);
                }
                self.vcpus[v].blocked_accum = Cycles::ZERO;
                actives.push(interval.saturating_sub(blocked.min(interval)).as_u64());
            }
            let active_sum: u128 = actives.iter().map(|&a| a as u128).sum();
            for (i, &active) in actives.iter().enumerate() {
                let v = self.vms[vm].vcpu_ids[i];
                let income = (inc.as_u64() as u128 * active as u128)
                    .checked_div(active_sum)
                    .unwrap_or(0) as i64;
                let c = &mut self.vcpus[v].credit;
                #[cfg(feature = "audit")]
                let credit_before = *c;
                *c = (*c + income).min(cap);
                #[cfg(feature = "audit")]
                {
                    // Record the *clipped* delta: the cap is part of the
                    // semantics, not an error.
                    let delta = self.vcpus[v].credit - credit_before;
                    self.audit.ledger[vm] += delta;
                }
                if self.flight.wants(TraceCat::Credit) {
                    self.flight.record(
                        self.now,
                        FlightEv::CreditAssign {
                            vcpu: v as u32,
                            vm: vm as u32,
                            income,
                            credit: self.vcpus[v].credit,
                        },
                    );
                }
                if self.vms[vm].cap == CapMode::NonWorkConserving {
                    // Park/unpark decisions happen here and only here
                    // (Xen's CSCHED_FLAG_VCPU_PARKED semantics).
                    let was = self.vcpus[v].parked;
                    let park = self.vcpus[v].credit <= 0;
                    self.vcpus[v].parked = park;
                    if was != park {
                        let p = self.vcpus[v].assigned;
                        self.trace_sched(
                            v,
                            p,
                            if park {
                                SchedEventKind::Park
                            } else {
                                SchedEventKind::Unpark
                            },
                        );
                    }
                }
            }
            if !Q::NAIVE {
                self.scratch_actives = actives;
            }
        }
    }

    /// Accumulate the concurrency histogram and adjust a VM's online
    /// VCPU count by `delta` (+1 on dispatch, −1 on preempt/block).
    fn note_online_change(&mut self, vm: usize, delta: i64) {
        let v = &mut self.vms[vm];
        let el = self.now.saturating_sub(v.co_last);
        v.acct.co_online[v.online_count] += el;
        if v.vcrd == Vcrd::High {
            v.acct.co_online_high[v.online_count] += el;
        }
        v.co_last = self.now;
        v.online_count = (v.online_count as i64 + delta) as usize;
    }

    /// Park a capped VCPU that has overdrawn its credit beyond one
    /// timeslice-worth of slack (Xen's cap enforcement bound). Returns
    /// `true` if the VCPU was preempted as a result. Unparking happens
    /// only at accounting events, once credit is positive again.
    fn enforce_cap(&mut self, vcpu: usize) -> bool {
        let v = &self.vcpus[vcpu];
        if self.vms[v.vm].cap != CapMode::NonWorkConserving || v.parked {
            return false;
        }
        let slack = (self.cfg.slot().as_u64() / 4) as i64;
        if v.credit >= -slack {
            return false;
        }
        self.vcpus[vcpu].parked = true;
        self.trace_sched(vcpu, self.vcpus[vcpu].assigned, SchedEventKind::Park);
        if self.vcpus[vcpu].state == VState::Running {
            let pcpu = self.vcpus[vcpu].assigned;
            self.preempt_to_runq(vcpu);
            self.schedule_pcpu(pcpu);
            return true;
        }
        false
    }

    /// Burn credit and account online time for a running VCPU.
    fn charge(&mut self, vcpu: usize) {
        let el = self.now.saturating_sub(self.vcpus[vcpu].last_charge);
        self.vcpus[vcpu].last_charge = self.now;
        if el.is_zero() {
            return;
        }
        let vm = self.vcpus[vcpu].vm;
        #[cfg(feature = "audit")]
        {
            // The shadow ledger records the burn the semantics demand;
            // the actual burn below additionally applies the injected
            // skew (zero unless a mutation test armed it), so any
            // off-by-N in the hot path shows up as ledger drift at the
            // next checkpoint.
            self.audit.ledger[vm] -= el.as_u64() as i64;
        }
        #[cfg(feature = "audit")]
        let burn = el.as_u64() as i64 + self.audit.skew;
        #[cfg(not(feature = "audit"))]
        let burn = el.as_u64() as i64;
        self.vcpus[vcpu].credit -= burn;
        let slot = self.vcpus[vcpu].slot;
        self.vms[vm].acct.vcpu_online[slot] += el;
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// The socket a PCPU belongs to (PCPUs split evenly).
    fn socket_of(&self, pcpu: usize) -> usize {
        pcpu * self.cfg.sockets.max(1) / self.cfg.pcpus
    }

    /// Enqueue a runnable VCPU at the tail of `pcpu`'s runqueue,
    /// maintaining the position index and the queued mask.
    #[inline]
    fn runq_push(&mut self, pcpu: usize, vcpu: usize) {
        debug_assert_eq!(self.vcpus[vcpu].runq_pos, NOT_QUEUED);
        self.vcpus[vcpu].runq_pos = self.pcpus[pcpu].runq.len();
        self.pcpus[pcpu].runq.push(vcpu);
        self.queued_mask |= 1u128 << pcpu;
    }

    /// Remove a queued VCPU from its runqueue in O(1) via the position
    /// index (swap-remove, fixing the displaced tail entry's index).
    /// The oracle ignores the index and finds the entry by scanning the
    /// queue; the removal itself stays a swap-remove in both modes
    /// because the resulting queue order is observable (it feeds the
    /// candidate scans) and therefore part of the semantics under test.
    #[inline]
    fn runq_remove(&mut self, vcpu: usize) {
        let pcpu = self.vcpus[vcpu].assigned;
        let pos = if Q::NAIVE {
            self.pcpus[pcpu]
                .runq
                .iter()
                .position(|&q| q == vcpu)
                .expect("runnable vcpu missing from its runqueue")
        } else {
            self.vcpus[vcpu].runq_pos
        };
        debug_assert_eq!(self.pcpus[pcpu].runq.get(pos), Some(&vcpu));
        self.pcpus[pcpu].runq.swap_remove(pos);
        self.vcpus[vcpu].runq_pos = NOT_QUEUED;
        if let Some(&moved) = self.pcpus[pcpu].runq.get(pos) {
            self.vcpus[moved].runq_pos = pos;
        }
        if self.pcpus[pcpu].runq.is_empty() {
            self.queued_mask &= !(1u128 << pcpu);
        }
    }

    /// The lowest-numbered idle PCPU, if any (same choice the old
    /// linear scan made, found via the idle mask — or, in the oracle,
    /// by actually performing that linear scan over the PCPU table).
    #[inline]
    fn first_idle_pcpu(&self) -> Option<usize> {
        if Q::NAIVE {
            return self.pcpus.iter().position(|p| p.running.is_none());
        }
        if self.idle_mask == 0 {
            None
        } else {
            Some(self.idle_mask.trailing_zeros() as usize)
        }
    }

    /// Priority class: BOOST > UNDER (credit > 0) > OVER.
    #[inline]
    fn prio(&self, vcpu: usize) -> (u8, i64) {
        let v = &self.vcpus[vcpu];
        #[cfg(feature = "audit")]
        let boosted = v.boost && !self.audit.boost_skip;
        #[cfg(not(feature = "audit"))]
        let boosted = v.boost;
        let class = if boosted {
            2
        } else if v.credit > 0 {
            1
        } else {
            0
        };
        (class, v.credit)
    }

    /// Whether a runnable VCPU may be given a PCPU right now. Cap
    /// enforcement is coarse, exactly as in Xen: a capped VCPU is parked
    /// or unparked only at 30 ms accounting events, so it can overshoot
    /// its share by a whole accounting period and then pay it back over
    /// several periods. This quantization is what lets sibling VCPUs'
    /// duty cycles diverge by multiples of 30 ms under the plain Credit
    /// scheduler.
    #[inline]
    fn eligible(&self, vcpu: usize) -> bool {
        !self.vcpus[vcpu].parked
    }

    /// The Credit-scheduler decision for one PCPU (with the paper's
    /// Algorithm 4 IPI coscheduling layered on top via `install`'s
    /// cosched trigger).
    fn schedule_pcpu(&mut self, pcpu: usize) {
        // Charge the incumbent so priority comparison uses fresh credit.
        if let Some(cur) = self.pcpus[pcpu].running {
            self.charge(cur);
        }
        loop {
            let cur = self.pcpus[pcpu].running;
            // Best eligible local candidate. Priorities are computed once
            // per inspected VCPU and carried alongside the candidate.
            let mut cand: Option<(usize, (u8, i64))> = None;
            for &v in &self.pcpus[pcpu].runq {
                if self.eligible(v) {
                    let pv = self.prio(v);
                    if cand.is_none_or(|(_, pc)| pv > pc) {
                        cand = Some((v, pv));
                    }
                }
            }
            // Load balancing: steal if the local best is OVER-class or
            // absent (Credit-scheduler idle/priority stealing). Only
            // PCPUs with non-empty runqueues are visited, in index order
            // — the same order the full scan used. The oracle ignores
            // the cached queued mask and recomputes the set of
            // non-empty runqueues from the PCPU table.
            let local_class = cand.map(|(_, pc)| pc.0).unwrap_or(0);
            if local_class < 1 {
                let remote_mask = if Q::NAIVE {
                    self.pcpus
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| !p.runq.is_empty())
                        .fold(0u128, |m, (i, _)| m | (1u128 << i))
                        & !(1u128 << pcpu)
                } else {
                    self.queued_mask & !(1u128 << pcpu)
                };
                let mut best_remote: Option<(usize, (u8, i64))> = None;
                let mut mask = remote_mask;
                while mask != 0 {
                    let p = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    for &v in &self.pcpus[p].runq {
                        if self.eligible(v) {
                            let pv = self.prio(v);
                            if pv.0 >= 1 && best_remote.is_none_or(|(_, pb)| pv > pb) {
                                best_remote = Some((v, pv));
                            }
                        }
                    }
                }
                // A remote UNDER/BOOST candidate beats a local OVER one;
                // when the PCPU would otherwise idle, any eligible remote
                // OVER candidate is also worth stealing (work conserving).
                if best_remote.is_none() && cand.is_none() {
                    let mut mask = remote_mask;
                    while mask != 0 {
                        let p = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        for &v in &self.pcpus[p].runq {
                            if self.eligible(v) {
                                let pv = self.prio(v);
                                if best_remote.is_none_or(|(_, pb)| pv > pb) {
                                    best_remote = Some((v, pv));
                                }
                            }
                        }
                    }
                }
                if let Some((r, pr)) = best_remote {
                    if cand.is_none_or(|(_, pc)| pr > pc) {
                        cand = Some((r, pr));
                    }
                }
            }
            let Some((next, next_prio)) = cand else {
                // Nothing eligible anywhere. An ineligible incumbent (a
                // capped VCPU whose credit ran out) must still be parked.
                if let Some(c) = cur {
                    if !self.eligible(c) {
                        self.preempt_to_runq(c);
                    }
                }
                return;
            };
            let mut demoted = None;
            match cur {
                Some(c) if self.eligible(c) && self.prio(c) >= next_prio => {
                    return; // incumbent stays
                }
                Some(c) => {
                    self.preempt_to_runq(c);
                    demoted = Some(c);
                }
                None => {}
            }
            // Dequeue `next` from wherever it is homed and run it here.
            let home = self.vcpus[next].assigned;
            self.runq_remove(next);
            if home != pcpu {
                self.vms[self.vcpus[next].vm].acct.migrations += 1;
                if self.flight.wants(TraceCat::Sched) {
                    self.flight.record(
                        self.now,
                        FlightEv::Steal {
                            vcpu: next as u32,
                            vm: self.vcpus[next].vm as u32,
                            from: home as u32,
                            to: pcpu as u32,
                        },
                    );
                }
            }
            if self.dispatch(next, pcpu) {
                // Xen tickles an idler when a preemption leaves a
                // runnable VCPU behind, so the demoted VCPU migrates
                // immediately instead of stranding until the next tick.
                if let Some(c) = demoted {
                    if self.vcpus[c].state == VState::Runnable && self.eligible(c) {
                        if let Some(idle) = self.first_idle_pcpu() {
                            self.schedule_pcpu(idle);
                        }
                    }
                }
                return;
            }
            // Guest had nothing to run (raced a block): the VCPU blocked;
            // loop to find another candidate.
        }
    }

    /// Preempt a running VCPU back to its PCPU's runqueue.
    fn preempt_to_runq(&mut self, vcpu: usize) {
        debug_assert_eq!(self.vcpus[vcpu].state, VState::Running);
        self.charge(vcpu);
        let pcpu = self.vcpus[vcpu].assigned;
        debug_assert_eq!(self.pcpus[pcpu].running, Some(vcpu));
        let vm = self.vcpus[vcpu].vm;
        let slot = self.vcpus[vcpu].slot;
        self.vms[vm].kernel.preempt(slot, self.now);
        self.note_online_change(vm, -1);
        self.vcpus[vcpu].epoch += 1;
        self.vcpus[vcpu].cold = true;
        self.vcpus[vcpu].state = VState::Runnable;
        if self.lat.is_some() {
            self.vcpus[vcpu].preempt_at = Some(self.now);
        }
        self.trace_sched(vcpu, pcpu, SchedEventKind::Preempt);
        self.pcpus[pcpu].running = None;
        self.idle_mask |= 1u128 << pcpu;
        self.runq_push(pcpu, vcpu);
    }

    /// Give `vcpu` the PCPU. Returns `false` if the guest immediately
    /// blocked (nothing runnable).
    fn dispatch(&mut self, vcpu: usize, pcpu: usize) -> bool {
        debug_assert_eq!(self.vcpus[vcpu].state, VState::Runnable);
        debug_assert!(self.pcpus[pcpu].running.is_none());
        if let Some(lat) = self.lat.as_deref_mut() {
            // Stamps exist only while telemetry is on; consuming them
            // reads state and writes histograms, nothing the scheduler
            // or RNG can see.
            if let Some(w) = self.vcpus[vcpu].wake_at.take() {
                lat.wake_to_dispatch
                    .observe(self.now.saturating_sub(w).as_u64() as f64);
            }
            if let Some(p) = self.vcpus[vcpu].preempt_at.take() {
                lat.preempt_hold
                    .observe(self.now.saturating_sub(p).as_u64() as f64);
            }
        }
        let vm = self.vcpus[vcpu].vm;
        let slot = self.vcpus[vcpu].slot;
        self.vcpus[vcpu].state = VState::Running;
        self.vcpus[vcpu].assigned = pcpu;
        // BOOST persists until the VCPU runs a tick (Xen semantics);
        // it is cleared in the Tick handler, not here.
        self.vcpus[vcpu].last_charge = self.now;
        self.pcpus[pcpu].running = Some(vcpu);
        self.idle_mask &= !(1u128 << pcpu);
        self.vms[vm].acct.dispatches[slot] += 1;
        self.note_online_change(vm, 1);
        self.trace_sched(vcpu, pcpu, SchedEventKind::Dispatch);
        // Cache warm-up: involuntary preemption or PCPU migration leaves
        // the working set cold; crossing a socket also loses the LLC.
        let cold = self.vcpus[vcpu].cold || self.vcpus[vcpu].last_ran != Some(pcpu);
        let crossed_socket = self.vcpus[vcpu]
            .last_ran
            .map(|p| self.socket_of(p) != self.socket_of(pcpu))
            .unwrap_or(false);
        self.vcpus[vcpu].cold = false;
        self.vcpus[vcpu].last_ran = Some(pcpu);
        let warmup = if crossed_socket {
            self.cfg.clock.us(self.cfg.cross_socket_warmup_us)
        } else if cold {
            self.cfg.clock.us(self.cfg.warmup_us)
        } else {
            Cycles::ZERO
        };
        let mut fx = self.scratch_fx.take().unwrap_or_default();
        let work = self.vms[vm]
            .kernel
            .dispatch(slot, self.now, warmup, &mut fx);
        let still_running = self.install_work(vcpu, work);
        self.apply_effects(vm, &mut fx);
        self.scratch_fx = Some(fx);
        if still_running && self.cosched_active(vm) {
            self.maybe_cosched(vm);
        }
        still_running
    }

    /// Install the guest's declared work for a running VCPU. Returns
    /// `false` if the VCPU blocked (guest reported idle).
    fn install_work(&mut self, vcpu: usize, work: GuestWork) -> bool {
        self.vcpus[vcpu].epoch += 1;
        match work {
            GuestWork::Timed { dur, .. } => {
                self.vcpus[vcpu].spinning_since = None;
                let epoch = self.vcpus[vcpu].epoch;
                self.events.schedule(
                    self.now + dur.max(Cycles(1)),
                    Ev::WorkDone {
                        vcpu: vcpu as u32,
                        epoch,
                    },
                );
                true
            }
            GuestWork::Spin { .. } => {
                // Burns until tick/refresh; note the onset for PLE-style
                // out-of-VM spin detection.
                if self.vcpus[vcpu].spinning_since.is_none() {
                    self.vcpus[vcpu].spinning_since = Some(self.now);
                }
                true
            }
            GuestWork::Idle => {
                self.vcpus[vcpu].spinning_since = None;
                self.block_vcpu(vcpu);
                false
            }
        }
    }

    fn block_vcpu(&mut self, vcpu: usize) {
        debug_assert_eq!(self.vcpus[vcpu].state, VState::Running);
        self.charge(vcpu);
        let pcpu = self.vcpus[vcpu].assigned;
        let vm = self.vcpus[vcpu].vm;
        let slot = self.vcpus[vcpu].slot;
        self.vms[vm].kernel.preempt(slot, self.now);
        self.note_online_change(vm, -1);
        self.vcpus[vcpu].state = VState::Blocked;
        self.vcpus[vcpu].blocked_since = Some(self.now);
        self.pcpus[pcpu].running = None;
        self.idle_mask |= 1u128 << pcpu;
        self.trace_sched(vcpu, pcpu, SchedEventKind::Block);
    }

    /// Apply guest side effects: arm timers, wake VCPUs (with dispatch
    /// jitter), deliver VCRD hypercalls, and refresh online VCPUs whose
    /// work changed (lock grants, barrier releases).
    fn apply_effects(&mut self, vm: usize, fx: &mut Effects) {
        let gen = self.vms[vm].generation;
        for (thread, at) in fx.sleep_timers.drain(..) {
            self.events.schedule(
                at,
                Ev::SleepTimer {
                    vm: vm as u32,
                    thread: thread as u32,
                    gen,
                },
            );
        }
        for slot in fx.wake_vcpus.drain(..) {
            let vcpu = self.vms[vm].vcpu_ids[slot];
            let jitter = if self.cfg.wake_jitter_us > 0 {
                self.cfg
                    .clock
                    .us(self.rng.below(self.cfg.wake_jitter_us + 1))
            } else {
                Cycles::ZERO
            };
            self.events.schedule(
                self.now + jitter,
                Ev::Wake {
                    vcpu: vcpu as u32,
                    gen,
                },
            );
        }
        if let Some(update) = fx.vcrd.take() {
            self.handle_vcrd(vm, update);
        }
        for slot in fx.refresh_vcpus.drain(..) {
            let vcpu = self.vms[vm].vcpu_ids[slot];
            if self.vcpus[vcpu].state != VState::Running {
                continue;
            }
            // Refresh is rare; a fresh buffer avoids aliasing the one
            // being drained.
            let mut fx2 = Effects::default();
            let work = self.vms[vm].kernel.dispatch_work(slot, self.now, &mut fx2);
            self.install_work(vcpu, work);
            self.apply_effects(vm, &mut fx2);
        }
    }

    fn deliver_wake(&mut self, vcpu: usize) {
        if self.vcpus[vcpu].state != VState::Blocked {
            return;
        }
        let vm = self.vcpus[vcpu].vm;
        let slot = self.vcpus[vcpu].slot;
        if !self.vms[vm].kernel.vcpu_runnable(slot) {
            return; // stale wake; the thread blocked again meanwhile
        }
        // Xen boosts waking VCPUs so interactive work gets the CPU fast.
        if let Some(since) = self.vcpus[vcpu].blocked_since.take() {
            self.vcpus[vcpu].blocked_accum += self.now.saturating_sub(since);
        }
        self.vcpus[vcpu].state = VState::Runnable;
        self.vcpus[vcpu].boost = self.cfg.boost_enabled;
        if self.lat.is_some() {
            self.vcpus[vcpu].wake_at = Some(self.now);
        }
        self.trace_sched(vcpu, self.vcpus[vcpu].assigned, SchedEventKind::Wake);
        // The VCPU wakes on its home PCPU (interrupt affinity): with
        // BOOST priority it preempts whatever runs there. Idle PCPUs will
        // steal it instead if the home is running something even hotter.
        let target = self.vcpus[vcpu].assigned;
        self.runq_push(target, vcpu);
        self.schedule_pcpu(target);
        // If it did not get the home PCPU, tickle one idle PCPU to steal.
        if self.vcpus[vcpu].state == VState::Runnable {
            if let Some(idle) = self.first_idle_pcpu() {
                self.schedule_pcpu(idle);
            }
        }
    }

    // ------------------------------------------------------------------
    // Coscheduling (the paper's Algorithms 3–4 mechanics)
    // ------------------------------------------------------------------

    /// Algorithm 4 runs at *every* scheduling event: whichever VCPU ends
    /// up (or stays) running after a decision, if its VM's VCRD is HIGH,
    /// it launches the IPI burst that re-gangs any demoted siblings.
    fn post_schedule_cosched(&mut self, pcpu: usize) {
        if let Some(v) = self.pcpus[pcpu].running {
            let vm = self.vcpus[v].vm;
            if self.cosched_active(vm) {
                self.maybe_cosched(vm);
            }
        }
    }

    fn cosched_active(&self, vm: usize) -> bool {
        match self.cfg.policy {
            CoschedPolicy::None | CoschedPolicy::Relaxed => false,
            CoschedPolicy::Static => self.vms[vm].concurrent_hint,
            CoschedPolicy::Adaptive | CoschedPolicy::OutOfVm => self.vms[vm].vcrd == Vcrd::High,
        }
    }

    /// Relaxed coscheduling (VMware-style): accumulate per-VCPU skew for
    /// concurrent VMs and boost only the laggards whose skew exceeds two
    /// slots. Runs once per slot (piggybacked on PCPU 0's tick).
    fn relaxed_skew_pass(&mut self) {
        let slot = self.cfg.slot();
        let bound = slot * 2;
        let ipi_at = self.now + self.cfg.ipi_latency();
        for vm in 0..self.vms.len() {
            if !self.vms[vm].concurrent_hint {
                continue;
            }
            let any_running = self.vms[vm]
                .vcpu_ids
                .iter()
                .any(|&v| self.vcpus[v].state == VState::Running);
            for i in 0..self.vms[vm].vcpu_ids.len() {
                let v = self.vms[vm].vcpu_ids[i];
                match self.vcpus[v].state {
                    VState::Running => self.vcpus[v].skew = Cycles::ZERO,
                    VState::Runnable if any_running => {
                        self.vcpus[v].skew += slot;
                        if self.vcpus[v].skew > bound && self.eligible(v) {
                            self.vcpus[v].skew = Cycles::ZERO;
                            self.vcpus[v].boost = true;
                            self.vms[vm].acct.cosched_bursts += 1;
                            self.events.schedule(ipi_at, Ev::Ipi { vcpu: v as u32 });
                            if self.flight.wants(TraceCat::Cosched) {
                                self.flight.record(
                                    self.now,
                                    FlightEv::CoschedBurst {
                                        vm: vm as u32,
                                        boosted: 1,
                                    },
                                );
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Launch an IPI burst to bring the VM's runnable siblings online.
    /// ASMan throttles bursts to one per slot per VM (the paper's
    /// per-scheduling-event mutex); the static coscheduler re-gangs far
    /// more aggressively — it has no adaptivity to tell it when
    /// coscheduling is unnecessary, which is exactly the overhead the
    /// paper charges it with.
    fn maybe_cosched(&mut self, vm: usize) {
        // Algorithm 4 coschedules at every scheduling event of a HIGH VM
        // (a mutex merely serialises concurrent IPI launches); the only
        // throttle needed is against re-ganging within one IPI flight
        // time. The same cadence applies to the static coscheduler.
        let slot_len = self.cfg.slot() / 8;
        if let Some(last) = self.vms[vm].last_cosched {
            if self.now - last < slot_len {
                return;
            }
        }
        self.vms[vm].last_cosched = Some(self.now);
        self.vms[vm].acct.cosched_bursts += 1;
        self.relocate_siblings(vm);
        let ipi_at = self.now + self.cfg.ipi_latency();
        let mut boosted = 0u32;
        for i in 0..self.vms[vm].vcpu_ids.len() {
            let v = self.vms[vm].vcpu_ids[i];
            if self.vcpus[v].state == VState::Runnable {
                self.vcpus[v].boost = true;
                self.events.schedule(ipi_at, Ev::Ipi { vcpu: v as u32 });
                boosted += 1;
            }
        }
        if self.flight.wants(TraceCat::Cosched) {
            self.flight.record(
                self.now,
                FlightEv::CoschedBurst {
                    vm: vm as u32,
                    boosted,
                },
            );
        }
    }

    /// Algorithm 3, lines 8–15: put the VM's runnable VCPUs into
    /// runqueues of distinct PCPUs (none of which already hosts a sibling)
    /// so the IPI burst can bring them online simultaneously.
    fn relocate_siblings(&mut self, vm: usize) {
        // PCPUs already occupied by a sibling (running or queued). The
        // oracle allocates afresh per burst instead of reusing scratch.
        let mut occupied = if Q::NAIVE {
            Vec::new()
        } else {
            std::mem::take(&mut self.scratch_occupied)
        };
        occupied.clear();
        occupied.resize(self.pcpus.len(), false);
        for i in 0..self.vms[vm].vcpu_ids.len() {
            let v = self.vms[vm].vcpu_ids[i];
            match self.vcpus[v].state {
                VState::Running => occupied[self.vcpus[v].assigned] = true,
                VState::Runnable => {}
                VState::Blocked => {}
            }
        }
        for i in 0..self.vms[vm].vcpu_ids.len() {
            let v = self.vms[vm].vcpu_ids[i];
            if self.vcpus[v].state != VState::Runnable {
                continue;
            }
            let home = self.vcpus[v].assigned;
            if !occupied[home] {
                occupied[home] = true;
                continue;
            }
            // Find a PCPU with no sibling: prefer idle ones, then PCPUs
            // not currently running another VM's coscheduled gang member
            // (two gangs fighting over the same PCPUs defeats both). When
            // LLC-aware (§7 future work), also prefer the home socket so
            // the gang shares a last-level cache.
            let home_socket = self.socket_of(home);
            let target = (0..self.pcpus.len())
                .filter(|&p| !occupied[p])
                .min_by_key(|&p| {
                    let gang_conflict = self.pcpus[p]
                        .running
                        .map(|r| {
                            let rvm = self.vcpus[r].vm;
                            rvm != vm && self.cosched_active(rvm)
                        })
                        .unwrap_or(false);
                    let off_socket = self.cfg.llc_aware && self.socket_of(p) != home_socket;
                    (
                        gang_conflict as u8,
                        off_socket as u8,
                        self.pcpus[p].running.is_some() as u8,
                        self.pcpus[p].runq.len(),
                        p,
                    )
                });
            let Some(target) = target else {
                break; // more VCPUs than PCPUs without siblings
            };
            self.runq_remove(v);
            self.vcpus[v].assigned = target;
            self.runq_push(target, v);
            self.vms[vm].acct.migrations += 1;
            if self.flight.wants(TraceCat::Sched) {
                self.flight.record(
                    self.now,
                    FlightEv::Migrate {
                        vcpu: v as u32,
                        vm: vm as u32,
                        from: home as u32,
                        to: target as u32,
                    },
                );
            }
            occupied[target] = true;
        }
        if !Q::NAIVE {
            self.scratch_occupied = occupied;
        }
    }

    /// Fold the machine's complete deterministic state into a `u64`
    /// fingerprint: the clock, the pending event set, the RNG words,
    /// every PCPU runqueue, every VCPU's scheduler state, and every VM
    /// including its guest kernel and accounting. Two machines with
    /// equal fingerprints (built from the same configuration) produce
    /// identical futures, so the checkpoint subsystem compares this
    /// between a restored host and its straight-through twin. Wall time
    /// (run timers) and most telemetry (flight buffers, latency
    /// histograms) are left out: they never feed back into scheduling
    /// decisions. Three pieces of telemetry are folded all the same:
    ///
    /// * the VCPUs' `wake_at`/`preempt_at` stamps, taken only while
    ///   scheduler-latency telemetry is armed;
    /// * the lengths of the flight streams adopted from extracted
    ///   guests, non-empty only with flight recording armed across a
    ///   migration;
    /// * through [`GuestKernel::fold_state`], whether each guest counts
    ///   spin episodes (armed with scheduler latency) and how many.
    ///
    /// So a checkpoint of a run with scheduler latency armed, or with
    /// flight recording armed across a migration, validates only
    /// against a replay armed the same way. Leaving them out would
    /// change every fingerprint's bytes, so that waits for a change
    /// that re-pins the digests.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.now.as_u64());
        h.write_u64(self.events_processed);
        let rng = self.rng.state();
        for w in rng {
            h.write_u64(w);
        }
        h.write_u64(self.total_weight);
        h.write_u128(self.idle_mask);
        h.write_u128(self.queued_mask);
        h.write_u32(self.derate_pct);
        h.write_bool(self.reuse_slots);
        self.events.fold_state(&mut h, &mut fold_ev);
        h.write_usize(self.pcpus.len());
        for p in &self.pcpus {
            h.write_opt_u64(p.running.map(|v| v as u64));
            h.write_usize(p.runq.len());
            for &v in &p.runq {
                h.write_usize(v);
            }
        }
        h.write_usize(self.vcpus.len());
        for v in &self.vcpus {
            h.write_usize(v.vm);
            h.write_usize(v.slot);
            h.write_u32(match v.state {
                VState::Runnable => 0,
                VState::Running => 1,
                VState::Blocked => 2,
            });
            h.write_usize(v.assigned);
            h.write_i64(v.credit);
            h.write_bool(v.boost);
            h.write_u64(v.epoch);
            h.write_u64(v.last_charge.as_u64());
            h.write_bool(v.parked);
            h.write_bool(v.cold);
            h.write_opt_u64(v.last_ran.map(|p| p as u64));
            h.write_opt_u64(v.spinning_since.map(|c| c.as_u64()));
            h.write_u64(v.skew.as_u64());
            h.write_opt_u64(v.blocked_since.map(|c| c.as_u64()));
            h.write_u64(v.blocked_accum.as_u64());
            h.write_opt_u64(v.wake_at.map(|c| c.as_u64()));
            h.write_opt_u64(v.preempt_at.map(|c| c.as_u64()));
            h.write_usize(v.runq_pos);
        }
        h.write_usize(self.vms.len());
        for vm in &self.vms {
            h.write_str(&vm.name);
            h.write_u32(vm.weight);
            h.write_u32(match vm.cap {
                CapMode::WorkConserving => 0,
                CapMode::NonWorkConserving => 1,
            });
            h.write_bool(vm.concurrent_hint);
            h.write_bool(vm.finite);
            h.write_usize(vm.vcpu_ids.len());
            for &id in &vm.vcpu_ids {
                h.write_usize(id);
            }
            h.write_bool(vm.vcrd == Vcrd::High);
            h.write_u64(vm.vcrd_epoch);
            h.write_u64(vm.vcrd_high_since.as_u64());
            h.write_opt_u64(vm.last_cosched.map(|c| c.as_u64()));
            h.write_usize(vm.online_count);
            h.write_u64(vm.co_last.as_u64());
            h.write_bool(vm.evacuated);
            h.write_u32(vm.generation);
            let a = &vm.acct;
            h.write_usize(a.vcpu_online.len());
            for c in &a.vcpu_online {
                h.write_u64(c.as_u64());
            }
            for d in &a.dispatches {
                h.write_u64(*d);
            }
            h.write_u64(a.migrations);
            h.write_u64(a.cosched_bursts);
            h.write_u64(a.vcrd_raises);
            h.write_u64(a.vcrd_high_cycles.as_u64());
            for c in &a.co_online {
                h.write_u64(c.as_u64());
            }
            for c in &a.co_online_high {
                h.write_u64(c.as_u64());
            }
            vm.kernel.fold_state(&mut h);
        }
        h.write_usize(self.adopted_streams.len());
        for s in &self.adopted_streams {
            h.write_usize(s.len());
        }
        h.finish()
    }

    /// `do_vcrd_op` hypercall handler.
    fn handle_vcrd(&mut self, vm: usize, update: VcrdUpdate) {
        if !matches!(
            self.cfg.policy,
            CoschedPolicy::Adaptive | CoschedPolicy::OutOfVm
        ) {
            return; // baselines ignore the hypercall
        }
        self.note_online_change(vm, 0);
        let prev = self.vms[vm].vcrd;
        if prev != update.vcrd && self.flight.wants(TraceCat::Cosched) {
            self.flight.record(
                self.now,
                FlightEv::VcrdChange {
                    vm: vm as u32,
                    high: update.vcrd == Vcrd::High,
                },
            );
        }
        match (prev, update.vcrd) {
            (Vcrd::Low, Vcrd::High) => {
                self.vms[vm].vcrd = Vcrd::High;
                self.vms[vm].vcrd_high_since = self.now;
                self.vms[vm].acct.vcrd_raises += 1;
                // Allow an immediate burst even if one ran this slot.
                self.vms[vm].last_cosched = None;
                self.maybe_cosched(vm);
            }
            (Vcrd::High, Vcrd::High) => { /* extension: timer re-armed below */ }
            (Vcrd::High, Vcrd::Low) => {
                let since = self.vms[vm].vcrd_high_since;
                self.vms[vm].acct.vcrd_high_cycles += self.now - since;
                self.vms[vm].vcrd = Vcrd::Low;
            }
            (Vcrd::Low, Vcrd::Low) => {}
        }
        self.vms[vm].vcrd_epoch += 1;
        if let Some(x) = update.expire_in {
            let epoch = self.vms[vm].vcrd_epoch;
            self.events.schedule(
                self.now + x,
                Ev::VcrdTimer {
                    vm: vm as u32,
                    epoch,
                },
            );
        }
    }
}

/// Encode one pending [`Ev`] payload for the state fingerprint: a
/// distinct discriminant per variant plus every payload field, so no two
/// events can alias.
fn fold_ev(ev: &Ev, h: &mut Fnv) {
    match ev {
        Ev::Tick { pcpu } => {
            h.write_u32(0);
            h.write_u32(*pcpu);
        }
        Ev::Assign => h.write_u32(1),
        Ev::Reschedule { pcpu } => {
            h.write_u32(2);
            h.write_u32(*pcpu);
        }
        Ev::WorkDone { vcpu, epoch } => {
            h.write_u32(3);
            h.write_u32(*vcpu);
            h.write_u64(*epoch);
        }
        Ev::SleepTimer { vm, thread, gen } => {
            h.write_u32(4);
            h.write_u32(*vm);
            h.write_u32(*thread);
            h.write_u32(*gen);
        }
        Ev::VcrdTimer { vm, epoch } => {
            h.write_u32(5);
            h.write_u32(*vm);
            h.write_u64(*epoch);
        }
        Ev::Ipi { vcpu } => {
            h.write_u32(6);
            h.write_u32(*vcpu);
        }
        Ev::Wake { vcpu, gen } => {
            h.write_u32(7);
            h.write_u32(*vcpu);
            h.write_u32(*gen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use asman_sim::Clock;
    use asman_workloads::{Op, ScriptProgram};

    fn clk() -> Clock {
        Clock::default()
    }

    /// A busy-looping compute workload with `threads` threads.
    fn busy(threads: usize) -> Box<ScriptProgram> {
        Box::new(
            ScriptProgram::homogeneous("busy", threads, vec![Op::Compute(clk().ms(1))]).looping(),
        )
    }

    fn idle_vm(name: &str, vcpus: usize) -> VmSpec {
        // A program whose threads finish instantly: models Domain-0 with
        // no workload.
        VmSpec::new(
            name,
            vcpus,
            Box::new(ScriptProgram::homogeneous("idle", vcpus, vec![])),
        )
    }

    #[test]
    fn single_vm_finishes_compute() {
        let total = clk().ms(50);
        let p = ScriptProgram::homogeneous("job", 2, vec![Op::Compute(total)]);
        let mut m = Machine::new(
            MachineConfig::default(),
            vec![VmSpec::new("v1", 2, Box::new(p))],
        );
        let done = m.run_to_completion(clk().secs(5));
        assert!(done, "compute job must finish");
        let fin = m.vm_kernel(0).stats().finished_at.expect("finished");
        // With idle PCPUs and 100% share it should take ~50 ms.
        let secs = clk().to_secs(fin);
        assert!(secs < 0.2, "took {secs}s for 50ms of work");
    }

    #[test]
    fn flight_recorder_captures_rebased_cross_layer_stream() {
        use asman_sim::flight::VM_UNPATCHED;
        // Two contending VMs with a contended critical section so every
        // layer produces events.
        let cfg = MachineConfig {
            pcpus: 2,
            ..MachineConfig::default()
        };
        let section = vec![
            Op::CriticalSection {
                lock: 0,
                hold: clk().us(50),
            },
            Op::Compute(clk().us(20)),
        ];
        let prog = |n: &str| Box::new(ScriptProgram::homogeneous(n, 4, section.clone()).looping());
        let mut m = Machine::new(
            cfg,
            vec![
                VmSpec::new("a", 2, prog("a")),
                VmSpec::new("b", 2, prog("b")),
            ],
        );
        m.enable_flight(CatMask::ALL, 100_000);
        m.run_until(clk().ms(200));
        m.export_metrics(&mut MetricsRegistry::new()); // must not panic
        let events = m.flight_events();
        assert!(!events.is_empty(), "an active run must record events");
        assert!(
            events.windows(2).all(|w| w[0].t <= w[1].t),
            "merged stream must be time-ordered"
        );
        let mut cats = [false; asman_sim::flight::FLIGHT_CATS];
        for e in &events {
            cats[e.ev.cat() as usize] = true;
            // Guest events must be rebased to global ids.
            if let FlightEv::LockAcquire { vm, vcpu, .. } = e.ev {
                assert_ne!(vm, VM_UNPATCHED, "guest event not rebased");
                assert!((vcpu as usize) < 4, "vcpu {vcpu} out of range");
                // VM 0 owns global VCPUs 0–1, VM 1 owns 2–3.
                assert_eq!(vcpu / 2, vm, "vcpu {vcpu} not owned by vm {vm}");
            }
        }
        assert!(cats[TraceCat::Sched as usize], "sched events expected");
        assert!(cats[TraceCat::Credit as usize], "credit events expected");
        assert!(cats[TraceCat::Lock as usize], "lock events expected");
        // The drain empties the buffers.
        assert!(m.flight_events().is_empty());
    }

    #[test]
    fn disabled_flight_recorder_stays_empty() {
        let total = clk().ms(20);
        let p = ScriptProgram::homogeneous("job", 2, vec![Op::Compute(total)]);
        let mut m = Machine::new(
            MachineConfig::default(),
            vec![VmSpec::new("v1", 2, Box::new(p))],
        );
        m.run_to_completion(clk().secs(5));
        assert!(!m.flight().is_enabled());
        assert!(m.flight_events().is_empty());
        assert!(m.flight_totals().iter().all(|&(_, seen, _)| seen == 0));
    }

    #[test]
    fn equal_weights_share_equally_when_contended() {
        // Two 4-VCPU busy VMs on 4 PCPUs: each should get ~50%.
        let cfg = MachineConfig {
            pcpus: 4,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(
            cfg,
            vec![VmSpec::new("a", 4, busy(4)), VmSpec::new("b", 4, busy(4))],
        );
        m.run_until(clk().secs(3));
        let ra = m.vm_accounting(0).online_rate(m.now());
        let rb = m.vm_accounting(1).online_rate(m.now());
        assert!((ra - 0.5).abs() < 0.05, "vm a rate {ra}");
        assert!((rb - 0.5).abs() < 0.05, "vm b rate {rb}");
    }

    #[test]
    fn weights_drive_proportional_share() {
        // 2:1 weights, both busy, fully contended machine.
        let cfg = MachineConfig {
            pcpus: 4,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(
            cfg,
            vec![
                VmSpec::new("heavy", 4, busy(4)).weight(512),
                VmSpec::new("light", 4, busy(4)).weight(256),
            ],
        );
        m.run_until(clk().secs(3));
        let rh = m.vm_accounting(0).online_rate(m.now());
        let rl = m.vm_accounting(1).online_rate(m.now());
        let ratio = rh / rl;
        assert!((ratio - 2.0).abs() < 0.25, "share ratio {ratio} != 2");
    }

    #[test]
    fn nwc_cap_limits_online_rate_with_idle_peer() {
        // The paper's single-VM setup: V0 (8 VCPUs, idle, weight 256) +
        // V1 (4 busy VCPUs, weight 64 -> ω = 0.2, online rate 40%), NWC.
        let mut m = Machine::new(
            MachineConfig::default(),
            vec![
                idle_vm("v0", 8),
                VmSpec::new("v1", 4, busy(4))
                    .weight(64)
                    .cap(CapMode::NonWorkConserving),
            ],
        );
        assert!((m.configured_online_rate(1) - 0.4).abs() < 1e-9);
        m.run_until(clk().secs(3));
        let r = m.vm_accounting(1).online_rate(m.now());
        assert!((r - 0.4).abs() < 0.05, "measured rate {r}, expected ~0.4");
    }

    #[test]
    fn work_conserving_lets_vm_exceed_share() {
        // Same weights as above but WC: the idle peer's share is
        // available, so V1 runs ~100%.
        let mut m = Machine::new(
            MachineConfig::default(),
            vec![
                idle_vm("v0", 8),
                VmSpec::new("v1", 4, busy(4))
                    .weight(64)
                    .cap(CapMode::WorkConserving),
            ],
        );
        m.run_until(clk().secs(2));
        let r = m.vm_accounting(1).online_rate(m.now());
        assert!(r > 0.9, "WC rate {r} should be ~1.0");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed: u64| {
            let cfg = MachineConfig {
                seed,
                ..MachineConfig::default()
            };
            let mut m = Machine::new(
                cfg,
                vec![idle_vm("v0", 8), VmSpec::new("v1", 4, busy(4)).weight(64)],
            );
            m.run_until(clk().secs(1));
            (
                m.events_processed(),
                m.vm_accounting(1).total_online(),
                m.vm_accounting(1).dispatches.clone(),
            )
        };
        assert_eq!(run(1), run(1));
        // Different machine seed shifts wake jitter -> different trace.
        // (Equality is astronomically unlikely but not impossible, so we
        // only check the strong property: same-seed equality.)
    }

    #[test]
    fn blocked_vcpus_do_not_consume_cpu() {
        // Sleep-only workload: VM online time must be tiny.
        let p = ScriptProgram::homogeneous(
            "sleepy",
            2,
            vec![Op::Sleep(clk().ms(100)), Op::Compute(Cycles(1_000))],
        );
        let mut m = Machine::new(
            MachineConfig::default(),
            vec![VmSpec::new("s", 2, Box::new(p))],
        );
        assert!(m.run_to_completion(clk().secs(2)));
        let online = m.vm_accounting(0).total_online();
        assert!(
            clk().to_ms(online) < 5.0,
            "sleeping VM consumed {} ms",
            clk().to_ms(online)
        );
        // But simulated time advanced past the sleep.
        let fin = m.vm_kernel(0).stats().finished_at.unwrap();
        assert!(clk().to_ms(fin) >= 100.0);
    }

    #[test]
    fn one_vcpu_per_pcpu_invariant() {
        // Spot-check the core structural invariant under load: every
        // running VCPU is unique and matches its PCPU's record.
        let cfg = MachineConfig {
            pcpus: 4,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(
            cfg,
            vec![
                VmSpec::new("a", 4, busy(4)),
                VmSpec::new("b", 4, busy(4)),
                VmSpec::new("c", 2, busy(2)),
            ],
        );
        for step in 1..=40u64 {
            m.run_until(clk().ms(25 * step));
            let mut seen = std::collections::HashSet::new();
            for (p, pc) in m.pcpus.iter().enumerate() {
                if let Some(v) = pc.running {
                    assert!(seen.insert(v), "vcpu {v} on two pcpus");
                    assert_eq!(m.vcpus[v].assigned, p);
                    assert_eq!(m.vcpus[v].state, VState::Running);
                }
                for &v in &pc.runq {
                    assert_eq!(m.vcpus[v].state, VState::Runnable, "runq holds {v}");
                    assert!(!seen.contains(&v), "running vcpu also queued");
                }
            }
        }
    }

    #[test]
    fn static_cosched_counts_bursts_for_concurrent_vm() {
        let cfg = MachineConfig {
            policy: CoschedPolicy::Static,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(
            cfg,
            vec![
                VmSpec::new("con", 4, busy(4)).concurrent(),
                VmSpec::new("other", 4, busy(4)),
            ],
        );
        m.run_until(clk().secs(1));
        assert!(m.vm_accounting(0).cosched_bursts > 0, "CON VM coscheduled");
        assert_eq!(m.vm_accounting(1).cosched_bursts, 0, "plain VM not");
    }

    #[test]
    fn credit_policy_ignores_vcrd_hypercalls() {
        // An observer that always demands HIGH must have no effect under
        // CoschedPolicy::None.
        struct Always;
        impl asman_guest::SpinObserver for Always {
            fn on_spinlock_wait(&mut self, _now: Cycles, _wait: Cycles) -> Option<VcrdUpdate> {
                Some(VcrdUpdate {
                    vcrd: Vcrd::High,
                    expire_in: Some(Cycles(1_000_000)),
                })
            }
            fn on_vcrd_timer(&mut self, _now: Cycles) -> Option<VcrdUpdate> {
                None
            }
        }
        let p = ScriptProgram::homogeneous(
            "l",
            2,
            vec![Op::CriticalSection {
                lock: 0,
                hold: Cycles(1_000),
            }],
        )
        .looping();
        let mut m = Machine::new(
            MachineConfig::default(),
            vec![VmSpec::new("v", 2, Box::new(p)).observer(Box::new(Always))],
        );
        m.run_until(clk().ms(200));
        assert_eq!(m.vm_vcrd(0), Vcrd::Low);
        assert_eq!(m.vm_accounting(0).vcrd_raises, 0);
        assert_eq!(m.vm_accounting(0).cosched_bursts, 0);
    }

    #[test]
    fn adaptive_policy_honours_vcrd_and_expires() {
        struct Once {
            fired: bool,
        }
        impl asman_guest::SpinObserver for Once {
            fn on_spinlock_wait(&mut self, _now: Cycles, _wait: Cycles) -> Option<VcrdUpdate> {
                if self.fired {
                    None
                } else {
                    self.fired = true;
                    Some(VcrdUpdate {
                        vcrd: Vcrd::High,
                        expire_in: Some(Clock::default().ms(5)),
                    })
                }
            }
            fn on_vcrd_timer(&mut self, _now: Cycles) -> Option<VcrdUpdate> {
                Some(VcrdUpdate {
                    vcrd: Vcrd::Low,
                    expire_in: None,
                })
            }
        }
        let p = ScriptProgram::homogeneous(
            "l",
            2,
            vec![
                Op::CriticalSection {
                    lock: 0,
                    hold: Cycles(1_000),
                },
                Op::Compute(clk().ms(1)),
            ],
        )
        .looping();
        let cfg = MachineConfig {
            policy: CoschedPolicy::Adaptive,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(
            cfg,
            vec![VmSpec::new("v", 2, Box::new(p)).observer(Box::new(Once { fired: false }))],
        );
        m.run_until(clk().ms(500));
        assert_eq!(m.vm_accounting(0).vcrd_raises, 1);
        assert_eq!(m.vm_vcrd(0), Vcrd::Low, "expired back to LOW");
        let high_ms = clk().to_ms(m.vm_accounting(0).vcrd_high_cycles);
        assert!(
            (4.0..=6.5).contains(&high_ms),
            "VCRD HIGH for {high_ms} ms, expected ~5"
        );
    }

    #[test]
    fn more_vcpus_than_pcpus_rejected() {
        let r = std::panic::catch_unwind(|| {
            Machine::new(
                MachineConfig {
                    pcpus: 2,
                    ..MachineConfig::default()
                },
                vec![VmSpec::new("v", 4, busy(4))],
            )
        });
        assert!(r.is_err());
    }

    #[test]
    fn live_migration_moves_a_vm_and_preserves_guest_progress() {
        // A VM whose threads sleep until t=30 ms, then compute 40 ms.
        // Migrate it at t=10 ms (mid-sleep) with a 5 ms pause: the sleep
        // must be re-armed on the destination and the program finish.
        let prog = ScriptProgram::homogeneous(
            "job",
            2,
            vec![Op::Sleep(clk().ms(30)), Op::Compute(clk().ms(40))],
        );
        let mut src = Machine::new(
            MachineConfig::default(),
            vec![idle_vm("v0", 2), VmSpec::new("mig", 2, Box::new(prog))],
        );
        src.run_until(clk().ms(10));
        let image = src.extract_vm(1);
        assert_eq!(image.vcpus(), 2);
        assert!(src.vm_evacuated(1));
        assert_eq!(src.active_vm_count(), 1);
        src.check_invariants();
        let mut dst = Machine::new(MachineConfig::default(), vec![idle_vm("d0", 2)]);
        dst.run_until(clk().ms(10));
        let vm = dst.inject_vm(image, dst.now() + clk().ms(5));
        dst.check_invariants();
        // The source runs on past the stale sleep deadline: the
        // tombstone guard must drop the old SleepTimer events.
        src.run_until(clk().ms(100));
        src.check_invariants();
        assert!(
            dst.run_to_completion(clk().secs(5)),
            "migrated VM must finish"
        );
        let fin = dst.vm_kernel(vm).stats().finished_at.expect("finished");
        assert!(
            clk().to_ms(fin) >= 30.0,
            "finished at {} ms, before its sleep deadline",
            clk().to_ms(fin)
        );
        dst.check_invariants();
    }

    #[test]
    fn live_migration_midwork_carries_accounting_and_pause_is_dead_time() {
        // Migrate a busy VM mid-compute: accounting must travel, and the
        // VM must come back online only after the stop-and-copy pause.
        let cfg = MachineConfig {
            pcpus: 2,
            ..MachineConfig::default()
        };
        let mut src = Machine::new(cfg, vec![idle_vm("v0", 1), VmSpec::new("busy", 2, busy(2))]);
        src.run_until(clk().ms(50));
        let online_before = src.vm_accounting(1).total_online();
        assert!(!online_before.is_zero());
        let image = src.extract_vm(1);
        assert_eq!(image.acct.total_online(), online_before);
        let mut dst = Machine::new(cfg, vec![idle_vm("d0", 1)]);
        dst.run_until(clk().ms(50));
        let pause = clk().ms(20);
        let resume_at = dst.now() + pause;
        let vm = dst.inject_vm(image, resume_at);
        dst.run_until(clk().ms(80));
        dst.check_invariants();
        let acct = dst.vm_accounting(vm);
        assert!(
            acct.total_online() > online_before,
            "migrated VM never ran on the destination"
        );
        // No online time may accrue during the pause: everything beyond
        // the carried total fits in the post-resume window (2 VCPUs can
        // each be online for the full window).
        let gained = acct.total_online() - online_before;
        assert!(
            gained <= (clk().ms(80) - resume_at) * 2,
            "VM was online during the stop-and-copy pause"
        );
    }

    #[test]
    fn extracting_twice_panics() {
        let mut m = Machine::new(
            MachineConfig::default(),
            vec![idle_vm("v0", 1), VmSpec::new("b", 2, busy(2))],
        );
        m.run_until(clk().ms(10));
        let _ = m.extract_vm(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.extract_vm(1)));
        assert!(r.is_err(), "double extraction must panic");
    }

    /// Under the audit feature, the shadow ledger must stay exact across
    /// an extract/inject cycle on both hosts.
    #[cfg(feature = "audit")]
    #[test]
    fn auditor_stays_green_across_migration() {
        let cfg = MachineConfig {
            pcpus: 2,
            ..MachineConfig::default()
        };
        let mut src = Machine::new(cfg, vec![idle_vm("v0", 1), VmSpec::new("busy", 2, busy(2))]);
        src.run_until(clk().ms(40));
        let image = src.extract_vm(1);
        let mut dst = Machine::new(cfg, vec![idle_vm("d0", 1)]);
        dst.run_until(clk().ms(40));
        dst.inject_vm(image, dst.now() + clk().ms(10));
        src.run_until(clk().ms(200));
        dst.run_until(clk().ms(200));
        assert!(src.audit_checkpoints() > 10);
        assert!(dst.audit_checkpoints() > 10);
    }

    /// A lock-heavy overcommitted two-VM machine over the given queue —
    /// enough churn to exercise stealing, preemption and credit flow.
    fn contended<Q: asman_sim::SimQueue<Ev>>() -> Machine<Q> {
        let section = vec![
            Op::CriticalSection {
                lock: 0,
                hold: clk().us(150),
            },
            Op::Compute(clk().us(80)),
        ];
        let prog = |n: &str| Box::new(ScriptProgram::homogeneous(n, 2, section.clone()).looping());
        Machine::build(
            MachineConfig {
                pcpus: 2,
                ..MachineConfig::default()
            },
            vec![
                VmSpec::new("a", 2, prog("a")),
                VmSpec::new("b", 2, prog("b")),
            ],
        )
    }

    /// The oracle machine must pop the exact event sequence the
    /// optimized machine pops. Both run with full tracing, so the diff
    /// covers the scheduler's externally visible behaviour, not just
    /// its final counters.
    #[test]
    fn oracle_machine_matches_optimized_event_stream() {
        let mut fast: Machine = contended();
        let mut slow: OracleMachine = contended();
        fast.enable_flight(CatMask::ALL, 200_000);
        slow.enable_flight(CatMask::ALL, 200_000);
        fast.run_until(clk().ms(50));
        slow.run_until(clk().ms(50));
        assert_eq!(fast.events_processed(), slow.events_processed());
        assert_eq!(fast.now(), slow.now());
        let fe = fast.flight_events();
        let se = slow.flight_events();
        assert_eq!(fe.len(), se.len(), "event stream lengths diverge");
        for (i, (a, b)) in fe.iter().zip(&se).enumerate() {
            assert_eq!((a.t, &a.ev), (b.t, &b.ev), "first divergence at event {i}");
        }
        fast.check_invariants();
        slow.check_invariants();
    }

    /// A clean run under the auditor: checkpoints fire and none trips.
    #[cfg(feature = "audit")]
    #[test]
    fn auditor_passes_on_clean_run() {
        let mut m: Machine = contended();
        m.run_until(clk().ms(100));
        assert!(
            m.audit_checkpoints() > 10,
            "auditor never ran: {} checkpoints",
            m.audit_checkpoints()
        );
    }

    /// The mutation test the tentpole demands: inject a one-cycle
    /// off-by-one into every credit burn and assert the auditor
    /// *detects* it (a green run here would mean the auditor has no
    /// teeth). `panic = "abort"` applies only to release binaries, not
    /// the test profile, so `catch_unwind` observes the panic.
    #[cfg(feature = "audit")]
    #[test]
    fn auditor_catches_injected_credit_burn_off_by_one() {
        let mut m: Machine = contended();
        m.audit_inject_credit_skew(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run_until(clk().ms(100));
        }));
        let payload = r.expect_err("auditor failed to detect the injected skew");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("credit not conserved"),
            "unexpected panic message: {msg}"
        );
    }
}
