//! The flight recorder: a structured, cross-layer scheduler trace.
//!
//! The paper's entire argument rests on *observing* an interleaving
//! phenomenon — lock-holder preemption and futex-wait inflation under
//! asynchronous VCPU scheduling — which end-of-run aggregates cannot
//! show. [`FlightRecorder`] captures a typed event stream from every
//! layer of the stack (hypervisor scheduling transitions, credit
//! accounting, coscheduling bursts; guest spinlock, futex and barrier
//! activity) into per-category bounded buffers with drop accounting.
//!
//! Design constraints:
//!
//! * **Zero overhead when disabled.** Every record site first tests one
//!   word of per-category enable bits ([`FlightRecorder::wants`], an
//!   inlined load + mask); with the recorder disabled no event payload is
//!   even constructed.
//! * **Bounded.** Each category keeps at most `capacity` events; overflow
//!   is counted per category ([`FlightRecorder::dropped`]) and warned
//!   about once, never silent.
//! * **Deterministic.** Events carry simulated [`Cycles`] timestamps and
//!   are recorded in simulation order; merging streams uses a stable sort
//!   so any export is bit-identical across runs and `--jobs` values.

use serde::{Deserialize, Serialize};

use crate::time::Cycles;
use crate::trace::overflow_warning;

/// Event categories, each independently enableable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum TraceCat {
    /// VCPU↔PCPU transitions: dispatch, preempt, block, wake, steal,
    /// migrate.
    Sched = 0,
    /// Credit-scheduler accounting: per-interval income, park/unpark.
    Credit = 1,
    /// Coscheduling machinery: VCRD transitions, IPI bursts.
    Cosched = 2,
    /// Guest kernel spinlocks: contend, acquire (with waiting time),
    /// release.
    Lock = 3,
    /// Guest futex traffic: blocking waits and wake-ups.
    Futex = 4,
    /// Guest barrier phases: arrivals and releases.
    Barrier = 5,
    /// Cluster-layer fault injection and recovery: host crashes and
    /// derates, migration aborts/retries, evacuations.
    Fault = 6,
}

/// Number of categories (buffer array size).
pub const FLIGHT_CATS: usize = 7;

impl TraceCat {
    /// All categories in declaration order.
    pub const ALL: [TraceCat; FLIGHT_CATS] = [
        TraceCat::Sched,
        TraceCat::Credit,
        TraceCat::Cosched,
        TraceCat::Lock,
        TraceCat::Futex,
        TraceCat::Barrier,
        TraceCat::Fault,
    ];

    /// Short lower-case name (used by `--trace-cats` and the summary).
    pub fn name(self) -> &'static str {
        match self {
            TraceCat::Sched => "sched",
            TraceCat::Credit => "credit",
            TraceCat::Cosched => "cosched",
            TraceCat::Lock => "lock",
            TraceCat::Futex => "futex",
            TraceCat::Barrier => "barrier",
            TraceCat::Fault => "fault",
        }
    }

    /// Parse a category name as produced by [`TraceCat::name`].
    pub fn from_name(s: &str) -> Option<TraceCat> {
        TraceCat::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// A set of enabled trace categories (one bit per [`TraceCat`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CatMask(pub u32);

impl CatMask {
    /// No categories.
    pub const NONE: CatMask = CatMask(0);
    /// Every category.
    pub const ALL: CatMask = CatMask((1 << FLIGHT_CATS as u32) - 1);

    /// Mask with a single category.
    pub fn only(cat: TraceCat) -> CatMask {
        CatMask(1 << cat as u32)
    }

    /// This mask with `cat` added.
    #[must_use]
    pub fn with(self, cat: TraceCat) -> CatMask {
        CatMask(self.0 | (1 << cat as u32))
    }

    /// Whether `cat` is enabled.
    #[inline]
    pub fn contains(self, cat: TraceCat) -> bool {
        self.0 & (1 << cat as u32) != 0
    }

    /// Whether no category is enabled.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Parse a comma-separated category list (`"sched,lock,futex"`).
    ///
    /// Strict: returns `None` for an unknown name, an empty name (so
    /// `""`, `"sched,"` and `"a,,b"` are all rejected), or a repeated
    /// category — each of those almost always signals a typo'd
    /// invocation, and silently collapsing it would mask the mistake.
    pub fn parse(list: &str) -> Option<CatMask> {
        let mut m = CatMask::NONE;
        for part in list.split(',').map(str::trim) {
            let cat = TraceCat::from_name(part)?;
            if m.contains(cat) {
                return None;
            }
            m = m.with(cat);
        }
        Some(m)
    }
}

/// `vm` placeholder in guest-recorded events before the hypervisor
/// rebases them (the guest kernel does not know its VM index).
pub const VM_UNPATCHED: u32 = u32::MAX;

/// A typed flight-recorder event. Entity indices are `u32` to keep the
/// payload compact; guest-layer variants are recorded with VM-local VCPU
/// slots and [`VM_UNPATCHED`], then rebased to global indices by
/// [`FlightEv::rebase_guest`] when the hypervisor merges the streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlightEv {
    // -------------------------------------------------- hypervisor layer
    /// VCPU given a PCPU (context switch in).
    Dispatch {
        /// Global VCPU index.
        vcpu: u32,
        /// Owning VM.
        vm: u32,
        /// Target PCPU.
        pcpu: u32,
    },
    /// VCPU involuntarily preempted back to a runqueue.
    Preempt {
        /// Global VCPU index.
        vcpu: u32,
        /// Owning VM.
        vm: u32,
        /// PCPU it ran on.
        pcpu: u32,
    },
    /// VCPU blocked (guest idle).
    Block {
        /// Global VCPU index.
        vcpu: u32,
        /// Owning VM.
        vm: u32,
        /// PCPU it ran on.
        pcpu: u32,
    },
    /// VCPU woken (runnable again); `boost` is the Xen BOOST promotion.
    Wake {
        /// Global VCPU index.
        vcpu: u32,
        /// Owning VM.
        vm: u32,
        /// Whether the wake granted BOOST priority.
        boost: bool,
    },
    /// VCPU pulled from a remote runqueue by an idle/priority steal.
    Steal {
        /// Global VCPU index.
        vcpu: u32,
        /// Owning VM.
        vm: u32,
        /// Runqueue it was stolen from.
        from: u32,
        /// PCPU that now runs it.
        to: u32,
    },
    /// VCPU relocated between runqueues by gang placement (Algorithm 3).
    Migrate {
        /// Global VCPU index.
        vcpu: u32,
        /// Owning VM.
        vm: u32,
        /// Source PCPU.
        from: u32,
        /// Destination PCPU.
        to: u32,
    },
    /// One VCPU's share of a 30 ms credit assignment.
    CreditAssign {
        /// Global VCPU index.
        vcpu: u32,
        /// Owning VM.
        vm: u32,
        /// Credit income this interval.
        income: i64,
        /// Credit balance after the assignment.
        credit: i64,
    },
    /// VCPU parked by cap enforcement.
    Park {
        /// Global VCPU index.
        vcpu: u32,
        /// Owning VM.
        vm: u32,
    },
    /// VCPU unparked at an accounting event.
    Unpark {
        /// Global VCPU index.
        vcpu: u32,
        /// Owning VM.
        vm: u32,
    },
    /// Coscheduling IPI burst launched for a VM (Algorithm 4).
    CoschedBurst {
        /// The VM being ganged.
        vm: u32,
        /// Runnable siblings boosted by the burst.
        boosted: u32,
    },
    /// The VMM's view of a VM's VCRD changed.
    VcrdChange {
        /// The VM.
        vm: u32,
        /// New level: `true` = HIGH.
        high: bool,
    },
    // ------------------------------------------------------- guest layer
    /// A thread started busy-waiting on a held kernel spinlock.
    LockContend {
        /// Owning VM ([`VM_UNPATCHED`] until rebased).
        vm: u32,
        /// VCPU (local slot until rebased, then global).
        vcpu: u32,
        /// VM-local thread index.
        thread: u32,
        /// VM-local lock id.
        lock: u32,
    },
    /// A thread acquired a kernel spinlock after `wait` cycles.
    LockAcquire {
        /// Owning VM ([`VM_UNPATCHED`] until rebased).
        vm: u32,
        /// VCPU (local slot until rebased, then global).
        vcpu: u32,
        /// VM-local thread index.
        thread: u32,
        /// VM-local lock id.
        lock: u32,
        /// Waiting time in cycles (uncontended cost if it barged).
        wait: u64,
    },
    /// A thread released the kernel spinlock it held.
    LockRelease {
        /// Owning VM ([`VM_UNPATCHED`] until rebased).
        vm: u32,
        /// VCPU (local slot until rebased, then global).
        vcpu: u32,
        /// VM-local thread index.
        thread: u32,
        /// VM-local lock id.
        lock: u32,
    },
    /// A thread enqueued on a futex and went to sleep.
    FutexBlock {
        /// Owning VM ([`VM_UNPATCHED`] until rebased).
        vm: u32,
        /// VCPU (local slot until rebased, then global).
        vcpu: u32,
        /// VM-local thread index.
        thread: u32,
        /// Futex identifier (barrier id, or `PEER_FUTEX_BIT | producer`).
        futex: u32,
    },
    /// A waker released threads blocked on a futex.
    FutexWake {
        /// Owning VM ([`VM_UNPATCHED`] until rebased).
        vm: u32,
        /// VCPU (local slot until rebased, then global).
        vcpu: u32,
        /// VM-local index of the waking thread.
        thread: u32,
        /// Futex identifier (barrier id, or `PEER_FUTEX_BIT | producer`).
        futex: u32,
        /// Number of threads woken.
        woken: u32,
    },
    /// A thread arrived at a barrier.
    BarrierArrive {
        /// Owning VM ([`VM_UNPATCHED`] until rebased).
        vm: u32,
        /// VCPU (local slot until rebased, then global).
        vcpu: u32,
        /// VM-local thread index.
        thread: u32,
        /// Barrier id.
        barrier: u32,
        /// Arrival count including this thread.
        arrived: u32,
    },
    /// The last arriver released a barrier generation.
    BarrierRelease {
        /// Owning VM ([`VM_UNPATCHED`] until rebased).
        vm: u32,
        /// VCPU (local slot until rebased, then global).
        vcpu: u32,
        /// VM-local thread index of the releaser.
        thread: u32,
        /// Barrier id.
        barrier: u32,
        /// Waiters released (blocked + spinning).
        woken: u32,
    },
    // ----------------------------------------------------- cluster layer
    // Recorded by the cluster driver into the affected host's stream;
    // `vm` here is the *cluster-wide* VM id, not a host-local index.
    /// A fault-plan host crash fired at this epoch boundary.
    HostCrash {
        /// The crashed host.
        host: u32,
    },
    /// A fault-plan capacity derate was applied to a host.
    HostDerate {
        /// The degraded host.
        host: u32,
        /// Advertised capacity reduction in percent.
        pct: u32,
    },
    /// A live migration attempt began: the causal span id is minted
    /// here (attempt 1) or inherited from the chain (retries), and
    /// threads through every copy/commit/abort/retry event so
    /// exporters can reconstruct the prepare→…→commit|abort lifetime.
    MigratePrepare {
        /// Causal span id shared by the whole migration chain.
        span: u32,
        /// Cluster-wide VM id.
        vm: u32,
        /// Source host.
        from: u32,
        /// Destination host.
        to: u32,
        /// Attempt number (1-based; >1 for retries).
        attempt: u32,
    },
    /// The stop-and-copy page transfer of one migration attempt.
    MigrateCopy {
        /// Causal span id shared by the whole migration chain.
        span: u32,
        /// Cluster-wide VM id.
        vm: u32,
        /// Dirty pages copied by this attempt.
        pages: u64,
    },
    /// A live migration committed: the VM restarts on the destination.
    MigrateCommit {
        /// Causal span id shared by the whole migration chain.
        span: u32,
        /// Cluster-wide VM id.
        vm: u32,
        /// Destination host.
        to: u32,
        /// Guest-visible pause injected by the final stop-and-copy,
        /// in cycles.
        pause: u64,
    },
    /// A live migration aborted mid-copy and rolled back to the source.
    MigrateAbort {
        /// Causal span id shared by the whole migration chain.
        span: u32,
        /// Cluster-wide VM id.
        vm: u32,
        /// Attempt number (1-based) that aborted.
        attempt: u32,
    },
    /// An aborted migration was re-attempted after backoff.
    MigrateRetry {
        /// Causal span id shared by the whole migration chain.
        span: u32,
        /// Cluster-wide VM id.
        vm: u32,
        /// Attempt number (1-based) of the retry.
        attempt: u32,
    },
    /// A VM was evacuated off a crashed host and re-placed.
    Evacuate {
        /// Cluster-wide VM id.
        vm: u32,
        /// The crashed source host.
        from: u32,
        /// The host that took the VM in.
        to: u32,
    },
}

/// Tag bit distinguishing pipeline (peer-flag) futexes from barrier
/// futexes in [`FlightEv::FutexBlock`]/[`FlightEv::FutexWake`].
pub const PEER_FUTEX_BIT: u32 = 1 << 31;

impl FlightEv {
    /// The category this event belongs to.
    #[inline]
    pub fn cat(&self) -> TraceCat {
        match self {
            FlightEv::Dispatch { .. }
            | FlightEv::Preempt { .. }
            | FlightEv::Block { .. }
            | FlightEv::Wake { .. }
            | FlightEv::Steal { .. }
            | FlightEv::Migrate { .. } => TraceCat::Sched,
            FlightEv::CreditAssign { .. } | FlightEv::Park { .. } | FlightEv::Unpark { .. } => {
                TraceCat::Credit
            }
            FlightEv::CoschedBurst { .. } | FlightEv::VcrdChange { .. } => TraceCat::Cosched,
            FlightEv::LockContend { .. }
            | FlightEv::LockAcquire { .. }
            | FlightEv::LockRelease { .. } => TraceCat::Lock,
            FlightEv::FutexBlock { .. } | FlightEv::FutexWake { .. } => TraceCat::Futex,
            FlightEv::BarrierArrive { .. } | FlightEv::BarrierRelease { .. } => TraceCat::Barrier,
            FlightEv::HostCrash { .. }
            | FlightEv::HostDerate { .. }
            | FlightEv::MigratePrepare { .. }
            | FlightEv::MigrateCopy { .. }
            | FlightEv::MigrateCommit { .. }
            | FlightEv::MigrateAbort { .. }
            | FlightEv::MigrateRetry { .. }
            | FlightEv::Evacuate { .. } => TraceCat::Fault,
        }
    }

    /// Short event-kind name (stable identifier for exporters).
    pub fn kind(&self) -> &'static str {
        match self {
            FlightEv::Dispatch { .. } => "dispatch",
            FlightEv::Preempt { .. } => "preempt",
            FlightEv::Block { .. } => "block",
            FlightEv::Wake { .. } => "wake",
            FlightEv::Steal { .. } => "steal",
            FlightEv::Migrate { .. } => "migrate",
            FlightEv::CreditAssign { .. } => "credit_assign",
            FlightEv::Park { .. } => "park",
            FlightEv::Unpark { .. } => "unpark",
            FlightEv::CoschedBurst { .. } => "cosched_burst",
            FlightEv::VcrdChange { .. } => "vcrd_change",
            FlightEv::LockContend { .. } => "lock_contend",
            FlightEv::LockAcquire { .. } => "lock_acquire",
            FlightEv::LockRelease { .. } => "lock_release",
            FlightEv::FutexBlock { .. } => "futex_block",
            FlightEv::FutexWake { .. } => "futex_wake",
            FlightEv::BarrierArrive { .. } => "barrier_arrive",
            FlightEv::BarrierRelease { .. } => "barrier_release",
            FlightEv::HostCrash { .. } => "host_crash",
            FlightEv::HostDerate { .. } => "host_derate",
            FlightEv::MigratePrepare { .. } => "migrate_prepare",
            FlightEv::MigrateCopy { .. } => "migrate_copy",
            FlightEv::MigrateCommit { .. } => "migrate_commit",
            FlightEv::MigrateAbort { .. } => "migrate_abort",
            FlightEv::MigrateRetry { .. } => "migrate_retry",
            FlightEv::Evacuate { .. } => "evacuate",
        }
    }

    /// Rewrite a guest-layer event recorded with VM-local indices to
    /// global ones: `vm` becomes `vm_idx` and the VCPU slot is mapped
    /// through `vcpu_map` (slot → global VCPU index). Hypervisor-layer
    /// events are left untouched.
    pub fn rebase_guest(&mut self, vm_idx: u32, vcpu_map: &[u32]) {
        match self {
            FlightEv::LockContend { vm, vcpu, .. }
            | FlightEv::LockAcquire { vm, vcpu, .. }
            | FlightEv::LockRelease { vm, vcpu, .. }
            | FlightEv::FutexBlock { vm, vcpu, .. }
            | FlightEv::FutexWake { vm, vcpu, .. }
            | FlightEv::BarrierArrive { vm, vcpu, .. }
            | FlightEv::BarrierRelease { vm, vcpu, .. } => {
                *vm = vm_idx;
                *vcpu = vcpu_map[*vcpu as usize];
            }
            _ => {}
        }
    }
}

/// A timestamped flight-recorder event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Simulated time of the event.
    pub t: Cycles,
    /// The typed payload.
    pub ev: FlightEv,
}

#[derive(Clone, Debug, Default)]
struct CatBuf {
    events: Vec<FlightEvent>,
    seen: u64,
    /// Events rejected because the buffer was at capacity. Counted
    /// explicitly: deriving drops as `seen - events.len()` silently
    /// re-classifies every *drained* event as dropped, which made drop
    /// counts inflate monotonically across live migrations (each
    /// extraction drains the guest's stream).
    dropped: u64,
    warned: bool,
}

/// Per-category bounded event recorder. See the module docs.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    /// Enabled-category bits (the single word every record site tests),
    /// plus the [`ARMED`] marker bit.
    mask: u32,
    capacity: usize,
    bufs: Vec<CatBuf>,
    /// Label used in the overflow warning (which layer overflowed).
    label: &'static str,
}

/// High bit of `FlightRecorder::mask` marking a recorder as armed.
/// An armed recorder with zero category bits passes the cheap
/// [`FlightRecorder::is_enabled`] guard but fails every per-category
/// [`FlightRecorder::wants`] test — the configuration that measures the
/// cost of the tracing machinery itself without capturing anything.
/// Category bits occupy the low [`FLIGHT_CATS`] bits, so the marker can
/// never collide with one.
const ARMED: u32 = 1 << 31;

impl FlightRecorder {
    /// A disabled recorder: records nothing, costs one load + branch per
    /// (guarded) record site.
    pub fn disabled() -> Self {
        FlightRecorder {
            mask: 0,
            capacity: 0,
            bufs: Vec::new(),
            label: "flight",
        }
    }

    /// A recorder capturing the categories in `mask`, at most
    /// `capacity` events per category. The recorder is *armed* even if
    /// `mask` is empty: record sites engage and reject every event,
    /// which is what distinguishes it from [`FlightRecorder::disabled`].
    pub fn new(mask: CatMask, capacity: usize) -> Self {
        FlightRecorder {
            mask: mask.0 | ARMED,
            capacity,
            bufs: vec![CatBuf::default(); FLIGHT_CATS],
            label: "flight",
        }
    }

    /// A recorder labelled for overflow warnings (e.g. `"guest"`).
    pub fn labeled(mask: CatMask, capacity: usize, label: &'static str) -> Self {
        FlightRecorder {
            label,
            ..FlightRecorder::new(mask, capacity)
        }
    }

    /// Whether the recorder is armed (cheapest possible guard). True
    /// even when every category is masked off — per-category rejection
    /// happens in [`FlightRecorder::wants`].
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.mask != 0
    }

    /// Whether `cat` is enabled. Record sites test this before building
    /// an event payload, so a disabled recorder costs one load + branch.
    #[inline]
    pub fn wants(&self, cat: TraceCat) -> bool {
        self.mask & (1 << cat as u32) != 0
    }

    /// The enabled-category mask (without the internal armed marker).
    pub fn mask(&self) -> CatMask {
        CatMask(self.mask & CatMask::ALL.0)
    }

    /// The most events each category retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the overflow warning for `cat` has fired. The warning is
    /// emitted at most once per category per drain cycle, however many
    /// events are dropped.
    pub fn warned(&self, cat: TraceCat) -> bool {
        self.bufs.get(cat as usize).is_some_and(|b| b.warned)
    }

    /// Record `ev` at time `t` into its category's buffer. A disabled
    /// category counts and stores nothing.
    #[inline]
    pub fn record(&mut self, t: Cycles, ev: FlightEv) {
        let cat = ev.cat();
        if !self.wants(cat) {
            return;
        }
        self.push(t, cat, ev);
    }

    #[cold]
    fn warn_overflow(&mut self, cat: TraceCat) {
        self.bufs[cat as usize].warned = true;
        overflow_warning(&format!(
            "{} recorder category `{}` reached its capacity of {} events; \
             further events are counted but not retained",
            self.label,
            cat.name(),
            self.capacity
        ));
    }

    fn push(&mut self, t: Cycles, cat: TraceCat, ev: FlightEv) {
        let buf = &mut self.bufs[cat as usize];
        buf.seen += 1;
        if buf.events.len() < self.capacity {
            buf.events.push(FlightEvent { t, ev });
        } else {
            buf.dropped += 1;
            if !buf.warned {
                self.warn_overflow(cat);
            }
        }
    }

    /// Retained events of one category, in record (= simulation) order.
    pub fn events(&self, cat: TraceCat) -> &[FlightEvent] {
        self.bufs
            .get(cat as usize)
            .map(|b| b.events.as_slice())
            .unwrap_or(&[])
    }

    /// Events offered to `cat` while enabled (retained + dropped).
    pub fn seen(&self, cat: TraceCat) -> u64 {
        self.bufs.get(cat as usize).map(|b| b.seen).unwrap_or(0)
    }

    /// Events dropped by `cat` due to the capacity cap. Draining does
    /// not count as dropping: after [`FlightRecorder::drain_events`] the
    /// counter keeps reporting only genuine capacity rejections.
    pub fn dropped(&self, cat: TraceCat) -> u64 {
        self.bufs.get(cat as usize).map(|b| b.dropped).unwrap_or(0)
    }

    /// Total dropped events across categories.
    pub fn total_dropped(&self) -> u64 {
        TraceCat::ALL.iter().map(|&c| self.dropped(c)).sum()
    }

    /// Total retained events across categories.
    pub fn total_retained(&self) -> u64 {
        self.bufs.iter().map(|b| b.events.len() as u64).sum()
    }

    /// Discard retained events and reset drop counters (the mask and
    /// capacity are preserved).
    pub fn clear(&mut self) {
        for b in &mut self.bufs {
            b.events.clear();
            b.seen = 0;
            b.dropped = 0;
            b.warned = false;
        }
    }

    /// Drain every category into one stream, preserving per-category
    /// order. Used by the merge step; categories are visited in
    /// [`TraceCat::ALL`] order so the output is deterministic.
    pub fn drain_events(&mut self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.total_retained() as usize);
        for cat in TraceCat::ALL {
            if let Some(b) = self.bufs.get_mut(cat as usize) {
                out.append(&mut b.events);
            }
        }
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::disabled()
    }
}

/// Merge per-layer event streams into one time-ordered stream.
///
/// Each input stream must already be time-ordered (which per-category
/// recorder buffers are, by construction). The merge is a stable sort by
/// timestamp, so ties break by stream order then in-stream order — fully
/// deterministic for a deterministic simulation.
pub fn merge_streams(streams: Vec<Vec<FlightEvent>>) -> Vec<FlightEvent> {
    let mut all: Vec<FlightEvent> = streams.into_iter().flatten().collect();
    all.sort_by_key(|e| e.t);
    all
}

/// A cross-stream retention budget for multi-host captures.
///
/// Per-category recorder capacities bound each *host*, but a cluster
/// capture holds every host's drained stream at once, so total memory
/// grows linearly with host count. [`StreamBudget::admit`] truncates
/// each stream to whatever budget remains (keeping its time-ordered
/// prefix), counts the drops, and emits the usual warn-once stderr
/// notice on the first truncation. Streams are admitted serially in
/// host order, so the result is deterministic for any `--jobs` count.
#[derive(Clone, Debug)]
pub struct StreamBudget {
    capacity: usize,
    remaining: usize,
    dropped: u64,
    warned: bool,
}

impl StreamBudget {
    /// A budget of `capacity` events across all admitted streams.
    pub fn new(capacity: usize) -> Self {
        StreamBudget {
            capacity,
            remaining: capacity,
            dropped: 0,
            warned: false,
        }
    }

    /// Truncate `events` to the remaining budget, counting the excess
    /// as dropped. The first truncation latches a single warning.
    pub fn admit(&mut self, events: &mut Vec<FlightEvent>) {
        if events.len() > self.remaining {
            self.dropped += (events.len() - self.remaining) as u64;
            events.truncate(self.remaining);
            if !self.warned {
                self.warned = true;
                overflow_warning(&format!(
                    "cluster flight-stream budget of {} events exhausted; \
                     further host events are counted but not retained",
                    self.capacity
                ));
            }
        }
        self.remaining -= events.len();
    }

    /// Events admitted so far.
    pub fn retained(&self) -> usize {
        self.capacity - self.remaining
    }

    /// Events truncated because the budget ran out.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether the once-per-budget truncation warning has fired.
    pub fn warned(&self) -> bool {
        self.warned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dispatch(vcpu: u32) -> FlightEv {
        FlightEv::Dispatch {
            vcpu,
            vm: 0,
            pcpu: 0,
        }
    }

    fn acquire(vcpu: u32, wait: u64) -> FlightEv {
        FlightEv::LockAcquire {
            vm: VM_UNPATCHED,
            vcpu,
            thread: vcpu,
            lock: 0,
            wait,
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = FlightRecorder::disabled();
        assert!(!r.is_enabled());
        r.record(Cycles(1), dispatch(0));
        assert_eq!(r.seen(TraceCat::Sched), 0);
        assert_eq!(r.total_retained(), 0);
        assert_eq!(r.total_dropped(), 0);
        assert!(r.events(TraceCat::Sched).is_empty());
    }

    #[test]
    fn mask_filters_categories() {
        let mut r = FlightRecorder::new(CatMask::only(TraceCat::Lock), 8);
        r.record(Cycles(1), dispatch(0)); // sched: filtered
        r.record(Cycles(2), acquire(0, 5)); // lock: kept
        assert!(r.wants(TraceCat::Lock));
        assert!(!r.wants(TraceCat::Sched));
        assert_eq!(r.seen(TraceCat::Sched), 0);
        assert_eq!(r.seen(TraceCat::Lock), 1);
        assert_eq!(r.events(TraceCat::Lock).len(), 1);
    }

    #[test]
    fn capacity_drops_are_counted_per_category() {
        crate::trace::set_overflow_warnings(false);
        let mut r = FlightRecorder::new(CatMask::ALL, 2);
        for i in 0..5 {
            r.record(Cycles(i), dispatch(0));
        }
        r.record(Cycles(9), acquire(0, 1));
        assert_eq!(r.seen(TraceCat::Sched), 5);
        assert_eq!(r.events(TraceCat::Sched).len(), 2);
        assert_eq!(r.dropped(TraceCat::Sched), 3);
        assert_eq!(r.dropped(TraceCat::Lock), 0);
        assert_eq!(r.total_dropped(), 3);
        crate::trace::set_overflow_warnings(true);
    }

    /// Regression: `dropped()` used to be derived as `seen - retained`,
    /// so draining a buffer (which empties `events` but not `seen`)
    /// re-classified every drained event as dropped. Live migration
    /// drains the guest stream at each extraction, so on long churned
    /// runs the drop counters inflated monotonically without a single
    /// genuine capacity rejection.
    #[test]
    fn drain_does_not_count_as_dropping() {
        crate::trace::set_overflow_warnings(false);
        let mut r = FlightRecorder::new(CatMask::ALL, 4);
        r.record(Cycles(1), dispatch(0));
        r.record(Cycles(2), dispatch(1));
        assert_eq!(r.drain_events().len(), 2);
        assert_eq!(r.seen(TraceCat::Sched), 2, "seen stays cumulative");
        assert_eq!(
            r.dropped(TraceCat::Sched),
            0,
            "drained events were not dropped"
        );
        assert_eq!(r.total_dropped(), 0);
        // Genuine capacity rejections still count after a drain.
        for i in 0..6 {
            r.record(Cycles(10 + i), dispatch(0));
        }
        assert_eq!(r.dropped(TraceCat::Sched), 2);
        assert_eq!(r.drain_events().len(), 4);
        assert_eq!(
            r.dropped(TraceCat::Sched),
            2,
            "unchanged by the second drain"
        );
        crate::trace::set_overflow_warnings(true);
    }

    #[test]
    fn clear_resets_counts_but_keeps_mask() {
        crate::trace::set_overflow_warnings(false);
        let mut r = FlightRecorder::new(CatMask::ALL, 1);
        r.record(Cycles(1), dispatch(0));
        r.record(Cycles(2), dispatch(0));
        r.clear();
        assert_eq!(r.seen(TraceCat::Sched), 0);
        assert_eq!(r.total_dropped(), 0);
        r.record(Cycles(3), dispatch(1));
        assert_eq!(r.events(TraceCat::Sched).len(), 1);
        crate::trace::set_overflow_warnings(true);
    }

    #[test]
    fn overflow_warns_once_per_category_until_cleared() {
        crate::trace::set_overflow_warnings(false);
        let mut r = FlightRecorder::new(CatMask::ALL, 1);
        assert!(!r.warned(TraceCat::Sched));
        r.record(Cycles(1), dispatch(0));
        assert!(!r.warned(TraceCat::Sched), "no drop yet");
        r.record(Cycles(2), dispatch(0));
        assert!(r.warned(TraceCat::Sched), "first drop latches the warning");
        r.record(Cycles(3), dispatch(0));
        assert_eq!(r.dropped(TraceCat::Sched), 2);
        assert!(r.warned(TraceCat::Sched));
        assert!(!r.warned(TraceCat::Lock), "other categories stay unwarned");
        r.clear();
        assert!(!r.warned(TraceCat::Sched), "clear re-arms the warning");
        assert_eq!(r.total_dropped(), 0);
        crate::trace::set_overflow_warnings(true);
    }

    #[test]
    fn armed_empty_recorder_gates_but_records_nothing() {
        let mut r = FlightRecorder::new(CatMask(0), 0);
        assert!(r.is_enabled(), "armed recorder engages record sites");
        assert!(r.mask().is_empty(), "public mask strips the armed marker");
        for cat in TraceCat::ALL {
            assert!(!r.wants(cat));
        }
        r.record(Cycles(1), dispatch(0));
        r.record(Cycles(2), acquire(0, 3));
        assert_eq!(r.total_retained(), 0);
        assert_eq!(r.total_dropped(), 0);
        assert!(!r.warned(TraceCat::Sched));
    }

    #[test]
    fn rebase_patches_guest_events_only() {
        let mut guest = acquire(1, 7);
        guest.rebase_guest(3, &[10, 11]);
        match guest {
            FlightEv::LockAcquire { vm, vcpu, .. } => {
                assert_eq!(vm, 3);
                assert_eq!(vcpu, 11);
            }
            _ => unreachable!(),
        }
        let mut hv = dispatch(1);
        hv.rebase_guest(3, &[10, 11]);
        match hv {
            FlightEv::Dispatch { vcpu, vm, .. } => {
                assert_eq!(vcpu, 1, "hypervisor events keep global ids");
                assert_eq!(vm, 0);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn merge_is_stable_by_timestamp() {
        let a = vec![
            FlightEvent {
                t: Cycles(1),
                ev: dispatch(0),
            },
            FlightEvent {
                t: Cycles(5),
                ev: dispatch(1),
            },
        ];
        let b = vec![
            FlightEvent {
                t: Cycles(1),
                ev: acquire(0, 2),
            },
            FlightEvent {
                t: Cycles(3),
                ev: acquire(1, 2),
            },
        ];
        let merged = merge_streams(vec![a, b]);
        let ts: Vec<u64> = merged.iter().map(|e| e.t.as_u64()).collect();
        assert_eq!(ts, vec![1, 1, 3, 5]);
        // Tie at t=1: stream order (a before b) is preserved.
        assert!(matches!(merged[0].ev, FlightEv::Dispatch { .. }));
        assert!(matches!(merged[1].ev, FlightEv::LockAcquire { .. }));
    }

    #[test]
    fn cat_names_roundtrip() {
        for cat in TraceCat::ALL {
            assert_eq!(TraceCat::from_name(cat.name()), Some(cat));
        }
        assert_eq!(TraceCat::from_name("bogus"), None);
        let m = CatMask::parse("sched, lock,futex").unwrap();
        assert!(m.contains(TraceCat::Sched));
        assert!(m.contains(TraceCat::Lock));
        assert!(m.contains(TraceCat::Futex));
        assert!(!m.contains(TraceCat::Credit));
        assert!(CatMask::parse("sched,bogus").is_none());
    }

    #[test]
    fn cat_mask_parse_rejects_empty_duplicate_unknown() {
        // Empty lists and empty names are rejected, not collapsed.
        assert_eq!(CatMask::parse(""), None);
        assert_eq!(CatMask::parse("  "), None);
        assert_eq!(CatMask::parse("sched,"), None);
        assert_eq!(CatMask::parse("sched,,lock"), None);
        // Duplicates signal a typo'd invocation.
        assert_eq!(CatMask::parse("sched,sched"), None);
        assert_eq!(CatMask::parse("lock, futex, lock"), None);
        // Unknown names keep failing as before.
        assert_eq!(CatMask::parse("nope"), None);
        // A valid single name still parses.
        assert_eq!(
            CatMask::parse("fault"),
            Some(CatMask::only(TraceCat::Fault))
        );
    }

    #[test]
    fn stream_budget_truncates_and_warns_exactly_once() {
        crate::trace::set_overflow_warnings(false);
        let mk = |n: u64| -> Vec<FlightEvent> {
            (0..n)
                .map(|i| FlightEvent {
                    t: Cycles(i),
                    ev: dispatch(0),
                })
                .collect()
        };
        let mut budget = StreamBudget::new(5);
        assert!(!budget.warned());

        let mut a = mk(3);
        budget.admit(&mut a);
        assert_eq!(a.len(), 3, "within budget: untouched");
        assert!(!budget.warned(), "no truncation yet");

        let mut b = mk(4);
        budget.admit(&mut b);
        assert_eq!(b.len(), 2, "truncated to the remaining budget");
        assert_eq!(budget.dropped(), 2);
        assert!(budget.warned(), "first truncation latches the warning");

        // Further overflowing admits keep counting but the latch stays
        // set — the warning fires exactly once per budget.
        let mut c = mk(7);
        budget.admit(&mut c);
        assert!(c.is_empty(), "budget exhausted: everything dropped");
        assert_eq!(budget.dropped(), 9);
        assert_eq!(budget.retained(), 5);
        assert!(budget.warned());
        crate::trace::set_overflow_warnings(true);
    }
}
