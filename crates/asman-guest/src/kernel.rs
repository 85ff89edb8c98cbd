//! The guest kernel state machine.
//!
//! [`GuestKernel`] executes a workload [`Program`] on the VM's virtual
//! CPUs, mediating every synchronization operation through simulated
//! kernel primitives:
//!
//! * **kernel spinlocks** — TAS-style: waiters busy-wait (consuming their
//!   VCPU), a releasing holder hands off to the oldest *actively spinning*
//!   waiter, and a freshly arriving thread may barge on a free lock (like
//!   the non-ticket spinlocks of Linux 2.6.18, the paper's guest kernel);
//! * **barriers** — the libgomp hybrid: arrival bookkeeping under the
//!   barrier's spinlock, a bounded user-space spin, then a futex block
//!   (the blocking path is what makes semaphore-style waits cheap under
//!   virtualization, per §2.2 of the paper);
//! * the **Monitoring Module** hook: every spinlock acquisition reports
//!   its waiting time to the [`SpinObserver`], which may request VCRD
//!   hypercalls.
//!
//! The hypervisor drives the kernel through four entry points —
//! [`dispatch`](GuestKernel::dispatch), [`preempt`](GuestKernel::preempt),
//! [`work_complete`](GuestKernel::work_complete) and the timer callbacks —
//! and receives [`GuestWork`] plus accumulated [`Effects`].

use std::collections::VecDeque;

use asman_sim::flight::{
    CatMask, FlightEv, FlightRecorder, TraceCat, PEER_FUTEX_BIT, VM_UNPATCHED,
};
use asman_sim::Cycles;
use asman_workloads::{Mark, Op, Program};

use crate::costs::GuestCosts;
use crate::monitor::{SpinObserver, VcrdUpdate};
use crate::stats::GuestStats;
use crate::thread::{AfterWork, GThread, LockPurpose, TState};

/// What a VCPU executes after a dispatch/work-completion, as reported to
/// the hypervisor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuestWork {
    /// Run thread `thread` for `dur` cycles, then call
    /// [`GuestKernel::work_complete`].
    Timed {
        /// VM-local thread index.
        thread: usize,
        /// Cycles until the segment (or guest quantum) expires.
        dur: Cycles,
    },
    /// Thread `thread` is busy-waiting on a kernel spinlock: the VCPU
    /// burns CPU with no completion event; it changes state only via a
    /// lock release (`Effects::refresh_vcpus`) or preemption.
    Spin {
        /// VM-local thread index.
        thread: usize,
    },
    /// No runnable thread: the VCPU should block (idle).
    Idle,
}

/// Side effects of a guest-kernel step, to be applied by the hypervisor.
#[derive(Debug, Default)]
pub struct Effects {
    /// VM-local VCPU slots that acquired runnable work while offline
    /// (blocked → runnable transitions; the VMM should wake/boost them).
    pub wake_vcpus: Vec<usize>,
    /// VM-local VCPU slots that are *online* but whose current work
    /// changed (a spinner was granted a lock, a barrier released its
    /// spinners): the VMM must invalidate any pending completion event
    /// and re-query [`GuestKernel::dispatch_work`].
    pub refresh_vcpus: Vec<usize>,
    /// Absolute-deadline wake-ups to arm for sleeping threads.
    pub sleep_timers: Vec<(usize, Cycles)>,
    /// VCRD update requested by the Monitoring Module (to be delivered to
    /// the adaptive scheduler as a `do_vcrd_op` hypercall).
    pub vcrd: Option<VcrdUpdate>,
}

impl Effects {
    /// Clear all accumulated effects (the hypervisor reuses one buffer).
    pub fn clear(&mut self) {
        self.wake_vcpus.clear();
        self.refresh_vcpus.clear();
        self.sleep_timers.clear();
        self.vcrd = None;
    }
}

struct LockState {
    holder: Option<usize>,
    /// FIFO of threads in `SpinKernel` on this lock.
    waiters: VecDeque<usize>,
}

struct BarrierState {
    arrived: u32,
    generation: u64,
    /// Threads blocked in the futex wait.
    blocked: Vec<usize>,
    /// Threads in the user-space spin phase (or contending the barrier
    /// lock to enqueue on the futex).
    spinners: Vec<usize>,
}

struct SemState {
    tokens: u64,
    /// FIFO of blocked waiters.
    waiters: VecDeque<usize>,
}

struct GVcpu {
    online: bool,
    /// Start of the currently unaccounted execution span.
    work_started: Cycles,
    current: Option<usize>,
    runq: VecDeque<usize>,
    quantum_used: Cycles,
    /// Accumulated online time owed to the guest timer (interrupt
    /// injection happens at the next safe work boundary).
    tick_debt: Cycles,
    /// Cache warm-up penalty to add to the next timed segment (set by
    /// the hypervisor at dispatch after preemption/migration).
    pending_warmup: Cycles,
}

/// The simulated guest kernel of one VM. See the module docs.
pub struct GuestKernel {
    program: Box<dyn Program>,
    costs: GuestCosts,
    threads: Vec<GThread>,
    locks: Vec<LockState>,
    barriers: Vec<BarrierState>,
    semaphores: Vec<SemState>,
    vcpus: Vec<GVcpu>,
    observer: Box<dyn SpinObserver>,
    /// Workload locks occupy `0..workload_locks`; barrier `b`'s lock is
    /// `workload_locks + b`.
    workload_locks: u32,
    stats: GuestStats,
    threads_done: usize,
    /// Guest-layer flight recorder (lock/futex/barrier categories).
    /// Events carry VM-local indices and [`VM_UNPATCHED`]; the hypervisor
    /// rebases them when merging cross-layer streams.
    flight: FlightRecorder,
}

impl GuestKernel {
    /// Build a guest kernel running `program` on `vcpus` virtual CPUs.
    /// Threads are assigned to VCPUs round-robin (thread `i` → VCPU
    /// `i % vcpus`), matching OpenMP default placement.
    pub fn new(
        program: Box<dyn Program>,
        vcpus: usize,
        costs: GuestCosts,
        observer: Box<dyn SpinObserver>,
    ) -> Self {
        assert!(vcpus > 0, "a VM needs at least one VCPU");
        let nthreads = program.thread_count();
        let workload_locks = program.kernel_locks();
        let nbarriers = program.barriers();
        let threads: Vec<GThread> = (0..nthreads).map(|i| GThread::new(i % vcpus)).collect();
        let mut gvcpus: Vec<GVcpu> = (0..vcpus)
            .map(|_| GVcpu {
                online: false,
                work_started: Cycles::ZERO,
                current: None,
                runq: VecDeque::new(),
                quantum_used: Cycles::ZERO,
                tick_debt: Cycles::ZERO,
                pending_warmup: Cycles::ZERO,
            })
            .collect();
        for (i, t) in threads.iter().enumerate() {
            gvcpus[t.vcpu].runq.push_back(i);
        }
        // Two extra kernel locks beyond the workload's: the global
        // `xtime` timekeeping lock (timer interrupts) and the futex
        // bucket lock used by pipeline waits.
        let locks = (0..workload_locks + nbarriers + 2)
            .map(|_| LockState {
                holder: None,
                waiters: VecDeque::new(),
            })
            .collect();
        let barriers = (0..nbarriers)
            .map(|_| BarrierState {
                arrived: 0,
                generation: 0,
                blocked: Vec::new(),
                spinners: Vec::new(),
            })
            .collect();
        let semaphores = (0..program.semaphores())
            .map(|_| SemState {
                tokens: 0,
                waiters: VecDeque::new(),
            })
            .collect();
        GuestKernel {
            stats: GuestStats::new(nthreads),
            program,
            costs,
            threads,
            locks,
            barriers,
            semaphores,
            vcpus: gvcpus,
            observer,
            workload_locks,
            threads_done: 0,
            flight: FlightRecorder::disabled(),
        }
    }

    /// Start flight-recording guest synchronization events (the lock,
    /// futex and barrier categories of `mask`), at most `capacity`
    /// retained events per category.
    pub fn enable_flight(&mut self, mask: CatMask, capacity: usize) {
        self.flight = FlightRecorder::labeled(mask, capacity, "guest");
    }

    /// Start recording spin-episode durations (kernel spinlock, barrier
    /// and pipeline-flag busy-wait segments) into a quantile histogram.
    /// Off by default: the charge path then pays a single branch and no
    /// observation is ever taken, so results are unchanged.
    pub fn enable_spin_episodes(&mut self) {
        // Idempotent: a kernel that live-migrated in already carries its
        // histogram, and re-enabling on the destination must not erase
        // the episodes observed on the source host.
        if self.stats.spin_episodes.is_none() {
            self.stats.spin_episodes = Some(Default::default());
        }
    }

    /// The guest-layer flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Mutable access to the flight recorder (e.g. to drain its buffers
    /// into a merged cross-layer stream).
    pub fn flight_mut(&mut self) -> &mut FlightRecorder {
        &mut self.flight
    }

    /// Number of VCPUs.
    pub fn vcpu_count(&self) -> usize {
        self.vcpus.len()
    }

    /// Number of guest threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Measurement state.
    pub fn stats(&self) -> &GuestStats {
        &self.stats
    }

    /// Mutable measurement state (e.g. to gate the wait trace to an
    /// observation window).
    pub fn stats_mut(&mut self) -> &mut GuestStats {
        &mut self.stats
    }

    /// Whether every thread has finished its program.
    pub fn is_finished(&self) -> bool {
        self.threads_done == self.threads.len()
    }

    /// Threads currently in a timed sleep, as `(thread, absolute
    /// deadline)` pairs in thread order. A hypervisor resuming this
    /// kernel after a live migration re-arms one timer per entry — the
    /// source host's in-flight `SleepTimer` events do not travel.
    pub fn sleeping_threads(&self) -> Vec<(usize, Cycles)> {
        self.threads
            .iter()
            .enumerate()
            .filter_map(|(t, th)| match th.state {
                TState::Sleep { until } => Some((t, until)),
                _ => None,
            })
            .collect()
    }

    /// Fold the kernel's complete execution state into a fingerprint:
    /// every thread's state machine, every lock/barrier/semaphore wait
    /// queue, every guest-VCPU runqueue, and the measurement counters
    /// that feed artifacts. Two kernels with equal folds behave
    /// identically from here on (the program and cost model are part of
    /// the configuration, not the state), so the checkpoint subsystem
    /// uses this to prove a restored kernel matches its
    /// straight-through twin.
    pub fn fold_state(&self, h: &mut asman_sim::Fnv) {
        h.write_usize(self.threads.len());
        for t in &self.threads {
            h.write_usize(t.vcpu);
            h.write_opt_u64(t.held.map(u64::from));
            fold_tstate(&t.state, h);
            h.write_u64(t.rounds);
            h.write_u64(t.progress);
            match &t.resume {
                Some((remaining, then)) => {
                    h.write_bool(true);
                    h.write_u64(remaining.as_u64());
                    fold_afterwork(then, h);
                }
                None => h.write_bool(false),
            }
            h.write_usize(t.spin_waiters.len());
            for &w in &t.spin_waiters {
                h.write_usize(w);
            }
            h.write_usize(t.blocked_waiters.len());
            for &(w, target) in &t.blocked_waiters {
                h.write_usize(w);
                h.write_u64(target);
            }
        }
        h.write_usize(self.locks.len());
        for l in &self.locks {
            h.write_opt_u64(l.holder.map(|t| t as u64));
            h.write_usize(l.waiters.len());
            for &w in &l.waiters {
                h.write_usize(w);
            }
        }
        h.write_usize(self.barriers.len());
        for b in &self.barriers {
            h.write_u32(b.arrived);
            h.write_u64(b.generation);
            h.write_usize(b.blocked.len());
            for &t in &b.blocked {
                h.write_usize(t);
            }
            h.write_usize(b.spinners.len());
            for &t in &b.spinners {
                h.write_usize(t);
            }
        }
        h.write_usize(self.semaphores.len());
        for s in &self.semaphores {
            h.write_u64(s.tokens);
            h.write_usize(s.waiters.len());
            for &w in &s.waiters {
                h.write_usize(w);
            }
        }
        h.write_usize(self.vcpus.len());
        for v in &self.vcpus {
            h.write_bool(v.online);
            h.write_u64(v.work_started.as_u64());
            h.write_opt_u64(v.current.map(|t| t as u64));
            h.write_usize(v.runq.len());
            for &t in &v.runq {
                h.write_usize(t);
            }
            h.write_u64(v.quantum_used.as_u64());
            h.write_u64(v.tick_debt.as_u64());
            h.write_u64(v.pending_warmup.as_u64());
        }
        h.write_u32(self.workload_locks);
        h.write_usize(self.threads_done);
        let s = &self.stats;
        h.write_u64(s.wait_hist.count());
        h.write_u64(s.sem_wait_hist.count());
        h.write_u64(s.wait_cycles.count());
        h.write_u64(s.spin_kernel_cycles.as_u64());
        h.write_u64(s.spin_barrier_cycles.as_u64());
        h.write_u64(s.spin_pipeline_cycles.as_u64());
        h.write_u64(s.timer_ticks);
        h.write_u64(s.warmup_cycles.as_u64());
        h.write_u64(s.useful_cycles.as_u64());
        h.write_u64(s.transactions);
        h.write_usize(s.round_times.len());
        for rt in &s.round_times {
            h.write_usize(rt.len());
            for &t in rt {
                h.write_u64(t.as_u64());
            }
        }
        h.write_u64(s.barriers_completed);
        h.write_u64(s.lock_acquisitions);
        h.write_u64(s.holder_preemptions);
        match s.spin_episodes.as_ref() {
            Some(q) => {
                h.write_bool(true);
                h.write_u64(q.count());
            }
            None => h.write_bool(false),
        }
        h.write_opt_u64(s.finished_at.map(|c| c.as_u64()));
    }

    /// Whether VCPU `v` has anything runnable (used by the hypervisor to
    /// decide whether a blocked VCPU should wake).
    pub fn vcpu_runnable(&self, v: usize) -> bool {
        self.vcpus[v]
            .current
            .map(|t| self.threads[t].state.is_runnable())
            .unwrap_or(false)
            || self.vcpus[v]
                .runq
                .iter()
                .any(|&t| self.threads[t].state.is_runnable())
    }

    /// The VCPU gained a physical CPU at `now`. `warmup` is the cache
    /// warm-up penalty (lost progress) the hypervisor charges for a cold
    /// dispatch; it is added to the next timed segment.
    pub fn dispatch(
        &mut self,
        v: usize,
        now: Cycles,
        warmup: Cycles,
        fx: &mut Effects,
    ) -> GuestWork {
        debug_assert!(!self.vcpus[v].online, "double dispatch of vcpu {v}");
        self.vcpus[v].online = true;
        self.vcpus[v].work_started = now;
        self.vcpus[v].pending_warmup = warmup;
        self.dispatch_work(v, now, fx)
    }

    /// The VCPU lost its physical CPU at `now`.
    pub fn preempt(&mut self, v: usize, now: Cycles) {
        debug_assert!(self.vcpus[v].online, "preempting offline vcpu {v}");
        self.charge(v, now);
        if let Some(t) = self.vcpus[v].current {
            if self.threads[t].held.is_some() {
                // Lock-holder preemption: the root cause of over-threshold
                // spinlocks (§2.2).
                self.stats.holder_preemptions += 1;
            }
        }
        self.vcpus[v].online = false;
    }

    /// Re-evaluate what online VCPU `v` should execute (after a dispatch,
    /// a completed segment, or a refresh). Only call while online.
    pub fn dispatch_work(&mut self, v: usize, now: Cycles, fx: &mut Effects) -> GuestWork {
        debug_assert!(self.vcpus[v].online);
        loop {
            let Some(t) = self.current_thread(v) else {
                return GuestWork::Idle;
            };
            match self.threads[t].state {
                TState::Fetch => {
                    self.fetch_and_start(t, now, fx);
                    // State changed; loop to classify it.
                }
                TState::Work { remaining, then } => {
                    if remaining.is_zero() {
                        // The segment finished exactly when the VCPU was
                        // preempted (its completion event was invalidated);
                        // complete it now.
                        self.finish_segment(t, then, now, fx);
                        continue;
                    }
                    // Kernel-entry injection (timer ticks, syscalls, IRQ
                    // work): delivered at safe boundaries (implicitly
                    // masked inside kernel critical sections / while an
                    // entry is already in flight).
                    let injectable = !self.costs.timer_hold.is_zero()
                        && self.threads[t].held.is_none()
                        && self.threads[t].resume.is_none();
                    if injectable && self.vcpus[v].tick_debt >= self.costs.timer_period {
                        self.vcpus[v].tick_debt -= self.costs.timer_period;
                        self.threads[t].resume = Some((remaining, then));
                        self.stats.timer_ticks += 1;
                        let xl = self.xtime_lock();
                        self.try_acquire(t, xl, LockPurpose::TimerTick, now, fx);
                        continue;
                    }
                    let mut dur = remaining;
                    if !self.vcpus[v].pending_warmup.is_zero() {
                        let w = std::mem::take(&mut self.vcpus[v].pending_warmup);
                        self.stats.warmup_cycles = self.stats.warmup_cycles.saturating_add(w);
                        if let TState::Work { remaining, .. } = &mut self.threads[t].state {
                            *remaining += w;
                        }
                        dur += w;
                    }
                    if injectable {
                        // Split long segments so the next kernel entry
                        // lands on schedule rather than at the end of a
                        // multi-millisecond compute chunk.
                        let until_entry = self
                            .costs
                            .timer_period
                            .saturating_sub(self.vcpus[v].tick_debt)
                            .max(Cycles(1));
                        dur = dur.min(until_entry);
                    }
                    // Guest-scheduler quantum: only preempt threads that
                    // hold no lock (kernel preemption disabled in critical
                    // sections) when another thread is waiting.
                    if !self.vcpus[v].runq.is_empty() && self.threads[t].held.is_none() {
                        let left = self
                            .costs
                            .guest_quantum
                            .saturating_sub(self.vcpus[v].quantum_used);
                        if left.is_zero() {
                            self.rotate(v);
                            continue;
                        }
                        dur = dur.min(left);
                    }
                    return GuestWork::Timed { thread: t, dur };
                }
                TState::SpinKernel { lock, .. } => {
                    // The lock may have been released while we were
                    // offline with no active spinner to hand off to.
                    if self.locks[lock as usize].holder.is_none() {
                        self.grant_to(t, now, fx);
                        continue;
                    }
                    return GuestWork::Spin { thread: t };
                }
                TState::BlockedBarrier { .. }
                | TState::BlockedSem { .. }
                | TState::BlockedPeer { .. }
                | TState::Sleep { .. }
                | TState::Done => {
                    // Not runnable: drop it as current and try the queue.
                    self.vcpus[v].current = None;
                }
            }
        }
    }

    /// The previously announced [`GuestWork::Timed`] duration elapsed for
    /// VCPU `v` at `now`. Returns the next work for the VCPU.
    pub fn work_complete(&mut self, v: usize, now: Cycles, fx: &mut Effects) -> GuestWork {
        debug_assert!(self.vcpus[v].online);
        self.charge(v, now);
        if let Some(t) = self.vcpus[v].current {
            if let TState::Work { remaining, then } = self.threads[t].state {
                if remaining.is_zero() {
                    self.finish_segment(t, then, now, fx);
                }
                // Otherwise the guest quantum expired mid-segment; the
                // dispatch loop below will rotate.
            }
        }
        self.dispatch_work(v, now, fx)
    }

    /// A sleep timer armed via [`Effects::sleep_timers`] fired.
    pub fn sleep_timer(&mut self, t: usize, now: Cycles, fx: &mut Effects) {
        if let TState::Sleep { until } = self.threads[t].state {
            if until <= now {
                self.threads[t].state = TState::Fetch;
                self.make_runnable(t, fx);
            }
        }
    }

    /// The VCRD estimation timer fired; relays to the Monitoring Module.
    pub fn vcrd_timer(&mut self, now: Cycles, fx: &mut Effects) {
        if let Some(update) = self.observer.on_vcrd_timer(now) {
            fx.vcrd = Some(update);
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn current_thread(&mut self, v: usize) -> Option<usize> {
        if self.vcpus[v].current.is_none() {
            // Skip non-runnable queue entries (stale after blocking).
            while let Some(t) = self.vcpus[v].runq.pop_front() {
                if self.threads[t].state.is_runnable() {
                    self.vcpus[v].current = Some(t);
                    self.vcpus[v].quantum_used = Cycles::ZERO;
                    break;
                }
            }
        }
        self.vcpus[v].current
    }

    fn rotate(&mut self, v: usize) {
        if let Some(t) = self.vcpus[v].current.take() {
            self.vcpus[v].runq.push_back(t);
        }
        self.vcpus[v].quantum_used = Cycles::ZERO;
    }

    /// Charge the span since `work_started` to the current thread.
    fn charge(&mut self, v: usize, now: Cycles) {
        let el = now.saturating_sub(self.vcpus[v].work_started);
        self.vcpus[v].work_started = now;
        if el.is_zero() {
            return;
        }
        // Timer interrupts accrue with online time; at most two are ever
        // pending (coalescing, like real "lost ticks" under
        // virtualization).
        self.vcpus[v].tick_debt = (self.vcpus[v].tick_debt + el).min(self.costs.timer_period * 2);
        let Some(t) = self.vcpus[v].current else {
            return;
        };
        match &mut self.threads[t].state {
            TState::Work { remaining, then } => {
                let used = el.min(*remaining);
                *remaining -= used;
                // Cumulative counters saturate: a soak horizon must pin
                // them at the ceiling, not panic (debug) or wrap
                // (release) after enough simulated days.
                match then {
                    AfterWork::TryFutexEnqueue { .. } => {
                        self.stats.spin_barrier_cycles =
                            self.stats.spin_barrier_cycles.saturating_add(used);
                        self.stats.note_spin(used);
                    }
                    AfterWork::TryPeerEnqueue { .. } => {
                        self.stats.spin_pipeline_cycles =
                            self.stats.spin_pipeline_cycles.saturating_add(used);
                        self.stats.note_spin(used);
                    }
                    _ => self.stats.useful_cycles = self.stats.useful_cycles.saturating_add(used),
                }
                self.vcpus[v].quantum_used += el;
            }
            TState::SpinKernel { .. } => {
                self.stats.spin_kernel_cycles = self.stats.spin_kernel_cycles.saturating_add(el);
                self.stats.note_spin(el);
            }
            _ => {}
        }
    }

    /// Pull ops from the program for thread `t` until it enters a timed,
    /// spinning or blocked state.
    fn fetch_and_start(&mut self, t: usize, now: Cycles, fx: &mut Effects) {
        loop {
            debug_assert_eq!(self.threads[t].state, TState::Fetch);
            match self.program.next_op(t) {
                Op::Compute(c) => {
                    if c.is_zero() {
                        continue;
                    }
                    self.threads[t].state = TState::Work {
                        remaining: c,
                        then: AfterWork::Fetch,
                    };
                    return;
                }
                Op::CriticalSection { lock, hold } => {
                    debug_assert!(lock < self.workload_locks, "lock id out of range");
                    self.try_acquire(t, lock, LockPurpose::Critical { hold }, now, fx);
                    return;
                }
                Op::Barrier { id } => {
                    let lock = self.barrier_lock(id);
                    self.try_acquire(t, lock, LockPurpose::BarrierEnter { id }, now, fx);
                    return;
                }
                Op::Sleep(d) => {
                    let until = now + d;
                    self.threads[t].state = TState::Sleep { until };
                    fx.sleep_timers.push((t, until));
                    let v = self.threads[t].vcpu;
                    if self.vcpus[v].current == Some(t) {
                        self.vcpus[v].current = None;
                    }
                    return;
                }
                Op::Advance => {
                    self.threads[t].progress += 1;
                    self.release_satisfied_spinners(t, now, fx);
                    let progress = self.threads[t].progress;
                    let any_blocked = self.threads[t]
                        .blocked_waiters
                        .iter()
                        .any(|&(_, target)| target <= progress);
                    if any_blocked {
                        // Futex wake: the producer walks the waiter list
                        // under the bucket lock.
                        let bl = self.bucket_lock();
                        self.try_acquire(t, bl, LockPurpose::PeerWake, now, fx);
                        return;
                    }
                }
                Op::WaitPeer { peer, target } => {
                    let peer = peer as usize;
                    debug_assert!(peer < self.threads.len() && peer != t);
                    if self.threads[peer].progress >= target {
                        continue; // flag already set; no wait
                    }
                    self.threads[peer].spin_waiters.push(t);
                    self.threads[t].state = TState::Work {
                        remaining: self.costs.pipeline_spin_budget.max(Cycles(1)),
                        then: AfterWork::TryPeerEnqueue { peer, target },
                    };
                    return;
                }
                Op::SemWait { id } => {
                    let sem = &mut self.semaphores[id as usize];
                    if sem.tokens > 0 {
                        // Token available: the down() path is a few
                        // hundred cycles of kernel bookkeeping.
                        sem.tokens -= 1;
                        self.stats.sem_wait_hist.record(Cycles(600));
                        self.threads[t].state = TState::Work {
                            remaining: Cycles(600),
                            then: AfterWork::Fetch,
                        };
                    } else {
                        sem.waiters.push_back(t);
                        self.threads[t].state = TState::BlockedSem { id, since: now };
                        let v = self.threads[t].vcpu;
                        if self.vcpus[v].current == Some(t) {
                            self.vcpus[v].current = None;
                        }
                    }
                    return;
                }
                Op::SemPost { id } => {
                    let sem = &mut self.semaphores[id as usize];
                    if let Some(w) = sem.waiters.pop_front() {
                        // Hand the token straight to the oldest waiter.
                        if let TState::BlockedSem { since, .. } = self.threads[w].state {
                            self.stats
                                .sem_wait_hist
                                .record(now.saturating_sub(since).max(Cycles(600)));
                        }
                        self.threads[w].state = TState::Work {
                            remaining: self.costs.futex_wake_latency + self.costs.barrier_exit,
                            then: AfterWork::Fetch,
                        };
                        self.make_runnable(w, fx);
                    } else {
                        sem.tokens += 1;
                    }
                    // up() itself is cheap; continue fetching.
                }
                Op::Mark(Mark::Transaction) => {
                    self.stats.transactions += 1;
                }
                Op::Mark(Mark::RoundEnd) => {
                    self.threads[t].rounds += 1;
                    self.stats.record_round(t, now);
                }
                Op::Done => {
                    self.threads[t].state = TState::Done;
                    self.threads_done += 1;
                    if self.threads_done == self.threads.len() {
                        self.stats.finished_at = Some(now);
                    }
                    let v = self.threads[t].vcpu;
                    if self.vcpus[v].current == Some(t) {
                        self.vcpus[v].current = None;
                    }
                    return;
                }
            }
        }
    }

    fn barrier_lock(&self, id: u32) -> u32 {
        self.workload_locks + id
    }

    /// The global timekeeping lock taken by every timer interrupt.
    fn xtime_lock(&self) -> u32 {
        self.workload_locks + self.barriers.len() as u32
    }

    /// The futex bucket lock used by pipeline (flag) waits.
    fn bucket_lock(&self) -> u32 {
        self.workload_locks + self.barriers.len() as u32 + 1
    }

    fn try_acquire(
        &mut self,
        t: usize,
        lock: u32,
        purpose: LockPurpose,
        now: Cycles,
        fx: &mut Effects,
    ) {
        debug_assert_ne!(self.threads[t].held, Some(lock), "re-entrant lock");
        let ls = &mut self.locks[lock as usize];
        if ls.holder.is_none() {
            // Fresh acquisition (TAS barging is allowed even if older
            // waiters exist but are currently offline).
            self.record_acquisition(t, lock, self.costs.lock_uncontended, now, fx);
            self.start_locked_work(t, purpose, now);
        } else {
            ls.waiters.push_back(t);
            self.threads[t].state = TState::SpinKernel {
                lock,
                since: now,
                purpose,
            };
            if self.flight.wants(TraceCat::Lock) {
                self.flight.record(
                    now,
                    FlightEv::LockContend {
                        vm: VM_UNPATCHED,
                        vcpu: self.threads[t].vcpu as u32,
                        thread: t as u32,
                        lock,
                    },
                );
            }
        }
    }

    /// Grant `lock` to thread `t`, which was spinning on it.
    fn grant_to(&mut self, t: usize, now: Cycles, fx: &mut Effects) {
        let TState::SpinKernel {
            lock,
            since,
            purpose,
        } = self.threads[t].state
        else {
            unreachable!("grant_to on non-spinning thread");
        };
        debug_assert!(self.locks[lock as usize].holder.is_none());
        // Remove from the waiter queue.
        let ls = &mut self.locks[lock as usize];
        if let Some(pos) = ls.waiters.iter().position(|&w| w == t) {
            ls.waiters.remove(pos);
        }
        let wait = now.saturating_sub(since) + self.costs.lock_handoff;
        self.record_acquisition(t, lock, wait, now, fx);
        self.start_locked_work(t, purpose, now);
    }

    fn record_acquisition(
        &mut self,
        t: usize,
        lock: u32,
        wait: Cycles,
        now: Cycles,
        fx: &mut Effects,
    ) {
        self.locks[lock as usize].holder = Some(t);
        self.threads[t].held = Some(lock);
        self.stats.record_wait(wait);
        if self.flight.wants(TraceCat::Lock) {
            self.flight.record(
                now,
                FlightEv::LockAcquire {
                    vm: VM_UNPATCHED,
                    vcpu: self.threads[t].vcpu as u32,
                    thread: t as u32,
                    lock,
                    wait: wait.as_u64(),
                },
            );
        }
        if let Some(update) = self.observer.on_spinlock_wait(now, wait) {
            fx.vcrd = Some(update);
        }
    }

    /// Set up the timed segment a thread executes once it owns its lock.
    fn start_locked_work(&mut self, t: usize, purpose: LockPurpose, now: Cycles) {
        let state = match purpose {
            LockPurpose::Critical { hold } => TState::Work {
                remaining: hold.max(Cycles(1)),
                then: AfterWork::ReleaseThenFetch,
            },
            LockPurpose::BarrierEnter { id } => {
                let b = &mut self.barriers[id as usize];
                b.arrived += 1;
                let arrived = b.arrived;
                if self.flight.wants(TraceCat::Barrier) {
                    self.flight.record(
                        now,
                        FlightEv::BarrierArrive {
                            vm: VM_UNPATCHED,
                            vcpu: self.threads[t].vcpu as u32,
                            thread: t as u32,
                            barrier: id,
                            arrived,
                        },
                    );
                }
                let b = &mut self.barriers[id as usize];
                if b.arrived as usize == self.threads.len() {
                    let waiters = self.threads.len().saturating_sub(1) as u64;
                    TState::Work {
                        remaining: self.costs.barrier_wake_base
                            + self.costs.barrier_wake_per_waiter * waiters,
                        then: AfterWork::ReleaseThenWake { id },
                    }
                } else {
                    TState::Work {
                        remaining: self.costs.barrier_enter,
                        then: AfterWork::ReleaseThenSpin { id },
                    }
                }
            }
            LockPurpose::FutexEnqueue { id, gen } => {
                if self.barriers[id as usize].generation != gen {
                    // The barrier completed while we were contending the
                    // lock: just proceed.
                    self.deregister_spinner(id, t);
                    TState::Work {
                        remaining: self.costs.barrier_exit,
                        then: AfterWork::ReleaseThenFetch,
                    }
                } else {
                    TState::Work {
                        remaining: self.costs.futex_enqueue,
                        then: AfterWork::ReleaseThenBlock { id },
                    }
                }
            }
            LockPurpose::TimerTick => TState::Work {
                remaining: self.costs.timer_hold.max(Cycles(1)),
                then: AfterWork::ReleaseThenResume,
            },
            LockPurpose::PeerEnqueue { peer, target } => {
                if self.threads[peer].progress >= target {
                    // The flag was set while contending the bucket lock.
                    self.deregister_peer_spinner(peer, t);
                    TState::Work {
                        remaining: self.costs.barrier_exit,
                        then: AfterWork::ReleaseThenFetch,
                    }
                } else {
                    TState::Work {
                        remaining: self.costs.futex_enqueue,
                        then: AfterWork::ReleaseThenBlockPeer { peer, target },
                    }
                }
            }
            LockPurpose::PeerWake => {
                let progress = self.threads[t].progress;
                let waiters = self.threads[t]
                    .blocked_waiters
                    .iter()
                    .filter(|&&(_, target)| target <= progress)
                    .count() as u64;
                TState::Work {
                    remaining: self.costs.barrier_wake_base
                        + self.costs.barrier_wake_per_waiter * waiters,
                    then: AfterWork::ReleaseThenWakePeers,
                }
            }
        };
        self.threads[t].state = state;
    }

    fn deregister_peer_spinner(&mut self, peer: usize, t: usize) {
        if let Some(pos) = self.threads[peer].spin_waiters.iter().position(|&s| s == t) {
            self.threads[peer].spin_waiters.swap_remove(pos);
        }
    }

    /// A producer advanced: let every satisfied *spinning* pipeline
    /// waiter proceed (it observes the flag from user space; no kernel
    /// involvement).
    fn release_satisfied_spinners(&mut self, producer: usize, now: Cycles, fx: &mut Effects) {
        let progress = self.threads[producer].progress;
        let mut i = 0;
        while i < self.threads[producer].spin_waiters.len() {
            let w = self.threads[producer].spin_waiters[i];
            let satisfied = match self.threads[w].state {
                TState::Work {
                    then: AfterWork::TryPeerEnqueue { target, .. },
                    ..
                } => target <= progress,
                // Contending the bucket lock or mid-enqueue: the
                // satisfied-check at lock acquisition / pre-block handles
                // those paths.
                _ => false,
            };
            if satisfied {
                let wv = self.threads[w].vcpu;
                if self.vcpus[wv].online && self.vcpus[wv].current == Some(w) {
                    self.charge(wv, now);
                    fx.refresh_vcpus.push(wv);
                }
                self.threads[w].state = TState::Work {
                    remaining: self.costs.barrier_exit,
                    then: AfterWork::Fetch,
                };
                self.threads[producer].spin_waiters.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    fn deregister_spinner(&mut self, id: u32, t: usize) {
        let b = &mut self.barriers[id as usize];
        if let Some(pos) = b.spinners.iter().position(|&s| s == t) {
            b.spinners.swap_remove(pos);
        }
    }

    fn finish_segment(&mut self, t: usize, then: AfterWork, now: Cycles, fx: &mut Effects) {
        match then {
            AfterWork::Fetch => {
                self.threads[t].state = TState::Fetch;
            }
            AfterWork::ReleaseThenFetch => {
                self.threads[t].state = TState::Fetch;
                self.release_held(t, now, fx);
            }
            AfterWork::ReleaseThenSpin { id } => {
                let gen = self.barriers[id as usize].generation;
                self.barriers[id as usize].spinners.push(t);
                self.threads[t].state = TState::Work {
                    remaining: self.costs.barrier_spin_budget.max(Cycles(1)),
                    then: AfterWork::TryFutexEnqueue { id, gen },
                };
                self.release_held(t, now, fx);
            }
            AfterWork::ReleaseThenWake { id } => {
                self.threads[t].state = TState::Fetch;
                self.complete_barrier(id, t, now, fx);
                self.release_held(t, now, fx);
            }
            AfterWork::ReleaseThenBlock { id } => {
                self.deregister_spinner(id, t);
                self.barriers[id as usize].blocked.push(t);
                self.threads[t].state = TState::BlockedBarrier { id };
                let v = self.threads[t].vcpu;
                if self.vcpus[v].current == Some(t) {
                    self.vcpus[v].current = None;
                }
                if self.flight.wants(TraceCat::Futex) {
                    self.flight.record(
                        now,
                        FlightEv::FutexBlock {
                            vm: VM_UNPATCHED,
                            vcpu: v as u32,
                            thread: t as u32,
                            futex: id,
                        },
                    );
                }
                self.release_held(t, now, fx);
            }
            AfterWork::TryPeerEnqueue { peer, target } => {
                if self.threads[peer].progress >= target {
                    // Raced the flag during the final spin instants.
                    self.deregister_peer_spinner(peer, t);
                    self.threads[t].state = TState::Fetch;
                } else {
                    let bl = self.bucket_lock();
                    self.try_acquire(t, bl, LockPurpose::PeerEnqueue { peer, target }, now, fx);
                }
            }
            AfterWork::ReleaseThenBlockPeer { peer, target } => {
                self.deregister_peer_spinner(peer, t);
                if self.threads[peer].progress >= target {
                    // Satisfied while enqueueing: do not sleep.
                    self.threads[t].state = TState::Fetch;
                } else {
                    self.threads[peer].blocked_waiters.push((t, target));
                    self.threads[t].state = TState::BlockedPeer { peer, target };
                    let v = self.threads[t].vcpu;
                    if self.vcpus[v].current == Some(t) {
                        self.vcpus[v].current = None;
                    }
                    if self.flight.wants(TraceCat::Futex) {
                        self.flight.record(
                            now,
                            FlightEv::FutexBlock {
                                vm: VM_UNPATCHED,
                                vcpu: v as u32,
                                thread: t as u32,
                                futex: PEER_FUTEX_BIT | peer as u32,
                            },
                        );
                    }
                }
                self.release_held(t, now, fx);
            }
            AfterWork::ReleaseThenWakePeers => {
                self.threads[t].state = TState::Fetch;
                let progress = self.threads[t].progress;
                let mut i = 0;
                let mut woken = 0u32;
                while i < self.threads[t].blocked_waiters.len() {
                    let (w, target) = self.threads[t].blocked_waiters[i];
                    if target <= progress {
                        self.threads[t].blocked_waiters.swap_remove(i);
                        debug_assert!(matches!(self.threads[w].state, TState::BlockedPeer { .. }));
                        self.threads[w].state = TState::Work {
                            remaining: self.costs.futex_wake_latency + self.costs.barrier_exit,
                            then: AfterWork::Fetch,
                        };
                        self.make_runnable(w, fx);
                        woken += 1;
                    } else {
                        i += 1;
                    }
                }
                if woken > 0 && self.flight.wants(TraceCat::Futex) {
                    self.flight.record(
                        now,
                        FlightEv::FutexWake {
                            vm: VM_UNPATCHED,
                            vcpu: self.threads[t].vcpu as u32,
                            thread: t as u32,
                            futex: PEER_FUTEX_BIT | t as u32,
                            woken,
                        },
                    );
                }
                self.release_held(t, now, fx);
            }
            AfterWork::ReleaseThenResume => {
                let (remaining, then) = self.threads[t]
                    .resume
                    .take()
                    .expect("timer resume without stashed segment");
                self.threads[t].state = TState::Work { remaining, then };
                self.release_held(t, now, fx);
            }
            AfterWork::TryFutexEnqueue { id, gen } => {
                if self.barriers[id as usize].generation != gen {
                    // Barrier completed during the last instants of the
                    // spin (already handled by complete_barrier normally;
                    // this is the race where the check raced the budget).
                    self.deregister_spinner(id, t);
                    self.threads[t].state = TState::Fetch;
                } else {
                    let lock = self.barrier_lock(id);
                    self.try_acquire(t, lock, LockPurpose::FutexEnqueue { id, gen }, now, fx);
                }
            }
        }
    }

    /// Release the lock `t` holds and hand off to the oldest actively
    /// spinning waiter, if any.
    fn release_held(&mut self, t: usize, now: Cycles, fx: &mut Effects) {
        let Some(lock) = self.threads[t].held.take() else {
            debug_assert!(false, "release without held lock");
            return;
        };
        debug_assert_eq!(self.locks[lock as usize].holder, Some(t));
        self.locks[lock as usize].holder = None;
        if self.flight.wants(TraceCat::Lock) {
            self.flight.record(
                now,
                FlightEv::LockRelease {
                    vm: VM_UNPATCHED,
                    vcpu: self.threads[t].vcpu as u32,
                    thread: t as u32,
                    lock,
                },
            );
        }
        // Oldest waiter whose VCPU is online (a spinner is always its
        // VCPU's current thread, so online ⇔ actively spinning).
        let grantee = self.locks[lock as usize]
            .waiters
            .iter()
            .copied()
            .find(|&w| self.vcpus[self.threads[w].vcpu].online);
        // Auditor recheck of the FIFO grant rule: every waiter queued
        // ahead of the grantee must be offline, otherwise an older
        // active spinner was skipped. Trivially true of the `find`
        // above — unless the waiter queue or online bookkeeping it
        // reads has been corrupted elsewhere, which is the drift this
        // guards against.
        #[cfg(feature = "audit")]
        if let Some(w) = grantee {
            for &earlier in &self.locks[lock as usize].waiters {
                if earlier == w {
                    break;
                }
                assert!(
                    !self.vcpus[self.threads[earlier].vcpu].online,
                    "audit: lock {lock} grant to thread {w} skipped older \
                     online waiter {earlier}"
                );
            }
        }
        if let Some(w) = grantee {
            let wv = self.threads[w].vcpu;
            debug_assert_eq!(self.vcpus[wv].current, Some(w));
            // Account its spin burn up to the handoff instant.
            self.charge(wv, now);
            self.grant_to(w, now, fx);
            fx.refresh_vcpus.push(wv);
        }
        // If nobody is actively spinning the lock stays free; offline
        // spinners re-check on their next dispatch.
    }

    /// Advance the barrier generation and release every waiter. `t` is
    /// the last-arriving thread executing the release.
    fn complete_barrier(&mut self, id: u32, t: usize, now: Cycles, fx: &mut Effects) {
        let b = &mut self.barriers[id as usize];
        b.generation += 1;
        b.arrived = 0;
        self.stats.barriers_completed += 1;
        let blocked = std::mem::take(&mut b.blocked);
        let spinners = std::mem::take(&mut b.spinners);
        if self.flight.is_enabled() {
            let vcpu = self.threads[t].vcpu as u32;
            if !blocked.is_empty() && self.flight.wants(TraceCat::Futex) {
                self.flight.record(
                    now,
                    FlightEv::FutexWake {
                        vm: VM_UNPATCHED,
                        vcpu,
                        thread: t as u32,
                        futex: id,
                        woken: blocked.len() as u32,
                    },
                );
            }
            if self.flight.wants(TraceCat::Barrier) {
                self.flight.record(
                    now,
                    FlightEv::BarrierRelease {
                        vm: VM_UNPATCHED,
                        vcpu,
                        thread: t as u32,
                        barrier: id,
                        woken: (blocked.len() + spinners.len()) as u32,
                    },
                );
            }
        }
        for w in blocked {
            debug_assert!(matches!(
                self.threads[w].state,
                TState::BlockedBarrier { .. }
            ));
            self.threads[w].state = TState::Work {
                remaining: self.costs.futex_wake_latency + self.costs.barrier_exit,
                then: AfterWork::Fetch,
            };
            self.make_runnable(w, fx);
        }
        for w in spinners {
            match self.threads[w].state {
                TState::Work {
                    then: AfterWork::TryFutexEnqueue { .. },
                    ..
                } => {
                    let wv = self.threads[w].vcpu;
                    if self.vcpus[wv].online && self.vcpus[wv].current == Some(w) {
                        // Charge the spin so far, then let it proceed.
                        self.charge(wv, now);
                        fx.refresh_vcpus.push(wv);
                    }
                    self.threads[w].state = TState::Work {
                        remaining: self.costs.barrier_exit,
                        then: AfterWork::Fetch,
                    };
                }
                TState::SpinKernel {
                    purpose: LockPurpose::FutexEnqueue { .. },
                    ..
                } => {
                    // Contending the barrier lock to enqueue; the stale
                    // generation check in start_locked_work lets it
                    // proceed once it gets the lock. Nothing to do now.
                    // Put it back in the spinner registry so invariants
                    // hold (it deregisters itself on acquisition).
                    self.barriers[id as usize].spinners.push(w);
                }
                TState::SpinKernel {
                    purpose: LockPurpose::TimerTick,
                    ..
                }
                | TState::Work {
                    then: AfterWork::ReleaseThenResume,
                    ..
                } => {
                    // A timer interrupt landed mid-barrier-spin: the spin
                    // segment is stashed in `resume` and will restore as
                    // TryFutexEnqueue, whose stale-generation check lets
                    // the thread proceed. Keep it registered.
                    debug_assert!(matches!(
                        self.threads[w].resume,
                        Some((_, AfterWork::TryFutexEnqueue { .. }))
                    ));
                    self.barriers[id as usize].spinners.push(w);
                }
                ref other => {
                    debug_assert!(false, "unexpected spinner state {other:?}");
                }
            }
        }
    }

    /// Enqueue `t` on its VCPU's runqueue; if the VCPU is offline the
    /// hypervisor is told to wake it.
    fn make_runnable(&mut self, t: usize, fx: &mut Effects) {
        let v = self.threads[t].vcpu;
        self.vcpus[v].runq.push_back(t);
        if !self.vcpus[v].online {
            fx.wake_vcpus.push(v);
        } else if self.vcpus[v].current.is_none() {
            // Online but idle-transitioning; let the VMM re-query.
            fx.refresh_vcpus.push(v);
        }
    }
}

/// Fold a [`TState`] with a distinct discriminant per variant plus every
/// payload field, so no two states can ever alias in the fingerprint.
fn fold_tstate(s: &TState, h: &mut asman_sim::Fnv) {
    match s {
        TState::Fetch => h.write_u32(0),
        TState::Work { remaining, then } => {
            h.write_u32(1);
            h.write_u64(remaining.as_u64());
            fold_afterwork(then, h);
        }
        TState::SpinKernel {
            lock,
            since,
            purpose,
        } => {
            h.write_u32(2);
            h.write_u32(*lock);
            h.write_u64(since.as_u64());
            fold_purpose(purpose, h);
        }
        TState::BlockedBarrier { id } => {
            h.write_u32(3);
            h.write_u32(*id);
        }
        TState::BlockedSem { id, since } => {
            h.write_u32(4);
            h.write_u32(*id);
            h.write_u64(since.as_u64());
        }
        TState::BlockedPeer { peer, target } => {
            h.write_u32(5);
            h.write_usize(*peer);
            h.write_u64(*target);
        }
        TState::Sleep { until } => {
            h.write_u32(6);
            h.write_u64(until.as_u64());
        }
        TState::Done => h.write_u32(7),
    }
}

/// Fold an [`AfterWork`] continuation (discriminant + payload).
fn fold_afterwork(a: &AfterWork, h: &mut asman_sim::Fnv) {
    match a {
        AfterWork::Fetch => h.write_u32(0),
        AfterWork::ReleaseThenFetch => h.write_u32(1),
        AfterWork::ReleaseThenSpin { id } => {
            h.write_u32(2);
            h.write_u32(*id);
        }
        AfterWork::ReleaseThenWake { id } => {
            h.write_u32(3);
            h.write_u32(*id);
        }
        AfterWork::ReleaseThenBlock { id } => {
            h.write_u32(4);
            h.write_u32(*id);
        }
        AfterWork::TryFutexEnqueue { id, gen } => {
            h.write_u32(5);
            h.write_u32(*id);
            h.write_u64(*gen);
        }
        AfterWork::TryPeerEnqueue { peer, target } => {
            h.write_u32(6);
            h.write_usize(*peer);
            h.write_u64(*target);
        }
        AfterWork::ReleaseThenBlockPeer { peer, target } => {
            h.write_u32(7);
            h.write_usize(*peer);
            h.write_u64(*target);
        }
        AfterWork::ReleaseThenWakePeers => h.write_u32(8),
        AfterWork::ReleaseThenResume => h.write_u32(9),
    }
}

/// Fold a [`LockPurpose`] (discriminant + payload).
fn fold_purpose(p: &LockPurpose, h: &mut asman_sim::Fnv) {
    match p {
        LockPurpose::Critical { hold } => {
            h.write_u32(0);
            h.write_u64(hold.as_u64());
        }
        LockPurpose::BarrierEnter { id } => {
            h.write_u32(1);
            h.write_u32(*id);
        }
        LockPurpose::FutexEnqueue { id, gen } => {
            h.write_u32(2);
            h.write_u32(*id);
            h.write_u64(*gen);
        }
        LockPurpose::TimerTick => h.write_u32(3),
        LockPurpose::PeerEnqueue { peer, target } => {
            h.write_u32(4);
            h.write_usize(*peer);
            h.write_u64(*target);
        }
        LockPurpose::PeerWake => h.write_u32(5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NullObserver;
    use asman_workloads::ScriptProgram;

    fn costs() -> GuestCosts {
        GuestCosts::default()
    }

    fn fx() -> Effects {
        Effects::default()
    }

    /// Single thread, pure compute: dispatch -> Timed -> work_complete ->
    /// Done/Idle.
    #[test]
    fn single_thread_compute_lifecycle() {
        let p = ScriptProgram::new("t", vec![vec![Op::Compute(Cycles(1_000))]]);
        let mut g = GuestKernel::new(Box::new(p), 1, costs(), Box::new(NullObserver));
        let mut e = fx();
        let w = g.dispatch(0, Cycles(0), Cycles(0), &mut e);
        assert_eq!(
            w,
            GuestWork::Timed {
                thread: 0,
                dur: Cycles(1_000)
            }
        );
        let w2 = g.work_complete(0, Cycles(1_000), &mut e);
        assert_eq!(w2, GuestWork::Idle);
        assert!(g.is_finished());
        assert_eq!(g.stats().finished_at, Some(Cycles(1_000)));
        assert_eq!(g.stats().useful_cycles, Cycles(1_000));
    }

    /// Preemption mid-segment preserves remaining work.
    #[test]
    fn preempt_charges_partial_progress() {
        let p = ScriptProgram::new("t", vec![vec![Op::Compute(Cycles(1_000))]]);
        let mut g = GuestKernel::new(Box::new(p), 1, costs(), Box::new(NullObserver));
        let mut e = fx();
        g.dispatch(0, Cycles(0), Cycles(0), &mut e);
        g.preempt(0, Cycles(400));
        // Re-dispatch later: 600 cycles remain.
        let w = g.dispatch(0, Cycles(10_000), Cycles(0), &mut e);
        assert_eq!(
            w,
            GuestWork::Timed {
                thread: 0,
                dur: Cycles(600)
            }
        );
        let w2 = g.work_complete(0, Cycles(10_600), &mut e);
        assert_eq!(w2, GuestWork::Idle);
        assert!(g.is_finished());
    }

    /// Two threads on two VCPUs contending one lock: the second spins
    /// until the first releases; wait time is measured from the attempt.
    #[test]
    fn contended_lock_spins_and_hands_off() {
        let cs = |hold| Op::CriticalSection {
            lock: 0,
            hold: Cycles(hold),
        };
        let p = ScriptProgram::new("t", vec![vec![cs(1_000)], vec![cs(500)]]);
        let mut g = GuestKernel::new(Box::new(p), 2, costs(), Box::new(NullObserver));
        let mut e = fx();
        // Thread 0 acquires at t=0.
        let w0 = g.dispatch(0, Cycles(0), Cycles(0), &mut e);
        assert_eq!(
            w0,
            GuestWork::Timed {
                thread: 0,
                dur: Cycles(1_000)
            }
        );
        // Thread 1 contends at t=100: spins.
        let w1 = g.dispatch(1, Cycles(100), Cycles(0), &mut e);
        assert_eq!(w1, GuestWork::Spin { thread: 1 });
        // Thread 0 finishes its hold at t=1000: releases, grants to 1.
        e.clear();
        let w0b = g.work_complete(0, Cycles(1_000), &mut e);
        assert_eq!(w0b, GuestWork::Idle, "thread 0 done");
        assert_eq!(e.refresh_vcpus, vec![1], "vcpu 1's work changed");
        // VCPU 1 now has timed work: the 500-cycle hold.
        let w1b = g.dispatch_work(1, Cycles(1_000), &mut e);
        assert_eq!(
            w1b,
            GuestWork::Timed {
                thread: 1,
                dur: Cycles(500)
            }
        );
        // Wait time = 1000-100 + handoff.
        assert_eq!(g.stats().wait_hist.count(), 2);
        let expected_wait = 900 + costs().lock_handoff.as_u64();
        assert_eq!(g.stats().wait_cycles.count(), 1);
        assert_eq!(g.stats().wait_cycles.max(), Some(expected_wait as f64));
        // Spin burn was charged.
        assert_eq!(g.stats().spin_kernel_cycles, Cycles(900));
    }

    /// The clean-after half of the long-horizon hardening: a cumulative
    /// spin counter sitting near the ceiling saturates at `Cycles::MAX`
    /// instead of overflowing. Pre-fix (plain `+=`), this test died in
    /// debug builds with "attempt to add with overflow" when the 900
    /// spin cycles landed.
    #[test]
    fn spin_counters_saturate_near_the_ceiling() {
        let cs = |hold| Op::CriticalSection {
            lock: 0,
            hold: Cycles(hold),
        };
        let p = ScriptProgram::new("t", vec![vec![cs(1_000)], vec![cs(500)]]);
        let mut g = GuestKernel::new(Box::new(p), 2, costs(), Box::new(NullObserver));
        g.stats_mut().spin_kernel_cycles = Cycles(u64::MAX - 10);
        let mut e = fx();
        g.dispatch(0, Cycles(0), Cycles(0), &mut e);
        g.dispatch(1, Cycles(100), Cycles(0), &mut e); // contender spins
        e.clear();
        g.work_complete(0, Cycles(1_000), &mut e); // charges 900 spin cycles
        assert_eq!(
            g.stats().spin_kernel_cycles,
            Cycles::MAX,
            "pinned, not wrapped"
        );
    }

    /// Lock-holder preemption: holder goes offline mid-hold; the waiter's
    /// wait spans the holder's offline gap and is counted as a holder
    /// preemption.
    #[test]
    fn lock_holder_preemption_produces_long_wait() {
        let cs = |hold| Op::CriticalSection {
            lock: 0,
            hold: Cycles(hold),
        };
        let p = ScriptProgram::new("t", vec![vec![cs(10_000)], vec![cs(500)]]);
        let mut g = GuestKernel::new(Box::new(p), 2, costs(), Box::new(NullObserver));
        let mut e = fx();
        g.dispatch(0, Cycles(0), Cycles(0), &mut e);
        // Holder preempted 5000 cycles into its 10000-cycle hold.
        g.preempt(0, Cycles(5_000));
        assert_eq!(g.stats().holder_preemptions, 1);
        // Waiter arrives and spins across the holder's absence.
        let w1 = g.dispatch(1, Cycles(6_000), Cycles(0), &mut e);
        assert_eq!(w1, GuestWork::Spin { thread: 1 });
        // Holder comes back much later (simulating a 2^21-cycle gap).
        let resume = Cycles(5_000 + (1 << 21));
        let w0 = g.dispatch(0, resume, Cycles(0), &mut e);
        assert_eq!(
            w0,
            GuestWork::Timed {
                thread: 0,
                dur: Cycles(5_000)
            }
        );
        e.clear();
        g.work_complete(0, resume + Cycles(5_000), &mut e);
        assert_eq!(e.refresh_vcpus, vec![1]);
        // The recorded wait is over-threshold (> 2^20).
        assert_eq!(g.stats().over_threshold_count(20), 1);
    }

    /// A full barrier among 2 threads: first arriver spins then the last
    /// arriver completes; both proceed.
    #[test]
    fn barrier_releases_spinning_waiter() {
        // Timer injection off so announced durations equal the raw costs.
        let mut c = costs();
        c.timer_hold = Cycles(0);
        let script = vec![Op::Barrier { id: 0 }, Op::Compute(Cycles(100))];
        let p = ScriptProgram::homogeneous("b", 2, script);
        let mut g = GuestKernel::new(Box::new(p), 2, c, Box::new(NullObserver));
        let mut e = fx();
        // Thread 0 arrives first: barrier-enter bookkeeping.
        let w0 = g.dispatch(0, Cycles(0), Cycles(0), &mut e);
        let GuestWork::Timed { thread: 0, dur } = w0 else {
            panic!("expected barrier enter work, got {w0:?}");
        };
        assert_eq!(dur, costs().barrier_enter);
        // Finish bookkeeping: thread 0 enters the spin phase.
        let w0b = g.work_complete(0, dur, &mut e);
        let GuestWork::Timed {
            thread: 0,
            dur: spin,
        } = w0b
        else {
            panic!("expected spin budget, got {w0b:?}");
        };
        assert_eq!(spin, costs().barrier_spin_budget);
        // Thread 1 arrives: it is the last; wake work.
        let t1_start = Cycles(2_000);
        let w1 = g.dispatch(1, t1_start, Cycles(0), &mut e);
        let GuestWork::Timed {
            thread: 1,
            dur: wake,
        } = w1
        else {
            panic!("expected wake work, got {w1:?}");
        };
        assert_eq!(
            wake,
            costs().barrier_wake_base + costs().barrier_wake_per_waiter
        );
        e.clear();
        let w1b = g.work_complete(1, t1_start + wake, &mut e);
        // Thread 1 proceeds to its compute.
        assert_eq!(
            w1b,
            GuestWork::Timed {
                thread: 1,
                dur: Cycles(100)
            }
        );
        // Thread 0 (spinning online) was refreshed to exit the barrier.
        assert_eq!(e.refresh_vcpus, vec![0]);
        let w0c = g.dispatch_work(0, t1_start + wake, &mut e);
        let GuestWork::Timed {
            thread: 0,
            dur: exit,
        } = w0c
        else {
            panic!("expected barrier exit, got {w0c:?}");
        };
        assert_eq!(exit, costs().barrier_exit);
        assert_eq!(g.stats().barriers_completed, 1);
    }

    /// If a spinner exhausts its budget it blocks on the futex and its
    /// VCPU goes idle; barrier completion wakes the VCPU.
    #[test]
    fn barrier_spinner_blocks_then_wakes() {
        // Timer injection off so the op sequence is exactly the barrier
        // protocol under test.
        let mut c = costs();
        c.timer_hold = Cycles(0);
        let script = vec![Op::Barrier { id: 0 }, Op::Compute(Cycles(100))];
        let p = ScriptProgram::homogeneous("b", 2, script);
        let mut g = GuestKernel::new(Box::new(p), 2, c, Box::new(NullObserver));
        let mut e = fx();
        // Thread 0 arrives, finishes bookkeeping, exhausts its spin
        // budget, enqueues on the futex and blocks.
        let mut now = Cycles(0);
        let mut w = g.dispatch(0, now, Cycles(0), &mut e);
        for _ in 0..8 {
            match w {
                GuestWork::Timed { thread: 0, dur } => {
                    now += dur;
                    w = g.work_complete(0, now, &mut e);
                }
                GuestWork::Idle => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(w, GuestWork::Idle, "vcpu 0 idles once thread 0 blocks");
        assert!(matches!(
            g.threads[0].state,
            TState::BlockedBarrier { id: 0 }
        ));
        g.preempt(0, now);
        // Thread 1 arrives much later and completes the barrier.
        let mut now1 = now + Cycles(50_000);
        let mut w1 = g.dispatch(1, now1, Cycles(0), &mut e);
        e.clear();
        loop {
            match w1 {
                GuestWork::Timed { thread: 1, dur } => {
                    now1 += dur;
                    w1 = g.work_complete(1, now1, &mut e);
                }
                GuestWork::Idle => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(g.is_finished() || matches!(g.threads[1].state, TState::Done));
        // VCPU 0 must have been asked to wake for the blocked thread.
        assert!(e.wake_vcpus.contains(&0), "wake_vcpus: {:?}", e.wake_vcpus);
        // Resume VCPU 0: it runs the wake-latency + exit work then its
        // compute, then finishes.
        let mut now0 = now1 + Cycles(1_000);
        let mut w0 = g.dispatch(0, now0, Cycles(0), &mut e);
        loop {
            match w0 {
                GuestWork::Timed { thread: 0, dur } => {
                    now0 += dur;
                    w0 = g.work_complete(0, now0, &mut e);
                }
                GuestWork::Idle => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(g.is_finished());
        assert_eq!(g.stats().barriers_completed, 1);
    }

    /// Two threads sharing one VCPU must round-robin on the guest quantum.
    #[test]
    fn guest_quantum_rotates_threads() {
        // Disable timer injection so the op stream is purely the quantum
        // rotation under test.
        let mut c = costs();
        c.timer_hold = Cycles(0);
        let q = c.guest_quantum;
        let big = Cycles(q.as_u64() * 10);
        let p = ScriptProgram::new("rr", vec![vec![Op::Compute(big)], vec![Op::Compute(big)]]);
        let mut g = GuestKernel::new(Box::new(p), 1, c, Box::new(NullObserver));
        let mut e = fx();
        let w = g.dispatch(0, Cycles(0), Cycles(0), &mut e);
        // First slice: thread 0, capped at the quantum.
        assert_eq!(w, GuestWork::Timed { thread: 0, dur: q });
        let w2 = g.work_complete(0, q, &mut e);
        // Rotation: thread 1 now runs.
        assert_eq!(w2, GuestWork::Timed { thread: 1, dur: q });
        let w3 = g.work_complete(0, q + q, &mut e);
        assert_eq!(w3, GuestWork::Timed { thread: 0, dur: q });
    }

    /// Sleeping threads release the VCPU and wake via timer.
    #[test]
    fn sleep_blocks_and_timer_wakes() {
        let p = ScriptProgram::new(
            "s",
            vec![vec![Op::Sleep(Cycles(5_000)), Op::Compute(Cycles(10))]],
        );
        let mut g = GuestKernel::new(Box::new(p), 1, costs(), Box::new(NullObserver));
        let mut e = fx();
        let w = g.dispatch(0, Cycles(0), Cycles(0), &mut e);
        assert_eq!(w, GuestWork::Idle);
        assert_eq!(e.sleep_timers, vec![(0, Cycles(5_000))]);
        g.preempt(0, Cycles(0));
        e.clear();
        g.sleep_timer(0, Cycles(5_000), &mut e);
        assert_eq!(e.wake_vcpus, vec![0]);
        let w2 = g.dispatch(0, Cycles(5_000), Cycles(0), &mut e);
        assert_eq!(
            w2,
            GuestWork::Timed {
                thread: 0,
                dur: Cycles(10)
            }
        );
    }

    /// Marks are zero-cost and counted.
    #[test]
    fn marks_count_transactions_and_rounds() {
        let p = ScriptProgram::new(
            "m",
            vec![vec![
                Op::Mark(Mark::Transaction),
                Op::Mark(Mark::Transaction),
                Op::Mark(Mark::RoundEnd),
                Op::Compute(Cycles(10)),
            ]],
        );
        let mut g = GuestKernel::new(Box::new(p), 1, costs(), Box::new(NullObserver));
        let mut e = fx();
        let w = g.dispatch(0, Cycles(77), Cycles(0), &mut e);
        assert_eq!(
            w,
            GuestWork::Timed {
                thread: 0,
                dur: Cycles(10)
            }
        );
        assert_eq!(g.stats().transactions, 2);
        assert_eq!(g.stats().vm_rounds_completed(), 1);
        assert_eq!(g.stats().vm_round_time(0), Some(Cycles(77)));
    }

    /// An offline waiter does not receive a released lock; it barges on
    /// its next dispatch instead.
    #[test]
    fn offline_waiter_acquires_on_redispatch() {
        let cs = |hold| Op::CriticalSection {
            lock: 0,
            hold: Cycles(hold),
        };
        let p = ScriptProgram::new("t", vec![vec![cs(1_000)], vec![cs(500)]]);
        let mut g = GuestKernel::new(Box::new(p), 2, costs(), Box::new(NullObserver));
        let mut e = fx();
        g.dispatch(0, Cycles(0), Cycles(0), &mut e);
        assert_eq!(
            g.dispatch(1, Cycles(100), Cycles(0), &mut e),
            GuestWork::Spin { thread: 1 }
        );
        // Waiter preempted while spinning.
        g.preempt(1, Cycles(500));
        // Holder releases with no active spinner.
        e.clear();
        g.work_complete(0, Cycles(1_000), &mut e);
        assert!(e.refresh_vcpus.is_empty(), "no online waiter to grant");
        // Waiter redispatced: acquires the now-free lock immediately.
        let w = g.dispatch(1, Cycles(20_000), Cycles(0), &mut e);
        assert_eq!(
            w,
            GuestWork::Timed {
                thread: 1,
                dur: Cycles(500)
            }
        );
        // Its wait spans from the original attempt at t=100.
        let waits = &g.stats().wait_cycles;
        assert_eq!(waits.count(), 1);
        assert!(waits.min() >= Some(19_900.0));
    }

    /// vcpu_runnable reflects queued work.
    #[test]
    fn vcpu_runnable_tracks_states() {
        let p = ScriptProgram::new(
            "r",
            vec![vec![Op::Sleep(Cycles(100)), Op::Compute(Cycles(10))]],
        );
        let mut g = GuestKernel::new(Box::new(p), 1, costs(), Box::new(NullObserver));
        assert!(g.vcpu_runnable(0));
        let mut e = fx();
        assert_eq!(g.dispatch(0, Cycles(0), Cycles(0), &mut e), GuestWork::Idle);
        assert!(!g.vcpu_runnable(0), "thread asleep");
        g.preempt(0, Cycles(0));
        g.sleep_timer(0, Cycles(100), &mut e);
        assert!(g.vcpu_runnable(0));
    }
}
