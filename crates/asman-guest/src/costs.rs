//! Cost model for guest-kernel operations.
//!
//! The constants correspond to well-known magnitudes on mid-2000s x86
//! (the paper's Xeon X5410): an uncontended spinlock acquisition costs on
//! the order of 10² cycles, a futex enqueue/wake around 10³, and libgomp's
//! default barrier spin budget is on the order of 10⁵ cycles before a
//! thread gives up and blocks. Every value is configurable so ablations
//! can probe sensitivity.

use asman_sim::{Clock, Cycles};
use serde::Serialize;

/// Cycle costs of guest-kernel operations.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct GuestCosts {
    /// Wait recorded for an uncontended spinlock acquisition (atomic RMW +
    /// cacheline transfer).
    pub lock_uncontended: Cycles,
    /// Extra wait added on a contended handoff (cacheline ping).
    pub lock_handoff: Cycles,
    /// Work done under the barrier lock when a thread arrives
    /// (increment/check of the arrival count).
    pub barrier_enter: Cycles,
    /// Base work done by the last arriver to release a barrier.
    pub barrier_wake_base: Cycles,
    /// Additional wake work per blocked waiter (futex wake walk).
    pub barrier_wake_per_waiter: Cycles,
    /// Scheduling latency charged to a thread woken from a futex wait
    /// before it resumes useful work.
    pub futex_wake_latency: Cycles,
    /// Work done under the barrier lock to enqueue on the futex after the
    /// spin budget is exhausted.
    pub futex_enqueue: Cycles,
    /// User-space spin budget at a barrier before blocking (libgomp-style
    /// hybrid waiting).
    pub barrier_spin_budget: Cycles,
    /// Cost for a spinning/blocked thread to proceed once its barrier
    /// completes.
    pub barrier_exit: Cycles,
    /// Guest scheduler timeslice when several threads share a VCPU.
    pub guest_quantum: Cycles,
    /// User-space spin budget on a pipeline (producer–consumer flag)
    /// wait before blocking. OpenMP runtimes spin these waits far longer
    /// than barrier waits because handoffs are normally immediate.
    pub pipeline_spin_budget: Cycles,
    /// Mean interval of *kernel entries* per online VCPU: the aggregate
    /// of timer interrupts (HZ=1000), syscalls, page faults and IRQ work.
    /// Each entry takes a short critical section on a shared kernel lock.
    pub timer_period: Cycles,
    /// Time each kernel entry holds the shared (`xtime`-style) lock. The
    /// defaults give ~2.4% of guest time inside kernel critical sections,
    /// typical for HZ=1000-era kernels — and exactly the exposure that
    /// turns VCPU preemption into lock-holder-preemption convoys.
    pub timer_hold: Cycles,
}

impl Default for GuestCosts {
    fn default() -> Self {
        let clk = Clock::default();
        GuestCosts {
            lock_uncontended: Cycles(120),
            lock_handoff: Cycles(240),
            barrier_enter: Cycles(800),
            barrier_wake_base: Cycles(1_500),
            barrier_wake_per_waiter: Cycles(600),
            futex_wake_latency: clk.us(6),
            futex_enqueue: Cycles(900),
            barrier_spin_budget: clk.us(1_000),
            barrier_exit: Cycles(300),
            guest_quantum: clk.ms(1),
            pipeline_spin_budget: clk.ms(30),
            timer_period: clk.us(250),
            timer_hold: clk.us(6),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_have_sane_magnitudes() {
        let c = GuestCosts::default();
        // Uncontended acquisitions must be far below the paper's 2^10
        // "interesting wait" floor, let alone the 2^20 over-threshold.
        assert!(c.lock_uncontended.as_u64() < (1 << 10));
        assert!((c.lock_uncontended + c.lock_handoff).as_u64() < (1 << 10));
        // The spin budget must sit below a 10 ms scheduling slot,
        // otherwise barrier waiters would never block.
        let slot = Clock::default().ms(10);
        assert!(c.barrier_spin_budget < slot);
        // And the quantum must be positive and below the slot.
        assert!(c.guest_quantum > Cycles::ZERO && c.guest_quantum < slot);
        // Timer: sub-slot period, hold far below the over-threshold bound.
        assert!(c.timer_period < slot);
        assert!(c.timer_hold.as_u64() < (1 << 15));
        // The pipeline spin budget is deliberately large — effectively
        // active waiting, as 2011-era OpenMP runtimes spun flag waits —
        // but still bounded (a few scheduling slots) so a deeply stalled
        // thread eventually blocks instead of livelocking.
        assert!(c.pipeline_spin_budget > c.barrier_spin_budget);
        assert!(c.pipeline_spin_budget <= slot * 4);
        // Kernel entries must be frequent relative to the slot, with a
        // lock-held fraction in the low percent range.
        let held_frac = c.timer_hold.as_u64() as f64 / c.timer_period.as_u64() as f64;
        assert!((0.005..0.10).contains(&held_frac), "held_frac {held_frac}");
    }
}
