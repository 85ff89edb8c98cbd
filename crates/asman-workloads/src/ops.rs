//! The workload instruction set and the [`Program`] abstraction.
//!
//! Workloads describe *what a guest thread does next*; the guest-kernel
//! model (crate `asman-guest`) interprets these ops against simulated
//! synchronization primitives, and the hypervisor model charges the cycles
//! to whichever VCPU the thread happens to run on.

use asman_sim::Cycles;
use serde::Serialize;

/// One step of a guest thread's program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Op {
    /// Burn `0` cycles of pure user-space computation.
    Compute(Cycles),
    /// Enter a guest-kernel critical section: acquire kernel spinlock
    /// `lock`, hold it for `hold` cycles of work, release it.
    ///
    /// This models every kernel-mediated synchronization path the paper's
    /// Monitoring Module instruments: futex bucket locks, runqueue locks,
    /// and (for SPECjbb) contended JVM monitor inflation. Waiters **spin**:
    /// if the holder's VCPU is preempted, the waiters burn their whole
    /// timeslice — the lock-holder preemption phenomenon of §2.2.
    CriticalSection {
        /// VM-local kernel spinlock index (see [`Program::kernel_locks`]).
        lock: u32,
        /// Cycles of work performed while the lock is held.
        hold: Cycles,
    },
    /// Synchronize with all sibling threads of this program at barrier
    /// `id`. The guest implements the OpenMP/futex hybrid: brief kernel
    /// bookkeeping under a spinlock, bounded user-space spinning, then a
    /// blocking futex wait (semaphore-style, VCPU can go idle).
    Barrier {
        /// VM-local barrier index (see [`Program::barriers`]).
        id: u32,
    },
    /// Block (non-busy wait) for the given duration — models sleeps and
    /// I/O waits, during which the VCPU may be descheduled without cost.
    Sleep(Cycles),
    /// Publish progress: increment this thread's progress counter (e.g.
    /// "plane `k` of the sweep is done"). Zero cost; releases any peers
    /// spin-waiting on this thread via [`Op::WaitPeer`].
    Advance,
    /// Pipelined point-to-point synchronization (the wavefront pattern of
    /// NPB-LU's SSOR solver): wait until thread `peer`'s progress counter
    /// reaches `target`. The guest implements the producer–consumer flag
    /// wait the way OpenMP runtimes do: **user-space spinning** up to a
    /// budget, then a futex block. Under asynchronous VCPU scheduling the
    /// producer may be offline for entire scheduling slices, so this is
    /// the op that burns budget catastrophically — the headline LU
    /// behaviour of Figures 1–2.
    WaitPeer {
        /// Thread index whose progress is awaited.
        peer: u32,
        /// Progress value to wait for.
        target: u64,
    },
    /// Block on counting semaphore `id` until a token is available
    /// (non-busy waiting: the VCPU can be descheduled at no spin cost —
    /// the §2.2 contrast to spinlocks).
    SemWait {
        /// VM-local semaphore index (see [`Program::semaphores`]).
        id: u32,
    },
    /// Post one token to semaphore `id`, waking the oldest waiter.
    SemPost {
        /// VM-local semaphore index.
        id: u32,
    },
    /// Zero-duration progress marker for throughput accounting.
    Mark(Mark),
    /// The thread has finished; it will never be polled again.
    Done,
}

/// Progress markers emitted by workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Mark {
    /// One unit of throughput work completed (e.g. a SPECjbb transaction).
    Transaction,
    /// One complete round of the benchmark finished on this thread. The
    /// multi-VM experiments (§5.3) time the first ten rounds of each
    /// benchmark; a VM-level round completes when all threads have passed
    /// the same round index.
    RoundEnd,
}

/// A deterministic multi-threaded workload generator.
///
/// The executor calls [`next_op`](Program::next_op) for a thread exactly
/// when that thread completed its previous op, so programs are simple
/// cursor state machines and never deal with simulated time. Programs own
/// their RNG (seeded at construction) which keeps runs reproducible.
pub trait Program: Send {
    /// Human-readable benchmark name (used in experiment tables).
    fn name(&self) -> &str;

    /// Number of guest threads this program drives.
    fn thread_count(&self) -> usize;

    /// Produce the next op for `tid` (`0..thread_count()`). Must keep
    /// returning [`Op::Done`] once the thread finished.
    fn next_op(&mut self, tid: usize) -> Op;

    /// How many distinct kernel spinlocks the program references. The
    /// guest pre-allocates this many locks per VM (ids `0..kernel_locks`).
    fn kernel_locks(&self) -> u32 {
        0
    }

    /// How many distinct barriers the program references.
    fn barriers(&self) -> u32 {
        0
    }

    /// How many distinct counting semaphores the program references
    /// (all start with zero tokens).
    fn semaphores(&self) -> u32 {
        0
    }

    /// Whether this program ever finishes (`false` for open-ended
    /// throughput workloads that run until the simulation horizon).
    fn finite(&self) -> bool {
        true
    }
}

impl Program for Box<dyn Program> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn thread_count(&self) -> usize {
        (**self).thread_count()
    }
    fn next_op(&mut self, tid: usize) -> Op {
        (**self).next_op(tid)
    }
    fn kernel_locks(&self) -> u32 {
        (**self).kernel_locks()
    }
    fn barriers(&self) -> u32 {
        (**self).barriers()
    }
    fn semaphores(&self) -> u32 {
        (**self).semaphores()
    }
    fn finite(&self) -> bool {
        (**self).finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TwoStep {
        emitted: Vec<u8>,
    }

    impl Program for TwoStep {
        fn name(&self) -> &str {
            "two-step"
        }
        fn thread_count(&self) -> usize {
            1
        }
        fn next_op(&mut self, tid: usize) -> Op {
            assert_eq!(tid, 0);
            self.emitted.push(1);
            if self.emitted.len() == 1 {
                Op::Compute(Cycles(10))
            } else {
                Op::Done
            }
        }
    }

    #[test]
    fn boxed_program_delegates() {
        let mut p: Box<dyn Program> = Box::new(TwoStep { emitted: vec![] });
        assert_eq!(p.name(), "two-step");
        assert_eq!(p.thread_count(), 1);
        assert_eq!(p.next_op(0), Op::Compute(Cycles(10)));
        assert_eq!(p.next_op(0), Op::Done);
        assert_eq!(p.kernel_locks(), 0);
        assert_eq!(p.barriers(), 0);
        assert!(p.finite());
    }
}
