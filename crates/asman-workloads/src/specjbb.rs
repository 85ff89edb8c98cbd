//! SPECjbb2005-like throughput workload.
//!
//! SPECjbb2005 emulates a 3-tier Java business system entirely inside one
//! JVM: `W` warehouse threads execute a transaction mix against
//! district/warehouse tables, with no I/O or network traffic. The paper
//! uses it to measure how scheduling affects a *contended* throughput
//! workload on a 4-VCPU VM while the warehouse count ramps from 1 to 8.
//!
//! The model: each warehouse thread loops over transactions consisting of
//! local computation plus, with some probability, a critical section on a
//! shared structure (stock/order tables guarded by JVM monitors). A
//! contended JVM monitor inflates through the kernel futex path, which is
//! exactly what the paper's Monitoring Module instruments — so the model
//! folds the monitor acquisition into an instrumented kernel critical
//! section. Throughput is counted via [`Mark::Transaction`]
//! (`bops` ≈ transactions/second in the measurement window).

use asman_sim::{Clock, Cycles, SimRng};
use serde::Serialize;

use crate::ops::{Mark, Op, Program};

/// Tunables for the SPECjbb-like model.
#[derive(Clone, Debug, Serialize)]
pub struct SpecJbbConfig {
    /// Number of warehouse threads (the paper sweeps 1..=8).
    pub warehouses: usize,
    /// Mean computation per transaction.
    pub tx_compute: Cycles,
    /// Jitter fraction on transaction compute.
    pub tx_jitter: f64,
    /// Probability that a transaction touches a shared table (takes the
    /// global lock).
    pub shared_access_prob: f64,
    /// Mean hold time of the shared lock.
    pub shared_hold: Cycles,
    /// Number of distinct shared locks (lock striping across tables).
    pub shared_locks: u32,
    /// Transactions per warehouse between JVM stop-the-world safepoints
    /// (GC / deoptimization). Every warehouse thread must reach its next
    /// safepoint poll before the VM proceeds — a global barrier, which is
    /// what couples SPECjbb's otherwise independent warehouses to the
    /// scheduler. 0 disables safepoints.
    pub gc_every_tx: u64,
    /// Parallel GC work per thread inside the safepoint.
    pub gc_work: Cycles,
}

impl Default for SpecJbbConfig {
    fn default() -> Self {
        let clk = Clock::default();
        SpecJbbConfig {
            warehouses: 4,
            tx_compute: clk.us(900),
            tx_jitter: 0.5,
            shared_access_prob: 0.45,
            shared_hold: clk.us(60),
            shared_locks: 1,
            gc_every_tx: 40,
            gc_work: clk.ms(3),
        }
    }
}

/// SPECjbb-like program: open-ended transaction streams per warehouse.
pub struct SpecJbb {
    cfg: SpecJbbConfig,
    name: String,
    /// Per-thread: RNG + whether the pending op is the tail of a
    /// transaction (so we interleave compute → [lock] → mark).
    threads: Vec<WarehouseState>,
}

struct WarehouseState {
    rng: SimRng,
    stage: Stage,
    tx_done: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    Compute,
    MaybeLock,
    Mark,
    /// Entering the stop-the-world safepoint (barrier in).
    GcEnter,
    /// Parallel GC work inside the pause.
    GcWork,
    /// Leaving the safepoint (barrier out).
    GcExit,
}

impl SpecJbb {
    /// Create the workload with `cfg` and a deterministic seed.
    pub fn new(cfg: SpecJbbConfig, seed: u64) -> Self {
        assert!(cfg.warehouses > 0);
        let mut root = SimRng::new(seed);
        let threads = (0..cfg.warehouses)
            .map(|t| WarehouseState {
                rng: root.fork(t as u64),
                stage: Stage::Compute,
                tx_done: 0,
            })
            .collect();
        SpecJbb {
            name: format!("SPECjbb(w={})", cfg.warehouses),
            cfg,
            threads,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SpecJbbConfig {
        &self.cfg
    }
}

impl Program for SpecJbb {
    fn name(&self) -> &str {
        &self.name
    }

    fn thread_count(&self) -> usize {
        self.cfg.warehouses
    }

    fn next_op(&mut self, tid: usize) -> Op {
        let st = &mut self.threads[tid];
        match st.stage {
            Stage::Compute => {
                st.stage = Stage::MaybeLock;
                Op::Compute(Cycles(
                    st.rng
                        .jitter(self.cfg.tx_compute.as_u64(), self.cfg.tx_jitter),
                ))
            }
            Stage::MaybeLock => {
                st.stage = Stage::Mark;
                if st.rng.chance(self.cfg.shared_access_prob) {
                    Op::CriticalSection {
                        lock: st.rng.below(self.cfg.shared_locks as u64) as u32,
                        hold: Cycles(st.rng.jitter(self.cfg.shared_hold.as_u64(), 0.4)),
                    }
                } else {
                    // No shared access this transaction; fall through with
                    // a tiny bookkeeping compute so every stage yields an op.
                    Op::Compute(Cycles(200))
                }
            }
            Stage::Mark => {
                st.tx_done += 1;
                st.stage = if self.cfg.gc_every_tx > 0
                    && st.tx_done.is_multiple_of(self.cfg.gc_every_tx)
                {
                    Stage::GcEnter
                } else {
                    Stage::Compute
                };
                Op::Mark(Mark::Transaction)
            }
            Stage::GcEnter => {
                st.stage = Stage::GcWork;
                Op::Barrier { id: 0 }
            }
            Stage::GcWork => {
                st.stage = Stage::GcExit;
                Op::Compute(Cycles(st.rng.jitter(self.cfg.gc_work.as_u64(), 0.3)))
            }
            Stage::GcExit => {
                st.stage = Stage::Compute;
                Op::Barrier { id: 0 }
            }
        }
    }

    fn kernel_locks(&self) -> u32 {
        self.cfg.shared_locks
    }

    fn barriers(&self) -> u32 {
        u32::from(self.cfg.gc_every_tx > 0)
    }

    fn finite(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transaction_cycle_repeats() {
        let mut jbb = SpecJbb::new(SpecJbbConfig::default(), 1);
        let mut marks = 0u64;
        let mut locks = 0u64;
        let mut barriers = 0u64;
        let mut ops = 0u64;
        while marks < 1_050 {
            ops += 1;
            match jbb.next_op(0) {
                Op::Mark(Mark::Transaction) => marks += 1,
                Op::CriticalSection { .. } => locks += 1,
                Op::Barrier { .. } => barriers += 1,
                Op::Done => panic!("SPECjbb never finishes"),
                _ => {}
            }
        }
        // Three ops per transaction plus three per safepoint.
        assert_eq!(ops, 3 * marks + 3 * (barriers / 2));
        // ~45% of transactions take the shared lock.
        assert!((380..560).contains(&locks), "lock count {locks}");
        // A stop-the-world safepoint (two barriers) every gc_every_tx.
        assert_eq!(barriers, 2 * (1_050 / SpecJbbConfig::default().gc_every_tx));
    }

    #[test]
    fn warehouses_set_thread_count() {
        for w in 1..=8 {
            let jbb = SpecJbb::new(
                SpecJbbConfig {
                    warehouses: w,
                    ..SpecJbbConfig::default()
                },
                9,
            );
            assert_eq!(jbb.thread_count(), w);
            assert!(!jbb.finite());
        }
    }

    #[test]
    fn per_thread_streams_are_independent() {
        let mut a = SpecJbb::new(SpecJbbConfig::default(), 5);
        let mut b = SpecJbb::new(SpecJbbConfig::default(), 5);
        // Pull thread 1 in a first, thread 0 in b first; streams per thread
        // must be identical regardless of interleaving.
        let a1: Vec<Op> = (0..30).map(|_| a.next_op(1)).collect();
        let _b0: Vec<Op> = (0..30).map(|_| b.next_op(0)).collect();
        let b1: Vec<Op> = (0..30).map(|_| b.next_op(1)).collect();
        assert_eq!(a1, b1);
    }
}
