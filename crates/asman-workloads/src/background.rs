//! Background service activity (Domain-0 model).
//!
//! On a real Xen host the administrator domain is never silent even when
//! "idle": its VCPUs wake for device interrupts, timekeeping, xenstore
//! transactions and console traffic — short bursts at irregular
//! intervals, amounting to a few percent of host CPU. These bursts arrive
//! with BOOST priority on whatever PCPU the dom0 VCPU is homed on, so
//! they randomly nick the guest VMs' scheduling windows. That ambient
//! perturbation is what keeps real sibling VCPUs from ever settling into
//! an accidentally-coscheduled lockstep — without it a clean-room
//! simulation reaches a symmetric fixed point that no physical host
//! exhibits.

use asman_sim::{Clock, Cycles, SimRng};
use serde::Serialize;

use crate::ops::{Op, Program};

/// Parameters of the background service model.
#[derive(Clone, Debug, Serialize)]
pub struct BackgroundConfig {
    /// Mean time between bursts per VCPU.
    pub mean_period: Cycles,
    /// Mean burst length.
    pub mean_burst: Cycles,
    /// Fraction of bursts that include a short kernel critical section
    /// (interrupt bookkeeping).
    pub kernel_frac: f64,
}

impl Default for BackgroundConfig {
    fn default() -> Self {
        let clk = Clock::default();
        BackgroundConfig {
            mean_period: clk.ms(5),
            mean_burst: clk.us(150),
            kernel_frac: 0.3,
        }
    }
}

/// Dom0-style background program: each thread sleeps ~exponentially, then
/// runs a short burst, forever.
pub struct BackgroundService {
    cfg: BackgroundConfig,
    threads: Vec<ThreadState>,
}

struct ThreadState {
    rng: SimRng,
    phase: u8,
}

impl BackgroundService {
    /// One background thread per VCPU, deterministic per `seed`.
    pub fn new(cfg: BackgroundConfig, vcpus: usize, seed: u64) -> Self {
        assert!(vcpus > 0);
        let mut root = SimRng::new(seed);
        let threads = (0..vcpus)
            .map(|t| ThreadState {
                rng: root.fork(t as u64),
                phase: 0,
            })
            .collect();
        BackgroundService { cfg, threads }
    }
}

impl Program for BackgroundService {
    fn name(&self) -> &str {
        "dom0-background"
    }

    fn thread_count(&self) -> usize {
        self.threads.len()
    }

    fn next_op(&mut self, tid: usize) -> Op {
        let st = &mut self.threads[tid];
        match st.phase {
            0 => {
                st.phase = 1;
                let gap = st.rng.exp(self.cfg.mean_period.as_u64() as f64).max(1.0);
                Op::Sleep(Cycles(gap as u64))
            }
            _ => {
                st.phase = 0;
                if st.rng.chance(self.cfg.kernel_frac) {
                    Op::CriticalSection {
                        lock: 0,
                        hold: Cycles(
                            st.rng
                                .jitter(self.cfg.mean_burst.as_u64() / 3, 0.5)
                                .max(200),
                        ),
                    }
                } else {
                    Op::Compute(Cycles(
                        st.rng.jitter(self.cfg.mean_burst.as_u64(), 0.8).max(500),
                    ))
                }
            }
        }
    }

    fn kernel_locks(&self) -> u32 {
        1
    }

    fn finite(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternates_sleep_and_burst() {
        let mut b = BackgroundService::new(BackgroundConfig::default(), 2, 1);
        for _ in 0..100 {
            assert!(matches!(b.next_op(0), Op::Sleep(_)));
            assert!(matches!(
                b.next_op(0),
                Op::Compute(_) | Op::CriticalSection { .. }
            ));
        }
    }

    #[test]
    fn duty_cycle_is_light() {
        let cfg = BackgroundConfig::default();
        let mut b = BackgroundService::new(cfg, 1, 9);
        let (mut sleep, mut busy) = (0u64, 0u64);
        for _ in 0..20_000 {
            match b.next_op(0) {
                Op::Sleep(c) => sleep += c.as_u64(),
                Op::Compute(c) => busy += c.as_u64(),
                Op::CriticalSection { hold, .. } => busy += hold.as_u64(),
                _ => {}
            }
        }
        let duty = busy as f64 / (busy + sleep) as f64;
        assert!(
            (0.005..0.15).contains(&duty),
            "background duty {duty} out of the few-percent band"
        );
    }

    #[test]
    fn never_finishes() {
        let b = BackgroundService::new(BackgroundConfig::default(), 3, 5);
        assert!(!b.finite());
        assert_eq!(b.thread_count(), 3);
    }
}
