//! SPEC CPU2000-rate-like high-throughput workloads.
//!
//! The paper measures the impact of coscheduling on non-concurrent
//! workloads by running 4 simultaneous copies of 176.gcc or 256.bzip2 in a
//! VM (the SPEC *rate* metric) in a batch loop, and averaging the run
//! times of the first ten rounds. The copies share nothing: the model is
//! pure computation in preemptible chunks with light jitter, plus the
//! occasional short syscall-ish kernel critical section (negligible
//! contention, present so the workload exercises the same guest paths).

use asman_sim::{Clock, Cycles, SimRng};
use serde::Serialize;

use crate::ops::{Mark, Op, Program};

/// Which SPEC CPU2000 benchmark to model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum SpecCpuKind {
    /// 176.gcc — shorter rounds.
    Gcc,
    /// 256.bzip2 — longer rounds.
    Bzip2,
}

impl SpecCpuKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SpecCpuKind::Gcc => "176.gcc",
            SpecCpuKind::Bzip2 => "256.bzip2",
        }
    }

    /// Nominal single-copy round length (scaled ~10× below wall clock,
    /// like the NAS models).
    pub fn round_compute(self) -> Cycles {
        let clk = Clock::default();
        match self {
            SpecCpuKind::Gcc => clk.ms(11_000),   // ~11 s
            SpecCpuKind::Bzip2 => clk.ms(13_500), // ~13.5 s
        }
    }
}

/// SPEC-rate style program: `copies` independent compute streams, each
/// repeatedly running rounds and emitting [`Mark::RoundEnd`].
pub struct SpecCpuRate {
    kind: SpecCpuKind,
    copies: usize,
    chunk: Cycles,
    syscall_every: u32,
    threads: Vec<CopyState>,
}

struct CopyState {
    rng: SimRng,
    remaining: Cycles,
    chunks_done: u32,
    pending_mark: bool,
}

impl SpecCpuRate {
    /// `copies` simultaneous copies of `kind` (the paper uses 4) with a
    /// deterministic seed.
    pub fn new(kind: SpecCpuKind, copies: usize, seed: u64) -> Self {
        assert!(copies > 0);
        let clk = Clock::default();
        let mut root = SimRng::new(seed);
        let threads = (0..copies)
            .map(|t| CopyState {
                rng: root.fork(t as u64),
                remaining: kind.round_compute(),
                chunks_done: 0,
                pending_mark: false,
            })
            .collect();
        SpecCpuRate {
            kind,
            copies,
            chunk: clk.ms(10),
            syscall_every: 8,
            threads,
        }
    }

    /// Which benchmark this models.
    pub fn kind(&self) -> SpecCpuKind {
        self.kind
    }
}

impl Program for SpecCpuRate {
    fn name(&self) -> &str {
        self.kind.name()
    }

    fn thread_count(&self) -> usize {
        self.copies
    }

    fn next_op(&mut self, tid: usize) -> Op {
        let chunk = self.chunk;
        let kind = self.kind;
        let syscall_every = self.syscall_every;
        let st = &mut self.threads[tid];
        if st.pending_mark {
            st.pending_mark = false;
            st.remaining = kind.round_compute();
            return Op::Mark(Mark::RoundEnd);
        }
        if st.remaining.is_zero() {
            st.pending_mark = false;
            st.remaining = kind.round_compute();
            return Op::Mark(Mark::RoundEnd);
        }
        st.chunks_done += 1;
        // Occasional short syscall (page fault, brk, write) — a kernel
        // critical section with negligible hold time on a per-copy lock.
        if st.chunks_done.is_multiple_of(syscall_every) {
            return Op::CriticalSection {
                lock: tid as u32,
                hold: Cycles(st.rng.jitter(800, 0.5)),
            };
        }
        let step = chunk.min(st.remaining);
        st.remaining -= step;
        if st.remaining.is_zero() {
            st.pending_mark = true;
        }
        Op::Compute(Cycles(st.rng.jitter(step.as_u64(), 0.05)))
    }

    fn kernel_locks(&self) -> u32 {
        self.copies as u32
    }

    fn finite(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_emit_marks_with_expected_compute() {
        let mut w = SpecCpuRate::new(SpecCpuKind::Gcc, 1, 4);
        let target = SpecCpuKind::Gcc.round_compute().as_u64() as f64;
        let mut compute = 0u64;
        let mut marks = 0;
        for _ in 0..20_000 {
            match w.next_op(0) {
                Op::Compute(c) => compute += c.as_u64(),
                Op::Mark(Mark::RoundEnd) => {
                    marks += 1;
                    if marks == 1 {
                        // Jitter is ±5% per chunk; the round total must be
                        // within a few percent of nominal.
                        let ratio = compute as f64 / target;
                        assert!((0.93..=1.07).contains(&ratio), "ratio {ratio}");
                    }
                }
                _ => {}
            }
            if marks >= 2 {
                break;
            }
        }
        assert!(marks >= 2, "expected repeated rounds");
    }

    #[test]
    fn bzip2_rounds_are_longer_than_gcc() {
        assert!(SpecCpuKind::Bzip2.round_compute() > SpecCpuKind::Gcc.round_compute());
    }

    #[test]
    fn copies_are_independent_threads() {
        let w = SpecCpuRate::new(SpecCpuKind::Bzip2, 4, 7);
        assert_eq!(w.thread_count(), 4);
        assert_eq!(w.kernel_locks(), 4);
        assert!(!w.finite());
        assert_eq!(w.name(), "256.bzip2");
    }

    #[test]
    fn no_barriers_ever() {
        let mut w = SpecCpuRate::new(SpecCpuKind::Gcc, 2, 1);
        for _ in 0..5_000 {
            for tid in 0..2 {
                assert!(
                    !matches!(w.next_op(tid), Op::Barrier { .. }),
                    "SPEC rate copies never synchronize"
                );
            }
        }
        assert_eq!(w.barriers(), 0);
    }
}
