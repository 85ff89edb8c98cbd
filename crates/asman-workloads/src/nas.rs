//! NAS Parallel Benchmark models (OpenMP C versions, NPB 2.3).
//!
//! The paper runs BT, CG, EP, FT, MG, SP and LU with 4 threads (Class A)
//! as the concurrent workloads. For a CPU scheduler the benchmarks differ
//! only in their *synchronization geometry*: how much computation happens
//! between synchronization points, what fraction of those points are full
//! barriers versus point-to-point/kernel synchronization, and how
//! imbalanced the chunks are. Those geometries are well documented
//! (Feitelson & Rudolph's fine-grain sync studies, the NPB reports, and
//! the paper's own Figure 2/9 orderings) and are encoded below:
//!
//! | bench | sync interval | character |
//! |-------|---------------|-----------|
//! | LU    | ~1.2 ms       | pipelined SSOR sweeps: very fine-grain, mixed point-to-point + barriers — most scheduler-sensitive |
//! | SP    | ~2.2 ms       | ADI sweeps with frequent barriers |
//! | CG    | ~1.5 ms       | dot-product allreduces every few matrix-vector products |
//! | MG    | ~1.0 ms       | V-cycle levels with barriers, short total run |
//! | BT    | ~5 ms         | coarser block-tridiagonal sweeps |
//! | FT    | ~8 ms         | few large all-to-all transposes |
//! | EP    | none          | embarrassingly parallel, one final reduction |
//!
//! Nominal single-round run times are ~10× below the paper's wall clock
//! (see crate docs); `ProblemClass` scales them further for tests/benches.

use asman_sim::{Clock, Cycles};
use serde::Serialize;

use crate::phased::{PhasedProgram, PhasedSpec};

/// The seven NAS kernels/pseudo-apps used in the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
#[allow(missing_docs)]
pub enum NasBenchmark {
    BT,
    CG,
    EP,
    FT,
    MG,
    SP,
    LU,
}

impl NasBenchmark {
    /// All benchmarks in the order the paper's Figure 9 lists them.
    pub const ALL: [NasBenchmark; 7] = [
        NasBenchmark::BT,
        NasBenchmark::CG,
        NasBenchmark::EP,
        NasBenchmark::FT,
        NasBenchmark::MG,
        NasBenchmark::SP,
        NasBenchmark::LU,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            NasBenchmark::BT => "BT",
            NasBenchmark::CG => "CG",
            NasBenchmark::EP => "EP",
            NasBenchmark::FT => "FT",
            NasBenchmark::MG => "MG",
            NasBenchmark::SP => "SP",
            NasBenchmark::LU => "LU",
        }
    }
}

/// Problem-size classes in NPB style. `A` is the paper's configuration
/// (scaled as described in the crate docs); `W` and `S` shrink the
/// iteration counts for benchmarks and unit tests respectively.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum ProblemClass {
    /// Tiny: for unit tests (seconds of simulated time).
    S,
    /// Workstation: for Criterion benches.
    W,
    /// The full evaluation size.
    A,
}

impl ProblemClass {
    /// Iteration-count divisor for this class.
    pub fn divisor(self) -> u32 {
        match self {
            ProblemClass::S => 50,
            ProblemClass::W => 8,
            ProblemClass::A => 1,
        }
    }
}

/// Fully resolved parameters for one NAS benchmark instance.
#[derive(Clone, Debug, Serialize)]
pub struct NasSpec {
    /// The underlying phased-iteration parameters.
    pub phased: PhasedSpec,
    /// Which benchmark this models.
    pub benchmark: NasBenchmark,
    /// The problem class it was scaled for.
    pub class: ProblemClass,
}

impl NasSpec {
    /// Build the spec for `bench` at `class` with `threads` OpenMP threads
    /// (the paper always uses 4, one per VCPU).
    pub fn new(bench: NasBenchmark, class: ProblemClass, threads: usize) -> NasSpec {
        let clk = Clock::default();
        let us = |n: u64| clk.us(n);
        // (iterations, chunks/iter, chunk compute, imbalance,
        //  barrier_every, end_of_iter_barrier, pipeline)
        let (iters, chunks, chunk, imb, bar_every, eob, pipe) = match bench {
            // ~40 s round, wavefront-pipelined SSOR sweeps: thread t
            // spin-waits on thread t−1 every ~1.2 ms, global barrier per
            // iteration. The most scheduler-sensitive code in the suite.
            NasBenchmark::LU => (250, 132, us(1_200), 0.12, 0, false, true),
            // ~35 s round, ADI sweeps: pipelined line solves every
            // ~2.2 ms plus barriers between directions.
            NasBenchmark::SP => (400, 40, us(2_200), 0.10, 13, true, true),
            // ~30 s round, coarser block-tridiagonal sweeps.
            NasBenchmark::BT => (200, 30, us(5_000), 0.08, 3, true, false),
            // ~12 s round, allreduce (barrier) at every sync point.
            NasBenchmark::CG => (375, 21, us(1_500), 0.10, 1, true, false),
            // ~9 s round, fine sync, barrier every 2nd.
            NasBenchmark::MG => (20, 450, us(1_000), 0.15, 2, true, false),
            // ~13 s round, few large transposes.
            NasBenchmark::FT => (6, 270, us(8_000), 0.06, 9, true, false),
            // ~15 s round, no synchronization until the final reduction.
            NasBenchmark::EP => (1, 300, us(50_000), 0.02, 0, true, false),
        };
        let iters = (iters / class.divisor()).max(2);
        let crit_hold = match bench {
            NasBenchmark::EP => Cycles(0),
            _ => Cycles(2_000), // ~0.86 µs kernel critical sections
        };
        NasSpec {
            phased: PhasedSpec {
                name: bench.name().to_string(),
                threads,
                iterations: iters,
                chunks_per_iter: chunks,
                chunk_compute: chunk,
                imbalance: imb,
                barrier_every: bar_every,
                crit_hold,
                crit_jitter: 0.5,
                kernel_locks: 4,
                end_of_iter_barrier: eob,
                pipeline: pipe,
                pipeline_slack: if pipe { 2 } else { 0 },
                repeat: false,
            },
            benchmark: bench,
            class,
        }
    }

    /// Switch the spec into repeated-round mode (for the multi-VM
    /// experiments where each benchmark reruns in a batch loop).
    pub fn repeating(mut self) -> NasSpec {
        self.phased.repeat = true;
        self
    }

    /// Instantiate the program with a deterministic seed.
    pub fn build(&self, seed: u64) -> PhasedProgram {
        PhasedProgram::new(self.phased.clone(), seed)
    }

    /// Expected round time in seconds with no scheduler interference
    /// (compute only) — a lower bound used by tests and calibration.
    pub fn ideal_round_secs(&self) -> f64 {
        let clk = Clock::default();
        clk.to_secs(
            self.phased.chunk_compute
                * self.phased.chunks_per_iter as u64
                * self.phased.iterations as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Op, Program};

    #[test]
    fn class_a_round_times_are_in_band() {
        // Single-round ideal times should sit in the tens of seconds, with
        // LU the longest sync-heavy code.
        for b in NasBenchmark::ALL {
            let s = NasSpec::new(b, ProblemClass::A, 4);
            let t = s.ideal_round_secs();
            assert!(
                (5.0..=60.0).contains(&t),
                "{} ideal round {t:.1}s out of band",
                b.name()
            );
        }
    }

    #[test]
    fn lu_is_most_sync_intensive() {
        let sync_rate = |b: NasBenchmark| {
            let s = NasSpec::new(b, ProblemClass::A, 4);
            let total_syncs = (s.phased.iterations as u64) * (s.phased.chunks_per_iter as u64);
            total_syncs as f64 / s.ideal_round_secs()
        };
        let lu = sync_rate(NasBenchmark::LU);
        for b in [NasBenchmark::BT, NasBenchmark::FT, NasBenchmark::EP] {
            assert!(
                lu > sync_rate(b) * 2.0,
                "LU must sync much more often than {}",
                b.name()
            );
        }
    }

    #[test]
    fn ep_has_no_critical_sections_and_one_barrier() {
        let s = NasSpec::new(NasBenchmark::EP, ProblemClass::S, 2);
        let mut p = s.build(3);
        let mut barriers = 0;
        loop {
            match p.next_op(0) {
                Op::CriticalSection { .. } => panic!("EP must not take kernel locks"),
                Op::Barrier { .. } => barriers += 1,
                Op::Done => break,
                _ => {}
            }
        }
        // One barrier per iteration only (end-of-iteration reduction).
        assert_eq!(barriers as u32, s.phased.iterations);
    }

    #[test]
    fn class_scaling_shrinks_iterations() {
        let a = NasSpec::new(NasBenchmark::LU, ProblemClass::A, 4);
        let w = NasSpec::new(NasBenchmark::LU, ProblemClass::W, 4);
        let s = NasSpec::new(NasBenchmark::LU, ProblemClass::S, 4);
        assert!(a.phased.iterations > w.phased.iterations);
        assert!(w.phased.iterations > s.phased.iterations);
        assert!(s.phased.iterations >= 2);
    }

    #[test]
    fn repeating_flips_finiteness() {
        let spec = NasSpec::new(NasBenchmark::SP, ProblemClass::S, 4);
        assert!(spec.build(1).finite());
        assert!(!spec.repeating().build(1).finite());
    }
}
