//! Generic phased-iteration program.
//!
//! All NAS-style concurrent workloads share one skeleton: `iterations` of
//! `chunks_per_iter` compute chunks per thread, with a synchronization
//! operation after each chunk — a barrier every `barrier_every`-th chunk
//! (modelling OpenMP `barrier`/allreduce points) and a kernel critical
//! section otherwise (modelling pipelined point-to-point sync and other
//! kernel-mediated operations). [`PhasedProgram`] interprets a
//! [`PhasedSpec`] into the per-thread op streams.

use std::collections::VecDeque;

use asman_sim::{Cycles, SimRng};
use serde::Serialize;

use crate::ops::{Mark, Op, Program};

/// Parameters of a phased-iteration workload.
#[derive(Clone, Debug, Serialize)]
pub struct PhasedSpec {
    /// Benchmark name for reporting.
    pub name: String,
    /// Number of guest threads (the paper runs 4, matching the VM's VCPUs).
    pub threads: usize,
    /// Outer iterations per round.
    pub iterations: u32,
    /// Compute chunks per iteration per thread; each ends in a sync op.
    pub chunks_per_iter: u32,
    /// Mean cycles of computation per chunk per thread.
    pub chunk_compute: Cycles,
    /// Load imbalance: each chunk is jittered uniformly within
    /// `±imbalance` of the mean, independently per thread.
    pub imbalance: f64,
    /// Every `barrier_every`-th sync point is a barrier (0 ⇒ no intra-
    /// iteration barriers). The remaining sync points are kernel critical
    /// sections.
    pub barrier_every: u32,
    /// Mean cycles held inside each kernel critical section (0 ⇒ none;
    /// the sync point degenerates to nothing).
    pub crit_hold: Cycles,
    /// Jitter fraction applied to `crit_hold`.
    pub crit_jitter: f64,
    /// Size of the kernel spinlock pool the critical sections pick from
    /// uniformly (models futex-bucket hashing across a few locks).
    pub kernel_locks: u32,
    /// Whether every iteration ends with a barrier (typical of OpenMP
    /// parallel-for based codes).
    pub end_of_iter_barrier: bool,
    /// Wavefront pipelining (NPB-LU's SSOR pattern): thread `t` spin-waits
    /// on thread `t−1`'s progress before each chunk and publishes its own
    /// progress after it. When set, the per-chunk sync point is the
    /// pipeline wait itself (plus any barriers from `barrier_every` /
    /// `end_of_iter_barrier`), and no per-chunk critical sections are
    /// generated.
    pub pipeline: bool,
    /// Maximum chunks a pipeline thread may run ahead of its downstream
    /// neighbour (bounded-buffer reuse: NPB codes recycle a couple of
    /// plane buffers, so the wavefront is a *tight* chain). 0 ⇒
    /// unbounded. Ignored unless `pipeline` is set.
    pub pipeline_slack: u32,
    /// `true` ⇒ restart after emitting the round marker (multi-VM repeated
    /// runs); `false` ⇒ finish after one round.
    pub repeat: bool,
}

#[derive(Clone)]
struct Cursor {
    iter: u32,
    chunk: u32,
    global_chunk: u64,
    finished: bool,
    queue: VecDeque<Op>,
    rng: SimRng,
}

/// Executable state of a [`PhasedSpec`] (implements [`Program`]).
pub struct PhasedProgram {
    spec: PhasedSpec,
    cursors: Vec<Cursor>,
}

impl PhasedProgram {
    /// Instantiate the program with a deterministic seed. Each thread gets
    /// an independent RNG stream so the op sequence of one thread does not
    /// depend on how the scheduler interleaves the others.
    pub fn new(spec: PhasedSpec, seed: u64) -> Self {
        assert!(spec.threads > 0, "a program needs at least one thread");
        assert!(spec.iterations > 0 && spec.chunks_per_iter > 0);
        let mut root = SimRng::new(seed);
        let cursors = (0..spec.threads)
            .map(|t| Cursor {
                iter: 0,
                chunk: 0,
                global_chunk: 0,
                finished: false,
                queue: VecDeque::new(),
                rng: root.fork(t as u64),
            })
            .collect();
        PhasedProgram { spec, cursors }
    }

    /// The spec this program was built from.
    pub fn spec(&self) -> &PhasedSpec {
        &self.spec
    }

    /// Total compute cycles a single thread will burn per round, on
    /// average (chunk mean × chunks × iterations). Sync costs come on top
    /// and depend on scheduling.
    pub fn nominal_compute_per_round(&self) -> Cycles {
        self.spec.chunk_compute * self.spec.chunks_per_iter as u64 * self.spec.iterations as u64
    }

    fn refill(&mut self, tid: usize) {
        let spec = &self.spec;
        let c = &mut self.cursors[tid];
        if c.finished {
            c.queue.push_back(Op::Done);
            return;
        }
        // One chunk: (pipeline wait,) compute(, advance,) then its
        // trailing sync op.
        if spec.pipeline {
            // SSOR-style alternating sweeps: forward (thread t waits on
            // t−1) on even iterations, backward (t waits on t+1) on odd
            // ones. The direction flip bounds the pipeline slack to one
            // iteration, so desynchronized VCPU duty cycles force a
            // window-handoff relay twice per iteration — the mechanism
            // behind LU's catastrophic sensitivity to asynchronous
            // scheduling.
            let backward = c.iter % 2 == 1;
            let (upstream, downstream) = if backward {
                (
                    (tid + 1 < spec.threads).then(|| tid as u32 + 1),
                    (tid > 0).then(|| tid as u32 - 1),
                )
            } else {
                (
                    (tid > 0).then(|| tid as u32 - 1),
                    (tid + 1 < spec.threads).then(|| tid as u32 + 1),
                )
            };
            // Data dependency: wait for the upstream neighbour's plane.
            if let Some(peer) = upstream {
                c.queue.push_back(Op::WaitPeer {
                    peer,
                    target: c.global_chunk + 1,
                });
            }
            // Buffer reuse: do not run more than `slack` chunks ahead of
            // the downstream neighbour.
            if spec.pipeline_slack > 0 {
                if let Some(peer) = downstream {
                    if c.global_chunk + 1 > spec.pipeline_slack as u64 {
                        c.queue.push_back(Op::WaitPeer {
                            peer,
                            target: c.global_chunk + 1 - spec.pipeline_slack as u64,
                        });
                    }
                }
            }
        }
        c.queue.push_back(Op::Compute(Cycles(
            c.rng.jitter(spec.chunk_compute.as_u64(), spec.imbalance),
        )));
        if spec.pipeline {
            c.queue.push_back(Op::Advance);
        }
        let at_barrier = spec.barrier_every > 0
            && (c.global_chunk + 1).is_multiple_of(spec.barrier_every as u64);
        c.global_chunk += 1;
        c.chunk += 1;
        let end_of_iter = c.chunk == spec.chunks_per_iter;
        if at_barrier || (end_of_iter && spec.end_of_iter_barrier) {
            c.queue.push_back(Op::Barrier { id: 0 });
        } else if !spec.pipeline && spec.crit_hold.as_u64() > 0 && spec.kernel_locks > 0 {
            c.queue.push_back(Op::CriticalSection {
                lock: c.rng.below(spec.kernel_locks as u64) as u32,
                hold: Cycles(c.rng.jitter(spec.crit_hold.as_u64(), spec.crit_jitter)),
            });
        }
        if end_of_iter {
            c.chunk = 0;
            c.iter += 1;
            if c.iter == spec.iterations {
                c.queue.push_back(Op::Mark(Mark::RoundEnd));
                if spec.repeat {
                    c.iter = 0;
                } else {
                    c.finished = true;
                }
            }
        }
    }
}

impl Program for PhasedProgram {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn thread_count(&self) -> usize {
        self.spec.threads
    }

    fn next_op(&mut self, tid: usize) -> Op {
        if self.cursors[tid].queue.is_empty() {
            self.refill(tid);
        }
        self.cursors[tid]
            .queue
            .pop_front()
            .expect("refill always enqueues at least one op")
    }

    fn kernel_locks(&self) -> u32 {
        self.spec.kernel_locks
    }

    fn barriers(&self) -> u32 {
        u32::from(self.spec.barrier_every > 0 || self.spec.end_of_iter_barrier)
    }

    fn finite(&self) -> bool {
        !self.spec.repeat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> PhasedSpec {
        PhasedSpec {
            name: "tiny".into(),
            threads: 2,
            iterations: 2,
            chunks_per_iter: 3,
            chunk_compute: Cycles(1_000),
            imbalance: 0.0,
            barrier_every: 2,
            crit_hold: Cycles(100),
            crit_jitter: 0.0,
            kernel_locks: 4,
            end_of_iter_barrier: true,
            pipeline: false,
            pipeline_slack: 0,
            repeat: false,
        }
    }

    /// Drain one thread's op stream to completion.
    fn drain(p: &mut PhasedProgram, tid: usize) -> Vec<Op> {
        let mut ops = Vec::new();
        loop {
            let op = p.next_op(tid);
            if op == Op::Done {
                break;
            }
            ops.push(op);
        }
        ops
    }

    #[test]
    fn structure_matches_spec() {
        let mut p = PhasedProgram::new(tiny_spec(), 1);
        let ops = drain(&mut p, 0);
        let computes = ops.iter().filter(|o| matches!(o, Op::Compute(_))).count();
        let barriers = ops
            .iter()
            .filter(|o| matches!(o, Op::Barrier { .. }))
            .count();
        let crits = ops
            .iter()
            .filter(|o| matches!(o, Op::CriticalSection { .. }))
            .count();
        let marks = ops.iter().filter(|o| matches!(o, Op::Mark(_))).count();
        // 2 iterations x 3 chunks.
        assert_eq!(computes, 6);
        // Global chunks 1..=6; barrier at even chunks (2,4,6) plus
        // end-of-iteration barriers at chunks 3 and 6 (6 already a
        // barrier): chunks 2,3,4,6 -> 4 barriers, crits at 1,5.
        assert_eq!(barriers, 4);
        assert_eq!(crits, 2);
        assert_eq!(marks, 1);
        // After Done, it keeps returning Done.
        assert_eq!(p.next_op(0), Op::Done);
        assert_eq!(p.next_op(0), Op::Done);
    }

    #[test]
    fn all_threads_emit_identical_sync_skeleton() {
        let mut p = PhasedProgram::new(tiny_spec(), 7);
        let shape = |ops: &[Op]| -> Vec<u8> {
            ops.iter()
                .map(|o| match o {
                    Op::Compute(_) => 0,
                    Op::CriticalSection { .. } => 1,
                    Op::Barrier { .. } => 2,
                    Op::Mark(_) => 3,
                    _ => 9,
                })
                .collect()
        };
        let a = shape(&drain(&mut p, 0));
        let b = shape(&drain(&mut p, 1));
        // Barriers must line up across threads or the guest would deadlock.
        assert_eq!(a, b);
    }

    #[test]
    fn repeat_spec_never_finishes() {
        let mut spec = tiny_spec();
        spec.repeat = true;
        let mut p = PhasedProgram::new(spec, 1);
        assert!(!p.finite());
        let mut rounds = 0;
        for _ in 0..10_000 {
            match p.next_op(0) {
                Op::Done => panic!("repeating program must not finish"),
                Op::Mark(Mark::RoundEnd) => rounds += 1,
                _ => {}
            }
        }
        assert!(rounds >= 2, "expected multiple rounds, got {rounds}");
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = PhasedProgram::new(tiny_spec(), 99);
        let mut b = PhasedProgram::new(tiny_spec(), 99);
        // Interleave differently; per-thread streams must still agree.
        let ops_a0 = drain(&mut a, 0);
        let ops_a1 = drain(&mut a, 1);
        let ops_b1 = drain(&mut b, 1);
        let ops_b0 = drain(&mut b, 0);
        assert_eq!(ops_a0, ops_b0);
        assert_eq!(ops_a1, ops_b1);
        let mut c = PhasedProgram::new(tiny_spec(), 100);
        assert_ne!(drain(&mut c, 0), ops_a0, "different seed, different jitter");
    }

    #[test]
    fn pipeline_generates_wavefront_ops() {
        let mut spec = tiny_spec();
        spec.pipeline = true;
        spec.barrier_every = 0;
        let mut p = PhasedProgram::new(spec, 3);
        // Thread 0 leads the forward sweep (iteration 0) and follows
        // thread 1 in the backward sweep (iteration 1).
        let ops0 = drain(&mut p, 0);
        let waits0: Vec<(u32, u64)> = ops0
            .iter()
            .filter_map(|o| match o {
                Op::WaitPeer { peer, target } => Some((*peer, *target)),
                _ => None,
            })
            .collect();
        assert_eq!(waits0, vec![(1, 4), (1, 5), (1, 6)], "backward sweep waits");
        let advances0 = ops0.iter().filter(|o| matches!(o, Op::Advance)).count();
        assert_eq!(advances0, 6, "one advance per chunk");
        // Thread 1 waits on thread 0 in the forward sweep, leads the
        // backward one.
        let ops1 = drain(&mut p, 1);
        let targets: Vec<(u32, u64)> = ops1
            .iter()
            .filter_map(|o| match o {
                Op::WaitPeer { peer, target } => Some((*peer, *target)),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![(0, 1), (0, 2), (0, 3)]);
        // No per-chunk critical sections in pipeline mode.
        assert!(ops1
            .iter()
            .all(|o| !matches!(o, Op::CriticalSection { .. })));
        // End-of-iteration barriers remain (2 iterations).
        let barriers = ops1
            .iter()
            .filter(|o| matches!(o, Op::Barrier { .. }))
            .count();
        assert_eq!(barriers, 2);
    }

    #[test]
    fn nominal_compute_is_product() {
        let p = PhasedProgram::new(tiny_spec(), 1);
        assert_eq!(p.nominal_compute_per_round(), Cycles(6_000));
    }

    #[test]
    fn imbalance_jitters_within_band() {
        let mut spec = tiny_spec();
        spec.imbalance = 0.5;
        spec.iterations = 100;
        let mut p = PhasedProgram::new(spec, 5);
        let mut distinct = std::collections::HashSet::new();
        loop {
            match p.next_op(0) {
                Op::Compute(c) => {
                    assert!((500..=1500).contains(&c.as_u64()));
                    distinct.insert(c.as_u64());
                }
                Op::Done => break,
                _ => {}
            }
        }
        assert!(distinct.len() > 10, "jitter should vary chunk sizes");
    }
}
