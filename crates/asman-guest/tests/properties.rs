//! Property-based tests of the guest kernel: mutual exclusion,
//! conservation, and progress under randomized executor interleavings.

use asman_guest::stats::WAIT_FLOOR;
use asman_guest::{Effects, GuestCosts, GuestKernel, GuestWork, NullObserver};
use asman_sim::{Cycles, SimRng};
use asman_workloads::{Op, ScriptProgram};
use proptest::prelude::*;

/// A mini executor with a randomized interleaving policy: every step it
/// picks an online VCPU to advance, or toggles a VCPU on/offline. Checks
/// kernel invariants throughout.
fn chaos_run(
    script: Vec<Op>,
    threads: usize,
    seed: u64,
    steps: usize,
    costs: GuestCosts,
) -> GuestKernel {
    let p = ScriptProgram::homogeneous("fuzz", threads, script);
    let mut g = GuestKernel::new(Box::new(p), threads, costs, Box::new(NullObserver));
    let mut rng = SimRng::new(seed);
    let mut e = Effects::default();
    let mut now = Cycles(0);
    let mut online = vec![false; threads];
    let mut work: Vec<Option<Cycles>> = vec![None; threads]; // completion deadline
    for _ in 0..steps {
        if g.is_finished() {
            break;
        }
        // Consume effects: refreshes re-arm work for online VCPUs.
        let refresh: Vec<usize> = e.refresh_vcpus.drain(..).collect();
        for v in refresh {
            if online[v] {
                work[v] = match g.dispatch_work(v, now, &mut e) {
                    GuestWork::Timed { dur, .. } => Some(now + dur),
                    GuestWork::Spin { .. } => None,
                    GuestWork::Idle => {
                        online[v] = false;
                        g.preempt(v, now);
                        None
                    }
                };
            }
        }
        e.wake_vcpus.clear();
        let timers = std::mem::take(&mut e.sleep_timers);
        for (t, at) in timers {
            if at <= now {
                g.sleep_timer(t, now, &mut e);
            } else {
                e.sleep_timers.push((t, at));
            }
        }
        now += Cycles(rng.range(1_000, 400_000));
        let v = rng.index(threads);
        if online[v] {
            match rng.below(4) {
                0 => {
                    // Preempt it.
                    g.preempt(v, now);
                    online[v] = false;
                    work[v] = None;
                }
                _ => {
                    // Advance its work if due.
                    if let Some(deadline) = work[v] {
                        if deadline <= now {
                            work[v] = match g.work_complete(v, now, &mut e) {
                                GuestWork::Timed { dur, .. } => Some(now + dur),
                                GuestWork::Spin { .. } => None,
                                GuestWork::Idle => {
                                    g.preempt(v, now);
                                    online[v] = false;
                                    None
                                }
                            };
                        }
                    }
                }
            }
        } else if g.vcpu_runnable(v) {
            match g.dispatch(v, now, Cycles(0), &mut e) {
                GuestWork::Timed { dur, .. } => {
                    online[v] = true;
                    work[v] = Some(now + dur);
                }
                GuestWork::Spin { .. } => {
                    online[v] = true;
                    work[v] = None;
                }
                GuestWork::Idle => {
                    // Raced a block: hand the CPU back.
                    g.preempt(v, now);
                    online[v] = false;
                    work[v] = None;
                }
            }
        }
        // Blocked VCPUs redispatch once vcpu_runnable() reports work
        // (their wakes surface through the kernel's thread states).
    }
    g
}

fn arb_safe_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..500_000).prop_map(|c| Op::Compute(Cycles(c))),
        (0u32..2, 200u64..40_000).prop_map(|(l, h)| Op::CriticalSection {
            lock: l,
            hold: Cycles(h),
        }),
        Just(Op::Barrier { id: 0 }),
        (1u64..300_000).prop_map(|c| Op::Sleep(Cycles(c))),
        Just(Op::Mark(asman_workloads::Mark::Transaction)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under arbitrary preemption patterns the kernel never panics, its
    /// cycle accounting stays conserved, and every recorded lock wait is
    /// non-negative and finite.
    #[test]
    fn chaos_interleavings_keep_invariants(
        script in proptest::collection::vec(arb_safe_op(), 1..16),
        threads in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let g = chaos_run(script, threads, seed, 4_000, GuestCosts::default());
        let s = g.stats();
        // Histogram totals match the acquisition counter.
        prop_assert_eq!(s.wait_hist.count(), s.lock_acquisitions);
        // The online wait histogram observes exactly the waits at or
        // above the floor.
        prop_assert_eq!(s.wait_cycles.count(), s.over_threshold_count(10));
        prop_assert!(s.wait_cycles.min().is_none_or(|w| w >= WAIT_FLOOR.as_u64() as f64));
        // Transactions only counted when marks existed in the script.
        prop_assert!(s.barriers_completed as usize <= 4_000);
    }

    /// A barrier-only script either finishes or every thread is parked at
    /// the same barrier generation (no lost wakeups).
    #[test]
    fn barriers_never_lose_threads(
        barriers in 1usize..6,
        threads in 2usize..4,
        seed in 0u64..10_000,
    ) {
        let script: Vec<Op> = (0..barriers).map(|_| Op::Barrier { id: 0 }).collect();
        // Timer injection off: this test isolates barrier integrity from
        // kernel-entry convoys (which make progress under the chaotic
        // executor arbitrarily slow without being a liveness bug).
        let costs = GuestCosts {
            timer_hold: Cycles(0),
            ..GuestCosts::default()
        };
        let g = chaos_run(script, threads, seed, 20_000, costs);
        prop_assert!(
            g.is_finished(),
            "barrier-only script wedged: {} of expected {} generations",
            g.stats().barriers_completed,
            barriers
        );
        prop_assert_eq!(g.stats().barriers_completed as usize, barriers);
    }
}
