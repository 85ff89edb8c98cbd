//! End-to-end determinism: a simulation is a pure function of its
//! configuration and seed.

use asman::prelude::*;
use asman::report::SingleVmScenario;

fn fingerprint(seed: u64, policy: Sched) -> (u64, u64, u64, u64) {
    let lu = NasSpec::new(NasBenchmark::LU, ProblemClass::S, 4).build(seed ^ 7);
    let dom0 = BackgroundService::new(BackgroundConfig::default(), 8, seed ^ 0xD0);
    let mut m = SimulationBuilder::new()
        .seed(seed)
        .policy(policy)
        .vm(VmSpec::new("dom0", 8, Box::new(dom0)))
        .vm(VmSpec::new("guest", 4, Box::new(lu))
            .weight(64)
            .cap(CapMode::NonWorkConserving))
        .build();
    m.run_to_completion(Clock::default().secs(600));
    let s = m.vm_kernel(1).stats();
    (
        s.finished_at.expect("finished").as_u64(),
        s.lock_acquisitions,
        s.wait_hist.count_at_least_pow2(10),
        m.events_processed(),
    )
}

#[test]
fn same_seed_same_everything_credit() {
    assert_eq!(
        fingerprint(11, Sched::Credit),
        fingerprint(11, Sched::Credit)
    );
}

#[test]
fn same_seed_same_everything_asman() {
    assert_eq!(fingerprint(11, Sched::Asman), fingerprint(11, Sched::Asman));
}

#[test]
fn different_seeds_diverge() {
    // Wake jitter and workload jitter differ, so at least the event count
    // or the finish time must differ.
    let a = fingerprint(1, Sched::Credit);
    let b = fingerprint(2, Sched::Credit);
    assert_ne!(a, b, "distinct seeds should not produce identical runs");
}

#[test]
fn policies_share_workload_but_not_schedule() {
    let credit = fingerprint(5, Sched::Credit);
    let asman = fingerprint(5, Sched::Asman);
    // Different schedulers, same workload: event streams diverge.
    assert_ne!(credit.3, asman.3);
}

#[test]
fn repeated_construction_is_stable_across_policies() {
    for policy in [Sched::Credit, Sched::Con, Sched::Asman] {
        assert_eq!(
            fingerprint(33, policy),
            fingerprint(33, policy),
            "{policy:?} must be reproducible"
        );
    }
}

/// `run_until` is a pure advance: cutting one run into many short calls
/// leaves the simulation unchanged. `WaitWindow` relies on this when it
/// drains its recorder between slices.
///
/// `state_fingerprint` is deliberately left out. It folds
/// `vcrd_high_since`, which every `run_until` return restamps while VCRD
/// is HIGH and which stays folded after VCRD drops to LOW, so the
/// fingerprint moves with the split points although the run does not.
#[test]
fn run_until_slices_leave_the_run_unchanged() {
    let clk = Clock::default();
    let build = || {
        let lu = NasSpec::new(NasBenchmark::LU, ProblemClass::S, 4).build(7);
        SingleVmScenario::new(Sched::Asman, 128, 42).build(Box::new(lu))
    };
    let summary = |m: &Machine| {
        let vms: Vec<_> = (0..m.vm_count())
            .map(|vm| {
                let s = m.vm_kernel(vm).stats();
                (m.vm_counters(vm), s.lock_acquisitions, s.wait_hist.count())
            })
            .collect();
        (m.events_processed(), vms)
    };
    let end = clk.ms(2_500);
    let mut whole = build();
    whole.run_until(end);
    let mut sliced = build();
    let mut t = Cycles::ZERO;
    while t < end {
        t = (t + clk.ms(7)).min(end);
        sliced.run_until(t);
    }
    assert!(whole.vm_kernel(1).stats().lock_acquisitions > 0);
    assert_eq!(summary(&whole), summary(&sliced));
}
