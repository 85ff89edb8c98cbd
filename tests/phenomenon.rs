//! The paper's qualitative claims, asserted end-to-end at the smallest
//! problem class (the full-size claims are asserted by the `repro`
//! binary's shape checks and recorded in EXPERIMENTS.md).

use asman::prelude::*;
use asman::report::figures::{fig01, fig02, fig07, FigureParams};

fn params() -> FigureParams {
    FigureParams {
        class: ProblemClass::S,
        seed: 42,
        rounds: 2,
        jobs: 1,
    }
}

#[test]
fn figure1_degradation_shape() {
    let fig = fig01::run(&params());
    for check in fig.shape_checks() {
        assert!(check.holds, "{} — {}", check.claim, check.evidence);
    }
}

#[test]
fn figure2_wait_scatter_shape() {
    let fig = fig02::run(&params());
    for check in fig.shape_checks() {
        assert!(check.holds, "{} — {}", check.claim, check.evidence);
    }
}

#[test]
fn figure7_asman_recovery_shape() {
    let fig = fig07::run(&params());
    for check in fig.shape_checks() {
        assert!(check.holds, "{} — {}", check.claim, check.evidence);
    }
}

#[test]
fn lock_holder_preemption_exists_and_coscheduling_removes_it() {
    // The minimal statement of the whole paper, as one test.
    let clk = Clock::default();
    let run = |policy| {
        let lu = NasSpec::new(NasBenchmark::LU, ProblemClass::S, 4).build(7);
        let dom0 = BackgroundService::new(BackgroundConfig::default(), 8, 0xD0);
        let mut m = SimulationBuilder::new()
            .seed(42)
            .policy(policy)
            .vm(VmSpec::new("dom0", 8, Box::new(dom0)))
            .vm(VmSpec::new("guest", 4, Box::new(lu))
                .weight(32)
                .cap(CapMode::NonWorkConserving))
            .build();
        m.run_to_completion(clk.secs(600));
        let s = m.vm_kernel(1).stats();
        (
            clk.to_secs(s.finished_at.unwrap()),
            s.holder_preemptions,
            s.wait_hist.count_at_least_pow2(20),
        )
    };
    let (t_credit, lhp_credit, over_credit) = run(Sched::Credit);
    let (t_asman, _, _) = run(Sched::Asman);
    assert!(lhp_credit > 0, "lock-holder preemption must occur at 22.2%");
    assert!(over_credit > 0, "over-threshold waits must occur at 22.2%");
    assert!(
        t_asman < t_credit,
        "coscheduling must recover run time: {t_asman:.1} vs {t_credit:.1}"
    );
}

#[test]
fn semaphore_style_waits_are_unaffected() {
    // §2.2: blocking waits (semaphores/futexes) are not hurt by
    // virtualization the way spinning is. A sleep-heavy workload at a low
    // online rate finishes near its nominal duration.
    let clk = Clock::default();
    let sleepy = ScriptProgram::homogeneous(
        "sleepy",
        4,
        vec![Op::Sleep(clk.ms(50)), Op::Compute(clk.us(200))],
    );
    let mut m = SimulationBuilder::new()
        .seed(6)
        .vm(VmSpec::new(
            "dom0",
            8,
            Box::new(BackgroundService::new(BackgroundConfig::default(), 8, 1)),
        ))
        .vm(VmSpec::new("guest", 4, Box::new(sleepy))
            .weight(32)
            .cap(CapMode::NonWorkConserving))
        .build();
    assert!(m.run_to_completion(clk.secs(10)));
    let t = clk.to_ms(m.vm_kernel(1).stats().finished_at.unwrap());
    // Nominal: one 50 ms sleep + a dash of compute. Even at a 22.2% cap
    // the blocking path must not blow this up by an order of magnitude.
    assert!(t < 250.0, "sleep-dominated workload took {t:.0} ms");
}

#[test]
fn ep_is_insensitive_to_the_scheduler() {
    // EP has no synchronization: Credit and ASMan must agree within noise
    // even at the lowest rate, and both must sit near the ideal slowdown.
    let clk = Clock::default();
    let run = |policy| {
        let ep = NasSpec::new(NasBenchmark::EP, ProblemClass::S, 4).build(3);
        let dom0 = BackgroundService::new(BackgroundConfig::default(), 8, 1);
        let mut m = SimulationBuilder::new()
            .seed(9)
            .policy(policy)
            .vm(VmSpec::new("dom0", 8, Box::new(dom0)))
            .vm(VmSpec::new("guest", 4, Box::new(ep))
                .weight(32)
                .cap(CapMode::NonWorkConserving))
            .build();
        m.run_to_completion(clk.secs(600));
        clk.to_secs(m.vm_kernel(1).stats().finished_at.unwrap())
    };
    let credit = run(Sched::Credit);
    let asman = run(Sched::Asman);
    assert!(
        (asman / credit - 1.0).abs() < 0.10,
        "EP: Credit {credit:.1}s vs ASMan {asman:.1}s"
    );
}
