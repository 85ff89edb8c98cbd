//! End-to-end behaviour of the VCRD/coscheduling pipeline.

use asman::prelude::*;

fn capped_lu(policy: Sched, seed: u64) -> Machine {
    let lu = NasSpec::new(NasBenchmark::LU, ProblemClass::S, 4).build(seed ^ 7);
    let dom0 = BackgroundService::new(BackgroundConfig::default(), 8, seed ^ 0xD0);
    SimulationBuilder::new()
        .seed(seed)
        .policy(policy)
        .vm(VmSpec::new("dom0", 8, Box::new(dom0)))
        .vm(VmSpec::new("guest", 4, Box::new(lu))
            .weight(32) // 22.2% online rate
            .cap(CapMode::NonWorkConserving))
        .build()
}

#[test]
fn vcrd_lifecycle_raises_and_expires() {
    let clk = Clock::default();
    let mut m = capped_lu(Sched::Asman, 42);
    m.run_to_completion(clk.secs(600));
    // Let the last estimation window expire: with the workload finished
    // there are no further over-threshold waits, so the timer must bring
    // the VCRD back to LOW.
    let settle = m.now() + clk.secs(2);
    m.run_until(settle);
    let acct = m.vm_accounting(1);
    assert!(acct.vcrd_raises > 0, "LU at 22.2% must raise the VCRD");
    assert!(
        acct.vcrd_high_cycles > Cycles::ZERO,
        "some time must be spent HIGH"
    );
    assert_eq!(
        m.vm_vcrd(1),
        Vcrd::Low,
        "VCRD returns LOW once the run ends"
    );
    assert!(
        acct.cosched_bursts > 0,
        "IPI bursts must have been launched"
    );
}

#[test]
fn coscheduling_improves_simultaneity_and_runtime() {
    let clk = Clock::default();
    let mut credit = capped_lu(Sched::Credit, 42);
    credit.run_to_completion(clk.secs(600));
    let mut asman = capped_lu(Sched::Asman, 42);
    asman.run_to_completion(clk.secs(600));

    let t_credit = credit.vm_kernel(1).stats().finished_at.unwrap();
    let t_asman = asman.vm_kernel(1).stats().finished_at.unwrap();
    assert!(
        t_asman < t_credit,
        "ASMan must beat Credit on capped LU: {} vs {}",
        clk.to_secs(t_asman),
        clk.to_secs(t_credit)
    );

    let co_credit = credit.vm_accounting(1).all_online_frac(t_credit);
    let co_asman = asman.vm_accounting(1).all_online_frac(t_asman);
    assert!(
        co_asman > co_credit,
        "ASMan must raise the all-VCPUs-online fraction: {co_asman:.3} vs {co_credit:.3}"
    );
}

#[test]
fn coscheduling_reduces_over_threshold_waits() {
    let clk = Clock::default();
    let mut credit = capped_lu(Sched::Credit, 42);
    credit.run_to_completion(clk.secs(600));
    let mut asman = capped_lu(Sched::Asman, 42);
    asman.run_to_completion(clk.secs(600));
    // Normalise by run length: rate of extreme waits per simulated second.
    let rate = |m: &Machine| {
        let s = m.vm_kernel(1).stats();
        let t = clk.to_secs(s.finished_at.unwrap());
        s.wait_hist.count_at_least_pow2(25) as f64 / t
    };
    assert!(
        rate(&asman) <= rate(&credit),
        "ASMan must not increase the extreme-wait rate"
    );
}

#[test]
fn baselines_never_raise_vcrd() {
    let clk = Clock::default();
    for policy in [Sched::Credit, Sched::Con] {
        let mut m = capped_lu(policy, 42);
        m.run_to_completion(clk.secs(600));
        assert_eq!(m.vm_accounting(1).vcrd_raises, 0, "{policy:?}");
        assert_eq!(m.vm_vcrd(1), Vcrd::Low);
    }
}

#[test]
fn con_coschedules_only_flagged_vms() {
    let clk = Clock::default();
    let mk = |seed| {
        Box::new(
            NasSpec::new(NasBenchmark::CG, ProblemClass::S, 4)
                .repeating()
                .build(seed),
        )
    };
    let mut m = SimulationBuilder::new()
        .seed(5)
        .policy(Sched::Con)
        .vm(VmSpec::new("flagged", 4, mk(1)).concurrent())
        .vm(VmSpec::new("unflagged", 4, mk(2)))
        .build();
    m.run_until(clk.secs(3));
    assert!(m.vm_accounting(0).cosched_bursts > 0);
    assert_eq!(m.vm_accounting(1).cosched_bursts, 0);
}

#[test]
fn asman_matches_credit_at_full_rate() {
    // §5.2: at a 100% online rate the two schedulers behave alike.
    let clk = Clock::default();
    let run = |policy| {
        let lu = NasSpec::new(NasBenchmark::LU, ProblemClass::S, 4).build(3);
        let mut m = SimulationBuilder::new()
            .seed(3)
            .policy(policy)
            .vm(VmSpec::new("guest", 4, Box::new(lu)))
            .build();
        m.run_to_completion(clk.secs(120));
        clk.to_secs(m.vm_kernel(0).stats().finished_at.unwrap())
    };
    let credit = run(Sched::Credit);
    let asman = run(Sched::Asman);
    assert!(
        (asman / credit - 1.0).abs() < 0.05,
        "at 100%: Credit {credit:.2}s vs ASMan {asman:.2}s"
    );
}
