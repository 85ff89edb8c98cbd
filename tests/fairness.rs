//! Proportional-share fairness invariants of the Credit scheduler model,
//! across cap modes and coscheduling policies — coscheduling must not
//! break the fairness guarantees the paper's §3.2 demands.

use asman::prelude::*;

fn busy(threads: usize) -> Box<ScriptProgram> {
    Box::new(
        ScriptProgram::homogeneous("busy", threads, vec![Op::Compute(Clock::default().ms(1))])
            .looping(),
    )
}

fn sync_heavy(threads: usize, seed: u64) -> Box<asman::workloads::PhasedProgram> {
    Box::new(
        NasSpec::new(NasBenchmark::LU, ProblemClass::S, threads)
            .repeating()
            .build(seed),
    )
}

/// Run two busy VMs with the given weights and return their online-rate
/// ratio.
fn share_ratio(policy: Sched, w0: u32, w1: u32) -> f64 {
    let clk = Clock::default();
    let mut m = SimulationBuilder::new()
        .pcpus(4)
        .seed(9)
        .policy(policy)
        .vm(VmSpec::new("a", 4, busy(4)).weight(w0))
        .vm(VmSpec::new("b", 4, busy(4)).weight(w1))
        .build();
    m.run_until(clk.secs(3));
    let ra = m.vm_accounting(0).online_rate(m.now());
    let rb = m.vm_accounting(1).online_rate(m.now());
    ra / rb
}

#[test]
fn equal_weights_share_equally_under_all_policies() {
    for policy in [Sched::Credit, Sched::Con, Sched::Asman] {
        let r = share_ratio(policy, 256, 256);
        assert!((r - 1.0).abs() < 0.1, "{policy:?}: ratio {r}");
    }
}

#[test]
fn double_weight_doubles_share() {
    for policy in [Sched::Credit, Sched::Asman] {
        let r = share_ratio(policy, 512, 256);
        assert!((r - 2.0).abs() < 0.35, "{policy:?}: ratio {r}");
    }
}

#[test]
fn nwc_cap_holds_under_asman_coscheduling() {
    // The paper's §3.2: coscheduling must keep proportional-share
    // fairness. A capped sync-heavy VM must not exceed its share even
    // when ASMan aggressively coschedules it.
    let clk = Clock::default();
    for policy in [Sched::Credit, Sched::Asman] {
        let mut m = SimulationBuilder::new()
            .seed(4)
            .policy(policy)
            .vm(VmSpec::new(
                "dom0",
                8,
                Box::new(BackgroundService::new(BackgroundConfig::default(), 8, 1)),
            ))
            .vm(VmSpec::new("guest", 4, sync_heavy(4, 2))
                .weight(64) // 40% online rate
                .cap(CapMode::NonWorkConserving))
            .build();
        m.run_until(clk.secs(5));
        let rate = m.vm_accounting(1).online_rate(m.now());
        assert!(
            rate < 0.45,
            "{policy:?}: capped VM exceeded its share: {rate:.3}"
        );
        assert!(rate > 0.30, "{policy:?}: capped VM starved: {rate:.3}");
    }
}

#[test]
fn work_conserving_uses_idle_capacity() {
    let clk = Clock::default();
    let mut m = SimulationBuilder::new()
        .seed(4)
        .vm(VmSpec::new(
            "idle",
            8,
            Box::new(ScriptProgram::homogeneous("i", 8, vec![])),
        ))
        .vm(VmSpec::new("busy", 4, busy(4)).weight(64))
        .build();
    m.run_until(clk.secs(2));
    let rate = m.vm_accounting(1).online_rate(m.now());
    assert!(rate > 0.9, "WC busy VM should use idle capacity: {rate:.3}");
}

#[test]
fn coscheduling_does_not_starve_third_parties() {
    // One ASMan-coscheduled sync-heavy VM next to two busy VMs: everyone
    // keeps a sane share of the fully loaded machine.
    let clk = Clock::default();
    let mut m = SimulationBuilder::new()
        .seed(8)
        .policy(Sched::Asman)
        .vm(VmSpec::new("sync", 4, sync_heavy(4, 3)).concurrent())
        .vm(VmSpec::new("b1", 4, busy(4)))
        .vm(VmSpec::new("b2", 4, busy(4)))
        .build();
    m.run_until(clk.secs(4));
    for vm in 0..3 {
        let rate = m.vm_accounting(vm).online_rate(m.now());
        assert!(
            (0.30..0.95).contains(&rate),
            "vm {vm} share out of band: {rate:.3}"
        );
    }
}
