//! Quickstart: the paper's headline result in ~40 lines.
//!
//! Runs the LU benchmark on a 4-VCPU VM whose online rate is capped at
//! 22.2% (the paper's lowest setting), under the plain Credit scheduler
//! and under ASMan, and prints run time, spinlock wait statistics and
//! VCRD activity.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use asman::prelude::*;

fn main() {
    let clk = Clock::default();
    println!("LU (class S) on V1: 4 VCPUs, weight 32 vs dom0's 256 => 22.2% online rate");
    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "policy", "run(s)", ">2^10", ">2^20", "raises", "high%"
    );
    for policy in [Sched::Credit, Sched::Asman] {
        let lu = NasSpec::new(NasBenchmark::LU, ProblemClass::S, 4).build(7);
        let dom0 = BackgroundService::new(BackgroundConfig::default(), 8, 0xD0);
        let mut machine = SimulationBuilder::new()
            .seed(42)
            .policy(policy)
            .vm(VmSpec::new("dom0", 8, Box::new(dom0)))
            .vm(VmSpec::new("guest", 4, Box::new(lu))
                .weight(32)
                .cap(CapMode::NonWorkConserving)
                .concurrent())
            .build();
        let done = machine.run_to_completion(clk.secs(600));
        assert!(done, "LU must finish within the horizon");
        let stats = machine.vm_kernel(1).stats();
        let acct = machine.vm_accounting(1);
        let end = stats.finished_at.expect("finished");
        println!(
            "{:<8} {:>9.1} {:>9} {:>9} {:>8} {:>8.1}",
            format!("{policy:?}"),
            clk.to_secs(end),
            stats.wait_hist.count_at_least_pow2(10),
            stats.wait_hist.count_at_least_pow2(20),
            acct.vcrd_raises,
            100.0 * acct.vcrd_high_cycles.as_u64() as f64 / end.as_u64() as f64,
        );
    }
    println!();
    println!("ASMan detects the over-threshold spinlock waits that lock-holder");
    println!("preemption causes, raises the VM's VCRD and coschedules its VCPUs —");
    println!("recovering most of the Credit scheduler's excess run time.");
}
