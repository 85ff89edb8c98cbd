//! Cloud-consolidation scenario: mixed tenants on one host.
//!
//! The paper motivates ASMan with consolidated hosting (its §5.2 cites
//! Amazon EC2's fractional compute units). This example consolidates six
//! tenant VMs of three kinds — a parallel solver (LU), a web-ish
//! contended-throughput JVM (SPECjbb-like) and batch compression jobs
//! (bzip2-like) — on one 8-PCPU host, and compares the three schedulers.
//!
//! ```text
//! cargo run --release --example cloud_consolidation
//! ```

use asman::prelude::*;

fn tenant_specs(seed: u64) -> Vec<VmSpec> {
    let mk_lu = |s| {
        Box::new(
            NasSpec::new(NasBenchmark::LU, ProblemClass::S, 4)
                .repeating()
                .build(s),
        )
    };
    vec![
        VmSpec::new(
            "dom0",
            8,
            Box::new(BackgroundService::new(
                BackgroundConfig::default(),
                8,
                seed ^ 0xD0,
            )),
        ),
        VmSpec::new("solver-1", 4, mk_lu(seed + 1)).concurrent(),
        VmSpec::new("solver-2", 4, mk_lu(seed + 2)).concurrent(),
        VmSpec::new(
            "webapp",
            4,
            Box::new(SpecJbb::new(
                SpecJbbConfig {
                    warehouses: 4,
                    ..SpecJbbConfig::default()
                },
                seed + 3,
            )),
        ),
        VmSpec::new(
            "batch-1",
            4,
            Box::new(SpecCpuRate::new(SpecCpuKind::Bzip2, 4, seed + 4)),
        ),
        VmSpec::new(
            "batch-2",
            4,
            Box::new(SpecCpuRate::new(SpecCpuKind::Gcc, 4, seed + 5)),
        ),
    ]
}

fn main() {
    let clk = Clock::default();
    let horizon = clk.secs(60);
    println!("Six tenants on one 8-PCPU host, 60 simulated seconds each run.\n");
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>14}",
        "policy", "solver rounds", "webapp tx/s", "batch rounds", "solver >2^20"
    );
    for policy in [Sched::Credit, Sched::Con, Sched::Asman] {
        let mut m = SimulationBuilder::new()
            .seed(99)
            .policy(policy)
            .machine_config(MachineConfig::default());
        for spec in tenant_specs(99) {
            m = m.vm(spec);
        }
        let mut machine = m.build();
        machine.run_until(horizon);
        let solver_rounds: usize = (1..=2)
            .map(|vm| machine.vm_kernel(vm).stats().vm_rounds_completed())
            .sum();
        let webapp_tx = machine.vm_kernel(3).stats().transactions as f64 / clk.to_secs(horizon);
        let batch_rounds: usize = (4..=5)
            .map(|vm| machine.vm_kernel(vm).stats().vm_rounds_completed())
            .sum();
        let over: u64 = (1..=2)
            .map(|vm| {
                machine
                    .vm_kernel(vm)
                    .stats()
                    .wait_hist
                    .count_at_least_pow2(20)
            })
            .sum();
        println!(
            "{:<8} {:>14} {:>14.0} {:>14} {:>14}",
            format!("{policy:?}"),
            solver_rounds,
            webapp_tx,
            batch_rounds,
            over,
        );
    }
    println!();
    println!("Shape: coscheduling (CON, ASMan) roughly doubles the solvers'");
    println!("round throughput relative to Credit. ASMan needs no administrator");
    println!("hints — note that CON only helps the solver VMs because somebody");
    println!("flagged them as concurrent, while ASMan also adapts to the JVM's");
    println!("own synchronization (GC safepoints), trading a slice of webapp");
    println!("throughput for it.");
}
