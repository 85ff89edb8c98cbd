//! ASMan — the adaptive dynamic coscheduling manager of the HPDC'11
//! paper "Dynamic Adaptive Scheduling for Virtual Machines".
//!
//! This crate implements the paper's contribution on top of the
//! hypervisor substrate (`asman-hypervisor`) and guest model
//! (`asman-guest`):
//!
//! * the **VCRD** (VCPU Related Degree) concept and its adjusting
//!   algorithm — Algorithm 1 — in [`monitor::AsmanMonitor`];
//! * the modified **Roth–Erev learning** updating function — Algorithm 2
//!   — in [`learning::LastingTimeEstimator`];
//! * the **locality-of-synchronization** model of §4.2 in [`locality`];
//! * convenience constructors that assemble an ASMan-managed machine
//!   (Adaptive Scheduler = Credit scheduler + VCRD-driven IPI
//!   coscheduling, Algorithms 3–4, whose mechanics live in the
//!   hypervisor crate and are activated by
//!   [`CoschedPolicy::Adaptive`](asman_hypervisor::CoschedPolicy)).
//!
//! # Quick start
//!
//! ```
//! use asman_core::{asman_machine, AsmanConfig};
//! use asman_hypervisor::VmSpec;
//! use asman_workloads::{NasBenchmark, NasSpec, ProblemClass};
//! use asman_sim::Clock;
//!
//! let clk = Clock::default();
//! let lu = NasSpec::new(NasBenchmark::LU, ProblemClass::S, 4).build(1);
//! let mut machine = asman_machine(
//!     AsmanConfig::default(),
//!     vec![VmSpec::new("vm1", 4, Box::new(lu))],
//! );
//! machine.run_to_completion(clk.secs(600));
//! assert!(machine.vm_kernel(0).stats().finished_at.is_some());
//! ```

#![warn(missing_docs)]

pub mod learning;
pub mod locality;
pub mod monitor;

pub use learning::{LastingTimeEstimator, LearningConfig};
pub use locality::{Locality, LocalitySegmenter, SyntheticLocalityProcess};
pub use monitor::{AsmanMonitor, MonitorStats};

use asman_guest::MonitorConfig;
use asman_hypervisor::{CoschedPolicy, Machine, MachineConfig, VmSpec};

/// Bundled configuration for an ASMan deployment: machine parameters plus
/// the per-VM Monitoring Module settings.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct AsmanConfig {
    /// Machine/scheduler parameters (the policy field is overridden to
    /// [`CoschedPolicy::Adaptive`]).
    pub machine: MachineConfig,
    /// Over-threshold detection (δ).
    pub monitor: MonitorConfig,
    /// Learning algorithm parameters.
    pub learning: LearningConfig,
}

/// Resolve an [`AsmanConfig`] into the machine configuration and
/// observer-decorated VM specs an ASMan deployment needs: the policy is
/// forced to [`CoschedPolicy::Adaptive`] and every VM gets a Monitoring
/// Module with an independent deterministic seed derived from the
/// machine seed. Split out from [`asman_machine`] so the differential
/// audit harness can build an oracle machine from the exact same
/// inputs.
pub fn asman_setup(cfg: AsmanConfig, specs: Vec<VmSpec>) -> (MachineConfig, Vec<VmSpec>) {
    let mcfg = MachineConfig {
        policy: CoschedPolicy::Adaptive,
        ..cfg.machine
    };
    let specs = specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let seed = mcfg
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64);
            spec.observer(Box::new(AsmanMonitor::new(
                cfg.monitor,
                cfg.learning.clone(),
                seed,
            )))
        })
        .collect();
    (mcfg, specs)
}

/// Build a machine running the ASMan Adaptive Scheduler, attaching a
/// Monitoring Module to every VM (each with an independent deterministic
/// seed derived from the machine seed).
pub fn asman_machine(cfg: AsmanConfig, specs: Vec<VmSpec>) -> Machine {
    let (mcfg, specs) = asman_setup(cfg, specs);
    Machine::new(mcfg, specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asman_sim::{Clock, Cycles};
    use asman_workloads::{Op, ScriptProgram};

    #[test]
    fn asman_machine_uses_adaptive_policy() {
        let clk = Clock::default();
        let p = ScriptProgram::homogeneous("x", 2, vec![Op::Compute(clk.ms(1))]);
        let m = asman_machine(
            AsmanConfig::default(),
            vec![VmSpec::new("v", 2, Box::new(p))],
        );
        assert_eq!(m.config().policy, CoschedPolicy::Adaptive);
    }

    /// End-to-end: a contended-lock workload under ASMan raises VCRD when
    /// lock-holder preemption produces over-threshold waits.
    #[test]
    fn vcrd_raises_under_real_contention() {
        let clk = Clock::default();
        // Overcommit 2 VMs x 2 VCPUs on 2 PCPUs with lock-heavy work so
        // holders get preempted while holding.
        let mk = || {
            Box::new(
                ScriptProgram::homogeneous(
                    "locky",
                    2,
                    vec![
                        Op::CriticalSection {
                            lock: 0,
                            hold: Cycles(Clock::default().us(200).as_u64()),
                        },
                        Op::Compute(Cycles(Clock::default().us(100).as_u64())),
                    ],
                )
                .looping(),
            )
        };
        let cfg = AsmanConfig {
            machine: MachineConfig {
                pcpus: 2,
                ..MachineConfig::default()
            },
            ..AsmanConfig::default()
        };
        let mut m = asman_machine(
            cfg,
            vec![VmSpec::new("a", 2, mk()), VmSpec::new("b", 2, mk())],
        );
        m.run_until(clk.secs(3));
        let raises: u64 = (0..2).map(|i| m.vm_accounting(i).vcrd_raises).sum();
        assert!(
            raises > 0,
            "contended overcommit must produce over-threshold waits and raises"
        );
    }
}
