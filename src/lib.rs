//! # asman — adaptive dynamic coscheduling for virtual machines
//!
//! A full reproduction of *Weng, Liu, Yu, Li — "Dynamic Adaptive
//! Scheduling for Virtual Machines" (HPDC 2011)* as a deterministic
//! discrete-event simulation in Rust: the Xen-like Credit scheduler
//! substrate, a guest kernel model exhibiting lock-holder preemption, the
//! NAS/SPECjbb/SPEC-rate workload models, and the paper's contribution —
//! the VCRD-driven **ASMan** adaptive coscheduler with its Roth–Erev
//! lasting-time estimator.
//!
//! This facade crate re-exports the workspace's public API and provides
//! [`SimulationBuilder`], a one-stop entry point for assembling
//! experiments.
//!
//! ## Quick start
//!
//! ```
//! use asman::prelude::*;
//!
//! // LU (tiny class) on a 4-VCPU VM capped at a 40% online rate,
//! // under the Credit scheduler and under ASMan.
//! let mut results = Vec::new();
//! for sched in [Sched::Credit, Sched::Asman] {
//!     let lu = NasSpec::new(NasBenchmark::LU, ProblemClass::S, 4).build(7);
//!     let mut machine = SimulationBuilder::new()
//!         .seed(42)
//!         .policy(sched)
//!         .vm(VmSpec::new("dom0", 8, Box::new(ScriptProgram::homogeneous("idle", 8, vec![]))))
//!         .vm(VmSpec::new("guest", 4, Box::new(lu))
//!             .weight(64)
//!             .cap(CapMode::NonWorkConserving))
//!         .build();
//!     machine.run_to_completion(Clock::default().secs(600));
//!     results.push(machine.vm_kernel(1).stats().finished_at.expect("finished"));
//! }
//! // ASMan never loses to Credit on a synchronization-heavy workload.
//! assert!(results[1] <= results[0] + Clock::default().secs(2));
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`sim`] | event queue, cycle clock, RNG, statistics |
//! | [`workloads`] | NAS-like, SPECjbb-like, SPEC-rate-like programs |
//! | [`guest`] | guest kernel: spinlocks, futexes, barriers, Monitoring Module hooks |
//! | [`hypervisor`] | PCPUs/VCPUs/VMs, Credit scheduler, coscheduling mechanics |
//! | [`core`] | ASMan: VCRD, locality model, Roth–Erev estimator |
//! | [`cluster`] | multi-host lock-step driver, global balancer, live migration |
//! | [`report`] | per-figure experiment harness |

#![warn(missing_docs)]

pub use asman_cluster as cluster;
pub use asman_core as core;
pub use asman_guest as guest;
pub use asman_hypervisor as hypervisor;
pub use asman_report as report;
pub use asman_sim as sim;
pub use asman_workloads as workloads;

pub use asman_report::Sched;

use asman_core::AsmanConfig;
use asman_hypervisor::{Machine, MachineConfig, VmSpec};

/// Fluent builder for a simulated machine.
///
/// ```
/// use asman::prelude::*;
///
/// let job = ScriptProgram::homogeneous("job", 2, vec![Op::Compute(Clock::default().ms(5))]);
/// let mut m = SimulationBuilder::new()
///     .pcpus(4)
///     .vm(VmSpec::new("v", 2, Box::new(job)))
///     .build();
/// assert!(m.run_to_completion(Clock::default().secs(1)));
/// ```
pub struct SimulationBuilder {
    cfg: MachineConfig,
    sched: Sched,
    asman: AsmanConfig,
    vms: Vec<VmSpec>,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimulationBuilder {
    /// Start from the paper's testbed defaults (8 PCPUs at 2.33 GHz,
    /// 10 ms slots, 30 ms accounting, Credit policy).
    pub fn new() -> Self {
        SimulationBuilder {
            cfg: MachineConfig::default(),
            sched: Sched::Credit,
            asman: AsmanConfig::default(),
            vms: Vec::new(),
        }
    }

    /// Number of physical CPUs.
    pub fn pcpus(mut self, n: usize) -> Self {
        self.cfg.pcpus = n;
        self
    }

    /// Simulation seed (bit-exact reproducibility).
    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.seed = s;
        self
    }

    /// Scheduler: Credit, CON or ASMan.
    pub fn policy(mut self, sched: Sched) -> Self {
        self.sched = sched;
        self
    }

    /// Override the raw machine configuration.
    pub fn machine_config(mut self, cfg: MachineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Override ASMan's monitor/learning parameters (used with
    /// [`Sched::Asman`]).
    pub fn asman_config(mut self, cfg: AsmanConfig) -> Self {
        self.asman = cfg;
        self
    }

    /// Add a VM.
    pub fn vm(mut self, spec: VmSpec) -> Self {
        self.vms.push(spec);
        self
    }

    /// Assemble the machine (see [`Sched::setup`]).
    pub fn build(self) -> Machine {
        let tune = AsmanConfig {
            machine: self.cfg,
            ..self.asman
        };
        let (cfg, vms) = self.sched.setup(tune, self.vms);
        Machine::new(cfg, vms)
    }
}

/// Everything a typical experiment needs, in one import.
pub mod prelude {
    pub use crate::{Sched, SimulationBuilder};
    pub use asman_core::{asman_machine, AsmanConfig, AsmanMonitor, LearningConfig};
    pub use asman_guest::{GuestCosts, MonitorConfig, Vcrd};
    pub use asman_hypervisor::{CapMode, CoschedPolicy, Machine, MachineConfig, VmSpec};
    pub use asman_sim::{Clock, Cycles};
    pub use asman_workloads::{
        BackgroundConfig, BackgroundService, Mark, NasBenchmark, NasSpec, Op, ProblemClass,
        Program, ScriptProgram, SpecCpuKind, SpecCpuRate, SpecJbb, SpecJbbConfig,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn builder_selects_policy() {
        let mk = |p| {
            let job = ScriptProgram::homogeneous("j", 1, vec![]);
            crate::SimulationBuilder::new()
                .pcpus(2)
                .policy(p)
                .vm(VmSpec::new("v", 1, Box::new(job)))
                .build()
        };
        assert_eq!(mk(Sched::Credit).config().policy, CoschedPolicy::None);
        assert_eq!(mk(Sched::Con).config().policy, CoschedPolicy::Static);
        assert_eq!(mk(Sched::Asman).config().policy, CoschedPolicy::Adaptive);
    }
}
