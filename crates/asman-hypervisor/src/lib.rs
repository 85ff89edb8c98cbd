//! Virtual machine monitor model for the ASMan reproduction.
//!
//! This crate implements the Xen-like hypervisor substrate the paper
//! modifies: physical CPUs, virtual CPUs, VMs running [`asman_guest`]
//! kernels, and the **Credit scheduler** with proportional-share weights,
//! BOOST wake priority, load balancing and work-/non-work-conserving cap
//! modes — plus the coscheduling mechanics (VCPU relocation and IPI
//! bursts) that the paper's adaptive scheduler drives through the VCRD.
//!
//! Three scheduler configurations reproduce the paper's comparisons:
//!
//! | paper label | [`CoschedPolicy`] |
//! |---|---|
//! | `Credit` | [`CoschedPolicy::None`] |
//! | `CON` (static coscheduling, VEE'09) | [`CoschedPolicy::Static`] |
//! | `ASMan` | [`CoschedPolicy::Adaptive`] + an `asman-core` Monitoring Module per VM |
//!
//! # Example
//!
//! ```
//! use asman_hypervisor::{Machine, MachineConfig, VmSpec};
//! use asman_workloads::{Op, ScriptProgram};
//! use asman_sim::{Clock, Cycles};
//!
//! let clk = Clock::default();
//! let job = ScriptProgram::homogeneous("job", 2, vec![Op::Compute(clk.ms(5))]);
//! let mut machine = Machine::new(
//!     MachineConfig::default(),
//!     vec![VmSpec::new("vm1", 2, Box::new(job))],
//! );
//! assert!(machine.run_to_completion(clk.secs(1)));
//! assert!(machine.vm_kernel(0).stats().finished_at.is_some());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod machine;
pub mod metrics;

pub use config::{CapMode, CoschedPolicy, MachineConfig, VmSpec};
pub use machine::{Ev, Machine, OracleMachine, PerfSnapshot, VmCounters, VmImage, VmRetirement};
pub use metrics::VmAccounting;
