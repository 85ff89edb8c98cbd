//! Shared scenario machinery for the paper's experiments.
//!
//! §5.2 (single VM): the administrator VM V0 has 8 VCPUs, weight 256 and
//! no workload; the measured VM V1 has 4 VCPUs and weight 256/128/64/32,
//! giving configured VCPU online rates of 100/66.7/40/22.2 % (Equations
//! 1–2), in non-work-conserving mode.
//!
//! §5.3 (multiple VMs): 4 or 6 VMs with 4 VCPUs each, weight 256,
//! work-conserving mode, running combinations of concurrent (NAS) and
//! high-throughput (SPEC-rate) workloads repeatedly; the measurement is
//! the mean run time of the first ten rounds.

use asman_core::{asman_setup, AsmanConfig};
use asman_guest::GuestStats;
use asman_hypervisor::{CapMode, CoschedPolicy, Machine, MachineConfig, VmSpec};
use asman_sim::Cycles;
use asman_workloads::{BackgroundConfig, BackgroundService, Program, ScriptProgram};
use serde::Serialize;

/// Scheduler under test, matching the labels of the paper's figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Sched {
    /// The unmodified Xen Credit scheduler.
    Credit,
    /// ASMan: adaptive dynamic coscheduling.
    Asman,
    /// CON: static coscheduling of administrator-flagged concurrent VMs
    /// (the authors' VEE'09 system).
    Con,
}

impl Sched {
    /// Display label as used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            Sched::Credit => "Credit",
            Sched::Asman => "ASMan",
            Sched::Con => "CON",
        }
    }

    /// All three schedulers.
    pub const ALL: [Sched; 3] = [Sched::Credit, Sched::Asman, Sched::Con];

    /// The machine configuration and VM specs this scheduler runs:
    /// `tune.machine` under the scheduler's [`CoschedPolicy`], and under
    /// [`Sched::Asman`] a Monitoring Module with `tune`'s monitor and
    /// learning parameters on every VM. The one mapping from a
    /// scheduler label to a machine; it does not commit to a queue
    /// implementation, so the differential audit feeds its result to
    /// either engine. For [`Sched::Con`] the specs are expected to
    /// carry `concurrent_hint` flags already.
    pub fn setup(self, tune: AsmanConfig, specs: Vec<VmSpec>) -> (MachineConfig, Vec<VmSpec>) {
        let policy = match self {
            Sched::Credit => CoschedPolicy::None,
            Sched::Con => CoschedPolicy::Static,
            Sched::Asman => return asman_setup(tune, specs),
        };
        (
            MachineConfig {
                policy,
                ..tune.machine
            },
            specs,
        )
    }
}

/// The paper's four V1 weights and the resulting online rates.
pub const WEIGHT_RATES: [(u32, f64); 4] = [(256, 100.0), (128, 66.7), (64, 40.0), (32, 22.2)];

/// A VM with no workload (for tests needing a truly silent peer).
pub fn idle_vm(name: &str, vcpus: usize) -> VmSpec {
    VmSpec::new(
        name,
        vcpus,
        Box::new(ScriptProgram::homogeneous("idle", vcpus, vec![])),
    )
}

/// Domain-0: "no workload on it" in the paper's terms, but a real dom0
/// still services interrupts, timekeeping and xenstore — a few percent
/// of ambient activity that perturbs guest scheduling windows.
pub fn dom0_vm(name: &str, vcpus: usize, seed: u64) -> VmSpec {
    VmSpec::new(
        name,
        vcpus,
        Box::new(BackgroundService::new(
            BackgroundConfig::default(),
            vcpus,
            seed,
        )),
    )
}

/// Build a machine under the given scheduler with ASMan's default
/// parameters (see [`Sched::setup`]).
pub fn machine_for(sched: Sched, cfg: MachineConfig, specs: Vec<VmSpec>) -> Machine {
    let tune = AsmanConfig {
        machine: cfg,
        ..AsmanConfig::default()
    };
    let (cfg, specs) = sched.setup(tune, specs);
    Machine::new(cfg, specs)
}

/// Single-VM experiment configuration (§5.2 testbed).
#[derive(Clone, Copy, Debug)]
pub struct SingleVmScenario {
    /// V1's weight (256/128/64/32).
    pub weight: u32,
    /// Scheduler under test.
    pub sched: Sched,
    /// Simulation seed.
    pub seed: u64,
    /// Give-up horizon in simulated seconds.
    pub horizon_secs: u64,
    /// Guest cost model override for V1 (e.g. the JVM's larger safepoint
    /// spin budget).
    pub costs: Option<asman_guest::GuestCosts>,
}

impl SingleVmScenario {
    /// A scenario with the default horizon.
    pub fn new(sched: Sched, weight: u32, seed: u64) -> Self {
        SingleVmScenario {
            weight,
            sched,
            seed,
            horizon_secs: 4_000,
            costs: None,
        }
    }

    /// The configured VCPU online rate for this weight (Equation 2 with
    /// V0 = 8 VCPUs / weight 256 idle, V1 = 4 VCPUs).
    pub fn online_rate(&self) -> f64 {
        let omega = self.weight as f64 / (self.weight as f64 + 256.0);
        8.0 * omega / 4.0
    }

    /// Run `program` on V1 until completion (or horizon); returns the
    /// outcome measurements.
    pub fn run(&self, program: Box<dyn Program>) -> SingleVmOutcome {
        self.run_tuned(program, AsmanConfig::default())
    }

    /// [`SingleVmScenario::run`] on a tuned testbed (see
    /// [`SingleVmScenario::build_tuned`]).
    pub fn run_tuned(&self, program: Box<dyn Program>, tune: AsmanConfig) -> SingleVmOutcome {
        let mut m = self.build_tuned(program, tune);
        let clk = m.config().clock;
        let done = m.run_to_completion(clk.secs(self.horizon_secs));
        SingleVmOutcome::collect(&m, 1, done)
    }

    /// Build the machine without running it (for custom measurement
    /// windows, e.g. the 30-second wait traces of Figures 2 and 8).
    pub fn build(&self, program: Box<dyn Program>) -> Machine {
        self.build_tuned(program, AsmanConfig::default())
    }

    /// [`SingleVmScenario::build`] with the design parameters of `tune`:
    /// its machine knobs (the seed and policy stay the scenario's) and,
    /// under [`Sched::Asman`], its monitor and learning parameters. The
    /// hook of the design-parameter ablations.
    pub fn build_tuned(&self, program: Box<dyn Program>, tune: AsmanConfig) -> Machine {
        let machine = MachineConfig {
            seed: self.seed,
            ..tune.machine
        };
        let mut v1 = VmSpec::new("V1", 4, program)
            .weight(self.weight)
            .cap(CapMode::NonWorkConserving)
            .concurrent();
        if let Some(c) = self.costs {
            v1 = v1.costs(c);
        }
        let specs = vec![dom0_vm("V0", 8, self.seed ^ 0xD0), v1];
        let (cfg, specs) = self.sched.setup(AsmanConfig { machine, ..tune }, specs);
        Machine::new(cfg, specs)
    }
}

/// Measurements from a single-VM run.
#[derive(Clone, Debug, Serialize)]
pub struct SingleVmOutcome {
    /// Whether the workload completed before the horizon.
    pub completed: bool,
    /// Run time in simulated seconds (to completion, or the horizon).
    pub run_secs: f64,
    /// Kernel spinlock acquisitions observed.
    pub locks: u64,
    /// Waits ≥ 2^10 cycles.
    pub over_2_10: u64,
    /// Waits ≥ 2^20 cycles (over-threshold).
    pub over_2_20: u64,
    /// Measured VCPU online rate of the workload VM.
    pub online_rate: f64,
    /// Cycles burned spinning on kernel locks.
    pub spin_kernel_secs: f64,
    /// Cycles burned spinning at barriers.
    pub spin_barrier_secs: f64,
    /// VCRD LOW→HIGH transitions seen by the VMM.
    pub vcrd_raises: u64,
    /// Fraction of time the VM spent with VCRD HIGH.
    pub vcrd_high_frac: f64,
    /// Coscheduling IPI bursts.
    pub cosched_bursts: u64,
    /// Cycles burned in user-space pipeline (flag) spinning, in seconds.
    pub spin_pipeline_secs: f64,
    /// Useful work executed, in seconds.
    pub useful_secs: f64,
    /// Fraction of the VM's *online* time during which all its VCPUs were
    /// online simultaneously (coscheduling quality).
    pub all_online_frac: f64,
}

impl SingleVmOutcome {
    /// Collect the outcome for VM index `vm` from a finished machine.
    pub fn collect(m: &Machine, vm: usize, completed: bool) -> SingleVmOutcome {
        let clk = m.config().clock;
        let stats: &GuestStats = m.vm_kernel(vm).stats();
        let end = stats.finished_at.unwrap_or(m.now());
        let acct = m.vm_accounting(vm);
        let elapsed = if m.now().is_zero() {
            Cycles(1)
        } else {
            m.now()
        };
        SingleVmOutcome {
            completed,
            run_secs: clk.to_secs(end),
            locks: stats.lock_acquisitions,
            over_2_10: stats.wait_hist.count_at_least_pow2(10),
            over_2_20: stats.wait_hist.count_at_least_pow2(20),
            online_rate: acct.online_rate(end.max(Cycles(1))),
            spin_kernel_secs: clk.to_secs(stats.spin_kernel_cycles),
            spin_barrier_secs: clk.to_secs(stats.spin_barrier_cycles),
            vcrd_raises: acct.vcrd_raises,
            vcrd_high_frac: acct.vcrd_high_cycles.as_u64() as f64 / elapsed.as_u64() as f64,
            cosched_bursts: acct.cosched_bursts,
            spin_pipeline_secs: clk.to_secs(stats.spin_pipeline_cycles),
            useful_secs: clk.to_secs(stats.useful_cycles),
            all_online_frac: acct.all_online_frac(end.max(Cycles(1))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_rates_match_equation_2() {
        for (w, pct) in WEIGHT_RATES {
            let s = SingleVmScenario::new(Sched::Credit, w, 0);
            assert!(
                (s.online_rate() * 100.0 - pct).abs() < 0.1,
                "weight {w}: {} vs {pct}",
                s.online_rate() * 100.0
            );
        }
    }

    #[test]
    fn sched_labels() {
        assert_eq!(Sched::Credit.label(), "Credit");
        assert_eq!(Sched::Asman.label(), "ASMan");
        assert_eq!(Sched::Con.label(), "CON");
    }
}
