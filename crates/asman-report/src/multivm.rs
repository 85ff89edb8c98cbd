//! Multi-VM scenario machinery (§5.3, Figures 11–12).
//!
//! Four or six VMs (4 VCPUs, weight 256, work-conserving) run
//! combinations of concurrent (NAS) and high-throughput (SPEC-rate)
//! workloads in repeating batch rounds, next to the dom0 VM. The paper
//! reports the mean run time of each benchmark's first ten rounds and
//! checks the coefficient of variation stays below 10%.

use asman_hypervisor::{Machine, MachineConfig, VmSpec};
use asman_sim::OnlineStats;
use asman_workloads::{NasBenchmark, NasSpec, ProblemClass, SpecCpuKind, SpecCpuRate};
use serde::{Deserialize, Serialize};

use crate::scenario::{dom0_vm, machine_for, Sched};

/// One workload VM in a multi-VM combination.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum VmWorkload {
    /// A NAS concurrent benchmark (4 threads), flagged as a concurrent VM
    /// for the static coscheduler.
    Nas(NasBenchmark),
    /// A SPEC CPU2000 rate workload (4 simultaneous copies).
    Spec(SpecCpuKind),
}

impl VmWorkload {
    /// Display name as in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            VmWorkload::Nas(b) => b.name(),
            VmWorkload::Spec(k) => k.name(),
        }
    }

    /// Whether the administrator would flag this VM as concurrent.
    pub fn concurrent(&self) -> bool {
        matches!(self, VmWorkload::Nas(_))
    }
}

/// A §5.3 experiment: several workload VMs running simultaneously.
#[derive(Clone, Debug)]
pub struct MultiVmScenario {
    /// The workload of each VM (V1, V2, …).
    pub workloads: Vec<VmWorkload>,
    /// Scheduler under test.
    pub sched: Sched,
    /// Problem class for the NAS VMs.
    pub class: ProblemClass,
    /// Rounds to average (the paper uses 10).
    pub rounds: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Give-up horizon in simulated seconds.
    pub horizon_secs: u64,
}

/// Per-VM result of a multi-VM run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MultiVmRow {
    /// VM name ("V1"…).
    pub vm: String,
    /// Benchmark name.
    pub workload: String,
    /// Mean run time of the first `rounds` rounds, simulated seconds.
    pub mean_round_secs: f64,
    /// Coefficient of variation of those round times.
    pub cov: f64,
    /// Rounds completed within the horizon.
    pub rounds_completed: usize,
    /// Measured VCPU online rate over the whole run.
    pub online_rate: f64,
    /// VCRD raises (ASMan only).
    pub vcrd_raises: u64,
}

impl MultiVmScenario {
    /// Standard configuration for a workload combination.
    pub fn new(sched: Sched, workloads: Vec<VmWorkload>, class: ProblemClass, seed: u64) -> Self {
        MultiVmScenario {
            workloads,
            sched,
            class,
            rounds: 10,
            seed,
            horizon_secs: 4_000,
        }
    }

    /// Build the machine (dom0 + one VM per workload).
    pub fn build(&self) -> Machine {
        let cfg = MachineConfig {
            seed: self.seed,
            ..MachineConfig::default()
        };
        let mut specs = vec![dom0_vm("V0", 8, self.seed ^ 0xD0)];
        for (i, w) in self.workloads.iter().enumerate() {
            let name = format!("V{}", i + 1);
            let seed = self.seed.wrapping_add(1 + i as u64);
            let mut spec = match w {
                VmWorkload::Nas(b) => VmSpec::new(
                    name,
                    4,
                    Box::new(NasSpec::new(*b, self.class, 4).repeating().build(seed)),
                ),
                VmWorkload::Spec(k) => {
                    VmSpec::new(name, 4, Box::new(SpecCpuRate::new(*k, 4, seed)))
                }
            };
            if w.concurrent() {
                spec = spec.concurrent();
            }
            specs.push(spec);
        }
        machine_for(self.sched, cfg, specs)
    }

    /// Run until every workload VM completed `rounds` rounds (or the
    /// horizon) and report per-VM results.
    pub fn run(&self) -> Vec<MultiVmRow> {
        let mut m = self.build();
        let clk = m.config().clock;
        let need = self.rounds;
        let n_vms = self.workloads.len();
        m.run_while(clk.secs(self.horizon_secs), |m| {
            (1..=n_vms).any(|vm| m.vm_kernel(vm).stats().vm_rounds_completed() < need)
        });
        let elapsed = m.now();
        (0..n_vms)
            .map(|i| {
                let vm = i + 1;
                let stats = m.vm_kernel(vm).stats();
                let done = stats.vm_rounds_completed().min(need);
                let mut rounds_stats = OnlineStats::new();
                let mut steady = OnlineStats::new();
                let mut prev = asman_sim::Cycles::ZERO;
                for r in 0..done {
                    let t = stats.vm_round_time(r).expect("completed round");
                    let secs = clk.to_secs(t - prev);
                    rounds_stats.record(secs);
                    if r > 0 {
                        // The variation statistic excludes round 0: its
                        // cold-start transient (empty caches, initial
                        // credit alignment) is not round-to-round noise.
                        steady.record(secs);
                    }
                    prev = t;
                }
                MultiVmRow {
                    vm: m.vm_name(vm).to_string(),
                    workload: self.workloads[i].name().to_string(),
                    mean_round_secs: rounds_stats.mean(),
                    cov: steady.coefficient_of_variation(),
                    rounds_completed: done,
                    online_rate: m.vm_accounting(vm).online_rate(elapsed),
                    vcrd_raises: m.vm_accounting(vm).vcrd_raises,
                }
            })
            .collect()
    }
}

/// Run the same combination under several schedulers, fanning the
/// independent machines over `runner`'s worker pool. Row order follows
/// `scheds`, and every row is identical to a sequential
/// [`MultiVmScenario::run`] — each scheduler gets its own machine built
/// from the same seeds.
pub fn run_under_schedulers(
    base: &MultiVmScenario,
    scheds: &[Sched],
    runner: &asman_sim::SweepRunner,
) -> Vec<Vec<MultiVmRow>> {
    runner.map(scheds.to_vec(), |sched| {
        MultiVmScenario {
            sched,
            ..base.clone()
        }
        .run()
    })
}

/// The paper's four combinations (Figures 11(a), 11(b), 12(a), 12(b)).
pub fn paper_combination(which: u8) -> Vec<VmWorkload> {
    use NasBenchmark::{LU, SP};
    use SpecCpuKind::{Bzip2, Gcc};
    match which {
        1 => vec![
            VmWorkload::Spec(Bzip2),
            VmWorkload::Spec(Gcc),
            VmWorkload::Nas(SP),
            VmWorkload::Nas(LU),
        ],
        2 => vec![
            VmWorkload::Nas(LU),
            VmWorkload::Nas(LU),
            VmWorkload::Nas(SP),
            VmWorkload::Nas(SP),
        ],
        3 => vec![
            VmWorkload::Spec(Bzip2),
            VmWorkload::Spec(Bzip2),
            VmWorkload::Spec(Gcc),
            VmWorkload::Spec(Gcc),
            VmWorkload::Nas(SP),
            VmWorkload::Nas(LU),
        ],
        4 => vec![
            VmWorkload::Spec(Bzip2),
            VmWorkload::Spec(Gcc),
            VmWorkload::Nas(SP),
            VmWorkload::Nas(SP),
            VmWorkload::Nas(LU),
            VmWorkload::Nas(LU),
        ],
        other => panic!("unknown combination {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinations_match_paper() {
        assert_eq!(paper_combination(1).len(), 4);
        assert_eq!(paper_combination(2).len(), 4);
        assert_eq!(paper_combination(3).len(), 6);
        assert_eq!(paper_combination(4).len(), 6);
        assert!(paper_combination(2).iter().all(|w| w.concurrent()));
        assert_eq!(
            paper_combination(1)
                .iter()
                .filter(|w| w.concurrent())
                .count(),
            2
        );
    }

    #[test]
    fn small_combination_completes_rounds() {
        use NasBenchmark::CG;
        let sc = MultiVmScenario {
            rounds: 2,
            horizon_secs: 600,
            ..MultiVmScenario::new(
                Sched::Credit,
                vec![VmWorkload::Nas(CG), VmWorkload::Spec(SpecCpuKind::Gcc)],
                ProblemClass::S,
                11,
            )
        };
        let rows = sc.run();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.rounds_completed, 2, "{} rounds", r.workload);
            assert!(r.mean_round_secs > 0.0);
            assert!(r.online_rate > 0.0);
        }
    }
}
