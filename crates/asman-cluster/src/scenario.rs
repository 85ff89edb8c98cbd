//! Deterministic cluster scenarios.
//!
//! [`consolidation`] is the paper-style headline case: an operator
//! consolidated several concurrent (gang) VMs onto one host while other
//! hosts run only background services. The overloaded host's gangs
//! demand more PCPUs than exist, so no per-host scheduler — not even
//! ASMan's adaptive coscheduler — can stop them from spinning on
//! preempted lock holders. Only a placement change can, which is what
//! the cluster experiment measures across policies.
//!
//! [`random_mix`] builds arbitrary heterogeneous clusters from a seed;
//! the fuzz smoke tests drive it with random tuples.

use crate::churn::{ShapeKind, VmShape};
use crate::{Cluster, ClusterConfig};
use asman_core::AsmanConfig;
use asman_hypervisor::{Machine, MachineConfig, VmSpec};
use asman_sim::SimRng;
use asman_workloads::{Op, ScriptProgram};

/// Parameters of the consolidation scenario.
#[derive(Clone, Copy, Debug)]
pub struct ConsolidationSpec {
    /// Host count (>= 2; host 0 is the consolidated one).
    pub hosts: usize,
    /// Concurrent 3-VCPU gang VMs packed onto host 0.
    pub gangs: usize,
    /// PCPUs per host.
    pub pcpus: usize,
    /// Base seed; each host derives an independent stream.
    pub seed: u64,
}

impl Default for ConsolidationSpec {
    fn default() -> Self {
        ConsolidationSpec {
            hosts: 3,
            gangs: 2,
            pcpus: 4,
            seed: 42,
        }
    }
}

/// Per-host seed: decorrelate hosts without losing determinism.
fn host_seed(base: u64, host: usize) -> u64 {
    base ^ (host as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

/// A concurrent (gang) VM: every thread takes one shared kernel
/// spinlock briefly (20 µs) between 180 µs compute bursts, forever.
/// The ~10% lock duty cycle keeps contention cheap while the VCPUs are
/// coscheduled; but when a holder's VCPU is preempted, every sibling
/// that reaches the lock spins for the holder's whole offline gap —
/// the spin is lock-holder preemption, not inherent contention, so a
/// placement that restores coscheduling recovers nearly all of it.
fn gang_program(name: String, vcpus: usize, cfg: &MachineConfig) -> ScriptProgram {
    let clk = cfg.clock;
    ScriptProgram::homogeneous(
        name,
        vcpus,
        vec![
            Op::CriticalSection {
                lock: 0,
                hold: clk.us(20),
            },
            Op::Compute(clk.us(180)),
        ],
    )
    .looping()
}

/// A quiet background service: short compute bursts between long
/// sleeps. Big in VCPU count, near-zero in synchronization demand.
fn background_program(name: String, vcpus: usize, cfg: &MachineConfig) -> ScriptProgram {
    let clk = cfg.clock;
    ScriptProgram::homogeneous(
        name,
        vcpus,
        vec![Op::Compute(clk.us(500)), Op::Sleep(clk.ms(2))],
    )
    .looping()
}

/// Build the [`VmSpec`] for a churn arrival of the given shape, using
/// the destination host's clock. Arrivals run the same gang/background
/// programs the seeded scenarios use, so a churned cluster stays
/// workload-homogeneous with its static twin.
pub(crate) fn arrival_spec(shape: &VmShape, name: String, cfg: &MachineConfig) -> VmSpec {
    let program: Box<dyn asman_workloads::Program> = match shape.kind {
        ShapeKind::Gang => Box::new(gang_program(name.clone(), shape.vcpus, cfg)),
        ShapeKind::Background => Box::new(background_program(name.clone(), shape.vcpus, cfg)),
    };
    VmSpec::new(name, shape.vcpus, program).weight(shape.weight)
}

/// Build the consolidation hosts: host 0 carries `gangs` lock-heavy
/// 3-VCPU VMs plus a 4-VCPU background VM; every other host carries one
/// background VM. All hosts run the full ASMan stack (Adaptive policy +
/// per-VM Monitoring Modules).
pub fn consolidation(spec: &ConsolidationSpec) -> Vec<Machine> {
    assert!(
        spec.hosts >= 2,
        "consolidation needs somewhere to migrate to"
    );
    assert!(spec.gangs >= 1, "need at least one gang");
    let mcfg = MachineConfig {
        pcpus: spec.pcpus,
        ..MachineConfig::default()
    };
    (0..spec.hosts)
        .map(|h| {
            let host_cfg = MachineConfig {
                seed: host_seed(spec.seed, h),
                ..mcfg
            };
            let mut specs = Vec::new();
            if h == 0 {
                for g in 0..spec.gangs {
                    let vcpus = 3.min(spec.pcpus);
                    specs.push(VmSpec::new(
                        format!("gang{g}"),
                        vcpus,
                        Box::new(gang_program(format!("gang{g}"), vcpus, &host_cfg)),
                    ));
                }
            }
            let vcpus = 4.min(spec.pcpus);
            specs.push(VmSpec::new(
                format!("bg{h}"),
                vcpus,
                Box::new(background_program(format!("bg{h}"), vcpus, &host_cfg)),
            ));
            asman_core::asman_machine(
                AsmanConfig {
                    machine: host_cfg,
                    ..AsmanConfig::default()
                },
                specs,
            )
        })
        .collect()
}

/// Convenience: a ready-to-run consolidation [`Cluster`].
pub fn consolidation_cluster(cfg: ClusterConfig, spec: &ConsolidationSpec) -> Cluster {
    Cluster::new(cfg, consolidation(spec))
}

/// A uniformly loaded cluster for scaling benchmarks: every host
/// carries one 3-VCPU gang VM plus one 2-VCPU background VM on 4
/// PCPUs. Each gang fits its host, so no policy proposes a migration —
/// the epoch loop's cost is pure host advancement plus the balancer
/// scan, which is what the `benchmark/` package's `cluster-epochs`
/// workload measures. Per-host seeds keep hosts decorrelated and every
/// run bit-reproducible.
pub fn uniform(hosts: usize, seed: u64) -> Vec<Machine> {
    assert!(hosts >= 1, "need at least one host");
    (0..hosts)
        .map(|h| {
            let host_cfg = MachineConfig {
                pcpus: 4,
                seed: host_seed(seed, h),
                ..MachineConfig::default()
            };
            let specs = vec![
                VmSpec::new(
                    format!("gang{h}"),
                    3,
                    Box::new(gang_program(format!("gang{h}"), 3, &host_cfg)),
                ),
                VmSpec::new(
                    format!("bg{h}"),
                    2,
                    Box::new(background_program(format!("bg{h}"), 2, &host_cfg)),
                ),
            ];
            asman_core::asman_machine(
                AsmanConfig {
                    machine: host_cfg,
                    ..AsmanConfig::default()
                },
                specs,
            )
        })
        .collect()
}

/// A hotspot cluster for the multi-move convergence pins: the first
/// `max(1, hosts/4)` hosts each carry **two** lock-heavy 3-VCPU gang
/// VMs on 4 PCPUs (demand 6 > 4, so every hot host spins on
/// lock-holder preemption until it sheds a gang), while the remaining
/// hosts run a single 2-VCPU background service and are gang-free
/// destinations. Rebalancing needs exactly one migration per hot host,
/// each with a distinct source and (by the gang-fit rule) a distinct
/// destination — so the epochs-to-balance of this scenario measures
/// the per-epoch move budget directly: budget 1 needs ~`hosts/4`
/// epochs, budget K needs ~`hosts/(4K)`.
pub fn hotspot(hosts: usize, seed: u64) -> Vec<Machine> {
    assert!(hosts >= 2, "hotspot needs somewhere to migrate to");
    let hot = (hosts / 4).max(1);
    (0..hosts)
        .map(|h| {
            let host_cfg = MachineConfig {
                pcpus: 4,
                seed: host_seed(seed, h),
                ..MachineConfig::default()
            };
            let specs = if h < hot {
                (0..2)
                    .map(|g| {
                        let name = format!("gang{h}_{g}");
                        VmSpec::new(
                            name.clone(),
                            3,
                            Box::new(gang_program(name, 3, &host_cfg)),
                        )
                    })
                    .collect()
            } else {
                vec![VmSpec::new(
                    format!("bg{h}"),
                    2,
                    Box::new(background_program(format!("bg{h}"), 2, &host_cfg)),
                )]
            };
            asman_core::asman_machine(
                AsmanConfig {
                    machine: host_cfg,
                    ..AsmanConfig::default()
                },
                specs,
            )
        })
        .collect()
}

/// A random heterogeneous cluster: `hosts` machines with 2–6 PCPUs each
/// and `vms` VMs of random shape (gang or background, 1–4 VCPUs, random
/// weight) dealt round-robin-ish onto random hosts. Fully determined by
/// `seed`.
pub fn random_mix(hosts: usize, vms: usize, seed: u64) -> Vec<Machine> {
    assert!(hosts >= 1 && vms >= 1);
    let mut rng = SimRng::new(seed ^ 0xC1u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let pcpus: Vec<usize> = (0..hosts).map(|_| rng.range(2, 7) as usize).collect();
    let mut per_host: Vec<Vec<VmSpec>> = (0..hosts).map(|_| Vec::new()).collect();
    for v in 0..vms {
        let h = rng.index(hosts);
        let cfg = MachineConfig {
            pcpus: pcpus[h],
            ..MachineConfig::default()
        };
        let vcpus = (rng.range(1, 5) as usize).min(pcpus[h]);
        let name = format!("vm{v}");
        let program: Box<dyn asman_workloads::Program> = if rng.chance(0.5) {
            Box::new(gang_program(name.clone(), vcpus, &cfg))
        } else {
            Box::new(background_program(name.clone(), vcpus, &cfg))
        };
        let weight = rng.range(128, 513) as u32;
        per_host[h].push(VmSpec::new(name, vcpus, program).weight(weight));
    }
    per_host
        .into_iter()
        .enumerate()
        .map(|(h, mut specs)| {
            // A host must carry at least one VM for the scenario to be
            // interesting; give empty hosts a tiny background service.
            if specs.is_empty() {
                let cfg = MachineConfig {
                    pcpus: pcpus[h],
                    ..MachineConfig::default()
                };
                specs.push(VmSpec::new(
                    format!("filler{h}"),
                    1,
                    Box::new(background_program(format!("filler{h}"), 1, &cfg)),
                ));
            }
            asman_core::asman_machine(
                AsmanConfig {
                    machine: MachineConfig {
                        pcpus: pcpus[h],
                        seed: host_seed(seed, h),
                        ..MachineConfig::default()
                    },
                    ..AsmanConfig::default()
                },
                specs,
            )
        })
        .collect()
}
