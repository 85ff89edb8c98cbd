//! Machine and VM configuration.

use asman_guest::{GuestCosts, NullObserver, SpinObserver};
use asman_sim::{Clock, Cycles};
use asman_workloads::Program;
use serde::Serialize;

/// How a VM's proportional share is enforced (Xen terminology, §5.2–5.3
/// of the paper / Cherkasova et al.).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum CapMode {
    /// Shares are merely guarantees: a VM may receive extra CPU time when
    /// other VMs are blocked or idle (used in the multi-VM experiments).
    WorkConserving,
    /// The VM's CPU time is strictly capped at its weight proportion
    /// (used in the single-VM online-rate experiments): a VCPU whose
    /// credit is exhausted is *parked* until the next assignment.
    NonWorkConserving,
}

/// Which coscheduling strategy the VMM applies on top of the Credit
/// scheduler's proportional-share machinery.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum CoschedPolicy {
    /// The unmodified Credit scheduler: VCPUs are scheduled fully
    /// asynchronously (the paper's `Credit` baseline).
    None,
    /// Static coscheduling of VMs whose `concurrent_hint` flag is set by
    /// the administrator — the authors' previous VEE'09 system, labelled
    /// `CON` in the paper's figures.
    Static,
    /// ASMan: coschedule a VM's VCPUs exactly while its Monitoring Module
    /// holds the VCRD HIGH (Algorithms 1–4).
    Adaptive,
    /// VMware-style *relaxed* coscheduling of `concurrent_hint` VMs: no
    /// gang starts; instead the VMM tracks per-VCPU skew (time spent
    /// descheduled while siblings run) and boosts only VCPUs whose skew
    /// exceeds a bound. Implemented for the related-work comparison of
    /// §6 (`repro extensions`).
    Relaxed,
    /// The paper's stated future work (§7): infer the VCRD *outside* the
    /// VM, with no guest modification, from hardware spin detection
    /// (Pause-Loop-Exit style): a VCPU busy-waiting for longer than a
    /// bound raises its VM's VCRD for a fixed window.
    OutOfVm,
}

/// Physical machine and scheduler parameters.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MachineConfig {
    /// CPU clock (default 2.33 GHz, the paper's Xeon X5410).
    pub clock: Clock,
    /// Number of physical CPUs (default 8: dual quad-core).
    pub pcpus: usize,
    /// Basic scheduling slot in milliseconds (Credit scheduler: 10 ms
    /// accounting tick).
    pub slot_ms: u64,
    /// Credit (re)assignment interval in slots (Credit scheduler: 30 ms
    /// ⇒ 3 slots).
    pub assign_interval_slots: u32,
    /// Inter-processor interrupt delivery latency in microseconds.
    pub ipi_latency_us: u64,
    /// Maximum random latency, in microseconds, between a VCPU becoming
    /// runnable and the scheduler reacting (interrupt/softirq noise on
    /// real hardware; this is what desynchronizes sibling VCPUs under the
    /// plain Credit scheduler).
    pub wake_jitter_us: u64,
    /// A VCPU may accumulate at most this many assignment intervals'
    /// worth of credit (idle VMs must not hoard unbounded credit — the
    /// Credit scheduler clips similarly).
    pub credit_cap_intervals: u64,
    /// Cache warm-up penalty, in microseconds of lost progress, paid by a
    /// VCPU dispatched after an involuntary preemption, a PCPU migration,
    /// or a long absence (cold caches are the classic hidden cost of
    /// (co)scheduling churn).
    pub warmup_us: u64,
    /// Number of CPU sockets; PCPUs are split evenly across them (the
    /// paper's testbed is a dual quad-core). Only meaningful together
    /// with [`cross_socket_warmup_us`](Self::cross_socket_warmup_us) /
    /// [`llc_aware`](Self::llc_aware).
    pub sockets: usize,
    /// Warm-up penalty for a migration *across* sockets (the last-level
    /// cache does not travel). Defaults to `warmup_us` (no extra cost) so
    /// the base model is socket-oblivious; the LLC ablations raise it.
    pub cross_socket_warmup_us: u64,
    /// Whether waking VCPUs receive BOOST priority (Xen's mechanism for
    /// I/O latency; on by default). Exposed for the boost ablation.
    pub boost_enabled: bool,
    /// The paper's §7 future work: make coscheduling placement LLC-aware
    /// — gang siblings onto one socket and keep wakeups socket-local.
    pub llc_aware: bool,
    /// Coscheduling strategy.
    pub policy: CoschedPolicy,
    /// Simulation seed (wake jitter and any other machine-level noise).
    pub seed: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            clock: Clock::default(),
            pcpus: 8,
            slot_ms: 10,
            assign_interval_slots: 3,
            ipi_latency_us: 4,
            wake_jitter_us: 300,
            credit_cap_intervals: 1,
            warmup_us: 60,
            sockets: 2,
            cross_socket_warmup_us: 60,
            boost_enabled: true,
            llc_aware: false,
            policy: CoschedPolicy::None,
            seed: 0x5eed,
        }
    }
}

impl MachineConfig {
    /// Scheduling slot length in cycles.
    pub fn slot(&self) -> Cycles {
        self.clock.ms(self.slot_ms)
    }

    /// Credit assignment interval in cycles.
    pub fn assign_interval(&self) -> Cycles {
        self.slot() * self.assign_interval_slots as u64
    }

    /// IPI latency in cycles.
    pub fn ipi_latency(&self) -> Cycles {
        self.clock.us(self.ipi_latency_us)
    }
}

/// Specification of one VM to create on the machine.
pub struct VmSpec {
    /// Name used in reports.
    pub name: String,
    /// Number of VCPUs.
    pub vcpus: usize,
    /// Proportional-share weight (Xen's integer weight parameter).
    pub weight: u32,
    /// Cap enforcement mode.
    pub cap: CapMode,
    /// Administrator's "concurrent VM" flag, honoured only by
    /// [`CoschedPolicy::Static`].
    pub concurrent_hint: bool,
    /// The workload to run.
    pub program: Box<dyn Program>,
    /// Guest-side Monitoring Module (use [`NullObserver`] for baselines).
    pub observer: Box<dyn SpinObserver>,
    /// Guest-kernel cost model.
    pub costs: GuestCosts,
}

impl VmSpec {
    /// A VM with default costs, a null observer, weight 256, work-
    /// conserving mode and no concurrent hint.
    pub fn new(name: impl Into<String>, vcpus: usize, program: Box<dyn Program>) -> Self {
        VmSpec {
            name: name.into(),
            vcpus,
            weight: 256,
            cap: CapMode::WorkConserving,
            concurrent_hint: false,
            program,
            observer: Box::new(NullObserver),
            costs: GuestCosts::default(),
        }
    }

    /// Set the weight.
    pub fn weight(mut self, w: u32) -> Self {
        self.weight = w;
        self
    }

    /// Set the cap mode.
    pub fn cap(mut self, c: CapMode) -> Self {
        self.cap = c;
        self
    }

    /// Mark as a concurrent VM for static coscheduling.
    pub fn concurrent(mut self) -> Self {
        self.concurrent_hint = true;
        self
    }

    /// Install a Monitoring Module observer.
    pub fn observer(mut self, o: Box<dyn SpinObserver>) -> Self {
        self.observer = o;
        self
    }

    /// Override the guest cost model.
    pub fn costs(mut self, c: GuestCosts) -> Self {
        self.costs = c;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asman_workloads::ScriptProgram;

    #[test]
    fn default_machine_matches_paper_testbed() {
        let c = MachineConfig::default();
        assert_eq!(c.pcpus, 8);
        assert_eq!(c.slot(), Cycles(23_300_000)); // 10 ms at 2.33 GHz
        assert_eq!(c.assign_interval(), Cycles(69_900_000)); // 30 ms
        assert_eq!(c.ipi_latency(), Cycles(9_320)); // 4 µs
    }

    #[test]
    fn vmspec_builder_sets_fields() {
        let p = ScriptProgram::homogeneous("w", 2, vec![]);
        let s = VmSpec::new("vm", 4, Box::new(p))
            .weight(64)
            .cap(CapMode::NonWorkConserving)
            .concurrent();
        assert_eq!(s.weight, 64);
        assert_eq!(s.cap, CapMode::NonWorkConserving);
        assert!(s.concurrent_hint);
        assert_eq!(s.vcpus, 4);
    }
}
