//! Accounting snapshots exposed by the machine model.

use asman_sim::Cycles;
use serde::{Deserialize, Serialize};

/// Kinds of scheduling transitions, recorded as flight events (park and
/// unpark in the `credit` category, the rest in `sched`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedEventKind {
    /// VCPU given a PCPU.
    Dispatch,
    /// VCPU involuntarily preempted back to a runqueue.
    Preempt,
    /// VCPU blocked (guest idle).
    Block,
    /// VCPU woken (runnable again).
    Wake,
    /// VCPU parked by cap enforcement.
    Park,
    /// VCPU unparked at an accounting event.
    Unpark,
}

/// Per-VM CPU accounting.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct VmAccounting {
    /// Total cycles each VCPU spent online (mapped to a PCPU).
    pub vcpu_online: Vec<Cycles>,
    /// Number of times each VCPU was dispatched.
    pub dispatches: Vec<u64>,
    /// Number of VCPU migrations between PCPUs.
    pub migrations: u64,
    /// IPI coscheduling bursts initiated for this VM.
    pub cosched_bursts: u64,
    /// VCRD transitions LOW→HIGH observed by the VMM.
    pub vcrd_raises: u64,
    /// Total cycles the VM spent with VCRD HIGH.
    pub vcrd_high_cycles: Cycles,
    /// Time integral of VCPU-online concurrency: `co_online[k]` is the
    /// total time exactly `k` of the VM's VCPUs were online
    /// simultaneously. `co_online[n]` for an n-VCPU VM is the
    /// "effectively coscheduled" time.
    pub co_online: Vec<Cycles>,
    /// Same histogram restricted to periods with VCRD HIGH (coscheduling
    /// effectiveness diagnostics).
    pub co_online_high: Vec<Cycles>,
}

impl VmAccounting {
    /// Zeroed accounting for `vcpus` VCPUs.
    pub fn new(vcpus: usize) -> Self {
        VmAccounting {
            vcpu_online: vec![Cycles::ZERO; vcpus],
            dispatches: vec![0; vcpus],
            migrations: 0,
            cosched_bursts: 0,
            vcrd_raises: 0,
            vcrd_high_cycles: Cycles::ZERO,
            co_online: vec![Cycles::ZERO; vcpus + 1],
            co_online_high: vec![Cycles::ZERO; vcpus + 1],
        }
    }

    /// Fraction of `elapsed` during which **all** VCPUs were online
    /// simultaneously (the coscheduling quality metric).
    pub fn all_online_frac(&self, elapsed: Cycles) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        let all = self.co_online.last().copied().unwrap_or(Cycles::ZERO);
        all.as_u64() as f64 / elapsed.as_u64() as f64
    }

    /// Total online cycles summed over VCPUs.
    pub fn total_online(&self) -> Cycles {
        self.vcpu_online.iter().copied().sum()
    }

    /// Average VCPU online rate over `elapsed` simulated cycles — the
    /// paper's Equation (2) measured rather than configured.
    pub fn online_rate(&self, elapsed: Cycles) -> f64 {
        if elapsed.is_zero() || self.vcpu_online.is_empty() {
            return 0.0;
        }
        self.total_online().as_u64() as f64
            / (elapsed.as_u64() as f64 * self.vcpu_online.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_rate_is_share_of_elapsed() {
        let mut a = VmAccounting::new(4);
        for c in &mut a.vcpu_online {
            *c = Cycles(250);
        }
        // 4 VCPUs each online 250 of 1000 cycles -> 25%.
        assert!((a.online_rate(Cycles(1_000)) - 0.25).abs() < 1e-12);
        assert_eq!(a.total_online(), Cycles(1_000));
    }

    #[test]
    fn degenerate_rate_is_zero() {
        let a = VmAccounting::new(0);
        assert_eq!(a.online_rate(Cycles(100)), 0.0);
        let b = VmAccounting::new(2);
        assert_eq!(b.online_rate(Cycles::ZERO), 0.0);
    }
}
