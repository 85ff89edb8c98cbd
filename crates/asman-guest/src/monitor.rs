//! The Monitoring Module interface and VCRD types.
//!
//! The paper's Monitoring Module runs inside each guest kernel: it
//! instruments the spinlock path, detects *over-threshold* waits
//! (longer than 2^δ cycles, δ = 20), adjusts the VM's **VCPU Related
//! Degree** (VCRD) and notifies the VMM through the `do_vcrd_op`
//! hypercall. The detection/estimation logic (Algorithms 1–2) is the
//! paper's contribution and lives in `asman-core`; this module defines the
//! trait boundary so baseline schedulers can run with a no-op observer.

use asman_sim::Cycles;
use serde::Serialize;

/// The VCPU Related Degree of a VM: how strongly its VCPUs currently need
/// to be online simultaneously.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub enum Vcrd {
    /// VCPUs may be scheduled asynchronously (the default).
    #[default]
    Low,
    /// VCPUs should be coscheduled: over-threshold spinlocks were detected
    /// and a locality of synchronization is believed to be in progress.
    High,
}

/// A VCRD change requested by the Monitoring Module, delivered to the
/// adaptive scheduler via the `do_vcrd_op` hypercall.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VcrdUpdate {
    /// The new VCRD value.
    pub vcrd: Vcrd,
    /// For `High`: the estimated lasting time x_{i+1} of the locality; the
    /// hypervisor arms a timer and calls [`SpinObserver::on_vcrd_timer`]
    /// when it fires.
    pub expire_in: Option<Cycles>,
}

/// Guest-side observer of spinlock behaviour — the Monitoring Module hook.
///
/// The guest kernel invokes this on **every** kernel spinlock acquisition
/// with the measured waiting time, and when a previously armed estimation
/// timer fires. Returning `Some` requests a hypercall to the VMM.
pub trait SpinObserver: Send {
    /// A spinlock was acquired at `now` after waiting `wait` cycles.
    fn on_spinlock_wait(&mut self, now: Cycles, wait: Cycles) -> Option<VcrdUpdate>;

    /// The timer armed by a previous [`VcrdUpdate`] fired.
    fn on_vcrd_timer(&mut self, now: Cycles) -> Option<VcrdUpdate>;
}

/// Observer used by the unmodified Credit scheduler and the static
/// coscheduler: no monitoring, no hypercalls.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl SpinObserver for NullObserver {
    fn on_spinlock_wait(&mut self, _now: Cycles, _wait: Cycles) -> Option<VcrdUpdate> {
        None
    }
    fn on_vcrd_timer(&mut self, _now: Cycles) -> Option<VcrdUpdate> {
        None
    }
}

/// Configuration shared by monitoring implementations.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MonitorConfig {
    /// Over-threshold exponent δ: waits above `2^delta` cycles trigger a
    /// VCRD adjusting event. The paper uses δ = 20.
    pub delta: u32,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig { delta: 20 }
    }
}

impl MonitorConfig {
    /// The over-threshold bound in cycles (`2^delta`).
    pub fn threshold(&self) -> Cycles {
        Cycles::pow2(self.delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threshold_is_2_pow_20() {
        assert_eq!(MonitorConfig::default().threshold(), Cycles(1 << 20));
        assert_eq!(MonitorConfig { delta: 16 }.threshold(), Cycles(1 << 16));
    }

    #[test]
    fn null_observer_never_signals() {
        let mut o = NullObserver;
        assert!(o.on_spinlock_wait(Cycles(1), Cycles(u64::MAX)).is_none());
        assert!(o.on_vcrd_timer(Cycles(2)).is_none());
    }

    #[test]
    fn vcrd_default_is_low() {
        assert_eq!(Vcrd::default(), Vcrd::Low);
    }
}
