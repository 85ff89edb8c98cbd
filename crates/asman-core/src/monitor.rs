//! The ASMan Monitoring Module (Algorithm 1).
//!
//! One [`AsmanMonitor`] runs inside each VM's guest kernel. It watches
//! every kernel spinlock waiting time; an over-threshold wait (≥ 2^δ
//! cycles) triggers a *VCRD adjusting event*: the learning algorithm
//! estimates the lasting time x_{i+1} of the locality of synchronization
//! that just opened, the VCRD is raised to HIGH and reported to the
//! Adaptive Scheduler via the `do_vcrd_op` hypercall, and a timer is
//! armed. If the timer fires with no further over-threshold spinlock, the
//! VCRD returns to LOW; a further over-threshold wait instead invokes the
//! next adjusting event (extending the coscheduling window).

use asman_guest::{MonitorConfig, SpinObserver, Vcrd, VcrdUpdate};
use asman_sim::{Cycles, SimRng};
use serde::Serialize;

use crate::learning::{LastingTimeEstimator, LearningConfig};

/// Aggregate statistics kept by the Monitoring Module.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct MonitorStats {
    /// Over-threshold waits seen (= VCRD adjusting events).
    pub adjust_events: u64,
    /// LOW→HIGH transitions requested.
    pub raises: u64,
    /// Adjusting events that arrived while already HIGH (extensions).
    pub extensions: u64,
    /// HIGH→LOW transitions requested (timer expiries).
    pub expiries: u64,
    /// Sum of estimated lasting times, for mean-estimate reporting.
    pub estimate_sum: Cycles,
}

/// The per-VM ASMan Monitoring Module (implements [`SpinObserver`]).
pub struct AsmanMonitor {
    cfg: MonitorConfig,
    estimator: LastingTimeEstimator,
    rng: SimRng,
    state: Vcrd,
    last_adjust_at: Option<Cycles>,
    stats: MonitorStats,
}

impl AsmanMonitor {
    /// Build a monitor with threshold configuration `cfg`, learning
    /// parameters `learning`, and a deterministic seed.
    pub fn new(cfg: MonitorConfig, learning: LearningConfig, seed: u64) -> Self {
        AsmanMonitor {
            cfg,
            estimator: LastingTimeEstimator::new(learning),
            rng: SimRng::new(seed),
            state: Vcrd::Low,
            last_adjust_at: None,
            stats: MonitorStats::default(),
        }
    }

    /// Paper-default monitor: δ = 20, default learning parameters.
    pub fn with_defaults(seed: u64) -> Self {
        AsmanMonitor::new(MonitorConfig::default(), LearningConfig::default(), seed)
    }

    /// Monitoring statistics.
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// Current guest-side VCRD.
    pub fn vcrd(&self) -> Vcrd {
        self.state
    }

    /// The learning estimator (inspection).
    pub fn estimator(&self) -> &LastingTimeEstimator {
        &self.estimator
    }
}

impl SpinObserver for AsmanMonitor {
    fn on_spinlock_wait(&mut self, now: Cycles, wait: Cycles) -> Option<VcrdUpdate> {
        if wait < self.cfg.threshold() {
            return None;
        }
        // Over-threshold: VCRD adjusting event i+1.
        self.stats.adjust_events += 1;
        let z = self.last_adjust_at.map(|t| now.saturating_sub(t));
        self.last_adjust_at = Some(now);
        let x = self.estimator.adjust(z, &mut self.rng);
        self.stats.estimate_sum += x;
        if self.state == Vcrd::High {
            self.stats.extensions += 1;
        } else {
            self.stats.raises += 1;
        }
        self.state = Vcrd::High;
        Some(VcrdUpdate {
            vcrd: Vcrd::High,
            expire_in: Some(x),
        })
    }

    fn on_vcrd_timer(&mut self, _now: Cycles) -> Option<VcrdUpdate> {
        if self.state != Vcrd::High {
            return None;
        }
        // No over-threshold spinlock during the estimated interval
        // (otherwise the hypervisor-side epoch would have invalidated
        // this timer): back to LOW.
        self.state = Vcrd::Low;
        self.stats.expiries += 1;
        Some(VcrdUpdate {
            vcrd: Vcrd::Low,
            expire_in: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asman_sim::Clock;

    fn ms(v: u64) -> Cycles {
        Clock::default().ms(v)
    }

    fn over() -> Cycles {
        Cycles(1 << 21)
    }

    #[test]
    fn sub_threshold_waits_are_ignored() {
        let mut m = AsmanMonitor::with_defaults(1);
        for w in [0u64, 100, 1 << 10, (1 << 20) - 1] {
            assert!(m.on_spinlock_wait(ms(1), Cycles(w)).is_none());
        }
        assert_eq!(m.stats().adjust_events, 0);
        assert_eq!(m.vcrd(), Vcrd::Low);
    }

    #[test]
    fn over_threshold_raises_high_with_estimate() {
        let mut m = AsmanMonitor::with_defaults(1);
        let u = m.on_spinlock_wait(ms(10), over()).expect("update");
        assert_eq!(u.vcrd, Vcrd::High);
        let x = u.expire_in.expect("estimate");
        assert!(m.estimator().values().contains(&x));
        assert_eq!(m.vcrd(), Vcrd::High);
        assert_eq!(m.stats().raises, 1);
    }

    #[test]
    fn timer_returns_to_low_exactly_once() {
        let mut m = AsmanMonitor::with_defaults(1);
        m.on_spinlock_wait(ms(10), over());
        let d = m.on_vcrd_timer(ms(20)).expect("expiry update");
        assert_eq!(d.vcrd, Vcrd::Low);
        assert_eq!(m.vcrd(), Vcrd::Low);
        assert!(m.on_vcrd_timer(ms(30)).is_none(), "already LOW");
        assert_eq!(m.stats().expiries, 1);
    }

    #[test]
    fn over_threshold_while_high_extends() {
        let mut m = AsmanMonitor::with_defaults(1);
        m.on_spinlock_wait(ms(10), over());
        let u = m.on_spinlock_wait(ms(12), over()).expect("extension");
        assert_eq!(u.vcrd, Vcrd::High);
        assert!(u.expire_in.is_some());
        assert_eq!(m.stats().raises, 1);
        assert_eq!(m.stats().extensions, 1);
        assert_eq!(m.stats().adjust_events, 2);
    }

    #[test]
    fn custom_delta_changes_sensitivity() {
        let mut m = AsmanMonitor::new(MonitorConfig { delta: 16 }, LearningConfig::default(), 7);
        assert!(m.on_spinlock_wait(ms(1), Cycles(1 << 17)).is_some());
    }
}
