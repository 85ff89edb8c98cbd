//! SPECjbb2005-style throughput measurement (§5.2, Figure 10).
//!
//! A single JVM instance (VM V1, 4 VCPUs) runs 1..=8 warehouses; the
//! metric is business operations per second measured over a steady-state
//! window, and the SPECjbb score is the mean throughput over the points
//! with at least as many warehouses as VCPUs.

use asman_sim::Cycles;
use asman_workloads::{SpecJbb, SpecJbbConfig};
use serde::Serialize;

use crate::scenario::{Sched, SingleVmScenario};

/// One throughput measurement point.
#[derive(Clone, Debug, Serialize)]
pub struct JbbPoint {
    /// Warehouse count.
    pub warehouses: usize,
    /// Transactions per simulated second in the measurement window.
    pub bops: f64,
    /// Measured VCPU online rate during the window run.
    pub online_rate: f64,
    /// VCRD raises over the run (ASMan only).
    pub vcrd_raises: u64,
}

/// SPECjbb experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct JbbScenario {
    /// Scheduler under test.
    pub sched: Sched,
    /// V1 weight (sets the online rate per Equation 2).
    pub weight: u32,
    /// Simulation seed.
    pub seed: u64,
    /// Warm-up before the measurement window, simulated seconds.
    pub warmup_secs: u64,
    /// Measurement window, simulated seconds.
    pub window_secs: u64,
}

impl JbbScenario {
    /// Default measurement setup.
    pub fn new(sched: Sched, weight: u32, seed: u64) -> Self {
        JbbScenario {
            sched,
            weight,
            seed,
            warmup_secs: 3,
            window_secs: 15,
        }
    }

    /// Measure throughput with `warehouses` warehouse threads.
    pub fn run(&self, warehouses: usize) -> JbbPoint {
        let mut sc = SingleVmScenario::new(self.sched, self.weight, self.seed);
        // HotSpot-era JVMs spin aggressively at safepoint polls and on
        // contended monitors before parking; give the guest a larger
        // barrier spin budget to match.
        sc.costs = Some(asman_guest::GuestCosts {
            barrier_spin_budget: asman_sim::Clock::default().ms(3),
            ..asman_guest::GuestCosts::default()
        });
        let jbb = SpecJbb::new(
            SpecJbbConfig {
                warehouses,
                ..SpecJbbConfig::default()
            },
            self.seed ^ 0x1BB,
        );
        let mut m = sc.build(Box::new(jbb));
        let clk = m.config().clock;
        m.run_until(clk.secs(self.warmup_secs));
        let tx0 = m.vm_kernel(1).stats().transactions;
        let t0 = m.now();
        m.run_until(clk.secs(self.warmup_secs + self.window_secs));
        let tx1 = m.vm_kernel(1).stats().transactions;
        let window = clk.to_secs(m.now() - t0);
        JbbPoint {
            warehouses,
            bops: (tx1 - tx0) as f64 / window,
            online_rate: m.vm_accounting(1).online_rate(m.now().max(Cycles(1))),
            vcrd_raises: m.vm_accounting(1).vcrd_raises,
        }
    }

    /// Throughput for warehouses 1..=`max_w`.
    pub fn sweep(&self, max_w: usize) -> Vec<JbbPoint> {
        (1..=max_w).map(|w| self.run(w)).collect()
    }

    /// The SPECjbb score: mean of the points with `warehouses >= vcpus`
    /// (the VM has 4 VCPUs).
    pub fn score(points: &[JbbPoint]) -> f64 {
        let scoring: Vec<f64> = points
            .iter()
            .filter(|p| p.warehouses >= 4)
            .map(|p| p.bops)
            .collect();
        if scoring.is_empty() {
            0.0
        } else {
            scoring.iter().sum::<f64>() / scoring.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_positive_and_scales_with_warehouses() {
        let sc = JbbScenario {
            warmup_secs: 1,
            window_secs: 4,
            ..JbbScenario::new(Sched::Credit, 256, 5)
        };
        let one = sc.run(1);
        let four = sc.run(4);
        assert!(one.bops > 100.0, "1 warehouse: {}", one.bops);
        // With 4 VCPUs, 4 warehouses must outrun 1 by a wide margin.
        assert!(
            four.bops > one.bops * 2.0,
            "1w={} 4w={}",
            one.bops,
            four.bops
        );
    }

    #[test]
    fn score_averages_w_ge_4() {
        let pts: Vec<JbbPoint> = (1..=6)
            .map(|w| JbbPoint {
                warehouses: w,
                bops: w as f64 * 100.0,
                online_rate: 1.0,
                vcrd_raises: 0,
            })
            .collect();
        // Mean of 400, 500, 600.
        assert!((JbbScenario::score(&pts) - 500.0).abs() < 1e-9);
        assert_eq!(JbbScenario::score(&[]), 0.0);
    }
}
