//! Windowed measurement of spinlock waiting behaviour.
//!
//! The paper's Figures 1(b), 2 and 8 observe spinlock waits over a fixed
//! 30-second period while the benchmark runs. [`WaitWindow`] reproduces
//! that: it advances a machine to the window start, snapshots the wait
//! histogram, arms the guest flight recorder's `lock` category for the
//! window, and reports the in-window population.

use asman_guest::stats::WAIT_FLOOR;
use asman_hypervisor::Machine;
use asman_sim::{CatMask, Cycles, FlightEv, FlightRecorder, Log2Histogram, TraceCat};
use serde::Serialize;

/// Simulated time between drains of the window's recorder, which keeps
/// every acquisition (short waits too) until it is drained.
const DRAIN_EVERY_MS: u64 = 100;

/// Spinlock-wait observations collected over one time window.
#[derive(Clone, Debug, Serialize)]
pub struct WaitWindow {
    /// Window start (simulated seconds).
    pub start_secs: f64,
    /// Window length (simulated seconds).
    pub length_secs: f64,
    /// Spinlock acquisitions inside the window.
    pub locks: u64,
    /// In-window waits ≥ 2^10 cycles.
    pub over_2_10: u64,
    /// In-window waits ≥ 2^20 cycles.
    pub over_2_20: u64,
    /// In-window waits ≥ 2^25 cycles.
    pub over_2_25: u64,
    /// `(time, wait in cycles)` of each in-window wait ≥ 2^10 cycles, in
    /// observation order (the scatter series of Figures 2 and 8).
    pub samples: Vec<(Cycles, u64)>,
}

impl WaitWindow {
    /// Run `machine` and collect the wait behaviour of VM `vm` during
    /// `[start, start + length]`.
    ///
    /// The window swaps in a guest flight recorder armed for `lock` only
    /// and with no capacity limit, drains it every 100 simulated ms, and
    /// puts back the recorder it found. Slicing the run this way leaves
    /// the simulation unchanged (`tests/determinism.rs` pins that).
    pub fn collect(machine: &mut Machine, vm: usize, start: Cycles, length: Cycles) -> Self {
        let clk = machine.config().clock;
        machine.run_until(start);
        let before: Log2Histogram = machine.vm_kernel(vm).stats().wait_hist.clone();
        let locks_before = machine.vm_kernel(vm).stats().lock_acquisitions;
        let window = FlightRecorder::new(CatMask::only(TraceCat::Lock), usize::MAX);
        let found = std::mem::replace(machine.vm_kernel_mut(vm).flight_mut(), window);
        let end = start + length;
        let mut samples = Vec::new();
        let mut t = start;
        while t < end {
            t = (t + clk.ms(DRAIN_EVERY_MS)).min(end);
            machine.run_until(t);
            for e in machine.vm_kernel_mut(vm).flight_mut().drain_events() {
                if let FlightEv::LockAcquire { wait, .. } = e.ev {
                    if wait >= WAIT_FLOOR.as_u64() {
                        samples.push((e.t, wait));
                    }
                }
            }
        }
        *machine.vm_kernel_mut(vm).flight_mut() = found;
        let stats = machine.vm_kernel(vm).stats();
        let after = &stats.wait_hist;
        let cum = |h: &Log2Histogram, e: u32| h.count_at_least_pow2(e);
        WaitWindow {
            start_secs: clk.to_secs(start),
            length_secs: clk.to_secs(length),
            locks: stats.lock_acquisitions - locks_before,
            over_2_10: cum(after, 10) - cum(&before, 10),
            over_2_20: cum(after, 20) - cum(&before, 20),
            over_2_25: cum(after, 25) - cum(&before, 25),
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Sched, SingleVmScenario};
    use asman_sim::Clock;
    use asman_workloads::{NasBenchmark, NasSpec, ProblemClass};

    #[test]
    fn window_counts_match_samples() {
        let clk = Clock::default();
        let sc = SingleVmScenario::new(Sched::Credit, 64, 3);
        let lu = NasSpec::new(NasBenchmark::LU, ProblemClass::S, 4).build(1);
        let mut m = sc.build(Box::new(lu));
        let w = WaitWindow::collect(&mut m, 1, clk.ms(500), clk.secs(2));
        assert!(w.locks > 0, "window must observe lock activity");
        assert_eq!(w.samples.len() as u64, w.over_2_10);
        assert!(w.over_2_20 <= w.over_2_10);
        assert!(w.over_2_25 <= w.over_2_20);
        // Every retained sample is above the collection floor, in time
        // order inside the window.
        assert!(w.samples.iter().all(|&(_, s)| s >= 1 << 10));
        assert!(w.samples.windows(2).all(|p| p[0].0 <= p[1].0));
        assert!(w.samples.iter().all(|&(t, _)| t >= clk.ms(500)));
    }
}
