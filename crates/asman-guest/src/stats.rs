//! Per-VM measurement state.
//!
//! Mirrors the instrumentation of the paper's evaluation: spinlock
//! waiting-time histograms (Figures 1(b), 2, 8), throughput counters
//! (SPECjbb bops), per-thread round completions (SPEC-rate and multi-VM
//! batch rounds, §5.3), and cycle accounting that separates useful
//! computation from synchronization waste. Individual waits for the
//! scatter figures are not kept here: a windowed measurement arms the
//! guest flight recorder's `lock` category for just its window.

use asman_sim::{Cycles, Log2Histogram, QuantileHist};

/// Waits at least this long feed [`GuestStats::wait_cycles`] (the paper
/// collects spinlocks with waits > 2^10 cycles).
pub const WAIT_FLOOR: Cycles = Cycles::pow2(10);

/// Over-floor waits observed by [`GuestStats::wait_cycles`]; later ones
/// are counted only by `wait_hist`.
const WAIT_CYCLES_CAP: u64 = 200_000;

/// Measurement state of one guest kernel.
#[derive(Clone, Debug)]
pub struct GuestStats {
    /// Histogram of all kernel spinlock waiting times.
    pub wait_hist: Log2Histogram,
    /// Histogram of semaphore waiting times (§2.2 measures these too and
    /// finds them unaffected by virtualization).
    pub sem_wait_hist: Log2Histogram,
    /// Online quantiles of the first 200,000 waits of at least
    /// [`WAIT_FLOOR`] cycles, in record order (exported as
    /// `vmN.guest.wait_cycles`).
    pub wait_cycles: QuantileHist,
    /// Cycles burned busy-waiting on kernel spinlocks.
    pub spin_kernel_cycles: Cycles,
    /// Cycles burned in user-space barrier spinning.
    pub spin_barrier_cycles: Cycles,
    /// Cycles burned in user-space pipeline (flag) spinning.
    pub spin_pipeline_cycles: Cycles,
    /// Guest timer interrupts executed.
    pub timer_ticks: u64,
    /// Cycles of progress lost to cache warm-up after cold dispatches.
    pub warmup_cycles: Cycles,
    /// Cycles of useful work (compute segments and lock-held work).
    pub useful_cycles: Cycles,
    /// Completed transactions (`Mark::Transaction` count).
    pub transactions: u64,
    /// Per-thread completion times of each round, capped in length.
    pub round_times: Vec<Vec<Cycles>>,
    /// Completed barrier generations.
    pub barriers_completed: u64,
    /// Total kernel spinlock acquisitions.
    pub lock_acquisitions: u64,
    /// Number of times a lock holder was preempted while holding (the
    /// direct lock-holder-preemption event count).
    pub holder_preemptions: u64,
    /// Spin-episode duration distribution: every contiguous busy-wait
    /// charge segment (kernel spinlocks, barrier spins, pipeline-flag
    /// spins), in cycles. Segments are bounded by guest scheduling
    /// events, so preemption-inflated episodes appear as many short
    /// segments plus the telltale long tail. `None` (and zero cost)
    /// unless spin-episode telemetry is enabled.
    pub spin_episodes: Option<QuantileHist>,
    /// Time the VM finished its (finite) program, if it has.
    pub finished_at: Option<Cycles>,
}

/// Maximum per-thread round completion timestamps retained.
const MAX_ROUNDS_RECORDED: usize = 256;

impl GuestStats {
    /// Fresh stats for a VM with `threads` guest threads.
    pub fn new(threads: usize) -> Self {
        GuestStats {
            wait_hist: Log2Histogram::new(),
            sem_wait_hist: Log2Histogram::new(),
            wait_cycles: QuantileHist::default(),
            spin_kernel_cycles: Cycles::ZERO,
            spin_barrier_cycles: Cycles::ZERO,
            spin_pipeline_cycles: Cycles::ZERO,
            timer_ticks: 0,
            warmup_cycles: Cycles::ZERO,
            useful_cycles: Cycles::ZERO,
            transactions: 0,
            round_times: vec![Vec::new(); threads],
            barriers_completed: 0,
            lock_acquisitions: 0,
            holder_preemptions: 0,
            spin_episodes: None,
            finished_at: None,
        }
    }

    /// Spin-episode duration distribution, if telemetry is enabled.
    pub fn spin_episodes(&self) -> Option<&QuantileHist> {
        self.spin_episodes.as_ref()
    }

    /// Record one contiguous spin segment of `dur` cycles. No-op (one
    /// branch) unless spin-episode telemetry is enabled.
    #[inline]
    pub fn note_spin(&mut self, dur: Cycles) {
        if let Some(h) = self.spin_episodes.as_mut() {
            h.observe(dur.as_u64() as f64);
        }
    }

    /// Record a spinlock wait observation.
    pub fn record_wait(&mut self, wait: Cycles) {
        self.lock_acquisitions += 1;
        self.wait_hist.record(wait);
        if wait >= WAIT_FLOOR && self.wait_cycles.count() < WAIT_CYCLES_CAP {
            self.wait_cycles.observe(wait.as_u64() as f64);
        }
    }

    /// Record a round completion on `thread` at `now`.
    pub fn record_round(&mut self, thread: usize, now: Cycles) {
        let v = &mut self.round_times[thread];
        if v.len() < MAX_ROUNDS_RECORDED {
            v.push(now);
        }
    }

    /// Completion time of VM-level round `r` (0-based): the instant the
    /// slowest thread finished its `r`-th round, if all threads have.
    pub fn vm_round_time(&self, r: usize) -> Option<Cycles> {
        self.round_times
            .iter()
            .map(|v| v.get(r).copied())
            .collect::<Option<Vec<_>>>()
            .map(|ts| ts.into_iter().max().unwrap_or(Cycles::ZERO))
    }

    /// Number of VM-level rounds fully completed.
    pub fn vm_rounds_completed(&self) -> usize {
        self.round_times.iter().map(|v| v.len()).min().unwrap_or(0)
    }

    /// Mean run time of the first `n` VM-level rounds, in cycles, if that
    /// many completed (round k's run time = t_k − t_{k−1}).
    pub fn mean_round_cycles(&self, n: usize) -> Option<f64> {
        if n == 0 || self.vm_rounds_completed() < n {
            return None;
        }
        let mut prev = Cycles::ZERO;
        let mut sum = 0u128;
        for r in 0..n {
            let t = self.vm_round_time(r)?;
            sum += (t - prev).as_u64() as u128;
            prev = t;
        }
        Some(sum as f64 / n as f64)
    }

    /// Count of over-threshold waits (`>= 2^delta`).
    pub fn over_threshold_count(&self, delta: u32) -> u64 {
        self.wait_hist.count_at_least_pow2(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_cycles_observes_only_above_floor() {
        let mut s = GuestStats::new(1);
        s.record_wait(Cycles(100)); // below 2^10
        s.record_wait(Cycles(5_000)); // above
        assert_eq!(s.lock_acquisitions, 2);
        assert_eq!(s.wait_hist.count(), 2);
        assert_eq!(s.wait_cycles.count(), 1);
        assert_eq!(s.wait_cycles.max(), Some(5_000.0));
    }

    /// The state fingerprint folds `wait_cycles.count()`, so the cap is
    /// part of the pinned state: the histogram stops at it while
    /// `wait_hist` keeps counting.
    #[test]
    fn wait_cycles_stops_at_its_cap() {
        let mut s = GuestStats::new(1);
        let n = WAIT_CYCLES_CAP + 5;
        for i in 0..n {
            s.record_wait(WAIT_FLOOR + Cycles(i));
        }
        assert_eq!(s.wait_cycles.count(), WAIT_CYCLES_CAP);
        assert_eq!(
            s.wait_cycles.max(),
            Some((WAIT_FLOOR.as_u64() + WAIT_CYCLES_CAP - 1) as f64)
        );
        assert_eq!(s.wait_hist.count(), n);
        assert_eq!(s.over_threshold_count(10), n);
    }

    #[test]
    fn vm_round_is_max_over_threads() {
        let mut s = GuestStats::new(2);
        s.record_round(0, Cycles(100));
        assert_eq!(s.vm_round_time(0), None, "thread 1 not finished yet");
        s.record_round(1, Cycles(150));
        assert_eq!(s.vm_round_time(0), Some(Cycles(150)));
        assert_eq!(s.vm_rounds_completed(), 1);
    }

    #[test]
    fn mean_round_cycles_uses_deltas() {
        let mut s = GuestStats::new(1);
        s.record_round(0, Cycles(100));
        s.record_round(0, Cycles(300));
        s.record_round(0, Cycles(350));
        assert_eq!(s.mean_round_cycles(4), None);
        let m = s.mean_round_cycles(3).unwrap();
        // Rounds: 100, 200, 50 -> mean 116.67.
        assert!((m - 350.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn over_threshold_counts_from_histogram() {
        let mut s = GuestStats::new(1);
        s.record_wait(Cycles(1 << 21));
        s.record_wait(Cycles(1 << 19));
        assert_eq!(s.over_threshold_count(20), 1);
        assert_eq!(s.over_threshold_count(19), 2);
    }
}
