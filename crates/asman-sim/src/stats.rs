//! Statistics collectors used by the measurement harness.
//!
//! The paper reports spinlock waiting times bucketed by powers of two CPU
//! cycles (Figures 1(b), 2, 8), run-time means of repeated rounds with a
//! coefficient-of-variation acceptance bound (§5.3), and throughput scores.
//! [`Log2Histogram`] and [`OnlineStats`] implement exactly those reductions.

use serde::Serialize;

use crate::time::Cycles;

/// Histogram over `log2(value)` with 65 buckets (bucket `i` counts values
/// `v` with `floor(log2 v) == i`; bucket 64 counts zeros separately).
#[derive(Clone, Debug, Serialize)]
pub struct Log2Histogram {
    buckets: Vec<u64>,
    zeros: u64,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            buckets: vec![0; 64],
            zeros: 0,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: Cycles) {
        self.count += 1;
        self.sum += v.as_u64() as u128;
        self.max = self.max.max(v.as_u64());
        match v.log2() {
            Some(b) => self.buckets[b as usize] += 1,
            None => self.zeros += 1,
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of recorded values `v >= 2^exp`.
    pub fn count_at_least_pow2(&self, exp: u32) -> u64 {
        self.buckets[exp as usize..].iter().sum()
    }

    /// Number of recorded values with `floor(log2 v) == exp`.
    pub fn bucket(&self, exp: u32) -> u64 {
        self.buckets[exp as usize]
    }

    /// Mean of recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> Cycles {
        Cycles(self.max)
    }

    /// Fraction of recorded values `>= 2^exp` (0 if empty).
    pub fn frac_at_least_pow2(&self, exp: u32) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.count_at_least_pow2(exp) as f64 / self.count as f64
        }
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.zeros += other.zeros;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Reset all counters.
    pub fn clear(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.zeros = 0;
        self.count = 0;
        self.sum = 0;
        self.max = 0;
    }
}

/// Streaming mean/variance via Welford's algorithm, plus min/max.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation σ/μ — the paper requires < 10% over the
    /// first ten rounds of each multi-VM benchmark before averaging.
    pub fn coefficient_of_variation(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m
        }
    }

    /// Smallest sample (∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Log2Histogram::new();
        for v in [
            0u64,
            1,
            2,
            3,
            4,
            1023,
            1024,
            (1 << 20) - 1,
            1 << 20,
            1 << 25,
        ] {
            h.record(Cycles(v));
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.bucket(0), 1); // 1
        assert_eq!(h.bucket(1), 2); // 2, 3
        assert_eq!(h.bucket(2), 1); // 4
        assert_eq!(h.bucket(9), 1); // 1023
        assert_eq!(h.bucket(10), 1); // 1024
        assert_eq!(h.bucket(19), 1); // 2^20-1
        assert_eq!(h.bucket(20), 1); // 2^20
        assert_eq!(h.bucket(25), 1);
        assert_eq!(h.count_at_least_pow2(20), 2);
        assert_eq!(h.count_at_least_pow2(10), 4);
        assert_eq!(h.max(), Cycles(1 << 25));
    }

    #[test]
    fn histogram_frac_and_mean() {
        let mut h = Log2Histogram::new();
        h.record(Cycles(4));
        h.record(Cycles(8));
        assert!((h.mean() - 6.0).abs() < 1e-12);
        assert!((h.frac_at_least_pow2(3) - 0.5).abs() < 1e-12);
        assert_eq!(Log2Histogram::new().frac_at_least_pow2(3), 0.0);
    }

    #[test]
    fn histogram_merge_and_clear() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        a.record(Cycles(10));
        b.record(Cycles(1 << 30));
        b.record(Cycles(0));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.count_at_least_pow2(30), 1);
        a.clear();
        assert_eq!(a.count(), 0);
        assert_eq!(a.max(), Cycles(0));
    }

    #[test]
    fn online_stats_known_values() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; sample variance = 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!(s.coefficient_of_variation() > 0.0);
    }

    #[test]
    fn online_stats_degenerate_cases() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.coefficient_of_variation(), 0.0);
        let mut one = OnlineStats::new();
        one.record(3.0);
        assert_eq!(one.variance(), 0.0);
        assert_eq!(one.mean(), 3.0);
    }
}
