//! Streaming quantile estimation (the P² algorithm).
//!
//! Jain & Chlamtac's P² estimator maintains a target quantile of a
//! stream in O(1) space — used for wait-time percentiles (the guest's
//! online `wait_cycles` histogram), where keeping every sample would be
//! wasteful.

use serde::Serialize;

/// Streaming estimator of a single quantile `p` via the P² algorithm.
#[derive(Clone, Debug, Serialize)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights (estimates of the quantile curve).
    q: [f64; 5],
    /// Marker positions (1-based sample ranks).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired position increments.
    dn: [f64; 5],
    /// Observations so far. `u64` explicitly (not `usize`): soak runs
    /// observe billions of samples and the counter must not depend on
    /// the platform's pointer width.
    count: u64,
}

impl P2Quantile {
    /// Estimator for quantile `p` ∈ (0, 1).
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0,1)");
        P2Quantile {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Feed one observation. Non-finite samples (NaN, ±∞) are ignored:
    /// they carry no rank information, and letting one through would
    /// poison every later comparison against the marker heights.
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.count < 5 {
            self.q[self.count as usize] = x;
            self.count += 1;
            if self.count == 5 {
                self.q.sort_by(f64::total_cmp);
            }
            return;
        }
        self.count += 1;
        // Find the cell k such that q[k] <= x < q[k+1].
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            (0..4).find(|&i| x < self.q[i + 1]).unwrap_or(3)
        };
        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }
        // Adjust interior markers.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let qp = self.parabolic(i, d);
                let new_q = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    qp
                } else {
                    self.linear(i, d)
                };
                // The linear fallback can still overshoot a neighbour on
                // heavily duplicated streams (adjacent markers at equal
                // heights make the interpolation degenerate). Clamp to
                // keep the marker heights monotone — a P² invariant the
                // estimate and later updates rely on.
                self.q[i] = new_q.clamp(self.q[i - 1], self.q[i + 1]);
                self.n[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (qm, qi, qp) = (self.q[i - 1], self.q[i], self.q[i + 1]);
        let (nm, ni, np) = (self.n[i - 1], self.n[i], self.n[i + 1]);
        qi + d / (np - nm)
            * ((ni - nm + d) * (qp - qi) / (np - ni) + (np - ni - d) * (qi - qm) / (ni - nm))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = (i as f64 + d) as usize;
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// Current estimate of the quantile (`None` before any observation).
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            c if c < 5 => {
                // Exact small-sample quantile.
                let mut v = self.q[..c as usize].to_vec();
                v.sort_by(f64::total_cmp);
                let idx = ((c as f64 - 1.0) * self.p).round() as usize;
                Some(v[idx])
            }
            _ => Some(self.q[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn median_of_uniform_stream() {
        let mut est = P2Quantile::new(0.5);
        let mut rng = SimRng::new(1);
        for _ in 0..100_000 {
            est.observe(rng.f64());
        }
        let m = est.estimate().unwrap();
        assert!((m - 0.5).abs() < 0.02, "median estimate {m}");
    }

    #[test]
    fn p99_of_uniform_stream() {
        let mut est = P2Quantile::new(0.99);
        let mut rng = SimRng::new(2);
        for _ in 0..100_000 {
            est.observe(rng.f64());
        }
        let q = est.estimate().unwrap();
        assert!((q - 0.99).abs() < 0.02, "p99 estimate {q}");
    }

    #[test]
    fn small_samples_are_exact() {
        let mut est = P2Quantile::new(0.5);
        assert_eq!(est.estimate(), None);
        est.observe(10.0);
        assert_eq!(est.estimate(), Some(10.0));
        est.observe(30.0);
        est.observe(20.0);
        // Median of {10,20,30}.
        assert_eq!(est.estimate(), Some(20.0));
        assert_eq!(est.count(), 3);
    }

    #[test]
    fn exponential_tail_quantile() {
        let mut est = P2Quantile::new(0.9);
        let mut rng = SimRng::new(3);
        for _ in 0..200_000 {
            est.observe(rng.exp(1.0));
        }
        // True p90 of Exp(1) is ln(10) ≈ 2.3026.
        let q = est.estimate().unwrap();
        assert!(
            (q - std::f64::consts::LN_10).abs() < 0.1,
            "p90 estimate {q}"
        );
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn rejects_invalid_p() {
        let _ = P2Quantile::new(1.0);
    }

    /// Regression: an all-equal stream degenerates every marker gap to
    /// zero; the estimator must neither panic nor drift off the value.
    #[test]
    fn all_equal_stream_stays_exact() {
        for p in [0.5, 0.9, 0.99] {
            let mut est = P2Quantile::new(p);
            for _ in 0..10_000 {
                est.observe(5.0);
            }
            assert_eq!(est.estimate(), Some(5.0), "p={p}");
            assert_eq!(est.count(), 10_000);
        }
    }

    /// Regression: NaN (and ±∞) used to reach `partial_cmp().unwrap()`
    /// and panic. They are now ignored without disturbing the estimate.
    #[test]
    fn nan_and_inf_samples_are_ignored() {
        let mut est = P2Quantile::new(0.5);
        est.observe(f64::NAN); // before the init sort
        let mut rng = SimRng::new(11);
        for i in 0..50_000 {
            est.observe(rng.f64());
            if i % 97 == 0 {
                est.observe(f64::NAN);
                est.observe(f64::INFINITY);
                est.observe(f64::NEG_INFINITY);
            }
        }
        assert_eq!(est.count(), 50_000);
        let m = est.estimate().unwrap();
        assert!(m.is_finite());
        assert!((m - 0.5).abs() < 0.02, "median estimate {m}");
    }

    /// Regression: a two-value stream (heavy duplication) could push the
    /// interior marker heights out of monotone order via the linear
    /// fallback. The estimate must stay inside the observed range.
    #[test]
    fn two_value_stream_stays_in_range() {
        for p in [0.25, 0.5, 0.9] {
            let mut est = P2Quantile::new(p);
            let mut rng = SimRng::new(12);
            for _ in 0..20_000 {
                let x = if rng.f64() < 0.5 { 1.0 } else { 2.0 };
                est.observe(x);
            }
            let q = est.estimate().unwrap();
            assert!((1.0..=2.0).contains(&q), "p={p} estimate {q}");
        }
    }
}
