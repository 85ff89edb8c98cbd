//! The modified Roth–Erev learning algorithm (Algorithms 1–2).
//!
//! When an over-threshold spinlock opens a locality of synchronization
//! L_i, the Monitoring Module must estimate its lasting time X_i — the
//! duration for which the VM's VCPUs should be coscheduled. The paper
//! adapts the reinforcement-learning scheme of Roth & Erev (1995):
//! a propensity q_x is kept for each of N candidate durations; at every
//! adjusting event the propensities decay by a recency factor r and are
//! reinforced by an updating function U that encodes the outcome of the
//! previous estimate:
//!
//! * **under-coscheduling** (`z_i − x_i ≤ Δ`: the next over-threshold
//!   wait arrived almost immediately after coscheduling ended) — all
//!   durations larger than the previous estimate receive the full
//!   reinforcement `1 − e`;
//! * otherwise the previous estimate is reinforced proportionally to how
//!   much the slack `z_i − x_i` grew relative to the previous slack;
//! * every other duration receives the exploration share
//!   `q_x(i) · e / (N − 1)`.
//!
//! The next estimate is the argmax propensity (after the first two
//! events, which select probabilistically).

use asman_sim::{Clock, Cycles, SimRng};
use serde::Serialize;

/// Parameters of the learning algorithm (the paper's `r`, `s(0)`, `e`,
/// `N`, plus the slack threshold Δ from Figure 6).
#[derive(Clone, Debug, Serialize)]
pub struct LearningConfig {
    /// Recency parameter `r` ∈ (0, 1): forgetting rate of propensities.
    pub recency: f64,
    /// Experimentation parameter `e` ∈ (0, 1): share of reinforcement
    /// diverted to exploration.
    pub experimentation: f64,
    /// Initial scaling parameter `s(0)`.
    pub initial_scale: f64,
    /// The N candidate lasting times X = {x₁…x_N}.
    pub values: Vec<Cycles>,
    /// Δ: if the gap between coscheduling end and the next over-threshold
    /// spinlock is at most this, the estimate was too short.
    pub delta_slack: Cycles,
    /// Upper clamp on the slack-growth reinforcement ratio, keeping
    /// propensities finite when the previous slack was tiny.
    pub ratio_cap: f64,
    /// Stabilization of Algorithm 2 (see module docs): when the estimate
    /// over-covers its locality (slack > Δ and the growth ratio r < 1),
    /// the unearned share `(1 − r)·(1 − e)` is redirected to the
    /// candidates *below* the current estimate, giving the estimator a
    /// downward path. The algorithm as printed in the paper only ever
    /// reinforces upward (its argmax can ratchet to the longest duration
    /// and stay there); this flag makes Figure 6's stated ideal —
    /// `x_i = X_i` — reachable from both sides. Disable to reproduce the
    /// verbatim algorithm.
    pub downward_share: bool,
}

impl Default for LearningConfig {
    fn default() -> Self {
        let clk = Clock::default();
        LearningConfig {
            recency: 0.1,
            experimentation: 0.2,
            initial_scale: 1.0,
            // Geometric 5 ms … 640 ms: localities of synchronization span
            // from one scheduling slot to several accounting periods (at
            // low online rates a VM's duty cycle stretches an episode of
            // misalignment across hundreds of milliseconds), so the
            // candidate set must cover that range for the
            // under-coscheduling feedback to find the right duration.
            values: (0..8).map(|k| clk.ms(5 << k)).collect(),
            delta_slack: clk.ms(30),
            ratio_cap: 4.0,
            downward_share: true,
        }
    }
}

/// Reinforcement-learning estimator for locality lasting times.
#[derive(Clone, Debug)]
pub struct LastingTimeEstimator {
    cfg: LearningConfig,
    propensities: Vec<f64>,
    /// Number of adjusting events handled so far.
    events: u64,
    /// Index of the estimate chosen at the previous event (x_i).
    prev_choice: Option<usize>,
    /// Previous slack z_{i−1} − x_{i−1}, in cycles (may be negative).
    prev_slack: Option<f64>,
}

impl LastingTimeEstimator {
    /// Create the estimator with the initial propensity
    /// `q_x(0) = s(0) · A / N` (A = mean candidate value).
    pub fn new(cfg: LearningConfig) -> Self {
        assert!(
            cfg.values.len() >= 2,
            "need at least two candidate durations"
        );
        assert!((0.0..1.0).contains(&cfg.recency));
        assert!((0.0..1.0).contains(&cfg.experimentation));
        let n = cfg.values.len() as f64;
        let a = cfg.values.iter().map(|c| c.as_u64() as f64).sum::<f64>() / n;
        let q0 = cfg.initial_scale * a / n;
        // Propensities are dimensionless scores; normalising A to the
        // largest candidate keeps them O(1).
        let scale = cfg.values.last().unwrap().as_u64() as f64;
        let q0 = q0 / scale;
        LastingTimeEstimator {
            propensities: vec![q0.max(f64::MIN_POSITIVE); cfg.values.len()],
            cfg,
            events: 0,
            prev_choice: None,
            prev_slack: None,
        }
    }

    /// Current propensity vector (for inspection/tests).
    pub fn propensities(&self) -> &[f64] {
        &self.propensities
    }

    /// Number of adjusting events processed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Candidate durations.
    pub fn values(&self) -> &[Cycles] {
        &self.cfg.values
    }

    /// Handle adjusting event i+1 and return the new estimate x_{i+1}.
    ///
    /// `interval` is z_i — the time since the previous adjusting event —
    /// or `None` at the very first event.
    pub fn adjust(&mut self, interval: Option<Cycles>, rng: &mut SimRng) -> Cycles {
        self.events += 1;
        let choice = if self.events <= 2 || self.prev_choice.is_none() {
            // "At the first two adjusting events, the Monitoring Module
            // probabilistically selects feasible amounts."
            rng.weighted_index(&self.propensities)
        } else {
            let prev_idx = self.prev_choice.unwrap();
            let x_i = self.cfg.values[prev_idx].as_u64() as f64;
            let z_i = interval.map(|c| c.as_u64() as f64).unwrap_or(x_i);
            let slack = z_i - x_i;
            self.update_propensities(prev_idx, slack);
            self.prev_slack = Some(slack);
            // x_{i+1} = argmax q_x(i+1); deterministic tie-break by the
            // shorter duration.
            let mut best = 0;
            for (k, &q) in self.propensities.iter().enumerate() {
                if q > self.propensities[best] {
                    best = k;
                }
            }
            // Roth–Erev choice is probabilistic; the paper's argmax
            // simplification cannot discover that a *shorter* duration
            // would also avoid over-threshold spinlocks. When the last
            // estimate over-covered its locality (slack > Δ), trial the
            // next shorter candidate with probability e so the slack
            // comparison gets the data to pull the estimate down.
            if self.cfg.downward_share
                && best > 0
                && slack > self.cfg.delta_slack.as_u64() as f64
                && rng.chance(self.cfg.experimentation)
            {
                best -= 1;
            }
            best
        };
        if self.events <= 2 {
            // Seed the slack history so event 3 has a denominator.
            if let (Some(prev_idx), Some(z)) = (self.prev_choice, interval) {
                let x = self.cfg.values[prev_idx].as_u64() as f64;
                self.prev_slack = Some(z.as_u64() as f64 - x);
            }
        }
        self.prev_choice = Some(choice);
        self.cfg.values[choice]
    }

    /// Algorithm 2: `q_x(i+1) = (1 − r) q_x(i) + U(x, x_i, i, N, e)`.
    fn update_propensities(&mut self, prev_idx: usize, slack: f64) {
        let n = self.propensities.len();
        let e = self.cfg.experimentation;
        let r = self.cfg.recency;
        let under = slack <= self.cfg.delta_slack.as_u64() as f64;
        let explore_share = e / (n as f64 - 1.0);
        let prev_slack = self.prev_slack.unwrap_or(slack);
        let denom = prev_slack.max(1.0);
        let ratio = (slack / denom).clamp(0.0, self.cfg.ratio_cap);
        let new: Vec<f64> = (0..n)
            .map(|k| {
                let q = self.propensities[k];
                let u = if under {
                    if k > prev_idx {
                        // Under-coscheduling: reinforce longer durations.
                        1.0 - e
                    } else {
                        q * explore_share
                    }
                } else if k == prev_idx {
                    // Reinforce the previous estimate in proportion to the
                    // slack growth (z_i − x_i)/(z_{i−1} − x_{i−1}).
                    ratio * (1.0 - e)
                } else if self.cfg.downward_share && ratio < 1.0 && k < prev_idx {
                    // Stabilization: the unearned reinforcement flows to
                    // the shorter candidates (see LearningConfig docs).
                    q * explore_share + (1.0 - ratio) * (1.0 - e) / prev_idx.max(1) as f64
                } else {
                    q * explore_share
                };
                ((1.0 - r) * q + u).max(1e-12)
            })
            .collect();
        self.propensities = new;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(42)
    }

    fn ms(v: u64) -> Cycles {
        Clock::default().ms(v)
    }

    #[test]
    fn first_estimate_is_a_candidate_value() {
        let mut est = LastingTimeEstimator::new(LearningConfig::default());
        let mut r = rng();
        let x = est.adjust(None, &mut r);
        assert!(est.values().contains(&x));
        assert_eq!(est.events(), 1);
    }

    #[test]
    fn propensities_stay_positive_and_finite() {
        let mut est = LastingTimeEstimator::new(LearningConfig::default());
        let mut r = rng();
        let mut z = None;
        for i in 0..500 {
            let _ = est.adjust(z, &mut r);
            // Alternate tiny and large gaps to stress both branches.
            z = Some(if i % 2 == 0 { ms(1) } else { ms(200) });
            for &q in est.propensities() {
                assert!(q.is_finite() && q > 0.0, "bad propensity {q}");
            }
        }
    }

    #[test]
    fn under_coscheduling_pushes_estimate_up() {
        // Gaps barely longer than the estimate (slack ≈ 0 ≤ Δ) must drive
        // the estimate towards longer durations.
        let mut est = LastingTimeEstimator::new(LearningConfig::default());
        let mut r = rng();
        let mut x = est.adjust(None, &mut r);
        for _ in 0..60 {
            // The next over-threshold arrives immediately after
            // coscheduling ends: z = x + 1ms, slack = 1ms < Δ = 2ms.
            x = est.adjust(Some(x + ms(1)), &mut r);
        }
        let max = *est.values().last().unwrap();
        assert_eq!(x, max, "persistent under-coscheduling → longest estimate");
    }

    #[test]
    fn stationary_long_gaps_keep_estimate_stable() {
        // With generous slack every time, the reinforcement ratio stays
        // ~1 for the chosen value and nothing else gets rewarded. Under
        // the verbatim Algorithm 2 the estimate settles exactly; with the
        // default downward-exploration it may oscillate between adjacent
        // candidates but no further.
        let verbatim = LearningConfig {
            downward_share: false,
            ..LearningConfig::default()
        };
        let mut est = LastingTimeEstimator::new(verbatim);
        let mut r = rng();
        let mut x = est.adjust(None, &mut r);
        let mut last = Vec::new();
        for _ in 0..200 {
            x = est.adjust(Some(x + ms(50)), &mut r);
            last.push(x);
        }
        let tail = &last[150..];
        assert!(
            tail.iter().all(|&v| v == tail[0]),
            "verbatim estimate should converge, tail: {tail:?}"
        );

        // Default (with exploration): at most two adjacent values appear.
        let mut est = LastingTimeEstimator::new(LearningConfig::default());
        let mut x = est.adjust(None, &mut r);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..200 {
            x = est.adjust(Some(x + ms(50)), &mut r);
            if i >= 150 {
                seen.insert(x.as_u64());
            }
        }
        assert!(
            seen.len() <= 2,
            "exploration may oscillate between adjacent candidates only: {seen:?}"
        );
    }

    #[test]
    fn growing_slack_reinforces_current_choice() {
        let cfg = LearningConfig::default();
        let mut est = LastingTimeEstimator::new(cfg);
        let mut r = rng();
        let x0 = est.adjust(None, &mut r);
        let _x1 = est.adjust(Some(x0 + ms(100)), &mut r);
        let before = est.propensities().to_vec();
        // Slack doubles (well above Δ): ratio 2 → strong reinforcement of
        // the previous choice.
        let prev_idx = est.prev_choice.unwrap();
        est.update_propensities(prev_idx, 2.0 * (ms(100).as_u64() as f64));
        assert!(
            est.propensities()[prev_idx] > before[prev_idx],
            "chosen value must gain propensity"
        );
    }

    #[test]
    fn deterministic_given_seed_and_inputs() {
        let run = |seed| {
            let mut est = LastingTimeEstimator::new(LearningConfig::default());
            let mut r = SimRng::new(seed);
            let mut out = Vec::new();
            let mut z = None;
            for i in 0..50u64 {
                let x = est.adjust(z, &mut r);
                out.push(x);
                z = Some(ms(1 + (i * 7) % 60));
            }
            out
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_degenerate_value_set() {
        let cfg = LearningConfig {
            values: vec![ms(5)],
            ..LearningConfig::default()
        };
        let _ = LastingTimeEstimator::new(cfg);
    }
}
