//! Figure 2: per-spinlock waiting-time scatter under the Credit
//! scheduler, one panel per online rate, over a fixed observation window
//! while LU runs.

use asman_sim::Clock;
use asman_workloads::{NasBenchmark, NasSpec};
use serde::Serialize;

use crate::figures::{FigureParams, ShapeCheck};
use crate::scenario::{Sched, SingleVmScenario, WEIGHT_RATES};
use crate::window::WaitWindow;

/// One panel (one online rate) of the scatter figure.
#[derive(Clone, Debug, Serialize)]
pub struct ScatterPanel {
    /// Configured online rate, percent.
    pub rate_pct: f64,
    /// Individual waits ≥ 2^10 cycles, in observation order.
    pub waits: Vec<u64>,
    /// Population counts by exponent bands (2^10.., 2^15.., 2^20.., 2^25..).
    pub band_counts: [u64; 4],
}

/// The whole figure (four panels).
#[derive(Clone, Debug, Serialize)]
pub struct Scatter {
    /// Which scheduler produced the panels.
    pub sched: &'static str,
    /// Panels ordered 100 → 22.2%.
    pub panels: Vec<ScatterPanel>,
}

fn bands(waits: &[u64]) -> [u64; 4] {
    let mut b = [0u64; 4];
    for &w in waits {
        if w >= 1 << 25 {
            b[3] += 1;
        } else if w >= 1 << 20 {
            b[2] += 1;
        } else if w >= 1 << 15 {
            b[1] += 1;
        } else {
            b[0] += 1;
        }
    }
    b
}

/// Collect the scatter for a given scheduler (Figure 2 uses Credit;
/// Figure 8 reuses this with ASMan).
pub fn collect(sched: Sched, params: &FigureParams) -> Scatter {
    let clk = Clock::default();
    let window_secs = match params.class {
        asman_workloads::ProblemClass::S => 2,
        asman_workloads::ProblemClass::W => 10,
        asman_workloads::ProblemClass::A => 30,
    };
    let panels = params.runner().map(WEIGHT_RATES.to_vec(), |(w, pct)| {
        let sc = SingleVmScenario::new(sched, w, params.seed);
        let lu = NasSpec::new(NasBenchmark::LU, params.class, 4).build(params.seed ^ 7);
        let mut m = sc.build(Box::new(lu));
        let win = WaitWindow::collect(&mut m, 1, clk.ms(500), clk.secs(window_secs));
        let waits: Vec<u64> = win.samples.into_iter().map(|(_, w)| w).collect();
        ScatterPanel {
            rate_pct: pct,
            band_counts: bands(&waits),
            waits,
        }
    });
    Scatter {
        sched: sched.label(),
        panels,
    }
}

/// Run Figure 2 (Credit scheduler).
pub fn run(params: &FigureParams) -> Scatter {
    collect(Sched::Credit, params)
}

impl Scatter {
    /// Band-count table (the scatter itself is exported as JSON).
    pub fn render(&self) -> String {
        let mut s = format!(
            "Waiting-time scatter bands under {} (counts per window)\n{:>8} {:>12} {:>12} {:>12} {:>12}\n",
            self.sched, "rate%", "2^10-2^15", "2^15-2^20", "2^20-2^25", ">=2^25"
        );
        for p in &self.panels {
            s.push_str(&format!(
                "{:>8.1} {:>12} {:>12} {:>12} {:>12}\n",
                p.rate_pct, p.band_counts[0], p.band_counts[1], p.band_counts[2], p.band_counts[3]
            ));
        }
        s
    }

    /// Qualitative claims of §2.2 about the scatter.
    pub fn shape_checks(&self) -> Vec<ShapeCheck> {
        let p = &self.panels;
        let long_frac = |i: usize| {
            let total: u64 = p[i].band_counts.iter().sum();
            if total == 0 {
                0.0
            } else {
                (p[i].band_counts[2] + p[i].band_counts[3]) as f64 / total as f64
            }
        };
        vec![
            ShapeCheck::new(
                "the fraction of long waits (>= 2^20) grows as the online rate decreases",
                long_frac(3) > long_frac(0),
                format!(
                    "long-wait fraction: {:.4} at 100% vs {:.4} at 22.2%",
                    long_frac(0),
                    long_frac(3)
                ),
            ),
            ShapeCheck::new(
                "waits above 2^25 cycles occur at the lowest online rates",
                p[3].band_counts[3] + p[2].band_counts[3] > 0,
                format!(
                    ">=2^25 counts at 40%/22.2%: {} / {}",
                    p[2].band_counts[3], p[3].band_counts[3]
                ),
            ),
            ShapeCheck::new(
                "the majority of waits stay below 2^15 cycles at every rate",
                p.iter().all(|panel| {
                    let total: u64 = panel.band_counts.iter().sum();
                    total == 0 || panel.band_counts[0] * 2 > total
                }),
                "per-panel majority band is 2^10..2^15".to_string(),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_s_smoke() {
        let fig = run(&FigureParams {
            class: asman_workloads::ProblemClass::S,
            seed: 1,
            rounds: 2,
            jobs: 1,
        });
        assert_eq!(fig.panels.len(), 4);
        for p in &fig.panels {
            let total: u64 = p.band_counts.iter().sum();
            assert_eq!(total as usize, p.waits.len());
        }
        assert!(!fig.render().is_empty());
    }
}
