//! One module per paper figure.
//!
//! Every figure function returns a serializable result carrying the raw
//! series, a `render()` text table matching the paper's rows, and
//! `shape_checks()` — named boolean assertions of the *qualitative*
//! claims the paper makes about that figure (who wins, what grows, what
//! collapses). The `repro` binary prints the tables and records the
//! checks in `EXPERIMENTS.md`; integration tests assert the checks.

pub mod fig01;
pub mod fig02;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;

use serde::Serialize;

/// A named qualitative assertion about a figure's shape.
#[derive(Clone, Debug, Serialize)]
pub struct ShapeCheck {
    /// What the paper claims.
    pub claim: String,
    /// Whether the reproduction exhibits it.
    pub holds: bool,
    /// Supporting numbers, human-readable.
    pub evidence: String,
}

impl ShapeCheck {
    /// Build a check.
    pub fn new(claim: impl Into<String>, holds: bool, evidence: impl Into<String>) -> Self {
        ShapeCheck {
            claim: claim.into(),
            holds,
            evidence: evidence.into(),
        }
    }
}

/// Common run parameters for all figures.
#[derive(Clone, Copy, Debug)]
pub struct FigureParams {
    /// NAS problem class to run.
    pub class: asman_workloads::ProblemClass,
    /// Base seed.
    pub seed: u64,
    /// Rounds averaged in multi-VM experiments.
    pub rounds: usize,
    /// Worker threads for sweep cells (`0` = available parallelism,
    /// `1` = the historical sequential path). Cell results are
    /// bit-identical for every value; this only changes wall-clock time.
    pub jobs: usize,
}

impl FigureParams {
    /// The sweep executor configured by [`FigureParams::jobs`].
    pub fn runner(&self) -> asman_sim::SweepRunner {
        asman_sim::SweepRunner::new(self.jobs)
    }
}

impl Default for FigureParams {
    fn default() -> Self {
        FigureParams {
            class: asman_workloads::ProblemClass::W,
            seed: 42,
            rounds: 10,
            jobs: 0,
        }
    }
}
