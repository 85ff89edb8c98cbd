//! Experiment harness reproducing the ASMan paper's figures.
//!
//! Each [`figures`] submodule regenerates one figure of the evaluation
//! (§5): it builds the paper's VM combination, runs the simulated machine
//! under the relevant scheduler(s), and returns structured series that
//! the `repro` binary prints as tables and dumps as JSON. The qualitative
//! claims of each figure are encoded as [`figures::ShapeCheck`]s, which
//! the integration test suite asserts.
//!
//! ```no_run
//! use asman_report::figures::{fig07, FigureParams};
//!
//! let fig = fig07::run(&FigureParams::default());
//! println!("{}", fig.render());
//! for check in fig.shape_checks() {
//!     assert!(check.holds, "{}: {}", check.claim, check.evidence);
//! }
//! ```

#![warn(missing_docs)]

pub mod ablations;
pub mod audit;
pub mod bisect;
pub mod checkpoint;
pub mod cluster;
pub mod csv;
pub mod extensions;
pub mod figures;
pub mod flightrec;
pub mod jbb;
pub mod logger;
pub mod multivm;
pub mod scenario;
pub mod series;
pub mod soak;
pub mod timeline;
pub mod window;

pub use jbb::{JbbPoint, JbbScenario};
pub use multivm::{paper_combination, MultiVmRow, MultiVmScenario, VmWorkload};
pub use scenario::{
    dom0_vm, idle_vm, machine_for, Sched, SingleVmOutcome, SingleVmScenario, WEIGHT_RATES,
};
pub use timeline::{OnlineSpan, Timeline};
pub use window::WaitWindow;
