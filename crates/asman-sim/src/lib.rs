//! Discrete-event simulation substrate for the ASMan reproduction.
//!
//! This crate provides the timing, event-ordering, randomness and
//! statistics foundation that the guest-kernel model, the hypervisor model
//! and the adaptive scheduler are built on. Everything here is
//! **deterministic**: the event queue breaks timestamp ties by insertion
//! sequence number and the RNG is a self-contained xoshiro256\*\*
//! implementation, so a simulation with a fixed seed is bit-exact across
//! platforms and runs.
//!
//! # Modules
//!
//! * [`time`] — the [`Cycles`] clock domain (CPU cycles at a
//!   configurable frequency, default 2.33 GHz to match the paper's Xeon
//!   X5410 testbed).
//! * [`event`] — the deterministic event queue ([`EventQueue`]): one
//!   array sorted descending by `(time, seq)`, popped from the tail.
//! * [`rng`] — xoshiro256\*\* PRNG with distribution helpers.
//! * [`stats`] — log₂ histograms (the paper reports spinlock waits in
//!   powers-of-two cycle buckets) and online mean/variance.
//! * [`quantile`] — streaming percentile estimation (P² algorithm).
//! * [`trace`] — the once-per-buffer overflow warning shared by the
//!   flight recorder and the series sampler.
//! * [`flight`] — the cross-layer flight recorder: typed scheduler/guest
//!   events in per-category bounded buffers with drop accounting.
//! * [`lhp`] — lock-holder-preemption episode detection over merged
//!   flight-recorder streams.
//! * [`fault`] — deterministic fault-injection plans (host crashes,
//!   slowdowns, migration aborts) drawn from their own forked RNG
//!   stream so faults never perturb workload draws.
//! * [`fnv`] — incremental FNV-1a hashing ([`Fnv`]) for the state
//!   fingerprints the checkpoint/restore subsystem compares.
//! * [`registry`] — a unified registry of named counters, gauges and
//!   quantile histograms serialized into per-run artifacts.
//! * [`telemetry`] — deterministic per-epoch time-series sampling
//!   ([`SeriesSampler`]) with trailing-window Nσ anomaly detection,
//!   captured in the cluster driver's serial barrier.
//! * [`audit`] — the [`SimQueue`] trait shared by the optimized queue
//!   and the naive [`OracleQueue`] used for differential auditing.
//! * [`exec`] — the [`SweepRunner`] persistent worker pool (helper
//!   threads plus the calling thread, each worker claiming its own
//!   block of cells first) that executes independent cells (figure
//!   sweeps, cluster host advancement) in parallel with results in
//!   deterministic cell order.

#![warn(missing_docs)]

pub mod audit;
pub mod event;
pub mod exec;
pub mod fault;
pub mod flight;
pub mod fnv;
pub mod lhp;
pub mod quantile;
pub mod registry;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use audit::{OracleQueue, SimQueue};
pub use event::{EventQueue, ScheduledAt};
pub use exec::SweepRunner;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultSpec};
pub use flight::{
    merge_streams, CatMask, FlightEv, FlightEvent, FlightRecorder, StreamBudget, TraceCat,
};
pub use fnv::Fnv;
pub use lhp::{check_episode_invariants, detect_lhp, LhpEpisode, LhpSummary};
pub use quantile::P2Quantile;
pub use registry::{MetricsRegistry, QuantileHist};
pub use rng::SimRng;
pub use stats::{Log2Histogram, OnlineStats};
pub use telemetry::{
    detect_anomalies, sparkline, Anomaly, EpochSample, HostMetric, HostSample, SeriesSampler,
};
pub use time::{Clock, Cycles};
