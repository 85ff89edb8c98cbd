//! Regression test for the parallel cluster epoch driver: the entire
//! cluster experiment must be bit-identical regardless of how many
//! workers advance the hosts within each epoch. Sweeps jobs ∈ {1, 2, 8}
//! (sequential, fewer workers than hosts, more workers than hosts) over
//! all three placement policies, clean and under a fault plan that
//! exercises abort, slow-host, and crash recovery, and compares:
//!
//! * the serialized [`ClusterExperiment`] (every policy's full
//!   `ClusterReport` plus its digest),
//! * the merged flight-recorder streams of every host,
//! * the merged metrics registries (per-host scheduler counters and
//!   the cluster recovery counters),
//! * the telemetry series report (`repro series`: epoch samples,
//!   anomaly flags, latency quantiles), and
//! * the migration-span cost table derived from the flight streams.
//!
//! Any divergence means worker scheduling leaked into simulation
//! results — the one thing the epoch-barrier design must never allow.

use asman_cluster::{scenario::ConsolidationSpec, CheckpointConfig, Policy};
use asman_report::cluster::{self, ClusterParams, CLUSTER_STREAM_BUDGET};
use asman_report::{flightrec, series};
use asman_sim::{merge_streams, CatMask, FaultPlan};

const JOBS_SWEEP: [usize; 3] = [1, 2, 8];

fn params(jobs: usize, faults: FaultPlan) -> ClusterParams {
    ClusterParams {
        recipe: CheckpointConfig {
            scenario: ConsolidationSpec {
                hosts: 4,
                gangs: 2,
                seed: 42,
                ..ConsolidationSpec::default()
            },
            epochs: 6,
            faults,
            max_moves: 1,
            ..CheckpointConfig::default()
        },
        policies: Policy::ALL.to_vec(),
        jobs,
    }
}

fn faulted_plan() -> FaultPlan {
    FaultPlan::parse("abort@0,slow@2:h2:30,crash@4:h1").expect("valid plan")
}

/// Serialized experiment JSON for one jobs count.
fn experiment_json(jobs: usize, faults: FaultPlan) -> String {
    let exp = cluster::run(&params(jobs, faults));
    String::from_utf8(serde_json::to_vec_pretty(&exp).expect("serialize")).expect("utf8")
}

/// Flight streams and metrics for one (jobs, policy) cell, rendered to
/// comparable bytes.
fn flight_and_metrics(jobs: usize, policy: Policy, faults: FaultPlan) -> (Vec<u8>, Vec<String>) {
    let (streams, metrics) = cluster::capture_flight(
        &params(jobs, faults),
        policy,
        CatMask::ALL,
        100_000,
        CLUSTER_STREAM_BUDGET,
    );
    let flight = serde_json::to_vec(&streams.into_iter().collect::<Vec<_>>()).expect("serialize");
    let counters: Vec<String> = metrics
        .counters()
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    (flight, counters)
}

#[test]
fn clean_experiment_bit_identical_across_jobs() {
    let baseline = experiment_json(1, FaultPlan::empty());
    assert!(baseline.contains("\"digest\""));
    for jobs in &JOBS_SWEEP[1..] {
        assert_eq!(
            baseline,
            experiment_json(*jobs, FaultPlan::empty()),
            "clean cluster experiment differs between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn faulted_experiment_bit_identical_across_jobs() {
    let baseline = experiment_json(1, faulted_plan());
    // The plan actually fired: recovery shows up in the report.
    assert!(
        baseline.contains("recovery"),
        "fault plan should leave recovery evidence in the report"
    );
    for jobs in &JOBS_SWEEP[1..] {
        assert_eq!(
            baseline,
            experiment_json(*jobs, faulted_plan()),
            "faulted cluster experiment differs between jobs=1 and jobs={jobs}"
        );
    }
}

/// Serialized telemetry series report for one jobs count.
fn series_json(jobs: usize, faults: FaultPlan) -> String {
    let rep = series::run(&series::SeriesParams {
        cluster: params(jobs, faults),
        ..series::SeriesParams::default()
    });
    String::from_utf8(serde_json::to_vec_pretty(&rep).expect("serialize")).expect("utf8")
}

#[test]
fn series_artifact_bit_identical_across_jobs_clean_and_faulted() {
    for faults in [FaultPlan::empty(), faulted_plan()] {
        let baseline = series_json(1, faults.clone());
        assert!(baseline.contains("\"samples\""));
        for jobs in &JOBS_SWEEP[1..] {
            assert_eq!(
                baseline,
                series_json(*jobs, faults.clone()),
                "series artifact differs between jobs=1 and jobs={jobs}"
            );
        }
    }
}

/// Migration-span cost table for one (jobs, policy) cell.
fn spans_json(jobs: usize, policy: Policy, faults: FaultPlan) -> Vec<u8> {
    let (streams, _) = cluster::capture_flight(
        &params(jobs, faults),
        policy,
        CatMask::ALL,
        100_000,
        CLUSTER_STREAM_BUDGET,
    );
    let merged = merge_streams(streams.into_iter().map(|(_, events)| events).collect());
    serde_json::to_vec_pretty(&flightrec::migration_spans(&merged)).expect("serialize")
}

#[test]
fn migration_span_table_bit_identical_across_jobs() {
    let spans_1 = spans_json(1, Policy::VcrdAware, faulted_plan());
    assert!(
        String::from_utf8_lossy(&spans_1).contains("\"span\""),
        "faulted vcrd-aware run must produce migration spans"
    );
    for jobs in &JOBS_SWEEP[1..] {
        assert_eq!(
            spans_1,
            spans_json(*jobs, Policy::VcrdAware, faulted_plan()),
            "span cost table differs between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn flight_streams_and_metrics_bit_identical_across_jobs() {
    for policy in Policy::ALL {
        let (flight_1, metrics_1) = flight_and_metrics(1, policy, faulted_plan());
        assert!(!flight_1.is_empty());
        assert!(
            metrics_1.iter().any(|c| c.starts_with("host0.")),
            "metrics registry must carry per-host counters: {metrics_1:?}"
        );
        for jobs in &JOBS_SWEEP[1..] {
            let (flight_n, metrics_n) = flight_and_metrics(*jobs, policy, faulted_plan());
            assert_eq!(
                flight_1, flight_n,
                "{policy:?} flight streams differ between jobs=1 and jobs={jobs}"
            );
            assert_eq!(
                metrics_1, metrics_n,
                "{policy:?} metrics registry differs between jobs=1 and jobs={jobs}"
            );
        }
    }
}
