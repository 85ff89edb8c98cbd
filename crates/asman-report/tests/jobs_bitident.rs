//! Regression test for the parallel sweep executor: figure output must be
//! bit-identical regardless of the worker count. Runs the full Figure 9
//! grid (49 independent machines at class S) sequentially and on four
//! workers, and compares the serialized artifacts byte for byte. The
//! flight-recorder trace bundle gets the same treatment: every exported
//! artifact (Chrome trace, LHP episodes, metrics, summary) must be
//! byte-identical between `--jobs 1` and `--jobs 4`.

use asman_report::figures::{fig09, FigureParams};
use asman_report::flightrec;
use asman_sim::CatMask;
use asman_workloads::ProblemClass;

fn fig09_json(jobs: usize) -> String {
    let fig = fig09::run(&FigureParams {
        class: ProblemClass::S,
        seed: 1,
        rounds: 2,
        jobs,
    });
    String::from_utf8(serde_json::to_vec_pretty(&fig).expect("serialize")).expect("utf8")
}

#[test]
fn fig09_bit_identical_between_jobs_1_and_4() {
    let sequential = fig09_json(1);
    let parallel = fig09_json(4);
    assert!(!sequential.is_empty(), "fig09 artifact should not be empty");
    assert_eq!(
        sequential, parallel,
        "fig09 artifact differs between --jobs 1 and --jobs 4"
    );
}

fn trace_artifacts(jobs: usize) -> Vec<(String, Vec<u8>)> {
    let p = FigureParams {
        class: ProblemClass::S,
        seed: 1,
        rounds: 2,
        jobs,
    };
    flightrec::capture_bundles(&p, CatMask::ALL, 100_000)
        .into_iter()
        .flat_map(|b| {
            [
                (format!("trace_{}", b.sched), b.chrome_json),
                (format!("lhp_{}", b.sched), b.lhp_json),
                (format!("metrics_{}", b.sched), b.metrics_json),
                (format!("summary_{}", b.sched), b.summary.into_bytes()),
            ]
        })
        .collect()
}

#[test]
fn trace_bundle_bit_identical_between_jobs_1_and_4() {
    let sequential = trace_artifacts(1);
    let parallel = trace_artifacts(4);
    assert_eq!(sequential.len(), parallel.len());
    for ((name_s, bytes_s), (name_p, bytes_p)) in sequential.iter().zip(parallel.iter()) {
        assert_eq!(name_s, name_p);
        assert!(!bytes_s.is_empty(), "{name_s} artifact should not be empty");
        assert_eq!(
            bytes_s, bytes_p,
            "{name_s} differs between --jobs 1 and --jobs 4"
        );
    }
}
