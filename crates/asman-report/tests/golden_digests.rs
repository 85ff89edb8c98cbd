//! Golden-digest regression pins for every `repro` figure target.
//!
//! Each figure runs once at problem class S (the quick CI class) with
//! the default seed and a fixed round count, and its fully serialized
//! artifact is hashed with FNV-1a — the same stable, dependency-free
//! digest the cluster experiment and the differential auditor use. The
//! pinned values below are the repository's contract that *any* change
//! to simulation behavior is intentional: an innocent-looking refactor
//! that shifts one event reorders one scheduling decision, changes one
//! series value, and flips the digest.
//!
//! When a change legitimately alters results (new feature, fixed bug),
//! re-pin by running this test and copying the table from the failure
//! message — the assertion prints every actual digest on mismatch.
//!
//! Digests are worker-count independent by construction (cells never
//! share state; see `jobs_bitident.rs`), so the runs here use all
//! available parallelism.

use asman_cluster::ChurnPlan;
use asman_report::ablations;
use asman_report::cluster::{self, ClusterParams};
use asman_report::soak::{self, SoakParams};
use asman_report::figures::{
    fig01, fig02, fig07, fig08, fig09, fig10, fig11, fig12, FigureParams,
};
use asman_report::{Sched, Timeline};
use asman_workloads::ProblemClass;
use serde::Serialize;

/// The canonical quick-run parameters: class S, default seed, two
/// rounds. Matches the CI smoke configuration.
fn params() -> FigureParams {
    FigureParams {
        class: ProblemClass::S,
        seed: 42,
        rounds: 2,
        jobs: 0,
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest<T: Serialize>(artifact: &T) -> String {
    let json = serde_json::to_string(artifact).expect("serialize artifact");
    format!("{:016x}", fnv1a(&json))
}

/// Every figure target and its pinned class-S digest.
const GOLDEN: [(&str, &str); 13] = [
    ("fig1", "82af5c9243647087"),
    ("fig2", "73707e33e0ece968"),
    ("fig7", "e78fc80a04d78280"),
    ("fig8", "557e5716fbe6e5a4"),
    ("fig9", "1142403903bf7e59"),
    ("fig10", "823b95d9766b284e"),
    ("fig11", "d43218a300fe0ab0"),
    ("fig12", "399e7ab0f4dc7f8f"),
    ("cluster", "4ae12ea99738a6a4"),
    ("soak", "bab5c163a43c7001"),
    ("timeline-credit", "dc7d40a4ddc94306"),
    ("timeline-asman", "26cd1bf688fda2de"),
    ("ablations", "1f120b61892e3586"),
];

fn actual_digests() -> Vec<(&'static str, String)> {
    let p = params();
    vec![
        ("fig1", digest(&fig01::run(&p))),
        ("fig2", digest(&fig02::run(&p))),
        ("fig7", digest(&fig07::run(&p))),
        ("fig8", digest(&fig08::run(&p))),
        ("fig9", digest(&fig09::run(&p))),
        ("fig10", digest(&fig10::run(&p))),
        ("fig11", digest(&fig11::run(&p))),
        ("fig12", digest(&fig12::run(&p))),
        (
            "cluster",
            digest(&cluster::run(&ClusterParams {
                epochs: 6,
                ..ClusterParams::default()
            })),
        ),
        // A miniature churned soak: long enough to cross several audit
        // checkpoints and slot-reuse cycles, short enough for CI.
        (
            "soak",
            digest(&soak::run(&SoakParams {
                epochs: 800,
                churn: ChurnPlan::generate(42, 5, 800, 3),
                audit_every: 200,
                crosscheck_epochs: 200,
                ..SoakParams::default()
            })),
        ),
        // The `repro timeline` panels: per-VCPU online spans rebuilt
        // from the scheduler's dispatch/preempt/block/park transitions.
        (
            "timeline-credit",
            digest(&Timeline::lu_testbed(Sched::Credit, ProblemClass::S, 42)),
        ),
        (
            "timeline-asman",
            digest(&Timeline::lu_testbed(Sched::Asman, ProblemClass::S, 42)),
        ),
        // The design-parameter sweeps of `repro ablations`.
        ("ablations", digest(&ablations::run(&p))),
    ]
}

#[test]
fn every_repro_target_matches_its_pinned_digest() {
    let actual = actual_digests();
    let table: String = actual
        .iter()
        .map(|(name, d)| format!("    ({name:?}, {d:?}),\n"))
        .collect();
    for ((name, pinned), (aname, adigest)) in GOLDEN.iter().zip(actual.iter()) {
        assert_eq!(name, aname, "target order drifted");
        assert_eq!(
            pinned, adigest,
            "digest for `{name}` changed; if intentional, re-pin GOLDEN as:\n{table}"
        );
    }
}
