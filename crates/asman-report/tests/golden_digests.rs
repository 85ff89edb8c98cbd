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

use asman_cluster::scenario::ConsolidationSpec;
use asman_cluster::{Checkpoint, CheckpointConfig, ChurnPlan, Policy};
use asman_report::bisect::{self, BisectParams};
use asman_report::cluster::{self, ClusterParams};
use asman_report::figures::{fig01, fig02, fig07, fig08, fig09, fig10, fig11, fig12, FigureParams};
use asman_report::flightrec::{self, TraceArtifacts};
use asman_report::series::{self, SeriesParams};
use asman_report::soak::{self, SoakParams};
use asman_report::{ablations, checkpoint, Sched, Timeline};
use asman_sim::{merge_streams, CatMask, FaultPlan, Fnv};
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

/// FNV-1a over one `repro trace` bundle's files, in the order
/// `write_bundles` writes them: Chrome trace, LHP episodes, metrics and
/// the text summary.
fn bundle_digest(b: &TraceArtifacts) -> String {
    let mut h = Fnv::new();
    for part in [
        &b.chrome_json,
        &b.lhp_json,
        &b.metrics_json,
        b.summary.as_bytes(),
    ] {
        h.write_bytes(part);
    }
    format!("{:016x}", h.finish())
}

/// A checkpoint artifact (`Checkpoint::to_value`, the file `repro soak
/// --checkpoint-every` writes) captured mid-flight from a faulted,
/// churned consolidation run: a departure and two gang arrivals at
/// epoch 0, a derated host at epoch 1, aborts at epochs 2 and 3 and a
/// crash at epoch 3, captured after epoch 3. Asserts first that every
/// part of the control state is populated, so the digest covers the
/// encoding of each field.
fn checkpoint_image() -> serde::Value {
    let cfg = CheckpointConfig {
        scenario: ConsolidationSpec {
            hosts: 6,
            ..ConsolidationSpec::default()
        },
        epochs: 12,
        policy: Policy::VcrdAware,
        retry_cap: 4,
        faults: FaultPlan::parse("slow@1:h4:40,abort@2,abort@3,crash@3:h5").expect("fault plan"),
        churn: ChurnPlan::parse("depart@0:h1:v0,arrive@0:gang3,arrive@0:gang3")
            .expect("churn plan"),
        slot_reuse: true,
        max_moves: 2,
        ..CheckpointConfig::default()
    };
    let mut c = cfg.build_cluster(0);
    for _ in 0..4 {
        c.run_epoch();
    }
    let ck = Checkpoint::capture(&c, cfg);
    let s = &ck.state;
    assert!(!s.pending.is_empty(), "a retry chain is in flight");
    assert!(!s.aborts.is_empty(), "an abort is recorded");
    assert!(!s.evacuations.is_empty(), "an evacuation is recorded");
    assert!(!s.records.is_empty(), "a migration committed");
    assert!(
        s.vms.iter().any(|v| v.departed && v.final_row.is_some()),
        "a departed VM carries its final row"
    );
    assert!(s.arrivals > 0, "an arrival was admitted");
    ck.to_value()
}

/// The faulted consolidation run of the `series` and `cluster-flight`
/// rows: an abort at epoch 0, host 2 derated at epoch 2 and host 1
/// crashed at epoch 4, over 6 epochs.
fn faulted_cluster() -> ClusterParams {
    ClusterParams {
        recipe: CheckpointConfig {
            epochs: 6,
            faults: FaultPlan::parse("abort@0,slow@2:h2:30,crash@4:h1").expect("fault plan"),
            ..CheckpointConfig::default()
        },
        ..ClusterParams::default()
    }
}

/// What `repro cluster --trace DIR` writes for the faulted run under
/// vcrd-aware: the host-tagged flight streams, the merged metrics
/// registry and the migration-span table of the merged streams.
fn cluster_flight() -> impl Serialize {
    let (streams, metrics) = cluster::capture_flight(
        &faulted_cluster(),
        Policy::VcrdAware,
        CatMask::ALL,
        flightrec::TRACE_CAPACITY,
        cluster::CLUSTER_STREAM_BUDGET,
    );
    let merged = merge_streams(streams.iter().map(|(_, evs)| evs.clone()).collect());
    let spans = flightrec::migration_spans(&merged);
    (streams, metrics, spans)
}

/// The text `repro bisect --epochs 40 --b-faults crash@25:h1` prints:
/// side B crashes host 1 at epoch 25, so the runs diverge there.
fn bisect_text() -> String {
    let a = CheckpointConfig {
        epochs: 40,
        policy: Policy::VcrdAware,
        ..CheckpointConfig::default()
    };
    let b = CheckpointConfig {
        faults: FaultPlan::parse("crash@25:h1").expect("fault plan"),
        ..a.clone()
    };
    let out = bisect::run(&BisectParams {
        a,
        b,
        jobs: 0,
        mutate: None,
    });
    assert!(!out.identical(), "the crash makes the runs diverge");
    out.render()
}

/// The checkpoint a churned soak writes mid-run, read back from its
/// file: the epoch-200 `CKPT_*.json` of a 400-epoch soak on the soak
/// defaults. Its `config` section pins every field of the soak's
/// rebuild recipe, not only those its report shows.
fn soak_checkpoint() -> serde::Value {
    let dir = std::env::temp_dir().join(format!("asman-golden-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let defaults = SoakParams::default();
    soak::run(&SoakParams {
        recipe: CheckpointConfig {
            epochs: 400,
            churn: ChurnPlan::generate(42, 5, 400, 3),
            audit_every: 100,
            ..defaults.recipe.clone()
        },
        crosscheck_epochs: 20,
        checkpoint_every: 200,
        ckpt_dir: Some(dir.clone()),
        ..defaults
    })
    .expect("a fresh soak has no checkpoint to diverge from");
    let ck = checkpoint::read_checkpoint(&dir.join(checkpoint::ckpt_filename(200)))
        .expect("the soak wrote its epoch-200 checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    ck.to_value()
}

/// Every figure target and its pinned class-S digest.
const GOLDEN: [(&str, &str); 20] = [
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
    ("trace-credit", "8af4b73aed15a691"),
    ("trace-asman", "b7ecb9538084a300"),
    ("checkpoint", "635a4885195f8c4e"),
    ("series", "2cbb6095fd3962db"),
    ("cluster-flight", "6ebe25829c786728"),
    ("bisect", "d51ecdaf7ac25a43"),
    ("soak-checkpoint", "0b5048ee06c51255"),
];

fn actual_digests() -> Vec<(&'static str, String)> {
    let p = params();
    let bundles = flightrec::capture_bundles(&p, CatMask::ALL, flightrec::TRACE_CAPACITY);
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
                recipe: CheckpointConfig {
                    epochs: 6,
                    ..CheckpointConfig::default()
                },
                ..ClusterParams::default()
            })),
        ),
        // A miniature churned soak: long enough to cross several audit
        // checkpoints and slot-reuse cycles, short enough for CI.
        (
            "soak",
            digest(
                &soak::run(&SoakParams {
                    recipe: CheckpointConfig {
                        epochs: 800,
                        churn: ChurnPlan::generate(42, 5, 800, 3),
                        audit_every: 200,
                        ..SoakParams::default().recipe
                    },
                    crosscheck_epochs: 200,
                    ..SoakParams::default()
                })
                .expect("a fresh soak has no checkpoint to diverge from"),
            ),
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
        // The `repro trace` bundles, every flight category armed: the
        // exporters' bytes, not just the simulation they describe.
        ("trace-credit", bundle_digest(&bundles[0])),
        ("trace-asman", bundle_digest(&bundles[1])),
        // A checkpoint file's bytes: config, control state, host
        // fingerprints and `state_digest`.
        ("checkpoint", digest(&checkpoint_image())),
        // The telemetry series report of `repro series` under faults.
        (
            "series",
            digest(&series::run(&SeriesParams {
                cluster: faulted_cluster(),
                ..SeriesParams::default()
            })),
        ),
        ("cluster-flight", digest(&cluster_flight())),
        ("bisect", format!("{:016x}", fnv1a(&bisect_text()))),
        ("soak-checkpoint", digest(&soak_checkpoint())),
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
