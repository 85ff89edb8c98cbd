//! Property tests over random churn plans.
//!
//! A churned cluster run mixes VM arrivals and departures into the
//! epoch barrier; these properties drive the consolidation scenario
//! with seed-generated plans (and seed-generated fault plans on top)
//! and demand the state-lifetime invariants the soak harness watches:
//!
//! * **Conservation** — every VM the registry ever saw is accounted
//!   for: `initial + arrivals == resident_end + departures`, and the
//!   report's host rows agree with the registry on the resident set.
//! * **No sticky tombstones** — with slot reuse on, host slot tables
//!   are bounded by peak residency, not by total arrivals: tombstones
//!   never exceed departures, and every tombstone is reusable (a later
//!   matching arrival recycles it rather than appending).
//! * **Worker-count independence** — a churned (and faulted) run's
//!   full serialized report is byte-identical between `--jobs 1` and
//!   `--jobs 4`, the same determinism contract the clean runs pin.
//! * **A total DSL parser** — `ChurnSpec::parse` never panics, accepts
//!   only plans in nondecreasing epoch order, and reads back any plan
//!   written in the DSL.

use asman_cluster::{
    churn::ChurnEvent,
    scenario::{self, ConsolidationSpec},
    ChurnKind, ChurnPlan, ChurnSpec, Cluster, ClusterConfig, ClusterReport, Policy, ShapeKind,
    VmShape,
};
use asman_sim::FaultPlan;
use proptest::collection::vec;
use proptest::prelude::*;

const EPOCHS: u64 = 12;

fn churned_cluster(seed: u64, rate: u32, jobs: usize, faulted: bool) -> Cluster {
    let spec = ConsolidationSpec::default();
    let cfg = ClusterConfig {
        policy: Policy::VcrdAware,
        epochs: EPOCHS,
        epoch_ms: 50,
        jobs,
        churn: ChurnPlan::generate(seed, rate, EPOCHS, spec.hosts),
        faults: if faulted {
            // A mid-run abort exercises the retry chain against a
            // mutating population without killing any host.
            FaultPlan::parse("abort@4").unwrap()
        } else {
            FaultPlan::default()
        },
        ..ClusterConfig::default()
    };
    let mut c = scenario::consolidation_cluster(cfg, &spec);
    c.enable_slot_reuse();
    c
}

fn run(seed: u64, rate: u32, jobs: usize, faulted: bool) -> (ClusterReport, usize, Cluster) {
    let mut c = churned_cluster(seed, rate, jobs, faulted);
    let initial = c.vm_count();
    let report = c.run();
    (report, initial, c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// arrived − departed == resident − initial, for any generated
    /// plan, and the host rows agree with the registry.
    #[test]
    fn vm_population_is_conserved(seed in 0u64..1000, rate in 10u32..60) {
        let (report, initial, cluster) = run(seed, rate, 1, false);
        // A plan with no events reports no churn: a static run.
        if let Some(churn) = report.churn.as_ref() {
        let registry = report.vm_rows.len() as u64;
        prop_assert_eq!(registry, initial as u64 + churn.arrivals);
        prop_assert_eq!(
            churn.resident_end,
            initial as u64 + churn.arrivals - churn.departures,
            "arrivals minus departures must equal resident growth"
        );
        let resident_rows: u64 =
            report.host_rows.iter().map(|h| h.vms.len() as u64).sum();
        prop_assert_eq!(resident_rows, churn.resident_end);
        prop_assert_eq!(
            cluster.resident_vm_count() as u64, churn.resident_end
        );
        // Every scheduled departure either fired or was skipped
        // against an empty host — none vanish.
        prop_assert_eq!(
            churn.departures + churn.departures_skipped,
            churn.plan.departures() as u64
        );
        }
    }

    /// With slot reuse enabled, host slot tables stay bounded: the
    /// cluster never holds more tombstones than it saw departures, and
    /// total slots never exceed initial + arrivals (they are strictly
    /// fewer as soon as any tombstone is recycled).
    #[test]
    fn slot_reuse_leaves_no_sticky_tombstones(seed in 0u64..1000, rate in 10u32..60) {
        let (report, initial, cluster) = run(seed, rate, 1, false);
        let occ = cluster.occupancy();
        let (arrivals, departures) = report
            .churn
            .as_ref()
            .map_or((0, 0), |c| (c.arrivals, c.departures));
        prop_assert_eq!(occ.registry as u64, initial as u64 + arrivals);
        prop_assert_eq!(
            occ.resident as u64,
            initial as u64 + arrivals - departures
        );
        // Tombstones come from departures *and* from migration
        // extractions (the source host keeps an emptied slot); both are
        // bounded by plan-scale counts, never by the epoch horizon.
        let moved = report.migrations.len() as u64;
        prop_assert!(
            (occ.tombstones as u64) <= departures + moved,
            "tombstones {} exceed departures {} + migrations {}",
            occ.tombstones, departures, moved
        );
        prop_assert_eq!(
            occ.slots, occ.resident + occ.tombstones,
            "every slot is either resident or a tombstone"
        );
        prop_assert_eq!(occ.pending_retries, 0, "no chain survives the run");
    }

    /// Byte-identical serialized reports between jobs=1 and jobs=4,
    /// clean and faulted, for any generated churn plan.
    #[test]
    fn churned_runs_are_jobs_invariant(seed in 0u64..1000, rate in 10u32..60) {
        for faulted in [false, true] {
            let (a, _, _) = run(seed, rate, 1, faulted);
            let (b, _, _) = run(seed, rate, 4, faulted);
            prop_assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "faulted={} run must not depend on worker count", faulted
            );
        }
    }
}

/// Render `picks` as a string: an index into `alphabet` appends that
/// piece, any larger index appends the char `c` (U+FFFD where `c` is a
/// surrogate). The vendored proptest has no string strategy.
fn dsl_string(alphabet: &[&str], picks: &[(usize, u32)]) -> String {
    let mut s = String::new();
    for &(i, c) in picks {
        match alphabet.get(i) {
            Some(piece) => s.push_str(piece),
            None => s.push(char::from_u32(c).unwrap_or('\u{fffd}')),
        }
    }
    s
}

/// Pieces of the churn DSL, plus near misses: a zero count, an
/// out-of-range rate, a number that overflows `u64`, a stray letter.
const CHURN_ALPHABET: &[&str] = &[
    "arrive@",
    "depart@",
    "rand:",
    "churn:",
    "gang",
    "bg",
    ":h",
    ":v",
    ":w",
    ":",
    "@",
    ",",
    " ",
    "0",
    "2",
    "7",
    "256",
    "101",
    "x",
    "99999999999999999999",
];

fn churn_event() -> impl Strategy<Value = ChurnEvent> {
    prop_oneof![
        (0u64..40, any::<bool>(), 1usize..9, 1u32..1024).prop_map(
            |(epoch, gang, vcpus, weight)| {
                ChurnEvent {
                    epoch,
                    kind: ChurnKind::Arrive {
                        shape: VmShape {
                            kind: if gang {
                                ShapeKind::Gang
                            } else {
                                ShapeKind::Background
                            },
                            vcpus,
                            weight,
                        },
                    },
                }
            }
        ),
        (0u64..40, 0usize..16, 0usize..8).prop_map(|(epoch, host, slot)| ChurnEvent {
            epoch,
            kind: ChurnKind::Depart { host, slot }
        }),
    ]
}

/// `ev` written as one DSL token; the default weight is left out when
/// `short` is set.
fn churn_token(ev: &ChurnEvent, short: bool) -> String {
    match ev.kind {
        ChurnKind::Arrive { shape } => {
            let mut tok = format!("arrive@{}:{}{}", ev.epoch, shape.kind.prefix(), shape.vcpus);
            if !(short && shape.weight == 256) {
                tok.push_str(&format!(":w{}", shape.weight));
            }
            tok
        }
        ChurnKind::Depart { host, slot } => format!("depart@{}:h{host}:v{slot}", ev.epoch),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `ChurnSpec::parse` never panics, and every plan it accepts (or
    /// generates from an accepted seed and rate) has nondecreasing
    /// epochs. The input joins well-formed tokens and junk strings with
    /// commas, so a fair share of cases is accepted.
    #[test]
    fn churn_spec_parse_never_panics(
        segments in vec(
            (
                churn_event(),
                0u8..3,
                vec((0..CHURN_ALPHABET.len() + 2, 0u32..0x11_0000), 0..8),
            ),
            0..6,
        ),
    ) {
        let s = segments
            .iter()
            .map(|(ev, form, picks)| match form {
                0 => dsl_string(CHURN_ALPHABET, picks),
                _ => churn_token(ev, *form == 1),
            })
            .collect::<Vec<_>>()
            .join(",");
        let plan = match ChurnSpec::parse(&s) {
            Ok(ChurnSpec::Explicit(plan)) => {
                prop_assert!(!plan.is_empty(), "accepted an empty plan from {s:?}");
                plan
            }
            Ok(spec) => spec.resolve(40, 4),
            Err(_) => return,
        };
        prop_assert!(
            plan.events.windows(2).all(|w| w[0].epoch <= w[1].epoch),
            "epochs out of order for {s:?}: {:?}", plan.events
        );
    }

    /// Random events written as DSL tokens (with stray spaces around
    /// them, the default weight sometimes left out) parse back to the
    /// same events, in stable epoch order.
    #[test]
    fn churn_dsl_round_trips(
        events in vec(churn_event(), 1..12),
        pads in vec((0usize..3, 0usize..3, any::<bool>()), 12),
    ) {
        let s = events
            .iter()
            .zip(&pads)
            .map(|(ev, &(l, r, short))| {
                format!("{}{}{}", " ".repeat(l), churn_token(ev, short), " ".repeat(r))
            })
            .collect::<Vec<_>>()
            .join(",");
        // Stable epoch order, built without sorting.
        let mut want = Vec::new();
        for t in 0..=events.iter().map(|e| e.epoch).max().unwrap_or(0) {
            want.extend(events.iter().filter(|e| e.epoch == t));
        }
        prop_assert_eq!(
            ChurnSpec::parse(&s),
            Ok(ChurnSpec::Explicit(ChurnPlan { events: want })),
            "{}", s
        );
    }
}
