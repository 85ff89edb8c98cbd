//! Property tests for the checkpoint/restore round trip.
//!
//! The contract under test: take any run configuration (random
//! scenario seed, policy, fault plan, churn plan) and any epoch `E`
//! inside the horizon; capture a checkpoint at `E`, push it through
//! the full JSON file encoding, decode it back, rebuild the cluster
//! from the embedded config in a fresh "process", replay to `E`,
//! validate field-by-field, apply, and run to the end. The final state
//! — rendered as the horizon checkpoint's canonical JSON, plus the
//! state digest and every per-host machine fingerprint — must be
//! byte-identical to the uninterrupted run, for worker counts 1 and 4
//! on either side of the restore.
//!
//! The same battery sweeps the per-epoch move budget (`max_moves` in
//! {1, 2, 4, 8}): every configuration must additionally conserve VMs
//! (registry = initial + arrivals, resident = registry − departures)
//! and respect the planner's per-host endpoint caps (within one epoch,
//! no host is the source of two migrations or the destination of two
//! migrations, and at most `max_moves` commit). A deterministic
//! multi-chain scenario pins the checkpoint-v2 case the fuzz sweep
//! cannot guarantee to hit: a boundary with **two** live retry chains
//! in flight.
//!
//! Below the file format sits the vendored JSON decoder, which has no
//! upstream test suite: generated value trees must round-trip through
//! it byte-stably, every JSON escape must decode, and every truncation
//! and single-bit flip of a real checkpoint file must come back from
//! `read_checkpoint` as `Ok` or `Err`, never as a panic.

use asman_cluster::{scenario::ConsolidationSpec, Checkpoint, CheckpointConfig, ChurnPlan, Policy};
use asman_report::checkpoint::{read_checkpoint, write_checkpoint};
use asman_sim::FaultPlan;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde_json::Value;

const EPOCHS: u64 = 8;

fn config(
    seed: u64,
    policy: Policy,
    faults: &str,
    churn_rate: u32,
    max_moves: usize,
) -> CheckpointConfig {
    let spec = ConsolidationSpec {
        seed,
        ..ConsolidationSpec::default()
    };
    let churn = if churn_rate == 0 {
        ChurnPlan::empty()
    } else {
        ChurnPlan::generate(seed, churn_rate, EPOCHS, spec.hosts)
    };
    CheckpointConfig {
        scenario: spec,
        epochs: EPOCHS,
        policy,
        faults: if faults.is_empty() {
            FaultPlan::empty()
        } else {
            FaultPlan::parse(faults).expect("valid fault plan")
        },
        churn,
        slot_reuse: churn_rate != 0,
        series_capacity: 64,
        max_moves,
        ..CheckpointConfig::default()
    }
}

/// Everything the run produced, rendered to comparable bytes: the
/// horizon checkpoint's canonical JSON (config + full control state +
/// machine fingerprints + digest) and the raw digest.
fn final_artifacts(c: &mut asman_cluster::Cluster, cfg: &CheckpointConfig) -> (String, u64) {
    let ck = Checkpoint::capture(c, cfg.clone());
    let json = String::from_utf8(serde_json::to_vec_pretty(&ck.to_value()).expect("serialize"))
        .expect("utf8");
    (json, c.state_digest())
}

fn straight_through(cfg: &CheckpointConfig, jobs: usize) -> (String, u64) {
    let mut c = cfg.build_cluster(jobs);
    for _ in 0..cfg.epochs {
        c.run_epoch();
    }
    final_artifacts(&mut c, cfg)
}

/// Checkpoint at `at` under `jobs_before` workers, round-trip the
/// bytes, restore under `jobs_after` workers, finish the run.
fn save_restore_finish(
    cfg: &CheckpointConfig,
    at: u64,
    jobs_before: usize,
    jobs_after: usize,
) -> (String, u64) {
    let mut c = cfg.build_cluster(jobs_before);
    for _ in 0..at {
        c.run_epoch();
    }
    let ck = Checkpoint::capture(&c, cfg.clone());
    // The full file round trip: value -> pretty JSON bytes -> parse ->
    // decode. Any field the encoding drops or mangles dies here or in
    // the divergence checks below.
    let bytes = serde_json::to_vec_pretty(&ck.to_value()).expect("serialize");
    let text = String::from_utf8(bytes).expect("utf8");
    let ck = Checkpoint::from_value(&serde_json::from_str(&text).expect("parse"))
        .expect("decode checkpoint");
    assert_eq!(ck.state.epoch, at);
    // "Fresh process": everything below uses only the decoded artifact.
    let mut c = ck.config.build_cluster(jobs_after);
    for _ in 0..at {
        c.run_epoch();
    }
    let errs = ck.validate(&c);
    assert!(errs.is_empty(), "replay diverged from checkpoint: {errs:?}");
    ck.apply(&mut c);
    for _ in at..cfg.epochs {
        c.run_epoch();
    }
    final_artifacts(&mut c, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Save -> restore -> run-to-end is byte-identical to the
    /// uninterrupted run for random configs and checkpoint epochs,
    /// with worker counts 1 and 4 on both sides of the restore.
    #[test]
    fn round_trip_is_byte_identical(
        seed in 1u64..500,
        policy_vcrd in any::<bool>(),
        faults in prop_oneof![
            Just(""),
            Just("abort@1"),
            Just("abort@2,abort@5"),
            Just("crash@3:h1"),
        ],
        churn_rate in 0u32..3,
        max_moves in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        at in 1u64..EPOCHS,
    ) {
        let policy = if policy_vcrd { Policy::VcrdAware } else { Policy::Static };
        let cfg = config(seed, policy, faults, churn_rate, max_moves);
        let want = straight_through(&cfg, 1);
        prop_assert_eq!(
            &straight_through(&cfg, 4), &want,
            "straight-through must be jobs-independent"
        );
        for (jb, ja) in [(1, 1), (1, 4), (4, 1)] {
            let got = save_restore_finish(&cfg, at, jb, ja);
            prop_assert_eq!(
                &got, &want,
                "resumed run (jobs {} -> {}) differs from straight-through at checkpoint epoch {}",
                jb, ja, at
            );
        }
    }

    /// Under any move budget, every run conserves its VM population
    /// and never lets one epoch use a host as a double source or
    /// double destination — the planner's endpoint caps, observed from
    /// the committed migration log rather than the planner's own
    /// bookkeeping.
    #[test]
    fn multi_move_runs_conserve_vms_and_respect_caps(
        seed in 1u64..500,
        faults in prop_oneof![
            Just(""),
            Just("abort@1"),
            Just("abort@2,abort@5"),
            Just("crash@3:h1"),
        ],
        churn_rate in 0u32..3,
        max_moves in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
    ) {
        let cfg = config(seed, Policy::VcrdAware, faults, churn_rate, max_moves);
        let mut c = cfg.build_cluster(1);
        let initial = c.vm_count() as u64;
        for _ in 0..cfg.epochs {
            c.run_epoch();
        }
        let (arrivals, departures, ..) = c.churn_counts();
        prop_assert_eq!(
            c.vm_count() as u64, initial + arrivals,
            "registry must grow only by admitted arrivals"
        );
        prop_assert_eq!(
            c.resident_vm_count() as u64, initial + arrivals - departures,
            "resident population must track arrivals minus departures"
        );
        // Endpoint caps, per epoch, over committed migrations (crash
        // evacuations are forced bulk moves and live in a separate
        // record stream).
        let report = c.report();
        let mut epochs: Vec<u64> = report.migrations.iter().map(|m| m.epoch).collect();
        epochs.dedup();
        for e in epochs {
            let at: Vec<_> = report.migrations.iter().filter(|m| m.epoch == e).collect();
            prop_assert!(
                at.len() <= max_moves,
                "epoch {}: {} migrations exceed budget {}", e, at.len(), max_moves
            );
            let mut srcs: Vec<usize> = at.iter().map(|m| m.from).collect();
            let mut dsts: Vec<usize> = at.iter().map(|m| m.to).collect();
            srcs.sort_unstable();
            dsts.sort_unstable();
            let (s, d) = (srcs.len(), dsts.len());
            srcs.dedup();
            dsts.dedup();
            prop_assert!(
                srcs.len() == s && dsts.len() == d,
                "epoch {}: a host served as a double endpoint", e
            );
        }
    }
}

/// The scenario the fuzz sweep cannot guarantee: a checkpoint boundary
/// with **two** retry chains alive at once. A departure empties host 1
/// and two gang arrivals land there back-to-back (admission always
/// picks the least-loaded host), so hosts 0 and 1 are both overloaded
/// sources; `max_moves: 2` plans both in the same epoch, and the
/// abort plan keeps both chains failing and backing off. The v2
/// checkpoint taken mid-flight must carry the whole ordered chain set
/// through the file round trip and finish byte-identical.
#[test]
fn checkpoint_v2_round_trips_with_two_live_chains() {
    let cfg = CheckpointConfig {
        scenario: ConsolidationSpec {
            hosts: 6,
            ..ConsolidationSpec::default()
        },
        epochs: 12,
        policy: Policy::VcrdAware,
        retry_cap: 10,
        faults: FaultPlan::parse("abort@0,abort@1,abort@2,abort@3").expect("fault plan"),
        churn: ChurnPlan::parse("depart@0:h1:v0,arrive@0:gang3,arrive@0:gang3")
            .expect("churn plan"),
        slot_reuse: true,
        series_capacity: 64,
        max_moves: 2,
        ..CheckpointConfig::default()
    };
    let at = 4;
    let mut c = cfg.build_cluster(1);
    for _ in 0..at {
        c.run_epoch();
    }
    let ck = Checkpoint::capture(&c, cfg.clone());
    assert!(
        ck.state.pending.len() >= 2,
        "boundary must hold more than one live chain, got {}",
        ck.state.pending.len()
    );
    let want = straight_through(&cfg, 1);
    for (jb, ja) in [(1, 1), (1, 4), (4, 1)] {
        assert_eq!(
            save_restore_finish(&cfg, at, jb, ja),
            want,
            "mid-flight multi-chain restore (jobs {jb} -> {ja}) must be byte-identical"
        );
    }
}

/// String characters for generated values: ASCII, two-, three- and
/// four-byte UTF-8, every character the writer escapes by name (`"`,
/// `\\`, `\n`, `\r`, `\t`), control characters it writes as `\u00XX`,
/// and DEL, which it writes raw.
const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '/', 'é', 'ß', '→', '€', '😀', '𝄞', '"', '\\', '\n', '\r', '\t', '\u{0}',
    '\u{1}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}',
];

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize]
}

fn string(rng: &mut TestRng) -> String {
    (0..rng.below(12)).map(|_| pick(rng, CHARS)).collect()
}

/// Generated `Value` trees, `depth` levels of arrays and objects deep
/// at most. Scalars are drawn in the form the writer and decoder agree
/// on — integers are `I64` only when negative (a non-negative one
/// decodes as `U64`), floats are finite — so a round trip must give
/// back the tree itself, not only the same text.
struct ValueTree {
    depth: u32,
}

impl Strategy for ValueTree {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        let inner = ValueTree {
            depth: self.depth.saturating_sub(1),
        };
        match rng.below(if self.depth == 0 { 6 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::I64(match rng.below(3) {
                0 => pick(rng, &[i64::MIN, i64::MIN + 1, -1]),
                _ => (rng.next_u64() | 1 << 63) as i64,
            }),
            3 => Value::U64(match rng.below(3) {
                0 => pick(rng, &[0, u64::MAX, u64::MAX - 1, i64::MAX as u64 + 1]),
                _ => rng.next_u64(),
            }),
            4 => Value::F64(match rng.below(3) {
                0 => pick(rng, &[0.0, -0.0, 0.5, 1e-7, -2.0, 123_456.789]),
                _ => (rng.unit_f64() - 0.5) * 2e12,
            }),
            5 => Value::Str(string(rng)),
            6 => Value::Array((0..rng.below(4)).map(|_| inner.generate(rng)).collect()),
            _ => Value::Object(
                (0..rng.below(4))
                    .map(|_| (string(rng), inner.generate(rng)))
                    .collect(),
            ),
        }
    }
}

/// One piece of a JSON string literal as text, with the character it
/// must decode to: raw text, or any of the escapes JSON defines,
/// including `\uXXXX` surrogate pairs.
fn literal_piece(rng: &mut TestRng) -> (String, char) {
    const NAMED: &[(&str, char)] = &[
        ("\\\"", '"'),
        ("\\\\", '\\'),
        ("\\/", '/'),
        ("\\b", '\u{8}'),
        ("\\f", '\u{c}'),
        ("\\n", '\n'),
        ("\\r", '\r'),
        ("\\t", '\t'),
    ];
    match rng.below(3) {
        0 => {
            let (text, c) = pick(rng, NAMED);
            (text.to_string(), c)
        }
        1 => {
            let c = pick(
                rng,
                &['\u{0}', '\u{1f}', 'A', 'é', '→', '\u{ffff}', '😀', '𝄞'],
            );
            let mut units = [0u16; 2];
            let text = c
                .encode_utf16(&mut units)
                .iter()
                .map(|u| {
                    if rng.below(2) == 0 {
                        format!("\\u{u:04x}")
                    } else {
                        format!("\\u{u:04X}")
                    }
                })
                .collect();
            (text, c)
        }
        _ => {
            // Raw text: anything but the quote, the backslash and the
            // control characters, which must be escaped.
            let c = pick(rng, &['a', ' ', '/', 'é', '→', '😀', '\u{7f}']);
            (c.to_string(), c)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Value trees round-trip through the checkpoint file encoding:
    /// pretty text decodes to the same tree and renders to the same
    /// bytes.
    #[test]
    fn json_values_round_trip_byte_stably(v in ValueTree { depth: 4 }) {
        let text = serde_json::to_string_pretty(&v).expect("serialize");
        let back = serde_json::from_str(&text).expect("the writer's output parses");
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(serde_json::to_string_pretty(&back).expect("serialize"), text);
    }

    /// Every escape JSON defines decodes to its character, mixed with
    /// raw runs of multi-byte text.
    #[test]
    fn json_string_escapes_decode(seed in any::<u64>()) {
        let mut rng = TestRng::from_case("json_string_escapes_decode", seed);
        let (mut text, mut want) = (String::from("\""), String::new());
        for _ in 0..rng.below(16) {
            let (piece, c) = literal_piece(&mut rng);
            text.push_str(&piece);
            want.push(c);
        }
        text.push('"');
        prop_assert_eq!(serde_json::from_str(&text).expect("valid literal"), Value::Str(want));
    }
}

/// Hostile checkpoint files: every truncation of a real checkpoint is
/// refused, and a bit flip at every byte of it decodes or is refused —
/// `read_checkpoint` returns instead of panicking.
#[test]
fn truncated_and_bit_flipped_checkpoints_never_panic() {
    let cfg = config(42, Policy::VcrdAware, "abort@1", 1, 2);
    let mut c = cfg.build_cluster(1);
    for _ in 0..4 {
        c.run_epoch();
    }
    let dir = std::env::temp_dir().join(format!("asman-ckpt-hostile-{}", std::process::id()));
    let good = write_checkpoint(&dir, &Checkpoint::capture(&c, cfg)).expect("write checkpoint");
    assert!(read_checkpoint(&good).is_ok(), "the intact file decodes");
    let bytes = std::fs::read(&good).expect("read checkpoint");
    let bad = dir.join("CKPT_hostile.json");
    let read = |b: &[u8]| {
        std::fs::write(&bad, b).expect("write hostile file");
        read_checkpoint(&bad)
    };
    for len in 0..bytes.len() {
        assert!(
            read(&bytes[..len]).is_err(),
            "a {len}-byte truncation decoded"
        );
    }
    for pos in 0..bytes.len() {
        // Bits 0-6 keep the byte ASCII, so the flip reaches the JSON
        // decoder and the schema instead of failing UTF-8 validation.
        let mut flipped = bytes.clone();
        flipped[pos] ^= 1 << (pos % 7);
        // Ok or Err both pass: a flipped digit is still a checkpoint.
        let _ = read(&flipped);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
