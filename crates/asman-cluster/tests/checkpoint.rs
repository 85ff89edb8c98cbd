//! Balancer boundary state across checkpoint/restore.
//!
//! The checkpoint must carry every piece of cross-epoch balancer state
//! — per-VM migration cooldowns, the pending retry with its backoff
//! deadline and attempt count, the VCRD baselines the next epoch's
//! deltas are computed against, and the span-id allocator. Each test
//! here is a fails-without-fix regression for one of those fields: it
//! simulates a checkpoint whose encoding *dropped* the field (by
//! resetting it in an otherwise faithful image), applies it, and
//! demands the continued run's final state digest diverge from the
//! uninterrupted run — proving the field is load-bearing. The faithful
//! twin restores the unmodified image and must stay bit-identical.
//!
//! The scenario is tuned so the interesting state is live at the
//! boundary: `abort@0,abort@1` makes the consolidation migration abort
//! twice, so at epoch 2 a retry is mid-backoff (attempts 2, due epoch
//! 3), it commits at epoch 3, and at epoch 5 the resulting per-VM
//! cooldowns are still counting down — with further migrations landing
//! around epochs 8 and 11 to carry any divergence to the horizon.
//!
//! The last test pins the decoder's refusals: one corrupted field of
//! the epoch-2 image per row, and the exact message naming it.

use asman_cluster::{checkpoint::ClusterState, Checkpoint, CheckpointConfig, ChurnPlan, Policy};
use asman_sim::FaultPlan;
use serde::{Serialize, Value};

const EPOCHS: u64 = 12;

fn config() -> CheckpointConfig {
    CheckpointConfig {
        epochs: EPOCHS,
        policy: Policy::VcrdAware,
        faults: FaultPlan::parse("abort@0,abort@1").expect("fault plan"),
        ..CheckpointConfig::default()
    }
}

fn straight_digest(cfg: &CheckpointConfig) -> u64 {
    let mut c = cfg.build_cluster(1);
    for _ in 0..cfg.epochs {
        c.run_epoch();
    }
    c.state_digest()
}

fn capture_at(cfg: &CheckpointConfig, at: u64) -> Checkpoint {
    let mut c = cfg.build_cluster(1);
    for _ in 0..at {
        c.run_epoch();
    }
    Checkpoint::capture(&c, cfg.clone())
}

/// Restore `ck` (after `tweak` mangles its state) and run to the end.
/// `apply` is used directly — a decoder that silently dropped a field
/// would pass no-op validation against its own replay, so the tests
/// model the drop on the state image itself.
fn resumed_digest(
    cfg: &CheckpointConfig,
    ck: &Checkpoint,
    tweak: &dyn Fn(&mut ClusterState),
) -> u64 {
    let mut ck = ck.clone();
    tweak(&mut ck.state);
    let mut c = cfg.build_cluster(1);
    for _ in 0..ck.state.epoch {
        c.run_epoch();
    }
    ck.apply(&mut c);
    for _ in ck.state.epoch..cfg.epochs {
        c.run_epoch();
    }
    c.state_digest()
}

/// The boundary really is mid-flight: a retry is pending with a
/// future deadline and a second attempt on the counter, and after the
/// commit a cooldown is active. Guards the other tests against the
/// scenario drifting into a dull corner.
#[test]
fn scenario_has_live_boundary_state() {
    let ck2 = capture_at(&config(), 2);
    let p = ck2.state.pending.first().expect("retry pending at epoch 2");
    assert!(p.due > 2, "retry is mid-backoff, due {} > 2", p.due);
    assert_eq!(p.attempts, 2, "two aborted attempts recorded");
    let ck5 = capture_at(&config(), 5);
    assert!(ck5.state.pending.is_empty(), "retry committed by epoch 5");
    let cooling = ck5
        .state
        .vms
        .iter()
        .filter(|v| v.last_migration.is_some_and(|m| 5 - m < 3))
        .count();
    assert!(cooling > 0, "a cooldown is counting down at epoch 5");
}

/// The faithful twin: restoring the unmodified image at either
/// boundary reproduces the uninterrupted run bit for bit.
#[test]
fn faithful_restore_is_bit_identical() {
    let cfg = config();
    let want = straight_digest(&cfg);
    for at in [2, 5] {
        let ck = capture_at(&cfg, at);
        assert_eq!(
            resumed_digest(&cfg, &ck, &|_| {}),
            want,
            "faithful restore at epoch {at} must match straight-through"
        );
    }
}

/// Every balancer boundary field is load-bearing: dropping it from the
/// restored image makes the continued run diverge from the
/// uninterrupted one, and the validator names it against a faithful
/// replay.
#[test]
fn dropped_boundary_fields_diverge() {
    let cfg = config();
    let want = straight_digest(&cfg);
    type Tweak = Box<dyn Fn(&mut ClusterState)>;
    let cases: Vec<(&str, u64, Tweak)> = vec![
        (
            "pending retry dropped entirely",
            2,
            Box::new(|s| s.pending.clear()),
        ),
        (
            "pending.due backoff timer reset (retry fires early)",
            2,
            Box::new(|s| s.pending.first_mut().expect("pending").due = 2),
        ),
        (
            "pending.attempts reset (backoff and give-up ladder restart)",
            2,
            Box::new(|s| {
                let p = s.pending.first_mut().expect("pending");
                p.attempts = 0;
                for v in &mut s.vms {
                    v.attempts = 0;
                }
            }),
        ),
        (
            "vms[*].last_migration dropped (cooldown lost)",
            5,
            Box::new(|s| {
                for v in &mut s.vms {
                    v.last_migration = None;
                }
            }),
        ),
        (
            // At epoch 8 the balancer's next fresh decision (the
            // epoch-9 migration) reads deltas computed against these
            // baselines. Corrupt them *past* the live counters so
            // every delta saturates to zero and the balancer sees an
            // idle cluster, suppressing that move. (Zeroing them
            // instead would inflate every delta by the same cumulative
            // total and leave the pick ordering intact — the
            // corruption has to change a decision, not just a number.)
            "vms[*].prev_* VCRD baselines corrupted (next deltas collapse)",
            8,
            Box::new(|s| {
                for v in &mut s.vms {
                    v.prev_spin = u64::MAX;
                    v.prev_vcrd_high = u64::MAX;
                    v.prev_online = u64::MAX;
                }
            }),
        ),
        (
            "next_span allocator reset (span ids collide)",
            2,
            Box::new(|s| s.next_span = 0),
        ),
    ];
    for (what, at, tweak) in cases {
        let ck = capture_at(&cfg, at);
        let got = resumed_digest(&cfg, &ck, tweak.as_ref());
        assert_ne!(
            got, want,
            "{what}: restored run should diverge from straight-through, \
             but the final digests agree — the field looks dead"
        );
        // The validator sees the same corruption when the image is
        // checked against a faithful replay, so a schema drop of this
        // field could not slip through a validated resume silently.
        let mut ck2 = ck.clone();
        tweak(&mut ck2.state);
        let mut fresh = cfg.build_cluster(1);
        for _ in 0..at {
            fresh.run_epoch();
        }
        assert!(
            !ck2.validate(&fresh).is_empty(),
            "{what}: validate must flag the mangled image"
        );
    }
}

/// The value at a dotted `path` of object keys and array indexes.
fn at<'a>(v: &'a mut Value, path: &str) -> &'a mut Value {
    path.split('.').fold(v, |v, seg| match v {
        Value::Object(fields) => &mut fields.iter_mut().find(|(k, _)| k == seg).expect(seg).1,
        Value::Array(items) => &mut items[seg.parse::<usize>().expect(seg)],
        _ => panic!("{seg}: not an object or array"),
    })
}

/// A crash of `host`, as a fault event's `kind` encodes it.
fn crash(host: u64) -> Value {
    Value::Object(vec![(
        "Crash".into(),
        Value::Object(vec![("host".into(), Value::U64(host))]),
    )])
}

/// A corrupted field is refused with its path from the artifact root
/// and its problem: a wrong type, or a value out of the range the
/// cluster is built and run with. The epoch-2 image is mid-flight:
/// faults in the config, an abort on record and a retry chain pending.
#[test]
fn decode_errors_name_the_corrupted_field() {
    let good = capture_at(&config(), 2).to_value();
    let back = Checkpoint::from_value(&good).expect("the intact image decodes");
    assert_eq!(back.state, capture_at(&config(), 2).state);
    type Corrupt = fn(&mut Value);
    let rows: [(Corrupt, &str); 24] = [
        (
            |v| *at(v, "state.vms.1.last_migration") = Value::Str("soon".into()),
            "state.vms[1].last_migration: not an unsigned integer",
        ),
        (
            |v| *at(v, "config.faults.events.0.kind") = Value::Str("Boom".into()),
            "config.faults.events[0].kind: unknown variant 'Boom'",
        ),
        (
            |v| {
                *at(v, "config.faults.events.0.kind") =
                    serde_json::from_str(r#"{"Crash": {"host": "h1"}}"#).unwrap()
            },
            "config.faults.events[0].kind.Crash.host: not an unsigned integer",
        ),
        (
            |v| *at(v, "state.health.0") = Value::U64(0),
            "state.health[0]: not an enum variant",
        ),
        (
            |v| *at(v, "state.records") = Value::Null,
            "state.records: not an array",
        ),
        (
            |v| *at(v, "state.next_span") = Value::U64(1 << 32),
            "state.next_span: does not fit in u32",
        ),
        (
            |v| {
                let Value::Object(abort) = at(v, "state.aborts.0") else {
                    unreachable!()
                };
                abort.retain(|(k, _)| k != "penalty");
            },
            "state.aborts[0]: missing field 'penalty'",
        ),
        (
            // A version-1 image carries its one live chain as an object.
            |v| {
                *at(v, "version") = Value::U64(1);
                let mut chain = at(v, "state.pending.0").clone();
                *at(&mut chain, "attempts") = Value::Bool(true);
                *at(v, "state.pending") = chain;
            },
            "state.pending.attempts: not an unsigned integer",
        ),
        (
            |v| *at(v, "hosts.1") = Value::F64(0.5),
            "checkpoint.hosts[1]: not an unsigned integer",
        ),
        // Well typed but out of range for building or running the
        // cluster, each of which used to abort the process.
        (
            |v| *at(v, "config.hosts") = Value::U64(0),
            "config.hosts: 0 is out of range (at least 2)",
        ),
        (
            |v| *at(v, "config.gangs") = Value::U64(0),
            "config.gangs: 0 is out of range (at least 1)",
        ),
        (
            |v| *at(v, "config.pcpus") = Value::U64(0),
            "config.pcpus: 0 is out of range (at least 1)",
        ),
        (
            |v| *at(v, "config.pcpus") = Value::U64(129),
            "config.pcpus: 129 is out of range (at most 128)",
        ),
        (
            |v| *at(v, "config.epoch_ms") = Value::U64(0),
            "config.epoch_ms: 0 is out of range (at least 1)",
        ),
        (
            |v| *at(v, "config.retry_cap") = Value::U64(0),
            "config.retry_cap: 0 is out of range (at least 1)",
        ),
        (
            |v| *at(v, "config.audit_every") = Value::U64(0),
            "config.audit_every: 0 is out of range (at least 1)",
        ),
        (
            |v| *at(v, "config.max_moves") = Value::U64(0),
            "config.max_moves: 0 is out of range (at least 1)",
        ),
        (
            |v| *at(v, "config.faults.events.1.kind") = crash(99),
            "config.faults.events[1].kind.Crash.host: host 99 is out of range \
             (the cluster has 3 hosts)",
        ),
        (
            |v| {
                *at(v, "config.faults") = FaultPlan::parse("slow@4:h1:50").unwrap().to_value();
                *at(v, "config.faults.events.0.kind.Slow.host") = Value::U64(3);
            },
            "config.faults.events[0].kind.Slow.host: host 3 is out of range \
             (the cluster has 3 hosts)",
        ),
        (
            |v| {
                *at(v, "config.faults") = FaultPlan::parse("slow@4:h1:50").unwrap().to_value();
                *at(v, "config.faults.events.0.kind.Slow.derate_pct") = Value::U64(100);
            },
            "config.faults.events[0].kind.Slow.derate_pct: 100 is out of range (1..=99)",
        ),
        (
            |v| {
                let plan = FaultPlan::parse("crash@5:h0,crash@6:h1,crash@7:h2").unwrap();
                *at(v, "config.faults") = plan.to_value();
            },
            "config.faults: crashes every host; one must stay up to take the evacuated VMs",
        ),
        (
            |v| {
                let plan = ChurnPlan::parse("arrive@4:gang2,depart@5:h1:v0").unwrap();
                *at(v, "config.churn") = plan.to_value();
                *at(v, "config.churn.events.1.kind.Depart.host") = Value::U64(99);
            },
            "config.churn.events[1].kind.Depart.host: host 99 is out of range \
             (the cluster has 3 hosts)",
        ),
        (
            |v| {
                let plan = ChurnPlan::parse("arrive@4:gang2").unwrap();
                *at(v, "config.churn") = plan.to_value();
                *at(v, "config.churn.events.0.kind.Arrive.shape.vcpus") = Value::U64(0);
            },
            "config.churn.events[0].kind.Arrive.shape.vcpus: 0 is out of range (at least 1)",
        ),
        (
            |v| {
                let plan = ChurnPlan::parse("arrive@4:gang2").unwrap();
                *at(v, "config.churn") = plan.to_value();
                *at(v, "config.churn.events.0.kind.Arrive.shape.weight") = Value::U64(0);
            },
            "config.churn.events[0].kind.Arrive.shape.weight: 0 is out of range (at least 1)",
        ),
    ];
    for (corrupt, want) in rows {
        let mut v = good.clone();
        corrupt(&mut v);
        assert_eq!(Checkpoint::from_value(&v).err().as_deref(), Some(want));
    }
}
