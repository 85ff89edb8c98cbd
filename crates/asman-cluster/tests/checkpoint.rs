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

use asman_cluster::{
    checkpoint::ClusterState, scenario::ConsolidationSpec, Checkpoint, CheckpointConfig, ChurnPlan,
    ClusterConfig, Policy,
};
use asman_sim::FaultPlan;

const EPOCHS: u64 = 12;

fn config() -> CheckpointConfig {
    let d = ClusterConfig::default();
    CheckpointConfig {
        scenario: ConsolidationSpec::default(),
        epoch_ms: d.epoch_ms,
        epochs: EPOCHS,
        policy: Policy::VcrdAware,
        cooldown_epochs: d.cooldown_epochs,
        retry_cap: d.retry_cap,
        audit_every: d.audit_every,
        model: d.model,
        faults: FaultPlan::parse("abort@0,abort@1").expect("fault plan"),
        churn: ChurnPlan::empty(),
        slot_reuse: false,
        series_capacity: 0,
        max_moves: 1,
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
