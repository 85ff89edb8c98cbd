//! Epoch-boundary checkpoint capture, validation and authoritative
//! restore for the cluster driver.
//!
//! The simulator is deterministic, so a checkpoint does not need to
//! serialize the machine microstate (event queues, guest kernels, RNG
//! words, telemetry rings): replaying epochs `0..E` from the recorded
//! configuration reconstructs all of it bit-exactly. What the artifact
//! *does* carry, exactly and authoritatively, is:
//!
//! * the **configuration** needed to rebuild the cluster — scenario
//!   shape, policy, cost model, and the fault/churn plans already
//!   *resolved* to explicit event lists (a `rand:SEED` spec resolved
//!   against a different horizon would silently change the schedule);
//! * the **cluster control state** at epoch `E` — every registry entry,
//!   host health, the ordered set of live retry chains (each with its
//!   due epoch and attempt count), migration/abort/evacuation records,
//!   churn and recovery counters, and the span allocator;
//! * per-host **state fingerprints**
//!   ([`asman_hypervisor::Machine::state_fingerprint`]) plus a combined
//!   [`Cluster::state_digest`], so restore can *prove* the replay
//!   reconverged before continuing.
//!
//! The control state has one representation: the cluster holds it as
//! a [`ClusterState`] and mutates it in place, so capture is a clone
//! and apply an assignment. Its elements derive both `Serialize`
//! (fields in declaration order) and `Deserialize`, so each has one
//! schema, and a malformed artifact is refused with the path of the
//! failing field (`state.vms[3].last_migration: not an unsigned
//! integer`). Only what the format itself fixes is decoded by hand:
//! the artifact header, the flattened `config` section, and the
//! version-1 forms of `state.pending`.
//!
//! Restore = rebuild from the configuration, replay to `E`, validate
//! the replayed state against the artifact field-by-field
//! ([`Checkpoint::validate`]), then **apply** the artifact's control
//! state over the replayed one ([`Checkpoint::apply`]). Applying makes
//! every serialized field load-bearing: a checkpoint that dropped (or
//! corrupted) a field produces a continuation that diverges from the
//! straight-through run, which is exactly what the round-trip test
//! battery asserts. The same field-by-field comparator doubles as the
//! divergence detector of the `repro bisect` driver.

use crate::balancer::Policy;
use crate::churn::ChurnPlan;
use crate::migration::{AbortRecord, MigrationModel, MigrationRecord};
use crate::scenario::{consolidation_cluster, ConsolidationSpec};
use crate::{Cluster, ClusterConfig, HostHealth, PendingRetry, VmEntry};
use asman_sim::{FaultPlan, Fnv};
use serde::{field, Deserialize, Serialize, Value};

/// Artifact type tag (`"kind"` field of every checkpoint file).
pub const CKPT_KIND: &str = "asman-ckpt";

/// Current checkpoint schema version. Bump on any incompatible change
/// to the serialized form; [`Checkpoint::from_value`] reads versions
/// `1..=CKPT_VERSION` and rejects anything else with a clear error —
/// silent misinterpretation of state is strictly worse than a refusal.
///
/// Version history:
/// * **1** — `state.pending` is a single retry chain (object) or null;
///   the config carries no move budget.
/// * **2** — `state.pending` is the ordered array of live retry chains
///   (multi-move planning) and the config records `max_moves`. A
///   version-1 artifact decodes as a set of ≤ 1 chains with the budget
///   defaulting to 1, which reproduces its original semantics exactly.
pub const CKPT_VERSION: u64 = 2;

/// Everything needed to rebuild the cluster a checkpoint was taken
/// from: the consolidation scenario, the driver configuration, and the
/// fault/churn plans **resolved** to explicit event lists.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Scenario shape (hosts, gangs, PCPUs, seed).
    pub scenario: ConsolidationSpec,
    /// Epoch length in milliseconds.
    pub epoch_ms: u64,
    /// Run horizon the plans were resolved against.
    pub epochs: u64,
    /// Placement policy.
    pub policy: Policy,
    /// Post-migration cooldown in epochs.
    pub cooldown_epochs: u64,
    /// Retry-chain attempt cap.
    pub retry_cap: u32,
    /// Auditor cadence in epochs.
    pub audit_every: u64,
    /// Migration cost model.
    pub model: MigrationModel,
    /// Resolved fault schedule.
    pub faults: FaultPlan,
    /// Resolved churn schedule.
    pub churn: ChurnPlan,
    /// Whether tombstone slot reuse was enabled.
    pub slot_reuse: bool,
    /// Series-ring capacity; `0` means series sampling was off.
    pub series_capacity: usize,
    /// Per-epoch migration budget (version-1 artifacts, which predate
    /// multi-move planning, decode as 1).
    pub max_moves: usize,
}

impl CheckpointConfig {
    /// Rebuild a fresh cluster at epoch 0 from this configuration.
    /// `jobs` is deliberately *not* part of the checkpoint: results are
    /// bit-identical for every worker count, so the restoring side
    /// picks its own.
    pub fn build_cluster(&self, jobs: usize) -> Cluster {
        let cfg = ClusterConfig {
            epoch_ms: self.epoch_ms,
            epochs: self.epochs,
            policy: self.policy,
            model: self.model,
            cooldown_epochs: self.cooldown_epochs,
            faults: self.faults.clone(),
            retry_cap: self.retry_cap,
            churn: self.churn.clone(),
            audit_every: self.audit_every,
            jobs,
            max_moves: self.max_moves,
        };
        let mut c = consolidation_cluster(cfg, &self.scenario);
        if self.slot_reuse {
            c.enable_slot_reuse();
        }
        if self.series_capacity > 0 {
            c.enable_series(self.series_capacity);
        }
        c
    }

    /// Serialize to the artifact's `config` section.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("hosts".to_string(), self.scenario.hosts.to_value()),
            ("gangs".to_string(), self.scenario.gangs.to_value()),
            ("pcpus".to_string(), self.scenario.pcpus.to_value()),
            ("seed".to_string(), self.scenario.seed.to_value()),
            ("epoch_ms".to_string(), self.epoch_ms.to_value()),
            ("epochs".to_string(), self.epochs.to_value()),
            (
                "policy".to_string(),
                Value::Str(self.policy.label().to_string()),
            ),
            (
                "cooldown_epochs".to_string(),
                self.cooldown_epochs.to_value(),
            ),
            ("retry_cap".to_string(), self.retry_cap.to_value()),
            ("audit_every".to_string(), self.audit_every.to_value()),
            ("model".to_string(), self.model.to_value()),
            ("faults".to_string(), self.faults.to_value()),
            ("churn".to_string(), self.churn.to_value()),
            ("slot_reuse".to_string(), self.slot_reuse.to_value()),
            (
                "series_capacity".to_string(),
                self.series_capacity.to_value(),
            ),
            ("max_moves".to_string(), self.max_moves.to_value()),
        ])
    }

    /// Decode the artifact's `config` section: the scenario's fields
    /// at its top level, the policy as its label, and no `max_moves`
    /// in version 1. Errors name the path below the section, as
    /// [`Deserialize::from_value`] does (`.faults.events[0].epoch: not
    /// an unsigned integer`).
    pub fn from_value(v: &Value) -> Result<CheckpointConfig, String> {
        let label: String = field(v, "policy")?;
        let policy =
            Policy::parse(&label).ok_or_else(|| format!(".policy: unknown policy '{label}'"))?;
        Ok(CheckpointConfig {
            scenario: ConsolidationSpec {
                hosts: field(v, "hosts")?,
                gangs: field(v, "gangs")?,
                pcpus: field(v, "pcpus")?,
                seed: field(v, "seed")?,
            },
            epoch_ms: field(v, "epoch_ms")?,
            epochs: field(v, "epochs")?,
            policy,
            cooldown_epochs: field(v, "cooldown_epochs")?,
            retry_cap: field(v, "retry_cap")?,
            audit_every: field(v, "audit_every")?,
            model: field(v, "model")?,
            faults: field(v, "faults")?,
            churn: field(v, "churn")?,
            slot_reuse: field(v, "slot_reuse")?,
            series_capacity: field(v, "series_capacity")?,
            // Absent in version-1 artifacts, which ran the historical
            // single-slot driver: default to a budget of 1.
            max_moves: match v.get("max_moves") {
                Some(_) => field(v, "max_moves")?,
                None => 1,
            },
        })
    }
}

/// The cluster's serial control state: the one copy [`Cluster`] holds
/// and mutates, and the artifact's `state` section. Restore assigns the
/// whole value ([`Cluster::apply_checkpoint_state`]), so dropping any
/// field from the schema makes the continuation observably diverge
/// (the round-trip battery tests exactly that, field by field).
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct ClusterState {
    /// Epochs run (the checkpoint epoch `E`).
    pub epoch: u64,
    /// Health of every host.
    pub health: Vec<HostHealth>,
    /// Every registry entry, cluster-id order.
    pub vms: Vec<VmEntry>,
    /// Live retry chains, FIFO by chain age; at most
    /// [`ClusterConfig::max_moves`], each claiming its endpoints'
    /// per-host send/receive caps while alive. Version-2 artifacts
    /// encode the ordered array; version-1 artifacts encode null or a
    /// single object and decode as a set of ≤ 1.
    pub pending: Vec<PendingRetry>,
    /// Migrations executed so far.
    pub records: Vec<MigrationRecord>,
    /// Aborted attempts so far.
    pub aborts: Vec<AbortRecord>,
    /// Crash evacuations so far.
    pub evacuations: Vec<MigrationRecord>,
    /// Retry chains that eventually committed.
    pub retries_committed: u64,
    /// Retry chains abandoned mid-flight.
    pub retries_abandoned: u64,
    /// VMs whose chains exhausted the cap.
    pub gave_up: u64,
    /// Churn arrivals admitted.
    pub arrivals: u64,
    /// Churn departures executed.
    pub departures: u64,
    /// Arrivals rejected by admission control.
    pub arrivals_rejected: u64,
    /// Departures skipped (no live VM on the named host).
    pub departures_skipped: u64,
    /// Departed VMs whose program had finished.
    pub departed_finished: u64,
    /// Next causal migration-span id (minted at `prepare`).
    pub next_span: u32,
}

impl ClusterState {
    /// Decode the artifact's `state` section. Errors name the path
    /// below the section, as [`Deserialize::from_value`] does.
    pub fn from_value(v: &Value) -> Result<ClusterState, String> {
        Ok(ClusterState {
            epoch: field(v, "epoch")?,
            health: field(v, "health")?,
            vms: field(v, "vms")?,
            pending: match v.get("pending") {
                // Version 1: no chain backing off, or the single chain.
                Some(Value::Null) => Vec::new(),
                Some(one @ Value::Object(_)) => {
                    vec![PendingRetry::from_value(one).map_err(|e| format!(".pending{e}"))?]
                }
                // Version 2: the ordered chain set.
                _ => field(v, "pending")?,
            },
            records: field(v, "records")?,
            aborts: field(v, "aborts")?,
            evacuations: field(v, "evacuations")?,
            retries_committed: field(v, "retries_committed")?,
            retries_abandoned: field(v, "retries_abandoned")?,
            gave_up: field(v, "gave_up")?,
            arrivals: field(v, "arrivals")?,
            departures: field(v, "departures")?,
            arrivals_rejected: field(v, "arrivals_rejected")?,
            departures_skipped: field(v, "departures_skipped")?,
            departed_finished: field(v, "departed_finished")?,
            next_span: field(v, "next_span")?,
        })
    }
}

/// One complete checkpoint: configuration, control state, per-host
/// machine fingerprints, and the combined state digest.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Rebuild configuration.
    pub config: CheckpointConfig,
    /// Cluster control state at the checkpoint epoch.
    pub state: ClusterState,
    /// Per-host [`asman_hypervisor::Machine::state_fingerprint`] values at
    /// the boundary.
    pub hosts: Vec<u64>,
    /// [`Cluster::state_digest`] at the boundary.
    pub digest: u64,
}

impl Checkpoint {
    /// Capture a checkpoint of `c` at its current epoch boundary.
    /// `config` is supplied by the caller (the cluster does not know
    /// which scenario built it or which telemetry was enabled).
    pub fn capture(c: &Cluster, config: CheckpointConfig) -> Checkpoint {
        Checkpoint {
            config,
            state: c.checkpoint_state(),
            hosts: c.host_fingerprints(),
            digest: c.state_digest(),
        }
    }

    /// Compare `c`'s current state against this artifact, returning one
    /// human-readable line per mismatch (empty = states agree). Used by
    /// restore to prove the replay reconverged, and by the bisector as
    /// its divergence detector.
    pub fn validate(&self, c: &Cluster) -> Vec<String> {
        let mut out = diff_states(&self.state, &c.state);
        let live = c.host_fingerprints();
        if self.hosts.len() != live.len() {
            out.push(format!(
                "hosts: fingerprint count {} (artifact) vs {} (replayed)",
                self.hosts.len(),
                live.len()
            ));
        } else {
            for (h, (a, b)) in self.hosts.iter().zip(&live).enumerate() {
                if a != b {
                    out.push(format!(
                        "hosts[{h}]: machine fingerprint {a:016x} (artifact) vs {b:016x} (replayed)"
                    ));
                }
            }
        }
        let digest = c.state_digest();
        if self.digest != digest {
            out.push(format!(
                "digest: {:016x} (artifact) vs {digest:016x} (replayed)",
                self.digest
            ));
        }
        out
    }

    /// Overwrite `c`'s control state with the artifact's — the
    /// authoritative half of restore. Every serialized field lands here,
    /// which is what makes each of them load-bearing: corrupting one in
    /// the artifact observably changes the continuation.
    pub fn apply(&self, c: &mut Cluster) {
        c.apply_checkpoint_state(&self.state);
    }

    /// Serialize the whole artifact.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("kind".to_string(), Value::Str(CKPT_KIND.to_string())),
            ("version".to_string(), CKPT_VERSION.to_value()),
            ("config".to_string(), self.config.to_value()),
            ("epoch".to_string(), self.state.epoch.to_value()),
            ("state".to_string(), self.state.to_value()),
            ("hosts".to_string(), self.hosts.to_value()),
            ("digest".to_string(), self.digest.to_value()),
        ])
    }

    /// Decode an artifact, rejecting wrong kinds and versions. An
    /// error names the failing field from the artifact's root:
    /// `checkpoint.` and a header field, or the `config` or `state`
    /// section (`state.vms[3].last_migration: not an unsigned integer`).
    pub fn from_value(v: &Value) -> Result<Checkpoint, String> {
        let header = |e: String| format!("checkpoint{e}");
        let kind: String = field(v, "kind").map_err(header)?;
        if kind != CKPT_KIND {
            return Err(format!(
                "checkpoint.kind: '{kind}' is not a checkpoint (expected '{CKPT_KIND}')"
            ));
        }
        let version: u64 = field(v, "version").map_err(header)?;
        if !(1..=CKPT_VERSION).contains(&version) {
            return Err(format!(
                "checkpoint.version: {version} unsupported (this build reads versions 1..={CKPT_VERSION})"
            ));
        }
        let section = |key: &str| {
            v.get(key)
                .ok_or_else(|| format!("checkpoint: missing field '{key}'"))
        };
        let config =
            CheckpointConfig::from_value(section("config")?).map_err(|e| format!("config{e}"))?;
        let state = ClusterState::from_value(section("state")?).map_err(|e| format!("state{e}"))?;
        let epoch: u64 = field(v, "epoch").map_err(header)?;
        if epoch != state.epoch {
            return Err(format!(
                "checkpoint.epoch: {epoch} disagrees with state.epoch {}",
                state.epoch
            ));
        }
        Ok(Checkpoint {
            config,
            state,
            hosts: field(v, "hosts").map_err(header)?,
            digest: field(v, "digest").map_err(header)?,
        })
    }
}

impl Cluster {
    /// Capture the cluster's serial control state (see [`ClusterState`]).
    pub fn checkpoint_state(&self) -> ClusterState {
        self.state.clone()
    }

    /// Overwrite the cluster's control state with `s` — restore's
    /// authoritative application step. The machine microstate is *not*
    /// touched: it was reconstructed by replay and verified against the
    /// artifact's host fingerprints before this is called.
    pub fn apply_checkpoint_state(&mut self, s: &ClusterState) {
        self.state = s.clone();
    }

    /// Per-host machine state fingerprints, host order.
    pub fn host_fingerprints(&self) -> Vec<u64> {
        self.hosts.iter().map(|m| m.state_fingerprint()).collect()
    }

    /// One `u64` summarizing the *entire* cluster state: the serial
    /// control state folded structurally, plus every host's machine
    /// fingerprint. Two runs with equal digests at an epoch boundary
    /// are (up to hash collision) in identical states and produce
    /// identical futures — the comparison handle the bisector
    /// binary-searches over.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        fold_value(&self.state.to_value(), &mut h);
        for m in &self.hosts {
            h.write_u64(m.state_fingerprint());
        }
        h.finish()
    }
}

// ---- structural comparison ------------------------------------------

/// Fold a [`Value`] tree structurally (variant tags, lengths, keys) so
/// the digest is a property of the data, not of any rendered text.
fn fold_value(v: &Value, h: &mut Fnv) {
    match v {
        Value::Null => h.write_u32(0),
        Value::Bool(b) => {
            h.write_u32(1);
            h.write_bool(*b);
        }
        Value::I64(i) => {
            h.write_u32(2);
            h.write_i64(*i);
        }
        Value::U64(u) => {
            h.write_u32(3);
            h.write_u64(*u);
        }
        Value::F64(f) => {
            h.write_u32(4);
            h.write_u64(f.to_bits());
        }
        Value::Str(s) => {
            h.write_u32(5);
            h.write_str(s);
        }
        Value::Array(a) => {
            h.write_u32(6);
            h.write_usize(a.len());
            for x in a {
                fold_value(x, h);
            }
        }
        Value::Object(o) => {
            h.write_u32(7);
            h.write_usize(o.len());
            for (k, x) in o {
                h.write_str(k);
                fold_value(x, h);
            }
        }
    }
}

/// Field-level diff between two captured states, one line per mismatch
/// with its full path (e.g. `state.vms[3].last_migration`). The first
/// state is rendered on the left of each line. Used by restore
/// validation (artifact vs replayed) and by the bisector (run A vs
/// run B).
pub fn diff_states(a: &ClusterState, b: &ClusterState) -> Vec<String> {
    let mut out = Vec::new();
    diff_value("state", &a.to_value(), &b.to_value(), &mut out);
    out
}

/// Recursively diff two [`Value`] trees, appending one line per
/// mismatch with its full path (e.g. `state.vms[3].last_migration`).
fn diff_value(path: &str, a: &Value, b: &Value, out: &mut Vec<String>) {
    match (a, b) {
        (Value::Object(ao), Value::Object(bo)) => {
            if ao.len() != bo.len() || ao.iter().zip(bo).any(|((ka, _), (kb, _))| ka != kb) {
                out.push(format!("{path}: object keys differ"));
                return;
            }
            for ((k, av), (_, bv)) in ao.iter().zip(bo) {
                diff_value(&format!("{path}.{k}"), av, bv, out);
            }
        }
        (Value::Array(aa), Value::Array(ba)) => {
            if aa.len() != ba.len() {
                out.push(format!("{path}: array length {} vs {}", aa.len(), ba.len()));
                return;
            }
            for (i, (av, bv)) in aa.iter().zip(ba).enumerate() {
                diff_value(&format!("{path}[{i}]"), av, bv, out);
            }
        }
        _ => {
            if a != b {
                out.push(format!("{path}: {a:?} vs {b:?}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> CheckpointConfig {
        CheckpointConfig {
            scenario: ConsolidationSpec::default(),
            epoch_ms: 50,
            epochs: 8,
            policy: Policy::VcrdAware,
            cooldown_epochs: 3,
            retry_cap: 3,
            audit_every: 1,
            model: MigrationModel::default(),
            faults: FaultPlan::empty(),
            churn: ChurnPlan::empty(),
            slot_reuse: false,
            series_capacity: 0,
            max_moves: 1,
        }
    }

    #[test]
    fn capture_value_round_trips_through_decode() {
        let mut c = small_config().build_cluster(1);
        for _ in 0..5 {
            c.run_epoch();
        }
        let ck = Checkpoint::capture(&c, small_config());
        let decoded = Checkpoint::from_value(&ck.to_value()).expect("decode");
        assert_eq!(decoded.state, ck.state);
        assert_eq!(decoded.hosts, ck.hosts);
        assert_eq!(decoded.digest, ck.digest);
        assert_eq!(decoded.config.to_value(), ck.config.to_value());
    }

    #[test]
    fn validate_passes_on_replay_and_names_a_corrupted_field() {
        let mut a = small_config().build_cluster(1);
        for _ in 0..5 {
            a.run_epoch();
        }
        let mut ck = Checkpoint::capture(&a, small_config());
        // An independent replay to the same epoch must validate clean.
        let mut b = small_config().build_cluster(2);
        for _ in 0..5 {
            b.run_epoch();
        }
        assert!(ck.validate(&b).is_empty(), "replay must reconverge");
        // Corrupt one field: validation must name it precisely.
        ck.state.vms[0].last_migration = Some(999);
        let errs = ck.validate(&b);
        assert!(
            errs.iter()
                .any(|e| e.contains("state.vms[0].last_migration")),
            "got {errs:?}"
        );
        // Corrupting the stored digest must flag too.
        ck.digest ^= 1;
        let errs = ck.validate(&b);
        assert!(
            errs.iter().any(|e| e.starts_with("digest:")),
            "digest must flag: {errs:?}"
        );
    }

    #[test]
    fn state_digest_tracks_epochs_and_matches_across_replays() {
        let mut a = small_config().build_cluster(1);
        let mut b = small_config().build_cluster(4);
        let mut last = a.state_digest();
        assert_eq!(last, b.state_digest(), "identical initial states");
        for _ in 0..4 {
            a.run_epoch();
            b.run_epoch();
            let d = a.state_digest();
            assert_eq!(d, b.state_digest(), "jobs must not perturb the digest");
            assert_ne!(d, last, "each epoch must move the digest");
            last = d;
        }
    }

    #[test]
    fn from_value_rejects_wrong_kind_and_version() {
        let c = small_config().build_cluster(1);
        let ck = Checkpoint::capture(&c, small_config());
        let mut v = ck.to_value();
        if let Value::Object(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "version" {
                    *val = Value::U64(CKPT_VERSION + 1);
                }
            }
        }
        let err = Checkpoint::from_value(&v).unwrap_err();
        assert!(err.contains("version"), "got {err}");
        let not_ckpt = Value::Object(vec![
            ("kind".to_string(), Value::Str("something".to_string())),
            ("version".to_string(), Value::U64(1)),
        ]);
        assert!(Checkpoint::from_value(&not_ckpt).is_err());
    }

    /// A version-1 artifact — `pending` null or a single object, no
    /// `config.max_moves` — must load in this build with identical
    /// semantics: an empty (or single-entry) chain set and a move
    /// budget of 1.
    #[test]
    fn version_one_artifacts_still_load() {
        let mut c = small_config().build_cluster(1);
        for _ in 0..3 {
            c.run_epoch();
        }
        let ck = Checkpoint::capture(&c, small_config());
        assert!(ck.state.pending.is_empty(), "clean run has no chains");
        let mut v = ck.to_value();
        if let Value::Object(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                match k.as_str() {
                    "version" => *val = Value::U64(1),
                    "state" => {
                        if let Value::Object(state) = val {
                            for (sk, sv) in state.iter_mut() {
                                if sk == "pending" {
                                    *sv = Value::Null;
                                }
                            }
                        }
                    }
                    "config" => {
                        if let Value::Object(cfg) = val {
                            cfg.retain(|(ck, _)| ck != "max_moves");
                        }
                    }
                    _ => {}
                }
            }
        }
        let back = Checkpoint::from_value(&v).expect("v1 artifact must decode");
        assert!(back.state.pending.is_empty());
        assert_eq!(back.config.max_moves, 1, "absent budget defaults to 1");
        assert_eq!(back.state, ck.state);
        // The single-object pending form decodes as a one-chain set.
        let one = PendingRetry {
            vm: 1,
            to: 2,
            due: 5,
            attempts: 1,
            span: 0,
        };
        if let Value::Object(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "state" {
                    if let Value::Object(state) = val {
                        for (sk, sv) in state.iter_mut() {
                            if sk == "pending" {
                                *sv = one.to_value();
                            }
                        }
                    }
                }
            }
        }
        let back = Checkpoint::from_value(&v).expect("v1 single-chain artifact must decode");
        assert_eq!(back.state.pending, vec![one]);
    }

    #[test]
    fn apply_overwrites_control_state_authoritatively() {
        let mut c = small_config().build_cluster(1);
        for _ in 0..3 {
            c.run_epoch();
        }
        let mut ck = Checkpoint::capture(&c, small_config());
        ck.state.arrivals_rejected = 7;
        ck.state.next_span = 41;
        ck.apply(&mut c);
        let s = c.checkpoint_state();
        assert_eq!(s.arrivals_rejected, 7);
        assert_eq!(s.next_span, 41);
    }
}
