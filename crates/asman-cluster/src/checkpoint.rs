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
//! and apply an assignment. Its encoding is derived (`Serialize` emits
//! fields in declaration order); the decoder is written by hand, so a
//! malformed artifact is refused with the path of the failing field
//! (`state.vms[3].last_migration: not null or an unsigned integer`).
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
use crate::churn::{ChurnEvent, ChurnKind, ChurnPlan, ShapeKind, VmShape};
use crate::migration::{AbortRecord, MigrationModel, MigrationRecord};
use crate::scenario::{consolidation_cluster, ConsolidationSpec};
use crate::{Cluster, ClusterConfig, HostHealth, PendingRetry, VmEntry, VmRow};
use asman_sim::{Cycles, FaultEvent, FaultKind, FaultPlan, Fnv};
use serde::{Serialize, Value};

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

    /// Decode the artifact's `config` section.
    pub fn from_value(v: &Value) -> Result<CheckpointConfig, String> {
        let p = "config";
        let policy_label = get_str(v, "policy", p)?;
        let policy = Policy::parse(policy_label)
            .ok_or_else(|| format!("{p}.policy: unknown policy '{policy_label}'"))?;
        let model_v = need(v, "model", p)?;
        let model = MigrationModel {
            base_pages: get_u64(model_v, "base_pages", "config.model")?,
            dirty_pages_per_mcycle: get_u64(model_v, "dirty_pages_per_mcycle", "config.model")?,
            copy_cycles_per_page: get_u64(model_v, "copy_cycles_per_page", "config.model")?,
            downtime_base: Cycles(get_u64(model_v, "downtime_base", "config.model")?),
        };
        Ok(CheckpointConfig {
            scenario: ConsolidationSpec {
                hosts: get_usize(v, "hosts", p)?,
                gangs: get_usize(v, "gangs", p)?,
                pcpus: get_usize(v, "pcpus", p)?,
                seed: get_u64(v, "seed", p)?,
            },
            epoch_ms: get_u64(v, "epoch_ms", p)?,
            epochs: get_u64(v, "epochs", p)?,
            policy,
            cooldown_epochs: get_u64(v, "cooldown_epochs", p)?,
            retry_cap: get_u32(v, "retry_cap", p)?,
            audit_every: get_u64(v, "audit_every", p)?,
            model,
            faults: decode_fault_plan(need(v, "faults", p)?)?,
            churn: decode_churn_plan(need(v, "churn", p)?)?,
            slot_reuse: get_bool(v, "slot_reuse", p)?,
            series_capacity: get_usize(v, "series_capacity", p)?,
            // Absent in version-1 artifacts, which ran the historical
            // single-slot driver: default to a budget of 1.
            max_moves: match v.get("max_moves") {
                Some(_) => get_usize(v, "max_moves", p)?,
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
    /// Decode the artifact's `state` section.
    pub fn from_value(v: &Value) -> Result<ClusterState, String> {
        let p = "state";
        let health_v = need(v, "health", p)?
            .as_array()
            .ok_or_else(|| format!("{p}.health: not an array"))?;
        let health = health_v
            .iter()
            .enumerate()
            .map(|(i, h)| decode_health(h, &format!("{p}.health[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        let vms_v = need(v, "vms", p)?
            .as_array()
            .ok_or_else(|| format!("{p}.vms: not an array"))?;
        let vms = vms_v
            .iter()
            .enumerate()
            .map(|(i, e)| decode_vm_entry(e, &format!("{p}.vms[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        let pending_v = need(v, "pending", p)?;
        let pending = match pending_v {
            // Version 1: no chain backing off.
            Value::Null => Vec::new(),
            // Version 2: the ordered chain set.
            Value::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, x)| decode_pending(x, &format!("{p}.pending[{i}]")))
                .collect::<Result<Vec<_>, _>>()?,
            // Version 1: the single chain object.
            _ => vec![decode_pending(pending_v, &format!("{p}.pending"))?],
        };
        Ok(ClusterState {
            epoch: get_u64(v, "epoch", p)?,
            health,
            vms,
            pending,
            records: decode_migration_records(need(v, "records", p)?, "state.records")?,
            aborts: decode_abort_records(need(v, "aborts", p)?, "state.aborts")?,
            evacuations: decode_migration_records(need(v, "evacuations", p)?, "state.evacuations")?,
            retries_committed: get_u64(v, "retries_committed", p)?,
            retries_abandoned: get_u64(v, "retries_abandoned", p)?,
            gave_up: get_u64(v, "gave_up", p)?,
            arrivals: get_u64(v, "arrivals", p)?,
            departures: get_u64(v, "departures", p)?,
            arrivals_rejected: get_u64(v, "arrivals_rejected", p)?,
            departures_skipped: get_u64(v, "departures_skipped", p)?,
            departed_finished: get_u64(v, "departed_finished", p)?,
            next_span: get_u32(v, "next_span", p)?,
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

    /// Decode an artifact, rejecting wrong kinds and versions.
    pub fn from_value(v: &Value) -> Result<Checkpoint, String> {
        let kind = get_str(v, "kind", "checkpoint")?;
        if kind != CKPT_KIND {
            return Err(format!(
                "checkpoint.kind: '{kind}' is not a checkpoint (expected '{CKPT_KIND}')"
            ));
        }
        let version = get_u64(v, "version", "checkpoint")?;
        if !(1..=CKPT_VERSION).contains(&version) {
            return Err(format!(
                "checkpoint.version: {version} unsupported (this build reads versions 1..={CKPT_VERSION})"
            ));
        }
        let config = CheckpointConfig::from_value(need(v, "config", "checkpoint")?)?;
        let state = ClusterState::from_value(need(v, "state", "checkpoint")?)?;
        let epoch = get_u64(v, "epoch", "checkpoint")?;
        if epoch != state.epoch {
            return Err(format!(
                "checkpoint.epoch: {epoch} disagrees with state.epoch {}",
                state.epoch
            ));
        }
        let hosts_v = need(v, "hosts", "checkpoint")?
            .as_array()
            .ok_or_else(|| "checkpoint.hosts: not an array".to_string())?;
        let hosts = hosts_v
            .iter()
            .enumerate()
            .map(|(i, f)| {
                f.as_u64()
                    .ok_or_else(|| format!("checkpoint.hosts[{i}]: not an unsigned integer"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Checkpoint {
            config,
            state,
            hosts,
            digest: get_u64(v, "digest", "checkpoint")?,
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

// ---- decoding helpers ------------------------------------------------

fn need<'a>(v: &'a Value, key: &str, path: &str) -> Result<&'a Value, String> {
    v.get(key)
        .ok_or_else(|| format!("{path}: missing field '{key}'"))
}

fn get_u64(v: &Value, key: &str, path: &str) -> Result<u64, String> {
    need(v, key, path)?
        .as_u64()
        .ok_or_else(|| format!("{path}.{key}: not an unsigned integer"))
}

fn get_u32(v: &Value, key: &str, path: &str) -> Result<u32, String> {
    u32::try_from(get_u64(v, key, path)?).map_err(|_| format!("{path}.{key}: does not fit in u32"))
}

fn get_usize(v: &Value, key: &str, path: &str) -> Result<usize, String> {
    usize::try_from(get_u64(v, key, path)?)
        .map_err(|_| format!("{path}.{key}: does not fit in usize"))
}

fn get_bool(v: &Value, key: &str, path: &str) -> Result<bool, String> {
    need(v, key, path)?
        .as_bool()
        .ok_or_else(|| format!("{path}.{key}: not a boolean"))
}

fn get_str<'a>(v: &'a Value, key: &str, path: &str) -> Result<&'a str, String> {
    need(v, key, path)?
        .as_str()
        .ok_or_else(|| format!("{path}.{key}: not a string"))
}

fn get_opt_u64(v: &Value, key: &str, path: &str) -> Result<Option<u64>, String> {
    let f = need(v, key, path)?;
    if f.is_null() {
        return Ok(None);
    }
    f.as_u64()
        .map(Some)
        .ok_or_else(|| format!("{path}.{key}: not null or an unsigned integer"))
}

/// Decode an enum encoded the way the vendored serde derive emits it:
/// unit variants as `"Name"`, struct variants as `{"Name": {...}}`.
fn variant<'a>(v: &'a Value, path: &str) -> Result<(&'a str, Option<&'a Value>), String> {
    if let Some(s) = v.as_str() {
        return Ok((s, None));
    }
    if let Some([(name, payload)]) = v.as_object() {
        return Ok((name, Some(payload)));
    }
    Err(format!("{path}: not an enum variant"))
}

fn decode_health(v: &Value, path: &str) -> Result<HostHealth, String> {
    match variant(v, path)? {
        ("Healthy", None) => Ok(HostHealth::Healthy),
        ("Crashed", None) => Ok(HostHealth::Crashed),
        ("Degraded", Some(p)) => Ok(HostHealth::Degraded {
            pct: get_u32(p, "pct", path)?,
        }),
        (other, _) => Err(format!("{path}: unknown host health '{other}'")),
    }
}

fn decode_fault_plan(v: &Value) -> Result<FaultPlan, String> {
    let events_v = need(v, "events", "config.faults")?
        .as_array()
        .ok_or_else(|| "config.faults.events: not an array".to_string())?;
    let mut events = Vec::with_capacity(events_v.len());
    for (i, e) in events_v.iter().enumerate() {
        let path = format!("config.faults.events[{i}]");
        let kind = match variant(need(e, "kind", &path)?, &path)? {
            ("Abort", None) => FaultKind::Abort,
            ("Crash", Some(p)) => FaultKind::Crash {
                host: get_usize(p, "host", &path)?,
            },
            ("Slow", Some(p)) => FaultKind::Slow {
                host: get_usize(p, "host", &path)?,
                derate_pct: get_u32(p, "derate_pct", &path)?,
            },
            (other, _) => return Err(format!("{path}: unknown fault kind '{other}'")),
        };
        events.push(FaultEvent {
            epoch: get_u64(e, "epoch", &path)?,
            kind,
        });
    }
    Ok(FaultPlan { events })
}

fn decode_churn_plan(v: &Value) -> Result<ChurnPlan, String> {
    let events_v = need(v, "events", "config.churn")?
        .as_array()
        .ok_or_else(|| "config.churn.events: not an array".to_string())?;
    let mut events = Vec::with_capacity(events_v.len());
    for (i, e) in events_v.iter().enumerate() {
        let path = format!("config.churn.events[{i}]");
        let kind = match variant(need(e, "kind", &path)?, &path)? {
            ("Arrive", Some(p)) => {
                let shape_v = need(p, "shape", &path)?;
                let kind = match variant(need(shape_v, "kind", &path)?, &path)? {
                    ("Gang", None) => ShapeKind::Gang,
                    ("Background", None) => ShapeKind::Background,
                    (other, _) => return Err(format!("{path}: unknown shape kind '{other}'")),
                };
                ChurnKind::Arrive {
                    shape: VmShape {
                        kind,
                        vcpus: get_usize(shape_v, "vcpus", &path)?,
                        weight: get_u32(shape_v, "weight", &path)?,
                    },
                }
            }
            ("Depart", Some(p)) => ChurnKind::Depart {
                host: get_usize(p, "host", &path)?,
                slot: get_usize(p, "slot", &path)?,
            },
            (other, _) => return Err(format!("{path}: unknown churn kind '{other}'")),
        };
        events.push(ChurnEvent {
            epoch: get_u64(e, "epoch", &path)?,
            kind,
        });
    }
    Ok(ChurnPlan { events })
}

fn decode_migration_records(v: &Value, path: &str) -> Result<Vec<MigrationRecord>, String> {
    let arr = v
        .as_array()
        .ok_or_else(|| format!("{path}: not an array"))?;
    arr.iter()
        .enumerate()
        .map(|(i, r)| {
            let p = format!("{path}[{i}]");
            Ok(MigrationRecord {
                epoch: get_u64(r, "epoch", &p)?,
                vm: get_usize(r, "vm", &p)?,
                name: get_str(r, "name", &p)?.to_string(),
                from: get_usize(r, "from", &p)?,
                to: get_usize(r, "to", &p)?,
                online_delta: get_u64(r, "online_delta", &p)?,
                dirty_pages: get_u64(r, "dirty_pages", &p)?,
                pause: get_u64(r, "pause", &p)?,
            })
        })
        .collect()
}

fn decode_abort_records(v: &Value, path: &str) -> Result<Vec<AbortRecord>, String> {
    let arr = v
        .as_array()
        .ok_or_else(|| format!("{path}: not an array"))?;
    arr.iter()
        .enumerate()
        .map(|(i, r)| {
            let p = format!("{path}[{i}]");
            Ok(AbortRecord {
                epoch: get_u64(r, "epoch", &p)?,
                vm: get_usize(r, "vm", &p)?,
                name: get_str(r, "name", &p)?.to_string(),
                from: get_usize(r, "from", &p)?,
                to: get_usize(r, "to", &p)?,
                attempt: get_u32(r, "attempt", &p)?,
                online_delta: get_u64(r, "online_delta", &p)?,
                dirty_pages: get_u64(r, "dirty_pages", &p)?,
                penalty: get_u64(r, "penalty", &p)?,
            })
        })
        .collect()
}

fn decode_vm_row(v: &Value, path: &str) -> Result<VmRow, String> {
    Ok(VmRow {
        name: get_str(v, "name", path)?.to_string(),
        host: get_usize(v, "host", path)?,
        vcpus: get_usize(v, "vcpus", path)?,
        migrations: get_u64(v, "migrations", path)?,
        spin_cycles: get_u64(v, "spin_cycles", path)?,
        useful_cycles: get_u64(v, "useful_cycles", path)?,
        vcrd_high_cycles: get_u64(v, "vcrd_high_cycles", path)?,
        online_cycles: get_u64(v, "online_cycles", path)?,
    })
}

fn decode_vm_entry(v: &Value, path: &str) -> Result<VmEntry, String> {
    let final_row_v = need(v, "final_row", path)?;
    let final_row = if final_row_v.is_null() {
        None
    } else {
        Some(decode_vm_row(final_row_v, &format!("{path}.final_row"))?)
    };
    Ok(VmEntry {
        name: get_str(v, "name", path)?.to_string(),
        host: get_usize(v, "host", path)?,
        local: get_usize(v, "local", path)?,
        vcpus: get_usize(v, "vcpus", path)?,
        last_migration: get_opt_u64(v, "last_migration", path)?,
        migrations: get_u64(v, "migrations", path)?,
        prev_spin: get_u64(v, "prev_spin", path)?,
        prev_vcrd_high: get_u64(v, "prev_vcrd_high", path)?,
        prev_online: get_u64(v, "prev_online", path)?,
        spin_delta: get_u64(v, "spin_delta", path)?,
        vcrd_high_delta: get_u64(v, "vcrd_high_delta", path)?,
        online_delta: get_u64(v, "online_delta", path)?,
        attempts: get_u32(v, "attempts", path)?,
        gave_up: get_bool(v, "gave_up", path)?,
        departed: get_bool(v, "departed", path)?,
        final_row,
    })
}

fn decode_pending(v: &Value, path: &str) -> Result<PendingRetry, String> {
    Ok(PendingRetry {
        vm: get_usize(v, "vm", path)?,
        to: get_usize(v, "to", path)?,
        due: get_u64(v, "due", path)?,
        attempts: get_u32(v, "attempts", path)?,
        span: get_u32(v, "span", path)?,
    })
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
