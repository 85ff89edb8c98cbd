//! Cluster-level behavior tests: the consolidation experiment's shape,
//! conservation and determinism invariants, and a randomized fuzz
//! smoke over heterogeneous clusters.

use asman_cluster::{
    scenario::{self, ConsolidationSpec},
    ChurnPlan, Cluster, ClusterConfig, ClusterReport, HostHealth, Policy,
};
use asman_sim::FaultPlan;

fn run_policy(policy: Policy, spec: &ConsolidationSpec, epochs: u64) -> ClusterReport {
    let cfg = ClusterConfig {
        policy,
        epochs,
        epoch_ms: 50,
        cooldown_epochs: 3,
        ..ClusterConfig::default()
    };
    scenario::consolidation_cluster(cfg, spec).run()
}

#[test]
fn vcrd_aware_migrates_a_gang_and_recovers_wasted_spin() {
    let spec = ConsolidationSpec::default();
    let stat = run_policy(Policy::Static, &spec, 8);
    let aware = run_policy(Policy::VcrdAware, &spec, 8);

    assert!(stat.migrations.is_empty(), "static must never migrate");
    assert!(
        !aware.migrations.is_empty(),
        "vcrd-aware must move a gang off the consolidated host"
    );
    assert!(
        aware.migrations[0].name.starts_with("gang"),
        "vcrd-aware must move a gang, moved {}",
        aware.migrations[0].name
    );
    // The headline claim: telemetry-driven placement recovers wasted
    // spin that static placement cannot.
    assert!(
        aware.total_spin_cycles < stat.total_spin_cycles,
        "vcrd-aware spin {} must be below static spin {}",
        aware.total_spin_cycles,
        stat.total_spin_cycles
    );
}

#[test]
fn least_loaded_moves_by_size_not_by_spin() {
    let spec = ConsolidationSpec::default();
    let ll = run_policy(Policy::LeastLoaded, &spec, 8);
    assert!(
        !ll.migrations.is_empty(),
        "the consolidated host is the most loaded; least-loaded must react"
    );
    // Host 0 holds two 3-VCPU gangs and the 4-VCPU background VM; the
    // VCPU-count policy picks the biggest VM, which is the quiet one.
    assert_eq!(
        ll.migrations[0].name, "bg0",
        "least-loaded should move the big background VM, not a gang"
    );
}

#[test]
fn same_seed_reruns_are_bit_identical() {
    let spec = ConsolidationSpec::default();
    let a = run_policy(Policy::VcrdAware, &spec, 6);
    let b = run_policy(Policy::VcrdAware, &spec, 6);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "cluster runs must be deterministic for a fixed seed"
    );
    let c = run_policy(
        Policy::VcrdAware,
        &ConsolidationSpec { seed: 43, ..spec },
        6,
    );
    assert_ne!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&c).unwrap(),
        "a different seed must perturb the run"
    );
}

#[test]
fn migration_counters_and_placement_agree() {
    let spec = ConsolidationSpec::default();
    let cfg = ClusterConfig {
        policy: Policy::VcrdAware,
        epochs: 8,
        epoch_ms: 50,
        ..ClusterConfig::default()
    };
    let mut cluster = scenario::consolidation_cluster(cfg, &spec);
    let report = cluster.run();
    // VM conservation: every registered VM has exactly one live home.
    let total_vms: usize = report.host_rows.iter().map(|h| h.vms.len()).sum();
    assert_eq!(total_vms, report.vm_rows.len());
    assert_eq!(cluster.vm_count(), report.vm_rows.len());
    // Each VM's migration count matches the record log.
    for (id, row) in report.vm_rows.iter().enumerate() {
        let moves = report.migrations.iter().filter(|r| r.vm == id).count() as u64;
        assert_eq!(row.migrations, moves, "vm {} migration count", row.name);
        if let Some(last) = report.migrations.iter().rfind(|r| r.vm == id) {
            assert_eq!(
                row.host, last.to,
                "vm {} must live where it last moved",
                row.name
            );
        }
    }
    // Pause totals re-derive from the records.
    let pause: u64 = report.migrations.iter().map(|r| r.pause).sum();
    assert_eq!(report.total_pause_cycles, pause);
}

#[test]
fn fuzz_smoke_random_clusters_conserve_vms() {
    // Random host/VM/policy/seed tuples; short epochs. The assertion is
    // mostly "nothing panics" — the cluster auditor runs every epoch —
    // plus explicit VM-count conservation.
    let mut ran = 0;
    for seed in [7u64, 1337, 0xDEAD_BEEF] {
        let hosts = 2 + (seed % 3) as usize;
        let vms = 3 + (seed % 5) as usize;
        for policy in Policy::ALL {
            let cfg = ClusterConfig {
                policy,
                epochs: 3,
                epoch_ms: 20,
                cooldown_epochs: 1,
                ..ClusterConfig::default()
            };
            let mut cluster = Cluster::new(cfg, scenario::random_mix(hosts, vms, seed));
            let before = cluster.vm_count();
            let report = cluster.run();
            assert_eq!(cluster.vm_count(), before);
            let resident: usize = report.host_rows.iter().map(|h| h.vms.len()).sum();
            assert_eq!(resident, before, "placement lost or duplicated a VM");
            ran += 1;
        }
    }
    assert_eq!(ran, 9);
}

fn faulted_cfg(faults: &str) -> ClusterConfig {
    let faults = if faults.is_empty() {
        FaultPlan::empty()
    } else {
        FaultPlan::parse(faults).unwrap()
    };
    ClusterConfig {
        policy: Policy::VcrdAware,
        epochs: 8,
        epoch_ms: 50,
        faults,
        ..ClusterConfig::default()
    }
}

#[test]
fn aborted_migration_rolls_back_and_commits_on_retry() {
    let spec = ConsolidationSpec::default();
    let clean = scenario::consolidation_cluster(faulted_cfg(""), &spec).run();
    let mut cluster = scenario::consolidation_cluster(faulted_cfg("abort@0"), &spec);
    let report = cluster.run();
    let rec = report
        .recovery
        .as_ref()
        .expect("faulted run reports recovery");

    assert_eq!(
        rec.aborts.len(),
        1,
        "abort@0 fails exactly the first attempt"
    );
    let a = &rec.aborts[0];
    assert_eq!((a.epoch, a.attempt), (0, 1));
    assert_eq!(rec.retries_committed, 1, "the retry chain must commit");
    // The retry commits one epoch later, to the destination the
    // original decision picked; the abort charged half a pause.
    let m = &report.migrations[0];
    assert_eq!((m.vm, m.from, m.to), (a.vm, a.from, a.to));
    assert_eq!(m.epoch, a.epoch + 1);
    assert!(a.penalty > 0 && a.penalty < m.pause);
    // The clean twin moved the same VM at epoch 0 — the fault only
    // delayed it, it never redirected the balancer.
    assert_eq!(clean.migrations[0].vm, m.vm);
    // Rollback left every VM with exactly one live home.
    let resident: usize = report.host_rows.iter().map(|h| h.vms.len()).sum();
    assert_eq!(resident, report.vm_rows.len());
}

#[test]
fn exhausted_retry_chain_gives_up_and_bars_the_vm() {
    // Abort every epoch: attempt 1 at epoch 0, retry at 1, retry at 3
    // (backoff 1 then 2) all fail, and the cap of 3 ends the chain.
    let cfg = faulted_cfg("abort@0,abort@1,abort@2,abort@3,abort@4,abort@5,abort@6,abort@7");
    let mut cluster = scenario::consolidation_cluster(cfg, &ConsolidationSpec::default());
    let report = cluster.run();
    let rec = report.recovery.as_ref().unwrap();
    assert!(rec.gave_up >= 1, "the chain must exhaust its attempt cap");
    let aborted_vm = rec.aborts[0].vm;
    assert_eq!(
        rec.aborts.iter().filter(|a| a.vm == aborted_vm).count(),
        3,
        "retry cap bounds the attempts"
    );
    assert!(
        report.migrations.iter().all(|m| m.vm != aborted_vm),
        "a gave-up VM must never migrate again"
    );
    let resident: usize = report.host_rows.iter().map(|h| h.vms.len()).sum();
    assert_eq!(
        resident,
        report.vm_rows.len(),
        "every rollback conserved the VM"
    );
}

#[test]
fn crashed_host_is_evacuated_with_every_vm_conserved() {
    let spec = ConsolidationSpec::default();
    let mut cluster = scenario::consolidation_cluster(faulted_cfg("crash@4:h1"), &spec);
    let before = cluster.vm_count();
    let report = cluster.run();
    let rec = report.recovery.as_ref().unwrap();

    assert_eq!(cluster.host_health()[1], HostHealth::Crashed);
    assert!(
        !rec.evacuations.is_empty(),
        "host 1 held VMs; they must move"
    );
    assert!(rec.evacuations.iter().all(|e| e.from == 1));
    // Nothing lives on the crashed host, and nothing was lost: the
    // host rows of live hosts cover the whole registry.
    assert!(report.vm_rows.iter().all(|v| v.host != 1));
    assert!(report.host_rows[1].vms.is_empty());
    let resident: usize = report.host_rows.iter().map(|h| h.vms.len()).sum();
    assert_eq!(resident, before);
    // Evacuation dead time is accounted in the recovery block (it is
    // deliberately kept out of `total_pause_cycles`, which covers
    // balancer-chosen moves only).
    let evac_pause: u64 = rec.evacuations.iter().map(|e| e.pause).sum();
    assert_eq!(rec.total_evacuation_pause_cycles, evac_pause);
    assert!(evac_pause > 0);
}

#[test]
fn degraded_hosts_stop_admitting_but_keep_their_vms() {
    let spec = ConsolidationSpec::default();
    let mut cluster = scenario::consolidation_cluster(faulted_cfg("slow@1:h1:50"), &spec);
    let report = cluster.run();
    assert_eq!(cluster.host_health()[1], HostHealth::Degraded { pct: 50 });
    // Admission control: no migration after the derate targets host 1.
    assert!(
        report.migrations.iter().all(|m| m.epoch < 1 || m.to != 1),
        "a degraded host must not admit new VMs"
    );
    // Its resident VMs stay — degradation is not a crash.
    assert!(report.vm_rows.iter().any(|v| v.host == 1));
}

#[test]
fn faulted_reruns_are_bit_identical() {
    let spec = ConsolidationSpec::default();
    let run = |faults: &str| {
        serde_json::to_string(&scenario::consolidation_cluster(faulted_cfg(faults), &spec).run())
            .unwrap()
    };
    let plan = "abort@0,slow@2:h2:30,crash@4:h1";
    assert_eq!(run(plan), run(plan), "faulted runs must be deterministic");
    assert_ne!(run(plan), run("abort@0"), "the plan must matter");
}

/// Reverting the dirty-page accounting guard (here: arming the
/// equivalent injected fault) must trip the cluster auditor.
#[cfg(feature = "audit")]
#[test]
#[should_panic(expected = "migration dirty pages not conserved")]
fn dirty_undercount_fault_is_caught_by_the_auditor() {
    let cfg = ClusterConfig {
        policy: Policy::VcrdAware,
        epochs: 8,
        epoch_ms: 50,
        ..ClusterConfig::default()
    };
    let mut cluster = scenario::consolidation_cluster(cfg, &ConsolidationSpec::default());
    cluster.audit_inject_dirty_undercount();
    cluster.run();
}

/// A rollback that forgets to clear the source tombstone leaves the
/// registry pointing at an evacuated slot; the auditor must say so.
#[cfg(feature = "audit")]
#[test]
#[should_panic(expected = "points at a tombstone")]
fn sticky_tombstone_fault_is_caught_by_the_auditor() {
    let mut cluster =
        scenario::consolidation_cluster(faulted_cfg("abort@0"), &ConsolidationSpec::default());
    cluster.audit_inject_sticky_tombstone();
    cluster.run();
}

// ---------------------------------------------------------------------
// Churn: deterministic VM arrival/departure at epoch boundaries.
// ---------------------------------------------------------------------

fn churned_cfg(policy: Policy, plan: &str, epochs: u64) -> ClusterConfig {
    ClusterConfig {
        policy,
        epochs,
        epoch_ms: 50,
        churn: ChurnPlan::parse(plan).unwrap(),
        ..ClusterConfig::default()
    }
}

#[test]
fn churn_arrivals_and_departures_update_the_population() {
    let spec = ConsolidationSpec::default();
    let mut cluster = scenario::consolidation_cluster(
        churned_cfg(
            Policy::VcrdAware,
            "arrive@2:gang2,arrive@3:bg1:w100,depart@5:h0:v0",
            8,
        ),
        &spec,
    );
    let initial = cluster.vm_count();
    let report = cluster.run();
    let churn = report.churn.as_ref().expect("churned run reports churn");
    assert_eq!(churn.arrivals, 2);
    assert_eq!(churn.departures, 1);
    assert_eq!(churn.arrivals_rejected, 0);
    assert_eq!(churn.departures_skipped, 0);
    // Conservation: arrivals - departures == resident growth.
    assert_eq!(
        churn.resident_end as usize,
        initial + 2 - 1,
        "resident population must track arrivals minus departures"
    );
    // The registry keeps a frozen row for the departed VM and live rows
    // for the arrivals.
    assert_eq!(report.vm_rows.len(), initial + 2);
    assert!(report.vm_rows.iter().any(|r| r.name == "gang-c0"));
    assert!(report.vm_rows.iter().any(|r| r.name == "bg-c1"));
    // Exactly one registry row is absent from every host's resident
    // list: the departed VM. (Which VM `v0` picks depends on how the
    // balancer reshaped host 0 by epoch 5, so identify it by absence.)
    let resident_names: Vec<&String> = report.host_rows.iter().flat_map(|h| h.vms.iter()).collect();
    let departed: Vec<_> = report
        .vm_rows
        .iter()
        .filter(|r| !resident_names.contains(&&r.name))
        .collect();
    assert_eq!(departed.len(), 1, "exactly one VM departed");
    // Departed rows carry real (frozen) accounting, not zeros.
    assert!(departed[0].online_cycles > 0);
    // Host rows and registry agree on the resident set.
    let resident: usize = report.host_rows.iter().map(|h| h.vms.len()).sum();
    assert_eq!(resident, churn.resident_end as usize);
}

#[test]
fn departure_abandons_the_pending_migration_chain() {
    let spec = ConsolidationSpec::default();
    // First find which VM the balancer moves (and aborts) at epoch 0.
    let probe = scenario::consolidation_cluster(faulted_cfg("abort@0"), &spec).run();
    let victim = probe.recovery.as_ref().unwrap().aborts[0].vm;
    assert!(victim < 3, "the mover lives on host 0");
    // Now rerun, but depart the victim at epoch 1 — exactly when its
    // retry chain comes due. Churn runs before chain revalidation in
    // the barrier, so the departure must abandon the chain.
    let cfg = ClusterConfig {
        churn: ChurnPlan::parse(&format!("depart@1:h0:v{victim}")).unwrap(),
        ..faulted_cfg("abort@0")
    };
    let mut cluster = scenario::consolidation_cluster(cfg, &spec);
    let report = cluster.run();
    let rec = report.recovery.as_ref().unwrap();
    assert_eq!(rec.retries_abandoned, 1, "the chain must be abandoned");
    assert_eq!(rec.retries_committed, 0);
    assert!(
        report.migrations.iter().all(|m| m.vm != victim),
        "a departed VM must never commit a migration"
    );
    assert_eq!(report.churn.as_ref().unwrap().departures, 1);
}

#[test]
fn departing_an_empty_host_is_skipped_and_counted() {
    let spec = ConsolidationSpec::default();
    // Depart host 1's only VM at epoch 1, then ask host 1 for another
    // departure at epoch 2: nothing lives there, so it is skipped.
    // Static policy: no balancer migration can repopulate host 1
    // between the two departures.
    let mut cluster = scenario::consolidation_cluster(
        churned_cfg(Policy::Static, "depart@1:h1:v0,depart@2:h1:v0", 4),
        &spec,
    );
    let report = cluster.run();
    let churn = report.churn.as_ref().unwrap();
    assert_eq!(churn.departures, 1);
    assert_eq!(churn.departures_skipped, 1);
    assert!(report.host_rows[1].vms.is_empty());
}

#[test]
fn churned_runs_are_bit_identical_across_jobs_and_reruns() {
    let spec = ConsolidationSpec::default();
    let run = |jobs: usize| {
        let cfg = ClusterConfig {
            jobs,
            faults: FaultPlan::parse("abort@2,slow@3:h2:30").unwrap(),
            churn: ChurnPlan::generate(42, 25, 10, spec.hosts),
            policy: Policy::VcrdAware,
            epochs: 10,
            epoch_ms: 50,
            ..ClusterConfig::default()
        };
        let mut cluster = scenario::consolidation_cluster(cfg, &spec);
        cluster.enable_slot_reuse();
        serde_json::to_string(&cluster.run()).unwrap()
    };
    let a = run(1);
    assert_eq!(a, run(4), "churned runs must not depend on worker count");
    assert_eq!(a, run(1), "churned runs must be deterministic");
}

#[test]
fn slot_reuse_bounds_slot_growth_under_sustained_churn() {
    let spec = ConsolidationSpec::default();
    // Three arrive/depart cycles of the same 2-VCPU background shape.
    // Arrivals land on host 1 (least loaded, lowest index at ties); the
    // departure token picks them back off in id order.
    let plan =
        "arrive@1:bg2,depart@2:h1:v1,arrive@3:bg2,depart@4:h1:v1,arrive@5:bg2,depart@6:h1:v1";
    // Static policy keeps placement deterministic: every bg2 arrival
    // lands on host 1 (fewest resident VCPUs, lowest index at ties), so
    // the `v1` departure token always picks the arrival back off.
    let run = |reuse: bool| {
        let mut cluster =
            scenario::consolidation_cluster(churned_cfg(Policy::Static, plan, 8), &spec);
        let initial = cluster.occupancy().slots;
        if reuse {
            cluster.enable_slot_reuse();
        }
        cluster.run();
        (initial, cluster.occupancy())
    };
    let (initial, with_reuse) = run(true);
    let (_, without) = run(false);
    assert_eq!(
        with_reuse.slots,
        initial + 1,
        "reuse must recycle the tombstone instead of appending"
    );
    assert_eq!(
        without.slots,
        initial + 3,
        "without reuse every arrival appends"
    );
    assert!(with_reuse.tombstones <= 1);
    assert_eq!(
        with_reuse.resident, initial,
        "population returns to baseline"
    );
    // The registry itself grows with total arrivals by design — that is
    // bounded by the churn plan, not the horizon.
    assert_eq!(with_reuse.registry, initial + 3);
}

/// The hotspot scenario (`hosts/4` hosts start with two gangs each)
/// under one move budget, at 5 ms epochs for `hosts/4 + 8` epochs:
/// the settle epoch (the last migration's epoch + 1), the migrations
/// committed, and the final cluster for the worker-count check.
fn converge(hosts: usize, max_moves: usize, jobs: usize) -> (u64, usize, Cluster, ClusterReport) {
    let cfg = ClusterConfig {
        policy: Policy::VcrdAware,
        epochs: hosts as u64 / 4 + 8,
        epoch_ms: 5,
        jobs,
        max_moves,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg, scenario::hotspot(hosts, 42));
    let report = cluster.run();
    let settled = report
        .migrations
        .iter()
        .map(|m| m.epoch + 1)
        .max()
        .unwrap_or(0);
    (settled, report.migrations.len(), cluster, report)
}

/// Pin `(settle@1, moves@1, settle@K, moves@K)` for budget K = hosts/8,
/// and require the budget-K run to be the same under 1 and 4 workers.
fn assert_convergence(hosts: usize, pinned: (u64, usize, u64, usize)) {
    let budget = hosts / 8;
    let (settle1, moves1, ..) = converge(hosts, 1, 1);
    let (settle, moves, seq, seq_report) = converge(hosts, budget, 1);
    assert_eq!(
        (settle1, moves1, settle, moves),
        pinned,
        "hosts={hosts} budget={budget}"
    );
    let (.., par, par_report) = converge(hosts, budget, 4);
    assert_eq!(
        seq.state_digest(),
        par.state_digest(),
        "hosts={hosts}: digest depends on jobs"
    );
    assert_eq!(
        seq_report.migrations, par_report.migrations,
        "hosts={hosts}: moves depend on jobs"
    );
}

#[test]
fn move_budget_settles_the_hotspot_in_pinned_epochs() {
    assert_convergence(16, (10, 4, 8, 4));
    assert_convergence(64, (21, 15, 14, 16));
    assert_convergence(128, (35, 29, 34, 34));
}

#[test]
#[ignore = "slow in a debug build; CI runs it with --release -- --ignored"]
fn move_budget_settles_the_256_host_hotspot_in_pinned_epochs() {
    assert_convergence(256, (70, 64, 67, 67));
}

/// Arming the series ring, the scheduler-latency histograms and the
/// epoch profile must not change a run (DESIGN §15): the report JSON,
/// the serial control state and every host's event count match the
/// telemetry-off run under 1 and 4 workers, clean, faulted and on the
/// uniform scenario. The state digest also folds the spin-episode
/// histogram that sched-latency arms in each guest (checkpoint replay
/// validates it), so it is compared across worker counts rather than on
/// against off. The profile holds one row per epoch whose stall is the
/// worker time the parallel phase left idle.
#[test]
fn telemetry_leaves_runs_unchanged_across_jobs() {
    let spec = ConsolidationSpec::default();
    for (setup, faults) in [
        ("clean", ""),
        ("faulted", "abort@0,slow@2:h2:30,crash@4:h1"),
        ("uniform", ""),
    ] {
        let run = |jobs: usize, telemetry| {
            let hosts = match setup {
                "uniform" => scenario::uniform(8, 42),
                _ => scenario::consolidation(&spec),
            };
            let mut cluster = Cluster::new(
                ClusterConfig {
                    jobs,
                    ..faulted_cfg(faults)
                },
                hosts,
            );
            if telemetry {
                cluster.enable_series(8);
                cluster.enable_sched_latency();
                cluster.enable_profiling();
            }
            let report = serde_json::to_string(&cluster.run()).unwrap();
            let profile = cluster.profile();
            assert_eq!(
                profile.len(),
                if telemetry { 8 } else { 0 },
                "{setup}: profile rows"
            );
            for (i, e) in profile.iter().enumerate() {
                assert_eq!(e.epoch, i as u64);
                let idle = (jobs as u64 * e.parallel_wall_ns).saturating_sub(e.worker_busy_ns);
                assert_eq!(e.barrier_stall_ns, idle, "{setup}: epoch {i} stall");
            }
            let events: Vec<u64> = cluster
                .hosts()
                .iter()
                .map(|m| m.events_processed())
                .collect();
            (
                (report, cluster.checkpoint_state(), events),
                cluster.state_digest(),
            )
        };
        let (off, _) = run(1, false);
        for telemetry in [false, true] {
            let (seq, seq_digest) = run(1, telemetry);
            let (par, par_digest) = run(4, telemetry);
            assert!(
                seq == off && par == off,
                "{setup}: telemetry {telemetry} changed the run"
            );
            assert_eq!(
                seq_digest, par_digest,
                "{setup}: telemetry {telemetry}, jobs 1 vs 4"
            );
        }
    }
}
