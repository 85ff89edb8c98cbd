//! Flight-recorder exporters and the `repro trace` driver.
//!
//! Takes the merged cross-layer event stream of a traced [`Machine`]
//! and turns it into run artifacts:
//!
//! * **Chrome trace-event JSON** (`trace_<sched>.json`) — loadable in
//!   [Perfetto](https://ui.perfetto.dev). One track per PCPU (what ran
//!   on it, as complete spans), one VMM-side track per VCPU (wake,
//!   steal, migrate, park and credit instants), one track per guest
//!   thread (spin and hold spans, futex/barrier instants), and one
//!   track per lock showing detected lock-holder-preemption episodes.
//! * **LHP episodes** (`lhp_<sched>.json`) — the
//!   [`LhpSummary`] of [`detect_lhp`] over the merged stream.
//! * **Metrics** (`metrics_<sched>.json`) — the run's
//!   [`MetricsRegistry`] dump.
//! * **Text summary** (`summary_<sched>.txt`, also printed) — per
//!   category seen/retained/dropped counts and the worst LHP episodes.
//!
//! Everything here is deterministic: the event stream is merged with a
//! stable sort inside the machine, spans are emitted in stream order and
//! leftover open spans are closed in sorted key order, so the artifacts
//! are byte-identical for any `--jobs` value.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

use asman_hypervisor::Machine;
use asman_sim::flight::{CatMask, FlightEv, FlightEvent, PEER_FUTEX_BIT};
use asman_sim::lhp::{detect_lhp, LhpEpisode, LhpSummary};
use asman_sim::registry::MetricsRegistry;
use asman_sim::{Clock, Cycles};
use asman_workloads::{NasBenchmark, NasSpec};
use serde::Serialize;
use serde_json::Piece::{self, Str, U64};
use serde_json::Writer;

use crate::figures::FigureParams;
use crate::scenario::{Sched, SingleVmScenario};

/// Simulated window traced by [`capture_bundles`] (seconds).
pub const TRACE_WINDOW_SECS: u64 = 3;

/// Default per-category, per-layer event capacity for `repro trace`.
pub const TRACE_CAPACITY: usize = 200_000;

/// How many worst LHP episodes the summary retains.
const LHP_KEEP: usize = 20;

// ---------------------------------------------------------------- topology

/// Machine topology snapshot used to name exporter tracks.
struct Topo {
    vm_names: Vec<String>,
    /// First global VCPU index of each VM (VCPU ids are contiguous per VM).
    vm_first_vcpu: Vec<u32>,
    vm_vcpus: Vec<u32>,
    pcpus: u32,
    clock: Clock,
}

impl Topo {
    fn from_machine(m: &Machine) -> Topo {
        let n = m.vm_count();
        let mut vm_names = Vec::with_capacity(n);
        let mut vm_first_vcpu = Vec::with_capacity(n);
        let mut vm_vcpus = Vec::with_capacity(n);
        for vm in 0..n {
            let ids = m.vm_vcpu_ids(vm);
            vm_names.push(m.vm_name(vm).to_string());
            vm_first_vcpu.push(ids.first().map(|&v| v as u32).unwrap_or(0));
            vm_vcpus.push(ids.len() as u32);
        }
        Topo {
            vm_names,
            vm_first_vcpu,
            vm_vcpus,
            pcpus: m.config().pcpus as u32,
            clock: m.config().clock,
        }
    }

    /// Map a global VCPU index to `(vm, slot)`.
    fn locate(&self, vcpu: u32) -> (u32, u32) {
        for (vm, (&first, &count)) in self
            .vm_first_vcpu
            .iter()
            .zip(self.vm_vcpus.iter())
            .enumerate()
        {
            if vcpu >= first && vcpu < first + count {
                return (vm as u32, vcpu - first);
            }
        }
        (u32::MAX, vcpu)
    }

    fn us(&self, t: Cycles) -> f64 {
        self.clock.to_secs(t) * 1e6
    }
}

// ------------------------------------------------- chrome trace-event JSON

// Track ids within a VM's process: guest threads use their own small
// indices, the VMM-side per-VCPU rows and the per-VM VMM row sit above
// them, and LHP episode rows live in their own per-VM process.
const TID_VMM_VCPU_BASE: u64 = 5_000;
const TID_VMM_ROW: u64 = 4_999;
/// Cluster migration lifecycle spans live on their own pid-0 row.
const TID_MIG_ROW: u64 = 4_998;
const PID_LHP_BASE: u64 = 1_000;

/// One numeric member of an event's `args` object.
#[derive(Clone, Copy)]
enum Arg {
    U(u64),
    I(i64),
    F(f64),
}

/// Write an event's `args`: `null` when there are none.
fn args(w: &mut Writer, members: &[(&str, Arg)]) {
    w.key("args");
    if members.is_empty() {
        w.null();
        return;
    }
    w.begin_object();
    for &(k, v) in members {
        w.key(k);
        match v {
            Arg::U(x) => w.u64(x),
            Arg::I(x) => w.i64(x),
            Arg::F(x) => w.f64(x),
        }
    }
    w.end_object();
}

/// A complete (`X`) event: a span of `dur` µs from `ts`.
fn span(
    w: &mut Writer,
    name: &[Piece<'_>],
    (pid, tid): (u64, u64),
    ts: f64,
    dur: f64,
    members: &[(&str, Arg)],
) {
    w.begin_object();
    w.key("name");
    w.str_pieces(name);
    w.key("ph");
    w.str("X");
    w.key("pid");
    w.u64(pid);
    w.key("tid");
    w.u64(tid);
    w.key("ts");
    w.f64(ts);
    w.key("dur");
    w.f64(dur);
    args(w, members);
    w.end_object();
}

/// A thread-scoped instant (`i`) event at `ts` µs.
fn instant(
    w: &mut Writer,
    name: &[Piece<'_>],
    (pid, tid): (u64, u64),
    ts: f64,
    members: &[(&str, Arg)],
) {
    w.begin_object();
    w.key("name");
    w.str_pieces(name);
    w.key("ph");
    w.str("i");
    w.key("s");
    w.str("t");
    w.key("pid");
    w.u64(pid);
    w.key("tid");
    w.u64(tid);
    w.key("ts");
    w.f64(ts);
    args(w, members);
    w.end_object();
}

/// A metadata (`M`) event naming a process (`tid` = `None`) or thread.
fn meta_name(w: &mut Writer, kind: &str, pid: u64, tid: Option<u64>, name: &[Piece<'_>]) {
    w.begin_object();
    w.key("name");
    w.str(kind);
    w.key("ph");
    w.str("M");
    w.key("pid");
    w.u64(pid);
    if let Some(tid) = tid {
        w.key("tid");
        w.u64(tid);
    }
    w.key("args");
    w.begin_object();
    w.key("name");
    w.str_pieces(name);
    w.end_object();
    w.end_object();
}

/// A futex's name as its prefix and number: `peer t{n}` for a pipeline
/// peer's futex, `f{n}` for any other.
fn futex_name(futex: u32) -> (&'static str, u64) {
    if futex & PEER_FUTEX_BIT != 0 {
        ("peer t", (futex & !PEER_FUTEX_BIT).into())
    } else {
        ("f", futex.into())
    }
}

/// Bytes of pretty Chrome trace per flight event that [`chrome_trace`]
/// reserves up front. The `repro trace` scenario takes about 110 on
/// average and at most 128 in any of 1,000 windows of 30 ms, so the
/// buffer is sized once and rarely grows.
const CHROME_BYTES_PER_EVENT: usize = 128;

/// Render the Chrome trace-event document for a merged event stream,
/// pretty-printed, writing each event straight into the output.
///
/// `end` closes spans still open when the recording window ended.
fn chrome_trace(
    events: &[FlightEvent],
    episodes: &[LhpEpisode],
    topo: &Topo,
    end: Cycles,
) -> Vec<u8> {
    let mut w = Writer::pretty();
    w.reserve((events.len() + episodes.len()) * CHROME_BYTES_PER_EVENT);
    w.begin_object();
    w.key("displayTimeUnit");
    w.str("ms");
    w.key("traceEvents");
    w.begin_array();

    // Metadata: process and thread names, fixed order.
    meta_name(&mut w, "process_name", 0, None, &[Str("PCPUs")]);
    for p in 0..topo.pcpus {
        let name = [Str("pcpu"), U64(p.into())];
        meta_name(&mut w, "thread_name", 0, Some(p.into()), &name);
    }
    for (vm, name) in topo.vm_names.iter().enumerate() {
        let pid = vm as u64 + 1;
        meta_name(&mut w, "process_name", pid, None, &[Str(name)]);
        meta_name(&mut w, "thread_name", pid, Some(TID_VMM_ROW), &[Str("vmm")]);
        for slot in 0..topo.vm_vcpus[vm] {
            meta_name(
                &mut w,
                "thread_name",
                pid,
                Some(TID_VMM_VCPU_BASE + slot as u64),
                &[Str("v"), U64(slot.into()), Str(" (vmm)")],
            );
        }
    }

    // Guest thread rows discovered from the stream; named below once the
    // per-VM thread population is known.
    let mut guest_threads: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut has_migrations = false;
    for e in events {
        match e.ev {
            FlightEv::LockContend { vm, thread, .. }
            | FlightEv::LockAcquire { vm, thread, .. }
            | FlightEv::LockRelease { vm, thread, .. }
            | FlightEv::FutexBlock { vm, thread, .. }
            | FlightEv::FutexWake { vm, thread, .. }
            | FlightEv::BarrierArrive { vm, thread, .. }
            | FlightEv::BarrierRelease { vm, thread, .. } => {
                guest_threads.insert((vm, thread));
            }
            FlightEv::MigratePrepare { .. }
            | FlightEv::MigrateCopy { .. }
            | FlightEv::MigrateCommit { .. }
            | FlightEv::MigrateAbort { .. }
            | FlightEv::MigrateRetry { .. } => has_migrations = true,
            _ => {}
        }
    }
    if has_migrations {
        let name = [Str("migrations")];
        meta_name(&mut w, "thread_name", 0, Some(TID_MIG_ROW), &name);
    }
    for &(vm, thread) in &guest_threads {
        let name = [Str("t"), U64(thread.into())];
        meta_name(
            &mut w,
            "thread_name",
            vm as u64 + 1,
            Some(thread.into()),
            &name,
        );
    }

    // Open-span state, keyed by small integers. The tables are ordered,
    // so the leftovers flush in key order and the output is
    // deterministic.
    // vcpu -> (t0, pcpu)
    let mut running: BTreeMap<u32, (Cycles, u32)> = BTreeMap::new();
    // (vm, thread) -> (t0, lock)
    let mut spinning: BTreeMap<(u32, u32), (Cycles, u32)> = BTreeMap::new();
    // (vm, thread, lock) -> t0
    let mut holding: BTreeMap<(u32, u32, u32), Cycles> = BTreeMap::new();
    // span id -> (t0, vm, from, to, attempt, pages); one slice per attempt.
    let mut mig_open: BTreeMap<u32, (Cycles, u32, u32, u32, u32, u64)> = BTreeMap::new();

    let close_run = |w: &mut Writer, vcpu: u32, t0: Cycles, pcpu: u32, t1: Cycles| {
        let (vm, slot) = topo.locate(vcpu);
        let track = (0, pcpu as u64);
        let (ts, dur) = (topo.us(t0), topo.us(t1.saturating_sub(t0)));
        let members = [("vcpu", Arg::U(vcpu as u64))];
        match topo.vm_names.get(vm as usize) {
            Some(name) => {
                let name = [Str(name), Str("/v"), U64(slot.into())];
                span(w, &name, track, ts, dur, &members)
            }
            None => span(w, &[Str("v"), U64(vcpu.into())], track, ts, dur, &members),
        }
    };
    // The VMM-side row of a VCPU, and the per-VM VMM row.
    let vcpu_row = |vm: u32, vcpu: u32| {
        (
            vm as u64 + 1,
            TID_VMM_VCPU_BASE + topo.locate(vcpu).1 as u64,
        )
    };
    let vmm_row = |vm: u32| (vm as u64 + 1, TID_VMM_ROW);
    let thread_row = |vm: u32, thread: u32| (vm as u64 + 1, thread as u64);

    for e in events {
        let t = e.t;
        let w = &mut w;
        match e.ev {
            FlightEv::Dispatch { vcpu, pcpu, .. } => {
                running.insert(vcpu, (t, pcpu));
            }
            FlightEv::Preempt { vcpu, .. } | FlightEv::Block { vcpu, .. } => {
                if let Some((t0, pcpu)) = running.remove(&vcpu) {
                    close_run(w, vcpu, t0, pcpu, t);
                }
            }
            FlightEv::Wake { vcpu, vm, boost } => instant(
                w,
                &[Str(if boost { "wake+boost" } else { "wake" })],
                vcpu_row(vm, vcpu),
                topo.us(t),
                &[],
            ),
            FlightEv::Steal { vcpu, vm, from, to } | FlightEv::Migrate { vcpu, vm, from, to } => {
                instant(
                    w,
                    &[
                        Str(e.ev.kind()),
                        Str(" "),
                        U64(from.into()),
                        Str("->"),
                        U64(to.into()),
                    ],
                    vcpu_row(vm, vcpu),
                    topo.us(t),
                    &[],
                )
            }
            FlightEv::CreditAssign {
                vcpu,
                vm,
                income,
                credit,
            } => instant(
                w,
                &[Str("credit")],
                vcpu_row(vm, vcpu),
                topo.us(t),
                &[("income", Arg::I(income)), ("credit", Arg::I(credit))],
            ),
            FlightEv::Park { vcpu, vm } | FlightEv::Unpark { vcpu, vm } => {
                instant(w, &[Str(e.ev.kind())], vcpu_row(vm, vcpu), topo.us(t), &[])
            }
            FlightEv::CoschedBurst { vm, boosted } => instant(
                w,
                &[Str("cosched burst")],
                vmm_row(vm),
                topo.us(t),
                &[("boosted", Arg::U(boosted as u64))],
            ),
            FlightEv::VcrdChange { vm, high } => instant(
                w,
                &[Str(if high { "VCRD high" } else { "VCRD low" })],
                vmm_row(vm),
                topo.us(t),
                &[],
            ),
            FlightEv::LockContend {
                vm, thread, lock, ..
            } => {
                spinning.insert((vm, thread), (t, lock));
            }
            FlightEv::LockAcquire {
                vm, thread, lock, ..
            } => {
                if let Some((t0, l)) = spinning.remove(&(vm, thread)) {
                    if l == lock {
                        span(
                            w,
                            &[Str("spin L"), U64(lock.into())],
                            thread_row(vm, thread),
                            topo.us(t0),
                            topo.us(t.saturating_sub(t0)),
                            &[],
                        );
                    }
                }
                holding.insert((vm, thread, lock), t);
            }
            FlightEv::LockRelease {
                vm, thread, lock, ..
            } => {
                if let Some(t0) = holding.remove(&(vm, thread, lock)) {
                    span(
                        w,
                        &[Str("hold L"), U64(lock.into())],
                        thread_row(vm, thread),
                        topo.us(t0),
                        topo.us(t.saturating_sub(t0)),
                        &[],
                    );
                }
            }
            FlightEv::FutexBlock {
                vm, thread, futex, ..
            } => {
                let (prefix, n) = futex_name(futex);
                instant(
                    w,
                    &[Str("futex block "), Str(prefix), U64(n)],
                    thread_row(vm, thread),
                    topo.us(t),
                    &[],
                )
            }
            FlightEv::FutexWake {
                vm,
                thread,
                futex,
                woken,
                ..
            } => {
                let (prefix, n) = futex_name(futex);
                instant(
                    w,
                    &[Str("futex wake "), Str(prefix), U64(n)],
                    thread_row(vm, thread),
                    topo.us(t),
                    &[("woken", Arg::U(woken as u64))],
                )
            }
            FlightEv::BarrierArrive {
                vm,
                thread,
                barrier,
                arrived,
                ..
            } => instant(
                w,
                &[Str("arrive b"), U64(barrier.into())],
                thread_row(vm, thread),
                topo.us(t),
                &[("arrived", Arg::U(arrived as u64))],
            ),
            FlightEv::BarrierRelease {
                vm,
                thread,
                barrier,
                woken,
                ..
            } => instant(
                w,
                &[Str("release b"), U64(barrier.into())],
                thread_row(vm, thread),
                topo.us(t),
                &[("woken", Arg::U(woken as u64))],
            ),
            // Cluster-layer fault events: host-wide, so they land on the
            // VMM row. `vm` in these is the cluster-wide id (carried in
            // args, not mapped to a local pid).
            FlightEv::HostCrash { host } => instant(
                w,
                &[Str("host "), U64(host.into()), Str(" CRASH")],
                (0, TID_VMM_ROW),
                topo.us(t),
                &[],
            ),
            FlightEv::HostDerate { host, pct } => instant(
                w,
                &[
                    Str("host "),
                    U64(host.into()),
                    Str(" derate "),
                    U64(pct.into()),
                    Str("%"),
                ],
                (0, TID_VMM_ROW),
                topo.us(t),
                &[("pct", Arg::U(pct as u64))],
            ),
            // The migration lifecycle renders as causal duration spans:
            // each attempt's prepare opens a slice on the migration row,
            // closed by its commit (duration == injected pause) or abort
            // (duration == abort penalty). The span id ties a retry
            // chain's slices together across host streams.
            FlightEv::MigratePrepare {
                span: sp,
                vm,
                from,
                to,
                attempt,
            } => {
                mig_open.insert(sp, (t, vm, from, to, attempt, 0));
            }
            FlightEv::MigrateCopy {
                span: sp, pages, ..
            } => {
                if let Some(o) = mig_open.get_mut(&sp) {
                    o.5 += pages;
                }
            }
            FlightEv::MigrateCommit {
                span: sp,
                vm,
                to,
                pause,
            } => {
                if let Some((t0, _, from, _, attempt, pages)) = mig_open.remove(&sp) {
                    span(
                        w,
                        &[
                            Str("migrate vm"),
                            U64(vm.into()),
                            Str(" "),
                            U64(from.into()),
                            Str("->"),
                            U64(to.into()),
                        ],
                        (0, TID_MIG_ROW),
                        topo.us(t0),
                        topo.us(t.saturating_sub(t0)),
                        &[
                            ("span", Arg::U(sp as u64)),
                            ("attempt", Arg::U(attempt as u64)),
                            ("pages", Arg::U(pages)),
                            ("pause_cycles", Arg::U(pause)),
                        ],
                    );
                }
            }
            FlightEv::MigrateAbort {
                span: sp,
                vm,
                attempt,
            } => {
                if let Some((t0, _, from, to, _, pages)) = mig_open.remove(&sp) {
                    span(
                        w,
                        &[
                            Str("migrate ABORT vm"),
                            U64(vm.into()),
                            Str(" "),
                            U64(from.into()),
                            Str("->"),
                            U64(to.into()),
                            Str(" (attempt "),
                            U64(attempt.into()),
                            Str(")"),
                        ],
                        (0, TID_MIG_ROW),
                        topo.us(t0),
                        topo.us(t.saturating_sub(t0)),
                        &[
                            ("span", Arg::U(sp as u64)),
                            ("attempt", Arg::U(attempt as u64)),
                            ("pages", Arg::U(pages)),
                        ],
                    );
                } else {
                    instant(
                        w,
                        &[
                            Str("migration abort (attempt "),
                            U64(attempt.into()),
                            Str(")"),
                        ],
                        (0, TID_VMM_ROW),
                        topo.us(t),
                        &[
                            ("span", Arg::U(sp as u64)),
                            ("cluster_vm", Arg::U(vm as u64)),
                        ],
                    );
                }
            }
            FlightEv::MigrateRetry {
                span: sp,
                vm,
                attempt,
            } => instant(
                w,
                &[
                    Str("migration retry (attempt "),
                    U64(attempt.into()),
                    Str(")"),
                ],
                (0, TID_MIG_ROW),
                topo.us(t),
                &[
                    ("span", Arg::U(sp as u64)),
                    ("cluster_vm", Arg::U(vm as u64)),
                ],
            ),
            FlightEv::Evacuate { vm, from, to } => instant(
                w,
                &[
                    Str("evacuate "),
                    U64(from.into()),
                    Str("->"),
                    U64(to.into()),
                ],
                (0, TID_VMM_ROW),
                topo.us(t),
                &[("cluster_vm", Arg::U(vm as u64))],
            ),
        }
    }

    // Close whatever the recording window cut off, in key order.
    for (vcpu, (t0, pcpu)) in running {
        close_run(&mut w, vcpu, t0, pcpu, end);
    }
    for ((vm, thread, lock), t0) in holding {
        span(
            &mut w,
            &[Str("hold L"), U64(lock.into()), Str(" (open)")],
            thread_row(vm, thread),
            topo.us(t0),
            topo.us(end.saturating_sub(t0)),
            &[],
        );
    }
    for (sp, (t0, vm, from, to, attempt, pages)) in mig_open {
        span(
            &mut w,
            &[
                Str("migrate vm"),
                U64(vm.into()),
                Str(" "),
                U64(from.into()),
                Str("->"),
                U64(to.into()),
                Str(" (open)"),
            ],
            (0, TID_MIG_ROW),
            topo.us(t0),
            topo.us(end.saturating_sub(t0)),
            &[
                ("span", Arg::U(sp as u64)),
                ("attempt", Arg::U(attempt as u64)),
                ("pages", Arg::U(pages)),
            ],
        );
    }

    // LHP episode tracks: one process per VM with episodes, one row per
    // lock. Episodes arrive sorted from the detector.
    let mut lhp_vms: Vec<u32> = episodes.iter().map(|e| e.vm).collect();
    lhp_vms.sort_unstable();
    lhp_vms.dedup();
    for &vm in &lhp_vms {
        let name = topo
            .vm_names
            .get(vm as usize)
            .map(String::as_str)
            .unwrap_or("?");
        meta_name(
            &mut w,
            "process_name",
            PID_LHP_BASE + vm as u64,
            None,
            &[Str(name), Str(" LHP episodes")],
        );
    }
    for ep in episodes {
        span(
            &mut w,
            &[
                Str("LHP L"),
                U64(ep.lock.into()),
                Str(" holder t"),
                U64(ep.holder_thread.into()),
            ],
            (PID_LHP_BASE + ep.vm as u64, ep.lock as u64),
            topo.us(ep.start),
            topo.us(ep.end.saturating_sub(ep.start)),
            &[
                ("holder_vcpu", Arg::U(ep.holder_vcpu as u64)),
                ("preempted_for_us", Arg::F(topo.us(ep.preempted_for))),
                ("wasted_spin_us", Arg::F(topo.us(ep.wasted_spin))),
                ("waiters", Arg::U(ep.waiters as u64)),
            ],
        );
    }

    w.end_array();
    w.end_object();
    w.into_bytes()
}

// -------------------------------------------------- migration cost table

/// Per-span cost row of one causal migration chain: everything the
/// cluster charged for it, summed over attempts. Derived entirely from
/// the flight stream, so the table covers exactly what the trace shows
/// (events dropped at capacity drop out of both together).
#[derive(Clone, Debug, Serialize)]
pub struct MigrationSpan {
    /// Causal span id minted at the chain's first `prepare`.
    pub span: u32,
    /// Cluster-wide VM id being moved.
    pub vm: u32,
    /// Source host of the first attempt.
    pub from: u32,
    /// Destination host.
    pub to: u32,
    /// Attempts observed (1 = committed first try).
    pub attempts: u32,
    /// Dirty pages copied, summed over every attempt.
    pub pages_copied: u64,
    /// Guest-visible pause of the committing attempt, in cycles.
    pub pause_cycles: u64,
    /// Guest-visible dead time of failed attempts, in cycles.
    pub penalty_cycles: u64,
    /// Whether the chain eventually committed.
    pub committed: bool,
    /// Timestamp of the first `prepare`, in cycles.
    pub start: u64,
    /// Timestamp of the final `commit`/`abort`, in cycles.
    pub end: u64,
}

/// Fold a merged (or per-host) event stream into its migration cost
/// table, one row per span id, in span order. Abort penalties re-derive
/// from the stream's timestamps: each abort is stamped at the end of
/// its penalty window, so `abort.t - prepare.t` is the dead time.
pub fn migration_spans(events: &[FlightEvent]) -> Vec<MigrationSpan> {
    use std::collections::BTreeMap;
    let mut spans: BTreeMap<u32, MigrationSpan> = BTreeMap::new();
    let mut last_prepare: BTreeMap<u32, Cycles> = BTreeMap::new();
    for e in events {
        match e.ev {
            FlightEv::MigratePrepare {
                span,
                vm,
                from,
                to,
                attempt,
            } => {
                let s = spans.entry(span).or_insert(MigrationSpan {
                    span,
                    vm,
                    from,
                    to,
                    attempts: 0,
                    pages_copied: 0,
                    pause_cycles: 0,
                    penalty_cycles: 0,
                    committed: false,
                    start: e.t.as_u64(),
                    end: e.t.as_u64(),
                });
                s.attempts = s.attempts.max(attempt);
                last_prepare.insert(span, e.t);
            }
            FlightEv::MigrateCopy { span, pages, .. } => {
                if let Some(s) = spans.get_mut(&span) {
                    s.pages_copied += pages;
                }
            }
            FlightEv::MigrateCommit { span, pause, .. } => {
                if let Some(s) = spans.get_mut(&span) {
                    s.pause_cycles = pause;
                    s.committed = true;
                    s.end = e.t.as_u64();
                }
            }
            FlightEv::MigrateAbort { span, .. } => {
                if let Some(s) = spans.get_mut(&span) {
                    if let Some(&t0) = last_prepare.get(&span) {
                        s.penalty_cycles += e.t.saturating_sub(t0).as_u64();
                    }
                    s.end = e.t.as_u64();
                }
            }
            _ => {}
        }
    }
    spans.into_values().collect()
}

// ------------------------------------------------------------ the bundle

/// Serialized artifacts of one traced run.
pub struct TraceArtifacts {
    /// Scheduler label (`"Credit"`, `"ASMan"`).
    pub sched: &'static str,
    /// Chrome trace-event JSON (Perfetto-loadable).
    pub chrome_json: Vec<u8>,
    /// LHP episode summary JSON.
    pub lhp_json: Vec<u8>,
    /// Metrics registry JSON.
    pub metrics_json: Vec<u8>,
    /// Human-readable run summary.
    pub summary: String,
}

/// Capture a traced machine's artifacts: drains the flight recorders,
/// detects LHP episodes, exports the metrics registry and renders the
/// Chrome trace plus text summary.
pub fn capture(m: &mut Machine, sched: &'static str) -> TraceArtifacts {
    let topo = Topo::from_machine(m);
    let totals = m.flight_totals();
    let end = m.now();
    let events = m.flight_events();
    let episodes = detect_lhp(&events);
    let lhp = LhpSummary::from_episodes(&episodes, LHP_KEEP);

    let mut reg = MetricsRegistry::new();
    m.export_metrics(&mut reg);
    reg.inc("lhp.episodes", lhp.episodes);
    reg.inc("lhp.preempted_cycles", lhp.total_preempted.as_u64());
    reg.inc("lhp.wasted_spin_cycles", lhp.total_wasted_spin.as_u64());

    let mut summary = format!(
        "flight recorder — {sched}, {} events retained\n",
        events.len()
    );
    summary.push_str(&format!(
        "  {:>8} {:>12} {:>12} {:>12}\n",
        "category", "seen", "retained", "dropped"
    ));
    let mut total_dropped = 0;
    for &(cat, seen, dropped) in &totals {
        total_dropped += dropped;
        summary.push_str(&format!(
            "  {:>8} {:>12} {:>12} {:>12}\n",
            cat.name(),
            seen,
            seen - dropped,
            dropped
        ));
    }
    if total_dropped > 0 {
        summary.push_str(&format!(
            "  warning: {total_dropped} events dropped at capacity; raise the buffer \
             capacity or narrow --trace-cats for a complete trace\n"
        ));
    }
    let ms = |c: Cycles| topo.clock.to_ms(c);
    summary.push_str(&format!(
        "LHP: {} episodes, holder off-CPU {:.2} ms, wasted waiter spin {:.2} ms\n",
        lhp.episodes,
        ms(lhp.total_preempted),
        ms(lhp.total_wasted_spin)
    ));
    for ep in lhp.worst.iter().take(5) {
        summary.push_str(&format!(
            "  worst: vm{} L{} holder t{} at {:.1} ms: off-CPU {:.2} ms, wasted {:.2} ms, {} waiter(s)\n",
            ep.vm,
            ep.lock,
            ep.holder_thread,
            ms(ep.start),
            ms(ep.preempted_for),
            ms(ep.wasted_spin),
            ep.waiters
        ));
    }

    TraceArtifacts {
        sched,
        chrome_json: chrome_trace(&events, &episodes, &topo, end),
        lhp_json: serde_json::to_vec_pretty(&lhp).expect("serialize lhp summary"),
        metrics_json: serde_json::to_vec_pretty(&reg).expect("serialize metrics"),
        summary,
    }
}

/// Run the `repro trace` scenario — the paper's most scheduler-sensitive
/// single-VM cell (LU at the 22.2 % online rate, Figure 1's testbed) —
/// under Credit and ASMan with flight recording on, and capture both
/// bundles. The two runs go through the sweep runner, so `--jobs`
/// parallelism applies; artifacts are bit-identical for every job count.
pub fn capture_bundles(p: &FigureParams, cats: CatMask, capacity: usize) -> Vec<TraceArtifacts> {
    p.runner().map(vec![Sched::Credit, Sched::Asman], |sched| {
        let sc = SingleVmScenario::new(sched, 32, p.seed);
        let lu = NasSpec::new(NasBenchmark::LU, p.class, 4).build(p.seed ^ 7);
        let mut m = sc.build(Box::new(lu));
        m.enable_flight(cats, capacity);
        let clk = m.config().clock;
        m.run_until(clk.secs(TRACE_WINDOW_SECS));
        capture(&mut m, sched.label())
    })
}

/// Write a bundle's artifacts into `dir` (created if missing); returns
/// the paths written.
pub fn write_bundles(dir: &Path, bundles: &[TraceArtifacts]) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for b in bundles {
        let tag = b.sched.to_ascii_lowercase();
        for (name, bytes) in [
            (format!("trace_{tag}.json"), &b.chrome_json),
            (format!("lhp_{tag}.json"), &b.lhp_json),
            (format!("metrics_{tag}.json"), &b.metrics_json),
            (
                format!("summary_{tag}.txt"),
                &b.summary.clone().into_bytes(),
            ),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, bytes)?;
            paths.push(path);
        }
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asman_sim::flight::VM_UNPATCHED;
    use serde::Value;

    fn topo2() -> Topo {
        Topo {
            vm_names: vec!["V0".to_string(), "V1".to_string()],
            vm_first_vcpu: vec![0, 2],
            vm_vcpus: vec![2, 2],
            pcpus: 2,
            clock: Clock::default(),
        }
    }

    /// Render a Chrome trace and parse it back.
    fn chrome_doc(evs: &[FlightEvent], eps: &[LhpEpisode], topo: &Topo, end: Cycles) -> Value {
        let bytes = chrome_trace(evs, eps, topo, end);
        serde_json::from_str(std::str::from_utf8(&bytes).expect("utf-8")).expect("valid JSON")
    }

    fn events_of(doc: &Value) -> &Vec<Value> {
        let Value::Object(top) = doc else {
            panic!("not an object")
        };
        let Some((_, Value::Array(evs))) = top.iter().find(|(k, _)| k == "traceEvents") else {
            panic!("no traceEvents array");
        };
        evs
    }

    fn field<'a>(ev: &'a Value, name: &str) -> &'a Value {
        let Value::Object(fields) = ev else {
            panic!("event not an object")
        };
        &fields.iter().find(|(k, _)| k == name).expect(name).1
    }

    #[test]
    fn locate_maps_global_vcpus_to_vm_slots() {
        let t = topo2();
        assert_eq!(t.locate(0), (0, 0));
        assert_eq!(t.locate(3), (1, 1));
        assert_eq!(t.locate(9).0, u32::MAX);
    }

    #[test]
    fn chrome_trace_builds_pcpu_spans_and_lock_spans() {
        let clk = Clock::default();
        let t = |ms: u64| clk.ms(ms);
        let evs = vec![
            FlightEvent {
                t: t(1),
                ev: FlightEv::Dispatch {
                    vcpu: 2,
                    vm: 1,
                    pcpu: 0,
                },
            },
            FlightEvent {
                t: t(2),
                ev: FlightEv::LockContend {
                    vm: 1,
                    vcpu: 2,
                    thread: 0,
                    lock: 3,
                },
            },
            FlightEvent {
                t: t(3),
                ev: FlightEv::LockAcquire {
                    vm: 1,
                    vcpu: 2,
                    thread: 0,
                    lock: 3,
                    wait: 100,
                },
            },
            FlightEvent {
                t: t(4),
                ev: FlightEv::LockRelease {
                    vm: 1,
                    vcpu: 2,
                    thread: 0,
                    lock: 3,
                },
            },
            FlightEvent {
                t: t(5),
                ev: FlightEv::Preempt {
                    vcpu: 2,
                    vm: 1,
                    pcpu: 0,
                },
            },
            // Still running at end-of-window: closed at `end`.
            FlightEvent {
                t: t(6),
                ev: FlightEv::Dispatch {
                    vcpu: 0,
                    vm: 0,
                    pcpu: 1,
                },
            },
        ];
        let doc = chrome_doc(&evs, &[], &topo2(), t(10));
        let events = events_of(&doc);
        let spans: Vec<&Value> = events
            .iter()
            .filter(|e| *field(e, "ph") == Value::Str("X".to_string()))
            .collect();
        // spin L3, hold L3, V1/v0 on pcpu0, V0/v0 closed at end.
        assert_eq!(spans.len(), 4);
        assert!(spans
            .iter()
            .any(|s| *field(s, "name") == Value::Str("V1/v0".to_string())));
        assert!(spans
            .iter()
            .any(|s| *field(s, "name") == Value::Str("spin L3".to_string())));
        assert!(spans
            .iter()
            .any(|s| *field(s, "name") == Value::Str("hold L3".to_string())));
        // Metadata names every PCPU row.
        let metas: Vec<&Value> = events
            .iter()
            .filter(|e| *field(e, "ph") == Value::Str("M".to_string()))
            .collect();
        assert!(metas.len() >= 2 + 2);
        // The open dispatch on pcpu1 runs 6 ms..10 ms.
        let open = spans
            .iter()
            .find(|s| *field(s, "name") == Value::Str("V0/v0".to_string()))
            .unwrap();
        let Value::F64(dur) = field(open, "dur") else {
            panic!("dur not f64")
        };
        assert!((dur - 4_000.0).abs() < 1.0, "4 ms = 4000 us, got {dur}");
    }

    #[test]
    fn lhp_episodes_get_their_own_process() {
        let clk = Clock::default();
        let ep = LhpEpisode {
            vm: 1,
            lock: 7,
            holder_vcpu: 3,
            holder_thread: 1,
            start: clk.ms(1),
            end: clk.ms(2),
            preempted_for: clk.us(500),
            wasted_spin: clk.us(300),
            waiters: 2,
        };
        let doc = chrome_doc(&[], &[ep], &topo2(), clk.ms(3));
        let events = events_of(&doc);
        let lhp_span = events
            .iter()
            .find(|e| *field(e, "ph") == Value::Str("X".to_string()))
            .expect("episode span");
        assert_eq!(*field(lhp_span, "pid"), Value::U64(PID_LHP_BASE + 1));
        assert_eq!(*field(lhp_span, "tid"), Value::U64(7));
        assert!(events.iter().any(|e| {
            *field(e, "ph") == Value::Str("M".to_string())
                && format!("{:?}", field(e, "args")).contains("LHP")
        }));
    }

    /// A contended two-VM overcommit with tiny per-category buffers:
    /// several categories must overflow, and the drop accounting has to
    /// survive end to end — per-category dropped counts in the text
    /// summary, the warn-once latch on the overflowing layer, and a
    /// merged stream that stays time-ordered past capacity.
    #[test]
    fn capture_reports_drops_and_merge_stays_ordered_past_capacity() {
        use asman_hypervisor::{MachineConfig, VmSpec};
        use asman_workloads::{Op, ScriptProgram};

        asman_sim::trace::set_overflow_warnings(false);
        let clk = Clock::default();
        let mk = || {
            Box::new(
                ScriptProgram::homogeneous(
                    "locky",
                    2,
                    vec![
                        Op::CriticalSection {
                            lock: 0,
                            hold: clk.us(150),
                        },
                        Op::Compute(clk.us(80)),
                    ],
                )
                .looping(),
            )
        };
        let mut m = crate::machine_for(
            crate::Sched::Credit,
            MachineConfig {
                pcpus: 2,
                ..MachineConfig::default()
            },
            vec![VmSpec::new("a", 2, mk()), VmSpec::new("b", 2, mk())],
        );
        m.enable_flight(CatMask::ALL, 64);
        m.run_until(clk.ms(50));

        let totals = m.flight_totals();
        let overflowed: Vec<_> = totals
            .iter()
            .filter(|&&(_, _, dropped)| dropped > 0)
            .collect();
        assert!(
            !overflowed.is_empty(),
            "the 64-event buffers must overflow in 50 ms of contention"
        );
        let warned_somewhere = overflowed.iter().any(|&&(cat, _, _)| {
            m.flight().warned(cat)
                || (0..m.vm_count()).any(|vm| m.vm_kernel(vm).flight().warned(cat))
        });
        assert!(
            warned_somewhere,
            "an overflowing layer must latch its warning"
        );

        let art = capture(&mut m, "Credit");
        for &&(cat, seen, dropped) in &overflowed {
            let row = format!(
                "  {:>8} {:>12} {:>12} {:>12}\n",
                cat.name(),
                seen,
                seen - dropped,
                dropped
            );
            assert!(
                art.summary.contains(&row),
                "summary must carry the `{}` drop row:\n{}",
                cat.name(),
                art.summary
            );
        }
        assert!(
            art.summary.contains("warning:") && art.summary.contains("dropped at capacity"),
            "summary must warn about drops:\n{}",
            art.summary
        );
        asman_sim::trace::set_overflow_warnings(true);
    }

    #[test]
    fn merged_stream_stays_ordered_past_capacity() {
        use asman_hypervisor::{MachineConfig, VmSpec};
        use asman_workloads::{Op, ScriptProgram};

        asman_sim::trace::set_overflow_warnings(false);
        let clk = Clock::default();
        let mk = || {
            Box::new(
                ScriptProgram::homogeneous(
                    "locky",
                    2,
                    vec![
                        Op::CriticalSection {
                            lock: 0,
                            hold: clk.us(150),
                        },
                        Op::Compute(clk.us(80)),
                    ],
                )
                .looping(),
            )
        };
        let mut m = crate::machine_for(
            crate::Sched::Credit,
            MachineConfig {
                pcpus: 2,
                ..MachineConfig::default()
            },
            vec![VmSpec::new("a", 2, mk()), VmSpec::new("b", 2, mk())],
        );
        m.enable_flight(CatMask::ALL, 64);
        m.run_until(clk.ms(50));
        assert!(m.flight_totals().iter().any(|&(_, _, d)| d > 0));
        let events = m.flight_events();
        assert!(!events.is_empty());
        assert!(
            events.windows(2).all(|w| w[0].t <= w[1].t),
            "merged stream must stay time-ordered past capacity"
        );
        asman_sim::trace::set_overflow_warnings(true);
    }

    /// One abort-then-commit retry chain: the chrome trace must carry
    /// one slice per attempt on the migration row (abort slice spans
    /// the penalty window, commit slice spans the pause), and the cost
    /// table must fold both attempts into one span row.
    #[test]
    fn migration_chain_renders_spans_and_cost_table() {
        let clk = Clock::default();
        let t = |ms: u64| clk.ms(ms);
        let sp = 7u32;
        let evs = vec![
            FlightEvent {
                t: t(1),
                ev: FlightEv::MigratePrepare {
                    span: sp,
                    vm: 3,
                    from: 0,
                    to: 2,
                    attempt: 1,
                },
            },
            FlightEvent {
                t: t(1),
                ev: FlightEv::MigrateCopy {
                    span: sp,
                    vm: 3,
                    pages: 100,
                },
            },
            FlightEvent {
                t: t(3),
                ev: FlightEv::MigrateAbort {
                    span: sp,
                    vm: 3,
                    attempt: 1,
                },
            },
            FlightEvent {
                t: t(5),
                ev: FlightEv::MigrateRetry {
                    span: sp,
                    vm: 3,
                    attempt: 2,
                },
            },
            FlightEvent {
                t: t(5),
                ev: FlightEv::MigratePrepare {
                    span: sp,
                    vm: 3,
                    from: 0,
                    to: 2,
                    attempt: 2,
                },
            },
            FlightEvent {
                t: t(5),
                ev: FlightEv::MigrateCopy {
                    span: sp,
                    vm: 3,
                    pages: 40,
                },
            },
            FlightEvent {
                t: t(6),
                ev: FlightEv::MigrateCommit {
                    span: sp,
                    vm: 3,
                    to: 2,
                    pause: clk.ms(1).as_u64(),
                },
            },
        ];
        let doc = chrome_doc(&evs, &[], &topo2(), t(10));
        let events = events_of(&doc);
        let slices: Vec<&Value> = events
            .iter()
            .filter(|e| {
                *field(e, "ph") == Value::Str("X".to_string())
                    && *field(e, "tid") == Value::U64(TID_MIG_ROW)
            })
            .collect();
        assert_eq!(slices.len(), 2, "one slice per attempt");
        let abort = slices
            .iter()
            .find(|s| *field(s, "name") == Value::Str("migrate ABORT vm3 0->2 (attempt 1)".into()))
            .expect("abort slice");
        let Value::F64(dur) = field(abort, "dur") else {
            panic!("dur not f64")
        };
        assert!(
            (dur - 2_000.0).abs() < 1.0,
            "abort spans 1ms..3ms = 2000us, got {dur}"
        );
        assert!(slices
            .iter()
            .any(|s| *field(s, "name") == Value::Str("migrate vm3 0->2".into())));
        assert!(
            events
                .iter()
                .any(|e| *field(e, "ph") == Value::Str("M".into())
                    && format!("{:?}", field(e, "args")).contains("migrations")),
            "migration row must be named"
        );

        let table = migration_spans(&evs);
        assert_eq!(table.len(), 1);
        let row = &table[0];
        assert_eq!((row.span, row.vm, row.from, row.to), (sp, 3, 0, 2));
        assert_eq!(row.attempts, 2);
        assert_eq!(row.pages_copied, 140, "pages sum over attempts");
        assert_eq!(row.pause_cycles, clk.ms(1).as_u64());
        assert_eq!(row.penalty_cycles, t(3).saturating_sub(t(1)).as_u64());
        assert!(row.committed);
        assert_eq!((row.start, row.end), (t(1).as_u64(), t(6).as_u64()));
    }

    /// A prepare cut off by the recording window closes at `end` and an
    /// uncommitted chain reads as such in the cost table.
    #[test]
    fn open_migration_span_closes_at_window_end() {
        let clk = Clock::default();
        let evs = vec![FlightEvent {
            t: clk.ms(2),
            ev: FlightEv::MigratePrepare {
                span: 0,
                vm: 1,
                from: 1,
                to: 0,
                attempt: 1,
            },
        }];
        let doc = chrome_doc(&evs, &[], &topo2(), clk.ms(4));
        let open = events_of(&doc)
            .iter()
            .find(|e| *field(e, "name") == Value::Str("migrate vm1 1->0 (open)".into()))
            .expect("open slice");
        let Value::F64(dur) = field(open, "dur") else {
            panic!("dur not f64")
        };
        assert!((dur - 2_000.0).abs() < 1.0);
        let table = migration_spans(&evs);
        assert_eq!(table.len(), 1);
        assert!(!table[0].committed);
        assert_eq!(table[0].pause_cycles, 0);
    }

    /// Names are escaped as they are written: a VM name with a quote,
    /// a backslash and a newline reads back exactly.
    #[test]
    fn chrome_trace_escapes_track_names() {
        let clk = Clock::default();
        let name = "a\"b\\c\n";
        let mut topo = topo2();
        topo.vm_names[0] = name.to_string();
        let evs = vec![
            FlightEvent {
                t: clk.ms(1),
                ev: FlightEv::Dispatch {
                    vcpu: 1,
                    vm: 0,
                    pcpu: 0,
                },
            },
            FlightEvent {
                t: clk.ms(2),
                ev: FlightEv::Preempt {
                    vcpu: 1,
                    vm: 0,
                    pcpu: 0,
                },
            },
        ];
        let doc = chrome_doc(&evs, &[], &topo, clk.ms(3));
        let events = events_of(&doc);
        let process = events
            .iter()
            .find(|e| {
                *field(e, "name") == Value::Str("process_name".into())
                    && *field(e, "pid") == Value::U64(1)
            })
            .expect("VM process row");
        assert_eq!(
            field(process, "args").get("name"),
            Some(&Value::Str(name.to_string()))
        );
        assert!(events
            .iter()
            .any(|e| *field(e, "name") == Value::Str(format!("{name}/v1"))));
    }

    /// Every event kind's name, as the Chrome trace spells it: the names
    /// are written in pieces, and these are the texts they make.
    #[test]
    fn chrome_trace_names_every_event_kind() {
        let clk = Clock::default();
        let evs: Vec<FlightEvent> = [
            FlightEv::Dispatch {
                vcpu: 9,
                vm: 0,
                pcpu: 1,
            },
            FlightEv::Preempt {
                vcpu: 9,
                vm: 0,
                pcpu: 1,
            },
            FlightEv::Wake {
                vcpu: 0,
                vm: 0,
                boost: true,
            },
            FlightEv::Wake {
                vcpu: 0,
                vm: 0,
                boost: false,
            },
            FlightEv::Steal {
                vcpu: 0,
                vm: 0,
                from: 1,
                to: 0,
            },
            FlightEv::Migrate {
                vcpu: 0,
                vm: 0,
                from: 0,
                to: 1,
            },
            FlightEv::CreditAssign {
                vcpu: 0,
                vm: 0,
                income: 3,
                credit: -4,
            },
            FlightEv::Park { vcpu: 0, vm: 0 },
            FlightEv::Unpark { vcpu: 0, vm: 0 },
            FlightEv::CoschedBurst { vm: 1, boosted: 2 },
            FlightEv::VcrdChange { vm: 1, high: true },
            FlightEv::VcrdChange { vm: 1, high: false },
            FlightEv::FutexBlock {
                vm: 1,
                vcpu: 2,
                thread: 0,
                futex: 3,
            },
            FlightEv::FutexWake {
                vm: 1,
                vcpu: 2,
                thread: 0,
                futex: PEER_FUTEX_BIT | 2,
                woken: 1,
            },
            FlightEv::BarrierArrive {
                vm: 1,
                vcpu: 3,
                thread: 1,
                barrier: 5,
                arrived: 2,
            },
            FlightEv::BarrierRelease {
                vm: 1,
                vcpu: 3,
                thread: 1,
                barrier: 5,
                woken: 3,
            },
            FlightEv::HostCrash { host: 2 },
            FlightEv::HostDerate { host: 1, pct: 40 },
            FlightEv::MigrateAbort {
                span: 8,
                vm: 6,
                attempt: 3,
            },
            FlightEv::MigrateRetry {
                span: 8,
                vm: 6,
                attempt: 4,
            },
            FlightEv::Evacuate {
                vm: 6,
                from: 2,
                to: 0,
            },
            // Still open when the window ends.
            FlightEv::LockAcquire {
                vm: 1,
                vcpu: 2,
                thread: 0,
                lock: 6,
                wait: 0,
            },
            FlightEv::Dispatch {
                vcpu: 1,
                vm: 0,
                pcpu: 0,
            },
            FlightEv::MigratePrepare {
                span: 9,
                vm: 4,
                from: 1,
                to: 3,
                attempt: 1,
            },
        ]
        .into_iter()
        .enumerate()
        .map(|(i, ev)| FlightEvent {
            t: clk.us(10 * i as u64),
            ev,
        })
        .collect();
        let ep = LhpEpisode {
            vm: 1,
            lock: 7,
            holder_vcpu: 3,
            holder_thread: 1,
            start: clk.us(20),
            end: clk.us(40),
            preempted_for: clk.us(10),
            wasted_spin: clk.us(5),
            waiters: 1,
        };
        let doc = chrome_doc(&evs, &[ep], &topo2(), clk.ms(1));
        let text = |v: &Value| v.as_str().expect("a string name").to_string();
        let (meta, named): (Vec<&Value>, Vec<&Value>) = events_of(&doc)
            .iter()
            .partition(|e| *field(e, "ph") == Value::Str("M".into()));
        let meta: Vec<String> = meta
            .iter()
            .map(|e| text(field(e, "args").get("name").expect("args.name")))
            .collect();
        assert_eq!(
            meta,
            [
                "PCPUs",
                "pcpu0",
                "pcpu1",
                "V0",
                "vmm",
                "v0 (vmm)",
                "v1 (vmm)",
                "V1",
                "vmm",
                "v0 (vmm)",
                "v1 (vmm)",
                "migrations",
                "t0",
                "t1",
                "V1 LHP episodes",
            ]
        );
        let names: Vec<String> = named.iter().map(|e| text(field(e, "name"))).collect();
        assert_eq!(
            names,
            [
                "v9",
                "wake+boost",
                "wake",
                "steal 1->0",
                "migrate 0->1",
                "credit",
                "park",
                "unpark",
                "cosched burst",
                "VCRD high",
                "VCRD low",
                "futex block f3",
                "futex wake peer t2",
                "arrive b5",
                "release b5",
                "host 2 CRASH",
                "host 1 derate 40%",
                "migration abort (attempt 3)",
                "migration retry (attempt 4)",
                "evacuate 2->0",
                "V0/v1",
                "hold L6 (open)",
                "migrate vm4 1->3 (open)",
                "LHP L7 holder t1",
            ]
        );
    }

    #[test]
    fn futex_names_distinguish_peer_flags() {
        assert_eq!(futex_name(4), ("f", 4));
        assert_eq!(futex_name(PEER_FUTEX_BIT | 2), ("peer t", 2));
        // Exercise the unpatched sentinel to keep the import honest.
        assert_eq!(VM_UNPATCHED, u32::MAX);
    }
}
