//! `trace`: the `repro trace` scenario (LU at the 22.2 % online rate,
//! Credit and ASMan) with every flight category armed. Each unit records
//! a short window and then exports it with `flightrec::capture` (Chrome
//! trace, LHP summary and metrics JSON), kept in memory until it is
//! digested. Like `repro trace`, each machine is recorded for its first
//! [`TRACE_WINDOW_SECS`] simulated seconds, here cut into bundles; a
//! pass traces several such machines per scheduler. Recording and
//! export drive the same engine differently; this is the only workload
//! that moves when tracing gets cheaper.

use crate::ledger::{self, Pass, Workload};
use crate::probe::{Probe, SpanTotals};
use asman_hypervisor::Machine;
use asman_report::flightrec::{self, TraceArtifacts, TRACE_WINDOW_SECS};
use asman_report::{Sched, SingleVmScenario};
use asman_sim::{CatMask, Cycles, Fnv};
use asman_workloads::{NasBenchmark, NasSpec, ProblemClass};
use std::time::Instant;

const SCHEDS: [Sched; 2] = [Sched::Credit, Sched::Asman];
/// V1's weight for the 22.2 % online rate.
const WEIGHT: u32 = 32;
/// Machines per scheduler in one pass, each on its own seed.
const MACHINES: u64 = 5;
/// Simulated length of one bundle's recording window.
const WINDOW_MS: u64 = 30;
/// Bundles per machine: its trace window cut into recording windows.
const BUNDLES: u64 = TRACE_WINDOW_SECS * 1000 / WINDOW_MS;
/// Simulated time each machine runs during set-up (recorded, then
/// discarded), so set-up includes real engine work.
const WARM_MS: u64 = 100;

pub struct Trace;

pub struct State {
    seed: u64,
    machines: Vec<(Sched, Machine)>,
    window: Cycles,
    /// FNV-1a over every bundle's bytes, in order.
    digest: Fnv,
    bundle_bytes: usize,
    events_at_start: u64,
}

/// Every machine of a pass, built from `seed` and warmed up, recorder
/// armed or not.
fn machines(seed: u64, recorded: bool) -> Vec<(Sched, Machine)> {
    let mut out = Vec::new();
    for k in 0..MACHINES {
        let seed = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for sched in SCHEDS {
            let sc = SingleVmScenario::new(sched, WEIGHT, seed);
            let lu = NasSpec::new(NasBenchmark::LU, ProblemClass::W, 4).build(seed ^ 7);
            let mut m = sc.build(Box::new(lu));
            if recorded {
                m.enable_flight(CatMask::ALL, flightrec::TRACE_CAPACITY);
            }
            let clk = m.config().clock;
            m.run_until(clk.ms(WARM_MS));
            drop(m.flight_events());
            out.push((sched, m));
        }
    }
    out
}

/// Fold a bundle's Chrome, LHP and metrics bytes into `h` and drop it;
/// returns its size.
fn digest_bundle(h: &mut Fnv, b: TraceArtifacts) -> usize {
    let mut n = 0;
    for part in [&b.chrome_json, &b.lhp_json, &b.metrics_json] {
        h.write_bytes(part);
        n += part.len();
    }
    n
}

impl Workload for Trace {
    type State = State;
    const PINS: &'static [(&'static str, u64)] = &[("bundle_bytes", 0x4ffdf8ba28bc64ee)];

    fn setup(&self, seed: u64, _tracing: bool) -> State {
        let machines = machines(seed, true);
        State {
            seed,
            window: machines[0].1.config().clock.ms(WINDOW_MS),
            events_at_start: machines.iter().map(|(_, m)| m.events_processed()).sum(),
            machines,
            digest: Fnv::new(),
            bundle_bytes: 0,
        }
    }

    fn run(&self, st: &mut State, probe: &mut Probe) {
        for (sched, m) in &mut st.machines {
            for _ in 0..BUNDLES {
                let bundle = probe.unit("flightrec.bundle", |p| {
                    let next = m.now() + st.window;
                    p.span("hypervisor.run_until", |_| m.run_until(next));
                    p.span("flightrec.capture", |_| {
                        flightrec::capture(m, sched.label())
                    })
                });
                st.bundle_bytes +=
                    probe.span("bench.digest", |_| digest_bundle(&mut st.digest, bundle));
            }
        }
    }

    fn finish(&self, st: State, spans: Option<&SpanTotals>) -> Pass {
        let mut pass = Pass::default();
        pass.digests.push(("bundle_bytes", st.digest.finish()));
        ledger::machine_counts(st.machines.iter().map(|(_, m)| m), &mut pass.counts);
        pass.counts
            .insert("flightrec.bundle_bytes", st.bundle_bytes as f64);
        if let Some(spans) = spans {
            let recorded = spans.self_s("hypervisor.run_until");
            let layers = &mut pass.layers;
            let timed_events = pass.counts["sim.events"] - st.events_at_start as f64;
            layers.insert("hypervisor.run_until_s", recorded);
            layers.insert(
                "sim.events_per_busy_s",
                ledger::ratio(timed_events, recorded),
            );
            layers.insert("flightrec.capture_ms", spans.mean_ms("flightrec.capture"));
            layers.insert(
                "flight.record_overhead",
                ledger::ratio(recorded, unrecorded_run_until_s(st.seed, st.window)),
            );
        }
        pass
    }
}

/// Host seconds `run_until` takes over the timed windows with the
/// recorder off: the baseline of `flight.record_overhead`.
fn unrecorded_run_until_s(seed: u64, window: Cycles) -> f64 {
    let mut busy = 0.0;
    for (_, mut m) in machines(seed, false) {
        for _ in 0..BUNDLES {
            let next = m.now() + window;
            let t0 = Instant::now();
            m.run_until(next);
            busy += t0.elapsed().as_secs_f64();
        }
    }
    busy
}
