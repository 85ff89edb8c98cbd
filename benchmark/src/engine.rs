//! `engine`: single-host NAS models on the §5.2 testbed (V1 at the
//! 22.2 % online rate) under Credit and ASMan, run to completion one
//! 60 ms simulated slice at a time. The event queue, dispatch and
//! accounting, the guest spin paths and the ASMan monitor do almost all
//! the work; the pool, balancer, checkpoint and export layers do none.

use crate::ledger::{self, Pass, Values, Workload};
use crate::probe::{Probe, SpanTotals};
use asman_hypervisor::Machine;
use asman_report::{Sched, SingleVmOutcome, SingleVmScenario};
use asman_sim::Cycles;
use asman_workloads::{NasBenchmark, NasSpec, ProblemClass};

/// Sync-heavy (LU, SP) and sync-free (EP) programs.
const PROGRAMS: [NasBenchmark; 3] = [NasBenchmark::LU, NasBenchmark::SP, NasBenchmark::EP];
const SCHEDS: [Sched; 2] = [Sched::Credit, Sched::Asman];
/// V1's weight for the 22.2 % online rate.
const WEIGHT: u32 = 32;
const SLICE_MS: u64 = 60;
/// Slices each machine runs during set-up, before timing starts.
const WARM_SLICES: u32 = 5;
/// The measured VM (V0 is the idle administrator VM).
const V1: usize = 1;

pub struct Engine;

pub struct State {
    runs: Vec<Run>,
}

struct Run {
    machine: Machine,
    slice: Cycles,
    horizon: Cycles,
    events_at_start: u64,
    outcome: Option<SingleVmOutcome>,
}

impl Run {
    fn done(&self) -> bool {
        self.machine.vm_kernel(V1).is_finished() || self.machine.now() >= self.horizon
    }

    fn step(&mut self) {
        let next = self.machine.now() + self.slice;
        self.machine.run_until(next);
    }
}

impl Workload for Engine {
    type State = State;
    const PINS: &'static [(&'static str, u64)] = &[
        ("LU-Credit", 0x991d103613e1a83f),
        ("LU-ASMan", 0xae55ea3ff6ed87ef),
        ("SP-Credit", 0xe8a591cb7aea1df5),
        ("SP-ASMan", 0x64a8a225ddec3481),
        ("EP-Credit", 0xe30c379266a79cf7),
        ("EP-ASMan", 0xc2df3138092a4488),
    ];

    fn setup(&self, seed: u64, _tracing: bool) -> State {
        let mut runs = Vec::new();
        for bench in PROGRAMS {
            for sched in SCHEDS {
                let sc = SingleVmScenario::new(sched, WEIGHT, seed);
                let program = NasSpec::new(bench, ProblemClass::W, 4).build(seed ^ 7);
                let machine = sc.build(Box::new(program));
                let clk = machine.config().clock;
                let mut run = Run {
                    slice: clk.ms(SLICE_MS),
                    horizon: clk.secs(sc.horizon_secs),
                    machine,
                    events_at_start: 0,
                    outcome: None,
                };
                for _ in 0..WARM_SLICES {
                    run.step();
                }
                run.events_at_start = run.machine.events_processed();
                runs.push(run);
            }
        }
        State { runs }
    }

    fn run(&self, st: &mut State, probe: &mut Probe) {
        for run in &mut st.runs {
            while !run.done() {
                probe.unit("hypervisor.run_until", |_| run.step());
            }
            let completed = run.machine.vm_kernel(V1).is_finished();
            run.outcome = Some(probe.span("report.collect", |_| {
                SingleVmOutcome::collect(&run.machine, V1, completed)
            }));
        }
    }

    fn finish(&self, st: State, spans: Option<&SpanTotals>) -> Pass {
        let mut pass = Pass::default();
        let mut timed_events = 0;
        for (run, (name, _)) in st.runs.iter().zip(Self::PINS) {
            let outcome = run.outcome.as_ref().expect("timed phase ran");
            pass.checks.push(("engine.completed", outcome.completed));
            pass.digests.push((
                name,
                ledger::fold([
                    run.machine.state_fingerprint(),
                    outcome.run_secs.to_bits(),
                    outcome.locks,
                    outcome.vcrd_raises,
                ]),
            ));
            timed_events += run.machine.events_processed() - run.events_at_start;
        }
        ledger::machine_counts(st.runs.iter().map(|r| &r.machine), &mut pass.counts);
        if let Some(spans) = spans {
            pass.layers = layers(spans, timed_events as f64);
        }
        pass
    }
}

fn layers(spans: &SpanTotals, timed_events: f64) -> Values {
    let busy = spans.self_s("hypervisor.run_until");
    Values::from([
        ("hypervisor.run_until_s", busy),
        ("sim.events_per_busy_s", ledger::ratio(timed_events, busy)),
    ])
}
