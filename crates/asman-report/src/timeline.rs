//! Schedule-timeline reconstruction and rendering.
//!
//! Turns the VCPU transitions a machine's flight recorder captured into
//! per-VCPU online intervals and an ASCII Gantt chart — the tool that
//! made the duty-cycle geometry of the calibration visible (aligned vs
//! staggered windows, park/unpark quantization, gang formation under
//! coscheduling).

use asman_hypervisor::Machine;
use asman_sim::{merge_streams, CatMask, Clock, Cycles, FlightEv, FlightEvent, TraceCat};
use asman_workloads::{NasBenchmark, NasSpec, ProblemClass};
use serde::Serialize;

use crate::scenario::{Sched, SingleVmScenario};

/// A contiguous online interval of one VCPU.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct OnlineSpan {
    /// Global VCPU index.
    pub vcpu: usize,
    /// Owning VM.
    pub vm: usize,
    /// PCPU it ran on.
    pub pcpu: usize,
    /// Dispatch time.
    pub start: Cycles,
    /// Preempt, block or park time.
    pub end: Cycles,
}

/// Per-VCPU online spans reconstructed from flight-recorded transitions.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Timeline {
    /// All completed spans, in start order.
    pub spans: Vec<OnlineSpan>,
    /// Number of VCPUs observed.
    pub vcpus: usize,
}

impl Timeline {
    /// Arm `m`'s flight recorder with the categories the reconstruction
    /// reads, keeping up to `capacity` events per category: `sched` for
    /// dispatch, preempt, block and wake, `credit` for cap-enforcement
    /// parks.
    pub fn arm(m: &mut Machine, capacity: usize) {
        m.enable_flight(
            CatMask::only(TraceCat::Sched).with(TraceCat::Credit),
            capacity,
        );
    }

    /// Reconstruct from a machine armed with [`Timeline::arm`].
    pub fn from_machine(m: &Machine) -> Timeline {
        let mut open: Vec<Option<(Cycles, usize, usize)>> = Vec::new();
        let mut spans = Vec::new();
        for e in transitions(m) {
            match e.ev {
                FlightEv::Dispatch { vcpu, vm, pcpu } => {
                    *slot(&mut open, vcpu) = Some((e.t, pcpu as usize, vm as usize));
                }
                FlightEv::Preempt { vcpu, .. }
                | FlightEv::Block { vcpu, .. }
                | FlightEv::Park { vcpu, .. } => {
                    if let Some((start, pcpu, vm)) = slot(&mut open, vcpu).take() {
                        spans.push(OnlineSpan {
                            vcpu: vcpu as usize,
                            vm,
                            pcpu,
                            start,
                            end: e.t,
                        });
                    }
                }
                FlightEv::Wake { vcpu, .. } | FlightEv::Unpark { vcpu, .. } => {
                    slot(&mut open, vcpu);
                }
                _ => {}
            }
        }
        // Spans that end at one instant close in category order, not
        // record order; start order is canonical either way.
        spans.sort_by_key(|s| (s.start, s.vcpu, s.end, s.pcpu));
        Timeline {
            spans,
            vcpus: open.len(),
        }
    }

    /// The `repro timeline` testbed: LU at the 22.2% online rate under
    /// `sched`, traced for its first three simulated seconds.
    pub fn lu_testbed(sched: Sched, class: ProblemClass, seed: u64) -> Timeline {
        let lu = NasSpec::new(NasBenchmark::LU, class, 4).build(seed ^ 7);
        let mut m = SingleVmScenario::new(sched, 32, seed).build(Box::new(lu));
        Timeline::arm(&mut m, 500_000);
        m.run_until(Clock::default().secs(3));
        Timeline::from_machine(&m)
    }

    /// Total online time of `vcpu` within `[from, to]`.
    pub fn online_in(&self, vcpu: usize, from: Cycles, to: Cycles) -> Cycles {
        self.spans
            .iter()
            .filter(|s| s.vcpu == vcpu)
            .map(|s| {
                let a = s.start.max(from);
                let b = s.end.min(to);
                b.saturating_sub(a)
            })
            .sum()
    }

    /// Wake-to-dispatch latencies per VCPU of a machine armed with
    /// [`Timeline::arm`] (the metric behind Xen's BOOST mechanism).
    pub fn wake_latencies(m: &Machine) -> Vec<(usize, Cycles)> {
        let mut pending = Vec::new();
        let mut out = Vec::new();
        for e in m.flight().events(TraceCat::Sched) {
            match e.ev {
                FlightEv::Wake { vcpu, .. } => *slot(&mut pending, vcpu) = Some(e.t),
                FlightEv::Dispatch { vcpu, .. } => {
                    if let Some(w) = slot(&mut pending, vcpu).take() {
                        out.push((vcpu as usize, e.t.saturating_sub(w)));
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// ASCII Gantt chart of the window `[from, to]` with `cols` columns:
    /// one row per VCPU, `#` where online, `.` where not.
    pub fn gantt(&self, from: Cycles, to: Cycles, cols: usize) -> String {
        assert!(to > from && cols > 0);
        let step = (to - from) / cols as u64;
        let step = step.max(Cycles(1));
        let mut out = String::new();
        for v in 0..self.vcpus {
            out.push_str(&format!("vcpu{v:<3} "));
            for c in 0..cols {
                let a = from + step * c as u64;
                let b = a + step;
                let on = self.online_in(v, a, b);
                out.push(if on.as_u64() * 2 >= step.as_u64() {
                    '#'
                } else if on > Cycles::ZERO {
                    '+'
                } else {
                    '.'
                });
            }
            out.push('\n');
        }
        out
    }
}

/// The machine's VCPU transitions in time order: its `sched` events
/// merged with its `credit` events, which carry the parks.
fn transitions(m: &Machine) -> Vec<FlightEvent> {
    let f = m.flight();
    merge_streams(vec![
        f.events(TraceCat::Sched).to_vec(),
        f.events(TraceCat::Credit).to_vec(),
    ])
}

/// `v[i]`, growing `v` with `None`s to reach it.
fn slot<T>(v: &mut Vec<Option<T>>, i: u32) -> &mut Option<T> {
    let i = i as usize;
    if v.len() <= i {
        v.resize_with(i + 1, || None);
    }
    &mut v[i]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_machine(sched: Sched) -> Machine {
        let sc = SingleVmScenario::new(sched, 32, 42);
        let lu = NasSpec::new(NasBenchmark::LU, ProblemClass::S, 4).build(7);
        let mut m = sc.build(Box::new(lu));
        Timeline::arm(&mut m, 200_000);
        m.run_until(Clock::default().secs(2));
        m
    }

    #[test]
    fn spans_reconstruct_and_render() {
        let clk = Clock::default();
        let m = traced_machine(Sched::Credit);
        let tl = Timeline::from_machine(&m);
        assert!(!tl.spans.is_empty());
        // Spans are well-formed.
        for s in &tl.spans {
            assert!(s.end >= s.start, "span {s:?}");
        }
        let g = tl.gantt(clk.secs(1), clk.ms(1_500), 50);
        assert!(g.lines().count() >= 12, "dom0 8 + guest 4 vcpus");
        assert!(g.contains('#') || g.contains('+'));
    }

    #[test]
    fn online_time_matches_accounting_roughly() {
        let clk = Clock::default();
        let m = traced_machine(Sched::Credit);
        let tl = Timeline::from_machine(&m);
        // VM 1's vcpus are global 8..12 (after dom0's 8).
        let from = Cycles::ZERO;
        let to = m.now();
        let tl_online: u64 = (8..12).map(|v| tl.online_in(v, from, to).as_u64()).sum();
        let acct = m.vm_accounting(1).total_online().as_u64();
        let diff = (tl_online as i64 - acct as i64).unsigned_abs();
        // A final open span may be missing from the trace.
        assert!(
            diff < clk.ms(50).as_u64(),
            "timeline {tl_online} vs accounting {acct}"
        );
    }

    #[test]
    fn asman_gantt_shows_more_simultaneity() {
        let clk = Clock::default();
        let credit = Timeline::from_machine(&traced_machine(Sched::Credit));
        let asman = Timeline::from_machine(&traced_machine(Sched::Asman));
        // Count window steps where all four guest VCPUs are mostly online.
        let count_aligned = |tl: &Timeline| {
            let from = clk.ms(500);
            let step = clk.ms(1);
            (0..1_000)
                .filter(|&i| {
                    let a = from + step * i as u64;
                    let b = a + step;
                    (8..12).all(|v| tl.online_in(v, a, b).as_u64() * 2 >= step.as_u64())
                })
                .count()
        };
        let ca = count_aligned(&credit);
        let aa = count_aligned(&asman);
        assert!(
            aa > ca,
            "ASMan must show more fully-aligned milliseconds: {aa} vs {ca}"
        );
    }
}
