//! Benchmark-owned instrumentation. Every top-level call of a pass (a
//! *step*) and every workload unit is timed; in a traced pass each call
//! the benchmark makes into a layer's public API is also recorded as a
//! span (name, start, end, parent), kept in memory and written out when
//! the run ends. Nothing here reaches inside the program.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call. Times are nanoseconds since the probe's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name of the call, e.g. `cluster.run_epoch`.
    pub name: &'static str,
    /// Start, in nanoseconds since the probe's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the probe's origin.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// Step and unit timer and (when tracing) span recorder for one pass.
pub struct Probe {
    origin: Instant,
    tracing: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    depth: usize,
    steps: Vec<f64>,
    units: Vec<f64>,
}

impl Probe {
    /// A probe for one pass; spans are recorded only when `tracing`.
    pub fn new(tracing: bool) -> Probe {
        Probe {
            origin: Instant::now(),
            tracing,
            spans: Vec::new(),
            open: Vec::new(),
            depth: 0,
            steps: Vec::new(),
            units: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` (recorded only when tracing);
    /// a call made outside every other span is also timed as a step.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Probe) -> T) -> T {
        let step = (self.depth == 0).then(Instant::now);
        self.depth += 1;
        let out = if self.tracing {
            self.record(name, f)
        } else {
            f(self)
        };
        self.depth -= 1;
        if let Some(t0) = step {
            self.steps.push(t0.elapsed().as_secs_f64());
        }
        out
    }

    fn record<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Probe) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Run one workload unit: always timed for the tail percentile, and
    /// a span named `name` when tracing.
    pub fn unit<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Probe) -> T) -> T {
        let t0 = Instant::now();
        let out = self.span(name, f);
        self.units.push(t0.elapsed().as_secs_f64());
        out
    }

    /// Host seconds of every unit run so far, in order.
    pub fn units(&self) -> &[f64] {
        &self.units
    }

    /// Host seconds of every step run so far, in order. The steps of a
    /// pass cover its timed phase but for the loop between them.
    pub fn steps(&self) -> &[f64] {
        &self.steps
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children may overlap one another (calls
/// made from several threads), so the covered part is the length of the
/// union of their intervals, clipped to the parent's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(kids)
        .map(|(s, mut k)| {
            k.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in k {
                let (a, b) = (a.clamp(s.start_ns, s.end_ns), b.clamp(s.start_ns, s.end_ns));
                match run {
                    Some((ra, rb)) if a <= rb => run = Some((ra, rb.max(b))),
                    _ => {
                        if let Some((ra, rb)) = run {
                            covered += rb - ra;
                        }
                        run = Some((a, b));
                    }
                }
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-name totals of one traced pass.
#[derive(Clone, Debug, Default)]
pub struct SpanTotals {
    by_name: BTreeMap<&'static str, Totals>,
}

/// Summed self time, summed duration and call count of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Summed self time, seconds.
    pub self_s: f64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Number of calls.
    pub calls: u64,
}

impl SpanTotals {
    /// Fold `spans` into per-name totals.
    pub fn of(spans: &[Span]) -> SpanTotals {
        let mut by_name: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let t = by_name.entry(s.name).or_default();
            t.self_s += own as f64 * 1e-9;
            t.total_s += (s.end_ns - s.start_ns) as f64 * 1e-9;
            t.calls += 1;
        }
        SpanTotals { by_name }
    }

    /// Totals of `name` (zero when it was never called).
    pub fn get(&self, name: &str) -> Totals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Summed self time of `name`, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.get(name).self_s
    }

    /// Mean duration of one `name` call in milliseconds (zero when never
    /// called).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let t = self.get(name);
        if t.calls == 0 {
            0.0
        } else {
            t.total_s * 1e3 / t.calls as f64
        }
    }
}

/// Serialize spans for the end-of-run dump.
pub fn spans_to_value(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".to_string(), Value::Str(s.name.to_string())),
                    ("start_ns".to_string(), Value::U64(s.start_ns)),
                    ("end_ns".to_string(), Value::U64(s.end_ns)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 60, 70, Some(0)),
        ];
        // The grandchild is subtracted from its parent, not the root.
        assert_eq!(self_times(&spans), vec![50, 30, 10, 10]);
    }

    #[test]
    fn self_time_takes_the_union_of_overlapping_children() {
        let spans = [
            span("root", 0, 100, None),
            span("w0", 10, 60, Some(0)),
            span("w1", 40, 80, Some(0)),
            span("w2", 45, 50, Some(0)),
            // Runs past its parent's end: only the overlap counts.
            span("late", 90, 130, Some(0)),
        ];
        // Covered: [10, 80] + [90, 100] = 80.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn probe_nests_spans_and_times_units() {
        let mut p = Probe::new(true);
        p.span("outer", |p| {
            p.unit("u", |p| p.span("inner", |_| ()));
            p.unit("u", |_| ());
        });
        let names: Vec<_> = p.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None),
                ("u", Some(0)),
                ("inner", Some(1)),
                ("u", Some(0))
            ]
        );
        assert_eq!(p.units().len(), 2);
        let totals = SpanTotals::of(p.spans());
        assert_eq!(totals.get("u").calls, 2);

        assert_eq!(p.steps().len(), 1, "only the outer span is a step");

        let mut quiet = Probe::new(false);
        quiet.unit("u", |p| p.span("inner", |_| ()));
        quiet.span("other", |_| ());
        assert!(quiet.spans().is_empty());
        assert_eq!(quiet.units().len(), 1);
        assert_eq!(quiet.steps().len(), 2);
    }
}
