//! A unified metrics registry shared by every layer of the stack.
//!
//! The hypervisor, the guest kernels and the reporting layer each keep
//! their own ad-hoc counters; [`MetricsRegistry`] gives them one place to
//! register named counters, gauges and quantile histograms so a run can
//! be serialized into a single `metrics.json` artifact. Names are kept in
//! sorted order (`BTreeMap`), so serialization is deterministic.
//!
//! Histograms reuse the P² streaming estimator from [`crate::quantile`]:
//! constant memory per histogram, no sample retention.

use std::collections::BTreeMap;

use serde::{Serialize, Value};

use crate::quantile::P2Quantile;

/// A streaming histogram: count/min/max/mean plus P² estimates of the
/// 50th, 90th and 99th percentiles.
#[derive(Clone, Debug)]
pub struct QuantileHist {
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
    p50: P2Quantile,
    p90: P2Quantile,
    p99: P2Quantile,
}

impl Default for QuantileHist {
    fn default() -> Self {
        QuantileHist {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            p50: P2Quantile::new(0.50),
            p90: P2Quantile::new(0.90),
            p99: P2Quantile::new(0.99),
        }
    }
}

impl QuantileHist {
    /// Record one observation.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.sum += x;
        self.p50.observe(x);
        self.p90.observe(x);
        self.p99.observe(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty). Exact, not estimated — a
    /// single absurd sample (e.g. a stale latency stamp consumed by a
    /// reused VM slot) is visible here when every quantile hides it.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the observations (`None` if empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Estimated quantile: `q` must be one of 0.5, 0.9, 0.99.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if q == 0.50 {
            self.p50.estimate()
        } else if q == 0.90 {
            self.p90.estimate()
        } else if q == 0.99 {
            self.p99.estimate()
        } else {
            None
        }
    }
}

impl Serialize for QuantileHist {
    fn to_value(&self) -> Value {
        let opt = |v: Option<f64>| v.map(Value::F64).unwrap_or(Value::Null);
        Value::Object(vec![
            ("count".to_string(), Value::U64(self.count)),
            (
                "min".to_string(),
                if self.count > 0 {
                    Value::F64(self.min)
                } else {
                    Value::Null
                },
            ),
            (
                "max".to_string(),
                if self.count > 0 {
                    Value::F64(self.max)
                } else {
                    Value::Null
                },
            ),
            ("mean".to_string(), opt(self.mean())),
            ("p50".to_string(), opt(self.p50.estimate())),
            ("p90".to_string(), opt(self.p90.estimate())),
            ("p99".to_string(), opt(self.p99.estimate())),
        ])
    }
}

/// Named counters, gauges and quantile histograms for one run.
///
/// Metric names are dotted paths by convention
/// (`"hv.sched.dispatches"`, `"vm1.guest.lock_acquisitions"`); every
/// map is a `BTreeMap`, so iteration — and therefore the serialized
/// artifact — is in sorted name order, independent of registration
/// order.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, QuantileHist>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `by` to the counter `name` (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Set the gauge `name` to `value` (last write wins).
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Record one observation into the histogram `name`.
    pub fn observe(&mut self, name: &str, x: f64) {
        self.hists.entry(name.to_string()).or_default().observe(x);
    }

    /// Install a fully-built histogram under `name` (last write wins).
    ///
    /// P² estimators cannot be merged observation-by-observation, so
    /// layers that already own a [`QuantileHist`] (e.g. the hypervisor's
    /// scheduler-latency telemetry) export it wholesale instead of
    /// replaying samples.
    pub fn set_hist(&mut self, name: &str, hist: QuantileHist) {
        self.hists.insert(name.to_string(), hist);
    }

    /// Merge every metric of `other` into `self` under `prefix`.
    ///
    /// Counters accumulate (a name collision adds, matching [`Self::inc`]),
    /// gauges overwrite (last write wins, matching [`Self::gauge`]), and
    /// histograms are cloned wholesale — P² quantile state cannot be
    /// re-merged, so a histogram name collision is also last-write-wins.
    /// Used to fold per-host registries into one cluster-wide dump
    /// (`host0.`, `host1.`, … prefixes keep the namespaces disjoint).
    pub fn merge_prefixed(&mut self, prefix: &str, other: &MetricsRegistry) {
        for (name, value) in &other.counters {
            self.inc(&format!("{prefix}{name}"), *value);
        }
        for (name, value) in &other.gauges {
            self.gauge(&format!("{prefix}{name}"), *value);
        }
        for (name, hist) in &other.hists {
            self.set_hist(&format!("{prefix}{name}"), hist.clone());
        }
    }

    /// Current value of a counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// All counters in sorted name order, for re-prefixing one
    /// registry into another (e.g. per-host registries merged into a
    /// cluster-wide dump).
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Current value of a gauge, if registered.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram by name, if registered.
    pub fn hist(&self, name: &str) -> Option<&QuantileHist> {
        self.hists.get(name)
    }

    /// Number of registered metrics across all kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.hists.len()
    }

    /// Whether the registry holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Serialize for MetricsRegistry {
    fn to_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::U64(*v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), Value::F64(*v)))
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        Value::Object(vec![
            ("counters".to_string(), Value::Object(counters)),
            ("gauges".to_string(), Value::Object(gauges)),
            ("histograms".to_string(), Value::Object(hists)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        r.inc("a.b", 2);
        r.inc("a.b", 3);
        r.gauge("g", 1.0);
        r.gauge("g", 2.5);
        assert_eq!(r.counter("a.b"), Some(5));
        assert_eq!(r.gauge_value("g"), Some(2.5));
        assert_eq!(r.counter("missing"), None);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn histogram_tracks_extremes_and_quantiles() {
        let mut r = MetricsRegistry::new();
        for i in 1..=1000 {
            r.observe("h", i as f64);
        }
        let h = r.hist("h").unwrap();
        assert_eq!(h.count(), 1000);
        assert_eq!(h.mean(), Some(500.5));
        let p50 = h.quantile(0.50).unwrap();
        assert!((p50 - 500.0).abs() < 25.0, "p50 ≈ 500, got {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 990.0).abs() < 25.0, "p99 ≈ 990, got {p99}");
        assert_eq!(h.quantile(0.42), None);
    }

    #[test]
    fn serialization_is_sorted_and_complete() {
        let mut r = MetricsRegistry::new();
        r.inc("z.last", 1);
        r.inc("a.first", 2);
        r.observe("h", 3.0);
        let Value::Object(top) = r.to_value() else {
            panic!("registry must serialize to an object");
        };
        assert_eq!(top[0].0, "counters");
        let Value::Object(counters) = &top[0].1 else {
            panic!("counters must be an object");
        };
        let names: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            vec!["a.first", "z.last"],
            "sorted regardless of insertion"
        );
        let Value::Object(hists) = &top[2].1 else {
            panic!("histograms must be an object");
        };
        assert_eq!(hists.len(), 1);
    }

    #[test]
    fn merged_registry_serializes_in_sorted_key_order() {
        // Host registries folded in descending host order (the worst
        // case for insertion-ordered maps) must still serialize with
        // every section's keys sorted — the cluster metrics artifact
        // relies on this for byte-identity across worker counts.
        let mut host = MetricsRegistry::new();
        host.inc("sched.dispatches", 1);
        host.gauge("load", 0.5);
        host.observe("lat", 2.0);
        let mut merged = MetricsRegistry::new();
        merged.inc("cluster.migrations", 1);
        for h in [2usize, 0, 1] {
            merged.merge_prefixed(&format!("host{h}."), &host);
        }
        let Value::Object(top) = merged.to_value() else {
            panic!("registry must serialize to an object");
        };
        for (section, value) in &top {
            let Value::Object(entries) = value else {
                panic!("{section} must be an object");
            };
            let names: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            assert_eq!(names, sorted, "{section} keys must serialize sorted");
        }
        let Value::Object(counters) = &top[0].1 else {
            unreachable!()
        };
        assert_eq!(
            counters.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec![
                "cluster.migrations",
                "host0.sched.dispatches",
                "host1.sched.dispatches",
                "host2.sched.dispatches"
            ]
        );
    }

    #[test]
    fn quantiles_at_tiny_sample_counts() {
        // n = 0: everything is None.
        let empty = QuantileHist::default();
        for q in [0.50, 0.90, 0.99] {
            assert_eq!(empty.quantile(q), None, "empty hist must estimate nothing");
        }
        assert_eq!(empty.mean(), None);

        // n = 1: every quantile is the single observation.
        let mut one = QuantileHist::default();
        one.observe(7.0);
        for q in [0.50, 0.90, 0.99] {
            assert_eq!(one.quantile(q), Some(7.0), "q={q} of a single sample");
        }

        // n = 2: estimates must stay inside [min, max].
        let mut two = QuantileHist::default();
        two.observe(1.0);
        two.observe(9.0);
        for q in [0.50, 0.90, 0.99] {
            let v = two.quantile(q).unwrap();
            assert!(
                (1.0..=9.0).contains(&v),
                "q={q} estimate {v} outside [1, 9]"
            );
        }

        // n = 4: still below the 5-marker P² warm-up; estimates must be
        // finite, within range, and monotone across quantiles.
        let mut four = QuantileHist::default();
        for x in [2.0, 4.0, 6.0, 8.0] {
            four.observe(x);
        }
        let (p50, p90, p99) = (
            four.quantile(0.50).unwrap(),
            four.quantile(0.90).unwrap(),
            four.quantile(0.99).unwrap(),
        );
        for v in [p50, p90, p99] {
            assert!(
                v.is_finite() && (2.0..=8.0).contains(&v),
                "estimate {v} out of range"
            );
        }
        assert!(
            p50 <= p90 && p90 <= p99,
            "quantiles must be monotone: {p50} {p90} {p99}"
        );
    }

    #[test]
    fn merge_prefixed_accumulates_collisions() {
        let mut dst = MetricsRegistry::new();
        dst.inc("host0.hits", 3);
        dst.gauge("host0.temp", 1.0);

        let mut src = MetricsRegistry::new();
        src.inc("hits", 4);
        src.gauge("temp", 9.5);
        src.observe("lat", 2.0);
        src.observe("lat", 6.0);

        dst.merge_prefixed("host0.", &src);
        assert_eq!(
            dst.counter("host0.hits"),
            Some(7),
            "counter collision accumulates"
        );
        assert_eq!(
            dst.gauge_value("host0.temp"),
            Some(9.5),
            "gauge collision overwrites"
        );
        let h = dst.hist("host0.lat").expect("hist cloned under prefix");
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), Some(4.0));
        // The source registry is untouched.
        assert_eq!(src.counter("hits"), Some(4));
    }

    #[test]
    fn merge_prefixed_empty_registry_is_a_noop() {
        let mut dst = MetricsRegistry::new();
        dst.inc("kept", 1);
        dst.merge_prefixed("host9.", &MetricsRegistry::new());
        assert_eq!(dst.len(), 1);
        assert_eq!(dst.counter("kept"), Some(1));

        // And merging into an empty registry lands everything prefixed.
        let mut src = MetricsRegistry::new();
        src.inc("c", 2);
        let mut fresh = MetricsRegistry::new();
        fresh.merge_prefixed("hostA.", &src);
        assert_eq!(fresh.counter("hostA.c"), Some(2));
        assert_eq!(fresh.counter("c"), None, "unprefixed name must not leak");
    }

    #[test]
    fn set_hist_installs_wholesale() {
        let mut h = QuantileHist::default();
        h.observe(5.0);
        let mut r = MetricsRegistry::new();
        r.set_hist("lat", h);
        assert_eq!(r.hist("lat").unwrap().count(), 1);
        assert_eq!(r.hist("lat").unwrap().quantile(0.50), Some(5.0));
    }

    #[test]
    fn empty_histogram_serializes_nulls() {
        let h = QuantileHist::default();
        let Value::Object(fields) = h.to_value() else {
            panic!("hist must serialize to an object");
        };
        assert!(fields.iter().any(|(k, v)| k == "min" && *v == Value::Null));
    }
}
