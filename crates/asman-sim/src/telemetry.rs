//! Deterministic per-epoch time-series telemetry.
//!
//! The cluster driver advances every host to the epoch boundary and then
//! runs a serial barrier (delta collection, fault injection, balancing).
//! [`SeriesSampler`] captures one typed [`EpochSample`] per epoch *inside
//! that serial section*, so the recorded series is a pure function of the
//! simulation state and is bit-identical for every `--jobs` count. The
//! ring is fixed-capacity: once full, the oldest sample is evicted and
//! the drop is counted (with a once-per-ring stderr warning, mirroring
//! the flight recorder's accounting).
//!
//! [`detect_anomalies`] runs a trailing-window Nσ pass over the sampled
//! per-host metrics (wasted-spin delta, VCRD-HIGH delta), flagging the
//! epoch and host where a metric spiked above the recent baseline —
//! the "when did adaptation pressure emerge" question that end-of-run
//! aggregates cannot answer.

use std::collections::VecDeque;

use serde::Serialize;

use crate::trace::overflow_warning;

/// One host's slice of an epoch sample.
///
/// Field order is the serialized key order (the derive emits declared
/// order), so the artifact schema is stable and sorted comparisons like
/// `diff -r` never depend on map iteration order.
#[derive(Clone, Debug, Serialize)]
pub struct HostSample {
    /// Host index within the cluster.
    pub host: u32,
    /// VMs resident on the host at the barrier.
    pub resident_vms: u32,
    /// Total VCPUs of the resident VMs (the balancer's load notion).
    pub resident_vcpus: u32,
    /// VCPUs in the Runnable state at the epoch boundary (queued
    /// pressure; 0 for crashed hosts).
    pub runnable_vcpus: u32,
    /// Guest-online cycles accumulated by resident VMs this epoch.
    pub online_delta: u64,
    /// Wasted-spin cycles accumulated by resident VMs this epoch.
    pub spin_delta: u64,
    /// VCRD-HIGH raises observed across resident VMs this epoch.
    pub vcrd_high_delta: u64,
    /// Capacity derate in percent (0 = healthy full speed).
    pub derate_pct: u32,
    /// Whether the host has crashed (frozen, VMs evacuated).
    pub crashed: bool,
}

/// One epoch's cluster-wide telemetry sample.
#[derive(Clone, Debug, Serialize)]
pub struct EpochSample {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Live migration retry chains at the end of the barrier — a real
    /// count, bounded by the driver's per-epoch move budget
    /// (`--max-moves`).
    pub migrations_in_flight: u32,
    /// Fresh moves the balancer planned at this barrier (retry
    /// re-attempts not included).
    pub moves_planned: u32,
    /// Candidate moves the planner rejected at this barrier because a
    /// per-host send/receive cap was already claimed.
    pub moves_denied_conflict: u32,
    /// Cumulative committed migrations.
    pub migrations: u64,
    /// Cumulative aborted migration attempts.
    pub aborts: u64,
    /// Cumulative retries that eventually committed.
    pub retries_committed: u64,
    /// Cumulative VMs barred after exhausting their retry budget.
    pub gave_up: u64,
    /// Cumulative crash evacuations.
    pub evacuations: u64,
    /// Per-host slices, in host-index order.
    pub hosts: Vec<HostSample>,
}

/// Fixed-capacity ring of [`EpochSample`]s with drop accounting.
///
/// Keeps the most recent `capacity` samples; older samples are evicted
/// and counted. The first eviction emits a single stderr warning (via
/// [`crate::trace::overflow_warning`], so `-q` runs can suppress it).
#[derive(Clone, Debug)]
pub struct SeriesSampler {
    ring: VecDeque<EpochSample>,
    capacity: usize,
    seen: u64,
    warned: bool,
}

impl SeriesSampler {
    /// An empty sampler holding at most `capacity` samples (min 1).
    pub fn new(capacity: usize) -> Self {
        SeriesSampler {
            ring: VecDeque::new(),
            capacity: capacity.max(1),
            seen: 0,
            warned: false,
        }
    }

    /// Record one epoch sample, evicting the oldest if the ring is full.
    pub fn push(&mut self, sample: EpochSample) {
        self.seen += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            if !self.warned {
                self.warned = true;
                overflow_warning(&format!(
                    "telemetry series ring full ({} samples); dropping oldest epochs",
                    self.capacity
                ));
            }
        }
        self.ring.push_back(sample);
    }

    /// Samples currently retained, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &EpochSample> + '_ {
        self.ring.iter()
    }

    /// Total samples ever pushed.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Samples evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.seen - self.ring.len() as u64
    }

    /// Whether the once-per-ring overflow warning has fired.
    pub fn warned(&self) -> bool {
        self.warned
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// One flagged metric spike: `value` exceeded the trailing-window mean
/// by more than Nσ at (`epoch`, `host`).
#[derive(Clone, Debug, Serialize)]
pub struct Anomaly {
    /// Epoch where the spike was observed.
    pub epoch: u64,
    /// Host whose metric spiked.
    pub host: u32,
    /// Metric name (`"spin_delta"` or `"vcrd_high_delta"`).
    pub metric: String,
    /// Observed value at the flagged epoch.
    pub value: f64,
    /// Trailing-window mean the value was compared against.
    pub mean: f64,
    /// Trailing-window standard deviation.
    pub sigma: f64,
}

/// A named projection of one [`HostSample`] field onto `f64`.
pub type HostMetric = (&'static str, fn(&HostSample) -> f64);

/// Per-host metrics eligible for the anomaly pass.
const ANOMALY_METRICS: [HostMetric; 2] = [
    ("spin_delta", |h| h.spin_delta as f64),
    ("vcrd_high_delta", |h| h.vcrd_high_delta as f64),
];

/// Trailing-window Nσ anomaly pass over a sampled series.
///
/// For every host and every metric in the pass, an epoch is flagged when
/// at least `window` prior samples exist for that host and the value
/// exceeds `mean + nsigma * sigma` of the trailing `window` samples
/// (strictly above the mean when the window is flat, so a constant
/// series is never flagged). The trailing window must be
/// **epoch-contiguous** with the flagged sample: a host that is absent
/// from some epochs (ring eviction, partial series) resets its window
/// at the gap, so a value is never judged against a mean drawn from
/// non-adjacent history. Pure arithmetic over the samples —
/// deterministic given a deterministic series.
pub fn detect_anomalies(samples: &[EpochSample], window: usize, nsigma: f64) -> Vec<Anomaly> {
    let window = window.max(2);
    let mut anomalies = Vec::new();
    let hosts = samples.iter().map(|s| s.hosts.len()).max().unwrap_or(0);
    for (metric, extract) in ANOMALY_METRICS {
        for host in 0..hosts {
            let series: Vec<(u64, f64)> = samples
                .iter()
                .filter_map(|s| s.hosts.get(host).map(|h| (s.epoch, extract(h))))
                .collect();
            for i in window..series.len() {
                // Epochs are strictly increasing, so the window plus
                // the judged sample span exactly `window` consecutive
                // epochs iff the endpoints differ by exactly `window`.
                // A gap anywhere inside widens the difference and the
                // window is skipped until it refills past the gap.
                if series[i].0 != series[i - window].0 + window as u64 {
                    continue;
                }
                let trail = &series[i - window..i];
                let mean = trail.iter().map(|(_, v)| v).sum::<f64>() / window as f64;
                let var = trail
                    .iter()
                    .map(|(_, v)| (v - mean) * (v - mean))
                    .sum::<f64>()
                    / window as f64;
                let sigma = var.sqrt();
                let (epoch, value) = series[i];
                let threshold = mean + nsigma * sigma;
                let flagged = if sigma > 0.0 {
                    value > threshold
                } else {
                    value > mean
                };
                if flagged {
                    anomalies.push(Anomaly {
                        epoch,
                        host: host as u32,
                        metric: metric.to_string(),
                        value,
                        mean,
                        sigma,
                    });
                }
            }
        }
    }
    // Deterministic presentation order: by epoch, then host, then metric.
    anomalies.sort_by(|a, b| {
        (a.epoch, a.host, a.metric.as_str()).cmp(&(b.epoch, b.host, b.metric.as_str()))
    });
    anomalies
}

/// Render `values` as a fixed-palette ASCII sparkline (one char per
/// value, scaled to the series min..max; flat series render as all-low).
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: &[u8] = b" .:-=+*#@";
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    values
        .iter()
        .map(|&v| {
            let t = if hi > lo { (v - lo) / (hi - lo) } else { 0.0 };
            let idx = (t * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[idx.min(LEVELS.len() - 1)] as char
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(epoch: u64, spins: &[u64]) -> EpochSample {
        EpochSample {
            epoch,
            migrations_in_flight: 0,
            moves_planned: 0,
            moves_denied_conflict: 0,
            migrations: 0,
            aborts: 0,
            retries_committed: 0,
            gave_up: 0,
            evacuations: 0,
            hosts: spins
                .iter()
                .enumerate()
                .map(|(h, &s)| HostSample {
                    host: h as u32,
                    resident_vms: 1,
                    resident_vcpus: 2,
                    runnable_vcpus: 1,
                    online_delta: 100,
                    spin_delta: s,
                    vcrd_high_delta: 0,
                    derate_pct: 0,
                    crashed: false,
                })
                .collect(),
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut s = SeriesSampler::new(3);
        for e in 0..5 {
            s.push(sample(e, &[0]));
        }
        let kept: Vec<u64> = s.samples().map(|x| x.epoch).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest epochs evicted first");
        assert_eq!(s.seen(), 5);
        assert_eq!(s.dropped(), 2);
        assert!(s.warned(), "first eviction latches the warning");
    }

    #[test]
    fn ring_under_capacity_never_warns() {
        let mut s = SeriesSampler::new(8);
        for e in 0..8 {
            s.push(sample(e, &[0]));
        }
        assert_eq!(s.dropped(), 0);
        assert!(!s.warned());
    }

    #[test]
    fn anomaly_pass_flags_spike_with_epoch_and_host() {
        // Host 0 is flat; host 1 spikes at epoch 6.
        let mut samples = Vec::new();
        for e in 0..8u64 {
            let h1 = if e == 6 { 5000 } else { 100 + (e % 2) };
            samples.push(sample(e, &[100, h1]));
        }
        let found = detect_anomalies(&samples, 4, 3.0);
        assert_eq!(found.len(), 1, "exactly the spike: {found:?}");
        assert_eq!((found[0].epoch, found[0].host), (6, 1));
        assert_eq!(found[0].metric, "spin_delta");
        assert!(found[0].value > found[0].mean + 3.0 * found[0].sigma);
    }

    #[test]
    fn anomaly_pass_ignores_flat_series() {
        let samples: Vec<EpochSample> = (0..10).map(|e| sample(e, &[42, 42])).collect();
        assert!(detect_anomalies(&samples, 4, 3.0).is_empty());
    }

    /// Regression: a host absent from some epochs (ring eviction, a
    /// crashed host dropped from a partial series) used to have its
    /// trailing window silently straddle the gap — the spike right
    /// after the gap was judged against a mean drawn from epochs that
    /// are not its recent history. The window must reset at any gap.
    #[test]
    fn anomaly_window_resets_at_epoch_gaps() {
        // Host 1 is flat at 100 for epochs 0..=4, absent for epochs
        // 5..=19 (its sample row is missing entirely), then returns
        // with a big value at epoch 20. Pre-fix, the filter_map series
        // is [(0,100)..(4,100),(20,5000)]: the trailing window
        // [1,2,3,4] "precedes" epoch 20 positionally and the spike is
        // flagged against history from 16 epochs ago. Post-fix the
        // window straddling the gap is skipped.
        let mut samples = Vec::new();
        for e in 0..5u64 {
            samples.push(sample(e, &[100, 100]));
        }
        for e in 5..20u64 {
            samples.push(sample(e, &[100]));
        }
        samples.push(sample(20, &[100, 5000]));
        let found = detect_anomalies(&samples, 4, 3.0);
        assert!(
            found.is_empty(),
            "window straddling a sample gap must not judge the spike: {found:?}"
        );
        // The same spike with contiguous history is still caught: once
        // the host's samples refill past the gap, flagging resumes.
        for e in 21..27u64 {
            samples.push(sample(e, &[100, 100 + (e % 2)]));
        }
        samples.push(sample(27, &[100, 5000]));
        let found = detect_anomalies(&samples, 4, 3.0);
        assert_eq!(found.len(), 1, "contiguous spike still flagged: {found:?}");
        assert_eq!((found[0].epoch, found[0].host), (27, 1));
    }

    #[test]
    fn sparkline_scales_to_extremes() {
        let line = sparkline(&[0.0, 1.0, 0.5]);
        assert_eq!(line.len(), 3);
        assert_eq!(line.as_bytes()[0], b' ');
        assert_eq!(line.as_bytes()[1], b'@');
        assert_eq!(sparkline(&[7.0, 7.0]), "  ", "flat series renders all-low");
        assert_eq!(sparkline(&[]), "");
    }
}
