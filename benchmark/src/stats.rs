//! Summary statistics and process memory readings.

/// Samples that must lie beyond a reported percentile. With ten, p99
/// needs at least 1000 samples.
pub const TAIL_SAMPLES: usize = 10;

/// The `pct`-th percentile of `xs` by nearest rank, refused unless at
/// least [`TAIL_SAMPLES`] samples lie beyond it.
pub fn tail_percentile(xs: &[f64], pct: u32) -> Result<f64, String> {
    assert!((1..100).contains(&pct), "percentile must be 1..=99");
    let n = xs.len();
    let beyond = n * (100 - pct as usize) / 100;
    if beyond < TAIL_SAMPLES {
        return Err(format!(
            "p{pct} needs {TAIL_SAMPLES} samples beyond it; {n} samples leave {beyond}"
        ));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (n * pct as usize).div_ceil(100);
    Ok(v[rank - 1])
}

/// The smallest of `xs`: the pass least slowed by other tenants of the
/// host, whose contention only ever adds time.
pub fn fastest(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fastest of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the default exclusive method),
/// so the steadiness report matches how the spread is judged.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Peak resident set size in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kb = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kb)
}

/// This process's peak resident set size in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        let err = tail_percentile(&xs, 99).unwrap_err();
        assert!(err.contains("999 samples leave 9"), "{err}");
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Nearest rank 990 of 1..=1000; ten samples lie beyond it.
        assert_eq!(tail_percentile(&xs, 99), Ok(990.0));
        assert!(tail_percentile(&xs[..200], 95).is_ok());
        assert!(tail_percentile(&xs[..199], 95).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn vm_hwm_parses_the_status_line() {
        let status = "Name:\tasman\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51234));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t x kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
        let own = std::fs::read_to_string("/proc/self/status").expect("procfs");
        assert!(parse_vm_hwm_kb(&own).is_some_and(|kb| kb > 0));
    }
}
