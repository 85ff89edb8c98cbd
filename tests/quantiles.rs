//! Wait-time quantiles via the P² estimator, cross-checked against the
//! waits of a flight-recorded window — demonstrating the streaming
//! statistics on real data.

use asman::prelude::*;
use asman::report::{Sched, SingleVmScenario, WaitWindow};
use asman::sim::{P2Quantile, QuantileHist};

/// The waits ≥ 2^10 cycles of VM 1 over the first 3 s of LU class S
/// at `weight`, in observation order, and the machine that ran them.
fn first_three_seconds(weight: u32) -> (Vec<u64>, Machine) {
    let clk = Clock::default();
    let sc = SingleVmScenario::new(Sched::Credit, weight, 42);
    let lu = NasSpec::new(NasBenchmark::LU, ProblemClass::S, 4).build(7);
    let mut m = sc.build(Box::new(lu));
    let w = WaitWindow::collect(&mut m, 1, Cycles::ZERO, clk.secs(3));
    (w.samples.iter().map(|&(_, wait)| wait).collect(), m)
}

#[test]
fn p2_median_matches_trace_median_on_real_waits() {
    let (waits, _) = first_three_seconds(64);
    assert!(waits.len() > 200, "need wait data, got {}", waits.len());
    let mut est = P2Quantile::new(0.5);
    for &w in &waits {
        est.observe(w as f64);
    }
    let mut sorted = waits.clone();
    sorted.sort_unstable();
    let exact = sorted[sorted.len() / 2] as f64;
    let approx = est.estimate().unwrap();
    // P² is approximate; on heavy-tailed data allow a factor-two band.
    assert!(
        approx > exact * 0.5 && approx < exact * 2.0,
        "P² median {approx:.0} vs exact {exact:.0}"
    );
}

#[test]
fn tail_quantile_reflects_over_threshold_population() {
    // At a low online rate the p999 of the recorded waits reaches the
    // over-threshold region; at 100% it does not.
    let run = |weight: u32| {
        let (waits, _) = first_three_seconds(weight);
        let mut est = P2Quantile::new(0.999);
        for &w in &waits {
            est.observe(w as f64);
        }
        est.estimate().unwrap_or(0.0)
    };
    let full = run(256);
    let capped = run(32);
    assert!(
        capped > full * 4.0,
        "p999 must inflate at low rates: {capped:.0} vs {full:.0}"
    );
}

/// The guest's online `wait_cycles` histogram is what the exported
/// `vmN.guest.wait_cycles` metric used to be: every wait ≥ 2^10 replayed
/// in record order. Replaying the window's waits must reproduce it
/// exactly, P² estimates included.
#[test]
fn online_wait_histogram_equals_a_replay_of_the_window() {
    let (waits, m) = first_three_seconds(64);
    let mut replay = QuantileHist::default();
    for &w in &waits {
        replay.observe(w as f64);
    }
    let online = &m.vm_kernel(1).stats().wait_cycles;
    assert!(
        online.count() > 200,
        "need wait data, got {}",
        online.count()
    );
    assert_eq!(online.count(), replay.count());
    assert_eq!(online.min(), replay.min());
    assert_eq!(online.max(), replay.max());
    assert_eq!(online.mean(), replay.mean());
    for q in [0.5, 0.9, 0.99] {
        assert_eq!(online.quantile(q), replay.quantile(q), "p{q}");
    }
}
