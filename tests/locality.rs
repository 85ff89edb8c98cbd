//! Validation of the §4.2 locality-of-synchronization model against
//! actual simulation traces: over-threshold spinlock waits do arrive in
//! bursts (localities) separated by longer gaps, which is the premise of
//! the paper's learning algorithm.

use asman::core::LocalitySegmenter;
use asman::prelude::*;
use asman::report::{Sched, SingleVmScenario, WaitWindow};

#[test]
fn over_threshold_events_cluster_into_localities() {
    let clk = Clock::default();
    let sc = SingleVmScenario::new(Sched::Credit, 32, 42); // 22.2%
    let lu = NasSpec::new(NasBenchmark::LU, ProblemClass::W, 4).build(7);
    let mut m = sc.build(Box::new(lu));
    // Collect timestamps of over-threshold waits in a 10 s window.
    let w = WaitWindow::collect(&mut m, 1, clk.ms(500), clk.secs(10));
    assert!(
        w.over_2_20 >= 10,
        "need a meaningful over-threshold population, got {}",
        w.over_2_20
    );
    // Reconstruct localities with a merge gap of two scheduling slots.
    let mut seg = LocalitySegmenter::new(clk.ms(20));
    for &(t, wait) in &w.samples {
        if wait >= Cycles::pow2(20).as_u64() {
            seg.push(t);
        }
    }
    let locs = seg.finish();
    assert!(!locs.is_empty());
    // Property (i): localities contain multiple events (bursts), i.e.
    // the mean burst size exceeds one — waits are NOT uniformly spread.
    let events: u32 = locs.iter().map(|l| l.events).sum();
    let mean_burst = events as f64 / locs.len() as f64;
    assert!(
        mean_burst > 1.3,
        "over-threshold waits must cluster: mean burst {mean_burst:.2} over {} localities",
        locs.len()
    );
    // Gaps between localities dominate their lasting times (bursty, not
    // continuous).
    let mean_lasting =
        locs.iter().map(|l| l.lasting.as_u64()).sum::<u64>() as f64 / locs.len() as f64;
    let z = LocalitySegmenter::intervals(&locs);
    if !z.is_empty() {
        let mean_gap = z.iter().map(|c| c.as_u64()).sum::<u64>() as f64 / z.len() as f64;
        assert!(
            mean_gap > mean_lasting,
            "gaps ({mean_gap:.0}) should exceed lasting times ({mean_lasting:.0})"
        );
    }
}

#[test]
fn asman_estimates_track_locality_scale() {
    // Closed loop: run ASMan and verify the VCRD HIGH windows cover a
    // substantial share of the time that over-threshold waits appear in
    // under Credit — i.e. the estimator picks durations on the locality
    // scale rather than the minimum or nothing.
    let _clk = Clock::default();
    let lu = NasSpec::new(NasBenchmark::LU, ProblemClass::S, 4).build(7);
    let sc = SingleVmScenario::new(Sched::Asman, 32, 42);
    let out = sc.run(Box::new(lu));
    assert!(out.vcrd_raises > 0);
    assert!(
        out.vcrd_high_frac > 0.10,
        "HIGH coverage too small: {:.3}",
        out.vcrd_high_frac
    );
    // And the coscheduling those windows drive visibly aligns the VM.
    assert!(out.all_online_frac > 0.05);
}
