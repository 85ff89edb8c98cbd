//! Xen's BOOST mechanism: waking VCPUs preempt running ones, keeping
//! I/O-ish latency low on a loaded machine. Compares wake-to-dispatch
//! latency distributions with BOOST on and off.

use asman::hypervisor::{Machine, MachineConfig, VmSpec};
use asman::prelude::*;
use asman::report::Timeline;
use asman::sim::P2Quantile;

fn io_latency_p95(boost: bool) -> f64 {
    let clk = Clock::default();
    let cfg = MachineConfig {
        pcpus: 4,
        boost_enabled: boost,
        seed: 9,
        ..MachineConfig::default()
    };
    // Four busy VCPUs saturate the machine; an I/O-ish VM wakes every
    // ~4 ms for a short burst.
    let busy = ScriptProgram::homogeneous("busy", 4, vec![Op::Compute(clk.ms(1))]).looping();
    let io = ScriptProgram::homogeneous(
        "io",
        2,
        vec![Op::Sleep(clk.ms(4)), Op::Compute(clk.us(100))],
    )
    .looping();
    // The I/O VM is credit-poor (low weight): without BOOST its wakes
    // queue behind the busy VM's higher-credit VCPUs until a tick; with
    // BOOST they preempt immediately. (With ample credit the credit
    // comparison alone already preempts, masking BOOST.)
    let mut m = Machine::new(
        cfg,
        vec![
            VmSpec::new("busy", 4, Box::new(busy)).weight(512),
            VmSpec::new("io", 2, Box::new(io)).weight(16),
        ],
    );
    Timeline::arm(&mut m, 500_000);
    m.run_until(clk.secs(8));
    // Wake latencies of the I/O VM's VCPUs (global ids 4 and 5).
    let mut q = P2Quantile::new(0.95);
    for (vcpu, lat) in Timeline::wake_latencies(&m) {
        if vcpu >= 4 {
            q.observe(lat.as_u64() as f64);
        }
    }
    assert!(q.count() > 150, "need wake samples, got {}", q.count());
    q.estimate().unwrap()
}

#[test]
fn boost_keeps_wake_latency_low_under_load() {
    let clk = Clock::default();
    let with_boost = io_latency_p95(true);
    let without = io_latency_p95(false);
    // With BOOST, p95 wake latency stays in the sub-millisecond range
    // (wake jitter + dispatch); without it, woken VCPUs wait out other
    // VCPUs' slices.
    assert!(
        with_boost < clk.ms(1).as_u64() as f64,
        "boosted p95 {:.0} cycles too high",
        with_boost
    );
    assert!(
        without > with_boost * 3.0,
        "BOOST must visibly cut latency: {without:.0} vs {with_boost:.0}"
    );
}
