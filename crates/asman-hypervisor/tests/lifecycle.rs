//! VM lifecycle integration tests: mid-run creation, destruction,
//! tombstone slot reuse with generation counters, an aborted
//! migration's rollback, and the state-lifetime regressions the
//! long-horizon soak flushed out (stale wakes into a reused slot, stale
//! scheduler-latency stamps, late telemetry arming).

use asman_hypervisor::{Machine, MachineConfig, VmSpec};
use asman_sim::{Clock, Cycles};
use asman_workloads::{Op, ScriptProgram};

fn clk() -> Clock {
    Clock::default()
}

fn busy(name: &str, threads: usize) -> Box<ScriptProgram> {
    Box::new(ScriptProgram::homogeneous(name, threads, vec![Op::Compute(clk().ms(1))]).looping())
}

/// A finite program: one compute burst, then done.
fn burst(name: &str, threads: usize, us: u64) -> Box<ScriptProgram> {
    Box::new(ScriptProgram::homogeneous(
        name,
        threads,
        vec![Op::Compute(clk().us(us))],
    ))
}

#[test]
fn created_vm_boots_runs_and_destroy_finalizes_counters() {
    let mut m = Machine::new(
        MachineConfig {
            pcpus: 2,
            ..MachineConfig::default()
        },
        vec![VmSpec::new("resident", 1, busy("resident", 1))],
    );
    m.run_until(clk().ms(2));
    // Boot a finite VM mid-run, exactly as a cluster arrival would.
    let late = m.create_vm(VmSpec::new("late", 1, burst("late", 1, 500)), clk().ms(2));
    assert_eq!(m.vm_count(), 2);
    assert_eq!(m.active_vm_count(), 2);
    assert_eq!(m.vm_name(late), "late");
    m.run_until(clk().ms(10));
    let before = m.vm_counters(late);
    assert!(before.online > 0, "created VM must actually run");
    let ret = m.destroy_vm(late);
    // Destruction closes in-progress accounting segments, so the
    // retirement's counters are monotone over the last live capture.
    assert_eq!(ret.name, "late");
    assert_eq!(ret.vcpus, 1);
    assert!(ret.counters.online >= before.online);
    assert!(ret.finished, "the 500 us burst had long finished");
    assert!(m.vm_evacuated(late), "slot must be left as a tombstone");
    assert_eq!(m.active_vm_count(), 1);
    assert_eq!(m.vm_count(), 2, "slot stays behind for index stability");
    // The machine keeps running fine past the departure; the tombstone
    // reads as zeros and accrues nothing.
    m.run_until(clk().ms(20));
    assert_eq!(m.vm_counters(late), Default::default());
}

#[test]
fn slot_reuse_is_opt_in_and_bumps_the_generation() {
    let mut m = Machine::new(
        MachineConfig {
            pcpus: 2,
            ..MachineConfig::default()
        },
        vec![
            VmSpec::new("a", 1, busy("a", 1)),
            VmSpec::new("b", 2, busy("b", 2)),
        ],
    );
    m.run_until(clk().ms(1));
    m.destroy_vm(0);
    // Reuse off (the default): arrivals append, tombstones stay.
    let appended = m.create_vm(VmSpec::new("c", 1, busy("c", 1)), clk().ms(1));
    assert_eq!(appended, 2, "default policy must append a fresh slot");
    assert_eq!(m.vm_generation(0), 0, "tombstone untouched");
    m.run_until(clk().ms(2));
    m.destroy_vm(appended);

    // Reuse on: a matching-VCPU-count arrival recycles the lowest
    // tombstone and bumps its generation; a mismatched one appends.
    m.enable_slot_reuse();
    let reused = m.create_vm(VmSpec::new("d", 1, busy("d", 1)), clk().ms(2));
    assert_eq!(reused, 0, "lowest-index matching tombstone wins");
    assert_eq!(m.vm_generation(0), 1, "reuse must bump the generation");
    assert!(!m.vm_evacuated(0));
    assert_eq!(m.vm_name(0), "d");
    let mismatched = m.create_vm(VmSpec::new("e", 2, busy("e", 2)), clk().ms(2));
    assert_eq!(mismatched, 3, "slot 2's tombstone has 1 VCPU, not 2");
    m.run_until(clk().ms(5));
    assert!(m.vm_counters(reused).online > 0, "reused slot must run");
}

/// An aborted migration's rollback puts the image back into its own
/// tombstone: the slot is live again under the same generation (a
/// rollback is not a reuse), and the VM's runnable VCPUs stay off the
/// PCPUs until the abort penalty ends.
#[test]
fn rollback_resumes_the_slot_after_the_penalty() {
    let mut m = Machine::new(
        MachineConfig {
            pcpus: 2,
            ..MachineConfig::default()
        },
        vec![
            VmSpec::new("a", 2, busy("a", 2)),
            VmSpec::new("b", 2, busy("b", 2)),
        ],
    );
    m.run_until(clk().ms(2));
    let image = m.extract_vm(0);
    assert_eq!(m.active_vm_count(), 1);
    // The penalty runs from the extraction at 2 ms to 6 ms.
    m.undo_extract_vm(0, image, clk().ms(6));
    assert!(!m.vm_evacuated(0), "the rollback must make the slot live");
    assert_eq!(m.vm_generation(0), 0, "a rollback must keep the generation");
    assert_eq!(m.active_vm_count(), 2);
    // Both of "a"'s VCPUs ran the first 2 ms: 9,320,000 cycles at the
    // default 2.33 GHz.
    let frozen = m.vm_counters(0).online;
    assert_eq!(frozen, clk().ms(4).as_u64());
    m.run_until(clk().ms(6));
    assert_eq!(
        m.vm_counters(0).online,
        frozen,
        "the rolled-back VM ran inside the abort penalty"
    );
    m.run_until(clk().ms(10));
    assert!(
        m.vm_counters(0).online > frozen,
        "the rolled-back VM must run once the penalty ends"
    );
}

/// Regression (generation guard): a wake armed for one incarnation of a
/// slot must never start the next occupant. The schedule below leaves a
/// wake for VM "b" (generation 1) in flight at 5 ms, then retires "b"
/// and boots "c" into the same slot (generation 2) with its own wake at
/// 20 ms. Pre-guard, the stale 5 ms wake dispatched "c" fifteen
/// simulated milliseconds early.
#[test]
fn stale_wake_never_starts_the_next_occupant_of_a_reused_slot() {
    let mut m = Machine::new(
        MachineConfig {
            pcpus: 1,
            ..MachineConfig::default()
        },
        vec![VmSpec::new("a", 1, busy("a", 1))],
    );
    m.enable_slot_reuse();
    m.run_until(clk().ms(1));
    m.destroy_vm(0);
    // "b" reuses the slot; its boot wake is scheduled for 5 ms.
    let b = m.create_vm(VmSpec::new("b", 1, busy("b", 1)), clk().ms(5));
    assert_eq!(b, 0);
    assert_eq!(m.vm_generation(0), 1);
    // Retire "b" before it ever starts: its 5 ms wake stays in flight.
    m.run_until(clk().ms(2));
    m.destroy_vm(b);
    let c = m.create_vm(VmSpec::new("c", 1, busy("c", 1)), clk().ms(20));
    assert_eq!(c, 0);
    assert_eq!(m.vm_generation(0), 2);
    // Run past the stale wake's delivery time but short of "c"'s boot.
    m.run_until(clk().ms(15));
    assert_eq!(
        m.vm_counters(c).online,
        0,
        "the generation-1 wake must not start the generation-2 occupant"
    );
    m.run_until(clk().ms(25));
    assert!(m.vm_counters(c).online > 0, "c's own wake still works");
}

/// Regression (stale latency stamps, the clear-on-extract fix): with
/// scheduler-latency telemetry on, a VCPU that is Runnable at extraction
/// carries a `preempt_at` stamp. If extraction (or tombstone reuse)
/// fails to clear it, the *next* occupant's first dispatch consumes the
/// stamp and records a preemption hold spanning the whole
/// destroy-to-boot gap — here at least 65 simulated milliseconds,
/// visible as an absurd histogram max.
#[test]
fn reused_slot_consumes_no_stale_latency_stamps() {
    let mut m = Machine::new(
        MachineConfig {
            pcpus: 1,
            ..MachineConfig::default()
        },
        // Two busy 1-VCPU VMs on one PCPU: at any instant one of them
        // is Runnable, freshly stamped by its last preemption.
        vec![
            VmSpec::new("a0", 1, busy("a0", 1)),
            VmSpec::new("a1", 1, busy("a1", 1)),
        ],
    );
    m.enable_sched_latency();
    m.enable_slot_reuse();
    // Past several 10 ms scheduling slots, so tick preemptions have
    // demoted each VM at least once: the currently-Runnable VM carries
    // an unconsumed `preempt_at` stamp from the most recent tick.
    m.run_until(clk().ms(35));
    m.destroy_vm(0);
    m.destroy_vm(1);
    // Reboot into BOTH slots, so whichever of a0/a1 was Runnable (and
    // stamped) at destruction gets its slot reused.
    let b = m.create_vm(VmSpec::new("b", 1, busy("b", 1)), clk().ms(100));
    let c = m.create_vm(VmSpec::new("c", 1, busy("c", 1)), clk().ms(101));
    assert_eq!((b, c), (0, 1), "reboots must recycle both tombstones");
    m.run_until(clk().ms(130));
    let lat = m.sched_latency().unwrap();
    // A legitimate hold on this machine is one 10 ms slot; a stale
    // stamp spans destroy (35 ms) to boot (100 ms). Split them at 50 ms.
    let gap = clk().ms(50).as_u64() as f64;
    for (hist, name) in [
        (&lat.preempt_hold, "preempt_hold"),
        (&lat.wake_to_dispatch, "wake_to_dispatch"),
    ] {
        if let Some(max) = hist.max() {
            assert!(
                max < gap,
                "{name} max {max} spans the destroy-to-boot gap: a stale \
                 stamp leaked into the reused slot"
            );
        }
    }
    // Sanity: "b" did run and produced genuine samples.
    assert!(lat.wake_to_dispatch.count() > 0);
}

/// A VM created after `enable_sched_latency` / `enable_flight` ran must
/// still get guest-side telemetry: machine-wide enablement is a
/// standing spec, not a one-shot sweep over the residents of that
/// instant.
#[test]
fn late_created_vm_gets_guest_telemetry_armed() {
    let mut m = Machine::new(
        MachineConfig {
            pcpus: 2,
            ..MachineConfig::default()
        },
        vec![VmSpec::new("a", 1, busy("a", 1))],
    );
    m.enable_sched_latency();
    m.enable_flight(asman_sim::CatMask::ALL, 64);
    m.run_until(clk().ms(1));
    let late = m.create_vm(VmSpec::new("late", 1, busy("late", 1)), clk().ms(1));
    assert!(
        m.vm_kernel(late).stats().spin_episodes().is_some(),
        "spin-episode telemetry must be armed on late arrivals"
    );
    assert!(
        m.vm_kernel(late).flight().is_enabled(),
        "flight recording must be armed on late arrivals"
    );
    let _ = Cycles(0); // keep the import used even if assertions change
    m.run_until(clk().ms(3));
}
