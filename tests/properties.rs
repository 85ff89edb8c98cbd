//! Property-based end-to-end tests: random workloads and configurations
//! must never wedge, crash or violate conservation laws.

use asman::prelude::*;
use proptest::prelude::*;

/// A random but well-formed op script.
fn arb_op(_threads: usize) -> impl Strategy<Value = Op> {
    let clk = Clock::default();
    prop_oneof![
        (1u64..3_000_000).prop_map(|c| Op::Compute(Cycles(c))),
        (0u32..3, 100u64..60_000).prop_map(|(l, h)| Op::CriticalSection {
            lock: l,
            hold: Cycles(h),
        }),
        Just(Op::Barrier { id: 0 }),
        (1u64..2_000_000).prop_map(|c| Op::Sleep(Cycles(c))),
        Just(Op::Mark(Mark::Transaction)),
        Just(Op::Mark(Mark::RoundEnd)),
        // Bounded-slack pipeline dependencies are exercised by the NAS
        // strategy below; raw WaitPeer with arbitrary targets could
        // deadlock by construction, so scripts use only the safe subset.
        (0u64..clk.ms(2).as_u64()).prop_map(|c| Op::Compute(Cycles(c + 1))),
    ]
}

fn arb_script(threads: usize) -> impl Strategy<Value = Vec<Vec<Op>>> {
    proptest::collection::vec(
        proptest::collection::vec(arb_op(threads), 1..24),
        threads..=threads,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any homogeneous-thread script completes (or the horizon passes)
    /// without panics, and the accounting stays conserved:
    /// spin + useful + warmup <= total online time.
    #[test]
    fn random_scripts_never_wedge(
        script in arb_script(3),
        seed in 0u64..1_000,
        pcpus in 2usize..6,
    ) {
        // Barriers require every thread to reach them the same number of
        // times; replicate thread 0's script to keep them aligned.
        let script0 = script[0].clone();
        let program = ScriptProgram::homogeneous("fuzz", 3, script0);
        let clk = Clock::default();
        let mut m = SimulationBuilder::new()
            .pcpus(pcpus)
            .seed(seed)
            .vm(VmSpec::new("fuzz", pcpus.min(3), Box::new(program)))
            .build();
        let done = m.run_to_completion(clk.secs(30));
        prop_assert!(done, "script must finish inside a generous horizon");
        let s = m.vm_kernel(0).stats();
        let acct = m.vm_accounting(0);
        let burned = s.useful_cycles
            + s.spin_kernel_cycles
            + s.spin_barrier_cycles
            + s.spin_pipeline_cycles;
        prop_assert!(
            burned <= acct.total_online() + Cycles(1_000_000),
            "accounting must not exceed online time: burned {burned:?} vs online {:?}",
            acct.total_online()
        );
    }

    /// Determinism holds across random configurations.
    #[test]
    fn random_configs_are_deterministic(
        seed in 0u64..500,
        pcpus in 2usize..8,
        weight in 32u32..512,
    ) {
        let run = || {
            let cg = NasSpec::new(NasBenchmark::CG, ProblemClass::S, 2).build(seed);
            let mut m = SimulationBuilder::new()
                .pcpus(pcpus)
                .seed(seed)
                .policy(Sched::Asman)
                .vm(VmSpec::new("g", 2, Box::new(cg)).weight(weight))
                .build();
            m.run_to_completion(Clock::default().secs(120));
            (
                m.events_processed(),
                m.vm_kernel(0).stats().finished_at,
                m.vm_kernel(0).stats().lock_acquisitions,
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// The measured online rate of a capped VM never exceeds its
    /// configured rate by more than the enforcement slack.
    #[test]
    fn caps_hold_for_random_weights(weight in 32u32..256, seed in 0u64..200) {
        let clk = Clock::default();
        let busy = ScriptProgram::homogeneous(
            "busy",
            4,
            vec![Op::Compute(clk.ms(1))],
        )
        .looping();
        let mut m = SimulationBuilder::new()
            .seed(seed)
            .vm(VmSpec::new("idle", 8, Box::new(ScriptProgram::homogeneous("i", 8, vec![]))))
            .vm(
                VmSpec::new("busy", 4, Box::new(busy))
                    .weight(weight)
                    .cap(CapMode::NonWorkConserving),
            )
            .build();
        m.run_until(clk.secs(2));
        let configured = m.configured_online_rate(1);
        let measured = m.vm_accounting(1).online_rate(m.now());
        prop_assert!(
            measured < configured + 0.08,
            "cap leak: measured {measured:.3} vs configured {configured:.3}"
        );
    }
}
