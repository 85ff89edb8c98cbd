//! Property tests for the event-queue pair.
//!
//! The optimized [`EventQueue`] (one array sorted descending by
//! `(time, seq)`, popped from the tail) and the deliberately naive
//! [`OracleQueue`] (unsorted vector, linear scans) implement the same
//! [`SimQueue`] surface with unique `(time, seq)` keys, so *any* correct
//! implementation must pop the exact same sequence. These properties
//! drive both through arbitrary push/pop/pop-before/reschedule
//! interleavings and demand:
//!
//! * pairwise agreement on every operation's result and on the
//!   `fold_state` digest after it (the byte order that checkpoint
//!   validation and the golden digests depend on),
//! * nondecreasing key order on drain (time first, then seq — FIFO
//!   among equal timestamps),
//! * conservation (`scheduled == popped + pending`) via `audit_check`.

use asman_sim::{Cycles, EventQueue, Fnv, OracleQueue, SimQueue};
use proptest::collection::vec;
use proptest::prelude::*;

/// One scripted queue operation.
#[derive(Clone, Copy, Debug)]
enum QueueOp {
    /// Schedule a fresh payload at this time.
    Push(u64),
    /// Pop the minimum.
    Pop,
    /// Pop the minimum if it fires at or before this deadline.
    PopBefore(u64),
    /// Reschedule: pop the minimum and push its payload back at a new
    /// time (the machine's timer-refresh pattern).
    Reschedule(u64),
}

fn op_strategy(max_t: u64) -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        (0..max_t).prop_map(QueueOp::Push),
        Just(QueueOp::Pop),
        (0..max_t).prop_map(QueueOp::PopBefore),
        (0..max_t).prop_map(QueueOp::Reschedule),
    ]
}

/// Apply one op to a queue; the result is everything observable.
fn apply<Q: SimQueue<u64>>(q: &mut Q, op: QueueOp, fresh: &mut u64) -> Vec<(Cycles, u64, u64)> {
    match op {
        QueueOp::Push(t) => {
            let payload = *fresh;
            *fresh += 1;
            q.schedule(Cycles(t), payload);
            Vec::new()
        }
        QueueOp::Pop => q.pop().into_iter().collect(),
        QueueOp::PopBefore(d) => q.pop_before(Cycles(d)).into_iter().collect(),
        QueueOp::Reschedule(t) => match q.pop() {
            Some(hit) => {
                q.schedule(Cycles(t), hit.2);
                vec![hit]
            }
            None => Vec::new(),
        },
    }
}

/// The queue's `fold_state` digest, each payload encoded as its `u64`.
fn digest<Q: SimQueue<u64>>(q: &Q) -> u64 {
    let mut h = Fnv::new();
    q.fold_state(&mut h, &mut |v, h| h.write_u64(*v));
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The optimized queue and the oracle agree on every observable of
    /// every operation, and on the `fold_state` digest after it, under
    /// arbitrary interleavings.
    #[test]
    fn optimized_and_oracle_agree_pairwise(ops in vec(op_strategy(1_000), 1..250)) {
        let mut fast: EventQueue<u64> = SimQueue::fresh(16);
        let mut slow: OracleQueue<u64> = SimQueue::fresh(16);
        let (mut fresh_a, mut fresh_b) = (0u64, 0u64);
        for (i, &op) in ops.iter().enumerate() {
            let a = apply(&mut fast, op, &mut fresh_a);
            let b = apply(&mut slow, op, &mut fresh_b);
            prop_assert_eq!(a, b, "divergence at op {} ({:?})", i, op);
            prop_assert_eq!(SimQueue::len(&fast), SimQueue::len(&slow));
            prop_assert_eq!(
                SimQueue::peek_time(&fast),
                SimQueue::peek_time(&slow)
            );
            prop_assert_eq!(digest(&fast), digest(&slow), "fold_state diverged at op {}", i);
            SimQueue::<u64>::audit_check(&fast);
            SimQueue::<u64>::audit_check(&slow);
        }
        // Full drain must agree event by event, then both are empty.
        loop {
            let a = SimQueue::pop(&mut fast);
            let b = SimQueue::pop(&mut slow);
            prop_assert_eq!(a, b, "divergence during drain");
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(
            SimQueue::<u64>::scheduled_total(&fast),
            SimQueue::<u64>::scheduled_total(&slow)
        );
        prop_assert_eq!(
            SimQueue::<u64>::popped_total(&fast),
            SimQueue::<u64>::popped_total(&slow)
        );
    }

    /// Any interleaving drains in nondecreasing `(time, seq)` order:
    /// time-ordered overall, FIFO among equal timestamps scheduled
    /// since the last pop of that timestamp.
    #[test]
    fn drain_order_is_nondecreasing_in_time_then_seq(
        times in vec(0u64..64, 1..200),
        pops in vec(any::<bool>(), 1..200),
    ) {
        let mut q: EventQueue<u64> = SimQueue::fresh(16);
        let mut pops = pops.into_iter();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Cycles(t), i as u64);
            if pops.next().unwrap_or(false) {
                q.pop();
            }
        }
        let mut last: Option<(Cycles, u64)> = None;
        while let Some((t, seq, _)) = q.pop() {
            if let Some((lt, lseq)) = last {
                prop_assert!(
                    (t, seq) > (lt, lseq),
                    "keys must strictly increase: ({:?},{}) after ({:?},{})",
                    t, seq, lt, lseq
                );
                prop_assert!(t >= lt, "time went backwards");
            }
            last = Some((t, seq));
        }
        prop_assert!(SimQueue::<u64>::is_empty(&q));
    }

    /// `pop_before` never returns an event beyond its deadline, and
    /// never withholds one at or before it.
    #[test]
    fn pop_before_respects_the_deadline(
        times in vec(0u64..100, 1..100),
        deadline in 0u64..100,
    ) {
        let mut q: EventQueue<u64> = SimQueue::fresh(16);
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Cycles(t), i as u64);
        }
        let eligible = times.iter().filter(|&&t| t <= deadline).count();
        let mut got = 0usize;
        while let Some((t, _, _)) = q.pop_before(Cycles(deadline)) {
            prop_assert!(t.as_u64() <= deadline, "event beyond deadline");
            got += 1;
        }
        prop_assert_eq!(got, eligible, "wrong number of eligible events");
        // What remains must all be beyond the deadline.
        while let Some((t, _, _)) = q.pop() {
            prop_assert!(t.as_u64() > deadline);
        }
    }

    /// Lifetime counters conserve events at every step.
    #[test]
    fn conservation_holds_at_every_step(ops in vec(op_strategy(500), 1..150)) {
        let mut q: EventQueue<u64> = SimQueue::fresh(4);
        let mut fresh = 0u64;
        for &op in &ops {
            apply(&mut q, op, &mut fresh);
            prop_assert_eq!(
                SimQueue::<u64>::scheduled_total(&q),
                SimQueue::<u64>::popped_total(&q) + SimQueue::<u64>::len(&q) as u64
            );
        }
    }
}
