//! Naive oracle structures for differential auditing.
//!
//! The optimized engine earns its throughput with caches and clever
//! layouts: an event array kept sorted so the next event is its tail, a
//! runqueue-position index, idle-PCPU bitmasks, reused scratch buffers.
//! Every one of those is a place where bookkeeping can silently drift
//! from the Credit/ASMan semantics the paper's figures depend on. The
//! audit subsystem re-implements the same surface with the dumbest
//! correct data structures — linear scans, no caches, nothing
//! incremental — so a differential harness can run both side by side
//! and diff every observable.
//!
//! [`SimQueue`] abstracts the event-queue surface the machine needs;
//! [`EventQueue`] is the production implementation and [`OracleQueue`]
//! the oracle. Keys are unique `(time, seq)` pairs, so *any* correct
//! min-queue pops in the same order — bit-equal event streams between
//! the two implementations are therefore a meaningful correctness
//! signal, not a coincidence of layout.

use crate::event::{pack, ScheduledAt};
use crate::fnv::Fnv;
use crate::time::Cycles;
use crate::EventQueue;

/// The event-queue surface the simulation engine schedules through.
///
/// Implemented by the optimized [`EventQueue`] and by the deliberately
/// naive [`OracleQueue`]. The engine is generic over this trait; the
/// associated [`NAIVE`](SimQueue::NAIVE) constant additionally tells it
/// to recompute derived scheduler state (runqueue positions, idle
/// masks) from scratch instead of trusting its incremental caches.
pub trait SimQueue<T> {
    /// `true` for oracle implementations: the machine swaps cached-index
    /// lookups for from-scratch linear scans when this is set.
    const NAIVE: bool;

    /// An empty queue with room for roughly `cap` pending events.
    fn fresh(cap: usize) -> Self;

    /// Schedule `payload` to fire at absolute time `time`.
    fn schedule(&mut self, time: Cycles, payload: T) -> ScheduledAt;

    /// Remove and return the earliest event as `(time, seq, payload)`.
    fn pop(&mut self) -> Option<(Cycles, u64, T)>;

    /// Remove and return the earliest event if it fires at or before
    /// `deadline`.
    fn pop_before(&mut self, deadline: Cycles) -> Option<(Cycles, u64, T)>;

    /// Timestamp of the earliest pending event.
    fn peek_time(&self) -> Option<Cycles>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events scheduled over the queue's lifetime.
    fn scheduled_total(&self) -> u64;

    /// Total number of events popped over the queue's lifetime.
    fn popped_total(&self) -> u64;

    /// Panic if the implementation's internal invariants are violated.
    fn audit_check(&self) {}

    /// Fold the queue's full logical state into a fingerprint: lifetime
    /// counters plus every pending `(key, payload)` pair in key order,
    /// payloads encoded by `enc`. Key order makes the fingerprint a
    /// property of the pending *set*, so the optimized and oracle queues
    /// (and any two layout histories) agree whenever their contents do.
    fn fold_state(&self, h: &mut Fnv, enc: &mut dyn FnMut(&T, &mut Fnv));
}

impl<T> SimQueue<T> for EventQueue<T> {
    const NAIVE: bool = false;

    fn fresh(cap: usize) -> Self {
        EventQueue::with_capacity(cap)
    }

    fn schedule(&mut self, time: Cycles, payload: T) -> ScheduledAt {
        EventQueue::schedule(self, time, payload)
    }

    fn pop(&mut self) -> Option<(Cycles, u64, T)> {
        EventQueue::pop(self)
    }

    fn pop_before(&mut self, deadline: Cycles) -> Option<(Cycles, u64, T)> {
        EventQueue::pop_before(self, deadline)
    }

    fn peek_time(&self) -> Option<Cycles> {
        EventQueue::peek_time(self)
    }

    fn len(&self) -> usize {
        EventQueue::len(self)
    }

    fn is_empty(&self) -> bool {
        EventQueue::is_empty(self)
    }

    fn scheduled_total(&self) -> u64 {
        EventQueue::scheduled_total(self)
    }

    fn popped_total(&self) -> u64 {
        EventQueue::popped_total(self)
    }

    fn audit_check(&self) {
        EventQueue::audit_check(self)
    }

    fn fold_state(&self, h: &mut Fnv, enc: &mut dyn FnMut(&T, &mut Fnv)) {
        EventQueue::fold_state(self, h, enc)
    }
}

/// The oracle event queue: an unsorted vector scanned linearly on every
/// pop. No kept order, no incremental anything — `pop` is O(n) and
/// proud of it. Because `(time, seq)` keys are unique, it pops in
/// exactly the order the optimized queue must.
pub struct OracleQueue<T> {
    /// Pending events as packed `(time << 64 | seq)` keys, in insertion
    /// order. Deliberately unsorted.
    entries: Vec<(u128, T)>,
    next_seq: u64,
    popped: u64,
}

impl<T> Default for OracleQueue<T> {
    fn default() -> Self {
        OracleQueue {
            entries: Vec::new(),
            next_seq: 0,
            popped: 0,
        }
    }
}

impl<T> OracleQueue<T> {
    /// Index of the entry holding the minimum key, by full scan.
    fn min_index(&self) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .min_by_key(|(_, (k, _))| *k)
            .map(|(i, _)| i)
    }

    fn take(&mut self, i: usize) -> (Cycles, u64, T) {
        // `remove` (not `swap_remove`): keeps insertion order, which is
        // the most literal reading of "no clever layout tricks".
        let (key, payload) = self.entries.remove(i);
        self.popped += 1;
        (Cycles((key >> 64) as u64), key as u64, payload)
    }
}

impl<T> SimQueue<T> for OracleQueue<T> {
    const NAIVE: bool = true;

    fn fresh(_cap: usize) -> Self {
        // The oracle does not even pre-allocate.
        OracleQueue::default()
    }

    fn schedule(&mut self, time: Cycles, payload: T) -> ScheduledAt {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push((pack(time, seq), payload));
        ScheduledAt { time, seq }
    }

    fn pop(&mut self) -> Option<(Cycles, u64, T)> {
        let i = self.min_index()?;
        Some(self.take(i))
    }

    fn pop_before(&mut self, deadline: Cycles) -> Option<(Cycles, u64, T)> {
        let i = self.min_index()?;
        if self.entries[i].0 > pack(deadline, u64::MAX) {
            return None;
        }
        Some(self.take(i))
    }

    fn peek_time(&self) -> Option<Cycles> {
        let i = self.min_index()?;
        Some(Cycles((self.entries[i].0 >> 64) as u64))
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    fn popped_total(&self) -> u64 {
        self.popped
    }

    fn audit_check(&self) {
        for (i, (k, _)) in self.entries.iter().enumerate() {
            for (j, (k2, _)) in self.entries.iter().enumerate().skip(i + 1) {
                assert_ne!(k, k2, "oracle queue: duplicate key at {i} and {j}");
            }
        }
        assert_eq!(
            self.next_seq,
            self.popped + self.entries.len() as u64,
            "oracle queue: scheduled != popped + pending"
        );
    }

    fn fold_state(&self, h: &mut Fnv, enc: &mut dyn FnMut(&T, &mut Fnv)) {
        h.write_u64(self.next_seq);
        h.write_u64(self.popped);
        h.write_usize(self.entries.len());
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_unstable_by_key(|&i| self.entries[i].0);
        for i in order {
            let (key, val) = &self.entries[i];
            h.write_u128(*key);
            enc(val, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic LCG so the tests need no external RNG.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn oracle_pops_in_time_then_fifo_order() {
        let mut q: OracleQueue<u64> = OracleQueue::default();
        for &t in &[30u64, 10, 20, 10, 5] {
            SimQueue::schedule(&mut q, Cycles(t), t);
        }
        let mut seen = Vec::new();
        while let Some((t, _, p)) = SimQueue::pop(&mut q) {
            assert_eq!(t.as_u64(), p);
            seen.push(p);
        }
        assert_eq!(seen, vec![5, 10, 10, 20, 30]);
        q.audit_check();
    }

    /// The whole point of the oracle: under arbitrary churn it must pop
    /// the exact `(time, seq, payload)` sequence the optimized queue
    /// pops, including `pop_before` deadline handling.
    #[test]
    fn oracle_agrees_with_optimized_queue_under_churn() {
        let mut fast: EventQueue<u64> = SimQueue::fresh(64);
        let mut slow: OracleQueue<u64> = SimQueue::fresh(64);
        let mut state = 0x1234_5678_9abc_def0u64;
        for round in 0..60u64 {
            for _ in 0..25 {
                let t = lcg(&mut state) % 500;
                let a = SimQueue::schedule(&mut fast, Cycles(t), t);
                let b = SimQueue::schedule(&mut slow, Cycles(t), t);
                assert_eq!(a, b);
            }
            let deadline = Cycles(lcg(&mut state) % 500);
            loop {
                let a = fast.pop_before(deadline);
                let b = SimQueue::pop_before(&mut slow, deadline);
                assert_eq!(a, b, "divergence in round {round}");
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(SimQueue::len(&fast), SimQueue::len(&slow));
            assert_eq!(fast.peek_time(), SimQueue::peek_time(&slow));
            fast.audit_check();
            slow.audit_check();
        }
        // Drain to the end: both must agree on every remaining event.
        loop {
            let a = fast.pop();
            let b = SimQueue::pop(&mut slow);
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(fast.scheduled_total(), SimQueue::scheduled_total(&slow));
        assert_eq!(fast.popped_total(), SimQueue::popped_total(&slow));
    }

    /// Both queue implementations must fold to the same fingerprint
    /// whenever their pending contents agree — the fingerprint is a
    /// property of the event set, not the layout.
    #[test]
    fn fold_state_agrees_across_implementations() {
        let mut fast: EventQueue<u64> = SimQueue::fresh(16);
        let mut slow: OracleQueue<u64> = SimQueue::fresh(16);
        let mut state = 0xfeed_beefu64;
        let digest_fast = |q: &EventQueue<u64>| {
            let mut h = Fnv::new();
            q.fold_state(&mut h, &mut |v, h| h.write_u64(*v));
            h.finish()
        };
        let digest_slow = |q: &OracleQueue<u64>| {
            let mut h = Fnv::new();
            SimQueue::fold_state(q, &mut h, &mut |v, h| h.write_u64(*v));
            h.finish()
        };
        for _ in 0..40 {
            let t = lcg(&mut state) % 100;
            SimQueue::schedule(&mut fast, Cycles(t), t);
            SimQueue::schedule(&mut slow, Cycles(t), t);
            if lcg(&mut state).is_multiple_of(3) {
                assert_eq!(fast.pop(), SimQueue::pop(&mut slow));
            }
            assert_eq!(digest_fast(&fast), digest_slow(&slow));
        }
    }

    #[test]
    fn optimized_queue_audit_check_passes_under_churn() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut state = 7u64;
        for _ in 0..200 {
            q.schedule(Cycles(lcg(&mut state) % 100), 0);
            if lcg(&mut state).is_multiple_of(3) {
                q.pop();
            }
            q.audit_check();
        }
    }
}
