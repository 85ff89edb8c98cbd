//! Deterministic event queue.
//!
//! Simulation correctness (and test reproducibility) requires a total order
//! on events: two events with the same timestamp are popped in the order
//! they were scheduled. The queue therefore keys on `(time, seq)` where
//! `seq` is a monotonically increasing insertion counter.
//!
//! The pending set is one `Vec` sorted descending by `(time, seq)`, so the
//! next event to fire is the last element: `pop`, `pop_before` and
//! `peek_time` read the tail, and `schedule` walks back from the tail to
//! its slot and inserts there. Insertion is O(n), which is the right
//! trade for the sizes the engine sees. At a pop, a machine has 9–25
//! other events pending on average (the benchmark's NAS machines: mean
//! 19.7, 99.9th percentile 33; its cluster hosts: mean 9.4–24.9, at most
//! 85), and at most 188 in the six-VM Figure 12 machines. At those sizes
//! a short scan over 32-byte entries costs less than a heap's sifts.
//! Because keys are unique, *any* correct min-queue pops in the same
//! order, so the layout is free to change without affecting simulation
//! results.

use crate::time::Cycles;

/// Receipt for a scheduled event: the time it will fire and its unique
/// sequence number. The sequence number can be stored by callers that need
/// to recognise (and logically cancel) a stale event via epoch checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledAt {
    /// Absolute simulation time at which the event fires.
    pub time: Cycles,
    /// Unique, monotonically increasing insertion number.
    pub seq: u64,
}

#[inline(always)]
pub(crate) fn pack(time: Cycles, seq: u64) -> u128 {
    ((time.as_u64() as u128) << 64) | seq as u128
}

/// One pending event.
struct Entry<T> {
    time: u64,
    seq: u64,
    payload: T,
}

/// A deterministic min-priority event queue over an arbitrary payload type.
///
/// ```
/// use asman_sim::{Cycles, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycles(10), "b");
/// q.schedule(Cycles(5), "a");
/// q.schedule(Cycles(10), "c");
/// assert_eq!(q.pop().unwrap().2, "a");
/// assert_eq!(q.pop().unwrap().2, "b"); // FIFO among equal timestamps
/// assert_eq!(q.pop().unwrap().2, "c");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<T> {
    /// Pending events, sorted strictly descending by `(time, seq)`: the
    /// earliest is last.
    items: Vec<Entry<T>>,
    next_seq: u64,
    popped: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            items: Vec::with_capacity(cap),
            next_seq: 0,
            popped: 0,
        }
    }

    /// Schedule `payload` to fire at absolute time `time`.
    pub fn schedule(&mut self, time: Cycles, payload: T) -> ScheduledAt {
        let seq = self.next_seq;
        self.next_seq += 1;
        let t = time.as_u64();
        // Every pending `seq` is below the new one, so the new event goes
        // in front of (nearer the head than) every event at or before its
        // time: equal timestamps stay FIFO.
        let mut i = self.items.len();
        while i > 0 && self.items[i - 1].time <= t {
            i -= 1;
        }
        self.items.insert(
            i,
            Entry {
                time: t,
                seq,
                payload,
            },
        );
        ScheduledAt { time, seq }
    }

    /// Remove and return the earliest event as `(time, seq, payload)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycles, u64, T)> {
        let e = self.items.pop()?;
        self.popped += 1;
        Some((Cycles(e.time), e.seq, e.payload))
    }

    /// Remove and return the earliest event, but only if it fires at or
    /// before `deadline`. The event loop calls this once per event.
    #[inline]
    pub fn pop_before(&mut self, deadline: Cycles) -> Option<(Cycles, u64, T)> {
        if self.items.last()?.time > deadline.as_u64() {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<Cycles> {
        self.items.last().map(|e| Cycles(e.time))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total number of events scheduled over the queue's lifetime.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Total number of events popped over the queue's lifetime.
    pub fn popped_total(&self) -> u64 {
        self.popped
    }

    /// Fold the queue's full logical state into a fingerprint: lifetime
    /// counters plus every pending event in key order (earliest first),
    /// each as its packed `time << 64 | seq` key and its payload encoded
    /// by `enc`. Key order depends only on *what* is pending, never on
    /// the layout, so every [`SimQueue`](crate::SimQueue) folds the same
    /// bytes.
    pub fn fold_state(
        &self,
        h: &mut crate::fnv::Fnv,
        enc: &mut dyn FnMut(&T, &mut crate::fnv::Fnv),
    ) {
        h.write_u64(self.next_seq);
        h.write_u64(self.popped);
        h.write_usize(self.len());
        for e in self.items.iter().rev() {
            h.write_u128(pack(Cycles(e.time), e.seq));
            enc(&e.payload, h);
        }
    }

    /// Panic unless the internal invariants hold: the pending events are
    /// in strictly descending `(time, seq)` order (so keys are unique),
    /// and the lifetime counters conserve events
    /// (`scheduled == popped + pending`).
    pub fn audit_check(&self) {
        for (i, w) in self.items.windows(2).enumerate() {
            assert!(
                (w[0].time, w[0].seq) > (w[1].time, w[1].seq),
                "event queue: order violated between entries {i} and {}",
                i + 1
            );
        }
        assert_eq!(
            self.next_seq,
            self.popped + self.len() as u64,
            "event queue: scheduled != popped + pending"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[30u64, 10, 20, 5, 25] {
            q.schedule(Cycles(t), t);
        }
        let mut out = Vec::new();
        while let Some((t, _, p)) = q.pop() {
            assert_eq!(t.as_u64(), p);
            out.push(p);
        }
        assert_eq!(out, vec![5, 10, 20, 25, 30]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycles(42), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().2, i);
        }
    }

    #[test]
    fn interleaved_schedule_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), 'a');
        q.schedule(Cycles(20), 'b');
        assert_eq!(q.pop().unwrap().2, 'a');
        // An event scheduled "in the past" relative to others still pops
        // strictly by time.
        q.schedule(Cycles(15), 'c');
        assert_eq!(q.pop().unwrap().2, 'c');
        assert_eq!(q.pop().unwrap().2, 'b');
    }

    #[test]
    fn counters_track_lifetime() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(1), ());
        q.schedule(Cycles(2), ());
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.popped_total(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn receipt_reports_seq_and_time() {
        let mut q = EventQueue::new();
        let r0 = q.schedule(Cycles(7), ());
        let r1 = q.schedule(Cycles(7), ());
        assert_eq!(r0.time, Cycles(7));
        assert!(r1.seq > r0.seq);
    }

    /// Randomized agreement with a naive reference model: every pop must
    /// return the minimum (time, seq) among the currently pending events,
    /// whatever the layout does internally.
    #[test]
    fn matches_reference_model_under_churn() {
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new();
        // Deterministic LCG so the test needs no external RNG.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..50 {
            for _ in 0..40 {
                let t = rnd() % 1000;
                let at = q.schedule(Cycles(t), t);
                model.push((t, at.seq));
            }
            // Pop a churning prefix each round, everything at the end.
            let k = if round == 49 { usize::MAX } else { 15 };
            for _ in 0..k {
                let Some((t, seq, _)) = q.pop() else { break };
                let min = model.iter().copied().min().expect("model not empty");
                assert_eq!((t.as_u64(), seq), min);
                model.retain(|&e| e != min);
            }
        }
        assert!(model.is_empty());
        assert!(q.is_empty());
    }
}
