//! Lock-holder preemption (LHP) episode detection.
//!
//! The paper's Figure 1 phenomenon: a guest thread holding a kernel
//! spinlock is preempted by the hypervisor, and every sibling that spins
//! on the lock burns its entire timeslice without making progress. This
//! module joins the guest-layer lock events with the hypervisor-layer
//! scheduling events from the flight recorder ([`crate::flight`]) and
//! emits one [`LhpEpisode`] per occurrence, quantifying both how long the
//! holder was off-CPU (`preempted_for`) and how many cycles of on-CPU
//! spinning that stole from the waiters (`wasted_spin`).
//!
//! ## Semantics
//!
//! The detector is a single sweep over a time-ordered event stream (as
//! produced by the merged flight-recorder export):
//!
//! * A VCPU is **running** between its `Dispatch` and the next
//!   `Preempt`/`Block` for it; VCPUs are presumed off-CPU until first
//!   dispatched.
//! * A lock's **holder** is set by `LockAcquire` and cleared by
//!   `LockRelease`; its **waiters** are the threads with a `LockContend`
//!   not yet followed by their own `LockAcquire`.
//! * An **episode** opens when a `Preempt` (not a voluntary `Block`)
//!   hits a VCPU whose current thread holds a lock, and closes at that
//!   lock's `LockRelease`. While an episode is open, `preempted_for`
//!   accumulates time the holder spends off-CPU (it may be re-dispatched
//!   and re-preempted several times before releasing), and `wasted_spin`
//!   accumulates time integrated over the waiters whose own VCPU is
//!   on-CPU — a preempted waiter burns no cycles.
//!
//! Episodes are reported in the order they close, which is deterministic
//! for a deterministic event stream; episodes still open at the end of
//! the stream are closed at the final event's timestamp and appended in
//! `(vm, lock)` order.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::flight::{FlightEv, FlightEvent};
use crate::time::Cycles;

/// One detected lock-holder-preemption episode.
#[derive(Clone, Debug, Serialize)]
pub struct LhpEpisode {
    /// VM the lock belongs to.
    pub vm: u32,
    /// VM-local lock id.
    pub lock: u32,
    /// Global VCPU index the holder was running on when first preempted.
    pub holder_vcpu: u32,
    /// VM-local thread index of the holder.
    pub holder_thread: u32,
    /// Time of the first preemption while holding.
    pub start: Cycles,
    /// Time of the lock release (or end of stream).
    pub end: Cycles,
    /// Cycles the holder spent off-CPU during the episode.
    pub preempted_for: Cycles,
    /// Cycles of on-CPU spinning by waiters during the episode.
    pub wasted_spin: Cycles,
    /// Maximum concurrent waiters observed during the episode.
    pub waiters: u32,
}

/// Aggregate view of a run's LHP episodes.
#[derive(Clone, Debug, Serialize)]
pub struct LhpSummary {
    /// Number of episodes detected.
    pub episodes: u64,
    /// Total holder off-CPU cycles across episodes.
    pub total_preempted: Cycles,
    /// Total wasted waiter spin cycles across episodes.
    pub total_wasted_spin: Cycles,
    /// The worst episodes by wasted spin, descending.
    pub worst: Vec<LhpEpisode>,
}

impl LhpSummary {
    /// Summarize `episodes`, retaining the `keep` worst by wasted spin.
    pub fn from_episodes(episodes: &[LhpEpisode], keep: usize) -> LhpSummary {
        let mut worst: Vec<LhpEpisode> = episodes.to_vec();
        // Stable sort on the (deterministic) close order keeps ties
        // deterministic too.
        worst.sort_by_key(|e| std::cmp::Reverse(e.wasted_spin));
        worst.truncate(keep);
        LhpSummary {
            episodes: episodes.len() as u64,
            total_preempted: episodes.iter().map(|e| e.preempted_for).sum(),
            total_wasted_spin: episodes.iter().map(|e| e.wasted_spin).sum(),
            worst,
        }
    }
}

#[derive(Clone, Debug)]
struct Episode {
    holder_vcpu: u32,
    holder_thread: u32,
    start: Cycles,
    preempted_for: Cycles,
    wasted_spin: Cycles,
    max_waiters: u32,
}

#[derive(Clone, Debug, Default)]
struct LockState {
    /// `(thread, vcpu)` of the current holder.
    holder: Option<(u32, u32)>,
    /// `(thread, vcpu)` of threads spinning on the lock.
    waiters: Vec<(u32, u32)>,
    episode: Option<Episode>,
}

/// Detect LHP episodes in a time-ordered flight-recorder event stream.
///
/// The stream must contain the `Sched` category (for dispatch/preempt
/// edges) and the `Lock` category (for holder/waiter tracking); guest
/// events must already be rebased to global VCPU indices.
pub fn detect_lhp(events: &[FlightEvent]) -> Vec<LhpEpisode> {
    // Ordered tables: episodes still open at the end close in key order.
    let mut running: BTreeMap<u32, bool> = BTreeMap::new();
    let mut locks: BTreeMap<(u32, u32), LockState> = BTreeMap::new();
    let mut out = Vec::new();
    let mut last_t = events.first().map(|e| e.t).unwrap_or(Cycles::ZERO);

    for event in events {
        // Advance simulated time: charge the elapsed interval to every
        // open episode. Accumulation is per-episode and additive.
        let dt = event.t.saturating_sub(last_t);
        if !dt.is_zero() {
            for st in locks.values_mut() {
                if let Some(ep) = st.episode.as_mut() {
                    if !running.get(&ep.holder_vcpu).copied().unwrap_or(false) {
                        ep.preempted_for += dt;
                    }
                    let spinning = st
                        .waiters
                        .iter()
                        .filter(|(_, v)| running.get(v).copied().unwrap_or(false))
                        .count() as u64;
                    ep.wasted_spin += dt * spinning;
                }
            }
            last_t = event.t;
        }

        match event.ev {
            FlightEv::Dispatch { vcpu, .. } => {
                running.insert(vcpu, true);
            }
            FlightEv::Block { vcpu, .. } => {
                running.insert(vcpu, false);
            }
            FlightEv::Preempt { vcpu, .. } => {
                running.insert(vcpu, false);
                // An involuntary preemption of a lock holder opens an
                // episode on every lock that thread holds.
                for st in locks.values_mut() {
                    if let Some((thread, holder_vcpu)) = st.holder {
                        if holder_vcpu == vcpu && st.episode.is_none() {
                            st.episode = Some(Episode {
                                holder_vcpu,
                                holder_thread: thread,
                                start: event.t,
                                preempted_for: Cycles::ZERO,
                                wasted_spin: Cycles::ZERO,
                                max_waiters: st.waiters.len() as u32,
                            });
                        }
                    }
                }
            }
            FlightEv::LockContend {
                vm,
                vcpu,
                thread,
                lock,
            } => {
                let st = locks.entry((vm, lock)).or_default();
                st.waiters.push((thread, vcpu));
                if let Some(ep) = st.episode.as_mut() {
                    ep.max_waiters = ep.max_waiters.max(st.waiters.len() as u32);
                }
            }
            FlightEv::LockAcquire {
                vm,
                vcpu,
                thread,
                lock,
                ..
            } => {
                let st = locks.entry((vm, lock)).or_default();
                st.waiters.retain(|&(t, _)| t != thread);
                st.holder = Some((thread, vcpu));
            }
            FlightEv::LockRelease {
                vm, thread, lock, ..
            } => {
                if let Some(st) = locks.get_mut(&(vm, lock)) {
                    if matches!(st.holder, Some((t, _)) if t == thread) {
                        st.holder = None;
                    }
                    if let Some(ep) = st.episode.take() {
                        out.push(finish(vm, lock, ep, event.t));
                    }
                }
            }
            _ => {}
        }
    }

    // Close episodes left open at end-of-stream, in (vm, lock) order.
    for ((vm, lock), st) in locks {
        if let Some(ep) = st.episode {
            out.push(finish(vm, lock, ep, last_t));
        }
    }
    #[cfg(feature = "audit")]
    check_episode_invariants(&out);
    out
}

/// Panic unless every episode satisfies the detector's bookkeeping
/// bounds: episodes span forward in time, the holder cannot be off-CPU
/// longer than the episode lasted, and `wasted_spin` — time integrated
/// over concurrently spinning waiters — can never exceed the maximum
/// waiter count times the episode's duration. Run automatically at the
/// end of [`detect_lhp`] under the `audit` feature; the differential
/// harness also calls it explicitly.
pub fn check_episode_invariants(episodes: &[LhpEpisode]) {
    for (i, ep) in episodes.iter().enumerate() {
        assert!(
            ep.start <= ep.end,
            "lhp episode {i}: start {} after end {}",
            ep.start.as_u64(),
            ep.end.as_u64()
        );
        let span = ep.end - ep.start;
        assert!(
            ep.preempted_for <= span,
            "lhp episode {i}: preempted_for {} exceeds span {}",
            ep.preempted_for.as_u64(),
            span.as_u64()
        );
        let bound = span * ep.waiters as u64;
        assert!(
            ep.wasted_spin <= bound,
            "lhp episode {i}: wasted_spin {} exceeds waiters({}) x span({}) = {}",
            ep.wasted_spin.as_u64(),
            ep.waiters,
            span.as_u64(),
            bound.as_u64()
        );
    }
}

fn finish(vm: u32, lock: u32, ep: Episode, end: Cycles) -> LhpEpisode {
    LhpEpisode {
        vm,
        lock,
        holder_vcpu: ep.holder_vcpu,
        holder_thread: ep.holder_thread,
        start: ep.start,
        end,
        preempted_for: ep.preempted_for,
        wasted_spin: ep.wasted_spin,
        waiters: ep.max_waiters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, ev: FlightEv) -> FlightEvent {
        FlightEvent { t: Cycles(t), ev }
    }

    fn dispatch(vcpu: u32) -> FlightEv {
        FlightEv::Dispatch {
            vcpu,
            vm: 0,
            pcpu: 0,
        }
    }

    fn preempt(vcpu: u32) -> FlightEv {
        FlightEv::Preempt {
            vcpu,
            vm: 0,
            pcpu: 0,
        }
    }

    fn acquire(vcpu: u32, thread: u32, lock: u32) -> FlightEv {
        FlightEv::LockAcquire {
            vm: 0,
            vcpu,
            thread,
            lock,
            wait: 0,
        }
    }

    fn contend(vcpu: u32, thread: u32, lock: u32) -> FlightEv {
        FlightEv::LockContend {
            vm: 0,
            vcpu,
            thread,
            lock,
        }
    }

    fn release(vcpu: u32, thread: u32, lock: u32) -> FlightEv {
        FlightEv::LockRelease {
            vm: 0,
            vcpu,
            thread,
            lock,
        }
    }

    #[test]
    fn single_episode_measures_preemption_and_spin() {
        let events = vec![
            ev(0, dispatch(0)),
            ev(0, dispatch(1)),
            ev(10, acquire(0, 0, 7)),
            ev(20, contend(1, 1, 7)),
            ev(30, preempt(0)),        // episode opens
            ev(80, dispatch(0)),       // holder back on-CPU after 50 cycles
            ev(100, release(0, 0, 7)), // episode closes
            ev(100, acquire(1, 1, 7)),
            ev(120, release(1, 1, 7)),
        ];
        let eps = detect_lhp(&events);
        assert_eq!(eps.len(), 1, "exactly one episode");
        let e = &eps[0];
        assert_eq!((e.vm, e.lock), (0, 7));
        assert_eq!((e.holder_vcpu, e.holder_thread), (0, 0));
        assert_eq!(e.start, Cycles(30));
        assert_eq!(e.end, Cycles(100));
        assert_eq!(e.preempted_for, Cycles(50));
        // Waiter on VCPU 1 spins on-CPU for the whole 30..100 window.
        assert_eq!(e.wasted_spin, Cycles(70));
        assert_eq!(e.waiters, 1);
    }

    #[test]
    fn preempted_waiters_burn_no_spin() {
        let events = vec![
            ev(0, dispatch(0)),
            ev(0, dispatch(1)),
            ev(10, acquire(0, 0, 3)),
            ev(20, contend(1, 1, 3)),
            ev(30, preempt(0)),
            ev(50, preempt(1)), // waiter also preempted 50..70
            ev(70, dispatch(1)),
            ev(90, dispatch(0)),
            ev(100, release(0, 0, 3)),
        ];
        let eps = detect_lhp(&events);
        assert_eq!(eps.len(), 1);
        let e = &eps[0];
        assert_eq!(e.preempted_for, Cycles(60)); // 30..90
        assert_eq!(e.wasted_spin, Cycles(50)); // (30..50) + (70..100)
    }

    #[test]
    fn voluntary_block_is_not_an_episode() {
        let events = vec![
            ev(0, dispatch(0)),
            ev(10, acquire(0, 0, 1)),
            ev(
                20,
                FlightEv::Block {
                    vcpu: 0,
                    vm: 0,
                    pcpu: 0,
                },
            ),
            ev(40, dispatch(0)),
            ev(50, release(0, 0, 1)),
        ];
        assert!(detect_lhp(&events).is_empty());
    }

    #[test]
    fn preemption_without_held_lock_is_not_an_episode() {
        let events = vec![
            ev(0, dispatch(0)),
            ev(10, acquire(0, 0, 1)),
            ev(20, release(0, 0, 1)),
            ev(30, preempt(0)),
        ];
        assert!(detect_lhp(&events).is_empty());
    }

    #[test]
    fn open_episode_closes_at_end_of_stream() {
        let events = vec![
            ev(0, dispatch(0)),
            ev(10, acquire(0, 0, 2)),
            ev(30, preempt(0)),
            ev(90, dispatch(1)), // advances the sweep clock
        ];
        let eps = detect_lhp(&events);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].end, Cycles(90));
        assert_eq!(eps[0].preempted_for, Cycles(60));
    }

    #[test]
    fn repeated_preemptions_accumulate_into_one_episode() {
        let events = vec![
            ev(0, dispatch(0)),
            ev(10, acquire(0, 0, 5)),
            ev(20, preempt(0)),
            ev(40, dispatch(0)),
            ev(60, preempt(0)),
            ev(70, dispatch(0)),
            ev(80, release(0, 0, 5)),
        ];
        let eps = detect_lhp(&events);
        assert_eq!(eps.len(), 1, "re-preemption extends the same episode");
        assert_eq!(eps[0].preempted_for, Cycles(30)); // (20..40) + (60..70)
        assert_eq!(eps[0].start, Cycles(20));
        assert_eq!(eps[0].end, Cycles(80));
    }

    #[test]
    fn summary_ranks_by_wasted_spin() {
        let mk = |lock, spin| LhpEpisode {
            vm: 0,
            lock,
            holder_vcpu: 0,
            holder_thread: 0,
            start: Cycles::ZERO,
            end: Cycles(1),
            preempted_for: Cycles(1),
            wasted_spin: Cycles(spin),
            waiters: 1,
        };
        let eps = vec![mk(0, 5), mk(1, 50), mk(2, 20)];
        let s = LhpSummary::from_episodes(&eps, 2);
        assert_eq!(s.episodes, 3);
        assert_eq!(s.total_preempted, Cycles(3));
        assert_eq!(s.total_wasted_spin, Cycles(75));
        assert_eq!(s.worst.len(), 2);
        assert_eq!(s.worst[0].lock, 1);
        assert_eq!(s.worst[1].lock, 2);
    }
}
