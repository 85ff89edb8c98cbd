//! The locality-of-synchronization model (§4.2).
//!
//! The paper models over-threshold spinlocks as arriving in *localities*:
//! bursts L_i with lasting time X_i, separated by gaps, where Z_i is the
//! interval between the starts of consecutive localities. This module
//! provides the analysis-side counterpart of that model:
//!
//! * [`LocalitySegmenter`] — reconstructs localities from a stream of
//!   over-threshold event timestamps (used to validate the estimator and
//!   to report locality statistics from simulation traces);
//! * [`SyntheticLocalityProcess`] — generates a timestamp stream with
//!   prescribed X/Z distributions (used by property tests to verify that
//!   the learning algorithm tracks the true lasting time).

use asman_sim::{Cycles, SimRng};
use serde::Serialize;

/// One reconstructed locality of synchronization.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct Locality {
    /// Start time (first over-threshold event of the burst).
    pub start: Cycles,
    /// Lasting time X_i (start of first event to last event of burst).
    pub lasting: Cycles,
    /// Number of over-threshold events in the burst.
    pub events: u32,
}

/// Groups over-threshold event timestamps into localities: events closer
/// than `merge_gap` belong to the same locality.
#[derive(Clone, Debug)]
pub struct LocalitySegmenter {
    merge_gap: Cycles,
    current: Option<(Cycles, Cycles, u32)>,
    done: Vec<Locality>,
}

impl LocalitySegmenter {
    /// Events within `merge_gap` of the previous one are merged into the
    /// same locality.
    pub fn new(merge_gap: Cycles) -> Self {
        LocalitySegmenter {
            merge_gap,
            current: None,
            done: Vec::new(),
        }
    }

    /// Feed the next over-threshold event timestamp (must be
    /// non-decreasing).
    pub fn push(&mut self, t: Cycles) {
        match self.current {
            Some((start, last, n)) if t.saturating_sub(last) <= self.merge_gap => {
                self.current = Some((start, t, n + 1));
            }
            Some((start, last, n)) => {
                self.done.push(Locality {
                    start,
                    lasting: last - start,
                    events: n,
                });
                self.current = Some((t, t, 1));
            }
            None => self.current = Some((t, t, 1)),
        }
    }

    /// Finish segmentation and return all localities.
    pub fn finish(mut self) -> Vec<Locality> {
        if let Some((start, last, n)) = self.current.take() {
            self.done.push(Locality {
                start,
                lasting: last - start,
                events: n,
            });
        }
        self.done
    }

    /// The gaps Z_i between starts of consecutive localities.
    pub fn intervals(localities: &[Locality]) -> Vec<Cycles> {
        localities
            .windows(2)
            .map(|w| w[1].start - w[0].start)
            .collect()
    }
}

/// Generator of synthetic over-threshold event streams with prescribed
/// locality geometry (for estimator validation).
#[derive(Clone, Debug)]
pub struct SyntheticLocalityProcess {
    /// Mean lasting time of a locality.
    pub mean_lasting: Cycles,
    /// Mean gap between the end of one locality and the start of the next.
    pub mean_gap: Cycles,
    /// Mean spacing of events inside a locality.
    pub intra_spacing: Cycles,
    /// Jitter fraction applied to all three parameters.
    pub jitter: f64,
}

impl SyntheticLocalityProcess {
    /// Generate event timestamps until `horizon`.
    pub fn generate(&self, rng: &mut SimRng, horizon: Cycles) -> Vec<Cycles> {
        let mut out = Vec::new();
        let mut t = Cycles(rng.jitter(self.mean_gap.as_u64().max(1), self.jitter));
        while t < horizon {
            let lasting = Cycles(rng.jitter(self.mean_lasting.as_u64().max(1), self.jitter));
            let end = t + lasting;
            let mut e = t;
            while e <= end && e < horizon {
                out.push(e);
                e += Cycles(
                    rng.jitter(self.intra_spacing.as_u64().max(1), self.jitter)
                        .max(1),
                );
            }
            t = end
                + Cycles(
                    rng.jitter(self.mean_gap.as_u64().max(1), self.jitter)
                        .max(1),
                );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asman_sim::Clock;

    fn ms(v: u64) -> Cycles {
        Clock::default().ms(v)
    }

    #[test]
    fn segments_two_bursts() {
        let mut seg = LocalitySegmenter::new(ms(5));
        for t in [0, 1, 2, 3] {
            seg.push(ms(t));
        }
        for t in [50, 51, 53] {
            seg.push(ms(t));
        }
        let locs = seg.finish();
        assert_eq!(locs.len(), 2);
        assert_eq!(locs[0].events, 4);
        assert_eq!(locs[0].lasting, ms(3));
        assert_eq!(locs[1].start, ms(50));
        assert_eq!(locs[1].lasting, ms(3));
        let z = LocalitySegmenter::intervals(&locs);
        assert_eq!(z, vec![ms(50)]);
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let seg = LocalitySegmenter::new(ms(5));
        assert!(seg.finish().is_empty());
    }

    #[test]
    fn single_event_is_a_zero_length_locality() {
        let mut seg = LocalitySegmenter::new(ms(5));
        seg.push(ms(7));
        let locs = seg.finish();
        assert_eq!(locs.len(), 1);
        assert_eq!(locs[0].lasting, Cycles::ZERO);
        assert_eq!(locs[0].events, 1);
    }

    #[test]
    fn synthetic_process_matches_prescription() {
        let proc = SyntheticLocalityProcess {
            mean_lasting: ms(10),
            mean_gap: ms(100),
            intra_spacing: ms(1),
            jitter: 0.1,
        };
        let mut rng = SimRng::new(3);
        let events = proc.generate(&mut rng, Clock::default().secs(10));
        assert!(!events.is_empty());
        // Reconstruct and compare the geometry.
        let mut seg = LocalitySegmenter::new(ms(10));
        for &e in &events {
            seg.push(e);
        }
        let locs = seg.finish();
        assert!(
            locs.len() > 50,
            "expected ~90 localities, got {}",
            locs.len()
        );
        let mean_lasting = locs.iter().map(|l| l.lasting.as_u64()).sum::<u64>() / locs.len() as u64;
        let target = ms(10).as_u64();
        assert!(
            (mean_lasting as f64 / target as f64 - 1.0).abs() < 0.25,
            "mean lasting {mean_lasting} vs target {target}"
        );
        let z = LocalitySegmenter::intervals(&locs);
        let mean_z = z.iter().map(|c| c.as_u64()).sum::<u64>() / z.len() as u64;
        let target_z = ms(110).as_u64();
        assert!(
            (mean_z as f64 / target_z as f64 - 1.0).abs() < 0.25,
            "mean interval {mean_z} vs target {target_z}"
        );
    }

    #[test]
    fn timestamps_are_sorted() {
        let proc = SyntheticLocalityProcess {
            mean_lasting: ms(5),
            mean_gap: ms(20),
            intra_spacing: Cycles(100_000),
            jitter: 0.5,
        };
        let mut rng = SimRng::new(11);
        let events = proc.generate(&mut rng, Clock::default().secs(2));
        assert!(events.windows(2).all(|w| w[0] <= w[1]));
    }
}
