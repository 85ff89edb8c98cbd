//! Property-based tests for the simulation substrate.

use asman_sim::{
    CatMask, Cycles, EventQueue, FaultEvent, FaultKind, FaultPlan, FaultSpec, Log2Histogram,
    OnlineStats, SimRng, TraceCat,
};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    /// Popping must yield events sorted by time, FIFO within equal times.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Cycles(t), i);
        }
        let mut prev: Option<(Cycles, u64)> = None;
        while let Some((t, seq, _)) = q.pop() {
            if let Some((pt, pseq)) = prev {
                prop_assert!(t > pt || (t == pt && seq > pseq),
                    "order violated: ({t:?},{seq}) after ({pt:?},{pseq})");
            }
            prev = Some((t, seq));
        }
        prop_assert!(q.is_empty());
    }

    /// Histogram bucket totals must equal the number of recorded samples,
    /// and the >= 2^k cumulative counts must be monotone non-increasing.
    #[test]
    fn histogram_counts_consistent(values in proptest::collection::vec(0u64..u64::MAX, 0..300)) {
        let mut h = Log2Histogram::new();
        for &v in &values {
            h.record(Cycles(v));
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        let zeros = values.iter().filter(|&&v| v == 0).count() as u64;
        let bucketed: u64 = (0..64).map(|b| h.bucket(b)).sum();
        prop_assert_eq!(bucketed + zeros, h.count());
        for k in 1..64u32 {
            prop_assert!(h.count_at_least_pow2(k) <= h.count_at_least_pow2(k - 1));
        }
        // Cross-check one cumulative count against a direct scan.
        let direct = values.iter().filter(|&&v| v >= (1 << 20)).count() as u64;
        prop_assert_eq!(h.count_at_least_pow2(20), direct);
    }

    /// `below(n)` is always < n, for any seed and bound.
    #[test]
    fn rng_below_bound(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut r = SimRng::new(seed);
        for _ in 0..50 {
            prop_assert!(r.below(bound) < bound);
        }
    }

    /// `range(lo, hi)` stays within its half-open interval.
    #[test]
    fn rng_range_bounds(seed in any::<u64>(), lo in 0u64..1_000_000, span in 1u64..1_000_000) {
        let mut r = SimRng::new(seed);
        let hi = lo + span;
        for _ in 0..50 {
            let v = r.range(lo, hi);
            prop_assert!((lo..hi).contains(&v));
        }
    }

    /// Welford accumulation matches the naive two-pass mean/variance.
    #[test]
    fn online_stats_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 2..100)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() < 1e-5 * (1.0 + var.abs()));
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.min(), min);
        prop_assert_eq!(s.max(), max);
    }

    /// Identical seeds produce identical streams; forked children with the
    /// same stream id from identically-seeded parents also agree.
    #[test]
    fn rng_determinism(seed in any::<u64>(), stream in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        let mut ca = a.fork(stream);
        let mut cb = b.fork(stream);
        for _ in 0..20 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
            prop_assert_eq!(ca.next_u64(), cb.next_u64());
        }
    }

    /// `jitter` never underflows or overflows: for any base and any
    /// finite non-negative fraction — including frac >= 1, where the
    /// naive `base - span` would wrap — the result stays within the
    /// span-clamped window around base.
    #[test]
    fn jitter_respects_bounds(seed in any::<u64>(), base in 0u64..u64::MAX, frac in 0.0f64..8.0) {
        let mut r = SimRng::new(seed);
        let span = ((base as f64) * frac) as u64;
        let lo = base - span.min(base);
        let hi = base.saturating_add(span);
        for _ in 0..20 {
            let v = r.jitter(base, frac);
            prop_assert!(v >= lo && v <= hi, "jitter({base}, {frac}) = {v} outside [{lo}, {hi}]");
        }
    }

    /// `weighted_index` only ever lands on an index whose weight is
    /// finite and strictly positive, no matter how the weight vector is
    /// poisoned with zeros, negatives, NaNs or infinities — as long as
    /// one usable weight exists.
    #[test]
    fn weighted_index_picks_only_usable_weights(
        seed in any::<u64>(),
        mut weights in proptest::collection::vec(
            prop_oneof![
                Just(0.0f64),
                Just(-1.0),
                Just(f64::NAN),
                Just(f64::INFINITY),
                0.001f64..1e6,
            ],
            1..40,
        ),
        anchor in 0.001f64..1e3,
    ) {
        let mut r = SimRng::new(seed);
        // Guarantee at least one usable weight somewhere.
        let slot = (seed % weights.len() as u64) as usize;
        weights[slot] = anchor;
        for _ in 0..20 {
            let i = r.weighted_index(&weights);
            prop_assert!(
                weights[i].is_finite() && weights[i] > 0.0,
                "weighted_index picked unusable weight {} at {i} from {weights:?}",
                weights[i]
            );
        }
    }
}

/// Render `picks` as a string: an index into `alphabet` appends that
/// piece, any larger index appends the char `c` (U+FFFD where `c` is a
/// surrogate). The vendored proptest has no string strategy.
fn dsl_string(alphabet: &[&str], picks: &[(usize, u32)]) -> String {
    let mut s = String::new();
    for &(i, c) in picks {
        match alphabet.get(i) {
            Some(piece) => s.push_str(piece),
            None => s.push(char::from_u32(c).unwrap_or('\u{fffd}')),
        }
    }
    s
}

/// Pieces of the fault DSL, plus near misses: an out-of-range percent,
/// an epoch that overflows `u64`, a stray letter.
const FAULT_ALPHABET: &[&str] = &[
    "crash@",
    "slow@",
    "abort@",
    "rand:",
    "@",
    ":h",
    ":",
    ",",
    " ",
    "h",
    "0",
    "3",
    "12",
    "50",
    "100",
    "x",
    "99999999999999999999",
];

/// The names `CatMask::parse` knows, plus separators and near misses.
const CAT_ALPHABET: &[&str] = &[
    "sched", "credit", "cosched", "lock", "futex", "barrier", "fault", ",", " ", "x", "Lock",
];

fn fault_event() -> impl Strategy<Value = FaultEvent> {
    prop_oneof![
        (0u64..40).prop_map(|epoch| FaultEvent {
            epoch,
            kind: FaultKind::Abort
        }),
        (0u64..40, 0usize..16).prop_map(|(epoch, host)| FaultEvent {
            epoch,
            kind: FaultKind::Crash { host }
        }),
        (0u64..40, 0usize..16, 1u32..100).prop_map(|(epoch, host, derate_pct)| FaultEvent {
            epoch,
            kind: FaultKind::Slow { host, derate_pct }
        }),
    ]
}

/// `ev` written as one DSL token.
fn fault_token(ev: &FaultEvent) -> String {
    match ev.kind {
        FaultKind::Abort => format!("abort@{}", ev.epoch),
        FaultKind::Crash { host } => format!("crash@{}:h{host}", ev.epoch),
        FaultKind::Slow { host, derate_pct } => format!("slow@{}:h{host}:{derate_pct}", ev.epoch),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `FaultSpec::parse` never panics, and every plan it accepts (or
    /// generates from an accepted seed) has nondecreasing epochs. The
    /// input joins well-formed tokens and junk strings with commas, so
    /// a fair share of cases is accepted.
    #[test]
    fn fault_spec_parse_never_panics(
        segments in vec(
            (
                fault_event(),
                0u8..3,
                vec((0..FAULT_ALPHABET.len() + 2, 0u32..0x11_0000), 0..8),
            ),
            0..6,
        ),
    ) {
        let s = segments
            .iter()
            .map(|(ev, form, picks)| match form {
                0 => dsl_string(FAULT_ALPHABET, picks),
                _ => fault_token(ev),
            })
            .collect::<Vec<_>>()
            .join(",");
        let plan = match FaultSpec::parse(&s) {
            Ok(FaultSpec::Explicit(plan)) => {
                prop_assert!(!plan.is_empty(), "accepted an empty plan from {s:?}");
                plan
            }
            Ok(spec) => spec.resolve(40, 4),
            Err(_) => return,
        };
        prop_assert!(
            plan.events.windows(2).all(|w| w[0].epoch <= w[1].epoch),
            "epochs out of order for {s:?}: {:?}", plan.events
        );
    }

    /// Random events written as DSL tokens (with stray spaces around
    /// them) parse back to the same events, in stable epoch order. The
    /// same list with an empty (or blank) token spliced in anywhere is
    /// rejected, naming the token's position.
    #[test]
    fn fault_dsl_round_trips(
        events in vec(fault_event(), 1..12),
        pads in vec((0usize..3, 0usize..3), 12),
        at in any::<usize>(),
    ) {
        let mut tokens: Vec<String> = events
            .iter()
            .zip(&pads)
            .map(|(ev, &(l, r))| format!("{}{}{}", " ".repeat(l), fault_token(ev), " ".repeat(r)))
            .collect();
        let s = tokens.join(",");
        // Stable epoch order, built without sorting.
        let mut want = Vec::new();
        for t in 0..=events.iter().map(|e| e.epoch).max().unwrap_or(0) {
            want.extend(events.iter().filter(|e| e.epoch == t));
        }
        prop_assert_eq!(
            FaultSpec::parse(&s),
            Ok(FaultSpec::Explicit(FaultPlan { events: want })),
            "{}",
            s
        );

        let at = at % (tokens.len() + 1);
        tokens.insert(at, " ".repeat(pads[at].0));
        let spliced = tokens.join(",");
        let err = FaultSpec::parse(&spliced).err().unwrap_or_default();
        prop_assert!(
            err.contains(&format!("empty token at position {}", at + 1)),
            "{:?} gave {:?}",
            spliced,
            err
        );
    }

    /// `CatMask::parse` accepts every comma-joined permutation of
    /// distinct category names, and rejects the same list with a
    /// repeated, an empty or an unknown name spliced in.
    #[test]
    fn cat_mask_parse_accepts_permutations_only(
        subset in 1u32..(1 << TraceCat::ALL.len()),
        keys in vec(any::<u64>(), TraceCat::ALL.len()),
        at in any::<usize>(),
        junk in vec((0..CAT_ALPHABET.len() + 1, 0u32..0x11_0000), 1..4),
    ) {
        let mut cats: Vec<(u64, TraceCat)> = TraceCat::ALL
            .iter()
            .enumerate()
            .filter(|&(i, _)| subset & (1 << i) != 0)
            .map(|(i, &c)| (keys[i], c))
            .collect();
        cats.sort_by_key(|&(k, c)| (k, c as u32));
        let names: Vec<&str> = cats.iter().map(|&(_, c)| c.name()).collect();
        let want = cats.iter().fold(CatMask::NONE, |m, &(_, c)| m.with(c));
        prop_assert_eq!(CatMask::parse(&names.join(",")), Some(want));

        let spliced = |extra: &str| {
            let mut list = names.clone();
            list.insert(at % (names.len() + 1), extra);
            list.join(",")
        };
        let repeated = spliced(names[at % names.len()]);
        prop_assert_eq!(CatMask::parse(&repeated), None, "{}", repeated);
        let empty = spliced("");
        prop_assert_eq!(CatMask::parse(&empty), None, "{}", empty);
        let unknown = dsl_string(CAT_ALPHABET, &junk);
        if !unknown.contains(',') && TraceCat::from_name(unknown.trim()).is_none() {
            let s = spliced(&unknown);
            prop_assert_eq!(CatMask::parse(&s), None, "{}", s);
        }
    }

    /// `CatMask::parse` never panics, and what it accepts is a list of
    /// distinct known names whose union is the mask.
    #[test]
    fn cat_mask_parse_never_panics(
        picks in vec((0..CAT_ALPHABET.len() + 2, 0u32..0x11_0000), 0..16),
    ) {
        let s = dsl_string(CAT_ALPHABET, &picks);
        if let Some(mask) = CatMask::parse(&s) {
            let mut want = CatMask::NONE;
            for name in s.split(',').map(str::trim) {
                let cat = TraceCat::from_name(name);
                prop_assert!(cat.is_some_and(|c| !want.contains(c)), "accepted {s:?}");
                want = want.with(cat.unwrap());
            }
            prop_assert_eq!(mask, want);
        }
    }
}
