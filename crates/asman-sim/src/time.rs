//! The simulation clock domain.
//!
//! All simulated time is expressed in **CPU cycles** (`u64`), because that
//! is the unit in which the paper measures spinlock waiting times (e.g. the
//! over-threshold criterion is `2^δ` cycles with `δ = 20`). Conversions to
//! milliseconds/microseconds go through a [`Clock`] describing the CPU
//! frequency; the default matches the paper's 2.33 GHz Xeon X5410.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A duration or instant measured in CPU cycles.
///
/// `Cycles` is used both as an absolute simulation timestamp (cycles since
/// simulation start) and as a duration; the arithmetic provided is the
/// common subset that is meaningful for both. Arithmetic is saturating on
/// subtraction and checked-in-debug on addition, so accounting bugs fail
/// loudly in tests rather than wrapping.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Cycles(pub u64);

impl Cycles {
    /// The zero duration / simulation epoch.
    pub const ZERO: Cycles = Cycles(0);
    /// The maximum representable instant (used as an "infinite" horizon).
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// Raw cycle count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// `2^exp` cycles — the paper expresses thresholds and histogram
    /// buckets as powers of two (e.g. the over-threshold bound `2^20`).
    #[inline]
    pub const fn pow2(exp: u32) -> Cycles {
        Cycles(1u64 << exp)
    }

    /// Floor of log₂ of the cycle count; `None` for zero.
    #[inline]
    pub fn log2(self) -> Option<u32> {
        if self.0 == 0 {
            None
        } else {
            Some(63 - self.0.leading_zeros())
        }
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition: `self + rhs`, clamped at [`Cycles::MAX`].
    /// For cumulative counters on unbounded horizons (soak runs), where
    /// pinning at the ceiling beats the debug-build panic (or silent
    /// release-build wrap) of plain `+`.
    #[inline]
    pub fn saturating_add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, rhs: Cycles) -> Option<Cycles> {
        self.0.checked_sub(rhs.0).map(Cycles)
    }

    /// The smaller of two durations/instants.
    #[inline]
    pub fn min(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.min(rhs.0))
    }

    /// The larger of two durations/instants.
    #[inline]
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }

    /// Is this the zero duration?
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply by a dimensionless ratio expressed as `num/den`, rounding
    /// to nearest. Used for proportional-share credit mathematics where a
    /// VM receives `weight_i / total_weight` of the interval.
    #[inline]
    pub fn mul_ratio(self, num: u64, den: u64) -> Cycles {
        debug_assert!(den != 0, "ratio denominator must be nonzero");
        let v = (self.0 as u128 * num as u128 + (den as u128) / 2) / den as u128;
        Cycles(v as u64)
    }
}

impl fmt::Debug for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    /// Panics in debug builds on underflow; prefer
    /// [`Cycles::saturating_sub`] when underflow is expected.
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        debug_assert!(self.0 >= rhs.0, "Cycles underflow: {} - {}", self.0, rhs.0);
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Div<Cycles> for Cycles {
    type Output = u64;
    #[inline]
    fn div(self, rhs: Cycles) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Cycles> for Cycles {
    type Output = Cycles;
    #[inline]
    fn rem(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 % rhs.0)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

/// CPU clock specification: converts between wall time and [`Cycles`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct Clock {
    /// Simulated CPU frequency in Hz.
    pub hz: u64,
}

impl Default for Clock {
    /// 2.33 GHz — the Xeon X5410 of the paper's Dell T5400 testbed.
    fn default() -> Self {
        Clock { hz: 2_330_000_000 }
    }
}

impl Clock {
    /// A clock running at `hz` cycles per second.
    pub const fn new(hz: u64) -> Self {
        Clock { hz }
    }

    /// Duration of `ms` milliseconds on this clock.
    #[inline]
    pub const fn ms(&self, ms: u64) -> Cycles {
        Cycles(self.hz / 1_000 * ms)
    }

    /// Duration of `us` microseconds on this clock.
    #[inline]
    pub const fn us(&self, us: u64) -> Cycles {
        Cycles(self.hz / 1_000_000 * us)
    }

    /// Duration of `s` seconds on this clock.
    #[inline]
    pub const fn secs(&self, s: u64) -> Cycles {
        Cycles(self.hz * s)
    }

    /// Convert a cycle count to (fractional) seconds.
    #[inline]
    pub fn to_secs(&self, c: Cycles) -> f64 {
        c.0 as f64 / self.hz as f64
    }

    /// Convert a cycle count to (fractional) milliseconds.
    #[inline]
    pub fn to_ms(&self, c: Cycles) -> f64 {
        c.0 as f64 / (self.hz as f64 / 1_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_matches_shift() {
        assert_eq!(Cycles::pow2(0).as_u64(), 1);
        assert_eq!(Cycles::pow2(20).as_u64(), 1 << 20);
        assert_eq!(Cycles::pow2(63).as_u64(), 1 << 63);
    }

    #[test]
    fn log2_is_floor() {
        assert_eq!(Cycles(0).log2(), None);
        assert_eq!(Cycles(1).log2(), Some(0));
        assert_eq!(Cycles(2).log2(), Some(1));
        assert_eq!(Cycles(3).log2(), Some(1));
        assert_eq!(Cycles((1 << 20) - 1).log2(), Some(19));
        assert_eq!(Cycles(1 << 20).log2(), Some(20));
        assert_eq!(Cycles(u64::MAX).log2(), Some(63));
    }

    #[test]
    fn clock_conversions_roundtrip() {
        let clk = Clock::default();
        assert_eq!(clk.ms(10).as_u64(), 23_300_000);
        assert_eq!(clk.us(4).as_u64(), 9_320);
        assert_eq!(clk.secs(1).as_u64(), 2_330_000_000);
        assert!((clk.to_secs(clk.secs(30)) - 30.0).abs() < 1e-12);
        assert!((clk.to_ms(clk.ms(30)) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn mul_ratio_rounds_to_nearest() {
        assert_eq!(Cycles(10).mul_ratio(1, 3).as_u64(), 3);
        assert_eq!(Cycles(10).mul_ratio(2, 3).as_u64(), 7);
        assert_eq!(Cycles(10).mul_ratio(1, 1).as_u64(), 10);
        // Large values must not overflow u64 intermediate.
        let big = Cycles(u64::MAX / 2);
        assert_eq!(big.mul_ratio(2, 2).as_u64(), big.as_u64());
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(Cycles(5).saturating_sub(Cycles(9)), Cycles::ZERO);
        assert_eq!(Cycles(9).saturating_sub(Cycles(5)), Cycles(4));
    }

    #[test]
    fn saturating_add_clamps_at_max() {
        assert_eq!(Cycles(u64::MAX - 3).saturating_add(Cycles(10)), Cycles::MAX);
        assert_eq!(Cycles(7).saturating_add(Cycles(5)), Cycles(12));
    }

    /// The should-overflow-before half of the long-horizon hardening:
    /// plain `+` on a counter at the ceiling blows up in debug builds —
    /// which is exactly why cumulative accumulators must use
    /// [`Cycles::saturating_add`].
    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn plain_add_overflow_panics_in_debug() {
        let _ = Cycles(u64::MAX) + Cycles(1);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    #[cfg(debug_assertions)]
    fn sub_underflow_panics_in_debug() {
        let _ = Cycles(1) - Cycles(2);
    }

    #[test]
    fn sum_and_div() {
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
        assert_eq!(total / 2u64, Cycles(3));
        assert_eq!(total / Cycles(2), 3);
        assert_eq!(total % Cycles(4), Cycles(2));
    }
}
