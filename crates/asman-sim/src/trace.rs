//! Overflow warnings for bounded recorders.
//!
//! The flight recorder and the series sampler keep at most a fixed
//! number of entries and count what they drop; the first drop prints
//! one warning through [`overflow_warning`] so truncation is never
//! silent. Quiet modes (e.g. `repro -q`) and tests that overflow a
//! buffer on purpose turn the warnings off.

use std::sync::atomic::{AtomicBool, Ordering};

/// Global gate for buffer-overflow warnings. Defaults to on.
static WARN_ON_OVERFLOW: AtomicBool = AtomicBool::new(true);

/// Enable or disable the once-per-buffer overflow warnings emitted by
/// the flight recorder and the series sampler.
pub fn set_overflow_warnings(on: bool) {
    WARN_ON_OVERFLOW.store(on, Ordering::Relaxed);
}

/// Emit a buffer-overflow warning to stderr, unless warnings are
/// suppressed via [`set_overflow_warnings`]. Callers are responsible for
/// the once-per-buffer latch.
pub fn overflow_warning(msg: &str) {
    if WARN_ON_OVERFLOW.load(Ordering::Relaxed) {
        eprintln!("warning: {msg}");
    }
}
