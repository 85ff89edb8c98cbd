//! Progress logging for the report binaries.
//!
//! Every progress line the harness emits (`wrote …`, `[fig9 took …]`,
//! run headers) goes through [`progress!`](crate::progress), which writes to stderr
//! unless quiet mode is on. `repro -q` silences progress without
//! touching the actual results on stdout; hard errors still print
//! unconditionally.

use std::sync::atomic::{AtomicBool, Ordering};

static QUIET: AtomicBool = AtomicBool::new(false);

/// Enable or disable quiet mode. Quiet also silences the simulator's
/// trace-buffer overflow warnings (they go to stderr too).
pub fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::Relaxed);
    asman_sim::trace::set_overflow_warnings(!quiet);
}

/// Whether quiet mode is on.
pub fn is_quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// Print a progress line to stderr unless quiet mode is on.
///
/// Takes the same arguments as `eprintln!`.
#[macro_export]
macro_rules! progress {
    ($($arg:tt)*) => {
        if !$crate::logger::is_quiet() {
            eprintln!($($arg)*);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_flag_round_trips() {
        assert!(!is_quiet());
        set_quiet(true);
        assert!(is_quiet());
        // No output is produced under quiet; the macro must still
        // compile and evaluate its guard.
        progress!("suppressed {}", 1);
        set_quiet(false);
        assert!(!is_quiet());
    }
}
