//! The one file the stale-path fixture's policy still matches.

/// Compliant code: nothing here reads a clock.
pub fn answer() -> u64 {
    42
}
