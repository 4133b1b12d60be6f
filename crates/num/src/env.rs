//! Validated parsing of numeric environment overrides.
//!
//! Several workspace knobs are plain counts read from the environment —
//! `BEVRA_THREADS` (worker threads, `bevra-engine`) and `BEVRA_CHECK_CASES`
//! (property-test cases, `bevra-check`). They share one validation policy:
//! an override must be an integer in `1..=max`, and anything else — `"0"`,
//! negatives, garbage, values beyond the cap — silently degrades to the
//! caller's default instead of panicking or producing an absurd
//! configuration. This module is that policy, written once.

/// Parse a count-valued override. `Some(n)` iff the trimmed string is an
/// integer in `1..=max`; `None` (use the default) otherwise.
///
/// ```
/// use bevra_num::env::parse_bounded_count;
/// assert_eq!(parse_bounded_count(" 8 ", 512), Some(8));
/// assert_eq!(parse_bounded_count("0", 512), None);
/// assert_eq!(parse_bounded_count("-3", 512), None);
/// assert_eq!(parse_bounded_count("513", 512), None);
/// assert_eq!(parse_bounded_count("lots", 512), None);
/// ```
#[must_use]
pub fn parse_bounded_count(raw: &str, max: usize) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if (1..=max).contains(&n) => Some(n),
        _ => None,
    }
}

/// Read the environment variable `name` and parse it with
/// [`parse_bounded_count`], falling back to `default` when the variable is
/// unset or invalid.
#[must_use]
pub fn env_count(name: &str, max: usize, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| parse_bounded_count(&v, max))
        .unwrap_or(default)
}

/// Upper bound accepted for millisecond-valued overrides
/// (`BEVRA_DEADLINE_MS` and the `RetryPolicy` grammar): about 11.5 days.
/// Larger values are always a typo, never a deadline.
pub const MAX_MILLIS: u64 = 1_000_000_000;

/// Parse a millisecond-valued override. `Some(ms)` iff the trimmed string
/// is an integer in `1..=`[`MAX_MILLIS`]; `None` otherwise.
///
/// ```
/// use bevra_num::env::parse_millis;
/// assert_eq!(parse_millis(" 250 "), Some(250));
/// assert_eq!(parse_millis("0"), None);
/// assert_eq!(parse_millis("1000000000001"), None);
/// assert_eq!(parse_millis("soon"), None);
/// ```
#[must_use]
pub fn parse_millis(raw: &str) -> Option<u64> {
    match raw.trim().parse::<u64>() {
        Ok(ms) if (1..=MAX_MILLIS).contains(&ms) => Some(ms),
        _ => None,
    }
}

/// The workspace's malformed-environment contract, shared by
/// `BEVRA_FAULTS`, `BEVRA_RETRY`, `BEVRA_DEADLINE_MS` and
/// `BEVRA_CHECKPOINT`: a value that fails to parse is reported **once**
/// per `(component, variable)` pair on stderr and then ignored — a typo'd
/// knob degrades to the default, it never aborts a run and never spams a
/// sweep's worth of warnings.
pub fn warn_malformed_env(component: &str, var: &str, detail: &str) {
    use std::collections::HashSet;
    use std::sync::Mutex;
    static WARNED: Mutex<Option<HashSet<String>>> = Mutex::new(None);
    let key = format!("{component}\u{1f}{var}");
    let mut guard = WARNED.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let seen = guard.get_or_insert_with(HashSet::new);
    if seen.insert(key) {
        eprintln!("{component}: ignoring malformed {var}: {detail}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_in_range_integers() {
        assert_eq!(parse_bounded_count("1", 16), Some(1));
        assert_eq!(parse_bounded_count("16", 16), Some(16));
        assert_eq!(parse_bounded_count("  5\n", 16), Some(5));
    }

    #[test]
    fn rejects_zero_negative_garbage_and_huge() {
        for raw in ["0", "-1", "", "  ", "abc", "3.5", "17", "99999999999999999999"] {
            assert_eq!(parse_bounded_count(raw, 16), None, "raw = {raw:?}");
        }
    }

    #[test]
    fn env_count_falls_back_on_missing_variable() {
        assert_eq!(env_count("BEVRA_TEST_UNSET_VARIABLE_XYZ", 16, 7), 7);
    }

    #[test]
    fn millis_accepts_in_range_and_rejects_empty_garbage_huge() {
        assert_eq!(parse_millis("1"), Some(1));
        assert_eq!(parse_millis(" 30000 "), Some(30_000));
        assert_eq!(parse_millis(&MAX_MILLIS.to_string()), Some(MAX_MILLIS));
        for raw in ["0", "-5", "", "   ", "abc", "1.5", "1e3", "1000000001", "99999999999999999999"]
        {
            assert_eq!(parse_millis(raw), None, "raw = {raw:?}");
        }
    }

    #[test]
    fn warn_malformed_env_never_panics_and_dedupes() {
        // Observable behavior is one stderr line per (component, var); here
        // we only assert it is callable repeatedly without side effects on
        // parsing state.
        for _ in 0..3 {
            warn_malformed_env("bevra-test", "BEVRA_TEST_VAR", "garbage");
        }
    }
}
