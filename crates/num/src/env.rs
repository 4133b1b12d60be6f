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
}
