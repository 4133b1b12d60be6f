//! Fault plans: what to break, where, and how often.
//!
//! A [`FaultPlan`] is a seed plus a list of [`FaultRule`]s. Every rule
//! names a fault [`FaultKind`], a *site pattern* (matched against the
//! hierarchical site names compiled into the workspace, e.g.
//! `engine/point` or `io/report/figure-json`), and an optional trigger
//! parameter: a probability `p`, an exact key `at`, or a count `n`.
//!
//! # The `BEVRA_FAULTS` grammar
//!
//! ```text
//! plan   := clause (';' clause)*
//! clause := 'seed=' <u64>
//!         | kind ':' site [ '@' param (',' param)* ]
//! kind   := 'panic' | 'nan' | 'inf' | 'numerr'
//!         | 'io-transient' | 'io-permanent' | 'budget'
//! param  := 'p=' <f64 in [0,1]>   (probability per key; default 1)
//!         | 'at=' <u64>           (trip exactly at this key)
//!         | 'n=' <u64>            (io-transient: failing attempts;
//!                                  budget: the event budget)
//! ```
//!
//! Examples:
//!
//! ```text
//! BEVRA_FAULTS='panic:engine/point@at=3'
//! BEVRA_FAULTS='seed=7;nan:eval/best_effort@p=0.05;io-transient:io/report@n=2'
//! BEVRA_FAULTS='budget:sim/budget@n=10000;numerr:num/roots@p=0.5'
//! ```
//!
//! Site patterns match a query site exactly, as a `/`-separated prefix
//! (`io` matches `io/report/panel-csv`), or universally with `*`.
//!
//! # Determinism
//!
//! Whether a probabilistic rule trips for a given `(site, key)` is a pure
//! function of `(plan seed, rule kind, site, key)` — no global counters,
//! no wall clock — so two runs of the same plan against the same workload
//! inject exactly the same faults regardless of thread count or
//! scheduling. Call sites choose keys that are stable across execution
//! modes (grid indices, argument bit patterns, attempt numbers).

use std::fmt;

/// The kinds of fault this crate can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the instrumented site (exercises worker isolation).
    Panic,
    /// Replace the site's `f64` result with `NaN`.
    Nan,
    /// Replace the site's `f64` result with `+∞`.
    Inf,
    /// Force the site's numerical routine to report non-convergence
    /// (`NumError::MaxIterations` in `bevra-num`).
    NumErr,
    /// Fail an I/O attempt, leaving a truncated temp file behind; later
    /// attempts may succeed (see the `n` parameter).
    IoTransient,
    /// Fail every I/O attempt at the site.
    IoPermanent,
    /// Override an execution budget (e.g. the simulator watchdog) with
    /// the rule's `n`.
    Budget,
}

impl FaultKind {
    /// The grammar token naming this kind (`panic`, `nan`, `io-transient`,
    /// …) — also the stable label used by the flight-recorder blackbox.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Nan => "nan",
            FaultKind::Inf => "inf",
            FaultKind::NumErr => "numerr",
            FaultKind::IoTransient => "io-transient",
            FaultKind::IoPermanent => "io-permanent",
            FaultKind::Budget => "budget",
        }
    }

    fn parse(tok: &str) -> Option<Self> {
        Some(match tok {
            "panic" => FaultKind::Panic,
            "nan" => FaultKind::Nan,
            "inf" => FaultKind::Inf,
            "numerr" => FaultKind::NumErr,
            "io-transient" => FaultKind::IoTransient,
            "io-permanent" => FaultKind::IoPermanent,
            "budget" => FaultKind::Budget,
            _ => return None,
        })
    }
}

/// One injection rule of a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// What to inject.
    pub kind: FaultKind,
    /// Site pattern: exact site, `/`-separated prefix, or `*`.
    pub site: String,
    /// Trip probability per key in `[0, 1]`; ignored when `at` is set.
    pub prob: f64,
    /// Trip exactly when the query key equals this value.
    pub at: Option<u64>,
    /// Kind-specific count: failing attempts for `io-transient`, the
    /// budget for `budget`.
    pub n: Option<u64>,
}

impl FaultRule {
    /// A rule that always trips at `site`.
    #[must_use]
    pub fn always(kind: FaultKind, site: impl Into<String>) -> Self {
        Self { kind, site: site.into(), prob: 1.0, at: None, n: None }
    }

    /// A rule tripping with probability `p` per key.
    #[must_use]
    pub fn with_prob(kind: FaultKind, site: impl Into<String>, p: f64) -> Self {
        Self { kind, site: site.into(), prob: p.clamp(0.0, 1.0), at: None, n: None }
    }

    /// A rule tripping exactly at key `at`.
    #[must_use]
    pub fn at_key(kind: FaultKind, site: impl Into<String>, at: u64) -> Self {
        Self { kind, site: site.into(), prob: 1.0, at: Some(at), n: None }
    }

    /// Attach the kind-specific count `n`.
    #[must_use]
    pub fn with_n(mut self, n: u64) -> Self {
        self.n = Some(n);
        self
    }

    /// Whether this rule's pattern covers `site`: exact match, a
    /// `/`-separated prefix, or the universal `*`.
    #[must_use]
    pub fn matches_site(&self, site: &str) -> bool {
        self.site == "*"
            || self.site == site
            || (site.len() > self.site.len()
                && site.starts_with(&self.site)
                && site.as_bytes()[self.site.len()] == b'/')
    }
}

impl fmt::Display for FaultRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.kind.token(), self.site)?;
        let mut sep = '@';
        if let Some(at) = self.at {
            write!(f, "{sep}at={at}")?;
            sep = ',';
        } else if self.prob < 1.0 {
            write!(f, "{sep}p={}", self.prob)?;
            sep = ',';
        }
        if let Some(n) = self.n {
            write!(f, "{sep}n={n}")?;
        }
        Ok(())
    }
}

/// A complete injection plan: a seed plus the rules.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed mixed into every probabilistic decision.
    pub seed: u64,
    /// The injection rules, in declaration order.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self { seed, rules: Vec::new() }
    }

    /// Append a rule (builder style).
    #[must_use]
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Parse the [`BEVRA_FAULTS` grammar](self). Returns an error naming
    /// the first malformed clause; an empty/whitespace string is the
    /// empty plan.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed clause.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for clause in text.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(seed) = clause.strip_prefix("seed=") {
                plan.seed = seed
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("bad seed clause: {clause:?}"))?;
                continue;
            }
            let (kind_tok, rest) = clause
                .split_once(':')
                .ok_or_else(|| format!("clause missing ':' separator: {clause:?}"))?;
            let kind = FaultKind::parse(kind_tok.trim())
                .ok_or_else(|| format!("unknown fault kind {:?} in {clause:?}", kind_tok.trim()))?;
            let (site, params) = match rest.split_once('@') {
                Some((s, p)) => (s.trim(), Some(p)),
                None => (rest.trim(), None),
            };
            if site.is_empty() {
                return Err(format!("empty site in clause {clause:?}"));
            }
            let mut rule = FaultRule::always(kind, site);
            if let Some(params) = params {
                for param in params.split(',') {
                    let param = param.trim();
                    if let Some(p) = param.strip_prefix("p=") {
                        let p: f64 = p
                            .parse()
                            .map_err(|_| format!("bad p= value in {clause:?}"))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(format!("p= outside [0,1] in {clause:?}"));
                        }
                        rule.prob = p;
                    } else if let Some(at) = param.strip_prefix("at=") {
                        rule.at = Some(
                            at.parse().map_err(|_| format!("bad at= value in {clause:?}"))?,
                        );
                    } else if let Some(n) = param.strip_prefix("n=") {
                        rule.n = Some(
                            n.parse().map_err(|_| format!("bad n= value in {clause:?}"))?,
                        );
                    } else {
                        return Err(format!("unknown parameter {param:?} in {clause:?}"));
                    }
                }
            }
            plan.rules.push(rule);
        }
        Ok(plan)
    }

    /// Whether `kind` trips at `(site, key)` under this plan — the pure
    /// decision function documented in the [module docs](self).
    #[must_use]
    pub fn trips(&self, kind: FaultKind, site: &str, key: u64) -> bool {
        self.rules.iter().any(|r| r.kind == kind && r.matches_site(site) && {
            match r.at {
                Some(at) => key == at,
                None => {
                    r.prob >= 1.0
                        || decision_unit(self.seed, kind, site, key) < r.prob
                }
            }
        })
    }

    /// The first matching rule's `n` parameter for `kind` at `site`.
    #[must_use]
    pub fn count_for(&self, kind: FaultKind, site: &str) -> Option<u64> {
        self.rules
            .iter()
            .find(|r| r.kind == kind && r.matches_site(site))
            .and_then(|r| r.n)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for r in &self.rules {
            write!(f, ";{r}")?;
        }
        Ok(())
    }
}

/// FNV-1a over a byte slice, used to fold site names into the decision.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// splitmix64 finalizer: a full-avalanche bijection on `u64`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic uniform in `[0, 1)` for a `(seed, kind, site, key)`
/// tuple — the probability comparison basis of [`FaultPlan::trips`].
fn decision_unit(seed: u64, kind: FaultKind, site: &str, key: u64) -> f64 {
    let h = mix(seed ^ fnv1a(site.as_bytes()) ^ mix(key ^ (kind as u64) << 56));
    // 53 high bits -> exactly representable uniform in [0,1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_display() {
        let text = "seed=7;panic:engine/point@at=3;nan:eval@p=0.25;io-transient:io/report@n=2";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 3);
        let again = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan, again);
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(FaultPlan::parse("panic").is_err(), "missing colon");
        assert!(FaultPlan::parse("explode:x").is_err(), "unknown kind");
        assert!(FaultPlan::parse("panic:").is_err(), "empty site");
        assert!(FaultPlan::parse("nan:x@p=2.0").is_err(), "p out of range");
        assert!(FaultPlan::parse("nan:x@q=1").is_err(), "unknown param");
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        assert_eq!(FaultPlan::parse(" ; ; ").unwrap(), FaultPlan::default());
    }

    #[test]
    fn site_matching_is_exact_prefix_or_star() {
        let r = FaultRule::always(FaultKind::Nan, "io/report");
        assert!(r.matches_site("io/report"));
        assert!(r.matches_site("io/report/panel-csv"));
        assert!(!r.matches_site("io/reporting"), "prefix must end at '/'");
        assert!(!r.matches_site("io"));
        assert!(FaultRule::always(FaultKind::Nan, "*").matches_site("anything/at/all"));
    }

    #[test]
    fn at_key_trips_exactly_once() {
        let plan = FaultPlan::seeded(1).rule(FaultRule::at_key(FaultKind::Panic, "engine/point", 3));
        for key in 0..10 {
            assert_eq!(plan.trips(FaultKind::Panic, "engine/point", key), key == 3);
        }
        assert!(!plan.trips(FaultKind::Nan, "engine/point", 3), "kind must match");
    }

    #[test]
    fn probabilistic_decisions_are_deterministic_and_calibrated() {
        let plan =
            FaultPlan::seeded(42).rule(FaultRule::with_prob(FaultKind::Nan, "eval", 0.25));
        let hits: Vec<u64> =
            (0..4000).filter(|&k| plan.trips(FaultKind::Nan, "eval/x", k)).collect();
        let again: Vec<u64> =
            (0..4000).filter(|&k| plan.trips(FaultKind::Nan, "eval/x", k)).collect();
        assert_eq!(hits, again, "same plan, same decisions");
        let rate = hits.len() as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "empirical rate {rate}");
        // A different seed flips a different subset.
        let other = FaultPlan::seeded(43).rule(FaultRule::with_prob(FaultKind::Nan, "eval", 0.25));
        let other_hits: Vec<u64> =
            (0..4000).filter(|&k| other.trips(FaultKind::Nan, "eval/x", k)).collect();
        assert_ne!(hits, other_hits);
    }

    #[test]
    fn count_for_returns_first_matching_rule() {
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::always(FaultKind::Budget, "sim/budget").with_n(1000))
            .rule(FaultRule::always(FaultKind::Budget, "*").with_n(5));
        assert_eq!(plan.count_for(FaultKind::Budget, "sim/budget"), Some(1000));
        assert_eq!(plan.count_for(FaultKind::Budget, "other"), Some(5));
        assert_eq!(plan.count_for(FaultKind::IoTransient, "sim/budget"), None);
    }
}
