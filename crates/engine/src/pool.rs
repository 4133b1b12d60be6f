//! Scoped-thread data parallelism with deterministic output ordering.
//!
//! The workspace cannot pull `rayon` from crates.io, so every parallel job
//! — a sweep's points, a value table's grid, a simulator fleet's lanes —
//! is one pass of a scoped loop: the calling thread and `threads − 1`
//! `std::thread::scope` workers pull indices from a shared atomic counter.
//! Results are collected per worker as `(index, value)` pairs and merged
//! back into input order, so the output of [`parallel_map`] is
//! **position-for-position identical** to a serial `map` — only wall-clock
//! time differs. Per-point work in this workspace is microseconds to
//! milliseconds, so the one-atomic-op-per-item scheduling cost is noise;
//! what a job does pay is one thread spawn per extra worker, which is why
//! a job is one pass rather than one per batch.
//!
//! # Failure isolation
//!
//! [`parallel_map_supervised`] wraps every per-item call in
//! [`std::panic::catch_unwind`] and re-runs a panicked item **at once,
//! serially on the same worker**, up to a fixed number of attempts: the
//! attempt index is passed to the closure (so fault sites can distinguish
//! attempts), and the retries spent are returned for the health ledger.
//! No attempt waits: an item is a pure function of its input, so it
//! either replays identically (a transient injected fault) or fails
//! identically (a real bug), and sleeping between the two buys nothing.
//! An item that fails every attempt degrades to an [`ItemError::Panic`]
//! in its output slot while every other item completes normally. A result
//! slot that was never filled (a worker died outside the per-item guard)
//! degrades to [`ItemError::Missing`]. One bad grid point can therefore
//! no longer abort a whole sweep process — the engine turns these errors
//! into structured `PointOutcome::Failed` entries and `SweepHealth`
//! counts. Engine sweeps give each point [`POINT_ATTEMPTS`].
//!
//! Retry decisions are **per-item-local** (a pure function of the item and
//! its attempt count), never shared across workers — shared retry state
//! would make rescue decisions scheduling-dependent and break the
//! workspace's bitwise replay invariant.

use bevra_obs::panic_message;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "BEVRA_THREADS";

/// Attempts an engine sweep gives each grid point: the first, then one
/// immediate serial retry.
pub const POINT_ATTEMPTS: u32 = 2;

/// Upper bound on an explicitly requested worker count. Values above this
/// fall back to the default rather than spawning an unbounded number of
/// scoped threads (each job re-spawns its workers).
pub const MAX_THREADS: usize = 512;

/// Parse a `BEVRA_THREADS`-style override. `None` (fall back to the
/// default worker count) unless the string is an integer in
/// `1..=`[`MAX_THREADS`] — so `"0"`, negatives, garbage, and absurdly
/// large values all degrade to the default instead of panicking or
/// oversubscribing the host. The validation policy is shared with the
/// workspace's other count-valued overrides (`BEVRA_CHECK_CASES`) via
/// [`bevra_num::env::parse_bounded_count`].
#[must_use]
pub fn parse_thread_count(raw: &str) -> Option<usize> {
    bevra_num::env::parse_bounded_count(raw, MAX_THREADS)
}

/// The fallback worker count: [`std::thread::available_parallelism`],
/// or 1 if unavailable.
#[must_use]
pub fn default_thread_count() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Number of worker threads a parallel sweep will use: the value of
/// [`THREADS_ENV`] (`BEVRA_THREADS`) if it parses per
/// [`parse_thread_count`], otherwise [`default_thread_count`].
#[must_use]
pub fn thread_count() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| parse_thread_count(&v))
        .unwrap_or_else(default_thread_count)
}

/// Why an isolated item produced no value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemError {
    /// The item's closure panicked on every attempt it was given.
    Panic {
        /// The first panic's payload, rendered as text.
        message: String,
        /// Whether at least one retry was spent — `false` only for a
        /// single attempt, so health reports can distinguish "never
        /// retried" from "retried and still dead".
        retried: bool,
    },
    /// The item's result slot was never filled — its worker died outside
    /// the per-item guard (e.g. an allocation failure while merging).
    Missing,
}

impl std::fmt::Display for ItemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ItemError::Panic { message, retried } => {
                write!(f, "panicked{}: {message}", if *retried { " (retry also panicked)" } else { "" })
            }
            ItemError::Missing => write!(f, "result slot never filled by any worker"),
        }
    }
}

/// Label this spawned worker `engine-worker-<w>` for the chrome-trace
/// export, so Perfetto tracks carry worker names instead of bare tids.
/// Worker 0 is the calling thread, which keeps its own label. Only does
/// work at [`bevra_obs::ObsLevel::Trace`] — the label registry takes a
/// short lock, which is noise per job but pointless when no trace will
/// be exported.
fn label_worker(w: usize) {
    if bevra_obs::enabled(bevra_obs::ObsLevel::Trace) {
        bevra_obs::set_thread_label(format!("engine-worker-{w}"));
    }
}

/// The one scoped loop behind both maps: `threads.min(n)` workers (at
/// least one) pull indices from a shared counter and apply `g`. Worker 0
/// is the calling thread; the other `threads.min(n) − 1` are scoped
/// threads, so a one-worker job spawns nothing. Returns one slot per
/// index, `None` only where no worker filled it.
///
/// A panic in `g` stops its worker and propagates once every worker has
/// stopped (the scope joins its threads before it re-raises), exactly
/// like a serial `map`.
fn scoped_loop<U, G>(n: usize, threads: usize, g: G) -> Vec<Option<U>>
where
    U: Send,
    G: Fn(usize) -> U + Sync,
{
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));
    let work = || {
        let mut local: Vec<(usize, U)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, g(i)));
        }
        // Poisoning is recoverable here: workers only ever extend with
        // complete (index, value) pairs, so the vector's contents are
        // valid whether or not a peer panicked.
        collected.lock().unwrap_or_else(PoisonError::into_inner).extend(local);
    };
    std::thread::scope(|scope| {
        for w in 1..threads.min(n) {
            let work = &work;
            scope.spawn(move || {
                label_worker(w);
                work();
            });
        }
        work();
    });
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for (i, v) in collected.into_inner().unwrap_or_else(PoisonError::into_inner) {
        slots[i] = Some(v);
    }
    slots
}

/// Apply `f` to every item, using up to `threads` workers (the calling
/// thread and `threads − 1` scoped threads), returning the results in
/// input order.
///
/// With `threads <= 1` (or fewer than two items) the calling thread maps
/// every item alone — bitwise-identical to any other worker count for
/// any pure `f`.
///
/// A panicking `f` propagates once every worker has stopped, exactly
/// like a serial `map` — use [`parallel_map_supervised`] when one bad
/// item must not take down the whole sweep.
pub fn parallel_map_with<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    scoped_loop(items.len(), threads, |i| f(&items[i]))
        .into_iter()
        .enumerate()
        .map(|(i, s)| match s {
            Some(v) => v,
            // Unreachable: the counter schedules every index exactly
            // once, and a worker panic has already propagated.
            None => panic!("parallel_map_with: slot {i} never filled"),
        })
        .collect()
}

/// [`parallel_map_with`], but with per-item panic isolation and
/// immediate serial retry: each call of `f` runs under [`catch_unwind`]
/// with its attempt index, a panicking item is re-run on the same worker
/// until it has had `attempts` tries (at least one), and an item that
/// panics on all of them degrades to [`ItemError::Panic`] instead of
/// aborting the sweep. Output slots that no worker filled degrade to
/// [`ItemError::Missing`].
///
/// Returns the results plus the total retries spent (rescuing or not),
/// for the caller's health ledger.
///
/// Ordering and bitwise determinism match [`parallel_map_with`]: `Ok`
/// values are produced by the same scalar code path in input order, and
/// retry decisions are per-item-local, so rescue behavior is independent
/// of worker count and scheduling.
///
/// `f` must be effectively unwind-safe: observable state it mutates
/// across a panic boundary (caches, instrumentation) must tolerate a
/// panicked writer — true for this workspace's sharded memo caches,
/// which only ever insert complete values and recover poisoned shards.
pub fn parallel_map_supervised<T, U, F>(
    items: &[T],
    threads: usize,
    attempts: u32,
    f: F,
) -> (Vec<Result<U, ItemError>>, u64)
where
    T: Sync,
    U: Send,
    F: Fn(&T, u32) -> U + Sync,
{
    let attempts = attempts.max(1);
    let retries = AtomicU64::new(0);
    let isolated = |i: usize| -> Result<U, ItemError> {
        let mut first_message: Option<String> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                retries.fetch_add(1, Ordering::Relaxed);
            }
            match catch_unwind(AssertUnwindSafe(|| f(&items[i], attempt))) {
                Ok(v) => return Ok(v),
                Err(payload) => {
                    first_message.get_or_insert_with(|| panic_message(payload.as_ref()));
                }
            }
        }
        Err(ItemError::Panic { message: first_message.unwrap_or_default(), retried: attempts > 1 })
    };
    let results = scoped_loop(items.len(), threads, isolated)
        .into_iter()
        .map(|s| s.unwrap_or(Err(ItemError::Missing)))
        .collect();
    (results, retries.load(Ordering::Relaxed))
}

/// Split `0..n` into `chunks` contiguous, balanced, non-empty ranges
/// (fewer than `chunks` when `n < chunks`; the first `n % chunks` ranges
/// are one longer). The partition depends only on `(n, chunks)`. The
/// pool itself hands out single items; this static split remains for
/// estimating how unevenly `chunks` workers would share `n` timed items.
#[must_use]
pub fn chunk_ranges(n: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 || chunks == 0 {
        return Vec::new();
    }
    let chunks = chunks.min(n);
    let base = n / chunks;
    let extra = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut lo = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        out.push(lo..lo + len);
        lo += len;
    }
    out
}

/// [`parallel_map_with`] at the ambient [`thread_count`].
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_with(items, thread_count(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_serial_order() {
        let items: Vec<u64> = (0..997).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let par = parallel_map_with(&items, threads, |&x| x * x + 1);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn two_worker_job_runs_on_the_caller_and_one_spawned_thread() {
        use std::sync::Barrier;
        // Both items wait for each other, so neither worker can take both:
        // the job needs two threads at once, and the caller is one of them.
        let barrier = Barrier::new(2);
        let ids = parallel_map_with(&[0u8, 1], 2, |_| {
            barrier.wait();
            std::thread::current().id()
        });
        assert_ne!(ids[0], ids[1], "the two items met on two threads");
        assert!(ids.contains(&std::thread::current().id()), "the caller is worker 0: {ids:?}");
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map_with(&empty, 8, |&x| x).is_empty());
        assert_eq!(parallel_map_with(&[42u32], 8, |&x| x + 1), vec![43]);
    }

    #[test]
    fn float_results_bitwise_stable() {
        let cs: Vec<f64> = (1..500).map(|i| f64::from(i) * 0.37).collect();
        let work = |&c: &f64| (c.sin() * c.sqrt()).exp() / (1.0 + c);
        let serial = parallel_map_with(&cs, 1, work);
        let par = parallel_map_with(&cs, 16, work);
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn thread_count_env_override() {
        // Can't mutate the environment safely in parallel tests; just check
        // the ambient value is sane.
        let n = thread_count();
        assert!(n >= 1);
        assert!(n <= MAX_THREADS.max(default_thread_count()));
    }

    #[test]
    fn isolated_panic_degrades_only_that_item() {
        let items: Vec<u64> = (0..97).collect();
        for threads in [1, 4, 16] {
            let (out, _) = parallel_map_supervised(&items, threads, POINT_ATTEMPTS, |&x, _| {
                assert!(x != 41, "boom at {x}");
                x * 3
            });
            assert_eq!(out.len(), items.len());
            for (i, r) in out.iter().enumerate() {
                if i == 41 {
                    match r {
                        Err(ItemError::Panic { message, retried }) => {
                            assert!(message.contains("boom at 41"), "message: {message}");
                            assert!(retried, "the bounded retry must have been attempted");
                        }
                        other => panic!("expected Panic at 41, got {other:?} (threads={threads})"),
                    }
                } else {
                    assert_eq!(r.as_ref().copied(), Ok(i as u64 * 3), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn isolated_retry_rescues_flaky_item() {
        use std::sync::atomic::AtomicU32;
        // Panics on its first call for item 5 only; the serial retry succeeds.
        let calls = AtomicU32::new(0);
        let (out, _) = parallel_map_supervised(&[1u32, 5, 9], 1, POINT_ATTEMPTS, |&x, _| {
            if x == 5 && calls.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient");
            }
            x + 1
        });
        assert_eq!(out, vec![Ok(2), Ok(6), Ok(10)]);
        assert_eq!(calls.load(Ordering::Relaxed), 2, "exactly one retry");
    }

    #[test]
    fn supervised_reports_retry_count_and_honors_attempts() {
        use std::sync::atomic::AtomicU32;
        // Item 3 panics on attempts 0 and 1; three attempts rescue it and
        // the retry tally reflects the two spent retries.
        let calls = AtomicU32::new(0);
        let (out, retries) = parallel_map_supervised(&[1u32, 3, 7], 1, 3, |&x, attempt| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert!(!(x == 3 && attempt < 2), "flaky at {x}");
            x * 2
        });
        assert_eq!(out, vec![Ok(2), Ok(6), Ok(14)]);
        assert_eq!(retries, 2, "two retries rescued item 3");
        assert_eq!(calls.load(Ordering::Relaxed), 5, "3 items + 2 extra attempts");
        // A single attempt leaves the flaky item dead with retried=false.
        let (out, retries) = parallel_map_supervised(&[3u32], 1, 1, |&x, attempt| {
            assert!(!(x == 3 && attempt < 2), "flaky at {x}");
            x
        });
        assert_eq!(retries, 0);
        match &out[0] {
            Err(ItemError::Panic { message, retried }) => {
                assert!(message.contains("flaky at 3"), "message: {message}");
                assert!(!retried, "a single attempt never retries");
            }
            other => panic!("expected Panic, got {other:?}"),
        }
    }

    #[test]
    fn isolated_matches_plain_map_when_clean() {
        let items: Vec<f64> = (1..300).map(f64::from).collect();
        let work = |&c: &f64| (c.ln() * c.sqrt()).sin();
        let plain = parallel_map_with(&items, 8, work);
        let (isolated, _) = parallel_map_supervised(&items, 8, POINT_ATTEMPTS, |c, _| work(c));
        for (a, b) in plain.iter().zip(&isolated) {
            let b = b.as_ref().expect("no faults injected");
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        for (n, chunks) in [(10, 3), (7, 7), (3, 8), (1, 1), (1_000_000, 16), (5, 2)] {
            let ranges = chunk_ranges(n, chunks);
            assert_eq!(ranges.len(), chunks.min(n));
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(n));
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
            }
            let lens: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
            let (min, max) = (lens.iter().min().copied(), lens.iter().max().copied());
            assert!(max.zip(min).is_some_and(|(hi, lo)| hi - lo <= 1), "balanced: {lens:?}");
            assert!(lens.iter().all(|&l| l > 0), "non-empty");
        }
        assert!(chunk_ranges(0, 4).is_empty());
        assert!(chunk_ranges(4, 0).is_empty());
    }

    #[test]
    fn item_error_display_is_descriptive() {
        let e = ItemError::Panic { message: "boom".into(), retried: true };
        assert!(e.to_string().contains("boom"));
        assert!(e.to_string().contains("retry"));
        assert!(ItemError::Missing.to_string().contains("never filled"));
    }

    #[test]
    fn invalid_thread_overrides_fall_back_to_default() {
        // Valid range.
        assert_eq!(parse_thread_count("1"), Some(1));
        assert_eq!(parse_thread_count(" 8 "), Some(8), "whitespace tolerated");
        assert_eq!(parse_thread_count("512"), Some(512), "cap itself is accepted");
        // Zero workers makes no sense: default.
        assert_eq!(parse_thread_count("0"), None);
        // Negative numbers don't parse as usize: default.
        assert_eq!(parse_thread_count("-1"), None);
        // Garbage: default.
        assert_eq!(parse_thread_count("a-lot"), None);
        assert_eq!(parse_thread_count(""), None);
        assert_eq!(parse_thread_count("3.5"), None);
        // Huge values must not spawn unbounded threads: default.
        assert_eq!(parse_thread_count("513"), None);
        assert_eq!(parse_thread_count("1000000"), None);
        // Larger than u64: parse overflow, default — not a panic.
        assert_eq!(parse_thread_count("99999999999999999999999999"), None);
        assert!(default_thread_count() >= 1);
    }
}
