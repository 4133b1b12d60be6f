//! Spans and counters taken from outside the program: the traced run
//! calls each layer's public functions itself and times those calls here,
//! so the library carries no tracing of its own for the benchmark.

use bevra_core::retrying::LoadFamily;
use bevra_load::Tabulated;
use bevra_obs::SpanEvent;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer call, e.g. `kernel.prime`.
    pub name: String,
    /// Start time.
    pub start: f64,
    /// End time (equal to `start` while open).
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// In-memory recorder of the spans the harness's main thread opens
/// around layer calls. The caller opens a root span named for the
/// workload, so every span carries its workload through its ancestry.
/// Spans stay in memory until the run ends and are written out once.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Default for Tracer {
    /// Recorder with its epoch now.
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &str) -> usize {
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(SpanRec {
            name: name.to_owned(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one) and return its duration
    /// in seconds.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not the innermost open span.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end = self.epoch.elapsed().as_secs_f64();
        span.end - span.start
    }

    /// Summed duration of the spans directly under span `root`.
    #[must_use]
    pub fn children_s(&self, root: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.end - s.start)
            .sum()
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// The spans as `bevra-obs` events on one track, ready for
    /// [`bevra_obs::export::trace_json`] (Perfetto's chrome-trace format).
    #[must_use]
    pub fn events(&self) -> Vec<SpanEvent> {
        let depth = |mut i: usize| {
            let mut d = 0;
            while let Some(p) = self.spans[i].parent {
                d += 1;
                i = p;
            }
            d
        };
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| SpanEvent {
                name: s.name.clone(),
                tid: 1,
                depth: depth(i),
                parent: s.parent.map(|p| self.spans[p].name.clone()),
                start_us: s.start * 1e6,
                dur_us: (s.end - s.start) * 1e6,
                points: 0,
            })
            .collect()
    }
}

/// Per-layer numbers of one traced run, keyed by metric name. Adding to a
/// name accumulates, so a layer called several times reports its total.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    /// Add `v` to metric `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// Set metric `name` to `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    /// Current value of `name` (0 when never recorded).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Counters of a [`CountingFamily`], shared by every family of one run.
/// Times are summed over the threads that called `make`.
#[derive(Debug, Default)]
pub struct LoadStats {
    /// `make` calls.
    pub make_calls: AtomicU64,
    /// Distinct tables requested: calls whose mean no earlier call to the
    /// same family asked for.
    pub builds: AtomicU64,
    /// Entries of those tables.
    pub entries: AtomicU64,
    /// Calls that returned a table not returned before: the tables the
    /// families actually built, including a table two threads built at
    /// once and one rebuilt after a cache flush.
    pub table_builds: AtomicU64,
    /// Nanoseconds inside every `make` call.
    pub make_ns: AtomicU64,
    /// Nanoseconds inside the `make` calls that built a table.
    pub build_ns: AtomicU64,
    /// Weak handles to every table returned so far. Holding them keeps
    /// each table's allocation header alive, so a freed table's address
    /// is never reused and address identity means table identity.
    seen: Mutex<(HashSet<usize>, Vec<Weak<Tabulated>>)>,
}

/// A [`LoadFamily`] that forwards to `inner` and counts and times each
/// call into `stats`. It changes no table: the same `Arc` comes back.
pub struct CountingFamily<F> {
    inner: F,
    stats: Arc<LoadStats>,
    /// Cache keys requested so far.
    keys: Mutex<HashSet<u64>>,
}

impl<F: LoadFamily> CountingFamily<F> {
    /// Wrap `inner`, recording into `stats`.
    pub fn new(inner: F, stats: Arc<LoadStats>) -> Self {
        Self {
            inner,
            stats,
            keys: Mutex::new(HashSet::new()),
        }
    }
}

impl<F: LoadFamily> LoadFamily for CountingFamily<F> {
    fn make(&self, mean: f64) -> Arc<Tabulated> {
        let t0 = Instant::now();
        let table = self.inner.make(mean);
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let st = &self.stats;
        st.make_calls.fetch_add(1, Ordering::Relaxed);
        st.make_ns.fetch_add(ns, Ordering::Relaxed);
        // The families key their caches by the mean quantized to 1e-4;
        // the first request of a key is a table the model needs. Counting
        // those repeats exactly under any thread interleaving, which the
        // families' own builds (races, cache flushes) do not.
        let key = (mean * 1e4).round() as u64;
        if self
            .keys
            .lock()
            .expect("no panic while holding the key set")
            .insert(key)
        {
            st.builds.fetch_add(1, Ordering::Relaxed);
            st.entries.fetch_add(table.len() as u64, Ordering::Relaxed);
        }
        let mut seen = st.seen.lock().expect("no panic while holding the seen set");
        if seen.0.insert(Arc::as_ptr(&table) as usize) {
            seen.1.push(Arc::downgrade(&table));
            st.table_builds.fetch_add(1, Ordering::Relaxed);
            st.build_ns.fetch_add(ns, Ordering::Relaxed);
        }
        drop(seen);
        table
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bevra_core::retrying::GeometricFamily;

    #[test]
    fn nested_spans_and_coverage() {
        let mut t = Tracer::default();
        let root = t.open("w");
        let a = t.open("a");
        let b = t.open("b");
        t.close(b);
        t.close(a);
        t.close(root);
        assert_eq!(t.spans()[b].parent, Some(a));
        let ev = t.events();
        assert_eq!(ev[2].depth, 2);
        assert_eq!(ev[2].parent.as_deref(), Some("a"));
        assert!(t.children_s(root) <= t.spans()[root].end - t.spans()[root].start);
    }

    #[test]
    fn counting_family_tells_builds_from_hits() {
        let stats = Arc::new(LoadStats::default());
        let fam = CountingFamily::new(GeometricFamily::new(1e-10, 1 << 12), Arc::clone(&stats));
        let a = fam.make(10.0);
        let b = fam.make(10.0);
        let c = fam.make(20.0);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(stats.make_calls.load(Ordering::Relaxed), 3);
        assert_eq!(stats.builds.load(Ordering::Relaxed), 2);
        assert_eq!(stats.table_builds.load(Ordering::Relaxed), 2);
        assert_eq!(
            stats.entries.load(Ordering::Relaxed),
            (a.len() + c.len()) as u64
        );
    }
}
