//! Hierarchical, thread-aware timing spans with per-thread buffers.
//!
//! [`span`] opens a named span on the calling thread; dropping the guard
//! records it. Each thread owns a registered sink (an `Arc<Mutex<…>>`
//! touched only by that thread and the drainer, so effectively
//! uncontended), and nesting is tracked by a per-thread stack: a span
//! opened while another is live records its parent's name and its depth,
//! which the chrome-trace exporter renders as nested slices per thread
//! track.
//!
//! Completed spans are stored twice:
//!
//! * always as a flat [`StageRecord`] (name, seconds, points), drained
//!   by [`drain_stages`] into the run ledger's per-stage totals;
//! * additionally, when [`crate::ObsLevel::Trace`] is on, as a
//!   [`SpanEvent`] carrying thread id, depth, parent, and
//!   epoch-relative timestamps — drained by [`drain_trace`] and exported
//!   by [`crate::export`].
//!
//! # Panic safety
//!
//! Recording happens in `Drop`, which may run during unwinding; a panic
//! there would abort the process. Every lock on the record path therefore
//! degrades instead of panicking: a poisoned sink drops the record, and
//! the drain functions recover whatever survived via
//! [`std::sync::PoisonError::into_inner`].

use crate::recorder::{self, EventKind};
use crate::{enabled, ObsLevel};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// One completed span, flattened: the unit of the run ledger's `stages`
/// array (re-exported by `bevra_engine::instrument`).
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Stage name, e.g. `"sweep/points"` or `"welfare/gamma"`.
    pub name: String,
    /// Wall-clock duration in seconds.
    pub seconds: f64,
    /// Grid points (or other work units) the stage evaluated.
    pub points: u64,
}

impl StageRecord {
    /// Throughput in points per second.
    ///
    /// Zero-duration stages (timer granularity) that evaluated points
    /// return [`f64::INFINITY`] rather than a misleading 0; stages with no
    /// points return 0.0.
    #[must_use]
    pub fn points_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.points as f64 / self.seconds
        } else if self.points > 0 {
            f64::INFINITY
        } else {
            0.0
        }
    }
}

/// One completed span with full trace context (collected at
/// [`ObsLevel::Trace`] only).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name.
    pub name: String,
    /// Observability thread id (small integers assigned in first-span
    /// order, stable for the thread's lifetime).
    pub tid: u64,
    /// Nesting depth on its thread (0 = top level).
    pub depth: u32,
    /// Name of the enclosing span on the same thread, if any.
    pub parent: Option<String>,
    /// Start time in microseconds since the process's trace epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Work units attributed via [`Span::add_points`].
    pub points: u64,
}

#[derive(Debug, Default)]
struct SinkData {
    stages: Vec<StageRecord>,
    traces: Vec<SpanEvent>,
}

/// Per-thread buffer of completed spans, registered globally so drains can
/// collect across threads. Only its owning thread pushes; only drains read.
#[derive(Debug, Default)]
struct ThreadSink {
    data: Mutex<SinkData>,
}

/// All per-thread sinks ever registered (threads are few and sinks are
/// small; they are never unregistered).
static SINKS: Mutex<Vec<Arc<ThreadSink>>> = Mutex::new(Vec::new());

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Human-readable labels for observability thread ids, set via
/// [`set_thread_label`] and rendered by the chrome-trace exporter as
/// `thread_name` metadata (so Perfetto shows `engine-shard-3` instead of
/// a bare tid).
static LABELS: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());

struct ThreadState {
    sink: Arc<ThreadSink>,
    tid: u64,
    /// Names of the spans currently open on this thread, bottom-up.
    stack: Vec<String>,
}

thread_local! {
    static STATE: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
}

/// The process's trace epoch: all [`SpanEvent::start_us`] timestamps are
/// relative to the first instrumentation touch.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Lock, recovering the guard from a poisoned mutex instead of panicking
/// (safe here: sink/registry payloads are plain `Vec`s, never left in a
/// torn state by the push/take operations performed under the lock).
fn recover<'a, T: ?Sized>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// An open timing span. Created by [`span`]; records itself into its
/// thread's buffer on drop.
#[derive(Debug)]
pub struct Span {
    name: String,
    points: u64,
    start: Instant,
    start_us: f64,
    depth: u32,
    parent: Option<String>,
    tid: u64,
    sink: Arc<ThreadSink>,
}

impl Span {
    /// Attribute `n` more evaluated points to this span.
    pub fn add_points(&mut self, n: u64) {
        self.points += n;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let seconds = self.start.elapsed().as_secs_f64();
        // Pop this span's frame (defensively: only if it is still the top,
        // which it is unless the guard was moved across threads). try_with
        // + try_borrow_mut so a drop during thread teardown or inside
        // another span operation never panics.
        let _ = STATE.try_with(|cell| {
            if let Ok(mut st) = cell.try_borrow_mut() {
                if let Some(st) = st.as_mut() {
                    if st.stack.last() == Some(&self.name) {
                        st.stack.pop();
                    }
                }
            }
        });
        let record = StageRecord {
            name: std::mem::take(&mut self.name),
            seconds,
            points: self.points,
        };
        recorder::record(EventKind::SpanExit, &record.name, self.points, 0);
        // A poisoned sink drops the record: never panic in Drop (a panic
        // while unwinding aborts the process).
        if let Ok(mut data) = self.sink.data.lock() {
            if enabled(ObsLevel::Trace) {
                data.traces.push(SpanEvent {
                    name: record.name.clone(),
                    tid: self.tid,
                    depth: self.depth,
                    parent: self.parent.take(),
                    start_us: self.start_us,
                    dur_us: seconds * 1e6,
                    points: self.points,
                });
            }
            data.stages.push(record);
        }
    }
}

/// Open a named timing span on the current thread; it records itself when
/// dropped. Nested calls record parent/child structure automatically.
#[must_use]
pub fn span(name: impl Into<String>) -> Span {
    let name = name.into();
    let ep = epoch();
    recorder::record(EventKind::SpanEnter, &name, 0, 0);
    STATE.with(|cell| {
        let mut borrow = cell.borrow_mut();
        let st = borrow.get_or_insert_with(new_thread_state);
        let depth = st.stack.len() as u32;
        let parent = st.stack.last().cloned();
        st.stack.push(name.clone());
        let start = Instant::now();
        Span {
            name,
            points: 0,
            start,
            start_us: start.duration_since(ep).as_secs_f64() * 1e6,
            depth,
            parent,
            tid: st.tid,
            sink: Arc::clone(&st.sink),
        }
    })
}

fn new_thread_state() -> ThreadState {
    let sink = Arc::new(ThreadSink::default());
    recover(SINKS.lock()).push(Arc::clone(&sink));
    ThreadState {
        sink,
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
    }
}

/// Label the current thread's observability track (e.g.
/// `engine-shard-3`); the chrome-trace exporter emits it as `thread_name`
/// metadata. Registers the thread (assigning its tid) if it has no spans
/// yet; relabeling overwrites.
pub fn set_thread_label(label: impl Into<String>) {
    let label = label.into();
    let Ok(tid) = STATE.try_with(|cell| {
        let mut borrow = cell.borrow_mut();
        borrow.get_or_insert_with(new_thread_state).tid
    }) else {
        return;
    };
    let mut labels = recover(LABELS.lock());
    if let Some(entry) = labels.iter_mut().find(|(t, _)| *t == tid) {
        entry.1 = label;
    } else {
        labels.push((tid, label));
    }
}

/// All `(tid, label)` pairs registered via [`set_thread_label`], in
/// registration order. Labels persist across drains (a relabeled tid keeps
/// its latest label).
#[must_use]
pub fn thread_labels() -> Vec<(u64, String)> {
    recover(LABELS.lock()).clone()
}

/// Remove and return every completed stage recorded since the last drain,
/// across all threads (per thread in completion order). Poisoned buffers
/// are recovered, not propagated.
#[must_use]
pub fn drain_stages() -> Vec<StageRecord> {
    let sinks: Vec<Arc<ThreadSink>> = recover(SINKS.lock()).clone();
    let mut out = Vec::new();
    for sink in sinks {
        out.append(&mut recover(sink.data.lock()).stages);
    }
    out
}

/// Remove and return every trace event recorded since the last drain,
/// across all threads. Empty unless [`ObsLevel::Trace`] was on while spans
/// completed. Poisoned buffers are recovered, not propagated.
#[must_use]
pub fn drain_trace() -> Vec<SpanEvent> {
    let sinks: Vec<Arc<ThreadSink>> = recover(SINKS.lock()).clone();
    let mut out = Vec::new();
    for sink in sinks {
        out.append(&mut recover(sink.data.lock()).traces);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_level;

    /// Serializes tests that drain or inspect the global span buffers, so
    /// parallel test threads cannot steal each other's records.
    fn guard() -> MutexGuard<'static, ()> {
        static TEST_GUARD: Mutex<()> = Mutex::new(());
        recover(TEST_GUARD.lock())
    }

    #[test]
    fn points_per_sec_edges() {
        let worked = StageRecord { name: "s".into(), seconds: 0.0, points: 7 };
        assert_eq!(worked.points_per_sec(), f64::INFINITY, "zero-duration stage with work");
        let empty = StageRecord { name: "s".into(), seconds: 0.0, points: 0 };
        assert_eq!(empty.points_per_sec(), 0.0, "empty stage stays 0");
        let normal = StageRecord { name: "s".into(), seconds: 2.0, points: 100 };
        assert!((normal.points_per_sec() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn span_records_on_drop_and_drains() {
        let _g = guard();
        {
            let mut s = span("obs-test/stage");
            s.add_points(42);
        }
        let stages = drain_stages();
        let rec = stages
            .iter()
            .find(|r| r.name == "obs-test/stage")
            .expect("span recorded");
        assert_eq!(rec.points, 42);
        assert!(rec.seconds >= 0.0);
    }

    #[test]
    fn nesting_tracks_parent_and_depth() {
        let _g = guard();
        set_level(ObsLevel::Trace);
        {
            let _outer = span("obs-nest/outer");
            {
                let _inner = span("obs-nest/inner");
            }
        }
        set_level(ObsLevel::Off);
        let traces = drain_trace();
        let inner = traces
            .iter()
            .find(|e| e.name == "obs-nest/inner")
            .expect("inner traced");
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.parent.as_deref(), Some("obs-nest/outer"));
        let outer = traces
            .iter()
            .find(|e| e.name == "obs-nest/outer")
            .expect("outer traced");
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.parent, None);
        assert_eq!(outer.tid, inner.tid, "same thread track");
        assert!(outer.dur_us >= inner.dur_us, "parent encloses child");
        assert!(inner.start_us >= outer.start_us);
    }

    #[test]
    fn threads_get_distinct_tracks() {
        let _g = guard();
        set_level(ObsLevel::Trace);
        let here = {
            let _s = span("obs-tid/main");
            STATE.with(|c| c.borrow().as_ref().expect("state registered").tid)
        };
        let there = std::thread::spawn(|| {
            let _s = span("obs-tid/worker");
            STATE.with(|c| c.borrow().as_ref().expect("state registered").tid)
        })
        .join()
        .expect("worker ran");
        set_level(ObsLevel::Off);
        assert_ne!(here, there, "each thread has its own track id");
        let traces = drain_trace();
        assert!(traces.iter().any(|e| e.name == "obs-tid/worker" && e.tid == there));
    }

    #[test]
    fn trace_disabled_means_no_events() {
        let _g = guard();
        // Level is Off by default in the test env (or restored by other
        // tests); the stages surface still works.
        {
            let _s = span("obs-off/stage");
        }
        // Draining stages must find the record whether or not trace events
        // were collected by concurrently-running tests.
        assert!(drain_stages().iter().any(|r| r.name == "obs-off/stage"));
    }

    #[test]
    fn poisoned_sink_drops_record_and_drain_recovers() {
        let _g = guard();
        // All on a dedicated thread so no other test's sink is touched.
        std::thread::spawn(|| {
            {
                let _s = span("obs-poison/before");
            }
            let sink =
                STATE.with(|c| Arc::clone(&c.borrow().as_ref().expect("registered").sink));
            // Poison this thread's sink from a helper thread.
            let poisoner = Arc::clone(&sink);
            let _ = std::thread::spawn(move || {
                let _guard = poisoner.data.lock().expect("first lock");
                panic!("poison the sink");
            })
            .join();
            assert!(sink.data.lock().is_err(), "sink is poisoned");
            // Dropping a span on the poisoned sink must NOT panic; the
            // record is silently dropped.
            {
                let _s = span("obs-poison/lost");
            }
            // The earlier record survives and is recoverable.
            let data = recover(sink.data.lock());
            assert!(data.stages.iter().any(|r| r.name == "obs-poison/before"));
            assert!(!data.stages.iter().any(|r| r.name == "obs-poison/lost"));
        })
        .join()
        .expect("no panic leaked from the poisoned-sink path");
    }
}
