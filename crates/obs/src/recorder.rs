//! Always-on flight recorder: bounded per-thread seqlock ring buffers of
//! structured events, drained to a `results/<id>-blackbox.jsonl` black box
//! when the process panics (or on demand at the end of a faulted run).
//!
//! # What gets recorded
//!
//! Low-rate structural events only — span boundaries ([`EventKind::SpanEnter`]
//! / [`EventKind::SpanExit`]), registered-counter deltas
//! ([`EventKind::CounterDelta`]), fault-rule trips ([`EventKind::FaultTrip`],
//! fed by a [`bevra_faults::set_trip_observer`] hook), and sweep-health
//! ledger records ([`EventKind::Health`]). Per-grid-point work is never
//! recorded, so the recorder's steady-state cost is a handful of atomic
//! stores per sweep *stage*, and the disabled path is one relaxed atomic
//! load (same contract as [`crate::enabled`]).
//!
//! # Ring layout
//!
//! Each thread owns a ring of [`RING_CAPACITY`] slots. A slot is five
//! `AtomicU64` words: a seqlock `version` (odd while the owning thread is
//! mid-write, even when stable), a global logical sequence number, a packed
//! `kind`/interned-site word, and two free payload words `a`/`b`. The owning
//! thread is the only writer; the blackbox drainer (which may run on *any*
//! thread, inside a panic hook) reads `version`, the payload, then `version`
//! again, and discards the slot if the two reads disagree or are odd. Events
//! are ordered by a process-global logical sequence counter — deliberately
//! not a wall clock, so recording is invisible to the workspace's
//! determinism digests.
//!
//! # Gating
//!
//! On unless [`set_recording`]`(false)` turns it off (benches measuring its
//! cost do); the off path is one relaxed atomic load on every record site.

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, PoisonError};

/// Slots per per-thread ring; also the upper bound on events in a blackbox
/// from any single thread.
pub const RING_CAPACITY: usize = 256;

/// Maximum events written to one blackbox file (across all threads, after
/// the global merge-by-sequence).
pub const BLACKBOX_EVENTS: usize = 256;

const GATE_UNINIT: u8 = u8::MAX;
const GATE_OFF: u8 = 0;
const GATE_ON: u8 = 1;

static GATE: AtomicU8 = AtomicU8::new(GATE_UNINIT);

/// Global logical sequence counter: every recorded event takes the next
/// value, giving a total order across threads without touching the clock.
static SEQ: AtomicU64 = AtomicU64::new(1);

static NEXT_RECORDER_TID: AtomicU64 = AtomicU64::new(1);

/// Count of fault-rule trips observed process-wide (via the
/// `bevra-faults` trip observer) — lets run emitters decide whether a
/// completed run warrants a blackbox.
static FAULT_TRIPS: AtomicU64 = AtomicU64::new(0);

static BLACKBOX_WRITES: AtomicU64 = AtomicU64::new(0);

fn recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every critical section below only pushes/reads completed values, so
    // a poisoned lock still guards consistent data.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether the flight recorder is on — one relaxed atomic load after the
/// first call turns the gate on.
#[inline]
#[must_use]
pub fn recording() -> bool {
    match GATE.load(Ordering::Relaxed) {
        GATE_ON => true,
        GATE_OFF => false,
        _ => init_gate(),
    }
}

#[cold]
fn init_gate() -> bool {
    let _ = GATE.compare_exchange(GATE_UNINIT, GATE_ON, Ordering::Relaxed, Ordering::Relaxed);
    let now_on = GATE.load(Ordering::Relaxed) == GATE_ON;
    if now_on {
        hook_faults();
    }
    now_on
}

/// Force the recorder on or off for the rest of the process (benches and
/// tests; production runs leave it on).
pub fn set_recording(on: bool) {
    GATE.store(if on { GATE_ON } else { GATE_OFF }, Ordering::Relaxed);
    if on {
        hook_faults();
    }
}

/// Install the `bevra-faults` trip observer exactly once, so every fault
/// trip lands in the ring (and bumps [`fault_trips`]) regardless of which
/// crate triggered it.
fn hook_faults() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let _ = bevra_faults::set_trip_observer(on_fault_trip);
    });
}

fn on_fault_trip(kind: bevra_faults::FaultKind, site: &str, key: u64) {
    FAULT_TRIPS.fetch_add(1, Ordering::Relaxed);
    record(EventKind::FaultTrip, site, key, kind as u64);
}

/// Total fault-rule trips observed by the recorder in this process.
#[must_use]
pub fn fault_trips() -> u64 {
    FAULT_TRIPS.load(Ordering::Relaxed)
}

/// Total blackbox files written by this process.
#[must_use]
pub fn blackbox_writes() -> u64 {
    BLACKBOX_WRITES.load(Ordering::Relaxed)
}

/// The kind of a recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A span opened (`site` = span name).
    SpanEnter = 1,
    /// A span closed (`site` = span name, `a` = points attributed).
    SpanExit = 2,
    /// A registered counter moved (`site` = counter name, `a` = delta,
    /// `b` = new total).
    CounterDelta = 3,
    /// A fault rule tripped (`site` = fault site, `a` = key, `b` = the
    /// [`bevra_faults::FaultKind`] discriminant).
    FaultTrip = 4,
    /// A sweep-health ledger record was not clean (`site` = ledger label,
    /// `a` = degraded count, `b` = failed count).
    Health = 5,
    /// Synthetic final blackbox event carrying the panic message (never
    /// stored in a ring).
    Panic = 6,
}

impl EventKind {
    /// Stable lower-case label used in blackbox JSONL.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EventKind::SpanEnter => "span-enter",
            EventKind::SpanExit => "span-exit",
            EventKind::CounterDelta => "counter",
            EventKind::FaultTrip => "fault-trip",
            EventKind::Health => "health",
            EventKind::Panic => "panic",
        }
    }

    fn from_u64(v: u64) -> Option<Self> {
        Some(match v {
            1 => EventKind::SpanEnter,
            2 => EventKind::SpanExit,
            3 => EventKind::CounterDelta,
            4 => EventKind::FaultTrip,
            5 => EventKind::Health,
            6 => EventKind::Panic,
            _ => return None,
        })
    }
}

/// One event read back out of the rings (site id resolved to its string).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedEvent {
    /// Global logical sequence number (total order across threads).
    pub seq: u64,
    /// Recorder thread id (assigned in first-event order per thread;
    /// independent of the span exporter's tids).
    pub tid: u64,
    /// What happened.
    pub kind: EventKind,
    /// The site / span / counter / label the event is about.
    pub site: String,
    /// Kind-specific payload word (see [`EventKind`]).
    pub a: u64,
    /// Kind-specific payload word (see [`EventKind`]).
    pub b: u64,
}

/// One seqlock slot. `version` is odd while the owning thread is
/// mid-write; all fields are atomics so concurrent drain reads are
/// well-defined even when discarded.
struct Slot {
    version: AtomicU64,
    seq: AtomicU64,
    meta: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Self {
            version: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

struct Ring {
    tid: u64,
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl Ring {
    fn new(tid: u64) -> Self {
        Self {
            tid,
            head: AtomicU64::new(0),
            slots: (0..RING_CAPACITY).map(|_| Slot::new()).collect(),
        }
    }

    /// Single-writer push (owning thread only). Events are rare — span
    /// boundaries, fault trips — so the stores use `SeqCst` for trivially
    /// auditable seqlock semantics rather than a fence dance.
    fn push(&self, kind: EventKind, site: u32, a: u64, b: u64) {
        let n = self.head.load(Ordering::Relaxed);
        let idx = (n % RING_CAPACITY as u64) as usize;
        let Some(slot) = self.slots.get(idx) else { return };
        let v = slot.version.load(Ordering::Relaxed);
        slot.version.store(v.wrapping_add(1), Ordering::SeqCst); // odd: writing
        slot.seq.store(SEQ.fetch_add(1, Ordering::Relaxed), Ordering::SeqCst);
        slot.meta.store(((kind as u64) << 32) | u64::from(site), Ordering::SeqCst);
        slot.a.store(a, Ordering::SeqCst);
        slot.b.store(b, Ordering::SeqCst);
        slot.version.store(v.wrapping_add(2), Ordering::SeqCst); // even: stable
        self.head.store(n + 1, Ordering::Release);
    }

    /// Lock-free snapshot of the stable slots (any thread). Slots the
    /// owner is overwriting right now fail the version check and are
    /// skipped — a blackbox tolerates losing the single in-flight event.
    fn snapshot(&self, out: &mut Vec<(u64, u64, u64, u64, u64)>) {
        let head = self.head.load(Ordering::Acquire);
        let n = head.min(RING_CAPACITY as u64);
        for i in head - n..head {
            let Some(slot) = self.slots.get((i % RING_CAPACITY as u64) as usize) else {
                continue;
            };
            for _attempt in 0..3 {
                let v1 = slot.version.load(Ordering::SeqCst);
                if v1 & 1 == 1 {
                    continue;
                }
                let seq = slot.seq.load(Ordering::SeqCst);
                let meta = slot.meta.load(Ordering::SeqCst);
                let a = slot.a.load(Ordering::SeqCst);
                let b = slot.b.load(Ordering::SeqCst);
                if slot.version.load(Ordering::SeqCst) == v1 {
                    out.push((seq, self.tid, meta, a, b));
                    break;
                }
            }
        }
    }
}

/// Every per-thread ring ever registered (rings are small and never
/// unregistered, mirroring the span sinks).
static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

/// Interned site strings: id = index into the vector.
static INTERNER: Mutex<Vec<String>> = Mutex::new(Vec::new());

struct LocalRing {
    ring: Arc<Ring>,
    /// Thread-local intern cache so steady-state recording takes no
    /// global lock.
    interned: HashMap<String, u32>,
}

thread_local! {
    static LOCAL: RefCell<Option<LocalRing>> = const { RefCell::new(None) };
}

fn intern_global(site: &str) -> u32 {
    let mut table = recover(&INTERNER);
    if let Some(pos) = table.iter().position(|s| s == site) {
        return pos as u32;
    }
    table.push(site.to_string());
    (table.len() - 1) as u32
}

fn new_local() -> LocalRing {
    let ring = Arc::new(Ring::new(NEXT_RECORDER_TID.fetch_add(1, Ordering::Relaxed)));
    recover(&RINGS).push(Arc::clone(&ring));
    LocalRing { ring, interned: HashMap::new() }
}

/// Record one event on the calling thread's ring. A no-op when the
/// recorder is off; never panics (panic hooks and `Drop` impls call it).
pub fn record(kind: EventKind, site: &str, a: u64, b: u64) {
    if !recording() {
        return;
    }
    let _ = LOCAL.try_with(|cell| {
        let Ok(mut borrow) = cell.try_borrow_mut() else { return };
        let local = borrow.get_or_insert_with(new_local);
        let id = match local.interned.get(site) {
            Some(&id) => id,
            None => {
                let id = intern_global(site);
                local.interned.insert(site.to_string(), id);
                id
            }
        };
        local.ring.push(kind, id, a, b);
    });
}

/// Intern `site` in the recorder's string table, returning its stable id
/// (for pre-resolved record paths like tracked counters).
pub(crate) fn intern(site: &str) -> u32 {
    intern_global(site)
}

/// Record with a pre-interned site id — the allocation-free path used by
/// tracked counters.
pub(crate) fn record_id(kind: EventKind, site_id: u32, a: u64, b: u64) {
    if !recording() {
        return;
    }
    let _ = LOCAL.try_with(|cell| {
        let Ok(mut borrow) = cell.try_borrow_mut() else { return };
        let local = borrow.get_or_insert_with(new_local);
        local.ring.push(kind, site_id, a, b);
    });
}

/// The most recent `max` events across all threads, oldest first, merged
/// by logical sequence number. Non-destructive (rings keep their
/// contents); slots being overwritten concurrently are skipped.
#[must_use]
pub fn recent_events(max: usize) -> Vec<RecordedEvent> {
    let rings: Vec<Arc<Ring>> = recover(&RINGS).clone();
    let mut raw: Vec<(u64, u64, u64, u64, u64)> = Vec::new();
    for ring in rings {
        ring.snapshot(&mut raw);
    }
    raw.sort_unstable_by_key(|&(seq, ..)| seq);
    if raw.len() > max {
        raw.drain(..raw.len() - max);
    }
    let names: Vec<String> = recover(&INTERNER).clone();
    raw.into_iter()
        .filter_map(|(seq, tid, meta, a, b)| {
            let kind = EventKind::from_u64(meta >> 32)?;
            let site = names
                .get((meta & 0xFFFF_FFFF) as usize)
                .cloned()
                .unwrap_or_else(|| "?".to_string());
            Some(RecordedEvent { seq, tid, kind, site, a, b })
        })
        .collect()
}

struct BlackboxTarget {
    id: String,
    dir: PathBuf,
}

static BLACKBOX: Mutex<Option<BlackboxTarget>> = Mutex::new(None);

/// Arm the blackbox: from now on, any panic anywhere in the process (even
/// one later caught by `catch_unwind`, e.g. an injected fault isolated by
/// the sweep pool) drains the last [`BLACKBOX_EVENTS`] recorder events to
/// `<dir>/<id>-blackbox.jsonl`, with a final synthetic [`EventKind::Panic`]
/// event naming the tripped site. Re-arming changes the target; the panic
/// hook (which chains to the previously installed hook) is installed once.
pub fn arm_blackbox(id: &str, dir: &Path) {
    *recover(&BLACKBOX) = Some(BlackboxTarget { id: id.to_string(), dir: dir.to_path_buf() });
    let _ = recording(); // initialize the gate (and the fault observer) now
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with non-string payload".to_string());
            let _ = write_blackbox(&msg);
            prev(info);
        }));
    });
}

/// The path the armed blackbox writes to, if armed.
#[must_use]
pub fn blackbox_path() -> Option<PathBuf> {
    recover(&BLACKBOX)
        .as_ref()
        .map(|t| t.dir.join(format!("{}-blackbox.jsonl", t.id)))
}

/// Extract the fault site out of an injected-panic message
/// (`"… injected panic at <site>[<key>]"`), used for the final blackbox
/// event. Falls back to the last recorded fault-trip site, else `"?"`.
fn panic_site(msg: &str, events: &[RecordedEvent]) -> String {
    if msg.contains(bevra_faults::PANIC_MARKER) {
        if let Some(at) = msg.rfind(" at ") {
            let rest = &msg[at + 4..];
            let end = rest.find('[').unwrap_or(rest.len());
            let site = rest[..end].trim();
            if !site.is_empty() {
                return site.to_string();
            }
        }
    }
    events
        .iter()
        .rev()
        .find(|e| e.kind == EventKind::FaultTrip)
        .map(|e| e.site.clone())
        .unwrap_or_else(|| "?".to_string())
}

fn fault_token(discriminant: u64) -> Option<&'static str> {
    use bevra_faults::FaultKind as K;
    [K::Panic, K::Nan, K::Inf, K::NumErr, K::IoTransient, K::IoPermanent, K::Budget]
        .into_iter()
        .find(|k| *k as u64 == discriminant)
        .map(K::token)
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn event_line(e: &RecordedEvent) -> String {
    let mut line = format!(
        "{{\"seq\":{},\"tid\":{},\"kind\":\"{}\",\"site\":\"{}\",\"a\":{},\"b\":{}",
        e.seq,
        e.tid,
        e.kind.label(),
        esc(&e.site),
        e.a,
        e.b,
    );
    if e.kind == EventKind::FaultTrip {
        if let Some(tok) = fault_token(e.b) {
            line.push_str(&format!(",\"fault\":\"{tok}\""));
        }
    }
    line.push('}');
    line
}

/// Drain the rings to the armed blackbox file, appending one synthetic
/// final [`EventKind::Panic`] event whose `site` names the tripped fault
/// site (parsed from `reason` when it is an injected-panic message) and
/// whose `message` carries `reason` verbatim. Returns the written path, or
/// `None` when the recorder is off, nothing is armed, or I/O failed — this
/// runs inside panic hooks, so it never propagates errors. The write is
/// temp-then-rename via plain `std::fs` (deliberately *not* the
/// fault-instrumented writer: a blackbox must not itself be injectable).
pub fn write_blackbox(reason: &str) -> Option<PathBuf> {
    if !recording() {
        return None;
    }
    let (id, dir) = {
        let armed = recover(&BLACKBOX);
        let target = armed.as_ref()?;
        (target.id.clone(), target.dir.clone())
    };
    let events = recent_events(BLACKBOX_EVENTS);
    let mut body = String::new();
    for e in &events {
        body.push_str(&event_line(e));
        body.push('\n');
    }
    let site = panic_site(reason, &events);
    body.push_str(&format!(
        "{{\"seq\":{},\"kind\":\"panic\",\"site\":\"{}\",\"message\":\"{}\"}}\n",
        SEQ.fetch_add(1, Ordering::Relaxed),
        esc(&site),
        esc(reason),
    ));
    let n = BLACKBOX_WRITES.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("{id}-blackbox.jsonl"));
    let tmp = dir.join(format!("{id}-blackbox.jsonl.tmp{n}"));
    std::fs::create_dir_all(&dir).ok()?;
    std::fs::write(&tmp, body.as_bytes()).ok()?;
    if std::fs::rename(&tmp, &path).is_err() {
        let _ = std::fs::remove_file(&tmp);
        return None;
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> MutexGuard<'static, ()> {
        static TEST_GUARD: Mutex<()> = Mutex::new(());
        recover(&TEST_GUARD)
    }

    #[test]
    fn events_merge_in_sequence_order_across_threads() {
        let _g = guard();
        set_recording(true);
        record(EventKind::SpanEnter, "rec-test/main", 0, 0);
        std::thread::spawn(|| {
            record(EventKind::SpanEnter, "rec-test/worker", 7, 0);
            record(EventKind::SpanExit, "rec-test/worker", 7, 0);
        })
        .join()
        .expect("worker ran");
        record(EventKind::SpanExit, "rec-test/main", 0, 0);
        let events = recent_events(BLACKBOX_EVENTS);
        let ours: Vec<&RecordedEvent> =
            events.iter().filter(|e| e.site.starts_with("rec-test/")).collect();
        assert!(ours.len() >= 4, "got {}", ours.len());
        let seqs: Vec<u64> = ours.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "merge is in global sequence order");
        let worker = ours.iter().find(|e| e.site == "rec-test/worker").expect("worker event");
        let main = ours.iter().find(|e| e.site == "rec-test/main").expect("main event");
        assert_ne!(worker.tid, main.tid, "threads get distinct recorder tids");
    }

    #[test]
    fn ring_bounds_retained_events() {
        let _g = guard();
        set_recording(true);
        for i in 0..(RING_CAPACITY as u64 + 50) {
            record(EventKind::CounterDelta, "rec-bound/ctr", i, 0);
        }
        let events = recent_events(usize::MAX);
        let ours: Vec<u64> = events
            .iter()
            .filter(|e| e.site == "rec-bound/ctr")
            .map(|e| e.a)
            .collect();
        assert!(ours.len() <= RING_CAPACITY);
        // The newest events survive; the oldest were overwritten.
        assert_eq!(ours.last().copied(), Some(RING_CAPACITY as u64 + 49));
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let _g = guard();
        set_recording(false);
        record(EventKind::SpanEnter, "rec-off/none", 0, 0);
        let events = recent_events(usize::MAX);
        assert!(!events.iter().any(|e| e.site == "rec-off/none"));
        set_recording(true);
    }

    #[test]
    fn panic_site_extraction() {
        let msg = format!("{} at engine/point[3]", bevra_faults::PANIC_MARKER);
        assert_eq!(panic_site(&msg, &[]), "engine/point");
        let fallback = vec![RecordedEvent {
            seq: 1,
            tid: 1,
            kind: EventKind::FaultTrip,
            site: "io/report".into(),
            a: 0,
            b: 4,
        }];
        assert_eq!(panic_site("ordinary panic", &fallback), "io/report");
        assert_eq!(panic_site("ordinary panic", &[]), "?");
    }

    #[test]
    fn blackbox_writes_parseable_jsonl_with_final_panic_event() {
        let _g = guard();
        set_recording(true);
        let dir = std::env::temp_dir().join("bevra-recorder-test");
        arm_blackbox("rec-unit", &dir);
        record(EventKind::FaultTrip, "engine/point", 3, 0);
        let msg = format!("{} at engine/point[3]", bevra_faults::PANIC_MARKER);
        let path = write_blackbox(&msg).expect("blackbox written");
        let text = std::fs::read_to_string(&path).expect("readable");
        let last = text.lines().last().expect("non-empty");
        assert!(last.contains("\"kind\":\"panic\""), "last line: {last}");
        assert!(last.contains("\"site\":\"engine/point\""), "last line: {last}");
        assert!(text.lines().any(|l| l.contains("\"kind\":\"fault-trip\"")
            && l.contains("\"site\":\"engine/point\"")
            && l.contains("\"fault\":\"panic\"")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
