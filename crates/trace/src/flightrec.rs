//! The flight recorder: an always-on, bounded window of recent events.
//!
//! Traces answer "what happened in the run I instrumented"; the flight
//! recorder answers "what just happened in the process that failed".
//! It keeps no buffer of its own: it reads the newest records of every
//! thread's log (see the crate docs), where the tracer writes closed
//! spans and counter bumps, and it adds notes and triggers to the same
//! log. A note costs no allocation once the log has filled and touches
//! only the owning thread's log through an uncontended lock — the
//! `obs/flightrec_record` barometer entry gates it under 50 ns/event,
//! so the recorder stays armed in production. With tracing off, an
//! armed recorder keeps [`DEFAULT_RING_CAPACITY`] records per log; with
//! tracing on, the log keeps what [`crate::set_capacity`] allows.
//!
//! When something goes wrong — a panic, a 503/deadline expiry, a
//! quarantined artifact, an armed failpoint firing — the failing site
//! calls [`trigger`], which merges every thread's window into a
//! time-sorted [`Dump`] and hands it to the installed sink (the serve
//! daemon persists dumps as `diagnostic` store artifacts keyed by
//! request id; see `fgbs flightrec show`). A thread-local re-entrancy
//! latch makes a sink that itself trips a failpoint safe: the nested
//! trigger records an event but never recurses into another dump.
//!
//! Events carry the ambient request id ([`crate::current_request_id`])
//! so a dump window can be filtered to the request that failed even
//! though logs interleave events from concurrent requests.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::Json;

/// Records of each thread's log that a dump reads, and that the armed
/// recorder keeps while tracing is off.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// What kind of occurrence an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span closed; `value` is its duration in nanoseconds.
    Span,
    /// A counter bumped; `value` is the delta.
    Counter,
    /// An explicit annotation; `value` is caller-defined.
    Note,
    /// A dump trigger fired; `value` is the triggering request id.
    Trigger,
}

impl EventKind {
    /// Stable lowercase name used in dump serialization.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Counter => "counter",
            EventKind::Note => "note",
            EventKind::Trigger => "trigger",
        }
    }
}

/// One flight-recorder record: 56 bytes on 64-bit targets, fixed
/// layout, no heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Nanoseconds on the trace clock ([`crate::now_ns`]).
    pub ts_ns: u64,
    /// Ambient request id when recorded (0 = none).
    pub request: u64,
    /// Trace-local thread id (matches span `tid`s).
    pub tid: u64,
    /// Occurrence kind.
    pub kind: EventKind,
    /// Event name (span name, counter name, or trigger reason).
    pub name: &'static str,
    /// Kind-dependent payload (duration, delta, request id).
    pub value: u64,
}

/// A merged, time-sorted window of recent events, produced by
/// [`dump`]/[`trigger`].
#[derive(Debug, Clone)]
pub struct Dump {
    /// Why the dump was taken (`"panic"`, `"deadline"`, ...).
    pub reason: String,
    /// The request the failure is attributed to (0 = none).
    pub request: u64,
    /// When the dump was taken, on the trace clock.
    pub ts_ns: u64,
    /// Events from every thread's window, ascending by timestamp.
    pub events: Vec<Event>,
}

impl Dump {
    /// Serialize as the `diagnostic` artifact body (schema 1).
    pub fn to_json(&self) -> Json {
        let events = self
            .events
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("ts_ns", Json::U64(e.ts_ns)),
                    ("req", Json::U64(e.request)),
                    ("tid", Json::U64(e.tid)),
                    ("kind", Json::str(e.kind.as_str())),
                    ("name", Json::str(e.name)),
                    ("value", Json::U64(e.value)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::U64(1)),
            ("reason", Json::str(self.reason.clone())),
            ("request", Json::U64(self.request)),
            ("ts_ns", Json::U64(self.ts_ns)),
            ("events", Json::Arr(events)),
        ])
    }

    /// Only the events recorded under `request` (plus trigger marks).
    pub fn events_for(&self, request: u64) -> Vec<&Event> {
        self.events.iter().filter(|e| e.request == request).collect()
    }
}

// ---------------------------------------------------------------------
// Recorder internals
// ---------------------------------------------------------------------

static ARMED: AtomicBool = AtomicBool::new(false);

/// The dump sink; installed once by the daemon (or a test), invoked by
/// [`trigger`] outside the sink lock.
type Sink = Arc<dyn Fn(&Dump) + Send + Sync>;
static SINK: Mutex<Option<Sink>> = Mutex::new(None);

thread_local! {
    /// Re-entrancy latch: a sink that trips another trigger (e.g. a
    /// store failpoint while persisting the dump) must not recurse.
    static IN_TRIGGER: Cell<bool> = const { Cell::new(false) };
}

/// Arm or disarm the recorder. [`crate::set_enabled`] arms it by
/// default alongside tracing; disarming makes [`record_at`] a single
/// relaxed load. Closed spans and counter bumps are trace records and
/// enter the window whenever tracing is on.
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// Whether the recorder is armed.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Record an event with an explicit timestamp into this thread's log.
/// A [`EventKind::Counter`] event counts toward the trace's counters.
#[inline]
pub fn record_at(ts_ns: u64, kind: EventKind, name: &'static str, value: u64) {
    if !armed() {
        return;
    }
    crate::write_event(ts_ns, kind, name, value);
}

/// Record an explicit [`EventKind::Note`] stamped with the current
/// trace-clock time.
#[inline]
pub fn note(name: &'static str, value: u64) {
    if !armed() {
        return;
    }
    record_at(crate::now_ns(), EventKind::Note, name, value);
}

/// Merge the newest [`DEFAULT_RING_CAPACITY`] records of every thread's
/// log into one time-sorted window.
pub fn dump() -> Vec<Event> {
    let mut events = Vec::new();
    for log in crate::LOGS.lock().iter() {
        let log = log.lock();
        let from = log.records.len().saturating_sub(DEFAULT_RING_CAPACITY);
        events.extend(log.records.range(from..).map(crate::Record::event));
    }
    events.sort_by_key(|e| (e.ts_ns, e.tid));
    events
}

/// Like [`dump`] but keeping only events recorded under `request`.
pub fn dump_for(request: u64) -> Vec<Event> {
    let mut events = dump();
    events.retain(|e| e.request == request);
    events
}

/// Install the dump sink invoked by [`trigger`]. The daemon installs a
/// sink that persists dumps into the artifact store; `Service::new`
/// deliberately does not, so embedded services (and the chaos
/// byte-identity suite) never write diagnostics as a side effect.
pub fn set_sink(sink: impl Fn(&Dump) + Send + Sync + 'static) {
    *SINK.lock() = Some(Arc::new(sink));
}

/// Remove the installed sink, if any.
pub fn clear_sink() {
    *SINK.lock() = None;
}

/// Mark a failure and, if a sink is installed, deliver the merged
/// window to it. Always records a [`EventKind::Trigger`] event (when
/// armed) so the failure is visible in later dumps even without a
/// sink. Nested triggers from inside a sink are recorded but do not
/// produce a second dump.
pub fn trigger(reason: &'static str, request: u64) {
    let ts = crate::now_ns();
    record_at(ts, EventKind::Trigger, reason, request);
    if !armed() {
        return;
    }
    let Some(sink) = SINK.lock().clone() else {
        return;
    };
    let nested = IN_TRIGGER.with(|latch| latch.replace(true));
    if nested {
        return;
    }
    // Reset the latch even if the sink panics (the daemon's panic
    // handler would otherwise never dump again on this thread).
    struct Unlatch;
    impl Drop for Unlatch {
        fn drop(&mut self) {
            IN_TRIGGER.with(|latch| latch.set(false));
        }
    }
    let _unlatch = Unlatch;
    let d = Dump {
        reason: reason.to_string(),
        request,
        ts_ns: ts,
        events: dump(),
    };
    sink(&d);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        // One process-global lock shared with the collector tests: the
        // logs, sink and arming flag are all global state.
        let g = crate::tests::TEST_LOCK.lock();
        clear_sink();
        arm(true);
        crate::tests::clear_logs();
        g
    }

    #[test]
    fn disarmed_recording_is_a_no_op() {
        let _g = exclusive();
        arm(false);
        note("ghost", 1);
        assert!(dump().iter().all(|e| e.name != "ghost"));
    }

    #[test]
    fn ring_overwrites_oldest_and_dump_sorts() {
        let _g = exclusive();
        crate::set_capacity(8);
        crate::set_enabled(true);
        for i in 0..20u64 {
            record_at(i, EventKind::Note, "tick", i);
        }
        crate::set_enabled(false);
        crate::set_capacity(0);
        let events: Vec<Event> = dump().into_iter().filter(|e| e.name == "tick").collect();
        assert_eq!(events.len(), 8, "bounded window");
        let values: Vec<u64> = events.iter().map(|e| e.value).collect();
        assert_eq!(values, (12..20).collect::<Vec<u64>>(), "oldest evicted, sorted");
    }

    #[test]
    fn trigger_delivers_a_dump_to_the_sink_once() {
        let _g = exclusive();
        let seen: Arc<Mutex<Vec<(String, u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        set_sink(move |d| {
            // A sink that itself triggers must not recurse.
            trigger("nested", 0);
            sink_seen.lock().push((d.reason.clone(), d.request, d.events.len()));
        });
        note("before", 7);
        trigger("deadline", 42);
        clear_sink();
        let calls = seen.lock().clone();
        assert_eq!(calls.len(), 1, "one dump per trigger, no recursion");
        let (reason, request, n) = &calls[0];
        assert_eq!(reason, "deadline");
        assert_eq!(*request, 42);
        assert!(*n >= 2, "window holds the note and the trigger mark");
    }

    #[test]
    fn dump_for_filters_by_request() {
        let _g = exclusive();
        {
            let _r = crate::enter_request(91);
            note("mine", 1);
        }
        note("ambient", 2);
        let mine = dump_for(91);
        assert!(mine.iter().any(|e| e.name == "mine"));
        assert!(mine.iter().all(|e| e.request == 91));
    }

    #[test]
    fn dump_serializes_and_reparses() {
        let d = Dump {
            reason: "panic".to_string(),
            request: 5,
            ts_ns: 123,
            events: vec![Event {
                ts_ns: 100,
                request: 5,
                tid: 0,
                kind: EventKind::Span,
                name: "stage.reduce",
                value: 999,
            }],
        };
        let rendered = d.to_json().render();
        let parsed = Json::parse(&rendered).expect("dump json parses");
        assert_eq!(parsed.get("reason").and_then(Json::as_str), Some("panic"));
        assert_eq!(parsed.get("request").and_then(Json::as_u64), Some(5));
        let events = parsed.get("events").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("kind").and_then(Json::as_str), Some("span"));
        assert_eq!(events[0].get("value").and_then(Json::as_u64), Some(999));
    }
}
