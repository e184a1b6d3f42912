//! The benchmark's own span recorder.
//!
//! Spans wrap calls into the workspace crates from the outside: name,
//! start, end, parent and thread. They stay in memory while a traced
//! sample runs and are aggregated into self times when it ends. Nothing
//! here touches the program's own tracing (`fgbs-trace`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span (0 = root). May live on another thread
    /// when work fans out over the pool.
    pub parent: u64,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static CLOSED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Start recording; returns nothing recorded before.
pub fn start() {
    CLOSED.lock().expect("span buffer lock").clear();
    ON.store(true, Ordering::SeqCst);
}

/// Stop recording and hand back every span closed since [`start`].
pub fn stop() -> Vec<Span> {
    ON.store(false, Ordering::SeqCst);
    std::mem::take(&mut *CLOSED.lock().expect("span buffer lock"))
}

/// An open span; recorded when dropped.
pub struct Guard {
    live: Option<(u64, u64, &'static str, u64)>,
}

/// Open a span named `name` under the innermost open span of this thread.
pub fn enter(name: &'static str) -> Guard {
    if !ON.load(Ordering::Relaxed) {
        return Guard { live: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Guard {
        live: Some((id, parent, name, now_ns())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.live.take() else {
            return;
        };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&open| open == id) {
                s.truncate(pos);
            }
        });
        let span = Span {
            id,
            parent,
            name,
            thread: THREAD.with(|t| *t),
            start_ns,
            end_ns,
        };
        CLOSED.lock().expect("span buffer lock").push(span);
    }
}

/// Run `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = enter(name);
    f()
}

/// The innermost open span on this thread (0 = none).
pub fn current() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Make `parent` (a span open on another thread) the parent of the spans
/// this thread opens until the guard drops. Pool workers call it so
/// their spans hang under the submitting span.
pub fn adopt(parent: u64) -> Adopted {
    STACK.with(|s| s.borrow_mut().push(parent));
    Adopted { parent }
}

pub struct Adopted {
    parent: u64,
}

impl Drop for Adopted {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&open| open == self.parent) {
                s.truncate(pos);
            }
        });
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    pub count: u64,
    /// Summed durations, children included.
    pub incl_ns: u64,
    /// Summed durations minus the parts covered by child spans on the
    /// same thread. Children on other threads run concurrently, so they
    /// are not subtracted: a span waiting on the pool keeps its wait.
    pub self_ns: u64,
}

/// Aggregate spans into per-name totals.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let covered = child_cover(spans);
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.incl_ns += s.dur_ns();
        t.self_ns += s
            .dur_ns()
            .saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// For every span id, the time its same-thread children cover.
fn child_cover(spans: &[Span]) -> BTreeMap<u64, u64> {
    let thread_of: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.thread)).collect();
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if thread_of.get(&s.parent) == Some(&s.thread) {
            *covered.entry(s.parent).or_insert(0) += s.dur_ns();
        }
    }
    covered
}

/// Root-span time (spans named `bench.*`, one per blocking thread of a
/// request) that no same-thread child span covers, and the roots' summed
/// time. The roots' children wrap whole stage calls, so this is near 0
/// by construction; it catches a call the composition makes outside a
/// span, not a change to the program.
pub fn unattributed(spans: &[Span]) -> (u64, u64) {
    let covered = child_cover(spans);
    spans
        .iter()
        .filter(|s| s.name.starts_with("bench."))
        .fold((0, 0), |(gap, wall), s| {
            let c = covered.get(&s.id).copied().unwrap_or(0);
            (gap + s.dur_ns().saturating_sub(c), wall + s.dur_ns())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, thread: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent == 0 { "bench.root" } else { "layer" },
            thread,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let spans = vec![
            span(1, 0, 1, 0, 100),
            span(2, 1, 1, 10, 40),
            span(3, 1, 2, 0, 90), // concurrent child on another thread
        ];
        let t = totals(&spans);
        assert_eq!(t["bench.root"].self_ns, 70);
        assert_eq!(t["layer"].self_ns, 30 + 90);
        assert_eq!(unattributed(&spans), (70, 100));
    }
}
