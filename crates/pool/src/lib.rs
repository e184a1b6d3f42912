//! The shared work pool: one parallel executor for every hot loop.
//!
//! The simulator's application and microbenchmark runs and GA fitness
//! evaluation all reduce to the same shape — *map a pure function over
//! an index range* — so they share this one executor instead of each
//! spawning raw threads.
//!
//! # Design
//!
//! [`WorkPool::map_indexed`] splits the index range into cache-friendly
//! chunks and deals them round-robin onto per-worker deques. Each worker
//! drains its own deque from the front and, when empty, *steals* from the
//! back of the most-loaded victim — dynamic load balancing without a
//! central bottleneck. Threads are scoped (`std::thread::scope`), so the
//! mapped closure may borrow freely from the caller's stack.
//!
//! # Determinism contract
//!
//! Every result is written to the slot of its *index*, never to a
//! position dependent on scheduling, and the mapped function is required
//! to be pure (same index ⇒ same value). Under that contract the output
//! of [`WorkPool::map_indexed`] is **bitwise identical** for every thread
//! count, including the inline serial path — the property the determinism
//! test suite in `tests/properties.rs` enforces end-to-end.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod exec;
mod memo;

pub use exec::Executor;
pub use memo::MemoCache;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// A scoped, work-stealing executor over index ranges.
///
/// The pool is a lightweight handle (it holds only the thread count);
/// worker threads are spawned per call and joined before the call
/// returns, so borrowed data stays sound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkPool {
    threads: usize,
}

/// Target number of chunks dealt per worker: enough slack for stealing to
/// even out imbalance, few enough to keep claim overhead negligible.
const CHUNKS_PER_WORKER: usize = 8;

/// One chunk's output window: the chunk's start index plus exclusive
/// access to the result slots it owns.
type Window<'a, R> = Mutex<(usize, &'a mut [Option<R>])>;

impl WorkPool {
    /// A pool running on `threads` workers. `0` selects the machine's
    /// available parallelism.
    pub fn new(threads: usize) -> WorkPool {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        WorkPool { threads }
    }

    /// A single-threaded pool: every map runs inline on the caller.
    pub fn serial() -> WorkPool {
        WorkPool { threads: 1 }
    }

    /// Number of worker threads this pool uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `0..n`, returning results in index order.
    ///
    /// `f` must be pure: the determinism contract (identical output for
    /// every thread count) holds only when `f(i)` depends on `i` alone.
    ///
    /// Every call records a `pool.map` trace span; spans recorded inside
    /// `f` on worker threads inherit it as their parent, so the logical
    /// span tree is the same whether the map runs inline or fanned out.
    pub fn map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut map_span = fgbs_trace::span("pool.map");
        map_span.arg_u64("items", n as u64);
        fgbs_trace::counter("pool.maps", 1);
        fgbs_trace::counter("pool.items", n as u64);
        // Chaos failpoint at the fan-out boundary: a `delay` rule here
        // stalls the whole map (e.g. to force a request deadline to
        // expire) without perturbing the per-item work or its ordering.
        fgbs_fault::maybe_delay("pool.map");

        let workers = self.threads.min(n.max(1));
        if workers <= 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        // The open `pool.map` span is the logical parent of every span
        // `f` records on a worker, and the submitting thread's request
        // id follows the work onto the workers the same way.
        let span_parent = fgbs_trace::current_span_id();
        let request_id = fgbs_trace::current_request_id();

        let chunk = chunk_size(n, workers);
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);

        {
            // Disjoint output windows, one per chunk; a chunk is claimed by
            // exactly one worker, so each Mutex is uncontended in practice.
            let windows: Vec<Window<'_, R>> = out
                .chunks_mut(chunk)
                .enumerate()
                .map(|(c, w)| Mutex::new((c * chunk, w)))
                .collect();

            // Deal chunk ids round-robin onto per-worker deques.
            let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
                .map(|w| Mutex::new((w..windows.len()).step_by(workers).collect()))
                .collect();
            let in_flight = AtomicUsize::new(windows.len());

            std::thread::scope(|scope| {
                for me in 0..workers {
                    let queues = &queues;
                    let windows = &windows;
                    let in_flight = &in_flight;
                    let f = &f;
                    scope.spawn(move || {
                        let _trace_ctx = fgbs_trace::inherit_parent(span_parent);
                        let _request_ctx = fgbs_trace::enter_request(request_id);
                        let spawned = std::time::Instant::now();
                        let mut run_ns: u64 = 0;
                        let mut chunks: u64 = 0;
                        loop {
                            // Own work first (front), then steal from the
                            // back of the most-loaded victim. The own-queue
                            // guard must drop before stealing: holding it
                            // while locking a victim's queue is an AB-BA
                            // deadlock when two empty workers steal from
                            // each other.
                            let own = queues[me].lock().pop_front();
                            let next = own.or_else(|| {
                                let victim = (0..queues.len())
                                    .filter(|&v| v != me)
                                    .max_by_key(|&v| queues[v].lock().len())?;
                                queues[victim].lock().pop_back()
                            });
                            let Some(c) = next else {
                                // All queues looked empty; someone may still
                                // be filling slots, but no new work will
                                // appear.
                                if in_flight.load(Ordering::Acquire) == 0 {
                                    break;
                                }
                                std::thread::yield_now();
                                if queues.iter().all(|q| q.lock().is_empty()) {
                                    break;
                                }
                                continue;
                            };
                            let run_started = std::time::Instant::now();
                            let mut guard = windows[c].lock();
                            let (start, window) = &mut *guard;
                            for (off, slot) in window.iter_mut().enumerate() {
                                *slot = Some(f(*start + off));
                            }
                            in_flight.fetch_sub(1, Ordering::Release);
                            run_ns += run_started.elapsed().as_nanos() as u64;
                            chunks += 1;
                        }
                        // Queue wait = worker lifetime minus time spent
                        // running chunks: claim/steal/idle overhead.
                        if fgbs_trace::enabled() {
                            let total_ns = spawned.elapsed().as_nanos() as u64;
                            fgbs_trace::stat(&format!("pool.w{me}.run_us"), run_ns / 1_000);
                            fgbs_trace::stat(
                                &format!("pool.w{me}.wait_us"),
                                total_ns.saturating_sub(run_ns) / 1_000,
                            );
                            fgbs_trace::stat(&format!("pool.w{me}.chunks"), chunks);
                        }
                    });
                }
            });
        }

        out.into_iter()
            .map(|r| r.expect("every chunk was executed"))
            .collect()
    }

    /// Run `f` for every index in `0..n`, for side effects (e.g.
    /// filling a shared memo of microbenchmark results).
    ///
    /// Same scheduling and determinism contract as
    /// [`WorkPool::map_indexed`]: every index runs exactly once, and
    /// when `f(i)`'s effect is a pure function of `i` the combined
    /// effect is identical at every thread count.
    pub fn for_each_indexed<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let _ = self.map_indexed(n, &f);
    }

    /// Map `f` over a slice, returning results in item order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_indexed(items.len(), |i| f(i, &items[i]))
    }
}

impl Default for WorkPool {
    fn default() -> Self {
        WorkPool::new(0)
    }
}

/// Chunk size giving each worker several chunks to claim or lose.
fn chunk_size(n: usize, workers: usize) -> usize {
    n.div_ceil(workers * CHUNKS_PER_WORKER).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_index_order() {
        let pool = WorkPool::new(4);
        let out = pool.map_indexed(1000, |i| i * i);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn identical_across_thread_counts() {
        let reference: Vec<u64> = (0..511u64).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
        for threads in [1, 2, 3, 8, 16] {
            let pool = WorkPool::new(threads);
            let got = pool.map_indexed(511, |i| (i as u64).wrapping_mul(0x9E3779B9));
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = WorkPool::new(8);
        let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        pool.map_indexed(257, |i| hits[i].fetch_add(1, Ordering::Relaxed));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn unbalanced_work_is_stolen() {
        // Front-loaded cost: without stealing, worker 0 would do almost
        // everything while the rest idle; with stealing it still finishes
        // and stays correct.
        let pool = WorkPool::new(4);
        let out = pool.map_indexed(64, |i| {
            if i < 8 {
                // Simulate heavy items.
                (0..200_000u64).fold(i as u64, |a, x| a.wrapping_add(x))
            } else {
                i as u64
            }
        });
        assert_eq!(out.len(), 64);
        assert_eq!(out[63], 63);
    }

    #[test]
    fn repeated_small_maps_do_not_deadlock() {
        // Regression: stealing while still holding the own-queue guard
        // deadlocked two simultaneously-empty workers (AB-BA). Many tiny
        // maps with more workers than chunks maximise empty-steal
        // collisions.
        let pool = WorkPool::new(8);
        for round in 0..300 {
            let out = pool.map_indexed(5, |i| i + round);
            assert_eq!(out, vec![round, round + 1, round + 2, round + 3, round + 4]);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = WorkPool::new(8);
        assert_eq!(pool.map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map_indexed(1, |i| i + 7), vec![7]);
        assert_eq!(WorkPool::serial().map_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn map_over_slice_borrows() {
        let pool = WorkPool::new(4);
        let items: Vec<String> = (0..100).map(|i| format!("item{i}")).collect();
        let lens = pool.map(&items, |i, s| s.len() + i);
        assert_eq!(lens[0], 5);
        assert_eq!(lens[99], "item99".len() + 99);
    }

    #[test]
    fn zero_requests_available_parallelism() {
        assert!(WorkPool::new(0).threads() >= 1);
        assert_eq!(WorkPool::new(5).threads(), 5);
        assert_eq!(WorkPool::serial().threads(), 1);
    }

    #[test]
    fn chunk_sizes_are_sane() {
        assert_eq!(chunk_size(1, 1), 1);
        assert!(chunk_size(1000, 8) >= 1);
        // Enough chunks for stealing but not pathological.
        let c = chunk_size(1000, 8);
        let chunks = 1000usize.div_ceil(c);
        assert!((8..=1000).contains(&chunks), "chunks={chunks}");
    }
}
