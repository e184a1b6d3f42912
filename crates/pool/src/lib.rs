//! The shared work pool: one parallel executor for every hot loop.
//!
//! The simulator's application and microbenchmark runs and GA fitness
//! evaluation all reduce to the same shape — *map a pure function over
//! an index range* — so they share this one executor instead of each
//! spawning raw threads.
//!
//! # Design
//!
//! [`WorkPool::map_indexed`] spawns its workers under
//! `std::thread::scope`, so the mapped closure may borrow freely from the
//! caller's stack. The workers share one atomic cursor: each claims the
//! next unclaimed index, runs it, and claims again until the range is
//! exhausted, so a slow item holds up only the worker running it. Each
//! worker hands its `(index, result)` pairs back through its join handle.
//!
//! # Determinism contract
//!
//! Every result is placed by its *index*, never by a position dependent
//! on scheduling, and the mapped function is required to be pure (same
//! index ⇒ same value). Under that contract the output of
//! [`WorkPool::map_indexed`] is **bitwise identical** for every thread
//! count, including the inline serial path — the property the determinism
//! test suite in `tests/properties.rs` enforces end-to-end.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod exec;

pub use exec::Executor;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A scoped executor over index ranges.
///
/// The pool is a lightweight handle (it holds only the thread count);
/// worker threads are spawned per call and joined before the call
/// returns, so borrowed data stays sound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkPool {
    threads: usize,
}

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
    ///
    /// # Panics
    ///
    /// When `f` panics, the map panics on the caller with the same
    /// payload, once every worker has stopped.
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

        let workers = self.threads.min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        // The open `pool.map` span is the logical parent of every span
        // `f` records on a worker, and the submitting thread's request
        // id follows the work onto the workers the same way.
        let span_parent = fgbs_trace::current_span_id();
        let request_id = fgbs_trace::current_request_id();
        // The cursor publishes no data (results travel through the join
        // handles), so its claims can be relaxed.
        let cursor = AtomicUsize::new(0);

        let mut placed: Vec<(usize, R)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|me| {
                    let (cursor, f) = (&cursor, &f);
                    scope.spawn(move || {
                        let _trace_ctx = fgbs_trace::inherit_parent(span_parent);
                        let _request_ctx = fgbs_trace::enter_request(request_id);
                        let spawned = Instant::now();
                        let mut run_ns: u64 = 0;
                        let mut done = Vec::new();
                        let claims =
                            std::iter::repeat_with(|| cursor.fetch_add(1, Ordering::Relaxed));
                        for i in claims.take_while(|&i| i < n) {
                            let run_started = Instant::now();
                            done.push((i, f(i)));
                            run_ns += run_started.elapsed().as_nanos() as u64;
                        }
                        // Queue wait = worker lifetime minus time spent
                        // running items: spawn, claim and idle overhead.
                        if fgbs_trace::enabled() {
                            let total_ns = spawned.elapsed().as_nanos() as u64;
                            fgbs_trace::stat(&format!("pool.w{me}.run_us"), run_ns / 1_000);
                            fgbs_trace::stat(
                                &format!("pool.w{me}.wait_us"),
                                total_ns.saturating_sub(run_ns) / 1_000,
                            );
                            fgbs_trace::stat(&format!("pool.w{me}.items"), done.len() as u64);
                        }
                        done
                    })
                })
                .collect();
            // A worker's panic resumes here with the item's own payload;
            // the scope joins the other workers before it propagates.
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        placed.sort_unstable_by_key(|&(i, _)| i);
        placed.into_iter().map(|(_, r)| r).collect()
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
    fn front_loaded_work_completes_in_order() {
        // Front-loaded cost: the workers that claim the heavy items keep
        // them while the rest drain the cheap tail.
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
        // Many tiny maps with more workers than items: most workers find
        // the cursor already past the end on their first claim and must
        // exit at once, and every map must still join all its workers.
        let pool = WorkPool::new(8);
        for round in 0..300 {
            let out = pool.map_indexed(5, |i| i + round);
            assert_eq!(out, vec![round, round + 1, round + 2, round + 3, round + 4]);
        }
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_and_the_pool_still_maps() {
        for threads in [1, 4] {
            let pool = WorkPool::new(threads);
            let caught = std::panic::catch_unwind(|| {
                pool.map_indexed(64, |i| {
                    if i == 37 {
                        panic!("item 37 failed");
                    }
                    i
                })
            });
            let payload = caught.expect_err("the item's panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"item 37 failed"),
                "threads={threads}: the caller sees the item's own payload"
            );
            let again = pool.map_indexed(64, |i| i * 3);
            assert_eq!(
                again,
                (0..64).map(|i| i * 3).collect::<Vec<_>>(),
                "threads={threads}"
            );
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
}
