//! Single-flight deduplication of concurrent identical computations.
//!
//! When N requests for the same key arrive together, exactly one (the
//! *leader*) runs the computation; the other N−1 (the *followers*) block
//! until the leader finishes and then share its result. Combined with the
//! store this gives the serve daemon its "concurrent identical queries
//! compute once" guarantee: the leader computes and persists, followers
//! coalesce, and later requests hit the store.
//!
//! Each in-flight key owns one `OnceLock`, whose `get_or_init` elects the
//! leader and blocks the followers. A leader that panics leaves the cell
//! empty, and the next caller to reach it — a waiting follower or a later
//! request — computes in its place, so a failed flight never wedges its
//! key.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Keyed single-flight group with flight/coalesce counters.
///
/// Values are cloned out to every follower, so `V` should be cheap to
/// clone (the serve daemon stores `Arc`'d response bodies).
#[derive(Debug, Default)]
pub struct SingleFlight<V> {
    inflight: Mutex<HashMap<String, Arc<OnceLock<V>>>>,
    flights: AtomicU64,
    coalesced: AtomicU64,
}

impl<V: Clone> SingleFlight<V> {
    /// An empty group.
    pub fn new() -> SingleFlight<V> {
        SingleFlight {
            inflight: Mutex::new(HashMap::new()),
            flights: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Run `compute` for `key`, deduplicating concurrent callers.
    ///
    /// Returns `(value, led)`: `led` is true for the caller that actually
    /// executed `compute`. The flight entry is removed once the leader
    /// finishes, so a *later* call with the same key starts a fresh flight
    /// — persistent memoisation is the store's job, not this type's.
    pub fn run(&self, key: &str, compute: impl FnOnce() -> V) -> (V, bool) {
        // The map lock is never held while computing or waiting, so no
        // panic can poison it.
        let inflight = || self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        let cell = Arc::clone(inflight().entry(key.to_string()).or_default());
        let mut led = false;
        let v = cell
            .get_or_init(|| {
                led = true;
                self.flights.fetch_add(1, Ordering::Relaxed);
                // Leadership depends on arrival timing, so these are
                // stats, not deterministic counters.
                fgbs_trace::stat("flight.flights", 1);
                compute()
            })
            .clone();
        if led {
            inflight().remove(key);
        } else {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            fgbs_trace::stat("flight.coalesced", 1);
        }
        (v, led)
    }

    /// Number of computations actually executed (leaders).
    pub fn flights(&self) -> u64 {
        self.flights.load(Ordering::Relaxed)
    }

    /// Number of callers that shared a leader's result instead of
    /// computing.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Barrier};
    use std::time::{Duration, Instant};

    #[test]
    fn serial_calls_each_fly() {
        let sf: SingleFlight<u32> = SingleFlight::new();
        let (a, led_a) = sf.run("k", || 1);
        let (b, led_b) = sf.run("k", || 2);
        assert_eq!((a, led_a), (1, true));
        assert_eq!((b, led_b), (2, true), "finished flights do not linger");
        assert_eq!(sf.flights(), 2);
        assert_eq!(sf.coalesced(), 0);
    }

    #[test]
    fn concurrent_identical_keys_compute_once() {
        let sf: SingleFlight<u64> = SingleFlight::new();
        let computed = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        let results: Vec<(u64, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        sf.run("same", || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so followers pile up.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            99
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // All callers that overlapped the leader coalesced; anyone who
        // arrived after it finished led a new flight. With a 30 ms hold
        // and a barrier start, overlap is overwhelmingly likely but each
        // flight still computes exactly once.
        assert!(results.iter().all(|&(v, _)| v == 99));
        let leaders = results.iter().filter(|&&(_, led)| led).count();
        assert_eq!(computed.load(Ordering::SeqCst), leaders);
        assert_eq!(sf.flights() as usize, leaders);
        assert_eq!(sf.coalesced() as usize, 8 - leaders);
    }

    #[test]
    fn distinct_keys_do_not_block_each_other() {
        let sf: SingleFlight<&'static str> = SingleFlight::new();
        let (a, _) = sf.run("x", || "x-val");
        let (b, _) = sf.run("y", || "y-val");
        assert_eq!((a, b), ("x-val", "y-val"));
        assert_eq!(sf.flights(), 2);
    }

    #[test]
    fn a_panicking_leader_does_not_wedge_its_key() {
        let sf: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        let timeout = Duration::from_secs(5);
        // Each caller runs on a detached thread and reports through a
        // channel, so a wedged key fails the test instead of hanging it.
        let call = |compute: Box<dyn FnOnce() -> u32 + Send>| {
            let sf = Arc::clone(&sf);
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let out = std::panic::catch_unwind(AssertUnwindSafe(|| sf.run("k", compute)));
                let _ = tx.send(out.ok());
            });
            rx
        };

        let (computing_tx, computing_rx) = mpsc::channel();
        let (fail_tx, fail_rx) = mpsc::channel::<()>();
        let leader = call(Box::new(move || {
            computing_tx.send(()).unwrap();
            fail_rx.recv().unwrap();
            panic!("leader failed")
        }));
        computing_rx
            .recv_timeout(timeout)
            .expect("the leader is computing");
        let follower = call(Box::new(|| 7));
        // The follower has joined the leader's flight once it holds the
        // key's cell too: the map, the leader and the follower.
        let joined_by = Instant::now() + timeout;
        while Arc::strong_count(&sf.inflight.lock().unwrap()["k"]) < 3 {
            assert!(
                Instant::now() < joined_by,
                "the follower never joined the flight"
            );
            std::thread::yield_now();
        }
        fail_tx.send(()).unwrap();

        assert_eq!(
            leader.recv_timeout(timeout),
            Ok(None),
            "the leader's panic reaches its caller"
        );
        assert_eq!(
            follower.recv_timeout(timeout),
            Ok(Some((7, true))),
            "the waiting follower computes in the leader's place"
        );
        assert_eq!(
            call(Box::new(|| 8)).recv_timeout(timeout),
            Ok(Some((8, true))),
            "a later caller starts a fresh flight"
        );
        assert_eq!((sf.flights(), sf.coalesced()), (3, 0));
    }
}
