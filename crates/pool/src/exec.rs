//! A persistent thread-pool executor for long-lived services.
//!
//! [`crate::WorkPool`] is deliberately *scoped*: threads are spawned per
//! call and joined before it returns, which is perfect for data-parallel
//! maps over borrowed slices but useless for a daemon that must hand each
//! accepted connection to a worker and keep listening. [`Executor`] fills
//! that role: a fixed set of workers spawned once, fed `'static` jobs
//! through a shared queue, joined on drop.
//!
//! The vendored `parking_lot` has no `Condvar`, so the blocking queue is
//! built on `std::sync::{Mutex, Condvar}`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared queue state between the handle and the workers. Each job
/// carries its enqueue time so workers can report queue wait vs. run
/// time to the tracing subsystem.
struct Queue {
    jobs: Mutex<(VecDeque<(Job, Instant)>, bool /* shutting down */)>,
    available: Condvar,
    submitted: AtomicU64,
    completed: AtomicU64,
}

/// A fixed-size pool of persistent worker threads executing submitted
/// closures in FIFO order.
///
/// Dropping the executor finishes every already-submitted job, then joins
/// the workers — shutdown is graceful by construction.
pub struct Executor {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers.len())
            .field("submitted", &self.submitted())
            .field("completed", &self.completed())
            .finish()
    }
}

impl Executor {
    /// Spawn an executor with `threads` workers (`0` selects the
    /// machine's available parallelism).
    pub fn new(threads: usize) -> Executor {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        let queue = Arc::new(Queue {
            jobs: Mutex::new((VecDeque::new(), false)),
            available: Condvar::new(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("fgbs-exec-{i}"))
                    .spawn(move || worker_loop(&queue))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { queue, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueue a job; some worker will run it. Jobs submitted after the
    /// executor started dropping are silently discarded (the daemon is
    /// going away anyway).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut guard = self.queue.jobs.lock().unwrap_or_else(|e| e.into_inner());
        if guard.1 {
            return;
        }
        guard.0.push_back((Box::new(job), Instant::now()));
        self.queue.submitted.fetch_add(1, Ordering::Relaxed);
        drop(guard);
        self.queue.available.notify_one();
    }

    /// Jobs accepted so far.
    pub fn submitted(&self) -> u64 {
        self.queue.submitted.load(Ordering::Relaxed)
    }

    /// Jobs finished so far.
    pub fn completed(&self) -> u64 {
        self.queue.completed.load(Ordering::Relaxed)
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut guard = self.queue.jobs.lock().unwrap_or_else(|e| e.into_inner());
            guard.1 = true;
        }
        self.queue.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(queue: &Queue) {
    loop {
        let (job, queued_at) = {
            let mut guard = queue.jobs.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = guard.0.pop_front() {
                    break job;
                }
                if guard.1 {
                    return;
                }
                guard = queue
                    .available
                    .wait(guard)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let run_started = Instant::now();
        // Chaos failpoint: a `delay` rule simulates a slow worker (queue
        // buildup, deadline pressure) without touching the job itself.
        fgbs_fault::maybe_delay("exec.job");
        job();
        queue.completed.fetch_add(1, Ordering::Relaxed);
        if fgbs_trace::enabled() {
            fgbs_trace::counter("exec.jobs", 1);
            fgbs_trace::stat(
                "exec.wait_us",
                run_started.duration_since(queued_at).as_micros() as u64,
            );
            fgbs_trace::stat("exec.run_us", run_started.elapsed().as_micros() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn runs_submitted_jobs() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let exec = Executor::new(4);
            for _ in 0..100 {
                let done = Arc::clone(&done);
                exec.submit(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Drop joins after draining the queue.
        }
        assert_eq!(done.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn drop_waits_for_in_flight_jobs() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let exec = Executor::new(2);
            for _ in 0..8 {
                let done = Arc::clone(&done);
                exec.submit(move || {
                    std::thread::sleep(Duration::from_millis(10));
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn counters_track_submission_and_completion() {
        let exec = Executor::new(1);
        let (tx, rx) = std::sync::mpsc::channel();
        exec.submit(move || tx.send(()).unwrap());
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(exec.submitted(), 1);
        // The counter increments just after the job body runs.
        while exec.completed() != 1 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn zero_threads_selects_parallelism() {
        let exec = Executor::new(0);
        assert!(exec.threads() >= 1);
    }

    #[test]
    fn jobs_can_submit_results_through_channels() {
        let exec = Executor::new(4);
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..32u64 {
            let tx = tx.clone();
            exec.submit(move || {
                tx.send(i * 2).unwrap();
            });
        }
        drop(tx);
        let mut got: Vec<u64> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }
}
