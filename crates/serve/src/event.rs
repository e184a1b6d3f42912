//! The readiness-driven serve loop (Linux: the reactor polls with epoll).
//!
//! One reactor thread owns the listener, every connection's
//! [`Conn`] state machine, and an epoll [`Poller`]; request handling
//! runs on the [`Executor`]. The cycle per reactor turn:
//!
//! 1. `wait` for readiness (or the nearest connection deadline).
//! 2. Accept new connections; pump readable/writable connections
//!    through their state machines, collecting parsed requests.
//! 3. Drain handler completions (pushed by executor workers, who wake
//!    the reactor through the poller's wake fd) into response writes.
//! 4. Enforce read/write deadlines (`408`, idle close, poisoning).
//! 5. Submit the turn's requests: each passes **admission control**
//!    (shed with a `503` when `queue depth × EWMA endpoint latency`
//!    already exceeds its deadline), then singles go to the executor
//!    directly while a turn with several requests is **batched** into
//!    one executor job that fans the whole group over a single
//!    [`WorkPool`] pass — concurrent `/predict` misses for different
//!    suites share one parallel sweep instead of queueing serially.
//!
//! Shutdown is an atomic flag plus a wake-fd signal — no self-connect.
//! The executor drains already-dispatched requests and their responses
//! get a best-effort final flush.

use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fgbs_pool::{Executor, WorkPool};
use fgbs_reactor::{Interest, Poller, Waker, WAKE_TOKEN};
use parking_lot::Mutex;

use crate::conn::{Conn, State, Step};
use crate::http::{Request, Response};
use crate::{ServeOptions, Service};

const LISTENER_TOKEN: u64 = 0;
const FIRST_CONN_TOKEN: u64 = 2;

/// A running event loop: its thread and the wake handle that makes
/// shutdown (or any cross-thread signal) immediate.
pub(crate) struct Handle {
    pub(crate) waker: Waker,
    pub(crate) thread: JoinHandle<()>,
}

/// Start the reactor thread over `listener`.
pub(crate) fn spawn(
    listener: TcpListener,
    threads: usize,
    service: Arc<Service>,
    opts: ServeOptions,
    shutdown: Arc<AtomicBool>,
) -> io::Result<Handle> {
    let poller = Poller::new()?;
    listener.set_nonblocking(true)?;
    poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
    let waker = poller.waker();
    let state = Loop {
        poller,
        listener,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        exec: Executor::new(threads),
        completions: Arc::new(Mutex::new(Vec::new())),
        waker: waker.clone(),
        service,
        opts,
        shutdown,
    };
    let thread = std::thread::Builder::new()
        .name("fgbs-event".to_string())
        .spawn(move || state.run())?;
    Ok(Handle { waker, thread })
}

struct Registered {
    conn: Conn<TcpStream>,
    interest: Interest,
}

struct Loop {
    poller: Poller,
    listener: TcpListener,
    conns: HashMap<u64, Registered>,
    next_token: u64,
    exec: Executor,
    completions: Arc<Mutex<Vec<(u64, Response)>>>,
    waker: Waker,
    service: Arc<Service>,
    opts: ServeOptions,
    shutdown: Arc<AtomicBool>,
}

impl Loop {
    fn run(mut self) {
        let mut events = Vec::new();
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            if self.poller.wait(&mut events, self.next_timeout()).is_err() {
                break;
            }
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let now = Instant::now();
            let mut dispatches: Vec<(u64, Request)> = Vec::new();
            for &ev in &events {
                match ev.token {
                    WAKE_TOKEN => {}
                    LISTENER_TOKEN => self.accept(now),
                    token => self.on_conn_event(token, ev, now, &mut dispatches),
                }
            }
            self.drain_completions(now, &mut dispatches);
            self.tick(now, &mut dispatches);
            self.submit(dispatches, now);
        }
        self.finish();
    }

    /// The nearest connection deadline bounds the wait; with none, the
    /// wake fd is the only signal needed (completions, shutdown).
    fn next_timeout(&self) -> Option<Duration> {
        let next = self
            .conns
            .values()
            .filter_map(|r| r.conn.next_deadline())
            .min()?;
        Some(next.saturating_duration_since(Instant::now()))
    }

    fn accept(&mut self, now: Instant) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Chaos failpoint: a `delay` rule stalls the accept
                    // path, simulating listener backpressure.
                    fgbs_fault::maybe_delay("serve.accept");
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    if let Some(bytes) = self.opts.sndbuf {
                        let _ = fgbs_reactor::set_send_buffer(stream.as_raw_fd(), bytes);
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READABLE)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Registered {
                            conn: Conn::new(stream, now, self.opts),
                            interest: Interest::READABLE,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn on_conn_event(
        &mut self,
        token: u64,
        ev: fgbs_reactor::Event,
        now: Instant,
        dispatches: &mut Vec<(u64, Request)>,
    ) {
        let Some(reg) = self.conns.get_mut(&token) else {
            return;
        };
        let step = match reg.conn.state() {
            State::Reading if ev.readable => {
                if fgbs_fault::maybe_io("serve.read").is_err() {
                    fgbs_trace::stat("serve.conn_errors", 1);
                    Step::Close
                } else {
                    let step = reg.conn.on_readable(now);
                    // A parse error / EOF verdict queues its response
                    // synchronously; push it out without another turn.
                    match step {
                        Step::Wait if reg.conn.state() == State::Writing => {
                            reg.conn.on_writable(now)
                        }
                        s => s,
                    }
                }
            }
            State::Writing if ev.writable => {
                if fgbs_fault::maybe_io("serve.write").is_err() {
                    fgbs_trace::stat("serve.conn_errors", 1);
                    Step::Close
                } else {
                    reg.conn.on_writable(now)
                }
            }
            // Hang-up while a request is dispatched: the response is
            // still owed; the write (or the post-response read) will
            // observe the close.
            _ => Step::Wait,
        };
        self.apply(token, step, now, dispatches);
    }

    fn drain_completions(&mut self, now: Instant, dispatches: &mut Vec<(u64, Request)>) {
        let done: Vec<(u64, Response)> = std::mem::take(&mut *self.completions.lock());
        for (token, response) in done {
            self.complete(token, response, now, dispatches);
        }
    }

    /// Hand a finished response to its connection and start (or finish)
    /// writing it immediately.
    fn complete(
        &mut self,
        token: u64,
        response: Response,
        now: Instant,
        dispatches: &mut Vec<(u64, Request)>,
    ) {
        let Some(reg) = self.conns.get_mut(&token) else {
            return; // connection died while the handler ran
        };
        reg.conn.on_response(response, now);
        let step = reg.conn.on_writable(now);
        self.apply(token, step, now, dispatches);
    }

    fn tick(&mut self, now: Instant, dispatches: &mut Vec<(u64, Request)>) {
        let due: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, r)| r.conn.next_deadline().is_some_and(|d| d <= now))
            .map(|(&t, _)| t)
            .collect();
        for token in due {
            let Some(reg) = self.conns.get_mut(&token) else {
                continue;
            };
            let step = match reg.conn.on_tick(now) {
                // A 408 was queued: push it out now.
                Step::Wait if reg.conn.state() == State::Writing => reg.conn.on_writable(now),
                s => s,
            };
            self.apply(token, step, now, dispatches);
        }
    }

    fn apply(&mut self, token: u64, step: Step, now: Instant, dispatches: &mut Vec<(u64, Request)>) {
        let _ = now;
        match step {
            Step::Wait => self.sync_interest(token),
            Step::Dispatch(request) => {
                dispatches.push((token, request));
                self.sync_interest(token);
            }
            Step::Close => self.close(token),
        }
    }

    fn sync_interest(&mut self, token: u64) {
        let Some(reg) = self.conns.get_mut(&token) else {
            return;
        };
        let desired = match reg.conn.state() {
            State::Reading => Interest::READABLE,
            // Backpressure: while a request is dispatched, stop reading
            // — pipelined bytes wait in the socket buffer.
            State::Dispatched => Interest::NONE,
            State::Writing => Interest::WRITABLE,
        };
        if reg.interest != desired {
            if self
                .poller
                .modify(reg.conn.stream().as_raw_fd(), token, desired)
                .is_err()
            {
                self.close(token);
                return;
            }
            if let Some(reg) = self.conns.get_mut(&token) {
                reg.interest = desired;
            }
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(reg) = self.conns.remove(&token) {
            let _ = self.poller.deregister(reg.conn.stream().as_raw_fd());
        }
    }

    /// Submit the turn's parsed requests. Each is admission-checked
    /// against the current queue depth; survivors go to the executor —
    /// one job for a single request, one *batched* job (a shared
    /// [`WorkPool`] pass) when the turn produced several.
    fn submit(&mut self, mut dispatches: Vec<(u64, Request)>, now: Instant) {
        while !dispatches.is_empty() {
            let round = std::mem::take(&mut dispatches);
            let mut jobs: Vec<(u64, Request)> = Vec::with_capacity(round.len());
            for (token, request) in round {
                let depth = self.exec.submitted().saturating_sub(self.exec.completed());
                match self.service.admission_check(&request, depth) {
                    Some(shed) => {
                        // Answer right here — shedding must not consume
                        // the queue capacity it is protecting. Writing
                        // the 503 may surface the connection's next
                        // pipelined request; it joins `dispatches` for
                        // the next round of this loop.
                        self.complete(token, shed, now, &mut dispatches);
                    }
                    None => jobs.push((token, request)),
                }
            }
            if jobs.is_empty() {
                continue;
            }
            self.service.note_batch(jobs.len() as u64);
            let svc = Arc::clone(&self.service);
            let completions = Arc::clone(&self.completions);
            let waker = self.waker.clone();
            if jobs.len() == 1 {
                let (token, request) = jobs.pop().expect("len checked");
                self.exec.submit(move || {
                    let response = guarded_handle(&svc, &request);
                    completions.lock().push((token, response));
                    let _ = waker.wake();
                });
            } else {
                self.exec.submit(move || {
                    let pool = WorkPool::new(0);
                    let results =
                        pool.map(&jobs, |_, (token, request)| (*token, guarded_handle(&svc, request)));
                    completions.lock().extend(results);
                    let _ = waker.wake();
                });
            }
        }
    }

    /// Graceful shutdown: the executor drop finishes every dispatched
    /// request, then their responses get one best-effort flush.
    fn finish(self) {
        let Loop {
            poller,
            exec,
            completions,
            mut conns,
            ..
        } = self;
        drop(exec);
        let now = Instant::now();
        for (token, response) in completions.lock().drain(..) {
            if let Some(reg) = conns.get_mut(&token) {
                reg.conn.on_response(response, now);
                let _ = reg.conn.on_writable(now);
            }
        }
        for (_, reg) in conns.drain() {
            let _ = poller.deregister(reg.conn.stream().as_raw_fd());
        }
    }
}

/// Dispatch into the service with a panic firewall: a handler bug takes
/// down one request (500 with a JSON body), never the worker thread.
fn guarded_handle(service: &Service, request: &Request) -> Response {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.handle(request)))
        .unwrap_or_else(|_| {
            fgbs_trace::stat("serve.panics", 1);
            // The handler's RequestGuard unwound with it, so read the id
            // back from the global cursor is impossible — dump with the
            // ambient id (0 outside a request) and let the event window
            // carry the story.
            fgbs_trace::flightrec::trigger("panic", fgbs_trace::current_request_id());
            Response::error(500, "internal error: handler panicked")
        })
}
