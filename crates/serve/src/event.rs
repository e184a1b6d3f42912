//! The readiness-driven serve loop (Linux: the reactor polls with epoll).
//!
//! One reactor thread owns the listener, every connection's
//! [`Conn`] state machine, and an epoll [`Poller`]. It answers itself
//! what the service can answer without computing
//! ([`Service::answer_stored`]: a stored response, `/health`); every
//! other request runs on the [`Executor`]. The cycle per reactor turn:
//!
//! 1. `wait` for readiness (or the nearest connection deadline).
//! 2. Accept new connections; pump readable/writable connections
//!    through their state machines. Each framed request is offered to
//!    [`Service::answer_stored`] first: an answer is written at once,
//!    and the pipelined request that writing it may frame is offered
//!    next, in a loop. The rest are collected.
//! 3. Drain handler completions (pushed by executor workers, who wake
//!    the reactor through the poller's wake fd) into response writes,
//!    offering the requests they frame the same way.
//! 4. Enforce read/write deadlines (`408`, idle close, poisoning).
//! 5. Submit the turn's collected requests: each passes **admission
//!    control** (shed with a `503` when `queue depth × EWMA endpoint
//!    latency` already exceeds its deadline, the depth counting every
//!    request queued or running and the EWMA only requests the executor
//!    handled), then goes to the executor as its own job.
//!
//! Inline answers come before admission control, since shedding a
//! request that costs nothing to answer protects nothing, and run under
//! the same panic firewall as executor jobs. The loop never runs a
//! pipeline stage or waits on a flight; its store read may retry a
//! transient error (bounded by the store's retry policy) or quarantine a
//! corrupt frame, and a miss or read error goes to the executor.
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

use fgbs_pool::Executor;
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

    /// Act on a connection's step. A framed request the service can
    /// answer without computing is answered and written right here, and
    /// writing it may frame the connection's next pipelined request, so
    /// this loops until a request needs the executor or the connection
    /// waits. Interest is synced once, at the end: a connection that ends
    /// the loop in the state it started in costs no `epoll_ctl`.
    fn apply(
        &mut self,
        token: u64,
        mut step: Step,
        now: Instant,
        dispatches: &mut Vec<(u64, Request)>,
    ) {
        while let Step::Dispatch(request) = step {
            let Some(response) = guarded(|| self.service.answer_stored(&request)) else {
                dispatches.push((token, request));
                step = Step::Wait;
                break;
            };
            let Some(reg) = self.conns.get_mut(&token) else {
                return;
            };
            reg.conn.on_response(response, now);
            step = reg.conn.on_writable(now);
        }
        match step {
            Step::Close => self.close(token),
            _ => self.sync_interest(token),
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

    /// Submit the turn's parsed requests, in arrival order. Each is
    /// admission-checked against the requests already queued or running;
    /// a survivor goes to the executor as its own job.
    fn submit(&mut self, mut dispatches: Vec<(u64, Request)>, now: Instant) {
        while !dispatches.is_empty() {
            for (token, request) in std::mem::take(&mut dispatches) {
                let depth = self.exec.submitted().saturating_sub(self.exec.completed());
                if let Some(shed) = self.service.admission_check(&request, depth) {
                    // Answer right here — shedding must not consume the
                    // queue capacity it is protecting. Writing the 503
                    // may surface the connection's next pipelined
                    // request; it joins `dispatches` for the next round
                    // of this loop.
                    self.complete(token, shed, now, &mut dispatches);
                    continue;
                }
                let svc = Arc::clone(&self.service);
                let completions = Arc::clone(&self.completions);
                let waker = self.waker.clone();
                self.exec.submit(move || {
                    let response = guarded(|| svc.handle(&request));
                    completions.lock().push((token, response));
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

/// Call into the service with a panic firewall: a handler bug takes down
/// one request (500 with a JSON body), never the loop or a worker thread.
fn guarded<T: From<Response>>(handler: impl FnOnce() -> T) -> T {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(handler)).unwrap_or_else(|_| {
        fgbs_trace::stat("serve.panics", 1);
        // The handler's RequestGuard unwound with it, so read the id
        // back from the global cursor is impossible — dump with the
        // ambient id (0 outside a request) and let the event window
        // carry the story.
        fgbs_trace::flightrec::trigger("panic", fgbs_trace::current_request_id());
        Response::error(500, "internal error: handler panicked").into()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_handler_answers_500_on_the_loop_and_on_a_worker() {
        let inline: Option<Response> = guarded(|| panic!("handler bug"));
        assert_eq!(inline.map(|r| r.status), Some(500));
        let job: Response = guarded(|| panic!("handler bug"));
        assert_eq!(job.status, 500);
    }
}
