//! Per-connection state machine for the event-driven serve loop.
//!
//! A [`Conn`] owns one transport and walks it through
//! `Reading → Dispatched → Writing → Reading…` until something ends the
//! conversation: the client half-closes, asks for `Connection: close`,
//! exhausts its request budget, stalls past a deadline, or the response
//! write fails partway (which *poisons* the connection — a half-written
//! frame must never be followed by another response, so poisoned
//! connections are always closed, never reused).
//!
//! The machine is transport-generic (`S: Read + Write`) and takes the
//! current time as a parameter, so the deadline and poisoning paths are
//! unit-testable with mock streams and synthetic clocks; the event loop
//! instantiates it over a non-blocking `TcpStream`.

use std::io::{self, Read, Write};
use std::time::Instant;

use crate::http::{self, Request, Response};
use crate::ServeOptions;

/// Where a connection is in its request/response cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum State {
    /// Waiting for (more of) a request frame.
    Reading,
    /// A request is out with the executor; reads are paused
    /// (backpressure) until its response comes back.
    Dispatched,
    /// Draining a rendered response into the transport.
    Writing,
}

/// What the event loop should do after driving the machine.
#[derive(Debug)]
pub(crate) enum Step {
    /// Nothing actionable; wait for more readiness or time.
    Wait,
    /// A complete request was parsed — hand it to the executor.
    Dispatch(Request),
    /// Close the connection now (deregister + drop).
    Close,
}

/// One live connection: transport, buffers, state, deadlines.
#[derive(Debug)]
pub(crate) struct Conn<S> {
    stream: S,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    written: usize,
    state: State,
    /// Responses completed on this connection.
    served: u32,
    /// The client asked to close after the in-flight request.
    close_requested: bool,
    /// Close once the current response drains.
    close_after: bool,
    /// The peer half-closed its write side; no more requests can come.
    eof: bool,
    /// A response write failed or timed out partway: the frame on the
    /// wire is torn, so the connection must never carry another one.
    poisoned: bool,
    read_deadline: Option<Instant>,
    write_deadline: Option<Instant>,
    opts: ServeOptions,
    /// How many responses this connection may carry before the server
    /// closes it ([`ServeOptions::max_requests_per_conn`]).
    budget: u32,
}

impl<S: Read + Write> Conn<S> {
    pub(crate) fn new(stream: S, now: Instant, opts: ServeOptions) -> Conn<S> {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            written: 0,
            state: State::Reading,
            served: 0,
            close_requested: false,
            close_after: false,
            eof: false,
            poisoned: false,
            read_deadline: Some(now + opts.read_timeout),
            write_deadline: None,
            opts,
            budget: opts.max_requests_per_conn.max(1),
        }
    }

    pub(crate) fn state(&self) -> State {
        self.state
    }

    #[cfg(test)]
    pub(crate) fn poisoned(&self) -> bool {
        self.poisoned
    }

    #[cfg(test)]
    pub(crate) fn served(&self) -> u32 {
        self.served
    }

    pub(crate) fn stream(&self) -> &S {
        &self.stream
    }

    /// The earliest instant at which [`Conn::on_tick`] would act.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        match self.state {
            State::Reading => self.read_deadline,
            State::Dispatched => None,
            State::Writing => self.write_deadline,
        }
    }

    /// The transport became readable: pull bytes and try to frame a
    /// request. Only meaningful in `Reading` state.
    pub(crate) fn on_readable(&mut self, now: Instant) -> Step {
        if self.state != State::Reading {
            return Step::Wait;
        }
        let mut chunk = [0u8; 4096];
        loop {
            // Read only while the buffer holds an incomplete frame. Once
            // a full frame is buffered, leftover pipelined bytes stay in
            // the socket (TCP backpressure) until this request's response
            // has drained; once the frame is known to be bad (oversized
            // head or body, malformed head), nothing more is worth
            // buffering before the error response.
            if !matches!(http::try_parse(&self.inbuf, self.opts.max_body), Ok(None)) {
                break;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Step::Close,
            }
        }
        self.advance(now)
    }

    /// Try to carve the next request out of the buffer (or conclude the
    /// connection). Only called in `Reading` state.
    fn advance(&mut self, now: Instant) -> Step {
        debug_assert_eq!(self.state, State::Reading);
        match http::try_parse(&self.inbuf, self.opts.max_body) {
            Ok(Some(parsed)) => {
                self.inbuf.drain(..parsed.consumed);
                self.close_requested |= parsed.close;
                self.state = State::Dispatched;
                self.read_deadline = None;
                Step::Dispatch(parsed.request)
            }
            Ok(None) => {
                if self.eof {
                    if self.inbuf.is_empty() {
                        // Clean half-close between requests: nothing to
                        // answer, nothing to wait for.
                        Step::Close
                    } else {
                        let what = if self.inbuf.windows(4).any(|w| w == b"\r\n\r\n") {
                            "connection closed mid-body"
                        } else {
                            "connection closed mid-request"
                        };
                        self.queue_response(
                            Response::error(400, &format!("bad request: {what}")),
                            now,
                            true,
                        );
                        Step::Wait
                    }
                } else {
                    Step::Wait
                }
            }
            Err(err) => {
                let status = err.status();
                self.queue_response(
                    Response::error(status, &format!("bad request: {err}")),
                    now,
                    true,
                );
                Step::Wait
            }
        }
    }

    /// The dispatched request's response came back: render it with the
    /// keep-alive decision and start writing.
    pub(crate) fn on_response(&mut self, response: Response, now: Instant) {
        let keep = !self.close_requested
            && !self.eof
            && !self.poisoned
            && self.served + 1 < self.budget;
        self.queue_response(response, now, !keep);
    }

    fn queue_response(&mut self, response: Response, now: Instant, close_after: bool) {
        self.outbuf = response.render(!close_after);
        self.written = 0;
        self.close_after = close_after;
        self.state = State::Writing;
        self.read_deadline = None;
        self.write_deadline = Some(now + self.opts.write_timeout);
    }

    /// The transport can take bytes: drain the response. On completion
    /// either close or swing back to `Reading` — where a pipelined
    /// request may already be waiting in the buffer.
    pub(crate) fn on_writable(&mut self, now: Instant) -> Step {
        if self.state != State::Writing {
            return Step::Wait;
        }
        while self.written < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.written..]) {
                Ok(0) => {
                    self.poison();
                    return Step::Close;
                }
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Step::Wait,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.poison();
                    return Step::Close;
                }
            }
        }
        self.served += 1;
        self.outbuf.clear();
        self.written = 0;
        self.write_deadline = None;
        if self.close_after {
            return Step::Close;
        }
        self.state = State::Reading;
        self.read_deadline = Some(now + self.opts.read_timeout);
        self.advance(now)
    }

    /// Time passed: enforce read/write deadlines.
    pub(crate) fn on_tick(&mut self, now: Instant) -> Step {
        match self.state {
            State::Reading => {
                let Some(deadline) = self.read_deadline else {
                    return Step::Wait;
                };
                if now < deadline {
                    return Step::Wait;
                }
                if self.inbuf.is_empty() && self.served > 0 {
                    // Idle keep-alive connection: close silently, the
                    // client simply went away between requests.
                    return Step::Close;
                }
                fgbs_trace::stat("serve.timeouts", 1);
                self.queue_response(Response::error(408, "bad request: stalled"), now, true);
                Step::Wait
            }
            State::Dispatched => Step::Wait,
            State::Writing => {
                let Some(deadline) = self.write_deadline else {
                    return Step::Wait;
                };
                if now < deadline {
                    return Step::Wait;
                }
                // The write stalled past its budget with a frame
                // half-delivered: poison and drop, never reuse.
                self.poison();
                Step::Close
            }
        }
    }

    fn poison(&mut self) {
        if !self.poisoned {
            self.poisoned = true;
            fgbs_trace::stat("serve.poisoned", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::time::Duration;

    /// A scriptable transport: reads pop from a queue (then EOF or
    /// WouldBlock), writes land in `wrote` up to a stall point.
    #[derive(Debug, Default)]
    struct Mock {
        readable: VecDeque<Vec<u8>>,
        eof_after_reads: bool,
        wrote: Vec<u8>,
        /// Accept only this many bytes in total, then WouldBlock.
        write_cap: Option<usize>,
    }

    impl Read for Mock {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.readable.pop_front() {
                Some(bytes) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                None if self.eof_after_reads => Ok(0),
                None => Err(io::Error::new(io::ErrorKind::WouldBlock, "drained")),
            }
        }
    }

    impl Write for Mock {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let room = match self.write_cap {
                Some(cap) => cap.saturating_sub(self.wrote.len()),
                None => buf.len(),
            };
            if room == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled reader"));
            }
            let n = buf.len().min(room);
            self.wrote.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn opts() -> ServeOptions {
        ServeOptions {
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_millis(100),
            ..ServeOptions::default()
        }
    }

    #[test]
    fn full_request_response_cycle_keeps_the_connection_alive() {
        let now = Instant::now();
        let mut mock = Mock::default();
        mock.readable
            .push_back(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n".to_vec());
        let mut conn = Conn::new(mock, now, opts());

        let step = conn.on_readable(now);
        let Step::Dispatch(req) = step else {
            panic!("expected dispatch, got {step:?}");
        };
        assert_eq!(req.path, "/health");
        assert_eq!(conn.state(), State::Dispatched);

        conn.on_response(Response::json(&crate::Json::Bool(true)), now);
        assert_eq!(conn.state(), State::Writing);
        let step = conn.on_writable(now);
        assert!(matches!(step, Step::Wait), "keep-alive: back to reading");
        assert_eq!(conn.state(), State::Reading);
        assert_eq!(conn.served(), 1);
        let text = String::from_utf8(conn.stream().wrote.clone()).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
    }

    #[test]
    fn connection_close_request_closes_after_the_response() {
        let now = Instant::now();
        let mut mock = Mock::default();
        mock.readable
            .push_back(b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec());
        let mut conn = Conn::new(mock, now, opts());
        let Step::Dispatch(_) = conn.on_readable(now) else {
            panic!("expected dispatch");
        };
        conn.on_response(Response::json(&crate::Json::Bool(true)), now);
        let step = conn.on_writable(now);
        assert!(matches!(step, Step::Close), "{step:?}");
        let text = String::from_utf8(conn.stream().wrote.clone()).unwrap();
        assert!(text.contains("connection: close\r\n"), "{text}");
    }

    #[test]
    fn pipelined_requests_dispatch_back_to_back() {
        let now = Instant::now();
        let mut mock = Mock::default();
        mock.readable.push_back(
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n".to_vec(),
        );
        let mut conn = Conn::new(mock, now, opts());
        let Step::Dispatch(req) = conn.on_readable(now) else {
            panic!("expected first dispatch");
        };
        assert_eq!(req.path, "/a");
        conn.on_response(Response::json(&crate::Json::Bool(true)), now);
        // Draining the first response immediately surfaces the second
        // buffered request — no extra readiness round-trip.
        let Step::Dispatch(req) = conn.on_writable(now) else {
            panic!("expected pipelined dispatch");
        };
        assert_eq!(req.path, "/b");
    }

    #[test]
    fn budget_exhaustion_closes_with_the_last_response() {
        let now = Instant::now();
        let budget = ServeOptions {
            max_requests_per_conn: 1,
            ..opts()
        };
        let mut mock = Mock::default();
        mock.readable
            .push_back(b"GET /health HTTP/1.1\r\n\r\n".to_vec());
        let mut conn = Conn::new(mock, now, budget);
        let Step::Dispatch(_) = conn.on_readable(now) else {
            panic!("expected dispatch");
        };
        conn.on_response(Response::json(&crate::Json::Bool(true)), now);
        assert!(matches!(conn.on_writable(now), Step::Close));
        let text = String::from_utf8(conn.stream().wrote.clone()).unwrap();
        assert!(text.contains("connection: close\r\n"), "{text}");
    }

    #[test]
    fn stalled_reader_poisons_the_connection_at_the_write_deadline() {
        let now = Instant::now();
        let mut mock = Mock::default();
        mock.readable
            .push_back(b"GET /health HTTP/1.1\r\n\r\n".to_vec());
        mock.write_cap = Some(10); // stall after 10 bytes of the frame
        let mut conn = Conn::new(mock, now, opts());
        let Step::Dispatch(_) = conn.on_readable(now) else {
            panic!("expected dispatch");
        };
        conn.on_response(Response::json(&crate::Json::Bool(true)), now);
        assert!(matches!(conn.on_writable(now), Step::Wait));
        assert_eq!(conn.stream().wrote.len(), 10, "half-written frame");
        assert!(!conn.poisoned(), "not poisoned before the deadline");
        // Before the deadline: keep waiting.
        assert!(matches!(conn.on_tick(now + Duration::from_millis(50)), Step::Wait));
        // Past it: poisoned and closed, never reused.
        let step = conn.on_tick(now + Duration::from_millis(150));
        assert!(matches!(step, Step::Close), "{step:?}");
        assert!(conn.poisoned());
    }

    #[test]
    fn write_errors_poison_partially_written_connections() {
        let now = Instant::now();
        struct Broken(usize);
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "n/a"))
            }
        }
        impl Write for Broken {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    self.0 = 1;
                    Ok(buf.len().min(5))
                } else {
                    Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer reset"))
                }
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut conn = Conn::new(Broken(0), now, opts());
        conn.state = State::Dispatched;
        conn.on_response(Response::json(&crate::Json::Bool(true)), now);
        assert!(matches!(conn.on_writable(now), Step::Close));
        assert!(conn.poisoned());
    }

    #[test]
    fn partial_request_times_out_with_408_idle_keepalive_closes_silently() {
        let now = Instant::now();
        let mut mock = Mock::default();
        mock.readable.push_back(b"GET /health HT".to_vec());
        let mut conn = Conn::new(mock, now, opts());
        assert!(matches!(conn.on_readable(now), Step::Wait));
        assert!(matches!(conn.on_tick(now + Duration::from_millis(50)), Step::Wait));
        // Past the read deadline with a partial frame: tell the client.
        assert!(matches!(
            conn.on_tick(now + Duration::from_millis(150)),
            Step::Wait
        ));
        assert_eq!(conn.state(), State::Writing);
        let _ = conn.on_writable(now + Duration::from_millis(150));
        let text = String::from_utf8(conn.stream().wrote.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 408"), "{text}");

        // An idle connection that already served a request just closes.
        let now = Instant::now();
        let mut mock = Mock::default();
        mock.readable
            .push_back(b"GET /health HTTP/1.1\r\n\r\n".to_vec());
        let mut conn = Conn::new(mock, now, opts());
        let Step::Dispatch(_) = conn.on_readable(now) else {
            panic!("expected dispatch");
        };
        conn.on_response(Response::json(&crate::Json::Bool(true)), now);
        assert!(matches!(conn.on_writable(now), Step::Wait));
        assert!(matches!(
            conn.on_tick(now + Duration::from_millis(150)),
            Step::Close
        ));
    }

    #[test]
    fn eof_with_partial_frame_answers_400_then_closes() {
        let now = Instant::now();
        let mut mock = Mock::default();
        mock.readable.push_back(b"GET /health HT".to_vec());
        mock.eof_after_reads = true;
        let mut conn = Conn::new(mock, now, opts());
        assert!(matches!(conn.on_readable(now), Step::Wait));
        assert_eq!(conn.state(), State::Writing);
        assert!(matches!(conn.on_writable(now), Step::Close));
        let text = String::from_utf8(conn.stream().wrote.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert!(text.contains("mid-request"), "{text}");

        // A complete head whose declared body never fully arrives.
        let mut mock = Mock::default();
        mock.readable
            .push_back(b"POST /reduce HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc".to_vec());
        mock.eof_after_reads = true;
        let mut conn = Conn::new(mock, now, opts());
        assert!(matches!(conn.on_readable(now), Step::Wait));
        assert!(matches!(conn.on_writable(now), Step::Close));
        let text = String::from_utf8(conn.stream().wrote.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert!(text.contains("mid-body"), "{text}");
    }

    #[test]
    fn eof_on_an_empty_connection_closes_without_a_response() {
        let now = Instant::now();
        let mock = Mock {
            eof_after_reads: true,
            ..Mock::default()
        };
        let mut conn = Conn::new(mock, now, opts());
        assert!(matches!(conn.on_readable(now), Step::Close));
        assert!(conn.stream().wrote.is_empty());
    }

    #[test]
    fn conflicting_content_lengths_get_400_on_the_wire() {
        let now = Instant::now();
        let mut mock = Mock::default();
        mock.readable.push_back(
            b"POST /reduce HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!".to_vec(),
        );
        let mut conn = Conn::new(mock, now, opts());
        assert!(matches!(conn.on_readable(now), Step::Wait));
        assert!(matches!(conn.on_writable(now), Step::Close));
        let text = String::from_utf8(conn.stream().wrote.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert!(text.contains("conflicting content-length"), "{text}");
    }

    /// A request line and the start of a header, then `chunks` reads of
    /// 4 KiB header filler, then `tail` (if any) as one more read.
    fn chunked_head(chunks: usize, tail: &[u8]) -> Mock {
        let mut mock = Mock::default();
        mock.readable.push_back(b"GET /x HTTP/1.1\r\nX-Pad: ".to_vec());
        for _ in 0..chunks {
            mock.readable.push_back(vec![b'a'; 4096]);
        }
        if !tail.is_empty() {
            mock.readable.push_back(tail.to_vec());
        }
        mock
    }

    #[test]
    fn unterminated_head_stops_reading_once_past_max_head() {
        let now = Instant::now();
        let mut conn = Conn::new(chunked_head(64, b""), now, opts());
        assert!(matches!(conn.on_readable(now), Step::Wait));
        // Reading stopped within one chunk of the limit instead of
        // buffering all 256 KiB the client sent.
        assert!(conn.inbuf.len() <= http::MAX_HEAD + 4096, "{}", conn.inbuf.len());
        assert!(!conn.stream().readable.is_empty(), "the rest stays unread");
        assert!(matches!(conn.on_writable(now), Step::Close));
        let text = String::from_utf8(conn.stream().wrote.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 413"), "{text}");
    }

    #[test]
    fn head_completed_past_max_head_is_refused_not_dispatched() {
        let now = Instant::now();
        // 15 full chunks stay under the limit; the terminator arrives in
        // the 16th, which carries the head past it.
        let mut tail = vec![b'a'; 4092];
        tail.extend_from_slice(b"\r\n\r\n");
        let mut conn = Conn::new(chunked_head(15, &tail), now, opts());
        let step = conn.on_readable(now);
        assert!(matches!(step, Step::Wait), "{step:?}");
        assert!(conn.inbuf.len() > http::MAX_HEAD);
        assert!(matches!(conn.on_writable(now), Step::Close));
        let text = String::from_utf8(conn.stream().wrote.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 413"), "{text}");
        assert!(text.contains("request head of"), "{text}");
    }
}
