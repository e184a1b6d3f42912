//! Minimal HTTP/1.1 over byte buffers.
//!
//! The service speaks just enough HTTP for its JSON endpoints: request
//! line + headers + optional `Content-Length` body in, status line +
//! fixed headers + body out. Framing is `Content-Length` only — no
//! chunked encoding, no TLS — but connections are HTTP/1.1
//! keep-alive by default: [`try_parse`] consumes one request at a time
//! out of a growing connection buffer (the event loop's pipelining
//! primitive), and [`Response::render`] emits either
//! `connection: keep-alive` or `connection: close`.

use fgbs_trace::Json;

/// Largest accepted request head (request line + headers + the blank
/// line that ends them).
pub(crate) const MAX_HEAD: usize = 64 * 1024;
/// Default largest accepted request body; servers override it per
/// instance via [`crate::ServeOptions::max_body`].
pub const DEFAULT_MAX_BODY: usize = 1024 * 1024;

/// Why a request could not be parsed, carrying enough structure for the
/// connection to pick the right status code: oversize payloads are the
/// *client's* fault and deserve `413`, a malformed head is a plain `400`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The head or declared body exceeded the configured limit.
    TooLarge {
        /// Which part overflowed (`head` or `body`).
        what: &'static str,
        /// Declared or accumulated size in bytes.
        len: usize,
        /// The limit it exceeded.
        limit: usize,
    },
    /// The head is not a well-formed request.
    Malformed(&'static str),
}

impl RequestError {
    /// The HTTP status this parse failure maps to.
    pub fn status(&self) -> u16 {
        match self {
            RequestError::TooLarge { .. } => 413,
            RequestError::Malformed(_) => 400,
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::TooLarge { what, len, limit } => {
                write!(f, "request {what} of {len} bytes exceeds the {limit}-byte limit")
            }
            RequestError::Malformed(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for RequestError {}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Method verb, uppercase (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string (`/predict`).
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of query parameter `name`.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Value of `name`, or `default` when absent.
    pub fn param_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.param(name).unwrap_or(default)
    }
}

/// Percent-decode one query component (`+` is a space).
fn decode_component(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parse a raw query string into decoded pairs.
pub fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (decode_component(k), decode_component(v)),
            None => (decode_component(part), String::new()),
        })
        .collect()
}

/// One request carved out of a connection buffer by [`try_parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    /// The parsed request.
    pub request: Request,
    /// How many bytes of the buffer this request occupied; the caller
    /// drains them and may find the next pipelined request behind.
    pub consumed: usize,
    /// The client asked for the connection to close after the response
    /// (`Connection: close`, or HTTP/1.0 without `keep-alive`).
    pub close: bool,
}

/// Try to parse one complete request from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer holds only a prefix (more bytes
/// needed), `Ok(Some(_))` with the consumed length once a full frame is
/// present, and an error as soon as one is *knowable*: an oversized or
/// conflicting head fails without waiting for the body to arrive.
pub fn try_parse(buf: &[u8], max_body: usize) -> Result<Option<Parsed>, RequestError> {
    let head_end = find_head_end(buf);
    // The limit binds complete heads too: a terminator that arrives in
    // the chunk crossing `MAX_HEAD` does not make the head acceptable.
    let head_len = head_end.map_or(buf.len(), |pos| pos + 4);
    if head_len > MAX_HEAD {
        return Err(RequestError::TooLarge {
            what: "head",
            len: head_len,
            limit: MAX_HEAD,
        });
    }
    let Some(head_end) = head_end else {
        return Ok(None);
    };

    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or(RequestError::Malformed("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(RequestError::Malformed("missing method"))?
        .to_ascii_uppercase();
    let uri = parts
        .next()
        .ok_or(RequestError::Malformed("missing request target"))?;
    let http10 = parts.next() == Some("HTTP/1.0");

    // Duplicate `Content-Length` headers with different values are a
    // request-smuggling vector (RFC 9112 §6.3): reject instead of
    // silently letting the last one win. Identical repeats are allowed.
    let mut content_length: Option<usize> = None;
    let mut close = http10;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                let parsed = value
                    .trim()
                    .parse()
                    .map_err(|_| RequestError::Malformed("bad content-length"))?;
                match content_length {
                    Some(prev) if prev != parsed => {
                        return Err(RequestError::Malformed(
                            "conflicting content-length headers",
                        ));
                    }
                    _ => content_length = Some(parsed),
                }
            } else if name.eq_ignore_ascii_case("connection") {
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        close = true;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        close = false;
                    }
                }
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(RequestError::TooLarge {
            what: "body",
            len: content_length,
            limit: max_body,
        });
    }

    let body_start = head_end + 4;
    let consumed = body_start + content_length;
    if buf.len() < consumed {
        return Ok(None);
    }
    let body = buf[body_start..consumed].to_vec();

    let (path, query) = match uri.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (uri.to_string(), Vec::new()),
    };

    Ok(Some(Parsed {
        request: Request {
            method,
            path,
            query,
            body,
        },
        consumed,
        close,
    }))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// An HTTP response ready to serialise.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Where the payload came from (`computed`, `store`, `coalesced`);
    /// rendered as an `x-fgbs-source` header so clients and smoke tests
    /// can observe cache behaviour without parsing `/metrics`.
    pub source: Option<&'static str>,
    /// The request id the service assigned (0 = none); rendered as an
    /// `x-fgbs-request-id` header so a client can correlate its call
    /// with traces, metrics and flight-recorder dumps.
    pub request_id: u64,
    /// Overrides the default `application/json` content type (the
    /// Prometheus exposition endpoint serves `text/plain`).
    pub content_type: Option<&'static str>,
    /// Response body (JSON unless `content_type` says otherwise).
    pub body: Vec<u8>,
}

impl Response {
    /// A 200 response from a JSON value.
    pub fn json(value: &Json) -> Response {
        Response {
            status: 200,
            source: None,
            request_id: 0,
            content_type: None,
            body: value.render().into_bytes(),
        }
    }

    /// A 200 response replaying pre-rendered JSON bytes.
    pub fn json_bytes(body: Vec<u8>) -> Response {
        Response {
            status: 200,
            source: None,
            request_id: 0,
            content_type: None,
            body,
        }
    }

    /// A 200 plain-text response (Prometheus exposition).
    pub fn text(body: String) -> Response {
        Response {
            status: 200,
            source: None,
            request_id: 0,
            content_type: Some("text/plain; version=0.0.4"),
            body: body.into_bytes(),
        }
    }

    /// An error response with a JSON `{"error": …}` body.
    pub fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            source: None,
            request_id: 0,
            content_type: None,
            body: Json::obj(vec![("error", Json::str(message))])
                .render()
                .into_bytes(),
        }
    }

    /// Same response tagged with a payload source.
    pub fn with_source(mut self, source: &'static str) -> Response {
        self.source = Some(source);
        self
    }

    /// Same response stamped with a request id (0 leaves it unstamped).
    pub fn with_request_id(mut self, request_id: u64) -> Response {
        self.request_id = request_id;
        self
    }

    fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }

    /// Serialise status line, headers and body into one frame. The
    /// `connection` header advertises whether the server will keep the
    /// connection open afterwards; each connection decides per response.
    pub fn render(&self, keep_alive: bool) -> Vec<u8> {
        use std::io::Write as _;
        let mut out = Vec::with_capacity(self.body.len() + 160);
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            self.status_text(),
            self.content_type.unwrap_or("application/json"),
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        if let Some(source) = self.source {
            let _ = write!(out, "x-fgbs-source: {source}\r\n");
        }
        if self.request_id != 0 {
            let _ = write!(out, "x-fgbs-request-id: {}\r\n", self.request_id);
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse one complete frame with the default body limit.
    fn parse(raw: &[u8]) -> Request {
        try_parse(raw, DEFAULT_MAX_BODY)
            .expect("well-formed")
            .expect("complete")
            .request
    }

    fn text(response: &Response) -> String {
        String::from_utf8(response.render(false)).unwrap()
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse(b"GET /predict?suite=nr&target=atom&k=8 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.param("suite"), Some("nr"));
        assert_eq!(req.param("k"), Some("8"));
        assert_eq!(req.param_or("class", "test"), "test");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(b"POST /reduce HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn decodes_percent_and_plus() {
        let q = parse_query("name=a%20b+c&flag&x=%2f");
        assert_eq!(q[0], ("name".into(), "a b c".into()));
        assert_eq!(q[1], ("flag".into(), String::new()));
        assert_eq!(q[2], ("x".into(), "/".into()));
    }

    #[test]
    fn truncated_requests_wait_for_more_bytes() {
        // Mid-head and mid-body: neither is a request yet. The
        // connection answers 400 only if the peer hangs up here.
        let raw = b"GET /x HTTP/1.1\r\nConten";
        assert_eq!(try_parse(raw, DEFAULT_MAX_BODY).unwrap(), None);
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert_eq!(try_parse(raw, DEFAULT_MAX_BODY).unwrap(), None);
    }

    #[test]
    fn parse_failures_map_to_400() {
        for (raw, why) in [
            (&b"\r\n\r\n"[..], "missing method"),
            (b"GET\r\n\r\n", "missing request target"),
            (b"POST /x HTTP/1.1\r\nContent-Length: five\r\n\r\n", "bad content-length"),
        ] {
            let err = try_parse(raw, 1024).unwrap_err();
            assert_eq!(err.status(), 400, "{why}");
            assert_eq!(err.to_string(), why);
        }
    }

    #[test]
    fn new_status_codes_have_reason_phrases() {
        for (status, reason) in [
            (408, "Request Timeout"),
            (413, "Payload Too Large"),
            (503, "Service Unavailable"),
        ] {
            let text = text(&Response::error(status, "x"));
            assert!(text.starts_with(&format!("HTTP/1.1 {status} {reason}\r\n")), "{text}");
        }
    }

    #[test]
    fn response_serialises_with_source_header() {
        let text = text(&Response::json(&Json::U64(7)).with_source("store"));
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("x-fgbs-source: store\r\n"));
        assert!(text.ends_with("\r\n\r\n7"));
    }

    #[test]
    fn error_bodies_are_json() {
        let r = Response::error(404, "no such endpoint");
        assert_eq!(r.status, 404);
        assert_eq!(r.body, br#"{"error":"no such endpoint"}"#);
    }

    #[test]
    fn request_id_header_appears_only_when_stamped() {
        let stamped = text(&Response::json(&Json::U64(7)).with_request_id(42));
        assert!(stamped.contains("x-fgbs-request-id: 42\r\n"), "{stamped}");
        let plain = text(&Response::json(&Json::U64(7)));
        assert!(!plain.contains("x-fgbs-request-id"), "{plain}");
    }

    #[test]
    fn try_parse_waits_for_a_full_frame_then_reports_consumed() {
        let raw = b"POST /reduce HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /x";
        // Every strict prefix of the frame is "more bytes, please".
        let frame_len = raw.len() - b"GET /x".len();
        for cut in 0..frame_len {
            assert!(
                try_parse(&raw[..cut], 1024).unwrap().is_none(),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        let parsed = try_parse(raw, 1024).unwrap().unwrap();
        assert_eq!(parsed.request.body, b"hello");
        assert_eq!(parsed.consumed, frame_len);
        assert!(!parsed.close, "HTTP/1.1 defaults to keep-alive");
        // The residue behind `consumed` is the next pipelined request.
        assert_eq!(&raw[parsed.consumed..], b"GET /x");
    }

    #[test]
    fn try_parse_honours_connection_and_version_close_semantics() {
        let close = b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(try_parse(close, 1024).unwrap().unwrap().close);
        let old = b"GET /health HTTP/1.0\r\n\r\n";
        assert!(try_parse(old, 1024).unwrap().unwrap().close);
        let old_keep = b"GET /health HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n";
        assert!(!try_parse(old_keep, 1024).unwrap().unwrap().close);
    }

    #[test]
    fn conflicting_duplicate_content_lengths_are_rejected() {
        let raw = b"POST /reduce HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!";
        let err = try_parse(raw, 1024).unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(err.to_string().contains("conflicting content-length"), "{err}");
        // Identical repeats are harmless and accepted.
        let raw = b"POST /reduce HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        let parsed = try_parse(raw, 1024).unwrap().unwrap();
        assert_eq!(parsed.request.body, b"hello");
    }

    #[test]
    fn oversize_declared_bodies_fail_before_the_body_arrives() {
        let raw = b"POST /reduce HTTP/1.1\r\nContent-Length: 100\r\n\r\n";
        let err = try_parse(raw, 64).unwrap_err();
        assert_eq!(err.status(), 413);
        assert!(err.to_string().contains("100 bytes exceeds the 64-byte limit"), "{err}");
        // Within the limit the same request parses.
        let raw = b"POST /reduce HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        assert!(try_parse(raw, 64).unwrap().is_some());
    }

    #[test]
    fn heads_longer_than_max_head_get_413_complete_or_not() {
        let head = |filler: usize| {
            format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(filler)).into_bytes()
        };
        // The longest acceptable head parses…
        let at_limit = head(MAX_HEAD - head(0).len());
        assert_eq!(at_limit.len(), MAX_HEAD);
        assert!(try_parse(&at_limit, 1024).unwrap().is_some());
        // …one byte more is refused, terminator or not.
        let over = head(MAX_HEAD - head(0).len() + 1);
        let err = try_parse(&over, 1024).unwrap_err();
        assert_eq!(err.status(), 413);
        assert!(err.to_string().starts_with("request head of 65537 bytes"), "{err}");
        assert_eq!(try_parse(&[b'a'; MAX_HEAD], 1024).unwrap(), None);
        let unterminated = try_parse(&[b'a'; MAX_HEAD + 1], 1024).unwrap_err();
        assert_eq!(unterminated.status(), 413);
    }

    #[test]
    fn render_advertises_the_connection_decision() {
        let keep = String::from_utf8(Response::json(&Json::U64(7)).render(true)).unwrap();
        assert!(keep.contains("connection: keep-alive\r\n"), "{keep}");
        let close = text(&Response::json(&Json::U64(7)));
        assert!(close.contains("connection: close\r\n"), "{close}");
    }

    #[test]
    fn text_responses_override_the_content_type() {
        let text = text(&Response::text("metric 1\n".to_string()));
        assert!(
            text.contains("content-type: text/plain; version=0.0.4\r\n"),
            "{text}"
        );
        assert!(text.ends_with("\r\n\r\nmetric 1\n"), "{text}");
    }
}
