//! Per-connection state machines for the event loop.
//!
//! Each accepted socket gets a [`Conn`]: an incremental HTTP/1.1
//! request parser ([`RequestParser`]) feeding a pipeline of response
//! slots, plus a buffered non-blocking writer with backpressure. The
//! event loop ([`crate::event`]) owns the readiness notification; this
//! module owns all per-socket protocol state, so it can be unit-tested
//! byte-by-byte without a socket.
//!
//! Protocol rules implemented here:
//! - requests may arrive split across arbitrarily many reads, or many
//!   per read (pipelining);
//! - the request line is capped at [`MAX_REQUEST_LINE_BYTES`] and the
//!   head at [`crate::http::MAX_HEAD_BYTES`] — beyond either the
//!   connection gets a `431` and closes (we cannot resync);
//! - bodies are capped at [`crate::http::MAX_BODY_BYTES`] (`413`);
//! - malformed heads get a `400` and close the connection, but a *valid*
//!   request carrying a malformed job spec is routed normally, answered
//!   `400`, and the connection stays usable (application errors do not
//!   poison the transport);
//! - responses are written in request order regardless of completion
//!   order, so pipelined clients always see matching replies.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use crate::http::{Request, Response, MAX_BODY_BYTES, MAX_HEAD_BYTES};

/// Cap on the request line alone; an overlong first line means a
/// confused or abusive client and earns a `431` before the full head
/// cap is reached.
pub const MAX_REQUEST_LINE_BYTES: usize = 8 * 1024;

/// Stop reading new requests once this many unflushed response bytes
/// are queued — write-buffer backpressure against slow readers.
pub const WRITE_HIGH_WATER: usize = 256 * 1024;

/// Maximum pipelined requests awaiting responses on one connection;
/// further reads pause until responses drain.
pub const MAX_PIPELINE_DEPTH: usize = 64;

/// Bytes pulled per `read` syscall, into a buffer each [`Conn`] owns.
const READ_CHUNK: usize = 16 * 1024;

/// One step of the incremental parser.
#[derive(Debug)]
pub enum Parsed {
    /// The buffer does not yet hold a complete request.
    NeedMore,
    /// A complete request was pulled off the front of the buffer.
    Request {
        /// The parsed request.
        request: Request,
        /// Whether the client asked to keep the connection open.
        keep_alive: bool,
    },
    /// The byte stream is not valid HTTP (or exceeds caps); the
    /// connection must be answered with `status` and closed.
    Bad {
        /// Response status (400, 413, or 431).
        status: u16,
        /// Human-readable reason, returned in the error body.
        message: String,
    },
}

/// Incremental HTTP/1.1 request parser over an internal byte buffer.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for the head terminator, so
    /// repeated `next()` calls on a slow-arriving head stay O(n).
    scanned: usize,
}

impl RequestParser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self {
            buf: Vec::with_capacity(1024),
            scanned: 0,
        }
    }

    /// Appends newly read bytes to the parse buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (for backpressure accounting).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Attempts to pull one complete request off the front of the
    /// buffer. Call repeatedly until [`Parsed::NeedMore`] to drain a
    /// segment carrying pipelined requests.
    pub fn next_request(&mut self) -> Parsed {
        // Resume the terminator scan just before where we stopped, in
        // case `\r\n\r\n` straddles the old/new byte boundary.
        let start = self.scanned.saturating_sub(3);
        let found = self
            .buf
            .get(start..)
            .and_then(|tail| tail.windows(4).position(|w| w == b"\r\n\r\n"))
            .map(|p| start + p);
        let head_end = match found {
            Some(p) => p,
            None => {
                self.scanned = self.buf.len();
                return self.check_caps_without_head();
            }
        };
        if head_end > MAX_HEAD_BYTES {
            return Parsed::Bad {
                status: 431,
                message: format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
            };
        }
        let head_bytes = self.buf.get(..head_end).unwrap_or_default();
        if let Some(bad) = check_request_line(head_bytes) {
            return bad;
        }
        let head = match std::str::from_utf8(head_bytes) {
            Ok(h) => h.to_string(),
            Err(_) => {
                return Parsed::Bad {
                    status: 400,
                    message: "request head is not valid UTF-8".to_string(),
                }
            }
        };
        let (request_line, header_lines) = match parse_head_lines(&head) {
            Ok(parts) => parts,
            Err(message) => {
                return Parsed::Bad {
                    status: 400,
                    message,
                }
            }
        };
        let content_length = match content_length_of(&header_lines) {
            Ok(len) => len,
            Err(bad) => return bad,
        };
        if content_length > MAX_BODY_BYTES {
            return Parsed::Bad {
                status: 413,
                message: format!("request body exceeds {MAX_BODY_BYTES} bytes"),
            };
        }
        let total = head_end + 4 + content_length;
        if self.buf.len() < total {
            // Head parsed but body incomplete; leave buffer intact. The
            // head re-parse on the next call is bounded by
            // MAX_HEAD_BYTES, so this stays cheap.
            self.scanned = head_end;
            return Parsed::NeedMore;
        }
        let body: Vec<u8> = self
            .buf
            .get(head_end + 4..total)
            .unwrap_or_default()
            .to_vec();
        self.buf.drain(..total);
        self.scanned = 0;
        let keep_alive = keep_alive_of(&request_line, &header_lines);
        let request = Request {
            method: request_line.method,
            path: request_line.path,
            headers: header_lines,
            body,
        };
        Parsed::Request {
            request,
            keep_alive,
        }
    }

    /// Cap checks that apply while the head terminator has not arrived.
    /// Each fails only once no later bytes can bring the head within its
    /// cap, so a request split across reads meets the caps it meets in
    /// one read.
    fn check_caps_without_head(&self) -> Parsed {
        // A request line within its cap ends in a CRLF starting at most
        // MAX_REQUEST_LINE_BYTES in.
        let line_span = MAX_REQUEST_LINE_BYTES + 2;
        let line_done = self
            .buf
            .get(..line_span.min(self.buf.len()))
            .is_some_and(|head| head.windows(2).any(|w| w == b"\r\n"));
        if !line_done && self.buf.len() >= line_span {
            return Parsed::Bad {
                status: 431,
                message: format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"),
            };
        }
        // The terminator may still start in the last three bytes.
        if self.buf.len() > MAX_HEAD_BYTES + 3 {
            return Parsed::Bad {
                status: 431,
                message: format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
            };
        }
        Parsed::NeedMore
    }
}

/// The request line, already split.
#[derive(Debug)]
struct RequestLine {
    method: String,
    path: String,
    version: String,
}

/// Rejects overlong request lines even when the full head terminator
/// already arrived (one huge first line, tiny headers).
fn check_request_line(head_bytes: &[u8]) -> Option<Parsed> {
    let line_len = head_bytes
        .windows(2)
        .position(|w| w == b"\r\n")
        .unwrap_or(head_bytes.len());
    if line_len > MAX_REQUEST_LINE_BYTES {
        return Some(Parsed::Bad {
            status: 431,
            message: format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"),
        });
    }
    None
}

/// Splits a head into the request line and lowercased header pairs.
fn parse_head_lines(head: &str) -> Result<(RequestLine, Vec<(String, String)>), String> {
    let mut lines = head.split("\r\n");
    let first = lines.next().unwrap_or_default();
    let mut parts = first.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    let version = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return Err(format!("malformed request line: {first:?}"));
    }
    if !version.is_empty() && !version.starts_with("HTTP/") {
        return Err(format!("malformed HTTP version: {version:?}"));
    }
    let mut headers = Vec::with_capacity(8);
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("malformed header line: {line:?}"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((
        RequestLine {
            method,
            path,
            version,
        },
        headers,
    ))
}

/// Parses `Content-Length` out of lowercased header pairs.
fn content_length_of(headers: &[(String, String)]) -> Result<usize, Parsed> {
    let Some((_, value)) = headers.iter().find(|(name, _)| name == "content-length") else {
        return Ok(0);
    };
    value.parse::<usize>().map_err(|_| Parsed::Bad {
        status: 400,
        message: format!("invalid Content-Length: {value:?}"),
    })
}

/// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
/// `Connection` header wins either way.
fn keep_alive_of(line: &RequestLine, headers: &[(String, String)]) -> bool {
    let connection = headers
        .iter()
        .find(|(name, _)| name == "connection")
        .map(|(_, value)| value.to_ascii_lowercase());
    match connection {
        Some(v) if v.contains("close") => false,
        Some(v) if v.contains("keep-alive") => true,
        _ => line.version != "HTTP/1.0",
    }
}

/// Events a readable connection produces, tagged with the per-connection
/// request sequence number that routes the eventual response back into
/// pipeline order.
#[derive(Debug)]
pub enum ConnEvent {
    /// A complete, well-formed request.
    Request {
        /// Pipeline sequence number; pass back to [`Conn::complete`].
        seq: u64,
        /// The parsed request.
        request: Request,
    },
    /// A transport-level protocol error; the connection closes after
    /// the error response flushes.
    Protocol {
        /// Pipeline sequence number; pass back to [`Conn::complete`].
        seq: u64,
        /// Response status (400, 413, or 431).
        status: u16,
        /// Reason, for the error body.
        message: String,
    },
}

/// A response slot in the pipeline: opened when a request is parsed,
/// filled (in any order) by [`Conn::complete`], drained to the write
/// buffer strictly in request order.
#[derive(Debug)]
struct Slot {
    seq: u64,
    bytes: Option<Vec<u8>>,
    close_after: bool,
}

/// One client connection: parser, pipeline slots, and write buffer.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// Landing buffer for `read`, zeroed once per connection rather than
    /// once per readiness event.
    read_buf: Box<[u8]>,
    parser: RequestParser,
    pending: VecDeque<Slot>,
    next_seq: u64,
    out: Vec<u8>,
    out_pos: usize,
    read_closed: bool,
    close_after_flush: bool,
    dead: bool,
    last_activity: Instant,
}

impl Conn {
    /// Wraps an accepted stream, switching it to non-blocking mode.
    ///
    /// # Errors
    ///
    /// Propagates the `set_nonblocking` failure.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream,
            read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
            parser: RequestParser::new(),
            pending: VecDeque::with_capacity(4),
            next_seq: 0,
            out: Vec::with_capacity(1024),
            out_pos: 0,
            read_closed: false,
            close_after_flush: false,
            dead: false,
            last_activity: Instant::now(),
        })
    }

    /// The underlying stream (for registering its fd with the poller).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Instant of the last read or write progress, for idle sweeps.
    pub fn last_activity(&self) -> Instant {
        self.last_activity
    }

    /// Whether the event loop should poll this connection for
    /// readability: still open, under the pipeline cap, and under the
    /// write-buffer high-water mark.
    pub fn wants_read(&self) -> bool {
        !self.dead
            && !self.read_closed
            && !self.close_after_flush
            && self.pending.len() < MAX_PIPELINE_DEPTH
            && self.unflushed() < WRITE_HIGH_WATER
    }

    /// Whether there are buffered response bytes to flush.
    pub fn wants_write(&self) -> bool {
        !self.dead && self.unflushed() > 0
    }

    /// Whether requests are still awaiting responses.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Whether the connection is finished and should be dropped.
    pub fn is_done(&self) -> bool {
        if self.dead {
            return true;
        }
        if self.unflushed() > 0 {
            return false;
        }
        if self.close_after_flush {
            return true;
        }
        self.read_closed && self.pending.is_empty()
    }

    fn unflushed(&self) -> usize {
        self.out.len().saturating_sub(self.out_pos)
    }

    /// Reads until a short read, `WouldBlock` or EOF, and parses every
    /// complete request in the buffer, opening a pipeline slot per event.
    ///
    /// A read that returns less than a full chunk has emptied the socket
    /// for now, so reading stops there: `poll(2)` is level-triggered and
    /// reports bytes that arrive later (or the peer's EOF) as readable
    /// again. A small keep-alive request thus costs one `read`, not a
    /// second one that only returns `EAGAIN`.
    pub fn read_ready(&mut self) -> Vec<ConnEvent> {
        let mut events = Vec::with_capacity(2);
        loop {
            if !self.wants_read() {
                break;
            }
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    self.last_activity = Instant::now();
                    self.parser.feed(self.read_buf.get(..n).unwrap_or_default());
                    self.drain_parser(&mut events);
                    if n < self.read_buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        events
    }

    fn drain_parser(&mut self, events: &mut Vec<ConnEvent>) {
        while self.pending.len() < MAX_PIPELINE_DEPTH && !self.close_after_flush {
            match self.parser.next_request() {
                Parsed::NeedMore => break,
                Parsed::Request {
                    request,
                    keep_alive,
                } => {
                    let seq = self.open_slot(!keep_alive);
                    events.push(ConnEvent::Request { seq, request });
                }
                Parsed::Bad { status, message } => {
                    // The stream cannot be resynced past a protocol
                    // error: answer, then close once flushed.
                    let seq = self.open_slot(true);
                    events.push(ConnEvent::Protocol {
                        seq,
                        status,
                        message,
                    });
                    break;
                }
            }
        }
    }

    fn open_slot(&mut self, close_after: bool) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back(Slot {
            seq,
            bytes: None,
            close_after,
        });
        seq
    }

    /// Fills the pipeline slot for `seq` with a response and moves any
    /// now-contiguous head-of-line responses into the write buffer.
    /// Unknown sequence numbers (connection already resynced) are
    /// ignored.
    pub fn complete(&mut self, seq: u64, response: &Response) {
        let Some(slot) = self.pending.iter_mut().find(|slot| slot.seq == seq) else {
            return;
        };
        if slot.bytes.is_some() {
            return;
        }
        slot.bytes = Some(response.serialize(!slot.close_after));
        while let Some(front) = self.pending.front() {
            if front.bytes.is_none() {
                break;
            }
            let Some(slot) = self.pending.pop_front() else {
                break;
            };
            if let Some(bytes) = slot.bytes {
                self.out.extend_from_slice(&bytes);
            }
            if slot.close_after {
                // Later pipelined requests (if any) die with the
                // connection, matching `Connection: close` semantics.
                self.close_after_flush = true;
                self.pending.clear();
                break;
            }
        }
    }

    /// Writes buffered response bytes until `WouldBlock` or empty,
    /// using single `write` calls (never blocking loops).
    pub fn flush(&mut self) {
        while let Some(remaining) = self.out.get(self.out_pos..) {
            if remaining.is_empty() {
                break;
            }
            match self.stream.write(remaining) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.out_pos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.out_pos >= self.out.len() && !self.out.is_empty() {
            self.out.clear();
            self.out_pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(parser: &mut RequestParser) -> Vec<Parsed> {
        let mut out = Vec::new();
        loop {
            match parser.next_request() {
                Parsed::NeedMore => break,
                p @ Parsed::Bad { .. } => {
                    out.push(p);
                    break;
                }
                p => out.push(p),
            }
        }
        out
    }

    /// What a parse step tells the connection: a request (with what it
    /// routes on), a rejection status, or that it needs more bytes.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Request {
            method: String,
            path: String,
            headers: Vec<(String, String)>,
            body: Vec<u8>,
            keep_alive: bool,
        },
        Bad(u16),
        NeedMore,
    }

    /// Feeds `input` in the pieces cut at `splits` (ascending offsets),
    /// pulling every request each piece completes, as a connection does;
    /// the outcomes up to the first rejection, then the parser's last
    /// word.
    fn outcomes(input: &[u8], splits: &[usize]) -> Vec<Outcome> {
        let mut parser = RequestParser::new();
        let mut out = Vec::new();
        let mut from = 0;
        for &to in splits.iter().chain([&input.len()]) {
            parser.feed(&input[from..to]);
            from = to;
            loop {
                match parser.next_request() {
                    Parsed::NeedMore => break,
                    Parsed::Bad { status, .. } => {
                        out.push(Outcome::Bad(status));
                        return out;
                    }
                    Parsed::Request {
                        request,
                        keep_alive,
                    } => out.push(Outcome::Request {
                        method: request.method,
                        path: request.path,
                        headers: request.headers,
                        body: request.body,
                        keep_alive,
                    }),
                }
            }
        }
        out.push(Outcome::NeedMore);
        out
    }

    /// A request whose request line is `line_len` bytes long and whose
    /// head (terminator excluded) is at least `head_len` bytes long.
    fn request_at_caps(line_len: usize, head_len: usize) -> Vec<u8> {
        let mut raw = b"GET /".to_vec();
        raw.resize(line_len.saturating_sub(9).max(5), b'a');
        raw.extend_from_slice(b" HTTP/1.1");
        let mut pad = 0;
        while raw.len() < head_len {
            let header = format!("\r\nX-Pad-{pad}: ");
            raw.extend_from_slice(header.as_bytes());
            let fill = head_len.saturating_sub(raw.len()).min(1000);
            raw.resize(raw.len() + fill, b'p');
            pad += 1;
        }
        raw.extend_from_slice(b"\r\n\r\n");
        raw
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn split_reads_parse_like_one_read(
            kind in 0usize..4,
            pick in 0usize..10_000,
            bytes in proptest::collection::vec(0u8..=255, 0..160),
            splits in proptest::collection::vec((0usize..3, 0usize..20_000), 0..8),
        ) {
            // Arbitrary bytes; bytes over an HTTP alphabet; valid
            // pipelined requests with arbitrary bytes appended; and
            // requests whose request line or head sits within a few bytes
            // of its cap. Cut anywhere, with cuts drawn near both caps, a
            // stream parses to what it parses to in one read, never
            // panics, and is rejected only with 400, 413 or 431.
            const ALPHABET: &[u8] = b"\r\n\r\n: GET POST /v1 HTTP/1.1 Content-Length: 3\r\nConnection: close";
            const VALID: [&str; 4] = [
                "GET /healthz HTTP/1.1\r\n\r\n",
                "POST /v1/jobs HTTP/1.1\r\nContent-Length: 5\r\nHost: x\r\n\r\nhello",
                "GET /metrics HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
                "POST /v1/jobs HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
            ];
            let input: Vec<u8> = match kind {
                0 => bytes,
                1 => bytes.iter().map(|&b| ALPHABET[usize::from(b) % ALPHABET.len()]).collect(),
                2 => {
                    let mut raw = Vec::new();
                    for i in 0..=pick % 3 {
                        raw.extend_from_slice(VALID[(pick / 3 + i) % VALID.len()].as_bytes());
                    }
                    raw.extend_from_slice(&bytes);
                    raw
                }
                _ => {
                    let delta = pick % 7;
                    let mut raw = if pick / 7 % 2 == 0 {
                        request_at_caps(MAX_REQUEST_LINE_BYTES + delta - 3, 0)
                    } else {
                        request_at_caps(16, MAX_HEAD_BYTES + delta - 3)
                    };
                    raw.extend_from_slice(&bytes);
                    raw
                }
            };
            let mut cuts: Vec<usize> = splits
                .iter()
                .map(|&(near, off)| match near {
                    0 => off,
                    1 => MAX_REQUEST_LINE_BYTES - 4 + off % 9,
                    _ => MAX_HEAD_BYTES - 4 + off % 9,
                })
                .map(|cut| cut % (input.len() + 1))
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            let whole = outcomes(&input, &[]);
            proptest::prop_assert_eq!(&outcomes(&input, &cuts), &whole, "cuts {:?}", cuts);
            if input.len() <= 512 {
                let every: Vec<usize> = (1..input.len()).collect();
                proptest::prop_assert_eq!(&outcomes(&input, &every), &whole, "byte by byte");
            }
            if let Some(Outcome::Bad(status)) = whole.last() {
                proptest::prop_assert!([400, 413, 431].contains(status), "{}", status);
            }
        }
    }

    #[test]
    fn request_split_across_many_reads_parses_once_complete() {
        let raw = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\nHost: x\r\n\r\nbody";
        let mut parser = RequestParser::new();
        // Feed one byte at a time; no request may surface early.
        for (i, b) in raw.iter().enumerate() {
            parser.feed(&[*b]);
            let step = parser.next_request();
            if i + 1 < raw.len() {
                assert!(
                    matches!(step, Parsed::NeedMore),
                    "byte {i}: unexpected {step:?}"
                );
            } else {
                let Parsed::Request {
                    request,
                    keep_alive,
                } = step
                else {
                    panic!("expected request, got {step:?}");
                };
                assert_eq!(request.method, "POST");
                assert_eq!(request.path, "/v1/jobs");
                assert_eq!(request.body, b"body");
                assert!(keep_alive);
            }
        }
        assert!(matches!(parser.next_request(), Parsed::NeedMore));
    }

    #[test]
    fn headers_split_across_reads_keep_values_intact() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET /metrics HTTP/1.1\r\nX-Tra");
        assert!(matches!(parser.next_request(), Parsed::NeedMore));
        parser.feed(b"ce: ab\r\n\r\n");
        let Parsed::Request { request, .. } = parser.next_request() else {
            panic!("expected request");
        };
        assert_eq!(request.header("x-trace"), Some("ab"));
    }

    #[test]
    fn pipelined_requests_in_one_segment_all_parse_in_order() {
        let mut parser = RequestParser::new();
        parser.feed(
            b"GET /healthz HTTP/1.1\r\n\r\nPOST /v1/jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /metrics HTTP/1.1\r\n\r\n",
        );
        let events = parse_all(&mut parser);
        let paths: Vec<String> = events
            .iter()
            .map(|p| match p {
                Parsed::Request { request, .. } => request.path.clone(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(paths, ["/healthz", "/v1/jobs", "/metrics"]);
    }

    #[test]
    fn oversized_request_line_gets_431() {
        let mut parser = RequestParser::new();
        let long = vec![b'a'; MAX_REQUEST_LINE_BYTES + 10];
        parser.feed(b"GET /");
        parser.feed(&long);
        let Parsed::Bad { status, .. } = parser.next_request() else {
            panic!("expected Bad");
        };
        assert_eq!(status, 431);
    }

    #[test]
    fn oversized_request_line_with_complete_head_gets_431() {
        let mut parser = RequestParser::new();
        let mut raw = Vec::new();
        raw.extend_from_slice(b"GET /");
        raw.extend_from_slice(&vec![b'a'; MAX_REQUEST_LINE_BYTES]);
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        parser.feed(&raw);
        let Parsed::Bad { status, .. } = parser.next_request() else {
            panic!("expected Bad");
        };
        assert_eq!(status, 431);
    }

    #[test]
    fn oversized_head_gets_431() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/1.1\r\n");
        let filler = format!("X-Pad: {}\r\n", "p".repeat(1000));
        while parser.buffered() <= MAX_HEAD_BYTES {
            parser.feed(filler.as_bytes());
        }
        let Parsed::Bad { status, .. } = parser.next_request() else {
            panic!("expected Bad");
        };
        assert_eq!(status, 431);
    }

    #[test]
    fn oversized_body_gets_413() {
        let mut parser = RequestParser::new();
        parser.feed(
            format!(
                "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .as_bytes(),
        );
        let Parsed::Bad { status, .. } = parser.next_request() else {
            panic!("expected Bad");
        };
        assert_eq!(status, 413);
    }

    #[test]
    fn malformed_head_gets_400() {
        for raw in [
            "NOT-HTTP\r\ngarbage\r\n\r\n",
            "GET\r\n\r\n",
            "GET / HTTP/1.1\r\nno colon here\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n",
        ] {
            let mut parser = RequestParser::new();
            parser.feed(raw.as_bytes());
            let Parsed::Bad { status, .. } = parser.next_request() else {
                panic!("expected Bad for {raw:?}");
            };
            assert_eq!(status, 400, "{raw:?}");
        }
    }

    #[test]
    fn http10_defaults_to_close_and_connection_header_wins() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/1.0\r\n\r\n");
        let Parsed::Request { keep_alive, .. } = parser.next_request() else {
            panic!("expected request");
        };
        assert!(!keep_alive, "HTTP/1.0 must default to close");

        parser.feed(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        let Parsed::Request { keep_alive, .. } = parser.next_request() else {
            panic!("expected request");
        };
        assert!(keep_alive);

        parser.feed(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        let Parsed::Request { keep_alive, .. } = parser.next_request() else {
            panic!("expected request");
        };
        assert!(!keep_alive);
    }

    #[test]
    fn conn_pipeline_writes_responses_in_request_order() {
        // Completing out of order must still flush in request order.
        let (server, mut client) = loopback_pair();
        let mut conn = Conn::new(server).expect("conn");
        use std::io::Write as _;
        client
            .write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
            .expect("write");
        let events = wait_events(&mut conn, 2);
        let seqs: Vec<u64> = events
            .iter()
            .map(|e| match e {
                ConnEvent::Request { seq, .. } => *seq,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        // Complete the second request first.
        conn.complete(seqs[1], &Response::new(200).text("second\n"));
        assert!(!conn.wants_write(), "head-of-line must gate writes");
        conn.complete(seqs[0], &Response::new(200).text("first\n"));
        assert!(conn.wants_write());
        conn.flush();
        let got = read_available(&mut client);
        let first = got.find("first\n").expect("first body present");
        let second = got.find("second\n").expect("second body present");
        assert!(first < second, "responses out of order: {got}");
        assert!(!conn.is_done(), "keep-alive connection must stay open");
    }

    #[test]
    fn conn_closes_after_connection_close_response() {
        let (server, mut client) = loopback_pair();
        let mut conn = Conn::new(server).expect("conn");
        use std::io::Write as _;
        client
            .write_all(b"GET /a HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("write");
        let events = wait_events(&mut conn, 1);
        let ConnEvent::Request { seq, .. } = &events[0] else {
            panic!("expected request");
        };
        conn.complete(*seq, &Response::new(200).text("bye\n"));
        conn.flush();
        assert!(conn.is_done());
        let got = read_available(&mut client);
        assert!(got.contains("Connection: close"), "got: {got}");
    }

    #[test]
    fn body_longer_than_a_read_chunk_arrives_whole() {
        // Full-chunk reads keep reading; only a short read ends the
        // readiness event, and the rest of the body is picked up on the
        // next one.
        let (server, mut client) = loopback_pair();
        let mut conn = Conn::new(server).expect("conn");
        let body = "x".repeat(3 * READ_CHUNK + 17);
        let raw = format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}GET /b HTTP/1.1\r\n\r\n",
            body.len()
        );
        let writer = std::thread::spawn(move || {
            use std::io::Write as _;
            client.write_all(raw.as_bytes()).expect("write");
            client
        });
        let events = wait_events(&mut conn, 2);
        let _client = writer.join().expect("writer");
        let ConnEvent::Request { request, .. } = &events[0] else {
            panic!("expected request");
        };
        assert_eq!(request.body, body.as_bytes());
        let ConnEvent::Request { request, .. } = &events[1] else {
            panic!("expected request");
        };
        assert_eq!(request.path, "/b");
    }

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (server, client)
    }

    fn wait_events(conn: &mut Conn, want: usize) -> Vec<ConnEvent> {
        let mut events = Vec::new();
        for _ in 0..200 {
            events.extend(conn.read_ready());
            if events.len() >= want {
                return events;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        panic!("wanted {want} events, got {}", events.len());
    }

    fn read_available(client: &mut TcpStream) -> String {
        use std::io::Read as _;
        client
            .set_read_timeout(Some(std::time::Duration::from_millis(500)))
            .expect("timeout");
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match client.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(_) => break,
            }
        }
        String::from_utf8_lossy(&buf).into_owned()
    }
}
