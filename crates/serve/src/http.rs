//! A minimal HTTP/1.1 transport over `std::net`: request/response types,
//! response serialization, and the blocking client.
//!
//! The workspace builds offline, so this speaks exactly the protocol
//! subset the job service needs: `Content-Length` bodies, no chunked
//! encoding, no TLS. Requests are size-capped before parsing — the
//! listener faces arbitrary network input. Every request is read
//! incrementally by [`crate::conn::RequestParser`] (with keep-alive and
//! pipelining); this module holds the caps it enforces and the types it
//! produces.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use tbstc::json::Json;
use tbstc::Error;

/// Maximum bytes of request line + headers we accept.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum request body bytes we accept (job specs are small).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Client-side socket read/write timeout.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercased by the client.
    pub method: String,
    /// Request path, e.g. `/v1/jobs`.
    pub path: String,
    /// Raw header list in arrival order (names lowercased).
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Splits `buf` at the `\r\n\r\n` head terminator into (head bytes,
/// remaining bytes), when the terminator has arrived.
pub fn split_head(buf: &[u8]) -> Option<(&[u8], &[u8])> {
    let pos = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    Some((buf.get(..pos)?, buf.get(pos + 4..)?))
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    /// A response with the given status and an empty body.
    pub fn new(status: u16) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Adds a header.
    #[must_use]
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Sets a plain-text body.
    #[must_use]
    pub fn text(self, body: impl Into<String>) -> Response {
        self.header("Content-Type", "text/plain; charset=utf-8")
            .with_body(body.into().into_bytes())
    }

    /// Sets a JSON body.
    #[must_use]
    pub fn json(self, body: impl Into<String>) -> Response {
        self.header("Content-Type", "application/json")
            .with_body(body.into().into_bytes())
    }

    fn with_body(mut self, body: Vec<u8>) -> Response {
        self.body = body;
        self
    }

    /// The response status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Serializes the response to wire bytes. `keep_alive` selects the
    /// `Connection` header: the event loop keeps connections open unless
    /// the request asked to close (or a protocol error poisoned the
    /// stream).
    pub fn serialize(&self, keep_alive: bool) -> Vec<u8> {
        let reason = reason_phrase(self.status);
        let mut head = String::with_capacity(128 + self.headers.len() * 32);
        head.push_str(&format!("HTTP/1.1 {} {}\r\n", self.status, reason));
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!(
            "Content-Length: {}\r\nConnection: {}\r\n\r\n",
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        ));
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// The JSON error document every non-2xx job-service response carries.
pub fn error_body(msg: &str) -> String {
    format!("{}\n", Json::obj([("error", Json::str(msg))]))
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        409 => "Conflict",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A client-side response: status, headers (names lowercased), body text.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers in arrival order.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl ClientResponse {
    /// First header value with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Issues one request against `addr` and reads the full response (the
/// client side of `tbstc-cli submit` and the loopback tests).
///
/// # Errors
///
/// [`Error::Io`] when the connection fails, [`Error::Http`] when the
/// response is malformed.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<ClientResponse, Error> {
    let mut stream = TcpStream::connect(addr)
        .map_err(|e| Error::Io(format!("cannot connect to {addr}: {e}")))?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).ok();
    stream.set_write_timeout(Some(IO_TIMEOUT)).ok();

    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| Error::Io(e.to_string()))?;

    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| Error::Io(e.to_string()))?;
    let (head, rest) =
        split_head(&raw).ok_or_else(|| Error::Http("response has no head".into()))?;
    let head =
        std::str::from_utf8(head).map_err(|_| Error::Http("non-utf8 response head".into()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines
        .next()
        .ok_or_else(|| Error::Http("empty response".into()))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| Error::Http(format!("bad status line `{status_line}`")))?;
    let headers = lines
        .filter(|l| !l.is_empty())
        .filter_map(|l| {
            l.split_once(':')
                .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        })
        .collect();
    let body = String::from_utf8(rest.to_vec())
        .map_err(|_| Error::Http("non-utf8 response body".into()))?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::{Parsed, RequestParser};
    use std::net::TcpListener;

    /// Reads one request off `stream` through the event loop's parser.
    fn read_request(stream: &mut TcpStream) -> Parsed {
        let mut parser = RequestParser::new();
        let mut chunk = [0u8; 4096];
        loop {
            match parser.next_request() {
                Parsed::NeedMore => {}
                parsed => return parsed,
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "client closed mid-request");
            parser.feed(&chunk[..n]);
        }
    }

    fn roundtrip(raw: &str) -> Parsed {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let parsed = read_request(&mut stream);
        client.join().unwrap();
        parsed
    }

    #[test]
    fn parses_post_with_body() {
        let Parsed::Request { request, .. } =
            roundtrip("POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
        else {
            panic!("expected a request");
        };
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/jobs");
        assert_eq!(request.body, b"{\"a\":1}");
        assert_eq!(request.header("host"), Some("x"));
    }

    #[test]
    fn parses_get_without_body() {
        let Parsed::Request { request, .. } = roundtrip("GET /metrics HTTP/1.1\r\n\r\n") else {
            panic!("expected a request");
        };
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/metrics");
        assert!(request.body.is_empty());
    }

    #[test]
    fn rejects_oversized_bodies() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(roundtrip(&raw), Parsed::Bad { status: 413, .. }));
    }

    #[test]
    fn response_serializes_and_client_parses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            assert!(matches!(
                read_request(&mut stream),
                Parsed::Request {
                    keep_alive: false,
                    ..
                }
            ));
            let response = Response::new(200)
                .header("X-Cache", "hit")
                .json("{\"ok\":true}");
            stream.write_all(&response.serialize(false)).unwrap();
        });
        let resp = request(&addr, "POST", "/v1/jobs", Some("{}")).unwrap();
        server.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-cache"), Some("hit"));
        assert_eq!(resp.header("connection"), Some("close"));
        assert_eq!(resp.body, "{\"ok\":true}");
    }
}
