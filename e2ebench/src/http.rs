//! A minimal HTTP/1.1 keep-alive client: one request in flight per
//! connection, either blocking ([`Conn::request`]) or driven by
//! `poll(2)` readiness ([`Conn::start`] + [`Conn::pump`]) so one thread
//! can run several connections of a closed loop.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The `X-Cache` header (`hit` / `miss`), if present.
    pub x_cache: Option<String>,
    /// The `Location` header, if present.
    pub location: Option<String>,
    /// The body bytes.
    pub body: Vec<u8>,
}

/// A keep-alive connection to the server.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a read timeout, so a stalled
    /// server fails the op instead of hanging the run.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            out: Vec::with_capacity(1024),
            out_pos: 0,
            inbuf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Switches the socket to non-blocking mode for [`Conn::pump`].
    pub fn set_nonblocking(&self) -> std::io::Result<()> {
        self.stream.set_nonblocking(true)
    }

    /// The socket, for `poll(2)`.
    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Queues one request; [`Conn::pump`] sends it.
    pub fn start(&mut self, method: &str, path: &str, body: &str) {
        self.out.clear();
        self.out_pos = 0;
        // Writing into a Vec cannot fail.
        let _ = write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
    }

    /// Whether the queued request still has bytes to send.
    pub fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Moves the connection on as far as the socket allows: sends what
    /// it can of the request, then reads what has arrived. Returns the
    /// response once it is complete.
    pub fn pump(&mut self) -> std::io::Result<Option<Response>> {
        while self.wants_write() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(resp) = parse(&mut self.inbuf) {
                return Ok(Some(resp));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one request and blocks until its whole response is read.
    /// On a blocking socket [`Conn::pump`] stops early only when the read
    /// timeout expires.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        self.start(method, path, body);
        self.pump()?.ok_or_else(|| ErrorKind::TimedOut.into())
    }
}

/// Pops one complete response off the front of `buf`, if it has fully
/// arrived. A head without a parsable status reads as status 0.
fn parse(buf: &mut Vec<u8>) -> Option<Response> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).unwrap_or("");
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut length = 0usize;
    let mut x_cache = None;
    let mut location = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().unwrap_or(0);
            } else if name.eq_ignore_ascii_case("x-cache") {
                x_cache = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("location") {
                location = Some(value.to_string());
            }
        }
    }
    let total = head_end + 4 + length;
    if buf.len() < total {
        return None;
    }
    let body = buf[head_end + 4..total].to_vec();
    buf.drain(..total);
    Some(Response {
        status,
        x_cache,
        location,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_split_and_back_to_back_responses() {
        let one = b"HTTP/1.1 200 OK\r\nX-Cache: hit\r\nContent-Length: 5\r\n\r\nhello";
        let two = b"HTTP/1.1 202 Accepted\r\nLocation: /v1/jobs/ab\r\nContent-Length: 0\r\n\r\n";
        let mut buf = one[..20].to_vec();
        assert_eq!(parse(&mut buf), None, "head not complete");
        buf.extend_from_slice(&one[20..one.len() - 1]);
        assert_eq!(parse(&mut buf), None, "body not complete");
        buf.extend_from_slice(&one[one.len() - 1..]);
        buf.extend_from_slice(two);
        let a = parse(&mut buf).expect("first");
        assert_eq!(
            (a.status, a.x_cache.as_deref(), &a.body[..]),
            (200, Some("hit"), &b"hello"[..])
        );
        let b = parse(&mut buf).expect("second");
        assert_eq!(
            (b.status, b.location.as_deref()),
            (202, Some("/v1/jobs/ab"))
        );
        assert!(buf.is_empty());
    }

    #[test]
    fn blocking_requests_share_one_keep_alive_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut seen = Vec::new();
            for reply in [
                "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
                "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n",
            ] {
                // One request per reply; requests here carry no body.
                while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
                    let mut chunk = [0u8; 1024];
                    let n = s.read(&mut chunk).expect("read");
                    seen.extend_from_slice(&chunk[..n]);
                }
                seen.clear();
                s.write_all(reply.as_bytes()).expect("write");
            }
        });
        let mut conn = Conn::connect(addr).expect("connect");
        assert_eq!(conn.request("GET", "/a", "").expect("first").body, b"ok");
        assert_eq!(conn.request("GET", "/b", "").expect("second").status, 404);
        server.join().expect("server thread");
    }
}
