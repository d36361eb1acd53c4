//! Minimal HTTP/1.1 framing over a blocking [`TcpStream`].
//!
//! A [`Connection`] carries any number of requests in turn (HTTP/1.1
//! keep-alive). Bytes read past the end of one request stay in its
//! buffer and start the next, so requests a client pipelines into one
//! write are all answered. Whether a connection stays open after a
//! response is the server's policy (`server.rs`); this module reports
//! what the client asked for ([`Request::keep_alive`]) and writes the
//! matching `Connection` header.
//!
//! Parsing is deliberately strict and bounded: header block ≤ 8 KiB,
//! body ≤ [`MAX_BODY`], `Content-Length` required for bodies, unknown
//! framing (chunked) rejected. Anything over a limit is a typed error
//! the server maps to `413`/`400` instead of an unbounded read.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on the request-line + header block.
pub const MAX_HEAD: usize = 8 * 1024;

/// Upper bound on a request body (1 MiB — a 4096-dim f64 point is
/// ~80 KiB of JSON; batches cap out well under this).
pub const MAX_BODY: usize = 1024 * 1024;

/// Bytes asked of one `read()` while looking for the end of the head.
const HEAD_CHUNK: usize = 4 * 1024;

/// Most bytes asked of one `read()` for a body.
const BODY_CHUNK: usize = 64 * 1024;

/// A parsed request head plus its body.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased by the client already per RFC).
    pub method: String,
    /// Path component only — query strings are not part of the protocol
    /// and are left attached (no route uses them).
    pub path: String,
    /// Raw body bytes (UTF-8 is checked at JSON-parse time, not here).
    pub body: Vec<u8>,
    /// Verbatim `traceparent` header value, if the client sent one
    /// (W3C trace-context ingestion; parsed/validated by the server).
    pub traceparent: Option<String>,
    /// Whether the client lets the connection stay open after the
    /// response: HTTP/1.1 without a `Connection: close` token. HTTP/1.0
    /// always closes.
    pub keep_alive: bool,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RecvError {
    /// Socket error or EOF mid-request (includes read-timeout expiry —
    /// the per-request deadline at the transport layer).
    Io(std::io::Error),
    /// Malformed request line or headers.
    BadRequest(&'static str),
    /// Head or body over the configured limit.
    TooLarge(&'static str),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Io(e) => write!(f, "i/o: {e}"),
            RecvError::BadRequest(w) => write!(f, "bad request: {w}"),
            RecvError::TooLarge(w) => write!(f, "too large: {w}"),
        }
    }
}

/// One client connection: the stream plus the bytes received on it that
/// no request has consumed yet.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    /// Received bytes past the end of the last request read: the start
    /// of the next one.
    buf: Vec<u8>,
    /// The read timeout last set on the socket, so waiting again with
    /// the same timeout costs no system call.
    read_timeout: Option<Duration>,
}

impl Connection {
    /// Wraps an accepted stream. Sets `TCP_NODELAY`, so a response goes
    /// out at once instead of waiting on Nagle for the client's delayed
    /// ACK of the previous one, and `write_timeout` for every response.
    pub fn new(stream: TcpStream, write_timeout: Duration) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(write_timeout))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
            read_timeout: None,
        })
    }

    /// Reads one request. `limit` bounds the whole read, head and body,
    /// not each `read()`, so a slow-loris client trickling bytes cannot
    /// hold a worker past it. Bytes past the request's end stay buffered
    /// for the next call.
    pub fn read_request(&mut self, limit: Duration) -> Result<Request, RecvError> {
        let deadline = Instant::now() + limit;
        let head_end = loop {
            if let Some(i) = find_head_end(&self.buf) {
                break i;
            }
            if self.buf.len() >= MAX_HEAD {
                return Err(RecvError::TooLarge("header block over limit"));
            }
            if self.fill_before(deadline, HEAD_CHUNK)? == 0 {
                return Err(RecvError::BadRequest("connection closed mid-head"));
            }
        };

        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| RecvError::BadRequest("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let method = parts.next().unwrap_or("").to_string();
        let path = parts.next().unwrap_or("").to_string();
        let version = parts.next().unwrap_or("");
        if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1") {
            return Err(RecvError::BadRequest("malformed request line"));
        }
        let mut keep_alive = version == "HTTP/1.1";

        let mut content_length: Option<usize> = None;
        let mut traceparent: Option<String> = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "content-length" {
                let n: usize = value
                    .parse()
                    .map_err(|_| RecvError::BadRequest("bad content-length"))?;
                content_length = Some(n);
            } else if name == "transfer-encoding" && !value.eq_ignore_ascii_case("identity") {
                return Err(RecvError::BadRequest("chunked bodies not supported"));
            } else if name == "traceparent" && traceparent.is_none() {
                traceparent = Some(value.to_string());
            } else if name == "connection"
                && value
                    .split(',')
                    .any(|t| t.trim().eq_ignore_ascii_case("close"))
            {
                keep_alive = false;
            }
        }

        let body_start = head_end + 4; // past the \r\n\r\n
        let want = content_length.unwrap_or(0);
        if want > MAX_BODY {
            return Err(RecvError::TooLarge("body over limit"));
        }
        let end = body_start + want;
        while self.buf.len() < end {
            let missing = end - self.buf.len();
            if self.fill_before(deadline, missing.min(BODY_CHUNK))? == 0 {
                return Err(RecvError::BadRequest("connection closed mid-body"));
            }
        }
        let body = self.buf[body_start..end].to_vec();
        self.buf.drain(..end);

        Ok(Request {
            method,
            path,
            body,
            traceparent,
            keep_alive,
        })
    }

    /// Waits up to `timeout` for the first bytes of the next request.
    /// `Ok(true)`: bytes are buffered (perhaps they already were);
    /// `Ok(false)`: none arrived in time; `Err`: the client closed the
    /// connection (`UnexpectedEof`) or the socket failed.
    pub fn await_request(&mut self, timeout: Duration) -> io::Result<bool> {
        if !self.buf.is_empty() {
            return Ok(true);
        }
        match self.fill(timeout, HEAD_CHUNK) {
            Ok(0) => Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(_) => Ok(true),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Writes a complete response, head and body in one `write_all`.
    /// `extra_headers` are preformatted `Name: value` lines (no trailing
    /// CRLF); `keep_alive` picks the `Connection` header.
    pub fn write_response(
        &mut self,
        status: u16,
        content_type: &str,
        extra_headers: &[String],
        body: &[u8],
        keep_alive: bool,
    ) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            reason(status),
            body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        );
        for h in extra_headers {
            head.push_str(h);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(body);
        self.stream.write_all(&out)
    }

    /// One `read()` of at most `want` bytes before `deadline`.
    fn fill_before(&mut self, deadline: Instant, want: usize) -> Result<usize, RecvError> {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(RecvError::Io(io::ErrorKind::TimedOut.into()));
        }
        self.fill(left, want).map_err(RecvError::Io)
    }

    /// One `read()` of at most `want` bytes onto the buffer, waiting at
    /// most `timeout`. `Ok(0)` is end of stream.
    fn fill(&mut self, timeout: Duration, want: usize) -> io::Result<usize> {
        if self.read_timeout != Some(timeout) {
            self.stream.set_read_timeout(Some(timeout))?;
            self.read_timeout = Some(timeout);
        }
        let len = self.buf.len();
        self.buf.resize(len + want, 0);
        let read = self.stream.read(&mut self.buf[len..]);
        self.buf.truncate(len + read.as_ref().map_or(0, |n| *n));
        read
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// A client stream and the server's [`Connection`] for it.
    fn pair() -> (TcpStream, Connection) {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = l.accept().expect("accept");
        (
            a,
            Connection::new(b, Duration::from_secs(1)).expect("connection"),
        )
    }

    #[test]
    fn parses_post_with_body() {
        let (mut c, mut s) = pair();
        c.write_all(b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world")
            .expect("write");
        let req = s.read_request(Duration::from_secs(1)).expect("read");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.body, b"hello world");
        assert_eq!(req.traceparent, None);
        assert!(req.keep_alive);
    }

    #[test]
    fn captures_traceparent_header() {
        let (mut c, mut s) = pair();
        c.write_all(
            b"POST /query HTTP/1.1\r\nTraceParent: 00-0123456789abcdef0123456789abcdef-fedcba9876543210-01\r\nContent-Length: 0\r\n\r\n",
        )
        .expect("write");
        let req = s.read_request(Duration::from_secs(1)).expect("read");
        assert_eq!(
            req.traceparent.as_deref(),
            Some("00-0123456789abcdef0123456789abcdef-fedcba9876543210-01")
        );
    }

    #[test]
    fn parses_get_without_body() {
        let (mut c, mut s) = pair();
        c.write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
            .expect("write");
        let req = s.read_request(Duration::from_secs(1)).expect("read");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let (mut c, mut s) = pair();
        c.write_all(
            b"GET /a HTTP/1.1\r\nConnection: keep-alive, Close\r\n\r\n\
              GET /b HTTP/1.0\r\n\r\n\
              GET /c HTTP/1.1\r\nConnection: keep-alive\r\n\r\n",
        )
        .expect("write");
        let limit = Duration::from_secs(1);
        assert!(!s.read_request(limit).expect("a").keep_alive);
        assert!(!s.read_request(limit).expect("b").keep_alive);
        assert!(s.read_request(limit).expect("c").keep_alive);
    }

    #[test]
    fn bytes_past_a_request_start_the_next() {
        let (mut c, mut s) = pair();
        // The second request and half of the third arrive with the first.
        c.write_all(
            b"POST /one HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcPOST /two HTTP/1.1\r\nContent-Length: 2\r\n\r\nxyGET /th",
        )
        .expect("write");
        let limit = Duration::from_secs(1);
        let one = s.read_request(limit).expect("one");
        assert_eq!(
            (one.path.as_str(), one.body.as_slice()),
            ("/one", &b"abc"[..])
        );
        assert!(s.await_request(Duration::from_millis(1)).expect("buffered"));
        let two = s.read_request(limit).expect("two");
        assert_eq!(
            (two.path.as_str(), two.body.as_slice()),
            ("/two", &b"xy"[..])
        );
        c.write_all(b"ree HTTP/1.1\r\n\r\n").expect("write rest");
        assert_eq!(s.read_request(limit).expect("three").path, "/three");
        // Nothing is left over, and a closed client reads as end of stream.
        assert!(!s.await_request(Duration::from_millis(10)).expect("idle"));
        drop(c);
        let eof = s.await_request(Duration::from_secs(1)).expect_err("closed");
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn rejects_oversized_head_and_body() {
        let (mut c, mut s) = pair();
        let big = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(MAX_HEAD));
        c.write_all(big.as_bytes()).expect("write");
        assert!(matches!(
            s.read_request(Duration::from_secs(1)),
            Err(RecvError::TooLarge(_))
        ));

        let (mut c, mut s) = pair();
        let head = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        c.write_all(head.as_bytes()).expect("write");
        assert!(matches!(
            s.read_request(Duration::from_secs(1)),
            Err(RecvError::TooLarge(_))
        ));
    }

    #[test]
    fn rejects_chunked_and_malformed() {
        let (mut c, mut s) = pair();
        c.write_all(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
            .expect("write");
        assert!(matches!(
            s.read_request(Duration::from_secs(1)),
            Err(RecvError::BadRequest(_))
        ));

        let (mut c, mut s) = pair();
        c.write_all(b"NOT-HTTP\r\n\r\n").expect("write");
        assert!(s.read_request(Duration::from_secs(1)).is_err());
    }

    #[test]
    fn slow_client_times_out() {
        let (_c, mut s) = pair();
        // Client never writes: the read must fail by timeout, not hang.
        let t0 = std::time::Instant::now();
        let r = s.read_request(Duration::from_millis(100));
        assert!(matches!(r, Err(RecvError::Io(_))));
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn trickling_client_times_out_on_the_total_limit() {
        let (mut c, mut s) = pair();
        let writer = std::thread::spawn(move || {
            // One byte every 20 ms: each read() returns in time, the
            // request as a whole does not.
            for b in b"GET /slow HTTP/1.1\r\n\r\n" {
                if c.write_all(&[*b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let t0 = std::time::Instant::now();
        let r = s.read_request(Duration::from_millis(100));
        assert!(matches!(r, Err(RecvError::Io(_))), "{r:?}");
        assert!(t0.elapsed() < Duration::from_millis(300));
        drop(s);
        writer.join().expect("writer");
    }

    #[test]
    fn response_round_trips() {
        let (mut c, mut s) = pair();
        s.write_response(
            429,
            "application/json",
            &[String::from("Retry-After: 1")],
            b"{\"error\":\"overloaded\"}",
            false,
        )
        .expect("write");
        drop(s);
        let mut got = String::new();
        c.read_to_string(&mut got).expect("read");
        assert!(
            got.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{got}"
        );
        assert!(got.contains("Retry-After: 1\r\n"), "{got}");
        assert!(got.contains("Connection: close\r\n"), "{got}");
        assert!(got.ends_with("{\"error\":\"overloaded\"}"), "{got}");
    }
}
