//! The benchmark's own HTTP/1.1 client.
//!
//! It keeps a connection open for the next request unless the server
//! answers `Connection: close`; a server that adds keep-alive therefore
//! shows up as fewer connects per request without any change here.
//!
//! A connection the server closes is reset by the client (`SO_LINGER` 0)
//! once the whole response has been read. Otherwise the server side of
//! every closed connection sits in TIME_WAIT for a minute, and at ten
//! thousand requests a second the loopback ports run out within a run and
//! `connect` starts failing.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(5);
const MAX_RESPONSE: usize = 1 << 20;

/// One HTTP response.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// Bytes received for this response, head included.
    pub bytes: usize,
}

pub struct Client {
    addr: String,
    conn: Option<TcpStream>,
    /// Connections opened so far.
    pub connects: u64,
    /// Duration of every `connect`, in nanoseconds.
    pub connect_ns: Vec<u64>,
    /// Requests sent again after a kept-alive connection was found closed.
    pub retries: u64,
}

/// Why one attempt at a request failed.
enum Failure {
    /// The server closed the connection before sending a single byte of
    /// the response.
    ClosedBeforeResponse,
    Other(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Other(e)
    }
}

impl From<&str> for Failure {
    fn from(e: &str) -> Self {
        Failure::Other(e.into())
    }
}

impl Failure {
    fn message(self) -> String {
        match self {
            Failure::ClosedBeforeResponse => "connection closed before response".into(),
            Failure::Other(e) => e,
        }
    }
}

impl Client {
    pub fn new(addr: impl Into<String>) -> Self {
        Client {
            addr: addr.into(),
            conn: None,
            connects: 0,
            connect_ns: Vec::new(),
            retries: 0,
        }
    }

    /// Sends one request and reads the whole response.
    ///
    /// A kept-alive connection the server closed while it was idle is
    /// seen as a clean end of stream before any response byte; only then
    /// is the request sent again, once, on a fresh connection, and counted
    /// in `retries`. Every other error is returned.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        traceparent: Option<&str>,
    ) -> Result<Reply, String> {
        let reused = self.conn.is_some();
        match self.try_request(method, path, body, traceparent) {
            Err(Failure::ClosedBeforeResponse) if reused => {
                self.retries += 1;
                self.try_request(method, path, body, traceparent)
                    .map_err(Failure::message)
            }
            other => other.map_err(Failure::message),
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        traceparent: Option<&str>,
    ) -> Result<Reply, Failure> {
        if self.conn.is_none() {
            let t = Instant::now();
            let s = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
            self.connect_ns.push(crate::measure::nanos(t));
            self.connects += 1;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(IO_TIMEOUT))
                .map_err(|e| e.to_string())?;
            s.set_write_timeout(Some(IO_TIMEOUT))
                .map_err(|e| e.to_string())?;
            self.conn = Some(s);
        }
        let stream = self.conn.as_mut().ok_or("no connection")?;
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        );
        if let Some(tp) = traceparent {
            req.push_str("traceparent: ");
            req.push_str(tp);
            req.push_str("\r\n");
        }
        req.push_str("\r\n");
        let mut out = req.into_bytes();
        out.extend_from_slice(body);
        let result = stream
            .write_all(&out)
            .map_err(|e| Failure::Other(format!("write: {e}")))
            .and_then(|()| read_response(stream));
        match result {
            Ok((reply, close)) => {
                if close {
                    if let Some(s) = self.conn.take() {
                        reset_on_close(&s);
                    }
                }
                Ok(reply)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// Reads one response; returns it and whether the server closes the
/// connection after it.
fn read_response(stream: &mut TcpStream) -> Result<(Reply, bool), Failure> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        if buf.len() > MAX_RESPONSE {
            return Err("response head too large".into());
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err(if buf.is_empty() {
                Failure::ClosedBeforeResponse
            } else {
                "connection closed mid-head".into()
            });
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let mut length = 0usize;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse().map_err(|_| "bad content-length")?;
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    if length > MAX_RESPONSE {
        return Err("response body too large".into());
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < length {
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-body".into());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(length);
    let bytes = head_end + 4 + length;
    Ok((
        Reply {
            status,
            body,
            bytes,
        },
        close,
    ))
}

/// Makes the coming close send RST instead of FIN, so neither side of the
/// loopback connection lingers in TIME_WAIT.
#[cfg(target_os = "linux")]
fn reset_on_close(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the descriptor belongs to `stream`, which outlives the call;
    // `linger` is a live, properly laid out `struct linger` and the length
    // passed is its size. A failure only leaves the default close.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn reset_on_close(_stream: &TcpStream) {}

/// Parses the `results` of a `/query` response body into `(id, distance
/// bits)` pairs. The server renders distances with Rust's shortest
/// round-trip formatting, so parsing recovers the exact bits.
pub fn parse_results(body: &[u8]) -> Option<Vec<(usize, u64)>> {
    let text = std::str::from_utf8(body).ok()?;
    let list = text.strip_prefix("{\"results\":[")?;
    let list = &list[..list.find(']')?];
    let mut out = Vec::new();
    for item in list.split('}').filter(|s| !s.is_empty()) {
        let item = item.trim_start_matches(',').strip_prefix("{\"id\":")?;
        let (id, dist) = item.split_once(",\"dist\":")?;
        out.push((id.parse().ok()?, dist.parse::<f64>().ok()?.to_bits()));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_query_results() {
        let body =
            br#"{"results":[{"id":3,"dist":0.25},{"id":17,"dist":1e-7}],"stats":{"candidates":2}}"#;
        let got = parse_results(body).expect("parse");
        assert_eq!(got, vec![(3, 0.25f64.to_bits()), (17, 1e-7f64.to_bits())]);
        assert!(parse_results(b"{\"error\":\"x\"}").is_none());
    }
}
