//! A tiny std-only blocking HTTP/1.1 client, sized for the E2E tests
//! and the CLI's `stats --server` view. One connection per request: it
//! sends `Connection: close` and reads the response to end of stream,
//! although the server would keep the connection for a client that
//! asks. Optional retry + exponential backoff on `429`/`503` honors
//! `Retry-After`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A response as the client sees it.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Lower-cased `name: value` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy — error payloads are always ASCII JSON).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Client errors: transport failures and malformed responses. Status
/// codes are *not* errors — callers branch on [`Response::status`].
#[derive(Debug)]
pub enum ClientError {
    /// Connect/read/write failure (including timeouts).
    Io(std::io::Error),
    /// The server spoke something that isn't HTTP/1.1.
    BadResponse(&'static str),
    /// Every retry was exhausted; holds the last response (for `429`/
    /// `503` give-ups) or the last transport error.
    RetriesExhausted(Box<RetryGiveUp>),
}

/// What the final failed attempt looked like.
#[derive(Debug)]
pub enum RetryGiveUp {
    Status(Response),
    Io(std::io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::BadResponse(w) => write!(f, "bad response: {w}"),
            ClientError::RetriesExhausted(g) => match g.as_ref() {
                RetryGiveUp::Status(r) => write!(f, "retries exhausted, last status {}", r.status),
                RetryGiveUp::Io(e) => write!(f, "retries exhausted, last error: {e}"),
            },
        }
    }
}

impl std::error::Error for ClientError {}

/// Blocking HTTP client pinned to one `host:port` authority.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    /// Per-socket read/write timeout.
    pub timeout: Duration,
    /// Max attempts for [`Client::request_with_retry`] (1 = no retry).
    pub max_attempts: u32,
    /// First backoff sleep; doubles per retry. `Retry-After` (seconds)
    /// overrides it when larger, capped at 2 s to keep tests fast.
    pub base_backoff: Duration,
}

impl Client {
    /// A client for `addr` (`"127.0.0.1:8321"`).
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            timeout: Duration::from_secs(10),
            max_attempts: 6,
            base_backoff: Duration::from_millis(25),
        }
    }

    /// The authority this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One request, no retries. `body` is sent verbatim with
    /// `Content-Type: application/json`.
    pub fn request(&self, method: &str, path: &str, body: &[u8]) -> Result<Response, ClientError> {
        let mut stream = TcpStream::connect(&self.addr).map_err(ClientError::Io)?;
        stream
            .set_read_timeout(Some(self.timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.timeout)))
            .map_err(ClientError::Io)?;
        // W3C trace-context propagation: when the calling thread is
        // inside a sampled trace, forward its context so the server
        // continues the same trace (and records it, sampled flag set).
        let traceparent = nncell_obs::trace::current()
            .map(|ctx| format!("traceparent: {}\r\n", ctx.to_traceparent()))
            .unwrap_or_default();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{traceparent}Connection: close\r\n\r\n",
            self.addr,
            body.len()
        );
        stream.write_all(head.as_bytes()).map_err(ClientError::Io)?;
        stream.write_all(body).map_err(ClientError::Io)?;
        stream.flush().map_err(ClientError::Io)?;

        // `Connection: close` makes the server close after this one
        // response: read to EOF, then parse.
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).map_err(ClientError::Io)?;
        parse_response(&raw)
    }

    /// Convenience `GET`.
    pub fn get(&self, path: &str) -> Result<Response, ClientError> {
        self.request("GET", path, b"")
    }

    /// Convenience `POST` with a JSON body.
    pub fn post(&self, path: &str, body: &str) -> Result<Response, ClientError> {
        self.request("POST", path, body.as_bytes())
    }

    /// A request retried with exponential backoff on `429`, `503`, and
    /// transport errors (the server may be mid-restart). Any other
    /// status returns immediately. Only safe for idempotent requests —
    /// queries and reads always, writes only when the caller dedups.
    pub fn request_with_retry(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<Response, ClientError> {
        let mut backoff = self.base_backoff;
        let mut last: Option<RetryGiveUp> = None;
        for attempt in 0..self.max_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff.min(Duration::from_secs(2)));
                backoff *= 2;
            }
            match self.request(method, path, body) {
                Ok(resp) if resp.status == 429 || resp.status == 503 => {
                    // Honor Retry-After when it asks for longer than the
                    // current backoff.
                    if let Some(s) = resp
                        .header("retry-after")
                        .and_then(|v| v.parse::<u64>().ok())
                    {
                        backoff = backoff.max(Duration::from_secs(s));
                    }
                    last = Some(RetryGiveUp::Status(resp));
                }
                Ok(resp) => return Ok(resp),
                Err(ClientError::Io(e)) => last = Some(RetryGiveUp::Io(e)),
                Err(e) => return Err(e),
            }
        }
        match last {
            Some(g) => Err(ClientError::RetriesExhausted(Box::new(g))),
            None => Err(ClientError::BadResponse("no attempts made")),
        }
    }
}

fn parse_response(raw: &[u8]) -> Result<Response, ClientError> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(ClientError::BadResponse("no header terminator"))?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| ClientError::BadResponse("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(ClientError::BadResponse("bad status line"))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        if let Some((n, v)) = line.split_once(':') {
            let n = n.trim().to_ascii_lowercase();
            let v = v.trim().to_string();
            if n == "content-length" {
                content_length = v.parse().ok();
            }
            headers.push((n, v));
        }
    }
    let body_start = head_end + 4;
    let mut body = raw[body_start.min(raw.len())..].to_vec();
    if let Some(n) = content_length {
        body.truncate(n);
    }
    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_response_bytes() {
        let raw =
            b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\nContent-Length: 2\r\n\r\nhi";
        let r = parse_response(raw).expect("parse");
        assert_eq!(r.status, 429);
        assert_eq!(r.header("retry-after"), Some("1"));
        assert_eq!(r.header("Retry-After"), Some("1"));
        assert_eq!(r.text(), "hi");
        assert!(parse_response(b"garbage").is_err());
    }
}
