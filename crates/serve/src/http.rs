//! Hand-rolled HTTP/1.1 for the compilation server.
//!
//! The container has no async runtime and no HTTP crates, so this module
//! implements the slice the server needs over blocking `TcpStream`s:
//! request-line + header parsing, `Content-Length` bodies, keep-alive, and
//! response writing. It is deliberately strict — the server sits on a
//! network port, so anything out of contract maps to a 4xx/5xx instead of
//! a guess.
//!
//! Reads run under a short socket read timeout; a timeout with no request
//! bytes pending surfaces as [`ReadError::IdleTick`], which the connection
//! loop uses to poll the server's shutdown flag between requests without
//! dedicating a wakeup mechanism per connection.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Maximum accepted size of the request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Budget for receiving one complete request once its first byte arrived
/// (slow-loris guard).
pub const REQUEST_READ_BUDGET: Duration = Duration::from_secs(10);

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method token (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path, query string stripped.
    pub path: String,
    /// The raw query string (without the `?`), when one was sent.
    pub query: Option<String>,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The `Content-Length` body (empty when none was sent).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a (lower-case) header name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the query string contains the exact `key=value` pair
    /// (`&`-separated; no percent-decoding — the server's own query
    /// parameters never need it).
    pub fn query_has(&self, key: &str, value: &str) -> bool {
        self.query.as_deref().is_some_and(|q| {
            q.split('&')
                .any(|pair| pair.split_once('=') == Some((key, value)))
        })
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// Clean EOF between requests (client closed a keep-alive connection).
    Closed,
    /// Socket read timeout with no request bytes pending — poll shutdown
    /// and call again; the connection state is preserved.
    IdleTick,
    /// The client started a request but did not finish it within
    /// [`REQUEST_READ_BUDGET`] → 408.
    SlowClient,
    /// Request line + headers exceeded [`MAX_HEAD_BYTES`] → 431.
    HeadersTooLarge,
    /// Declared body exceeds the server's limit → 413.
    BodyTooLarge {
        /// The server's limit, echoed in the error body.
        limit: usize,
    },
    /// A body-carrying method without `Content-Length` → 411.
    LengthRequired,
    /// A protocol feature this server does not speak → 501.
    Unsupported(&'static str),
    /// Anything else out of contract → 400.
    Malformed(String),
    /// Transport failure; the connection is dead.
    Io(std::io::Error),
}

impl ReadError {
    /// The response this error maps to, when one can still be sent.
    pub fn response(&self) -> Option<Response> {
        match self {
            ReadError::Closed | ReadError::IdleTick | ReadError::Io(_) => None,
            ReadError::SlowClient => Some(Response::error(408, "request read timed out")),
            ReadError::HeadersTooLarge => Some(Response::error(431, "request head too large")),
            ReadError::BodyTooLarge { limit } => Some(Response::error(
                413,
                &format!("body exceeds the {limit}-byte limit"),
            )),
            ReadError::LengthRequired => Some(Response::error(411, "Content-Length required")),
            ReadError::Unsupported(what) => {
                Some(Response::error(501, &format!("{what} not supported")))
            }
            ReadError::Malformed(why) => Some(Response::error(400, &format!("bad request: {why}"))),
        }
    }
}

/// A connection wrapper carrying read-ahead bytes between requests
/// (pipelined keep-alive requests over-read into `carry`).
///
/// Generic over the transport so the parser is property-testable against
/// in-memory streams (`tests/http_fuzz.rs`); production code always uses
/// the `TcpStream` default.
#[derive(Debug)]
pub struct HttpConn<S: Read + Write = TcpStream> {
    stream: S,
    carry: Vec<u8>,
    /// Set when the first byte of an in-progress request arrived.
    reading_since: Option<Instant>,
}

impl<S: Read + Write> HttpConn<S> {
    /// Wraps a connected stream (the caller configures socket timeouts).
    pub fn new(stream: S) -> HttpConn<S> {
        HttpConn {
            stream,
            carry: Vec::new(),
            reading_since: None,
        }
    }

    /// The underlying transport — property tests inspect the bytes an
    /// in-memory stream captured.
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// Reads one request, honoring `max_body`.
    ///
    /// # Errors
    ///
    /// See [`ReadError`]; [`ReadError::IdleTick`] is retryable.
    pub fn read_request(&mut self, max_body: usize) -> Result<Request, ReadError> {
        // ---- Head -----------------------------------------------------
        let head_end = loop {
            if let Some(p) = find_subslice(&self.carry, b"\r\n\r\n") {
                break p;
            }
            if self.carry.len() > MAX_HEAD_BYTES {
                return Err(ReadError::HeadersTooLarge);
            }
            self.fill()?;
        };

        let head = std::str::from_utf8(&self.carry[..head_end])
            .map_err(|_| ReadError::Malformed("non-UTF-8 request head".into()))?
            .to_string();
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split(' ');
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => {
                    (m.to_uppercase(), t.to_string(), v.to_string())
                }
                _ => {
                    return Err(ReadError::Malformed(format!(
                        "bad request line {request_line:?}"
                    )))
                }
            };
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(ReadError::Unsupported("HTTP version"));
        }

        let mut headers = Vec::new();
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(ReadError::Malformed(format!("bad header line {line:?}")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }

        let header = |name: &str| {
            headers
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        if header("transfer-encoding").is_some() {
            return Err(ReadError::Unsupported("Transfer-Encoding"));
        }
        // Conflicting Content-Length values are a request-smuggling vector
        // (RFC 9112 §6.3): reject duplicates outright rather than picking
        // one.
        if headers
            .iter()
            .filter(|(k, _)| k == "content-length")
            .count()
            > 1
        {
            return Err(ReadError::Malformed("duplicate Content-Length".into()));
        }
        let content_length = match header("content-length") {
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| ReadError::Malformed(format!("bad Content-Length {v:?}")))?,
            None if method == "POST" || method == "PUT" || method == "PATCH" => {
                return Err(ReadError::LengthRequired)
            }
            None => 0,
        };
        if content_length > max_body {
            return Err(ReadError::BodyTooLarge { limit: max_body });
        }

        // ---- Body -----------------------------------------------------
        let body_start = head_end + 4;
        while self.carry.len() < body_start + content_length {
            self.fill()?;
        }
        let body = self.carry[body_start..body_start + content_length].to_vec();
        self.carry.drain(..body_start + content_length);
        self.reading_since = None;

        let keep_alive = match header("connection").map(str::to_ascii_lowercase) {
            Some(c) if c == "close" => false,
            Some(c) if c == "keep-alive" => true,
            _ => version == "HTTP/1.1",
        };
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), Some(q.to_string())),
            None => (target, None),
        };

        Ok(Request {
            method,
            path,
            query,
            headers,
            body,
            keep_alive,
        })
    }

    /// One socket read into the carry buffer, translating timeouts.
    fn fill(&mut self) -> Result<(), ReadError> {
        let mut buf = [0u8; 4096];
        match self.stream.read(&mut buf) {
            Ok(0) => {
                if self.carry.is_empty() {
                    Err(ReadError::Closed)
                } else {
                    Err(ReadError::Malformed("truncated request".into()))
                }
            }
            Ok(n) => {
                if self.reading_since.is_none() {
                    self.reading_since = Some(Instant::now());
                }
                self.carry.extend_from_slice(&buf[..n]);
                Ok(())
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                match self.reading_since {
                    None => Err(ReadError::IdleTick),
                    Some(t) if t.elapsed() > REQUEST_READ_BUDGET => Err(ReadError::SlowClient),
                    Some(_) => Ok(()), // partial request: keep reading
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(ReadError::Io(e)),
        }
    }

    /// Writes a response.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (the connection is then dead).
    pub fn write_response(&mut self, response: &Response) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            response.status,
            status_text(response.status),
            response.content_type,
            response.body.len(),
            if response.keep_alive {
                "keep-alive"
            } else {
                "close"
            },
        );
        if let Some(secs) = response.retry_after {
            head.push_str(&format!("Retry-After: {secs}\r\n"));
        }
        if let Some(allow) = response.allow {
            head.push_str(&format!("Allow: {allow}\r\n"));
        }
        for (name, value) in &response.extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(&response.body)?;
        self.stream.flush()
    }
}

/// One response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Whether the server intends to keep the connection open. Defaults to
    /// `true`; the connection loop clears it when the request asked for
    /// `close` or the server is shutting down.
    pub keep_alive: bool,
    /// Optional `Retry-After` seconds (load shedding).
    pub retry_after: Option<u32>,
    /// Optional `Allow` header (405 responses).
    pub allow: Option<&'static str>,
    /// Additional headers appended verbatim (`x-request-id`, …). Names
    /// and values must already be header-safe; the server only puts its
    /// own sanitized values here.
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, value: &jsonkit::Value) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: value.to_json().into_bytes(),
            keep_alive: true,
            retry_after: None,
            allow: None,
            extra_headers: Vec::new(),
        }
    }

    /// A plain-text response (Prometheus exposition uses the versioned
    /// text content type).
    pub fn text(status: u16, content_type: &'static str, body: String) -> Response {
        Response {
            status,
            content_type,
            body: body.into_bytes(),
            keep_alive: true,
            retry_after: None,
            allow: None,
            extra_headers: Vec::new(),
        }
    }

    /// A JSON error body `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            &jsonkit::obj([("error", jsonkit::Value::Str(message.to_string()))]),
        )
    }

    /// Adds a `Retry-After` header (builder style).
    pub fn with_retry_after(mut self, secs: u32) -> Response {
        self.retry_after = Some(secs);
        self
    }

    /// Adds an `Allow` header (builder style).
    pub fn with_allow(mut self, allow: &'static str) -> Response {
        self.allow = Some(allow);
        self
    }
}

/// Reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_texts_cover_the_emitted_codes() {
        for code in [
            200, 400, 401, 404, 405, 408, 411, 413, 429, 431, 500, 501, 503,
        ] {
            assert_ne!(status_text(code), "Response", "missing text for {code}");
        }
    }

    #[test]
    fn subslice_finder() {
        assert_eq!(find_subslice(b"abcd\r\n\r\nef", b"\r\n\r\n"), Some(4));
        assert_eq!(find_subslice(b"abcd", b"\r\n\r\n"), None);
        assert_eq!(find_subslice(b"", b"x"), None);
    }
}
