//! A minimal blocking HTTP/1.1 JSON client.
//!
//! Not a general client — just enough to talk to this server over a
//! keep-alive connection, shared by the integration tests, the ledger's
//! serve workloads, and the runnable example. Responses are
//! parsed eagerly into a [`jsonkit::Value`] (every endpoint speaks JSON).

use jsonkit::Value;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Response headers, lowercase-named, in wire order.
pub type Headers = Vec<(String, String)>;

/// A keep-alive connection to the server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    carry: Vec<u8>,
    api_key: Option<String>,
}

impl Client {
    /// Connects with a generous read timeout (compile requests may
    /// legitimately block for their whole deadline).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(180)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            carry: Vec::new(),
            api_key: None,
        })
    }

    /// Attaches a tenant API key, sent as `x-api-key` on every
    /// subsequent request from this connection.
    #[must_use]
    pub fn with_api_key(mut self, key: &str) -> Client {
        self.api_key = Some(key.to_string());
        self
    }

    /// Sends one request (with `Content-Length`, even when empty) and
    /// reads the JSON response.
    ///
    /// # Errors
    ///
    /// Transport failures, or `InvalidData` when the response is not
    /// well-formed HTTP carrying JSON.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, Value)> {
        let (status, text) = self.request_text(method, path, body)?;
        let value = jsonkit::parse(&text)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response body is not JSON"))?;
        Ok((status, value))
    }

    /// As [`request`](Client::request), but returns the raw body text —
    /// for endpoints that don't speak JSON (the Prometheus `/metrics`
    /// exposition).
    ///
    /// # Errors
    ///
    /// Transport failures, or `InvalidData` on malformed HTTP.
    pub fn request_text(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let body = body.unwrap_or_default();
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: fermihedral\r\nContent-Length: {}\r\n",
            body.len()
        );
        if let Some(key) = &self.api_key {
            head.push_str(&format!("x-api-key: {key}\r\n"));
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.read_response_text()
    }

    /// As [`request`](Client::request), but sends caller-supplied extra
    /// headers and returns the response headers alongside the JSON body —
    /// for tests that assert on `x-request-id` echoing.
    ///
    /// # Errors
    ///
    /// Transport failures, or `InvalidData` when the response is not
    /// well-formed HTTP carrying JSON.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> io::Result<(u16, Headers, Value)> {
        let body = body.unwrap_or_default();
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: fermihedral\r\nContent-Length: {}\r\n",
            body.len()
        );
        if let Some(key) = &self.api_key {
            head.push_str(&format!("x-api-key: {key}\r\n"));
        }
        for (name, value) in extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        let (status, headers, text) = self.read_response()?;
        let value = jsonkit::parse(&text)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response body is not JSON"))?;
        Ok((status, headers, value))
    }

    /// Writes raw bytes (malformed-request tests) and reads the response.
    ///
    /// # Errors
    ///
    /// As [`request`](Client::request).
    pub fn raw(&mut self, bytes: &[u8]) -> io::Result<(u16, Value)> {
        self.stream.write_all(bytes)?;
        let (status, text) = self.read_response_text()?;
        let value = jsonkit::parse(&text)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response body is not JSON"))?;
        Ok((status, value))
    }

    fn read_response_text(&mut self) -> io::Result<(u16, String)> {
        let (status, _headers, text) = self.read_response()?;
        Ok((status, text))
    }

    fn read_response(&mut self) -> io::Result<(u16, Headers, String)> {
        let bad = |why: &str| io::Error::new(io::ErrorKind::InvalidData, why.to_string());
        let head_end = loop {
            if let Some(p) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let mut buf = [0u8; 4096];
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(bad("connection closed mid-response"));
            }
            self.carry.extend_from_slice(&buf[..n]);
        };
        let head = String::from_utf8(self.carry[..head_end].to_vec())
            .map_err(|_| bad("non-UTF-8 response head"))?;
        let status: u16 = head
            .lines()
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let headers: Vec<(String, String)> = head
            .lines()
            .skip(1)
            .filter_map(|l| {
                let (name, value) = l.split_once(':')?;
                Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
            })
            .collect();
        let content_length: usize = headers
            .iter()
            .find_map(|(name, value)| (name == "content-length").then(|| value.parse().ok())?)
            .ok_or_else(|| bad("missing Content-Length"))?;
        let body_start = head_end + 4;
        while self.carry.len() < body_start + content_length {
            let mut buf = [0u8; 4096];
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(bad("connection closed mid-body"));
            }
            self.carry.extend_from_slice(&buf[..n]);
        }
        let body = self.carry[body_start..body_start + content_length].to_vec();
        self.carry.drain(..body_start + content_length);
        let text = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?;
        Ok((status, headers, text))
    }
}
