//! A deliberately small HTTP/1.1 implementation — just enough for the
//! lab's JSON API, with zero dependencies.
//!
//! Supported: request line + headers + `Content-Length` bodies, and
//! responses with a fixed header set. Not supported (and not needed):
//! chunked encoding, keep-alive (every response closes the connection),
//! TLS, continuation lines. Oversized requests are rejected early so a
//! misbehaving client cannot balloon server memory.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Max bytes of headers we accept (guards the line reader).
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Max request body we accept.
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Max response body the client accepts: far above any artifact the lab
/// serves, far below what a bad server could make the client allocate.
const MAX_RESPONSE_BODY_BYTES: usize = 64 * 1024 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, `PUT`, ...
    pub method: String,
    /// Path component only (no query parsing — the API doesn't use
    /// queries).
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Read and parse one request from the stream. `Err` strings are
/// protocol-level problems; the caller answers 400 and closes.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    // Every line, the request line included, draws on one header budget,
    // and no read may run past what is left of it: a client that never
    // sends a newline costs at most `MAX_HEADER_BYTES`.
    let mut budget = MAX_HEADER_BYTES;
    let line = read_line(&mut reader, &mut budget, "request line")?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("request line lacks a target")?;
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    loop {
        let header = read_line(&mut reader, &mut budget, "header")?;
        let trimmed = header.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| "bad Content-Length".to_string())?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err("body too large".into());
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    Ok(Request { method, path, body })
}

/// Read one line of at most `budget` bytes and take its length from the
/// budget. A line that does not fit is an error once `budget + 1` bytes
/// have arrived, without waiting for its end.
fn read_line(reader: &mut impl BufRead, budget: &mut usize, what: &str) -> Result<String, String> {
    let mut line = String::new();
    let n = reader
        .take(*budget as u64 + 1)
        .read_line(&mut line)
        .map_err(|e| format!("read {what}: {e}"))?;
    if n > *budget {
        return Err("headers too large".into());
    }
    *budget -= n;
    Ok(line)
}

/// Write a response and flush. Extra headers are `(name, value)` pairs
/// (used for `X-Pdc-Cache` / `X-Pdc-Job` observability headers).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(String, String)],
    body: &[u8],
) {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // The client may already be gone; nothing useful to do about it.
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body);
    let _ = stream.flush();
}

/// Convenience: a JSON response.
pub fn json(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(String, String)],
    body: &str,
) {
    write_response(
        stream,
        status,
        reason,
        "application/json",
        extra_headers,
        body.as_bytes(),
    );
}

/// A client-side response (see [`request`]).
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response headers, lower-cased names.
    pub headers: Vec<(String, String)>,
    /// Body as UTF-8 (the API only speaks JSON).
    pub body: String,
}

impl Response {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Minimal blocking client — one request, one response, connection
/// closed. Used by the load generator and the end-to-end tests; the
/// server always answers with `Connection: close`, so reading to the
/// advertised `Content-Length` (or EOF) is complete.
///
/// The response is read under the same limits the server applies to
/// requests: the status line and headers share one `MAX_HEADER_BYTES`
/// budget, and a body over `MAX_RESPONSE_BODY_BYTES` — advertised or
/// streamed — is an error, not an allocation.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<Response, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let _ = stream.set_nodelay(true);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: lab\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|_| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;

    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEADER_BYTES;
    let status_line = read_line(&mut reader, &mut budget, "status")?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line: {status_line:?}"))?;

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let line = read_line(&mut reader, &mut budget, "header")?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().ok();
            }
            headers.push((name, value));
        }
    }
    let mut raw = Vec::new();
    match content_length {
        Some(n) if n > MAX_RESPONSE_BODY_BYTES => return Err("response body too large".into()),
        Some(n) => {
            raw.resize(n, 0);
            reader
                .read_exact(&mut raw)
                .map_err(|e| format!("read body: {e}"))?;
        }
        None => {
            reader
                .take(MAX_RESPONSE_BODY_BYTES as u64 + 1)
                .read_to_end(&mut raw)
                .map_err(|e| format!("read body: {e}"))?;
            if raw.len() > MAX_RESPONSE_BODY_BYTES {
                return Err("response body too large".into());
            }
        }
    }
    let body = String::from_utf8(raw).map_err(|_| "body is not UTF-8".to_string())?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Convenience: a JSON error document `{"error": "..."}`.
pub fn error(stream: &mut TcpStream, status: u16, reason: &str, message: &str) {
    error_with(stream, status, reason, &[], message);
}

/// [`error`] with extra response headers (e.g. the `X-Pdc-*` set).
pub fn error_with(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(String, String)],
    message: &str,
) {
    let escaped = message
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    json(
        stream,
        status,
        reason,
        extra_headers,
        &format!("{{\"error\":\"{escaped}\"}}"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Shutdown, TcpListener};

    #[test]
    fn a_line_without_a_newline_is_cut_off_at_the_header_limit() {
        const SENT: usize = 4 * MAX_HEADER_BYTES;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let client = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).expect("connect");
            // The server stops reading and closes early; later writes may fail.
            let _ = conn.write_all(&[b'a'; SENT]);
            let _ = conn.shutdown(Shutdown::Write);
        });
        let (mut conn, _) = listener.accept().expect("accept");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let err = read_request(&mut conn).expect_err("an endless request line is refused");
        assert_eq!(err, "headers too large");
        // The reader stopped at the limit (plus at most one buffer fill)
        // instead of buffering the whole line.
        let mut rest = Vec::new();
        let _ = conn.read_to_end(&mut rest);
        assert!(
            rest.len() >= SENT - 2 * MAX_HEADER_BYTES,
            "the server consumed {} of {SENT} bytes",
            SENT - rest.len()
        );
        client.join().expect("client thread");
    }

    /// Serve one connection with `reply` (after reading the request
    /// head), and report how many reply bytes the client accepted before
    /// it hung up.
    fn fake_server(
        reply: impl FnOnce(&mut TcpStream) -> usize + Send + 'static,
    ) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            read_request(&mut conn).expect("client request");
            conn.set_write_timeout(Some(Duration::from_secs(10)))
                .expect("write timeout");
            reply(&mut conn)
        });
        (addr, server)
    }

    /// Write `chunk` until the client stops reading or `limit` bytes are
    /// out; returns the bytes written.
    fn stream_until_refused(conn: &mut TcpStream, chunk: &[u8], limit: usize) -> usize {
        let mut sent = 0;
        while sent < limit && conn.write_all(chunk).is_ok() {
            sent += chunk.len();
        }
        sent
    }

    #[test]
    fn the_client_refuses_a_status_line_without_a_newline() {
        // Far more than loopback socket buffers hold, so the server can
        // only get it all out if the client keeps reading.
        const LIMIT: usize = MAX_RESPONSE_BODY_BYTES;
        let (addr, server) = fake_server(|conn| stream_until_refused(conn, &[b'H'; 4096], LIMIT));
        let err = request(addr, "GET", "/healthz", "", Duration::from_secs(10))
            .expect_err("an endless status line is refused");
        assert_eq!(err, "headers too large");
        let sent = server.join().expect("server thread");
        assert!(sent < LIMIT, "the client kept reading all {sent} bytes");
    }

    #[test]
    fn the_client_refuses_an_advertised_body_over_the_cap() {
        let (addr, server) = fake_server(|conn| {
            let head =
                "HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\nConnection: close\r\n\r\n";
            conn.write_all(head.as_bytes()).expect("write head");
            stream_until_refused(conn, &[b'x'; 4096], 4 * MAX_RESPONSE_BODY_BYTES)
        });
        let err = request(addr, "GET", "/healthz", "", Duration::from_secs(10))
            .expect_err("a 1 TiB body is refused");
        assert_eq!(err, "response body too large");
        let sent = server.join().expect("server thread");
        assert!(
            sent < MAX_RESPONSE_BODY_BYTES,
            "the client read {sent} body bytes before refusing"
        );
    }

    #[test]
    fn the_client_caps_a_body_without_a_length() {
        let (addr, server) = fake_server(|conn| {
            conn.write_all(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n")
                .expect("write head");
            stream_until_refused(conn, &[b'x'; 64 * 1024], 2 * MAX_RESPONSE_BODY_BYTES)
        });
        let err = request(addr, "GET", "/healthz", "", Duration::from_secs(10))
            .expect_err("an endless body is refused");
        assert_eq!(err, "response body too large");
        let sent = server.join().expect("server thread");
        assert!(
            sent < 2 * MAX_RESPONSE_BODY_BYTES,
            "the client read all {sent} bytes"
        );
    }

    #[test]
    fn the_client_reads_a_well_formed_response() {
        let (addr, server) = fake_server(|conn| {
            let reply =
                b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\nX-Pdc-Cache: hit\r\n\r\n{\"ok\":true}";
            conn.write_all(reply).expect("write reply");
            reply.len()
        });
        let resp = request(addr, "GET", "/healthz", "", Duration::from_secs(10)).expect("reply");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-pdc-cache"), Some("hit"));
        assert_eq!(resp.body, "{\"ok\":true}");
        server.join().expect("server thread");
    }
}
