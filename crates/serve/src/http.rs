//! Minimal HTTP/1.1 framing: enough to carry the JSON wire protocol (request line /
//! status line, headers, `Content-Length` bodies, keep-alive) and nothing more.
//!
//! The core is [`HttpParser`], a resumable incremental parser: feed it whatever bytes
//! a socket produced, poll it for complete messages, and borrow the body as a
//! zero-copy slice into the parse buffer. The server's event loop
//! ([`crate::event_loop`]) drives it directly; the blocking [`MessageReader`] that
//! clients use ([`ServeClient`](crate::ServeClient), the gateway's backend calls) is
//! a thin loop over the same parser, so both ends frame messages identically by
//! construction.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use serde::json::JsonValue;

/// Largest accepted head (start line + headers) in bytes.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Consumed-prefix length above which the parse buffer is compacted between
/// messages (below it, the memmove costs more than the idle bytes).
const COMPACT_THRESHOLD: usize = 8 * 1024;

fn bad_data(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn is_timeout(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// `Connection` is a comma-separated token list (RFC 9112 §9.6): `close` counts
/// anywhere in the list of any `Connection` header, case-insensitively, with
/// optional whitespace around tokens — not only as the whole first header value.
fn connection_wants_close(headers: &[(String, String)]) -> bool {
    headers
        .iter()
        .filter(|(name, _)| name == "connection")
        .any(|(_, value)| {
            value
                .split(',')
                .any(|token| token.trim().eq_ignore_ascii_case("close"))
        })
}

fn split_request_parts(start_line: &str) -> io::Result<(&str, &str)> {
    let mut parts = start_line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some(method), Some(path)) => Ok((method, path)),
        _ => Err(bad_data("malformed request line")),
    }
}

fn parse_status_code(start_line: &str) -> io::Result<u16> {
    start_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad_data("malformed status line"))
}

/// One parsed HTTP message (request or response — the start line is kept verbatim).
#[derive(Debug, Clone)]
pub struct HttpMessage {
    /// The request line (`POST /v1/infer HTTP/1.1`) or status line (`HTTP/1.1 200 OK`).
    pub start_line: String,
    /// Header name/value pairs in arrival order (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// The body (empty when there was no `Content-Length`).
    pub body: Vec<u8>,
}

impl HttpMessage {
    /// First header value with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to close the connection after this message.
    /// Matches `close` as a token anywhere in the comma-separated `Connection`
    /// list (RFC 9112), across repeated `Connection` headers.
    pub fn wants_close(&self) -> bool {
        connection_wants_close(&self.headers)
    }

    /// Splits a request start line into `(method, path)`.
    pub fn request_parts(&self) -> io::Result<(&str, &str)> {
        split_request_parts(&self.start_line)
    }

    /// Parses the status code out of a response status line.
    pub fn status_code(&self) -> io::Result<u16> {
        parse_status_code(&self.start_line)
    }
}

/// The head of one HTTP message as parsed by [`HttpParser`]: start line, headers,
/// and the declared body length. The body itself stays in the parse buffer and is
/// borrowed via [`HttpParser::body`] — heads are small and owned, bodies (the f32
/// image payloads that dominate request bytes) are zero-copy.
#[derive(Debug, Clone)]
pub struct ParsedHead {
    /// The request line or status line, verbatim.
    pub start_line: String,
    /// Header name/value pairs in arrival order (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// Declared `Content-Length` (0 when absent).
    pub body_len: usize,
}

impl ParsedHead {
    /// First header value with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to close the connection after this message
    /// (`close` as a token anywhere in the `Connection` list, RFC 9112).
    pub fn wants_close(&self) -> bool {
        connection_wants_close(&self.headers)
    }

    /// Splits a request start line into `(method, path)`.
    pub fn request_parts(&self) -> io::Result<(&str, &str)> {
        split_request_parts(&self.start_line)
    }

    /// Parses the status code out of a response status line.
    pub fn status_code(&self) -> io::Result<u16> {
        parse_status_code(&self.start_line)
    }
}

/// What [`HttpParser::poll`] reports about the buffered bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseStatus {
    /// No complete message buffered yet; feed more bytes.
    NeedMore,
    /// A complete message is ready: inspect it via [`HttpParser::head`] and
    /// [`HttpParser::body`], then call [`HttpParser::advance`] (or
    /// [`HttpParser::take_message`]) to move past it.
    Message,
}

/// Resumable incremental HTTP/1.1 parser over an append-only byte buffer.
///
/// Feed raw socket bytes with [`feed`](Self::feed), then [`poll`](Self::poll)
/// until it reports a complete message. The head is parsed once (owned, small);
/// the body is a zero-copy slice into the buffer. [`advance`](Self::advance)
/// consumes the current message and compacts the buffer lazily, so pipelined
/// messages parse without re-copying and trickled heads parse in linear time:
/// the terminator scan resumes from a cursor (`len - 3`, to catch a terminator
/// straddling the previous chunk boundary) instead of rescanning from the start
/// of the head on every fill.
#[derive(Debug, Default)]
pub struct HttpParser {
    buf: Vec<u8>,
    /// Start of the current (possibly incomplete) message in `buf`.
    pos: usize,
    /// Where the `\r\n\r\n` scan resumes; always in `pos..=buf.len()`.
    scan: usize,
    /// Parsed head of the current message, once its terminator arrived.
    head: Option<ParsedHead>,
    /// Absolute index of the current message's body in `buf` (valid with `head`).
    body_start: usize,
}

impl HttpParser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw socket bytes to the parse buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet consumed by [`advance`](Self::advance).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the parser sits exactly between messages: no partial head or
    /// body buffered. EOF here is a clean close; EOF anywhere else is truncation.
    pub fn is_between_messages(&self) -> bool {
        self.head.is_none() && self.pos == self.buf.len()
    }

    /// True once the current message's head has been parsed (the parser is
    /// waiting on body bytes, or the message is complete).
    pub fn has_head(&self) -> bool {
        self.head.is_some()
    }

    /// Advances the state machine over the buffered bytes.
    ///
    /// Returns [`ParseStatus::Message`] when a complete message is buffered.
    /// Framing violations — oversized heads, a body over `max_body`, malformed
    /// or duplicate `Content-Length`, non-UTF-8 heads — are
    /// [`io::ErrorKind::InvalidData`] errors; the connection cannot be resynced
    /// after one and must be closed.
    pub fn poll(&mut self, max_body: usize) -> io::Result<ParseStatus> {
        if self.head.is_none() {
            let Some(head_end) = self.find_terminator() else {
                if self.buf.len() - self.pos > MAX_HEAD_BYTES {
                    return Err(bad_data("HTTP head exceeds 64 KiB"));
                }
                return Ok(ParseStatus::NeedMore);
            };
            if head_end - self.pos > MAX_HEAD_BYTES {
                return Err(bad_data("HTTP head exceeds 64 KiB"));
            }
            let head = parse_head(&self.buf[self.pos..head_end])?;
            if head.body_len > max_body {
                return Err(bad_data("body exceeds the configured maximum"));
            }
            self.body_start = head_end + 4;
            self.head = Some(head);
        }
        let head = self.head.as_ref().expect("head parsed above");
        if self.buf.len() - self.body_start >= head.body_len {
            Ok(ParseStatus::Message)
        } else {
            Ok(ParseStatus::NeedMore)
        }
    }

    /// Head of the completed message. Only valid after [`poll`](Self::poll)
    /// reported [`ParseStatus::Message`].
    pub fn head(&self) -> &ParsedHead {
        self.head.as_ref().expect("no complete message parsed")
    }

    /// Body of the completed message, borrowed zero-copy from the parse buffer.
    /// Only valid after [`poll`](Self::poll) reported [`ParseStatus::Message`].
    pub fn body(&self) -> &[u8] {
        let head = self.head.as_ref().expect("no complete message parsed");
        &self.buf[self.body_start..self.body_start + head.body_len]
    }

    /// Consumes the current message, keeping any pipelined bytes beyond it.
    pub fn advance(&mut self) {
        let head = self
            .head
            .take()
            .expect("no complete message to advance over");
        self.pos = self.body_start + head.body_len;
        self.scan = self.pos;
        self.compact();
    }

    /// Consumes the current message into an owned [`HttpMessage`] (the blocking
    /// [`MessageReader`] path, which hands bodies to callers by value).
    pub fn take_message(&mut self) -> HttpMessage {
        let head = self.head.take().expect("no complete message to take");
        let body = self.buf[self.body_start..self.body_start + head.body_len].to_vec();
        self.pos = self.body_start + head.body_len;
        self.scan = self.pos;
        self.compact();
        HttpMessage {
            start_line: head.start_line,
            headers: head.headers,
            body,
        }
    }

    /// Finds the `\r\n\r\n` terminating the current head, resuming from the
    /// scan cursor so repeated polls over a trickling head are linear, not
    /// quadratic. On a miss the cursor parks at `len - 3` — far enough back to
    /// catch a terminator split across the next chunk boundary.
    fn find_terminator(&mut self) -> Option<usize> {
        match self.buf[self.scan..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
        {
            Some(i) => Some(self.scan + i),
            None => {
                self.scan = self.buf.len().saturating_sub(3).max(self.pos);
                None
            }
        }
    }

    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            self.scan = 0;
        } else if self.pos >= COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.scan -= self.pos;
            self.pos = 0;
        }
    }
}

/// Parses one head (everything before the `\r\n\r\n` terminator) into a
/// [`ParsedHead`], enforcing the framing rules both ends share:
///
/// - `Content-Length` must be non-empty ASCII digits only — `parse::<usize>()`
///   alone would accept a leading `+` (`Content-Length: +5`), which peers can
///   disagree on (request-smuggling surface on pipelined keep-alive
///   connections).
/// - Duplicate `Content-Length` headers are rejected outright rather than
///   silently taking the first value, even when they agree.
fn parse_head(head_bytes: &[u8]) -> io::Result<ParsedHead> {
    let head = std::str::from_utf8(head_bytes).map_err(|_| bad_data("non-UTF-8 HTTP head"))?;
    let mut lines = head.split("\r\n");
    let start_line = lines
        .next()
        .filter(|l| !l.is_empty())
        .ok_or_else(|| bad_data("empty start line"))?
        .to_string();
    let mut headers = Vec::new();
    let mut body_len: Option<usize> = None;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad_data("malformed header line"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            if body_len.is_some() {
                return Err(bad_data("duplicate Content-Length"));
            }
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad_data("malformed Content-Length"));
            }
            body_len = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| bad_data("malformed Content-Length"))?,
            );
        }
        headers.push((name, value));
    }
    Ok(ParsedHead {
        start_line,
        headers,
        body_len: body_len.unwrap_or(0),
    })
}

/// Blocking reader for a sequence of HTTP messages on one connection — a thin
/// loop over [`HttpParser`], so the blocking client path and the readiness-driven
/// server path share one framing implementation.
///
/// Keeps the parser (and its rollover buffer) across calls so keep-alive
/// pipelining cannot lose bytes.
#[derive(Debug, Default)]
pub struct MessageReader {
    parser: HttpParser,
}

impl MessageReader {
    /// Creates a reader with an empty rollover buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no bytes of a next message have been buffered or parsed — a
    /// connection failure here provably consumed nothing of the awaited
    /// response, so a caller may safely resend on a fresh connection.
    pub fn is_between_messages(&self) -> bool {
        self.parser.is_between_messages()
    }

    /// Reads the next complete message.
    ///
    /// Returns `Ok(None)` on clean end-of-stream (EOF between messages). EOF in the
    /// middle of a message is an error. Each time a socket read times out (the
    /// stream's read timeout) `stop` is asked whether to give up: `true` returns
    /// `Ok(None)`, `false` keeps waiting. [`ServeClient`](crate::ServeClient) gives
    /// up at the first timeout and reports it as
    /// [`ClientError::TimedOut`](crate::ClientError::TimedOut); pass `&|| false` to
    /// wait through timeouts.
    pub fn read_message(
        &mut self,
        stream: &mut TcpStream,
        max_body: usize,
        stop: &dyn Fn() -> bool,
    ) -> io::Result<Option<HttpMessage>> {
        let mut chunk = [0u8; 4096];
        loop {
            // Poll before filling: pipelined bytes already buffered must parse
            // without waiting on the socket.
            if self.parser.poll(max_body)? == ParseStatus::Message {
                return Ok(Some(self.parser.take_message()));
            }
            match stream.read(&mut chunk) {
                Ok(0) => {
                    if self.parser.is_between_messages() {
                        return Ok(None);
                    }
                    let context = if self.parser.has_head() {
                        "EOF inside HTTP body"
                    } else {
                        "EOF inside HTTP head"
                    };
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, context));
                }
                Ok(n) => self.parser.feed(&chunk[..n]),
                Err(err) if is_timeout(&err) || err.kind() == io::ErrorKind::Interrupted => {
                    if stop() {
                        return Ok(None);
                    }
                }
                Err(err) => return Err(err),
            }
        }
    }
}

/// Instants bracketing the serialize and socket-write stages of one response,
/// handed to [`RouteResponse::on_written`] so handlers can attribute the tail of a
/// request's latency (and close its trace) after the bytes actually hit the wire.
#[derive(Debug, Clone, Copy)]
pub struct WriteReport {
    /// When `body.to_json()` started.
    pub serialize_start: Instant,
    /// When the socket write started (serialization done).
    pub write_start: Instant,
    /// When the write finished (successfully or not).
    pub done: Instant,
}

impl WriteReport {
    /// Microseconds spent serializing the body to JSON text.
    pub fn serialize_us(&self) -> u64 {
        self.write_start
            .saturating_duration_since(self.serialize_start)
            .as_micros() as u64
    }

    /// Microseconds spent writing the response to the socket.
    pub fn write_us(&self) -> u64 {
        self.done
            .saturating_duration_since(self.write_start)
            .as_micros() as u64
    }
}

/// What a route handler returns: the status and JSON body, plus optional response
/// plumbing (a `Retry-After` header on 503s, a completion callback that observes
/// the serialize/write timings).
pub struct RouteResponse {
    /// HTTP status code.
    pub status: u16,
    /// JSON response body.
    pub body: JsonValue,
    /// Pre-rendered non-JSON body as `(content_type, text)`. When set, it is
    /// written verbatim instead of serializing [`body`](Self::body) — the
    /// Prometheus text exposition (`/metrics?format=prometheus`) rides this.
    pub text_body: Option<(&'static str, String)>,
    /// `Retry-After` header value in seconds, when set.
    pub retry_after: Option<u64>,
    /// Invoked once after the response write completes (even a failed write), with
    /// the measured serialize/write instants — the hook where per-request traces
    /// record their final spans and are handed to the tracer.
    pub on_written: Option<Box<dyn FnOnce(WriteReport) + Send>>,
}

impl std::fmt::Debug for RouteResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteResponse")
            .field("status", &self.status)
            .field("retry_after", &self.retry_after)
            .field("on_written", &self.on_written.is_some())
            .finish_non_exhaustive()
    }
}

impl RouteResponse {
    /// A plain response with no extra headers or completion hook.
    pub fn new(status: u16, body: JsonValue) -> Self {
        Self {
            status,
            body,
            text_body: None,
            retry_after: None,
            on_written: None,
        }
    }

    /// A pre-rendered text response with an explicit content type — the JSON
    /// body is left `Null` and never serialized.
    pub fn text(status: u16, content_type: &'static str, body: String) -> Self {
        Self {
            status,
            body: JsonValue::Null,
            text_body: Some((content_type, body)),
            retry_after: None,
            on_written: None,
        }
    }

    /// Sets the `Retry-After` header (seconds); `None` leaves it absent.
    pub fn with_retry_after(mut self, secs: Option<u64>) -> Self {
        self.retry_after = secs;
        self
    }

    /// Sets the post-write completion callback.
    pub fn with_on_written(mut self, hook: impl FnOnce(WriteReport) + Send + 'static) -> Self {
        self.on_written = Some(Box::new(hook));
        self
    }
}

/// One response encoded to wire bytes, with the write-stage failpoints already
/// applied. The event loop encodes every response through this on its own
/// thread, so a chaos spec scoped to that thread (`@serve-conn-<port>`) hits
/// exactly one server's writes.
pub struct EncodedResponse {
    /// The complete head + body wire bytes.
    pub bytes: Vec<u8>,
    /// Chaos: when set, only this many bytes may be written, after which the
    /// connection must be failed/closed — the peer sees a truncated response
    /// and EOF, never a short-but-parseable one.
    pub fail_after: Option<usize>,
}

/// Encodes one JSON response (status line, headers, body) to wire bytes.
///
/// Carries the write-side chaos sites: `serve-write-stall` (a `sleep(ms)` spec
/// stalls here, simulating a backend that computed the answer but cannot get it
/// onto the wire in time), `serve-write-corrupt` (flips the leading body bytes
/// to 0xFF — invalid UTF-8, so a corrupted response can never parse as
/// valid-but-wrong JSON downstream), and `serve-write-partial` (truncates the
/// write mid-body via [`EncodedResponse::fail_after`] — the peer sees EOF
/// mid-message and must treat the response as lost, not short).
pub fn encode_response(
    status: u16,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> EncodedResponse {
    encode_response_typed(status, body, keep_alive, extra_headers, "application/json")
}

/// [`encode_response`] with an explicit `Content-Type` — the Prometheus text
/// exposition (`text/plain; version=0.0.4`) rides this; everything else stays
/// on the JSON default.
pub fn encode_response_typed(
    status: u16,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, String)],
    content_type: &str,
) -> EncodedResponse {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Status",
    };
    failpoint::fire("serve-write-stall");
    let corrupted: Vec<u8>;
    let body = if failpoint::fire("serve-write-corrupt") {
        let mut bytes = body.to_vec();
        for byte in bytes.iter_mut().take(8) {
            *byte = 0xFF;
        }
        corrupted = bytes;
        &corrupted[..]
    } else {
        body
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let fail_after = if failpoint::fire("serve-write-partial") {
        Some(head.len() + body.len() / 2)
    } else {
        None
    };
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body);
    EncodedResponse { bytes, fail_after }
}

fn write_encoded(stream: &mut TcpStream, encoded: &EncodedResponse) -> io::Result<()> {
    match encoded.fail_after {
        Some(limit) => {
            stream.write_all(&encoded.bytes[..limit])?;
            let _ = stream.flush();
            Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "failpoint: partial response write",
            ))
        }
        None => {
            stream.write_all(&encoded.bytes)?;
            stream.flush()
        }
    }
}

/// Writes one JSON response with the given status.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    write_response_with_headers(stream, status, body, keep_alive, &[])
}

/// Writes one JSON response with additional headers (e.g. `Retry-After` on 503s).
pub fn write_response_with_headers(
    stream: &mut TcpStream,
    status: u16,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> io::Result<()> {
    write_encoded(
        stream,
        &encode_response(status, body, keep_alive, extra_headers),
    )
}

/// Writes one JSON request (keep-alive).
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<()> {
    write_request_typed(stream, method, path, body, "application/json")
}

/// Writes one keep-alive request with an explicit `Content-Type` — the binary
/// image encoding ([`crate::protocol::BINARY_CONTENT_TYPE`]) rides this.
pub fn write_request_typed(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
    content_type: &str,
) -> io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: vitality-serve\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// `Content-Type` of the Prometheus text exposition format.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Whether a raw query string selects the Prometheus text exposition
/// (`?format=prometheus` as an exact key/value pair, position-independent).
pub fn wants_prometheus(query: &str) -> bool {
    query.split('&').any(|pair| pair == "format=prometheus")
}

/// Parses `limit=N` out of a raw query string (`None` when absent or malformed).
pub fn query_limit(query: &str) -> Option<usize> {
    query
        .split('&')
        .find_map(|pair| pair.strip_prefix("limit="))
        .and_then(|raw| raw.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(payload: &[Vec<u8>]) -> Vec<HttpMessage> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let payload: Vec<Vec<u8>> = payload.to_vec();
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for chunk in &payload {
                stream.write_all(chunk).unwrap();
            }
        });
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = MessageReader::new();
        let mut messages = Vec::new();
        while let Some(msg) = reader
            .read_message(&mut stream, 1 << 20, &|| false)
            .unwrap()
        {
            messages.push(msg);
        }
        writer.join().unwrap();
        messages
    }

    #[test]
    fn parses_pipelined_messages_across_arbitrary_chunk_boundaries() {
        let wire = b"POST /v1/infer HTTP/1.1\r\nContent-Length: 5\r\nX-A: b\r\n\r\nhelloGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec();
        // Split the wire bytes into pathological 3-byte chunks.
        let chunks: Vec<Vec<u8>> = wire.chunks(3).map(<[u8]>::to_vec).collect();
        let messages = roundtrip(&chunks);
        assert_eq!(messages.len(), 2);
        assert_eq!(messages[0].request_parts().unwrap(), ("POST", "/v1/infer"));
        assert_eq!(messages[0].body, b"hello");
        assert_eq!(messages[0].header("x-a"), Some("b"));
        assert!(!messages[0].wants_close());
        assert_eq!(messages[1].request_parts().unwrap(), ("GET", "/healthz"));
        assert!(messages[1].body.is_empty());
        assert!(messages[1].wants_close());
    }

    #[test]
    fn oversized_bodies_are_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(b"POST /x HTTP/1.1\r\nContent-Length: 999999\r\n\r\n")
                .unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let err = MessageReader::new()
            .read_message(&mut stream, 1024, &|| false)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        writer.join().unwrap();
    }

    #[test]
    fn status_lines_parse() {
        let msg = HttpMessage {
            start_line: "HTTP/1.1 503 Service Unavailable".into(),
            headers: vec![],
            body: vec![],
        };
        assert_eq!(msg.status_code().unwrap(), 503);
        assert!(HttpMessage {
            start_line: "garbage".into(),
            headers: vec![],
            body: vec![],
        }
        .status_code()
        .is_err());
    }

    fn parse_one(wire: &[u8]) -> io::Result<HttpMessage> {
        let mut parser = HttpParser::new();
        parser.feed(wire);
        match parser.poll(1 << 20)? {
            ParseStatus::Message => Ok(parser.take_message()),
            ParseStatus::NeedMore => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "incomplete message in test fixture",
            )),
        }
    }

    #[test]
    fn content_length_with_leading_plus_is_a_framing_error() {
        let err = parse_one(b"POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = parse_one(b"POST /x HTTP/1.1\r\nContent-Length: 5 \r\n\r\nhello");
        assert!(err.is_ok(), "trailing OWS is trimmed before validation");
    }

    #[test]
    fn duplicate_content_length_is_a_framing_error_even_when_values_agree() {
        let err =
            parse_one(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err =
            parse_one(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!")
                .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn connection_close_matches_as_a_token_in_a_list() {
        let msg = parse_one(b"GET / HTTP/1.1\r\nConnection: keep-alive, Close\r\n\r\n").unwrap();
        assert!(msg.wants_close());
        let msg = parse_one(b"GET / HTTP/1.1\r\nConnection: closet\r\n\r\n").unwrap();
        assert!(
            !msg.wants_close(),
            "substring of another token is not close"
        );
        let msg =
            parse_one(b"GET / HTTP/1.1\r\nConnection: keep-alive\r\nConnection: close\r\n\r\n")
                .unwrap();
        assert!(msg.wants_close(), "close in a repeated Connection header");
    }

    #[test]
    fn trickled_heads_resume_from_the_scan_cursor() {
        // Feed a large head one byte at a time; the cursor keeps each poll O(1)
        // amortised. (The behavioural assertion is correctness — the complexity
        // claim is pinned by the differential suite's timing-free construction.)
        let mut wire = b"POST /v1/infer HTTP/1.1\r\n".to_vec();
        for i in 0..100 {
            wire.extend_from_slice(format!("X-Filler-{i}: {}\r\n", "v".repeat(100)).as_bytes());
        }
        wire.extend_from_slice(b"Content-Length: 3\r\n\r\nabc");
        let mut parser = HttpParser::new();
        for byte in &wire {
            parser.feed(std::slice::from_ref(byte));
            if parser.poll(1 << 20).unwrap() == ParseStatus::Message {
                break;
            }
        }
        assert_eq!(parser.poll(1 << 20).unwrap(), ParseStatus::Message);
        assert_eq!(parser.body(), b"abc");
        assert_eq!(
            parser.head().header("x-filler-0"),
            Some("v".repeat(100).as_str())
        );
        parser.advance();
        assert!(parser.is_between_messages());
    }

    #[test]
    fn zero_copy_bodies_and_pipelining_via_advance() {
        let mut parser = HttpParser::new();
        parser.feed(b"POST /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nfirstPOST /b HTTP/1.1\r\nContent-Length: 6\r\n\r\nsecond");
        assert_eq!(parser.poll(1 << 20).unwrap(), ParseStatus::Message);
        assert_eq!(parser.body(), b"first");
        assert_eq!(parser.head().request_parts().unwrap(), ("POST", "/a"));
        parser.advance();
        assert_eq!(parser.poll(1 << 20).unwrap(), ParseStatus::Message);
        assert_eq!(parser.body(), b"second");
        parser.advance();
        assert!(parser.is_between_messages());
        assert_eq!(parser.poll(1 << 20).unwrap(), ParseStatus::NeedMore);
    }
}
