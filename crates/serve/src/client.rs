//! A small blocking keep-alive client for the serving wire protocol, used by the
//! examples, the integration tests and the cluster gateway's backend calls.

use std::cell::Cell;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use serde::json::JsonValue;

use crate::batcher::InferReply;
use crate::http::{write_request_typed, MessageReader};
use crate::protocol;
use vitality_tensor::Matrix;

/// Largest response body the client accepts.
const MAX_RESPONSE_BYTES: usize = 16 * 1024 * 1024;

/// Client-side failure modes.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The peer answered, but not with the expected shape.
    Protocol(String),
    /// The configured read timeout expired before a response arrived.
    ///
    /// Carried as its own variant (with the limit that expired) rather than an opaque
    /// error string so a retrying caller can tell "the backend is alive but slow"
    /// (cool it down, try another) from "the connection died" (eject it).
    TimedOut {
        /// The read-timeout the client was configured with when it expired.
        limit: Duration,
    },
    /// The server answered with a typed error body.
    Server {
        /// HTTP status of the error response.
        status: u16,
        /// Machine-readable error code (`overloaded`, `bad_request`, ...).
        code: String,
        /// Human-readable message.
        message: String,
        /// The response's `Retry-After` header in seconds, when the server sent one
        /// (the 503 backpressure responses do) — the back-off hint a retry budget
        /// should honour.
        retry_after: Option<u64>,
        /// The `request_id` echoed on the error body, when present — what a caller
        /// quotes to correlate this failure with server-side logs and traces.
        request_id: Option<String>,
    },
}

impl ClientError {
    /// The `Retry-After` back-off hint, when the failure carried one.
    pub fn retry_after_secs(&self) -> Option<u64> {
        match self {
            ClientError::Server { retry_after, .. } => *retry_after,
            _ => None,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::TimedOut { limit } => {
                write!(
                    f,
                    "read timed out after {limit:?} before a response arrived"
                )
            }
            ClientError::Server {
                status,
                code,
                message,
                ..
            } => write!(f, "server error {status} ({code}): {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A successful inference reply plus its observability envelope (see
/// [`ServeClient::infer_detailed`]).
#[derive(Debug, Clone)]
pub struct InferResponse {
    /// The inference result.
    pub reply: InferReply,
    /// The `request_id` the server echoed (always present for current servers;
    /// `Option` keeps older peers parseable).
    pub request_id: Option<String>,
    /// Server-side spans, when the request set `"trace": true`.
    pub trace: Option<Vec<trace::Span>>,
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One keep-alive connection to a serving engine.
///
/// Requests are strictly sequential per connection (send one, read its response);
/// drive concurrency by opening one client per thread.
///
/// # Stale keep-alive connections
///
/// A server may close an idle keep-alive connection between two calls (restart, idle
/// reaper, engine replacement behind a stable address). When a call on a *previously
/// used* connection fails because the peer closed it — a broken/reset write, or a
/// clean EOF where the response should have started — the client transparently
/// reconnects once and resends the request instead of surfacing an I/O error. The
/// retry happens only when no response bytes were consumed (an error *mid-response*
/// is never retried), so a response is never half-read and then re-requested; a
/// failure on the fresh connection (or on a never-used one) is reported to the
/// caller as usual. Read *timeouts* are not retried: with
/// [`ServeClient::set_timeout`] configured, the first expiry still terminates the
/// round trip, keeping the timeout an actual bound.
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    reader: MessageReader,
    addr: SocketAddr,
    read_timeout: Option<Duration>,
    /// Whether this connection has completed at least one round trip (only then is a
    /// peer-closed failure interpreted as a stale keep-alive connection).
    used: bool,
    /// Set when a failure leaves the connection desynchronised — a read timeout or
    /// an error mid-response means a (late) response may still be in flight, and
    /// reusing the stream could hand request N the response to request N-1. The
    /// next call reconnects first instead of reading poisoned bytes.
    poisoned: bool,
    /// Send infer requests in the binary image encoding (see
    /// [`protocol::BINARY_CONTENT_TYPE`]). Off by default; switch it on only after
    /// the server advertised `"binary"` under `"encodings"` on `/healthz`.
    binary: bool,
}

/// How one send/receive attempt failed, split by whether a reconnect may help.
enum AttemptError {
    /// The peer closed a previously working connection before answering: safe to
    /// reconnect and resend.
    Stale(ClientError),
    /// Any other failure: surfaced to the caller as-is.
    Fatal(ClientError),
}

impl AttemptError {
    fn into_inner(self) -> ClientError {
        match self {
            AttemptError::Stale(e) | AttemptError::Fatal(e) => e,
        }
    }
}

fn is_disconnect(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotConnected
    )
}

impl ServeClient {
    /// Connects to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream,
            reader: MessageReader::new(),
            addr,
            read_timeout: None,
            used: false,
            poisoned: false,
            binary: false,
        })
    }

    /// The address this client is connected to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sets (or clears) the per-read socket timeout.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        self.stream.set_read_timeout(timeout)
    }

    /// Switches infer requests to (or back from) the binary image encoding.
    ///
    /// Negotiated, not assumed: turn this on only for servers that advertise
    /// `"binary"` in the `"encodings"` list of their `/healthz` body — a server
    /// that does not understand the encoding answers it with a 400. See
    /// [`protocol::BINARY_CONTENT_TYPE`] for the wire layout and a worked example.
    pub fn set_binary(&mut self, enabled: bool) {
        self.binary = enabled;
    }

    /// Whether infer requests currently use the binary image encoding.
    pub fn binary(&self) -> bool {
        self.binary
    }

    /// Runs one inference round trip against `POST /v1/infer` with no optional
    /// request field set (see [`ServeClient::infer_detailed`] for tier, deadline,
    /// request id and trace).
    pub fn infer(&mut self, model: &str, image: &Matrix) -> Result<InferReply, ClientError> {
        self.infer_detailed(model, image, &protocol::InferOptions::default())
            .map(|response| response.reply)
    }

    /// Runs one inference round trip with the full [`InferOptions`] bundle and
    /// returns the reply together with its observability envelope: the echoed
    /// `request_id` and — when [`InferOptions::trace`] asked for them — the
    /// server-side spans embedded in the reply.
    ///
    /// [`InferOptions`]: protocol::InferOptions
    /// [`InferOptions::trace`]: protocol::InferOptions::trace
    pub fn infer_detailed(
        &mut self,
        model: &str,
        image: &Matrix,
        opts: &protocol::InferOptions<'_>,
    ) -> Result<InferResponse, ClientError> {
        let (body, content_type) = if self.binary {
            (
                protocol::encode_binary_infer(model, image, opts),
                protocol::BINARY_CONTENT_TYPE,
            )
        } else {
            (
                protocol::infer_request_json_opts(model, image, opts)
                    .to_json()
                    .into_bytes(),
                "application/json",
            )
        };
        let (status, json, retry_after) =
            self.round_trip("POST", "/v1/infer", &body, content_type)?;
        if status != 200 {
            return Err(Self::server_error(status, &json, retry_after));
        }
        let reply =
            protocol::parse_infer_reply(&json).map_err(|e| ClientError::Protocol(e.to_string()))?;
        Ok(InferResponse {
            reply,
            request_id: protocol::parse_reply_request_id(&json),
            trace: protocol::parse_reply_trace(&json),
        })
    }

    /// Issues a body-less `GET` (for `/healthz` and `/metrics`) and returns the parsed
    /// JSON body with its status.
    pub fn get(&mut self, path: &str) -> Result<(u16, JsonValue), ClientError> {
        let (status, json, _) = self.round_trip("GET", path, b"", "application/json")?;
        Ok((status, json))
    }

    fn round_trip(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        content_type: &str,
    ) -> Result<(u16, JsonValue, Option<u64>), ClientError> {
        if self.poisoned {
            // A previous call left bytes (or a late response) possibly in flight on
            // this connection; a fresh one is the only way to keep request/response
            // pairing sound.
            self.reconnect()?;
        }
        match self.attempt(method, path, body, content_type) {
            Ok(ok) => Ok(ok),
            Err(AttemptError::Stale(cause)) if self.used => {
                // The keep-alive connection went stale between calls; reconnect once
                // and resend. A second failure is real and keeps the fresh attempt's
                // error (the original cause is the stale close, already acted on).
                self.reconnect().map_err(|_| cause)?;
                self.attempt(method, path, body, content_type)
                    .map_err(AttemptError::into_inner)
            }
            Err(err) => Err(err.into_inner()),
        }
    }

    fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(self.read_timeout)?;
        self.stream = stream;
        self.reader = MessageReader::new();
        self.used = false;
        self.poisoned = false;
        Ok(())
    }

    /// One send/receive attempt on the current connection.
    fn attempt(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        content_type: &str,
    ) -> Result<(u16, JsonValue, Option<u64>), AttemptError> {
        if let Err(e) = write_request_typed(&mut self.stream, method, path, body, content_type) {
            // Whatever the kind, a failed write leaves the connection unusable
            // (possibly half a request on the wire); if no retry resolves it, the
            // next call must start from a fresh connection.
            self.poisoned = true;
            return Err(if is_disconnect(e.kind()) {
                AttemptError::Stale(ClientError::Io(e))
            } else {
                AttemptError::Fatal(ClientError::Io(e))
            });
        }
        // The reader consults `stop` only when a socket read times out, so the flag
        // distinguishes "read timed out" (first expiry terminates the round trip —
        // that is what makes the timeout API actually bound reads) from "peer closed
        // the connection" (a `None` without any timeout having fired).
        let timed_out = Cell::new(false);
        let stop = || {
            timed_out.set(true);
            true
        };
        let response = match self
            .reader
            .read_message(&mut self.stream, MAX_RESPONSE_BYTES, &stop)
        {
            Ok(Some(response)) => response,
            Ok(None) => {
                // Timed out or peer-closed: either way a (late) response may still
                // arrive on this connection, so it must not carry another request.
                self.poisoned = true;
                return Err(if timed_out.get() {
                    AttemptError::Fatal(ClientError::TimedOut {
                        limit: self.read_timeout.unwrap_or_default(),
                    })
                } else {
                    AttemptError::Stale(ClientError::Protocol(
                        "connection closed before a response arrived".into(),
                    ))
                });
            }
            Err(e) => {
                // A read error with response bytes already consumed — an EOF or
                // reset mid-head/mid-body — is never retried: resending could
                // execute the request twice with the first answer partially
                // read. But a disconnect before *any* response byte arrived is
                // the same stale keep-alive close as a clean EOF, just surfaced
                // as ECONNRESET because the peer's RST beat our read (e.g. the
                // resent request hitting the already-closed socket); nothing
                // was consumed, so a resend on a fresh connection is safe.
                // Either way the desynchronised connection is never reused.
                self.poisoned = true;
                return Err(
                    if is_disconnect(e.kind()) && self.reader.is_between_messages() {
                        AttemptError::Stale(ClientError::Io(e))
                    } else {
                        AttemptError::Fatal(ClientError::Io(e))
                    },
                );
            }
        };
        let status = response
            .status_code()
            .map_err(|e| AttemptError::Fatal(ClientError::Protocol(e.to_string())))?;
        let retry_after = response
            .header("retry-after")
            .and_then(|v| v.parse::<u64>().ok());
        let text = std::str::from_utf8(&response.body).map_err(|_| {
            AttemptError::Fatal(ClientError::Protocol("non-UTF-8 response body".into()))
        })?;
        let json = serde::json::parse(text).map_err(|e| {
            AttemptError::Fatal(ClientError::Protocol(format!("invalid response JSON: {e}")))
        })?;
        self.used = true;
        Ok((status, json, retry_after))
    }

    fn server_error(status: u16, body: &JsonValue, retry_after: Option<u64>) -> ClientError {
        match protocol::parse_error(body) {
            Some((code, message)) => ClientError::Server {
                status,
                code,
                message,
                retry_after,
                request_id: protocol::parse_reply_request_id(body),
            },
            None => ClientError::Protocol(format!("status {status} without an error body")),
        }
    }
}
