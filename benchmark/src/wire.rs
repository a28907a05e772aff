//! The load generator's connection: requests written and replies read through the
//! serving crate's own public framing (`http::write_request_typed`,
//! `http::MessageReader`) and protocol functions, pipelined on one socket. Replies
//! come back in request order, so reply `k` answers request `k`.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use serde::json::JsonValue;
use vitality_serve::http::{write_request_typed, MessageReader};
use vitality_serve::protocol::{self, InferOptions, BINARY_CONTENT_TYPE};
use vitality_serve::InferReply;
use vitality_tensor::Matrix;

/// Largest reply body accepted (traced replies carry span lists).
const MAX_REPLY_BYTES: usize = 4 << 20;

/// A reply that has not arrived after this long fails the op instead of hanging the run.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// Request body encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    Json,
    Binary,
}

impl Encoding {
    pub fn content_type(self) -> &'static str {
        match self {
            Encoding::Json => "application/json",
            Encoding::Binary => BINARY_CONTENT_TYPE,
        }
    }

    /// Encodes one `POST /v1/infer` body.
    pub fn encode(self, model: &str, image: &Matrix, opts: &InferOptions<'_>) -> Vec<u8> {
        match self {
            Encoding::Json => protocol::infer_request_json_opts(model, image, opts)
                .to_json()
                .into_bytes(),
            Encoding::Binary => protocol::encode_binary_infer(model, image, opts),
        }
    }
}

/// A successfully parsed 200 reply.
#[derive(Debug, Clone)]
pub struct Reply {
    pub infer: InferReply,
    /// The gateway's `cached` field (`false` from an engine, which has no cache).
    pub cached: bool,
    /// The gateway's `degraded` field (brownout downgraded the tier).
    pub degraded: bool,
    /// In-band server spans, present when the request set `"trace": true`.
    pub spans: Option<Vec<trace::Span>>,
}

/// The two halves of reading one reply, timed apart in traced runs.
pub struct RawReply {
    status: u16,
    body: Vec<u8>,
}

impl RawReply {
    /// Parses the body; a non-200 status or a malformed body is a failure.
    pub fn decode(&self) -> Result<Reply, String> {
        let text = std::str::from_utf8(&self.body).map_err(|_| "non-UTF-8 reply body")?;
        let json = serde::json::parse(text).map_err(|e| format!("invalid reply JSON: {e}"))?;
        if self.status != 200 {
            let detail = protocol::parse_error(&json).map_or_else(
                || "no error body".to_string(),
                |(code, msg)| format!("{code}: {msg}"),
            );
            return Err(format!("status {} ({detail})", self.status));
        }
        Ok(Reply {
            infer: protocol::parse_infer_reply(&json)?,
            cached: json
                .get("cached")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            degraded: json
                .get("degraded")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            spans: protocol::parse_reply_trace(&json),
        })
    }
}

/// The reading half of a connection.
pub struct ReplyReader {
    stream: TcpStream,
    reader: MessageReader,
}

impl ReplyReader {
    /// Blocks for the next reply. A short read, EOF, framing error or timeout is an
    /// error; the connection carries nothing further after one.
    pub fn read(&mut self) -> io::Result<RawReply> {
        let message = self
            .reader
            .read_message(&mut self.stream, MAX_REPLY_BYTES, &|| true)?
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed or timed out before a reply arrived",
                )
            })?;
        Ok(RawReply {
            status: message.status_code()?,
            body: message.body,
        })
    }
}

/// The writing half of a connection.
pub struct RequestWriter {
    stream: TcpStream,
}

impl RequestWriter {
    /// Writes one `POST /v1/infer` request.
    pub fn send(&mut self, body: &[u8], encoding: Encoding) -> io::Result<()> {
        write_request_typed(
            &mut self.stream,
            "POST",
            "/v1/infer",
            body,
            encoding.content_type(),
        )
    }
}

/// Opens one keep-alive connection and splits it into its two halves (they may live
/// on different threads: the open loop writes on schedule while replies are read).
pub fn connect(addr: SocketAddr) -> io::Result<(RequestWriter, ReplyReader)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let read_half = stream.try_clone()?;
    Ok((
        RequestWriter { stream },
        ReplyReader {
            stream: read_half,
            reader: MessageReader::new(),
        },
    ))
}

/// One body-less `GET` (for `/metrics` and `/healthz`) on a fresh connection.
pub fn get_json(addr: SocketAddr, path: &str) -> Result<JsonValue, String> {
    let mut client = vitality_serve::ServeClient::connect(addr).map_err(|e| e.to_string())?;
    client
        .set_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    match client.get(path) {
        Ok((200, body)) => Ok(body),
        Ok((status, _)) => Err(format!("GET {path} answered {status}")),
        Err(e) => Err(format!("GET {path} failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A stub peer: accepts one connection, swallows request bytes, and writes the
    /// given raw bytes back.
    fn stub(raw: Vec<u8>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut sink = [0u8; 4096];
            let _ = stream.read(&mut sink);
            stream.write_all(&raw).unwrap();
        });
        (addr, handle)
    }

    fn reply_body(prediction: usize) -> String {
        protocol::infer_reply_json(&InferReply {
            model: "vit196:taylor".into(),
            prediction,
            logits: vec![0.0, 1.0],
            batch_size: 1,
            queue_us: 5,
        })
        .to_json()
    }

    fn http(status: u16, body: &str) -> Vec<u8> {
        vitality_serve::http::encode_response(status, body.as_bytes(), true, &[]).bytes
    }

    #[test]
    fn pipelined_replies_pair_with_requests_in_order() {
        let mut raw = http(200, &reply_body(1));
        raw.extend(http(200, &reply_body(2)));
        raw.extend(http(200, &reply_body(3)));
        let (addr, peer) = stub(raw);
        let (mut writer, mut reader) = connect(addr).unwrap();
        for _ in 0..3 {
            writer.send(b"{}", Encoding::Json).unwrap();
        }
        for expected in 1..=3 {
            let reply = reader.read().unwrap().decode().unwrap();
            assert_eq!(reply.infer.prediction, expected);
            assert!(!reply.cached && !reply.degraded && reply.spans.is_none());
        }
        peer.join().unwrap();
    }

    #[test]
    fn a_non_200_reply_is_a_failure() {
        let body = protocol::error_body("overloaded", "queue full").to_json();
        let (addr, peer) = stub(http(503, &body));
        let (mut writer, mut reader) = connect(addr).unwrap();
        writer.send(b"{}", Encoding::Json).unwrap();
        let err = reader.read().unwrap().decode().unwrap_err();
        assert!(err.contains("503") && err.contains("overloaded"), "{err}");
        peer.join().unwrap();
    }

    #[test]
    fn a_short_read_is_a_failure() {
        let mut raw = http(200, &reply_body(1));
        raw.truncate(raw.len() - 5);
        let (addr, peer) = stub(raw);
        let (mut writer, mut reader) = connect(addr).unwrap();
        writer.send(b"{}", Encoding::Json).unwrap();
        peer.join().unwrap();
        assert!(reader.read().is_err(), "EOF inside the body must not parse");
    }

    #[test]
    fn gateway_fields_and_inband_spans_are_read() {
        let mut json = serde::json::parse(&reply_body(4)).unwrap();
        json.set("cached", true).set("degraded", true).set(
            "trace",
            trace::spans_json(&[trace::Span {
                name: "compute".into(),
                detail: "taylor".into(),
                start_us: 3,
                dur_us: 40,
                parent: None,
            }]),
        );
        let (addr, peer) = stub(http(200, &json.to_json()));
        let (mut writer, mut reader) = connect(addr).unwrap();
        writer.send(b"{}", Encoding::Json).unwrap();
        let reply = reader.read().unwrap().decode().unwrap();
        assert!(reply.cached && reply.degraded);
        assert_eq!(reply.spans.unwrap()[0].dur_us, 40);
        peer.join().unwrap();
    }
}
