//! The JSON wire protocol: one place where inference requests, replies and errors are
//! built and parsed, shared by the server and [`ServeClient`](crate::ServeClient) so
//! the two ends cannot drift.
//!
//! Shapes:
//!
//! * request — `{"model": "name:variant", "image": [[f32, ...], ...]}`, optionally
//!   with `"tier": "latency" | "accuracy"` — a routing hint the cluster gateway uses
//!   to rewrite the variant half of the model key (an engine serving exact keys
//!   ignores it) — and optionally `"deadline_ms": n` — the *remaining* time budget
//!   the caller is still willing to wait (relative, so it survives clock skew
//!   between hops; each hop forwards what is left of the budget, and an engine
//!   sheds the request with a 504 once it expires)
//! * reply — `{"model": ..., "prediction": k, "logits": [...], "batch_size": b,
//!   "queue_us": t}`
//! * error — `{"error": {"code": "overloaded", "message": "..."}}`
//!
//! Two more optional request fields ride along for observability, carried exactly
//! like `deadline_ms`: `"request_id"` — an opaque correlation id generated at the
//! first hop and echoed on *every* reply body, success or error, so a client can
//! quote it when reporting a failure — and `"trace": true`, which asks the server
//! to record per-stage spans for this request and embed them in the reply's
//! `"trace"` field (how a gateway collects engine-side spans into its own tree).
//!
//! Both hops decode a request through [`InferEnvelope::decode`] — one pass over
//! either encoding (JSON body or binary frame) yielding every field, or the typed
//! error plus whatever `request_id` the client sent.

use serde::json::JsonValue;

use crate::batcher::InferReply;
use crate::error::{ServeError, WireError};
use vitality_tensor::Matrix;

/// Every optional `POST /v1/infer` field in one place, so adding a field does not
/// grow another request constructor.
#[derive(Debug, Clone, Copy, Default)]
pub struct InferOptions<'a> {
    /// Routing-tier hint (`"latency"` / `"accuracy"`), consumed by the gateway.
    pub tier: Option<&'a str>,
    /// Remaining deadline budget in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Correlation id to propagate; `None` lets the first hop generate one.
    pub request_id: Option<&'a str>,
    /// Ask the server to record spans and embed them in the reply's `"trace"`.
    pub trace: bool,
}

/// Builds a `POST /v1/infer` body from an [`InferOptions`] bundle.
pub fn infer_request_json_opts(model: &str, image: &Matrix, opts: &InferOptions<'_>) -> JsonValue {
    let rows: Vec<JsonValue> = (0..image.rows())
        .map(|r| JsonValue::from(image.row(r).to_vec()))
        .collect();
    let mut body = JsonValue::object();
    body.set("model", model).set("image", rows);
    if let Some(tier) = opts.tier {
        body.set("tier", tier);
    }
    if let Some(budget) = opts.deadline_ms {
        body.set("deadline_ms", budget as usize);
    }
    if let Some(id) = opts.request_id {
        body.set("request_id", id);
    }
    if opts.trace {
        body.set("trace", true);
    }
    body
}

/// Largest accepted `"request_id"` — long enough for any reasonable correlation
/// scheme, short enough that ids cannot smuggle payloads into logs and traces.
pub const MAX_REQUEST_ID_LEN: usize = 64;

/// One decoded `POST /v1/infer` request — every field of the wire envelope, from
/// either encoding. The engine and the gateway both decode through
/// [`InferEnvelope::decode`], so the two hops validate a request identically.
#[derive(Debug, Clone, PartialEq)]
pub struct InferEnvelope {
    /// The client's correlation id; `None` lets this hop mint one.
    pub request_id: Option<String>,
    /// Whether the client asked for the span list back in the reply.
    pub trace: bool,
    /// The `name:variant` model key.
    pub model: String,
    /// The input image (every pixel finite).
    pub image: Matrix,
    /// The routing-tier hint, unvalidated: which tier names exist and what variant
    /// each maps to is the gateway's routing policy, not a wire-protocol concern.
    pub tier: Option<String>,
    /// Remaining deadline budget in milliseconds. `0` is valid — "already expired",
    /// shed at admission with a 504.
    pub deadline_ms: Option<u64>,
}

/// Why a request body did not decode, and whose request it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvelopeError {
    /// The typed failure (always a [`ServeError::BadRequest`]).
    pub error: ServeError,
    /// The client's `request_id`, whenever that field itself parsed — so a 400 for
    /// any *other* field still echoes the id the client will quote.
    pub request_id: Option<String>,
}

impl InferEnvelope {
    /// Decodes a request body by its negotiated encoding — the binary image
    /// encoding when `content_type` names [`BINARY_CONTENT_TYPE`], the JSON shape
    /// otherwise. The body is parsed once and the image is built once.
    pub fn decode(body: &[u8], content_type: Option<&str>) -> Result<Self, EnvelopeError> {
        let anonymous = |error| EnvelopeError {
            error,
            request_id: None,
        };
        let binary = content_type
            .and_then(|t| t.split(';').next())
            .is_some_and(|t| t.trim().eq_ignore_ascii_case(BINARY_CONTENT_TYPE));
        let (meta, binary_image) = if binary {
            let (meta, image) = decode_binary_infer(body).map_err(anonymous)?;
            (meta, Some(image))
        } else {
            let meta = std::str::from_utf8(body)
                .map_err(|_| ServeError::BadRequest("body is not UTF-8".into()))
                .and_then(|text| {
                    serde::json::parse(text)
                        .map_err(|e| ServeError::BadRequest(format!("invalid JSON: {e}")))
                })
                .map_err(anonymous)?;
            (meta, None)
        };
        // The id is read first so that every later failure can carry it out.
        let request_id = request_id_field(&meta).map_err(anonymous)?;
        let rest = || -> Result<Self, ServeError> {
            let trace = optional_field(&meta, "trace", "a boolean", JsonValue::as_bool)?;
            let (model, image) = match binary_image {
                // Binary path: the image arrived outside the metadata object.
                Some(image) => (model_field(&meta)?, image),
                None => parse_infer_request(&meta)?,
            };
            let tier = optional_field(&meta, "tier", "a string", JsonValue::as_str)?;
            let deadline_ms = optional_field(
                &meta,
                "deadline_ms",
                "a non-negative integer",
                JsonValue::as_usize,
            )?;
            Ok(Self {
                request_id: None,
                trace: trace.unwrap_or(false),
                model,
                image,
                tier: tier.map(str::to_string),
                deadline_ms: deadline_ms.map(|ms| ms as u64),
            })
        };
        match rest() {
            Ok(envelope) => Ok(Self {
                request_id,
                ..envelope
            }),
            Err(error) => Err(EnvelopeError { error, request_id }),
        }
    }
}

/// An optional envelope field: absent is `None`, present but of the wrong type is
/// a [`ServeError::BadRequest`] naming the field and the type it `must be`.
fn optional_field<'a, T>(
    meta: &'a JsonValue,
    name: &str,
    must_be: &str,
    read: impl FnOnce(&'a JsonValue) -> Option<T>,
) -> Result<Option<T>, ServeError> {
    match meta.get(name) {
        None => Ok(None),
        Some(value) => read(value)
            .map(Some)
            .ok_or_else(|| ServeError::BadRequest(format!("\"{name}\" must be {must_be}"))),
    }
}

/// The optional `"request_id"`: a string of 1..=[`MAX_REQUEST_ID_LEN`] bytes.
fn request_id_field(meta: &JsonValue) -> Result<Option<String>, ServeError> {
    match optional_field(meta, "request_id", "a string", JsonValue::as_str)? {
        Some(id) if id.is_empty() || id.len() > MAX_REQUEST_ID_LEN => Err(ServeError::BadRequest(
            format!("\"request_id\" must be 1..={MAX_REQUEST_ID_LEN} bytes"),
        )),
        id => Ok(id.map(str::to_string)),
    }
}

/// The required `"model"` key.
fn model_field(meta: &JsonValue) -> Result<String, ServeError> {
    meta.get("model")
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| ServeError::BadRequest("missing string field \"model\"".into()))
}

/// Reads the `"request_id"` echo off any reply body (success or error).
pub fn parse_reply_request_id(body: &JsonValue) -> Option<String> {
    body.get("request_id")
        .and_then(JsonValue::as_str)
        .map(str::to_string)
}

/// Reads the embedded `"trace"` span list off a success reply body, when the
/// request asked for one.
pub fn parse_reply_trace(body: &JsonValue) -> Option<Vec<trace::Span>> {
    body.get("trace").and_then(trace::spans_from_json)
}

/// Parses a `POST /v1/infer` body into its model key and image.
pub fn parse_infer_request(body: &JsonValue) -> Result<(String, Matrix), ServeError> {
    let model = model_field(body)?;
    let rows = body
        .get("image")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| ServeError::BadRequest("missing array field \"image\"".into()))?;
    if rows.is_empty() {
        return Err(ServeError::BadRequest("\"image\" must be non-empty".into()));
    }
    let mut data: Vec<Vec<f32>> = Vec::with_capacity(rows.len());
    for (r, row) in rows.iter().enumerate() {
        let cells = row
            .as_array()
            .ok_or_else(|| ServeError::BadRequest(format!("image row {r} is not an array")))?;
        let mut out = Vec::with_capacity(cells.len());
        for (c, cell) in cells.iter().enumerate() {
            let v = cell.as_f64().ok_or_else(|| {
                ServeError::BadRequest(format!("image[{r}][{c}] is not a number"))
            })?;
            // Validate after narrowing: a finite f64 beyond f32 range would become
            // an infinite pixel and poison the whole batch with NaN logits.
            let v = v as f32;
            if !v.is_finite() {
                return Err(ServeError::BadRequest(format!(
                    "image[{r}][{c}] is not finite in f32"
                )));
            }
            out.push(v);
        }
        data.push(out);
    }
    let image = Matrix::from_rows(&data)
        .map_err(|e| ServeError::BadRequest(format!("ragged image: {e}")))?;
    Ok((model, image))
}

/// Builds the success body for an answered inference request.
pub fn infer_reply_json(reply: &InferReply) -> JsonValue {
    let mut body = JsonValue::object();
    body.set("model", reply.model.as_str())
        .set("prediction", reply.prediction)
        .set("logits", reply.logits.clone())
        .set("batch_size", reply.batch_size)
        .set("queue_us", reply.queue_us);
    body
}

/// Parses a success body back into an [`InferReply`] (the client half).
pub fn parse_infer_reply(body: &JsonValue) -> Result<InferReply, String> {
    let model = body
        .get("model")
        .and_then(JsonValue::as_str)
        .ok_or("reply missing \"model\"")?
        .to_string();
    let prediction = body
        .get("prediction")
        .and_then(JsonValue::as_usize)
        .ok_or("reply missing \"prediction\"")?;
    let logits = body
        .get("logits")
        .and_then(JsonValue::as_array)
        .ok_or("reply missing \"logits\"")?
        .iter()
        .map(|v| v.as_f64().map(|f| f as f32).ok_or("non-numeric logit"))
        .collect::<Result<Vec<f32>, &str>>()?;
    let batch_size = body
        .get("batch_size")
        .and_then(JsonValue::as_usize)
        .ok_or("reply missing \"batch_size\"")?;
    let queue_us = body
        .get("queue_us")
        .and_then(JsonValue::as_usize)
        .ok_or("reply missing \"queue_us\"")? as u64;
    Ok(InferReply {
        model,
        prediction,
        logits,
        batch_size,
        queue_us,
    })
}

/// Builds an error body from a raw code/message pair (for wire-layer failures such as
/// unknown routes that have no [`ServeError`] variant).
pub fn error_body(code: &str, message: &str) -> JsonValue {
    let mut inner = JsonValue::object();
    inner.set("code", code).set("message", message);
    let mut body = JsonValue::object();
    body.set("error", inner);
    body
}

/// Builds the typed error body for a failed request.
pub fn error_json(error: &impl WireError) -> JsonValue {
    error_body(error.code(), &error.to_string())
}

/// Extracts `(code, message)` from an error body, if it is one.
pub fn parse_error(body: &JsonValue) -> Option<(String, String)> {
    let inner = body.get("error")?;
    Some((
        inner.get("code")?.as_str()?.to_string(),
        inner.get("message")?.as_str()?.to_string(),
    ))
}

/// `Content-Type` of the binary `POST /v1/infer` encoding.
///
/// The JSON request shape spells every image pixel as decimal text — on a
/// 224×224 image that is ~50k numbers and dominates request bytes several-fold
/// over the raw f32 data. The binary encoding sends the same request as a small
/// JSON *metadata* object (the request minus `"image"`) followed by the image
/// as raw little-endian f32s:
///
/// ```text
/// offset  size        field
/// 0       4           magic "VTLY"
/// 4       1           version (1)
/// 5       4           meta_len: u32 LE
/// 9       meta_len    meta JSON (request body without "image")
/// +0      4           rows: u32 LE
/// +4      4           cols: u32 LE
/// +8      rows*cols*4 pixels, row-major f32 LE
/// ```
///
/// Negotiation is via `GET /healthz`: engines that understand this encoding
/// list it under `"encodings"` (`["json", "binary"]`), and a caller switches
/// only after seeing it advertised — unknown-content-type requests are a 400,
/// never misparsed. Worked example:
///
/// ```
/// use vitality_serve::protocol::{
///     decode_binary_infer, encode_binary_infer, InferEnvelope, BINARY_CONTENT_TYPE,
/// };
/// use vitality_serve::InferOptions;
/// use vitality_tensor::Matrix;
///
/// let image = Matrix::from_rows(&[vec![0.5, -1.0], vec![2.0, 0.25]]).unwrap();
/// let opts = InferOptions { request_id: Some("cafe0001"), ..InferOptions::default() };
///
/// // Client side: one buffer, sent with `Content-Type: application/x-vitality-infer`.
/// let wire = encode_binary_infer("demo:taylor", &image, &opts);
/// assert!(wire.len() < 100, "4 pixels cost 16 bytes, not 4 decimal strings");
/// assert_eq!(BINARY_CONTENT_TYPE, "application/x-vitality-infer");
///
/// // Server side: the frame splits into the metadata object (the JSON request
/// // minus "image") and the image, bit-exactly ...
/// let (meta, decoded) = decode_binary_infer(&wire).unwrap();
/// assert_eq!(meta.get("model").and_then(|m| m.as_str()), Some("demo:taylor"));
/// assert_eq!(decoded, image);
/// // ... which is the first step of the one decode both servers run.
/// let envelope = InferEnvelope::decode(&wire, Some(BINARY_CONTENT_TYPE)).unwrap();
/// assert_eq!(envelope.request_id.as_deref(), Some("cafe0001"));
/// assert_eq!((envelope.model.as_str(), &envelope.image), ("demo:taylor", &image));
/// ```
pub const BINARY_CONTENT_TYPE: &str = "application/x-vitality-infer";

const BINARY_MAGIC: &[u8; 4] = b"VTLY";
const BINARY_VERSION: u8 = 1;

/// Encodes a `POST /v1/infer` request in the binary image encoding (see
/// [`BINARY_CONTENT_TYPE`] for the layout and a worked example).
pub fn encode_binary_infer(model: &str, image: &Matrix, opts: &InferOptions<'_>) -> Vec<u8> {
    let mut meta = JsonValue::object();
    meta.set("model", model);
    if let Some(tier) = opts.tier {
        meta.set("tier", tier);
    }
    if let Some(budget) = opts.deadline_ms {
        meta.set("deadline_ms", budget as usize);
    }
    if let Some(id) = opts.request_id {
        meta.set("request_id", id);
    }
    if opts.trace {
        meta.set("trace", true);
    }
    let meta = meta.to_json().into_bytes();
    let (rows, cols) = image.shape();
    let mut wire =
        Vec::with_capacity(4 + 1 + 4 + meta.len() + 8 + rows * cols * core::mem::size_of::<f32>());
    wire.extend_from_slice(BINARY_MAGIC);
    wire.push(BINARY_VERSION);
    wire.extend_from_slice(&(meta.len() as u32).to_le_bytes());
    wire.extend_from_slice(&meta);
    wire.extend_from_slice(&(rows as u32).to_le_bytes());
    wire.extend_from_slice(&(cols as u32).to_le_bytes());
    for &pixel in image.as_slice() {
        wire.extend_from_slice(&pixel.to_le_bytes());
    }
    wire
}

/// Decodes a binary-encoded `POST /v1/infer` body into its metadata object (the
/// request minus `"image"`) and the image matrix — the framing half of
/// [`InferEnvelope::decode`]. Every structural violation is a typed
/// [`ServeError::BadRequest`] — truncated frames, bad magic, unknown versions,
/// zero or overflowing dimensions, and non-finite pixels (which would poison a
/// whole batch with NaN logits, exactly like the JSON path's finiteness check).
pub fn decode_binary_infer(body: &[u8]) -> Result<(JsonValue, Matrix), ServeError> {
    let bad = |msg: &str| ServeError::BadRequest(format!("binary infer body: {msg}"));
    let take = |at: usize, n: usize| -> Result<&[u8], ServeError> {
        body.get(at..at + n).ok_or_else(|| bad("truncated"))
    };
    let u32_at = |at: usize| -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(
            take(at, 4)?.try_into().expect("4 bytes"),
        ))
    };
    if take(0, 4)? != BINARY_MAGIC {
        return Err(bad("bad magic (expected \"VTLY\")"));
    }
    let version = take(4, 1)?[0];
    if version != BINARY_VERSION {
        return Err(bad(&format!(
            "unsupported version {version} (this engine speaks {BINARY_VERSION})"
        )));
    }
    let meta_len = u32_at(5)? as usize;
    let meta_bytes = take(9, meta_len)?;
    let meta = std::str::from_utf8(meta_bytes)
        .map_err(|_| bad("metadata is not UTF-8"))
        .and_then(|text| {
            serde::json::parse(text).map_err(|e| bad(&format!("invalid metadata JSON: {e}")))
        })?;
    let dims_at = 9 + meta_len;
    let rows = u32_at(dims_at)? as usize;
    let cols = u32_at(dims_at + 4)? as usize;
    if rows == 0 || cols == 0 {
        return Err(bad("image dimensions must be positive"));
    }
    let pixel_count = rows
        .checked_mul(cols)
        .filter(|&n| n <= (u32::MAX as usize))
        .ok_or_else(|| bad("image dimensions overflow"))?;
    let data_at = dims_at + 8;
    let data = take(data_at, pixel_count * core::mem::size_of::<f32>())?;
    if body.len() > data_at + data.len() {
        return Err(bad("trailing bytes after the pixel data"));
    }
    let mut pixels = Vec::with_capacity(pixel_count);
    for chunk in data.chunks_exact(4) {
        let v = f32::from_le_bytes(chunk.try_into().expect("4 bytes"));
        if !v.is_finite() {
            return Err(bad("non-finite pixel"));
        }
        pixels.push(v);
    }
    let image = Matrix::from_vec(rows, cols, pixels)
        .map_err(|e| ServeError::BadRequest(format!("binary infer body: {e}")))?;
    Ok((meta, image))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_exactly() {
        let image = Matrix::from_rows(&[
            vec![0.25, -1.5, 3.0],
            vec![0.0, 0.125, -0.0625],
            vec![9.0, 8.0, 7.0],
        ])
        .unwrap();
        let body = infer_request_json_opts("m:taylor", &image, &InferOptions::default());
        let parsed = serde::json::parse(&body.to_json()).unwrap();
        let (model, back) = parse_infer_request(&parsed).unwrap();
        assert_eq!(model, "m:taylor");
        assert_eq!(back, image, "f32 images survive the JSON trip bit-exactly");
    }

    #[test]
    fn replies_round_trip_exactly() {
        let reply = InferReply {
            model: "m:softmax".into(),
            prediction: 3,
            logits: vec![0.1, -0.2, 0.0, 1.5],
            batch_size: 7,
            queue_us: 1234,
        };
        let body = infer_reply_json(&reply);
        let parsed = serde::json::parse(&body.to_json()).unwrap();
        assert_eq!(parse_infer_reply(&parsed).unwrap(), reply);
    }

    #[test]
    fn malformed_requests_become_bad_request_errors() {
        for (json, needle) in [
            (r#"{}"#, "model"),
            (r#"{"model": "m"}"#, "image"),
            (r#"{"model": "m", "image": []}"#, "non-empty"),
            (r#"{"model": "m", "image": [1]}"#, "not an array"),
            (r#"{"model": "m", "image": [["x"]]}"#, "not a number"),
            (r#"{"model": "m", "image": [[1, 2], [3]]}"#, "ragged"),
        ] {
            let parsed = serde::json::parse(json).unwrap();
            match parse_infer_request(&parsed) {
                Err(ServeError::BadRequest(msg)) => {
                    assert!(msg.contains(needle), "{json} → {msg}")
                }
                other => panic!("{json} → {other:?}"),
            }
        }
    }

    #[test]
    fn envelopes_round_trip_through_both_encodings() {
        let image = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let full = InferOptions {
            tier: Some("latency"),
            deadline_ms: Some(250),
            request_id: Some("deadbeefcafef00d"),
            trace: true,
        };
        for opts in [full, InferOptions::default()] {
            let want = InferEnvelope {
                request_id: opts.request_id.map(str::to_string),
                trace: opts.trace,
                model: "m:taylor".into(),
                image: image.clone(),
                tier: opts.tier.map(str::to_string),
                deadline_ms: opts.deadline_ms,
            };
            let json = infer_request_json_opts("m:taylor", &image, &opts).to_json();
            // A missing or foreign content type selects the JSON shape; parameters
            // and case on the binary one are ignored.
            for content_type in [None, Some("application/json")] {
                assert_eq!(
                    InferEnvelope::decode(json.as_bytes(), content_type).as_ref(),
                    Ok(&want)
                );
            }
            let wire = encode_binary_infer("m:taylor", &image, &opts);
            for content_type in [BINARY_CONTENT_TYPE, "Application/X-Vitality-Infer; v=1"] {
                assert_eq!(
                    InferEnvelope::decode(&wire, Some(content_type)).as_ref(),
                    Ok(&want)
                );
            }
        }
        // A zero budget is valid ("already expired"), not malformed.
        let zero = br#"{"model": "m", "image": [[1]], "deadline_ms": 0}"#;
        assert_eq!(
            InferEnvelope::decode(zero, None).unwrap().deadline_ms,
            Some(0)
        );
    }

    /// A binary frame assembled by hand: `meta` is the inside of the metadata
    /// object, the pixel section is whatever the case wants it to be.
    fn binary_frame(meta: &str, rows: u32, cols: u32, pixels: &[f32]) -> Vec<u8> {
        let meta = format!("{{{meta}}}");
        let mut wire = b"VTLY\x01".to_vec();
        wire.extend_from_slice(&(meta.len() as u32).to_le_bytes());
        wire.extend_from_slice(meta.as_bytes());
        wire.extend_from_slice(&rows.to_le_bytes());
        wire.extend_from_slice(&cols.to_le_bytes());
        for pixel in pixels {
            wire.extend_from_slice(&pixel.to_le_bytes());
        }
        wire
    }

    #[test]
    fn malformed_envelopes_keep_their_error_text_and_carry_the_request_id_out() {
        const ID: &str = "cafe0001";
        const GOOD: [f32; 4] = [1.0, 2.0, 3.0, 4.0];
        /// A request on the wire, the exact error text it must fail with, and the
        /// id that failure must carry out.
        struct Case {
            what: String,
            wire: Vec<u8>,
            binary: bool,
            message: String,
            id: Option<&'static str>,
        }
        let json = |meta: &str, image: &str| format!("{{{meta}, \"image\": {image}}}").into_bytes();
        let mut cases: Vec<Case> = Vec::new();

        // Malformed optional fields live in the metadata, so both encodings see the
        // same text. A bad `request_id` cannot be echoed; everything read after a
        // good one is.
        let with_id = |rest: &str| format!(r#""request_id": "{ID}", "model": "m", {rest}"#);
        let id_len = format!("\"request_id\" must be 1..={MAX_REQUEST_ID_LEN} bytes");
        let deadline = "\"deadline_ms\" must be a non-negative integer";
        for (meta, message, id) in [
            (
                r#""request_id": 7, "model": "m""#.to_string(),
                "\"request_id\" must be a string",
                None,
            ),
            (
                r#""request_id": "", "model": "m""#.to_string(),
                id_len.as_str(),
                None,
            ),
            (
                format!(r#""request_id": "{}", "model": "m""#, "x".repeat(65)),
                id_len.as_str(),
                None,
            ),
            (
                with_id(r#""trace": "yes""#),
                "\"trace\" must be a boolean",
                Some(ID),
            ),
            (
                with_id(r#""tier": 3"#),
                "\"tier\" must be a string",
                Some(ID),
            ),
            (with_id(r#""deadline_ms": -5"#), deadline, Some(ID)),
            (with_id(r#""deadline_ms": 1.5"#), deadline, Some(ID)),
            (with_id(r#""deadline_ms": "soon""#), deadline, Some(ID)),
            // Malformed required field, shared: no model key.
            (
                format!(r#""request_id": "{ID}""#),
                "missing string field \"model\"",
                Some(ID),
            ),
        ] {
            for binary in [false, true] {
                cases.push(Case {
                    what: meta.clone(),
                    wire: if binary {
                        binary_frame(&meta, 2, 2, &GOOD)
                    } else {
                        json(&meta, "[[1, 2], [3, 4]]")
                    },
                    binary,
                    message: message.to_string(),
                    id,
                });
            }
        }

        // Malformed images. In JSON the image is one more field, read after the id;
        // in a binary frame it is framing, which fails before any metadata is read.
        let meta = format!(r#""request_id": "{ID}", "model": "m""#);
        let ragged = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        for (image, message) in [
            ("[[1, 2], [3]]", format!("ragged image: {ragged}")),
            ("[]", "\"image\" must be non-empty".to_string()),
            ("[[1e39]]", "image[0][0] is not finite in f32".to_string()),
        ] {
            cases.push(Case {
                what: format!("image {image}"),
                wire: json(&meta, image),
                binary: false,
                message,
                id: Some(ID),
            });
        }
        let good = binary_frame(&meta, 2, 2, &GOOD);
        for (what, wire, message) in [
            ("truncated", good[..good.len() - 1].to_vec(), "truncated"),
            (
                "empty",
                binary_frame(&meta, 0, 0, &[]),
                "image dimensions must be positive",
            ),
            (
                "non-finite",
                binary_frame(&meta, 2, 2, &[1.0, f32::NAN, 3.0, 4.0]),
                "non-finite pixel",
            ),
        ] {
            cases.push(Case {
                what: format!("image {what}"),
                wire,
                binary: true,
                message: format!("binary infer body: {message}"),
                id: None,
            });
        }

        for case in cases {
            let content_type = case.binary.then_some(BINARY_CONTENT_TYPE);
            assert_eq!(
                InferEnvelope::decode(&case.wire, content_type),
                Err(EnvelopeError {
                    error: ServeError::BadRequest(case.message),
                    request_id: case.id.map(str::to_string),
                }),
                "{} ({})",
                case.what,
                if case.binary { "binary" } else { "json" }
            );
        }
    }

    #[test]
    fn reply_side_request_id_and_trace_parse() {
        let mut body = infer_reply_json(&InferReply {
            model: "m:taylor".into(),
            prediction: 1,
            logits: vec![0.0, 1.0],
            batch_size: 1,
            queue_us: 10,
        });
        assert_eq!(parse_reply_request_id(&body), None);
        assert!(parse_reply_trace(&body).is_none());
        body.set("request_id", "00ff00ff00ff00ff");
        let spans = vec![trace::Span {
            name: "compute".into(),
            detail: "taylor".into(),
            start_us: 5,
            dur_us: 50,
            parent: None,
        }];
        body.set("trace", trace::spans_json(&spans));
        let parsed = serde::json::parse(&body.to_json()).unwrap();
        assert_eq!(
            parse_reply_request_id(&parsed).as_deref(),
            Some("00ff00ff00ff00ff")
        );
        let back = parse_reply_trace(&parsed).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].name, "compute");
        assert_eq!(back[0].dur_us, 50);
    }

    #[test]
    fn binary_requests_round_trip_exactly() {
        let image = Matrix::from_rows(&[
            vec![0.25, -1.5, 3.0],
            vec![0.0, 0.125, -0.0625],
            vec![9.0, 8.0, 7.0],
        ])
        .unwrap();
        let wire = encode_binary_infer(
            "m:taylor",
            &image,
            &InferOptions {
                tier: Some("latency"),
                deadline_ms: Some(250),
                request_id: Some("feedface"),
                trace: true,
            },
        );
        let (meta, back) = decode_binary_infer(&wire).unwrap();
        assert_eq!(back, image, "pixels survive bit-exactly");
        let mut want = JsonValue::object();
        want.set("model", "m:taylor")
            .set("tier", "latency")
            .set("deadline_ms", 250usize)
            .set("request_id", "feedface")
            .set("trace", true);
        assert_eq!(meta, want, "the metadata is the request minus the image");
        // And it genuinely beats JSON on the wire for the payload that matters:
        // at realistic image sizes the decimal-text pixels dominate.
        let big = Matrix::from_vec(32, 32, (0..1024).map(|i| i as f32 * 0.37).collect()).unwrap();
        let wire = encode_binary_infer("m:taylor", &big, &InferOptions::default());
        let json = infer_request_json_opts("m:taylor", &big, &InferOptions::default()).to_json();
        assert!(
            wire.len() * 2 < json.len(),
            "binary {} vs JSON {}",
            wire.len(),
            json.len()
        );
    }

    #[test]
    fn malformed_binary_requests_become_bad_request_errors() {
        let image = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let good = encode_binary_infer("m", &image, &InferOptions::default());
        let cases: Vec<(Vec<u8>, &str)> = vec![
            (b"NO".to_vec(), "truncated"),
            (b"NOPE!".to_vec(), "magic"),
            (
                {
                    let mut w = good.clone();
                    w[0] = b'X';
                    w
                },
                "magic",
            ),
            (
                {
                    let mut w = good.clone();
                    w[4] = 9;
                    w
                },
                "version",
            ),
            (good[..good.len() - 1].to_vec(), "truncated"),
            (
                {
                    let mut w = good.clone();
                    w.push(0);
                    w
                },
                "trailing",
            ),
            (
                {
                    // Patch one pixel to NaN (pixels start 8 bytes after the dims,
                    // which start right after the meta JSON).
                    let mut w = good.clone();
                    let meta_len = u32::from_le_bytes(w[5..9].try_into().unwrap()) as usize;
                    let data_at = 9 + meta_len + 8;
                    w[data_at..data_at + 4].copy_from_slice(&f32::NAN.to_le_bytes());
                    w
                },
                "finite",
            ),
        ];
        for (wire, needle) in cases {
            match decode_binary_infer(&wire) {
                Err(ServeError::BadRequest(msg)) => {
                    assert!(msg.contains(needle), "expected {needle:?} in {msg:?}")
                }
                other => panic!("expected BadRequest({needle}), got {other:?}"),
            }
        }
        // Zero dims are rejected even with a consistent (empty) pixel section.
        let mut w = Vec::new();
        w.extend_from_slice(b"VTLY");
        w.push(1);
        w.extend_from_slice(&2u32.to_le_bytes());
        w.extend_from_slice(b"{}");
        w.extend_from_slice(&0u32.to_le_bytes());
        w.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_binary_infer(&w),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn errors_serialize_with_code_and_message() {
        let body = error_json(&ServeError::ShuttingDown);
        let parsed = serde::json::parse(&body.to_json()).unwrap();
        let (code, message) = parse_error(&parsed).unwrap();
        assert_eq!(code, "shutting_down");
        assert!(message.contains("shutting down"));
        assert!(parse_error(&serde::json::parse("{}").unwrap()).is_none());
    }
}
