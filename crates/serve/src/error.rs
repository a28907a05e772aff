//! Typed serving errors and their mapping onto the wire protocol.

use std::fmt;

/// Everything that can go wrong between a request arriving and a response leaving.
///
/// The variants are deliberately coarse: each one maps to a distinct HTTP status and a
/// stable machine-readable `code`, so clients (and the load generator) can distinguish
/// "back off" ([`ServeError::Overloaded`], [`ServeError::ShuttingDown`]) from "fix your
/// request" ([`ServeError::BadRequest`], [`ServeError::ModelNotFound`]) from "page
/// someone" ([`ServeError::Internal`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request body was not a valid inference request.
    BadRequest(String),
    /// A model was registered under a name containing the reserved `:` separator.
    InvalidModelName(String),
    /// The requested `name:variant` key is not in the model registry.
    ModelNotFound(String),
    /// The admission queue is full; the request was shed without being enqueued.
    Overloaded {
        /// Queue depth observed at admission time.
        queue_depth: usize,
        /// The configured queue capacity that was exceeded.
        capacity: usize,
    },
    /// The server is draining; no new requests are admitted.
    ShuttingDown,
    /// The request's `deadline_ms` budget expired before inference started; the
    /// batcher shed it without spending any compute.
    DeadlineExceeded {
        /// The deadline budget the client sent, in milliseconds.
        budget_ms: u64,
    },
    /// An invariant broke server-side (worker died, response channel dropped).
    Internal(String),
}

/// An error that answers a request on the wire: the status, the stable `code` and
/// the `Retry-After` hint the typed error envelope is built from.
pub trait WireError: fmt::Display {
    /// Stable machine-readable error code carried in the JSON error body.
    fn code(&self) -> &str;
    /// The HTTP status the wire layer reports this error with.
    fn http_status(&self) -> u16;
    /// Seconds a client should wait before retrying; the wire layer turns it into
    /// a `Retry-After` header.
    fn retry_after_secs(&self) -> Option<u64>;
}

impl WireError for ServeError {
    fn code(&self) -> &str {
        match self {
            ServeError::BadRequest(_) => "bad_request",
            ServeError::InvalidModelName(_) => "invalid_model_name",
            ServeError::ModelNotFound(_) => "model_not_found",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServeError::Internal(_) => "internal",
        }
    }

    fn http_status(&self) -> u16 {
        match self {
            ServeError::BadRequest(_) | ServeError::InvalidModelName(_) => 400,
            ServeError::ModelNotFound(_) => 404,
            ServeError::Overloaded { .. } | ServeError::ShuttingDown => 503,
            ServeError::DeadlineExceeded { .. } => 504,
            ServeError::Internal(_) => 500,
        }
    }

    /// `Some` exactly for the 503 variants ([`ServeError::Overloaded`],
    /// [`ServeError::ShuttingDown`]); the wire layer turns it into a `Retry-After`
    /// header so load balancers (the gateway's retry budget) can back off without
    /// parsing the body. One second is the floor HTTP's integer-seconds granularity
    /// allows — the batcher usually drains in milliseconds, so "retry in ≤ 1 s" is the
    /// honest conservative hint.
    fn retry_after_secs(&self) -> Option<u64> {
        match self {
            ServeError::Overloaded { .. } | ServeError::ShuttingDown => Some(1),
            _ => None,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::InvalidModelName(name) => write!(
                f,
                "model name {name:?} must not contain ':' (reserved as the name/variant separator)"
            ),
            ServeError::ModelNotFound(key) => write!(f, "model {key:?} is not registered"),
            ServeError::Overloaded {
                queue_depth,
                capacity,
            } => write!(
                f,
                "request shed: admission queue at {queue_depth}/{capacity}"
            ),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::DeadlineExceeded { budget_ms } => write!(
                f,
                "deadline of {budget_ms} ms expired before inference started"
            ),
            ServeError::Internal(msg) => write!(f, "internal serving error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_statuses_are_stable() {
        let cases: Vec<(ServeError, &str, u16)> = vec![
            (ServeError::BadRequest("x".into()), "bad_request", 400),
            (
                ServeError::InvalidModelName("a:b".into()),
                "invalid_model_name",
                400,
            ),
            (
                ServeError::ModelNotFound("m".into()),
                "model_not_found",
                404,
            ),
            (
                ServeError::Overloaded {
                    queue_depth: 9,
                    capacity: 8,
                },
                "overloaded",
                503,
            ),
            (ServeError::ShuttingDown, "shutting_down", 503),
            (
                ServeError::DeadlineExceeded { budget_ms: 40 },
                "deadline_exceeded",
                504,
            ),
            (ServeError::Internal("x".into()), "internal", 500),
        ];
        for (err, code, status) in cases {
            assert_eq!(err.code(), code);
            assert_eq!(err.http_status(), status);
            assert!(!err.to_string().is_empty());
            // Exactly the 503s carry a Retry-After hint.
            assert_eq!(err.retry_after_secs().is_some(), status == 503, "{code}");
        }
    }
}
