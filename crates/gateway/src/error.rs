//! Typed gateway errors and their mapping onto the wire protocol.

use std::fmt;

use vitality_serve::{ServeError, WireError};

/// Everything that can go wrong between a request reaching the gateway and a response
/// leaving it. Like [`ServeError`], each variant maps to a
/// stable machine-readable `code` and an HTTP status, so clients can distinguish "fix
/// your request" from "back off and retry" without string matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// The request body was not a valid (gateway) inference request.
    BadRequest(String),
    /// The resolved `name:variant` key is served by no backend in the pool.
    ModelNotFound(String),
    /// The retry budget was exhausted without any backend answering.
    NoBackend {
        /// Backends currently marked healthy.
        healthy: usize,
        /// Backends configured in the pool.
        total: usize,
        /// The last per-backend failure observed, for the error body.
        last_error: String,
    },
    /// A backend answered with a non-retryable typed error (4xx), forwarded as-is.
    Upstream {
        /// The backend's HTTP status.
        status: u16,
        /// The backend's machine-readable error code.
        code: String,
        /// The backend's message.
        message: String,
    },
    /// The request's `deadline_ms` budget ran out before any backend answered; no
    /// further attempt was made.
    DeadlineExceeded {
        /// The deadline budget the client sent, in milliseconds.
        budget_ms: u64,
    },
    /// The gateway's own admission bounds are full; the request was refused before
    /// touching any backend.
    AdmissionFull {
        /// Concurrent requests the gateway was handling at refusal time.
        in_flight: u64,
        /// The configured concurrency bound that was hit.
        limit: u64,
        /// Seconds to wait before retrying, derived from the probed backend queue
        /// depth and observed miss-path latency (not a constant).
        retry_after: u64,
    },
}

impl WireError for GatewayError {
    fn code(&self) -> &str {
        match self {
            GatewayError::BadRequest(_) => "bad_request",
            GatewayError::ModelNotFound(_) => "model_not_found",
            GatewayError::NoBackend { .. } => "no_backend",
            GatewayError::Upstream { code, .. } => code,
            GatewayError::DeadlineExceeded { .. } => "deadline_exceeded",
            GatewayError::AdmissionFull { .. } => "admission_full",
        }
    }

    fn http_status(&self) -> u16 {
        match self {
            GatewayError::BadRequest(_) => 400,
            GatewayError::ModelNotFound(_) => 404,
            GatewayError::NoBackend { .. } => 503,
            GatewayError::Upstream { status, .. } => *status,
            GatewayError::DeadlineExceeded { .. } => 504,
            GatewayError::AdmissionFull { .. } => 503,
        }
    }

    /// `Some` on the 503 path, mirrored as a `Retry-After` header like the
    /// engines' own backpressure responses.
    fn retry_after_secs(&self) -> Option<u64> {
        match self {
            GatewayError::NoBackend { .. } => Some(1),
            GatewayError::AdmissionFull { retry_after, .. } => Some((*retry_after).max(1)),
            _ => None,
        }
    }
}

/// An undecodable request body.
impl From<ServeError> for GatewayError {
    fn from(error: ServeError) -> Self {
        GatewayError::BadRequest(error.to_string())
    }
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            GatewayError::ModelNotFound(key) => {
                write!(f, "model {key:?} is served by no backend in the pool")
            }
            GatewayError::NoBackend {
                healthy,
                total,
                last_error,
            } => write!(
                f,
                "no backend answered ({healthy}/{total} healthy; last error: {last_error})"
            ),
            GatewayError::Upstream {
                status,
                code,
                message,
            } => write!(f, "backend error {status} ({code}): {message}"),
            GatewayError::DeadlineExceeded { budget_ms } => write!(
                f,
                "deadline of {budget_ms} ms expired before any backend answered"
            ),
            GatewayError::AdmissionFull {
                in_flight, limit, ..
            } => write!(
                f,
                "gateway admission full: {in_flight} requests in flight (limit {limit})"
            ),
        }
    }
}

impl std::error::Error for GatewayError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_statuses_and_retry_hints_are_stable() {
        let cases: Vec<(GatewayError, &str, u16, Option<u64>)> = vec![
            (
                GatewayError::BadRequest("x".into()),
                "bad_request",
                400,
                None,
            ),
            (
                GatewayError::ModelNotFound("m:int8".into()),
                "model_not_found",
                404,
                None,
            ),
            (
                GatewayError::NoBackend {
                    healthy: 0,
                    total: 2,
                    last_error: "io".into(),
                },
                "no_backend",
                503,
                Some(1),
            ),
            (
                GatewayError::Upstream {
                    status: 404,
                    code: "model_not_found".into(),
                    message: "missing".into(),
                },
                "model_not_found",
                404,
                None,
            ),
            (
                GatewayError::DeadlineExceeded { budget_ms: 75 },
                "deadline_exceeded",
                504,
                None,
            ),
            (
                GatewayError::AdmissionFull {
                    in_flight: 512,
                    limit: 512,
                    retry_after: 3,
                },
                "admission_full",
                503,
                Some(3),
            ),
        ];
        for (err, code, status, retry) in cases {
            assert_eq!(err.code(), code);
            assert_eq!(err.http_status(), status);
            assert_eq!(err.retry_after_secs(), retry);
            assert!(!err.to_string().is_empty());
        }
    }
}
