//! The server shell the engine and the gateway both run in: the connection
//! front, the one route table (`GET /healthz`, `GET /metrics` as JSON or
//! `?format=prometheus` text, `GET /debug/traces?limit=N`, `POST /v1/infer`), the
//! infer lifecycle (decode → request id → log scope → trace → [`Service::infer`]
//! → [`Reply`] → write → trace finish) and the typed error envelope. A server
//! supplies one [`Service`]: its `/healthz` fragment, its metric declarations and
//! its infer handler.

use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::json::JsonValue;

use crate::error::{ServeError, WireError};
use crate::event_loop::{Completion, EventFront, FrontConfig, FrontRequest, LoopStats};
use crate::exposition::MetricsRegistry;
use crate::http::{
    query_limit, wants_prometheus, RouteResponse, WriteReport, PROMETHEUS_CONTENT_TYPE,
};
use crate::protocol::{self, InferEnvelope};

/// What a server plugs into the shell.
pub trait Service: Send + Sync + Sized + 'static {
    /// The typed error an infer request fails with; an undecodable body arrives
    /// as the [`ServeError`] the decoder reported.
    type Error: WireError + From<ServeError> + Send + 'static;

    /// Prefix of the shell's own Prometheus series (`<prefix>_event_loop_*`).
    const PREFIX: &'static str;

    /// The service's `/healthz` fields; the shell adds `encodings` and `event_loop`.
    fn health(&self) -> JsonValue;

    /// Declares every metric of the service (see [`crate::exposition`]).
    fn register(&self, reg: &mut MetricsRegistry);

    /// Counts one failed infer request by the service's own policy.
    fn count_failure(&self, error: &Self::Error);

    /// Answers one decoded infer request through `reply`, now or later and from
    /// any thread. Runs inside the request's log scope, with its trace open.
    fn infer(&self, envelope: InferEnvelope, reply: Reply<Self>);
}

/// A server's service together with what the shell keeps for it: the tracer and
/// the connection front's loop-health counters. Shared by the loop thread and
/// every thread that answers a request.
pub struct Shell<S> {
    service: S,
    tracer: Arc<trace::Tracer>,
    loop_stats: Arc<LoopStats>,
}

impl<S: Service> Shell<S> {
    /// Starts the connection front over a bound listener, its loop thread named
    /// `thread_name`. `accept` places each `POST /v1/infer` from the loop thread:
    /// straight into [`Shell::infer`], or onto a pool that calls it; it must not
    /// block.
    ///
    /// # Errors
    ///
    /// The front's start error — off Linux, [`io::ErrorKind::Unsupported`]: the
    /// front needs epoll.
    pub fn start(
        listener: TcpListener,
        thread_name: String,
        poll_interval: Duration,
        max_body_bytes: usize,
        trace: &trace::TraceConfig,
        service: S,
        mut accept: impl FnMut(&Arc<Self>, &FrontRequest<'_>, Completion) + Send + 'static,
    ) -> io::Result<(Arc<Self>, EventFront)> {
        let shell = Arc::new(Shell {
            service,
            tracer: Arc::new(trace::Tracer::new(trace)),
            loop_stats: Arc::new(LoopStats::default()),
        });
        let config = FrontConfig {
            poll_interval,
            max_body_bytes,
            thread_name,
        };
        let route_shell = Arc::clone(&shell);
        let front = EventFront::start(
            listener,
            config,
            Arc::clone(&shell.loop_stats),
            move |request: &FrontRequest<'_>, completion: Completion| {
                route_shell.route(request, completion, &mut accept)
            },
        )?;
        Ok((shell, front))
    }

    /// The service.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// The request tracer (ring buffer behind `GET /debug/traces`).
    pub fn tracer(&self) -> &Arc<trace::Tracer> {
        &self.tracer
    }

    /// Every metric of the server — the service's declarations plus the loop
    /// health — ready to render as either body of `GET /metrics`.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        self.service.register(&mut reg);
        self.register_loop(&mut reg);
        reg
    }

    /// The loop-health block `/metrics` and `/healthz` share: whether the single
    /// loop thread is becoming the bottleneck.
    fn register_loop(&self, reg: &mut MetricsRegistry) {
        let stats = &self.loop_stats;
        let name = |series: &str| format!("{}_event_loop_{series}", S::PREFIX);
        let load = |value: &AtomicU64| value.load(Ordering::Relaxed);
        reg.scope(&["event_loop"], &[], |reg| {
            let help = "epoll_wait returns on the connection-front loop thread";
            reg.counter(
                "wakeups",
                &name("wakeups_total"),
                help,
                load(&stats.wakeups),
            );
            let help = "Ready events summed over all wakeups";
            reg.counter(
                "ready_events",
                &name("ready_events_total"),
                help,
                load(&stats.ready_events),
            );
            let help = "Responses drained off the completion queue";
            reg.counter(
                "completions",
                &name("completions_total"),
                help,
                load(&stats.completions),
            );
            let help = "Current completion (dispatch) queue depth";
            reg.gauge(
                "queue_depth",
                &name("queue_depth"),
                help,
                load(&stats.queue_depth),
            );
            let help = "Deepest completion-queue backlog observed";
            reg.gauge(
                "max_queue_depth",
                &name("max_queue_depth"),
                help,
                load(&stats.max_queue_depth),
            );
            reg.json("events_per_wake", stats.events_per_wake());
            let help = "Fraction of loop time spent outside epoll_wait";
            reg.gauge("saturation", &name("saturation"), help, stats.saturation());
        });
    }

    fn health(&self) -> JsonValue {
        let mut body = self.service.health();
        let mut reg = MetricsRegistry::new();
        self.register_loop(&mut reg);
        // Callers switch to the binary image encoding only after seeing it here.
        body.set("encodings", vec!["json".to_string(), "binary".to_string()])
            .set("event_loop", reg.into_json().get("event_loop").cloned());
        body
    }

    /// The infer lifecycle, on whichever thread calls it: decode the envelope,
    /// echo (or mint) the request id, open the log scope and the trace, and hand
    /// the request to [`Service::infer`].
    pub fn infer(
        self: &Arc<Self>,
        body: &[u8],
        content_type: Option<&str>,
        completion: Completion,
    ) {
        // The origin for every span offset: decoding the body (UTF-8 check, JSON
        // or binary decode, field validation) is attributed to the `parse` span
        // retroactively.
        let received = Instant::now();
        let mut reply = Reply {
            shell: Arc::clone(self),
            request_id: String::new(),
            want_trace: false,
            trace: None,
            received,
            completion,
        };
        let mut envelope = match InferEnvelope::decode(body, content_type) {
            Ok(envelope) => envelope,
            // Echo the client's id whenever it parsed; otherwise generate one so
            // even this failure is quotable from the error body.
            Err(failed) => {
                reply.request_id = failed.request_id.unwrap_or_else(trace::new_request_id);
                return reply.err(failed.error.into());
            }
        };
        reply.request_id = envelope
            .request_id
            .take()
            .unwrap_or_else(trace::new_request_id);
        let _log_scope = trace::request_scope(&reply.request_id);
        // `"trace": true` forces span recording even when sampling is off — that
        // is how a gateway collects engine spans; retention in this server's own
        // ring is still the tracer's sampling decision.
        reply.want_trace = envelope.trace;
        reply.trace = self
            .tracer
            .begin(&reply.request_id, received, envelope.trace);
        self.service.infer(envelope, reply);
    }

    fn route(
        self: &Arc<Self>,
        request: &FrontRequest<'_>,
        completion: Completion,
        accept: &mut impl FnMut(&Arc<Self>, &FrontRequest<'_>, Completion),
    ) {
        let Ok((method, target)) = request.request_parts() else {
            let error = ServeError::BadRequest("malformed request line".into());
            return completion.complete(error_response(&error));
        };
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        let response = match (method, path) {
            ("GET", "/healthz") => RouteResponse::new(200, self.health()),
            ("GET", "/metrics") if wants_prometheus(query) => {
                RouteResponse::text(200, PROMETHEUS_CONTENT_TYPE, self.metrics().encode())
            }
            ("GET", "/metrics") => RouteResponse::new(200, self.metrics().into_json()),
            ("GET", "/debug/traces") => {
                let limit = query_limit(query).unwrap_or(trace::DEFAULT_JSON_TRACES);
                RouteResponse::new(200, self.tracer.recent_json_limited(limit))
            }
            ("POST", "/v1/infer") => return accept(self, request, completion),
            ("POST" | "GET", _) => {
                let message = format!("no route for {method} {path}");
                RouteResponse::new(404, protocol::error_body("not_found", &message))
            }
            _ => {
                let message = format!("unsupported method {method}");
                RouteResponse::new(405, protocol::error_body("method_not_allowed", &message))
            }
        };
        completion.complete(response);
    }
}

/// The typed error envelope: the error's status, `{"error": {code, message}}` and
/// its `Retry-After` hint.
fn error_response(error: &impl WireError) -> RouteResponse {
    RouteResponse::new(error.http_status(), protocol::error_json(error))
        .with_retry_after(error.retry_after_secs())
}

/// The answer half of one infer request. Consumed by exactly one of
/// [`Reply::ok`] / [`Reply::err`]; dropped unanswered, its completion answers a
/// generic 500.
pub struct Reply<S: Service> {
    shell: Arc<Shell<S>>,
    /// The request id: the client's, or minted by this hop.
    pub request_id: String,
    want_trace: bool,
    /// The request's trace (`None` unless sampled or asked for).
    pub trace: trace::TraceHandle,
    /// When the request's bytes reached the lifecycle, before decoding.
    pub received: Instant,
    completion: Completion,
}

impl<S: Service> Reply<S> {
    /// Answers 200 with `body`, stamped with the request id and, when the client
    /// asked, the spans recorded so far (the serialize/write spans land after the
    /// snapshot and stay local, covered upstream by the caller's attempt span).
    /// Once written, `record_write` gets the serialize + write microseconds.
    pub fn ok(self, mut body: JsonValue, record_write: impl FnOnce(&S, u64) + Send + 'static) {
        body.set("request_id", self.request_id.as_str());
        if let (true, Some(t)) = (self.want_trace, &self.trace) {
            body.set("trace", trace::spans_json(&t.snapshot()));
        }
        let (shell, trace) = (self.shell, self.trace);
        let response = RouteResponse::new(200, body).with_on_written(move |report| {
            record_write_spans(&trace, &report);
            record_write(&shell.service, report.serialize_us() + report.write_us());
            shell.tracer.finish(trace, 200);
        });
        self.completion.complete(response);
    }

    /// Answers with the typed error envelope and the request id, after the
    /// service counted the failure.
    pub fn err(self, error: S::Error) {
        let (shell, trace) = (self.shell, self.trace);
        shell.service.count_failure(&error);
        let mut response = error_response(&error);
        response.body.set("request_id", self.request_id.as_str());
        if trace.is_some() {
            let status = response.status;
            response = response.with_on_written(move |report| {
                record_write_spans(&trace, &report);
                shell.tracer.finish(trace, status);
            });
        }
        self.completion.complete(response);
    }
}

fn record_write_spans(trace: &trace::TraceHandle, report: &WriteReport) {
    if let Some(t) = trace {
        let (start, write) = (report.serialize_start, report.write_start);
        t.record("serialize", String::new(), start, write);
        t.record("write", String::new(), write, report.done);
    }
}
