//! Request tracing and structured logging for the serving stack, in the same
//! offline-shim discipline as the sibling `failpoint` crate: `std`-only (JSON comes
//! from the workspace's `serde` shim), no registry dependencies, and an inert
//! default configuration.
//!
//! # Tracing model
//!
//! A *trace* is one request's journey through the stack, identified by a
//! `request_id` that is generated at the first hop (gateway or engine) and carried
//! on the wire like `deadline_ms`. A trace is a flat list of [`Span`]s — named
//! `[start_us, start_us + dur_us]` windows relative to the trace origin, with
//! optional parent indices so a gateway can graft the engine-side spans it receives
//! in a reply under its own `backend_attempt` span.
//!
//! Sampling has two stages, decided by one [`Tracer`] per server:
//!
//! * **Head sampling** — `VITALITY_TRACE_SAMPLE` (or
//!   [`TraceConfig::sample`]) sets the probability that a request's finished trace
//!   is retained regardless of outcome. At the default rate `0.0` the tracer is
//!   *off*: [`Tracer::begin`] returns `None`, every span point downstream is a
//!   branch on an `Option` that is never `Some`, and nothing allocates — the
//!   serving hot path stays on its zero-steady-state-allocation diet (covered by
//!   the workspace's `alloc_regression` test).
//! * **Tail sampling** — with any non-zero rate, *every* request records spans,
//!   and [`Tracer::finish`] additionally retains traces that ended in a 5xx/504
//!   status or were [flagged](ActiveTrace::flag) by a failover/retry, whatever the
//!   head-sampling draw said. The retained traces live in a bounded ring buffer
//!   served by `GET /debug/traces`.
//!
//! # Worked example: adding a span to a new pipeline stage
//!
//! Say the engine grows a pre-processing stage (image normalisation) that should
//! show up in span trees. The handler already owns a [`TraceHandle`] for the
//! request; wrap the stage in two `Instant`s and record between them:
//!
//! ```ignore
//! let start = Instant::now();
//! normalise(&mut image);
//! if let Some(t) = &trace {
//!     t.record("normalise", String::new(), start, Instant::now());
//! }
//! ```
//!
//! That is the whole integration: when tracing is off `trace` is `None` and the
//! stage costs one never-taken branch; when it is on, the span appears in
//! `/debug/traces`, in the reply's embedded span list (so an upstream gateway
//! grafts it into its own tree), and in the chrome://tracing file a traced
//! `benchmark/` run writes. Give the span a `detail` string (the attention-variant
//! label, a backend address) when one label per name is not enough — detail is what
//! the stage histograms and trace viewers group by.
//!
//! # Logging
//!
//! [`warn!`], [`info!`] and [`debug!`] write leveled, structured lines to stderr:
//! elapsed time, level, thread name, module path and — when the handler installed a
//! [`request_scope`] — the request id, so one grep correlates a client-reported id
//! with every log line its request produced. `VITALITY_LOG` picks the maximum
//! level (`off`, `warn` (default), `info`, `debug`); disabled levels cost one
//! atomic load and never format their arguments.

#![deny(missing_docs)]

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::json::JsonValue;

/// Hard cap on spans accepted from a remote (reply-embedded) span list, so a
/// misbehaving backend cannot balloon a gateway trace.
const MAX_REMOTE_SPANS: usize = 512;

/// Hard cap on spans recorded into one trace; later records are dropped silently
/// (a runaway retry loop must not turn a trace into an unbounded allocation).
const MAX_TRACE_SPANS: usize = 4096;

// ---------------------------------------------------------------------------
// Request ids
// ---------------------------------------------------------------------------

/// Generates a fresh 16-hex-character request id.
///
/// Mixes wall-clock nanoseconds, the process id and a process-wide counter
/// through an xorshift64* finaliser — unique enough to correlate logs and traces
/// across a cluster without coordination, and cheap enough for the per-request
/// path (one atomic increment, no locks).
pub fn new_request_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let salt = COUNTER
        .fetch_add(1, Ordering::Relaxed)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut x = nanos ^ salt ^ ((std::process::id() as u64) << 32);
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    format!("{:016x}", x.wrapping_mul(0x2545_F491_4F6C_DD1D))
}

// ---------------------------------------------------------------------------
// Spans and traces
// ---------------------------------------------------------------------------

/// One named timing window inside a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name (`"queue_wait"`, `"backend_attempt"`, ...). Borrowed for the
    /// statically named local stages, owned for spans grafted from a reply.
    pub name: Cow<'static, str>,
    /// Free-form qualifier: the attention-variant label, a backend address, an
    /// error summary. Empty when the name says it all.
    pub detail: String,
    /// Start offset in microseconds since the trace origin.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Index of the parent span inside the same trace (`None` for a root span).
    pub parent: Option<u32>,
}

/// A finished, retained trace as stored in the tracer's ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedTrace {
    /// The propagated request id.
    pub id: String,
    /// HTTP status the request was answered with.
    pub status: u16,
    /// Total origin → finish duration in microseconds (finish runs after the
    /// response bytes are written, so this is the server-side end-to-end time).
    pub total_us: u64,
    /// When the trace was retained — `GET /debug/traces` reports each trace's
    /// age from this, so a dashboard can tell a fresh incident from stale
    /// ring-buffer residue.
    pub finished: Instant,
    /// The recorded spans, in recording order (parent indices point into this).
    pub spans: Vec<Span>,
}

/// One in-flight request's span recorder.
///
/// Lock-light by construction: the only lock is a per-request mutex around the
/// span vector, shared between the connection handler and (briefly) the worker
/// thread that runs the request's batch — never contended across requests.
#[derive(Debug)]
pub struct ActiveTrace {
    id: String,
    origin: Instant,
    head_sampled: bool,
    flagged: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

/// What span points carry through the stack: `None` when tracing is off for this
/// request (the near-no-op mode), `Some` when spans are being recorded.
pub type TraceHandle = Option<Arc<ActiveTrace>>;

impl ActiveTrace {
    /// The request id this trace belongs to.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The instant all span offsets are relative to.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Whether the head-sampling draw already retains this trace.
    pub fn head_sampled(&self) -> bool {
        self.head_sampled
    }

    /// Marks the trace as tail-sample-worthy regardless of final status — called
    /// when a backend attempt fails, so a request that *recovered* through
    /// failover still leaves its evidence in `/debug/traces`.
    pub fn flag(&self) {
        self.flagged.store(true, Ordering::Relaxed);
    }

    fn offset_us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// Records a root span covering `[start, end]`. Returns the span's index for
    /// use as a parent of later spans.
    pub fn record(
        &self,
        name: impl Into<Cow<'static, str>>,
        detail: String,
        start: Instant,
        end: Instant,
    ) -> u32 {
        self.push(name.into(), detail, start, end, None)
    }

    /// Records a span as a child of the span at `parent`.
    pub fn record_child(
        &self,
        parent: u32,
        name: impl Into<Cow<'static, str>>,
        detail: String,
        start: Instant,
        end: Instant,
    ) -> u32 {
        self.push(name.into(), detail, start, end, Some(parent))
    }

    fn push(
        &self,
        name: Cow<'static, str>,
        detail: String,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
    ) -> u32 {
        let start_us = self.offset_us(start);
        let dur_us = self.offset_us(end).saturating_sub(start_us);
        let mut spans = self.spans.lock().expect("trace span lock poisoned");
        if spans.len() >= MAX_TRACE_SPANS {
            return (spans.len() - 1) as u32;
        }
        spans.push(Span {
            name,
            detail,
            start_us,
            dur_us,
            parent,
        });
        (spans.len() - 1) as u32
    }

    /// Grafts a remote span list (an engine's reply-embedded spans) under the
    /// local span at `parent`, rebasing offsets so the remote origin aligns with
    /// `base` — the instant the local side started the remote call. Remote parent
    /// indices are remapped; out-of-range ones fall back to `parent`.
    pub fn graft(&self, parent: u32, base: Instant, remote: &[Span]) {
        let base_us = self.offset_us(base);
        let mut spans = self.spans.lock().expect("trace span lock poisoned");
        let offset = spans.len() as u32;
        for span in remote.iter().take(MAX_REMOTE_SPANS) {
            if spans.len() >= MAX_TRACE_SPANS {
                break;
            }
            let mapped = match span.parent {
                Some(p) if (p as usize) < remote.len() => Some(offset + p),
                _ => Some(parent),
            };
            spans.push(Span {
                name: span.name.clone(),
                detail: span.detail.clone(),
                start_us: base_us + span.start_us,
                dur_us: span.dur_us,
                parent: mapped,
            });
        }
    }

    /// A copy of the spans recorded so far (what an engine embeds in its reply).
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("trace span lock poisoned").clone()
    }
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

/// Tracer tunables. `Default` reads the environment: sampling rate from
/// `VITALITY_TRACE_SAMPLE` (default `0` = tracing off), ring capacity 64.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Head-sampling probability in `[0.0, 1.0]`; `None` reads
    /// `VITALITY_TRACE_SAMPLE` at [`Tracer::new`] time. `0.0` disables recording
    /// entirely (the zero-allocation mode); any non-zero rate records every
    /// request and retains head-sampled + tail-flagged ones.
    pub sample: Option<f64>,
    /// Completed traces retained for `GET /debug/traces` (oldest evicted first).
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            sample: None,
            ring_capacity: 64,
        }
    }
}

/// Default newest-N cap on the `GET /debug/traces` body ([`Tracer::recent_json`]);
/// callers override per request via [`Tracer::recent_json_limited`]. Smaller than
/// the default ring so a debug scrape stays cheap even with a large retention ring.
pub const DEFAULT_JSON_TRACES: usize = 32;

/// One server's sampling policy plus the ring buffer of retained traces.
#[derive(Debug)]
pub struct Tracer {
    /// Head-sampling threshold in parts-per-million; 0 = recording off.
    threshold_ppm: u32,
    ring_capacity: usize,
    ring: Mutex<VecDeque<CompletedTrace>>,
    rng: AtomicU64,
}

impl Tracer {
    /// Builds a tracer from `config` (see [`TraceConfig::sample`] for the
    /// environment fallback).
    pub fn new(config: &TraceConfig) -> Self {
        let rate = config.sample.unwrap_or_else(env_sample_rate);
        let threshold_ppm = (rate.clamp(0.0, 1.0) * 1_000_000.0).round() as u32;
        Self {
            threshold_ppm,
            ring_capacity: config.ring_capacity,
            ring: Mutex::new(VecDeque::new()),
            rng: AtomicU64::new(0x5EED_1E55_C0FF_EE00),
        }
    }

    /// Whether any recording happens at all (a non-zero sampling rate).
    pub fn enabled(&self) -> bool {
        self.threshold_ppm > 0
    }

    /// Opens a trace for one request. Returns `None` — the no-op mode — unless
    /// recording is enabled or `forced` is set (an upstream hop asked for the
    /// spans back via the request's `"trace"` flag). `origin` anchors all span
    /// offsets; pass the instant the handler first saw the request so
    /// pre-parse work is attributable.
    pub fn begin(&self, id: &str, origin: Instant, forced: bool) -> TraceHandle {
        if self.threshold_ppm == 0 && !forced {
            return None;
        }
        let head_sampled = self.threshold_ppm > 0
            && (self.threshold_ppm >= 1_000_000 || self.draw_ppm() < self.threshold_ppm);
        Some(Arc::new(ActiveTrace {
            id: id.to_string(),
            origin,
            head_sampled,
            flagged: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }))
    }

    /// Closes a trace with the request's final HTTP status, retaining it in the
    /// ring when head-sampled, ended ≥ 500, or [flagged](ActiveTrace::flag).
    /// Call after the response bytes are written so `total_us` covers the
    /// serialize/write stages too. A `None` handle is a free no-op.
    pub fn finish(&self, handle: TraceHandle, status: u16) {
        let Some(active) = handle else { return };
        let keep = active.head_sampled || status >= 500 || active.flagged.load(Ordering::Relaxed);
        if !keep || self.ring_capacity == 0 {
            return;
        }
        let completed = CompletedTrace {
            id: active.id.clone(),
            status,
            total_us: active.origin.elapsed().as_micros() as u64,
            finished: Instant::now(),
            spans: active.snapshot(),
        };
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        while ring.len() >= self.ring_capacity {
            ring.pop_front();
        }
        ring.push_back(completed);
    }

    /// The retained traces, oldest first.
    pub fn recent(&self) -> Vec<CompletedTrace> {
        self.ring
            .lock()
            .expect("trace ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// The `GET /debug/traces` body: retained traces as nested span trees,
    /// capped to the default newest-[`DEFAULT_JSON_TRACES`] window.
    pub fn recent_json(&self) -> JsonValue {
        self.recent_json_limited(DEFAULT_JSON_TRACES)
    }

    /// [`Tracer::recent_json`] with an explicit cap: only the *newest* `limit`
    /// retained traces are returned (newest last, matching ring order), each
    /// annotated with its age in seconds since retention. `retained` reports
    /// how many traces the ring actually holds so a capped response is visibly
    /// capped.
    pub fn recent_json_limited(&self, limit: usize) -> JsonValue {
        let recent = self.recent();
        let skip = recent.len().saturating_sub(limit);
        let traces: Vec<JsonValue> = recent[skip..]
            .iter()
            .map(|trace| {
                let mut tree = trace_tree_json(trace);
                tree.set("age_s", trace.finished.elapsed().as_secs_f64());
                tree
            })
            .collect();
        let mut body = JsonValue::object();
        body.set("enabled", self.enabled())
            .set("retained", recent.len() as u64)
            .set("returned", traces.len() as u64)
            .set("traces", traces);
        body
    }

    /// Weyl-sequence + xorshift draw in `[0, 1_000_000)` — no locks, no
    /// allocation, deterministic per tracer.
    fn draw_ppm(&self) -> u32 {
        let mut x = self.rng.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % 1_000_000) as u32
    }
}

fn env_sample_rate() -> f64 {
    match std::env::var("VITALITY_TRACE_SAMPLE") {
        Ok(raw) => match raw.trim().parse::<f64>() {
            Ok(rate) if (0.0..=1.0).contains(&rate) => rate,
            _ => {
                crate::warn!(
                    "ignoring VITALITY_TRACE_SAMPLE={raw:?}: expected a rate in [0.0, 1.0]"
                );
                0.0
            }
        },
        Err(_) => 0.0,
    }
}

// ---------------------------------------------------------------------------
// JSON codecs
// ---------------------------------------------------------------------------

/// Serialises spans as the flat array embedded in a reply's `"trace"` block:
/// `[{"name", "detail", "start_us", "dur_us", "parent"?}, ...]`.
pub fn spans_json(spans: &[Span]) -> JsonValue {
    let items: Vec<JsonValue> = spans
        .iter()
        .map(|span| {
            let mut item = JsonValue::object();
            item.set("name", span.name.as_ref())
                .set("detail", span.detail.as_str())
                .set("start_us", span.start_us)
                .set("dur_us", span.dur_us);
            if let Some(parent) = span.parent {
                item.set("parent", parent);
            }
            item
        })
        .collect();
    JsonValue::from(items)
}

/// Parses a reply-embedded span array back into spans (the gateway half of
/// [`spans_json`]). Returns `None` when the value is not a span array; entries
/// missing required fields are skipped, and at most `MAX_REMOTE_SPANS` (512) entries
/// are read.
pub fn spans_from_json(value: &JsonValue) -> Option<Vec<Span>> {
    let items = value.as_array()?;
    let mut spans = Vec::with_capacity(items.len().min(MAX_REMOTE_SPANS));
    for item in items.iter().take(MAX_REMOTE_SPANS) {
        let (Some(name), Some(start_us), Some(dur_us)) = (
            item.get("name").and_then(JsonValue::as_str),
            item.get("start_us").and_then(JsonValue::as_usize),
            item.get("dur_us").and_then(JsonValue::as_usize),
        ) else {
            continue;
        };
        spans.push(Span {
            name: Cow::Owned(name.to_string()),
            detail: item
                .get("detail")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
            start_us: start_us as u64,
            dur_us: dur_us as u64,
            parent: item
                .get("parent")
                .and_then(JsonValue::as_usize)
                .map(|p| p as u32),
        });
    }
    Some(spans)
}

/// One retained trace as a nested span tree:
/// `{"id", "status", "total_us", "spans": [{.., "children": [..]}]}`.
pub fn trace_tree_json(trace: &CompletedTrace) -> JsonValue {
    fn node(trace: &CompletedTrace, index: usize) -> JsonValue {
        let span = &trace.spans[index];
        let children: Vec<JsonValue> = trace
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(index as u32))
            .map(|(i, _)| node(trace, i))
            .collect();
        let mut item = JsonValue::object();
        item.set("name", span.name.as_ref())
            .set("detail", span.detail.as_str())
            .set("start_us", span.start_us)
            .set("dur_us", span.dur_us)
            .set("children", children);
        item
    }
    let roots: Vec<JsonValue> = trace
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none())
        .map(|(i, _)| node(trace, i))
        .collect();
    let mut body = JsonValue::object();
    body.set("id", trace.id.as_str())
        .set("status", trace.status as u64)
        .set("total_us", trace.total_us)
        .set("spans", roots);
    body
}

/// Converts retained traces to the `chrome://tracing` / Perfetto JSON object
/// format (one complete-event per span; one `tid` row per trace) — what a
/// `--trace 1` run of `benchmark/` writes as `benchmark/results/trace-<workload>.json`.
pub fn chrome_trace_json(traces: &[CompletedTrace]) -> JsonValue {
    let mut events = Vec::new();
    for (tid, trace) in traces.iter().enumerate() {
        let mut request = JsonValue::object();
        request
            .set("request_id", trace.id.as_str())
            .set("status", trace.status as u64);
        let mut top = JsonValue::object();
        top.set("name", format!("request {}", trace.id))
            .set("cat", "request")
            .set("ph", "X")
            .set("ts", 0u64)
            .set("dur", trace.total_us)
            .set("pid", 1u64)
            .set("tid", tid as u64)
            .set("args", request);
        events.push(top);
        for span in &trace.spans {
            let mut args = JsonValue::object();
            args.set("detail", span.detail.as_str())
                .set("request_id", trace.id.as_str());
            let mut event = JsonValue::object();
            event
                .set("name", span.name.as_ref())
                .set("cat", "span")
                .set("ph", "X")
                .set("ts", span.start_us)
                .set("dur", span.dur_us)
                .set("pid", 1u64)
                .set("tid", tid as u64)
                .set("args", args);
            events.push(event);
        }
    }
    let mut body = JsonValue::object();
    body.set("traceEvents", events).set("displayTimeUnit", "ms");
    body
}

// ---------------------------------------------------------------------------
// Structured leveled logging
// ---------------------------------------------------------------------------

/// Log severity, most severe first. `VITALITY_LOG` picks the maximum level that
/// is emitted (`off`, `warn`, `info`, `debug`); the default is `warn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Something is wrong but being handled (fallbacks, ejections, panics
    /// absorbed). Emitted by default.
    Warn = 1,
    /// Notable state transitions (re-admissions, brownout entry/exit).
    Info = 2,
    /// Per-event diagnostics (individual probe failures).
    Debug = 3,
}

impl Level {
    fn label(self) -> &'static str {
        match self {
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
        }
    }
}

/// Parses a `VITALITY_LOG` value into a maximum-level number (`0` = off). Accepts
/// the level names case-insensitively plus `error` (alias of `warn`, the most
/// severe level this logger has) and `trace` (alias of `debug`).
pub fn parse_level(raw: &str) -> Option<u8> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "off" | "none" | "0" => Some(0),
        "warn" | "warning" | "error" => Some(1),
        "info" => Some(2),
        "debug" | "trace" => Some(3),
        _ => None,
    }
}

fn max_level() -> u8 {
    static MAX: OnceLock<u8> = OnceLock::new();
    *MAX.get_or_init(|| {
        std::env::var("VITALITY_LOG")
            .ok()
            .and_then(|raw| parse_level(&raw))
            .unwrap_or(1)
    })
}

/// Whether `level` is currently emitted — the macros check this first, so a
/// disabled level never formats its arguments.
pub fn log_enabled(level: Level) -> bool {
    (level as u8) <= max_level()
}

/// Writes one structured log line (use the [`warn!`]/[`info!`]/[`debug!`] macros
/// rather than calling this directly): elapsed seconds since first log, level,
/// thread name, `target` (the macros pass `module_path!`), the current
/// [`request_scope`] id when one is installed, then the message.
pub fn log(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    static START: OnceLock<Instant> = OnceLock::new();
    let elapsed = START.get_or_init(Instant::now).elapsed();
    let thread = std::thread::current();
    let req = current_request_id().map_or(String::new(), |id| format!(" req={id}"));
    eprintln!(
        "[{:10.3}s {:5} {} {}{}] {}",
        elapsed.as_secs_f64(),
        level.label(),
        thread.name().unwrap_or("<unnamed>"),
        target,
        req,
        args
    );
}

thread_local! {
    static REQUEST_ID: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// RAII guard restoring the previous thread-local request-id context on drop.
#[derive(Debug)]
pub struct RequestIdScope {
    prev: Option<String>,
}

/// Installs `id` as this thread's request-id logging context until the returned
/// guard drops (scopes nest; the previous id is restored).
pub fn request_scope(id: &str) -> RequestIdScope {
    let prev = REQUEST_ID.with(|slot| slot.borrow_mut().replace(id.to_string()));
    RequestIdScope { prev }
}

impl Drop for RequestIdScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        REQUEST_ID.with(|slot| *slot.borrow_mut() = prev);
    }
}

/// The request id installed on this thread by [`request_scope`], if any.
pub fn current_request_id() -> Option<String> {
    REQUEST_ID.with(|slot| slot.borrow().clone())
}

/// Logs at [`Level::Warn`] with `format!` syntax.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        if $crate::log_enabled($crate::Level::Warn) {
            $crate::log($crate::Level::Warn, module_path!(), format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`] with `format!` syntax.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::log_enabled($crate::Level::Info) {
            $crate::log($crate::Level::Info, module_path!(), format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Debug`] with `format!` syntax.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::log_enabled($crate::Level::Debug) {
            $crate::log($crate::Level::Debug, module_path!(), format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tracer(sample: f64, ring: usize) -> Tracer {
        Tracer::new(&TraceConfig {
            sample: Some(sample),
            ring_capacity: ring,
        })
    }

    #[test]
    fn rate_zero_returns_no_handle_and_finish_is_a_no_op() {
        let t = tracer(0.0, 8);
        assert!(!t.enabled());
        let handle = t.begin("deadbeef00000000", Instant::now(), false);
        assert!(handle.is_none(), "sampling off must be the no-op mode");
        t.finish(handle, 200);
        t.finish(None, 500);
        assert!(t.recent().is_empty());
    }

    #[test]
    fn forced_traces_record_even_at_rate_zero_but_are_only_tail_retained() {
        let t = tracer(0.0, 8);
        let origin = Instant::now();
        let handle = t.begin("0000000000000001", origin, true);
        let active = handle.as_ref().expect("forced begin records");
        assert!(!active.head_sampled());
        active.record("parse", String::new(), origin, Instant::now());
        assert_eq!(active.snapshot().len(), 1);
        // A forced-but-successful trace is for the caller (reply embedding), not
        // the ring.
        t.finish(handle, 200);
        assert!(t.recent().is_empty());
        // The same forced trace ending 500 is tail-sampled.
        let handle = t.begin("0000000000000002", Instant::now(), true);
        t.finish(handle, 500);
        assert_eq!(t.recent().len(), 1);
        assert_eq!(t.recent()[0].status, 500);
    }

    #[test]
    fn full_sampling_retains_successes_and_the_ring_is_bounded() {
        let t = tracer(1.0, 3);
        for i in 0..5 {
            let handle = t.begin(&format!("{i:016x}"), Instant::now(), false);
            assert!(handle.as_ref().is_some_and(|h| h.head_sampled()));
            t.finish(handle, 200);
        }
        let recent = t.recent();
        assert_eq!(recent.len(), 3, "oldest traces evicted at capacity");
        assert_eq!(recent[0].id, format!("{:016x}", 2));
        assert_eq!(recent[2].id, format!("{:016x}", 4));
    }

    #[test]
    fn flagged_traces_survive_a_success_status() {
        let t = tracer(0.000001, 8);
        // Practically never head-sampled; the flag (a failover happened) retains.
        let mut kept = 0;
        for _ in 0..20 {
            let handle = t.begin("00000000000000aa", Instant::now(), false);
            let active = handle.as_ref().expect("non-zero rate records all");
            active.flag();
            t.finish(handle, 200);
            kept += 1;
        }
        assert_eq!(t.recent().len(), kept.min(8));
    }

    #[test]
    fn sampling_rate_is_respected_statistically() {
        let t = tracer(0.25, 4096);
        let mut sampled = 0;
        for _ in 0..4000 {
            if t.begin("x", Instant::now(), false)
                .is_some_and(|h| h.head_sampled())
            {
                sampled += 1;
            }
        }
        assert!(
            (600..=1400).contains(&sampled),
            "~25% of 4000 draws expected, got {sampled}"
        );
    }

    #[test]
    fn spans_nest_and_survive_the_json_round_trip() {
        let t = tracer(1.0, 4);
        let origin = Instant::now();
        let handle = t.begin("00000000000000ff", origin, false);
        let active = handle.as_ref().unwrap();
        let parent = active.record(
            "backend_attempt",
            "127.0.0.1:1".into(),
            origin,
            origin + Duration::from_micros(900),
        );
        active.record_child(
            parent,
            "compute",
            "taylor".into(),
            origin + Duration::from_micros(100),
            origin + Duration::from_micros(700),
        );
        let flat = spans_json(&active.snapshot());
        let parsed = serde::json::parse(&flat.to_json()).unwrap();
        let back = spans_from_json(&parsed).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "backend_attempt");
        assert_eq!(back[1].parent, Some(0));
        assert_eq!(back[1].dur_us, 600);

        t.finish(handle, 200);
        let tree = trace_tree_json(&t.recent()[0]);
        let roots = tree.get("spans").and_then(JsonValue::as_array).unwrap();
        assert_eq!(roots.len(), 1);
        let children = roots[0]
            .get("children")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(
            children[0].get("name").and_then(JsonValue::as_str),
            Some("compute")
        );
    }

    #[test]
    fn grafting_rebases_offsets_and_remaps_parents() {
        let t = tracer(1.0, 4);
        let origin = Instant::now();
        let handle = t.begin("0000000000000abc", origin, false);
        let active = handle.as_ref().unwrap();
        let attempt_start = origin + Duration::from_micros(1000);
        let attempt = active.record(
            "backend_attempt",
            String::new(),
            attempt_start,
            attempt_start + Duration::from_micros(500),
        );
        let remote = vec![
            Span {
                name: Cow::Borrowed("parse"),
                detail: String::new(),
                start_us: 10,
                dur_us: 20,
                parent: None,
            },
            Span {
                name: Cow::Borrowed("compute"),
                detail: "taylor".into(),
                start_us: 40,
                dur_us: 100,
                parent: Some(0),
            },
        ];
        active.graft(attempt, attempt_start, &remote);
        let spans = active.snapshot();
        assert_eq!(spans.len(), 3);
        // Remote roots hang off the attempt span; nested remote parents remap.
        assert_eq!(spans[1].parent, Some(attempt));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].start_us, 1010);
        assert_eq!(spans[2].start_us, 1040);
    }

    #[test]
    fn chrome_export_emits_one_complete_event_per_span() {
        let trace = CompletedTrace {
            id: "00000000000000aa".into(),
            status: 200,
            total_us: 1500,
            finished: Instant::now(),
            spans: vec![Span {
                name: Cow::Borrowed("compute"),
                detail: "taylor".into(),
                start_us: 100,
                dur_us: 900,
                parent: None,
            }],
        };
        let body = chrome_trace_json(&[trace]);
        let events = body
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        // One request-level event plus one per span.
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(JsonValue::as_str), Some("X"));
        assert_eq!(
            events[1].get("dur").and_then(JsonValue::as_usize),
            Some(900)
        );
    }

    #[test]
    fn request_ids_are_sixteen_hex_chars_and_distinct() {
        let a = new_request_id();
        let b = new_request_id();
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a, b);
    }

    #[test]
    fn level_filter_parses_all_spellings() {
        assert_eq!(parse_level("off"), Some(0));
        assert_eq!(parse_level("WARN"), Some(1));
        assert_eq!(parse_level("error"), Some(1));
        assert_eq!(parse_level(" info "), Some(2));
        assert_eq!(parse_level("debug"), Some(3));
        assert_eq!(parse_level("trace"), Some(3));
        assert_eq!(parse_level("verbose"), None);
    }

    #[test]
    fn request_scopes_nest_and_restore() {
        assert_eq!(current_request_id(), None);
        {
            let _outer = request_scope("aaaa");
            assert_eq!(current_request_id().as_deref(), Some("aaaa"));
            {
                let _inner = request_scope("bbbb");
                assert_eq!(current_request_id().as_deref(), Some("bbbb"));
            }
            assert_eq!(current_request_id().as_deref(), Some("aaaa"));
        }
        assert_eq!(current_request_id(), None);
    }
}
