//! The epoll-based connection front: one event-loop thread drives every
//! connection of a server through readiness-polled non-blocking I/O.
//!
//! ```text
//!              ┌───────────────────────────────────────────────┐
//!              │ event-loop thread (named `<prefix>-<port>`)   │
//! accept ─────►│  HttpParser per conn (incremental, zero-copy) │
//!              │      │ complete request                       │
//!              │      ▼                                        │
//!              │  dispatch(&FrontRequest, Completion) ─────────┼──► batcher / pool…
//!              │      ▲                                        │
//!              │      │ completions queue + eventfd waker      │
//!              └──────┴────────────────────────────────────────┘
//! ```
//!
//! The dispatcher answers each request through its [`Completion`] — inline on
//! the loop thread for cheap GETs, or later from a worker thread for inference.
//! Responses are written strictly in request order per connection (pipelining),
//! with out-of-order completions stashed until their turn. Readiness is
//! level-triggered; per-connection reading pauses once `max_pipeline` requests
//! are unanswered, so a fast pipeliner is backpressured through the kernel
//! socket buffer instead of growing the parse buffer without bound.
//!
//! On platforms without epoll (or with `VITALITY_FORCE_THREADED_FRONT=1`), the
//! front transparently falls back to the classic thread-per-connection model
//! over the same dispatcher, so the server logic above it is identical.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mio::{Events, Interest, Poll, Token, Waker};

use crate::http::{
    serve_connection, EncodedResponse, HttpMessage, HttpParser, ParseStatus, RouteResponse,
    WriteReport,
};
use crate::protocol;

/// Tunables of the connection front.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Poll timeout; doubles as the shutdown/stop poll interval.
    pub poll_interval: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Per-connection cap on dispatched-but-unanswered pipelined requests;
    /// reading pauses at the cap (kernel-buffer backpressure) and resumes as
    /// responses drain.
    pub max_pipeline: usize,
    /// Name of the event-loop thread (e.g. `serve-conn-8080`). Failpoint
    /// thread-prefix scoping keys off this, exactly as it keyed off the
    /// per-connection thread names of the blocking front.
    pub thread_name: String,
}

impl Default for FrontConfig {
    fn default() -> Self {
        Self {
            poll_interval: Duration::from_millis(50),
            max_body_bytes: 16 * 1024 * 1024,
            max_pipeline: 64,
            thread_name: "serve-conn".to_string(),
        }
    }
}

/// One parsed request as handed to the dispatcher: the start line and headers
/// from the parsed head, and the body borrowed zero-copy from the connection's
/// parse buffer (valid only for the duration of the dispatch call — decode what
/// you need, don't store the slice).
pub struct FrontRequest<'a> {
    /// The request line, verbatim (`POST /v1/infer HTTP/1.1`).
    pub start_line: &'a str,
    /// Header name/value pairs in arrival order (names lower-cased).
    pub headers: &'a [(String, String)],
    /// The request body (zero-copy slice into the parse buffer).
    pub body: &'a [u8],
}

impl FrontRequest<'_> {
    /// Splits the request line into `(method, path)`.
    pub fn request_parts(&self) -> io::Result<(&str, &str)> {
        let mut parts = self.start_line.split_whitespace();
        match (parts.next(), parts.next()) {
            (Some(method), Some(path)) => Ok((method, path)),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed request line",
            )),
        }
    }

    /// First header value with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

// 0, the `Default`, is "unstarted".
const LOOP_MODE_EVENT: u8 = 1;
const LOOP_MODE_THREADED: u8 = 2;

/// Loop-health counters answering "is the single loop thread the next wall":
/// epoll wakeups, ready events per wake, the completion-queue depth, and
/// saturation — the fraction of loop wall-clock spent *outside* `epoll_wait`
/// (parsing, dispatching, writing). All lock-free; sampled by `/metrics` and
/// `/healthz`. The threaded fallback reports its mode and leaves the loop
/// counters at zero (saturation reads as absent).
#[derive(Debug, Default)]
pub struct LoopStats {
    /// `epoll_wait` returns (including timeouts and waker wakeups).
    pub wakeups: AtomicU64,
    /// Ready events summed over all wakeups.
    pub ready_events: AtomicU64,
    /// Completions drained off the dispatch queue, total.
    pub completions: AtomicU64,
    /// Current depth of the completion (dispatch) queue.
    pub queue_depth: AtomicU64,
    /// Deepest completion-queue backlog observed.
    pub max_queue_depth: AtomicU64,
    /// Nanoseconds the loop spent busy (outside the poll call).
    pub busy_ns: AtomicU64,
    /// Nanoseconds the loop spent parked inside the poll call.
    pub idle_ns: AtomicU64,
    mode: AtomicU8,
}

impl LoopStats {
    /// Which front implementation is reporting: `"event"`, `"threaded"`, or
    /// `"unstarted"`.
    pub fn mode(&self) -> &'static str {
        match self.mode.load(Ordering::Relaxed) {
            LOOP_MODE_EVENT => "event",
            LOOP_MODE_THREADED => "threaded",
            _ => "unstarted",
        }
    }

    /// Mean ready events per wakeup (`None` before the first wakeup).
    pub fn events_per_wake(&self) -> Option<f64> {
        let wakeups = self.wakeups.load(Ordering::Relaxed);
        if wakeups == 0 {
            return None;
        }
        Some(self.ready_events.load(Ordering::Relaxed) as f64 / wakeups as f64)
    }

    /// Fraction of loop time spent outside `epoll_wait` (`None` until the loop
    /// has run, and always `None` on the threaded fallback).
    pub fn saturation(&self) -> Option<f64> {
        let busy = self.busy_ns.load(Ordering::Relaxed);
        let idle = self.idle_ns.load(Ordering::Relaxed);
        if busy + idle == 0 {
            return None;
        }
        Some(busy as f64 / (busy + idle) as f64)
    }

    /// The loop-health JSON block shared by `/metrics` and `/healthz`.
    pub fn json(&self) -> serde::json::JsonValue {
        let mut block = serde::json::JsonValue::object();
        block
            .set("mode", self.mode())
            .set("wakeups", self.wakeups.load(Ordering::Relaxed))
            .set("ready_events", self.ready_events.load(Ordering::Relaxed))
            .set("completions", self.completions.load(Ordering::Relaxed))
            .set("queue_depth", self.queue_depth.load(Ordering::Relaxed))
            .set(
                "max_queue_depth",
                self.max_queue_depth.load(Ordering::Relaxed),
            );
        match self.events_per_wake() {
            Some(v) => block.set("events_per_wake", v),
            None => block.set("events_per_wake", serde::json::JsonValue::Null),
        };
        match self.saturation() {
            Some(v) => block.set("saturation", v),
            None => block.set("saturation", serde::json::JsonValue::Null),
        };
        block
    }

    /// Register the loop-health series into a Prometheus scrape under
    /// `<prefix>_event_loop_*` names, labelled with the loop mode.
    pub fn register(&self, reg: &mut crate::exposition::MetricsRegistry, prefix: &str) {
        let mode = self.mode();
        let labels: &[(&str, &str)] = &[("mode", mode)];
        reg.counter(
            &format!("{prefix}_event_loop_wakeups_total"),
            "epoll_wait returns on the connection-front loop thread",
            labels,
            self.wakeups.load(Ordering::Relaxed) as f64,
        );
        reg.counter(
            &format!("{prefix}_event_loop_ready_events_total"),
            "Ready events summed over all wakeups",
            labels,
            self.ready_events.load(Ordering::Relaxed) as f64,
        );
        reg.counter(
            &format!("{prefix}_event_loop_completions_total"),
            "Responses drained off the completion queue",
            labels,
            self.completions.load(Ordering::Relaxed) as f64,
        );
        reg.gauge(
            &format!("{prefix}_event_loop_queue_depth"),
            "Current completion (dispatch) queue depth",
            labels,
            self.queue_depth.load(Ordering::Relaxed) as f64,
        );
        reg.gauge(
            &format!("{prefix}_event_loop_max_queue_depth"),
            "Deepest completion-queue backlog observed",
            labels,
            self.max_queue_depth.load(Ordering::Relaxed) as f64,
        );
        if let Some(saturation) = self.saturation() {
            reg.gauge(
                &format!("{prefix}_event_loop_saturation"),
                "Fraction of loop time spent outside epoll_wait",
                labels,
                saturation,
            );
        }
    }
}

/// The completion queue and stop flag shared between the loop thread and
/// completions fired from worker threads.
struct FrontShared {
    waker: Option<Waker>,
    completions: Mutex<Vec<(u64, u64, RouteResponse)>>,
    stop: AtomicBool,
    stats: Arc<LoopStats>,
}

impl FrontShared {
    fn push(&self, conn: u64, seq: u64, response: RouteResponse) {
        // Completions may fire on a panicking worker's unwind path (the
        // responder drop guard); a poisoned mutex must not lose the response.
        let depth = {
            let mut queue = self
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            queue.push((conn, seq, response));
            queue.len() as u64
        };
        self.stats.queue_depth.store(depth, Ordering::Relaxed);
        self.stats
            .max_queue_depth
            .fetch_max(depth, Ordering::Relaxed);
        if let Some(waker) = &self.waker {
            let _ = waker.wake();
        }
    }
}

enum CompletionSink {
    /// Event-loop mode: enqueue for the loop and wake it.
    Event {
        shared: Arc<FrontShared>,
        conn: u64,
        seq: u64,
    },
    /// Threaded-fallback mode: rendezvous with the blocked connection thread.
    Sync(mpsc::Sender<RouteResponse>),
}

/// The one-shot reply handle for a dispatched request.
///
/// Every request is completed exactly once: either explicitly via
/// [`Completion::complete`] (from any thread), or — if the completion is
/// dropped unanswered, e.g. on a dispatcher panic — by a drop guard that
/// answers a generic 500 so the connection's response pipeline never stalls on
/// a hole in the sequence.
pub struct Completion {
    sink: Option<CompletionSink>,
}

impl Completion {
    /// Delivers the response for this request. Callable from any thread.
    pub fn complete(mut self, response: RouteResponse) {
        self.deliver(response);
    }

    fn deliver(&mut self, response: RouteResponse) {
        match self.sink.take() {
            Some(CompletionSink::Event { shared, conn, seq }) => {
                shared.push(conn, seq, response);
            }
            // The connection thread may have given up (shutdown); fine.
            Some(CompletionSink::Sync(tx)) => drop(tx.send(response)),
            None => {}
        }
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if self.sink.is_some() {
            self.deliver(RouteResponse::new(
                500,
                protocol::error_body("internal", "request dropped without a response"),
            ));
        }
    }
}

impl std::fmt::Debug for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.sink {
            Some(CompletionSink::Event { conn, seq, .. }) => format!("event({conn}#{seq})"),
            Some(CompletionSink::Sync(_)) => "sync".to_string(),
            None => "completed".to_string(),
        };
        f.debug_tuple("Completion").field(&kind).finish()
    }
}

/// The dispatcher: called on the loop thread with each complete request.
/// Must not block — answer inline via the completion, or hand the completion
/// to another thread and return.
pub trait Dispatch: FnMut(&FrontRequest<'_>, Completion) + Send + 'static {}
impl<F: FnMut(&FrontRequest<'_>, Completion) + Send + 'static> Dispatch for F {}

/// A running connection front: the epoll event loop, or its threaded fallback.
///
/// Stop in two phases: [`stop`](Self::stop) (signal; existing responses still
/// drain, new requests are no longer parsed) then [`join`](Self::join).
pub struct EventFront {
    inner: FrontInner,
}

enum FrontInner {
    Event {
        shared: Arc<FrontShared>,
        handle: Option<JoinHandle<()>>,
    },
    Threaded {
        stop: Arc<AtomicBool>,
        local_addr: SocketAddr,
        accept: Option<JoinHandle<()>>,
        connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
        stats: Arc<LoopStats>,
    },
}

impl EventFront {
    /// Starts the front over an already-bound listener. Uses the epoll event
    /// loop where available; falls back to thread-per-connection otherwise
    /// (or when `VITALITY_FORCE_THREADED_FRONT=1`, the fallback's test hook).
    pub fn start(
        listener: TcpListener,
        config: FrontConfig,
        dispatch: impl Dispatch,
    ) -> io::Result<EventFront> {
        assert!(config.max_pipeline > 0, "max_pipeline must be positive");
        // std's bind hard-codes a 128-deep accept queue; under a connection
        // storm the kernel then RSTs the overflow and peers see their first
        // write die. Re-listen with a deeper queue (clamped by somaxconn).
        if let Err(err) = mio::set_backlog(&listener, 4096) {
            trace::debug!("keeping the default accept backlog: {err}");
        }
        let forced_fallback =
            std::env::var_os("VITALITY_FORCE_THREADED_FRONT").is_some_and(|v| v == "1");
        if !forced_fallback {
            match Poll::new() {
                Ok(poll) => return Self::start_event(listener, config, dispatch, poll),
                // No epoll on this platform: fall through to the threaded front.
                Err(err) if err.kind() == io::ErrorKind::Unsupported => {}
                Err(err) => return Err(err),
            }
        }
        Self::start_threaded(listener, config, dispatch)
    }

    /// Whether this front runs the epoll event loop (`false`: threaded fallback).
    pub fn is_event_loop(&self) -> bool {
        matches!(self.inner, FrontInner::Event { .. })
    }

    /// The loop-health counters of this front (all zero on the threaded
    /// fallback, which has no loop thread — `mode` still reports which
    /// implementation answered).
    pub fn stats(&self) -> Arc<LoopStats> {
        match &self.inner {
            FrontInner::Event { shared, .. } => Arc::clone(&shared.stats),
            FrontInner::Threaded { stats, .. } => Arc::clone(stats),
        }
    }

    /// Signals the front to stop: no new connections or requests; responses
    /// already completed (or still in flight toward a completion) drain first.
    /// Idempotent, callable from any thread.
    pub fn stop(&self) {
        match &self.inner {
            FrontInner::Event { shared, .. } => {
                shared.stop.store(true, Ordering::SeqCst);
                if let Some(waker) = &shared.waker {
                    let _ = waker.wake();
                }
            }
            FrontInner::Threaded {
                stop, local_addr, ..
            } => {
                stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop with a throwaway connection.
                let _ = TcpStream::connect(*local_addr);
            }
        }
    }

    /// Waits for the front to wind down (call after [`stop`](Self::stop); the
    /// loop exits only once every pending response has drained).
    pub fn join(&mut self) {
        match &mut self.inner {
            FrontInner::Event { handle, .. } => {
                if let Some(handle) = handle.take() {
                    let _ = handle.join();
                }
            }
            FrontInner::Threaded {
                accept,
                connections,
                ..
            } => {
                if let Some(handle) = accept.take() {
                    let _ = handle.join();
                }
                let handles = std::mem::take(
                    &mut *connections.lock().unwrap_or_else(PoisonError::into_inner),
                );
                for handle in handles {
                    let _ = handle.join();
                }
            }
        }
    }

    fn start_event(
        listener: TcpListener,
        config: FrontConfig,
        dispatch: impl Dispatch,
        poll: Poll,
    ) -> io::Result<EventFront> {
        listener.set_nonblocking(true)?;
        poll.register(&listener, LISTENER, Interest::READABLE)?;
        let waker = Waker::new(&poll, WAKER)?;
        let stats = Arc::new(LoopStats::default());
        stats.mode.store(LOOP_MODE_EVENT, Ordering::Relaxed);
        let shared = Arc::new(FrontShared {
            waker: Some(waker),
            completions: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            stats,
        });
        let loop_shared = Arc::clone(&shared);
        let loop_config = config.clone();
        let handle = std::thread::Builder::new()
            .name(config.thread_name.clone())
            .spawn(move || {
                EventLoop {
                    poll,
                    listener,
                    config: loop_config,
                    shared: loop_shared,
                    conns: HashMap::new(),
                    next_conn_id: FIRST_CONN,
                    dispatch,
                }
                .run();
            })
            .expect("spawn event-loop thread");
        Ok(EventFront {
            inner: FrontInner::Event {
                shared,
                handle: Some(handle),
            },
        })
    }

    fn start_threaded(
        listener: TcpListener,
        config: FrontConfig,
        dispatch: impl Dispatch,
    ) -> io::Result<EventFront> {
        let local_addr = listener.local_addr()?;
        let stats = Arc::new(LoopStats::default());
        stats.mode.store(LOOP_MODE_THREADED, Ordering::Relaxed);
        let stop = Arc::new(AtomicBool::new(false));
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        // One dispatcher shared by every connection thread. Dispatch calls are
        // brief (parse + hand off), so the lock is not a throughput concern on
        // the fallback path.
        let dispatch = Arc::new(Mutex::new(dispatch));
        let accept_stop = Arc::clone(&stop);
        let accept_connections = Arc::clone(&connections);
        let conn_name = config.thread_name.clone();
        let accept = std::thread::Builder::new()
            .name(format!("{}-accept", config.thread_name))
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let stop = Arc::clone(&accept_stop);
                    let dispatch = Arc::clone(&dispatch);
                    let config = config.clone();
                    let handle = std::thread::Builder::new()
                        .name(conn_name.clone())
                        .spawn(move || {
                            let stop_fn = || stop.load(Ordering::SeqCst);
                            serve_connection(
                                stream,
                                config.poll_interval,
                                config.max_body_bytes,
                                &stop_fn,
                                |message: &HttpMessage| {
                                    let (tx, rx) = mpsc::channel();
                                    {
                                        let mut dispatch =
                                            dispatch.lock().unwrap_or_else(PoisonError::into_inner);
                                        let request = FrontRequest {
                                            start_line: &message.start_line,
                                            headers: &message.headers,
                                            body: &message.body,
                                        };
                                        dispatch(
                                            &request,
                                            Completion {
                                                sink: Some(CompletionSink::Sync(tx)),
                                            },
                                        );
                                    }
                                    // The completion's drop guard guarantees a
                                    // send, so recv can only fail if the guard
                                    // itself was leaked; answer 500 then.
                                    rx.recv().unwrap_or_else(|_| {
                                        RouteResponse::new(
                                            500,
                                            protocol::error_body(
                                                "internal",
                                                "request dropped without a response",
                                            ),
                                        )
                                    })
                                },
                            );
                        })
                        .expect("spawn connection handler");
                    let mut handles = accept_connections
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    handles.retain(|h: &JoinHandle<()>| !h.is_finished());
                    handles.push(handle);
                }
            })
            .expect("spawn accept loop");
        Ok(EventFront {
            inner: FrontInner::Threaded {
                stop,
                local_addr,
                accept: Some(accept),
                connections,
                stats,
            },
        })
    }
}

impl std::fmt::Debug for EventFront {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventFront")
            .field("event_loop", &self.is_event_loop())
            .finish()
    }
}

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
const FIRST_CONN: u64 = 2;

/// A response's `on_written` hook plus the instants bracketing its serialize
/// stage, carried with its [`OutSegment`] until the bytes drain.
type PendingWriteHook = (Box<dyn FnOnce(WriteReport) + Send>, Instant, Instant);

/// One queued outbound response, possibly partially written.
struct OutSegment {
    bytes: Vec<u8>,
    written: usize,
    /// Close the connection once this segment drains (responses answered with
    /// `Connection: close`, and chaos-truncated writes).
    close_after: bool,
    /// Fired when the segment drains (or its write fails).
    hook: Option<PendingWriteHook>,
}

impl OutSegment {
    fn fire_hook(&mut self) {
        if let Some((hook, serialize_start, write_start)) = self.hook.take() {
            hook(WriteReport {
                serialize_start,
                write_start,
                done: Instant::now(),
            });
        }
    }
}

/// Per-connection state on the loop.
struct Conn {
    stream: TcpStream,
    parser: HttpParser,
    /// Request sequence numbers: assigned at dispatch, written in order.
    next_seq: u64,
    next_write_seq: u64,
    /// Dispatched requests whose response has not fully drained yet.
    unanswered: usize,
    /// Completions that arrived ahead of their turn.
    stash: Vec<(u64, RouteResponse)>,
    /// Per-request `Connection: close` flags, in sequence order.
    wants_close: VecDeque<(u64, bool)>,
    out: VecDeque<OutSegment>,
    /// Peer sent EOF (possibly half-close: it may still await responses).
    peer_eof: bool,
    /// A framing violation poisoned the byte stream: stop parsing, flush what
    /// is owed, close. (Old blocking front: close silently.)
    broken: bool,
    /// What the connection is currently registered for with the poller.
    registered: Option<(bool, bool)>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            parser: HttpParser::new(),
            next_seq: 0,
            next_write_seq: 0,
            unanswered: 0,
            stash: Vec::new(),
            wants_close: VecDeque::new(),
            out: VecDeque::new(),
            peer_eof: false,
            broken: false,
            registered: None,
        }
    }

    /// Whether every dispatched request has been answered and drained.
    fn drained(&self) -> bool {
        self.unanswered == 0 && self.out.is_empty() && self.stash.is_empty()
    }

    /// Whether the loop should close this connection now.
    fn should_close(&self, stopping: bool) -> bool {
        if !self.drained() {
            return false;
        }
        (self.peer_eof || self.broken) || (stopping && self.parser.is_between_messages())
    }
}

struct EventLoop<F: Dispatch> {
    poll: Poll,
    listener: TcpListener,
    config: FrontConfig,
    shared: Arc<FrontShared>,
    conns: HashMap<u64, Conn>,
    next_conn_id: u64,
    dispatch: F,
}

impl<F: Dispatch> EventLoop<F> {
    fn run(mut self) {
        let mut events = Events::with_capacity(256);
        // Loop-health accounting: everything between one poll return and the
        // next poll call is "busy" (drain, parse, dispatch, write); the poll
        // call itself is "idle". Their ratio is the saturation gauge.
        let mut busy_since = Instant::now();
        loop {
            let stopping = self.shared.stop.load(Ordering::SeqCst);
            self.drain_completions(stopping);
            if stopping {
                // Close everything idle; keep connections that still owe
                // responses until they drain.
                let idle: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| c.should_close(true))
                    .map(|(&id, _)| id)
                    .collect();
                for id in idle {
                    self.close_conn(id);
                }
                if self.conns.is_empty() {
                    return;
                }
            }
            let stats = Arc::clone(&self.shared.stats);
            let idle_start = Instant::now();
            stats.busy_ns.fetch_add(
                idle_start.duration_since(busy_since).as_nanos() as u64,
                Ordering::Relaxed,
            );
            let poll_result = self.poll.poll(&mut events, Some(self.config.poll_interval));
            busy_since = Instant::now();
            stats.idle_ns.fetch_add(
                busy_since.duration_since(idle_start).as_nanos() as u64,
                Ordering::Relaxed,
            );
            stats.wakeups.fetch_add(1, Ordering::Relaxed);
            if let Err(err) = poll_result {
                // A failed poll would spin; treat it as fatal for the loop but
                // keep the process alive (stop() still drains via fallthrough).
                trace::warn!("event-loop poll failed, draining and stopping the front: {err}");
                self.shared.stop.store(true, Ordering::SeqCst);
                continue;
            }
            let ready: Vec<_> = events.iter().collect();
            stats
                .ready_events
                .fetch_add(ready.len() as u64, Ordering::Relaxed);
            let stopping = self.shared.stop.load(Ordering::SeqCst);
            for event in ready {
                match event.token() {
                    LISTENER => self.accept_ready(stopping),
                    WAKER => {
                        if let Some(waker) = &self.shared.waker {
                            waker.drain();
                        }
                    }
                    Token(id) => {
                        let id = id as u64;
                        if event.is_readable() {
                            self.read_ready(id, stopping);
                        }
                        if event.is_writable() {
                            self.write_ready(id, stopping);
                        }
                    }
                }
            }
        }
    }

    fn accept_ready(&mut self, stopping: bool) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Accept-then-drop during stop keeps the level-triggered
                    // listener from re-firing forever.
                    if stopping {
                        continue;
                    }
                    if let Err(err) = stream.set_nonblocking(true) {
                        trace::debug!("dropping accepted conn: set_nonblocking failed: {err}");
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_conn_id;
                    self.next_conn_id += 1;
                    let mut conn = Conn::new(stream);
                    match self.sync_interest(id, &mut conn, stopping) {
                        Ok(()) => {
                            self.conns.insert(id, conn);
                        }
                        Err(err) => {
                            trace::warn!(
                                "dropping accepted conn {id}: epoll register failed: {err}"
                            )
                        }
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept errors (ECONNABORTED etc.): drop and move on.
                Err(err) => {
                    trace::debug!("transient accept error: {err}");
                    return;
                }
            }
        }
    }

    /// What the connection should currently be polled for.
    fn desired_interest(&self, conn: &Conn, stopping: bool) -> (bool, bool) {
        let readable = !conn.peer_eof
            && !conn.broken
            && !stopping
            && conn.unanswered < self.config.max_pipeline;
        let writable = !conn.out.is_empty();
        (readable, writable)
    }

    /// Brings the poller registration in line with the connection's state.
    /// With neither direction wanted the stream is deregistered entirely — the
    /// connection is parked and only a completion (via the waker) revives it.
    fn sync_interest(&self, id: u64, conn: &mut Conn, stopping: bool) -> io::Result<()> {
        let desired = self.desired_interest(conn, stopping);
        if conn.registered == Some(desired) {
            return Ok(());
        }
        let result = match (conn.registered.is_some(), desired) {
            (true, (false, false)) => {
                let r = self.poll.deregister(&conn.stream);
                conn.registered = None;
                return r;
            }
            (false, (false, false)) => return Ok(()),
            (already, (r, w)) => {
                let mut interest = if r {
                    Interest::READABLE
                } else {
                    Interest::WRITABLE
                };
                if r && w {
                    interest = Interest::READABLE.add(Interest::WRITABLE);
                }
                if already {
                    self.poll
                        .reregister(&conn.stream, Token(id as usize), interest)
                } else {
                    self.poll
                        .register(&conn.stream, Token(id as usize), interest)
                }
            }
        };
        if result.is_ok() {
            conn.registered = Some(desired);
        }
        result
    }

    fn close_conn(&mut self, id: u64) {
        if let Some(mut conn) = self.conns.remove(&id) {
            // Unfired hooks still observe their write outcome (parity with the
            // blocking front, which fired hooks even on failed writes).
            for segment in &mut conn.out {
                segment.fire_hook();
            }
            if conn.registered.is_some() {
                let _ = self.poll.deregister(&conn.stream);
            }
        }
        // Responses still in flight toward this connection id become orphans;
        // drain_completions drops them on arrival.
    }

    fn drain_completions(&mut self, stopping: bool) {
        let arrived = {
            let mut queue = self
                .shared
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *queue)
        };
        self.shared
            .stats
            .completions
            .fetch_add(arrived.len() as u64, Ordering::Relaxed);
        self.shared.stats.queue_depth.store(0, Ordering::Relaxed);
        let mut touched: Vec<u64> = Vec::new();
        for (conn_id, seq, response) in arrived {
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                // The connection died before its response was ready.
                trace::debug!("dropping orphan completion {conn_id}#{seq}");
                continue;
            };
            conn.stash.push((seq, response));
            if !touched.contains(&conn_id) {
                touched.push(conn_id);
            }
        }
        for id in touched {
            self.promote_stash(id, stopping);
            self.write_ready(id, stopping);
        }
    }

    /// Moves every stashed response whose turn has come into the write queue,
    /// in sequence order.
    fn promote_stash(&mut self, id: u64, stopping: bool) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        loop {
            let next = conn.next_write_seq;
            let Some(pos) = conn.stash.iter().position(|(seq, _)| *seq == next) else {
                break;
            };
            let (_, response) = conn.stash.swap_remove(pos);
            let (seq, wants_close) = conn
                .wants_close
                .pop_front()
                .expect("every dispatched seq has a close flag");
            debug_assert_eq!(seq, next, "close flags stay in sequence order");
            // A request's own `Connection: close` ends the connection after its
            // response; a connection-level reason (draining, peer half-close,
            // framing error) only after the last response it owes, so pipelined
            // replies already admitted behind this one are still written.
            let ending = stopping || conn.broken || conn.peer_eof;
            let close = wants_close || (ending && seq + 1 == conn.next_seq);
            let mut extra: Vec<(&str, String)> = Vec::new();
            if let Some(secs) = response.retry_after {
                extra.push(("Retry-After", secs.to_string()));
            }
            let serialize_start = Instant::now();
            let (content_type, body) = match response.text_body {
                Some((content_type, text)) => (content_type, text),
                None => ("application/json", response.body.to_json()),
            };
            let write_start = Instant::now();
            let EncodedResponse {
                mut bytes,
                fail_after,
            } = crate::http::encode_response_typed(
                response.status,
                body.as_bytes(),
                !close,
                &extra,
                content_type,
            );
            let mut close_after = close;
            if let Some(limit) = fail_after {
                // Chaos truncation: emit only the prefix, then hard-close.
                bytes.truncate(limit);
                close_after = true;
            }
            conn.out.push_back(OutSegment {
                bytes,
                written: 0,
                close_after,
                hook: response
                    .on_written
                    .map(|hook| (hook, serialize_start, write_start)),
            });
            conn.next_write_seq += 1;
        }
    }

    fn read_ready(&mut self, id: u64, stopping: bool) {
        // Chaos site: `sleep(ms)` here simulates a slow/stalled peer read (the
        // bytes arrive, the server just takes its time noticing them) — the
        // event-loop counterpart of the blocking reader's site.
        failpoint::fire("serve-read-stall");
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.peer_eof || conn.broken {
                break;
            }
            if stopping && conn.parser.is_between_messages() {
                // Stop parsing new requests at a message boundary.
                break;
            }
            if conn.unanswered >= self.config.max_pipeline {
                break;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.parser.feed(&chunk[..n]);
                    if !self.parse_ready(id, stopping) {
                        return; // connection closed under us
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => {
                    // Read error: the peer is gone; nothing sane to answer.
                    trace::debug!("closing conn {id}: read failed: {err}");
                    self.close_conn(id);
                    return;
                }
            }
        }
        self.after_io(id, stopping);
    }

    /// Parses and dispatches every complete message currently buffered (up to
    /// the pipeline cap). Returns false when the connection was closed.
    fn parse_ready(&mut self, id: u64, stopping: bool) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return false;
            };
            if conn.unanswered >= self.config.max_pipeline {
                return true;
            }
            if stopping && conn.parser.is_between_messages() {
                return true;
            }
            match conn.parser.poll(self.config.max_body_bytes) {
                Ok(ParseStatus::Message) => {
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.unanswered += 1;
                    conn.wants_close
                        .push_back((seq, conn.parser.head().wants_close()));
                    let completion = Completion {
                        sink: Some(CompletionSink::Event {
                            shared: Arc::clone(&self.shared),
                            conn: id,
                            seq,
                        }),
                    };
                    {
                        let head = conn.parser.head();
                        let request = FrontRequest {
                            start_line: &head.start_line,
                            headers: &head.headers,
                            body: conn.parser.body(),
                        };
                        (self.dispatch)(&request, completion);
                    }
                    // The dispatcher borrowed the parse buffer; only now may the
                    // message be consumed.
                    let Some(conn) = self.conns.get_mut(&id) else {
                        return false;
                    };
                    conn.parser.advance();
                }
                Ok(ParseStatus::NeedMore) => return true,
                Err(_) => {
                    // Framing violation: the byte stream is unrecoverable.
                    // Stop reading; flush whatever is owed, then close
                    // (the blocking front closed silently too).
                    conn.broken = true;
                    if conn.drained() {
                        self.close_conn(id);
                        return false;
                    }
                    return true;
                }
            }
        }
    }

    fn write_ready(&mut self, id: u64, stopping: bool) {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            let Some(segment) = conn.out.front_mut() else {
                break;
            };
            match conn.stream.write(&segment.bytes[segment.written..]) {
                Ok(n) => {
                    segment.written += n;
                    if segment.written == segment.bytes.len() {
                        let mut segment = conn.out.pop_front().expect("front exists");
                        let _ = conn.stream.flush();
                        segment.fire_hook();
                        conn.unanswered = conn.unanswered.saturating_sub(1);
                        if segment.close_after {
                            self.close_conn(id);
                            return;
                        }
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => {
                    // Write failure: the hooks still observe their outcome,
                    // then the connection dies.
                    trace::debug!("closing conn {id}: write failed: {err}");
                    self.close_conn(id);
                    return;
                }
            }
        }
        self.after_io(id, stopping);
    }

    /// Post-I/O bookkeeping: close if the connection is finished, otherwise
    /// re-sync its poller registration with the new state.
    fn after_io(&mut self, id: u64, stopping: bool) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.should_close(stopping) {
            self.close_conn(id);
            return;
        }
        // Borrow dance: sync_interest needs &self.poll and &mut conn.
        let mut conn = self.conns.remove(&id).expect("checked above");
        if let Err(err) = self.sync_interest(id, &mut conn, stopping) {
            // A connection the poller refuses to track can never progress;
            // close it (firing owed hooks) instead of leaking it parked.
            trace::warn!("closing conn {id}: epoll re-registration failed: {err}");
            self.conns.insert(id, conn);
            self.close_conn(id);
            return;
        }
        self.conns.insert(id, conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::JsonValue;
    use std::io::{BufRead, BufReader};

    fn front(dispatch: impl Dispatch) -> (EventFront, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let front = EventFront::start(
            listener,
            FrontConfig {
                thread_name: format!("serve-conn-{}", addr.port()),
                ..FrontConfig::default()
            },
            dispatch,
        )
        .unwrap();
        (front, addr)
    }

    fn echo_dispatch() -> impl Dispatch {
        |request: &FrontRequest<'_>, completion: Completion| {
            let (_, path) = request.request_parts().unwrap();
            let mut body = JsonValue::object();
            body.set("path", path).set("len", request.body.len());
            completion.complete(RouteResponse::new(200, body));
        }
    }

    fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line == "\r\n" {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }

    #[test]
    fn serves_pipelined_requests_in_order() {
        let (mut front, addr) = front(echo_dispatch());
        let mut stream = TcpStream::connect(addr).unwrap();
        // Two pipelined requests in one write, then a third with close.
        stream
            .write_all(
                b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcPOST /b HTTP/1.1\r\nContent-Length: 0\r\n\r\nGET /c HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        let mut reader = BufReader::new(stream);
        let (s1, b1) = read_response(&mut reader);
        let (s2, b2) = read_response(&mut reader);
        let (s3, b3) = read_response(&mut reader);
        assert_eq!((s1, s2, s3), (200, 200, 200));
        assert!(b1.contains("\"/a\"") && b1.contains("3"), "got {b1}");
        assert!(b2.contains("\"/b\""), "got {b2}");
        assert!(b3.contains("\"/c\""), "got {b3}");
        // Connection: close honoured.
        let mut rest = Vec::new();
        reader.get_mut().read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        front.stop();
        front.join();
    }

    #[test]
    fn out_of_order_completions_are_written_in_request_order() {
        // Dispatch defers the FIRST request's completion and answers the second
        // inline; the client must still see responses in request order.
        let pending: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        let dispatch_pending = Arc::clone(&pending);
        let (mut front, addr) = front(move |request: &FrontRequest<'_>, completion: Completion| {
            let (_, path) = request.request_parts().unwrap();
            if path == "/defer" {
                dispatch_pending.lock().unwrap().push(completion);
            } else {
                let mut body = JsonValue::object();
                body.set("path", path);
                completion.complete(RouteResponse::new(200, body));
            }
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /defer HTTP/1.1\r\n\r\nGET /now HTTP/1.1\r\n\r\n")
            .unwrap();
        // Wait until both requests are dispatched (the deferred one is parked).
        let start = Instant::now();
        while pending.lock().unwrap().is_empty() {
            assert!(start.elapsed() < Duration::from_secs(5), "dispatch stalled");
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(50));
        // Answer the deferred request from another thread.
        let completion = pending.lock().unwrap().pop().unwrap();
        let mut body = JsonValue::object();
        body.set("path", "/defer");
        completion.complete(RouteResponse::new(200, body));
        let mut reader = BufReader::new(stream);
        let (_, b1) = read_response(&mut reader);
        let (_, b2) = read_response(&mut reader);
        assert!(
            b1.contains("/defer"),
            "first response is the first request: {b1}"
        );
        assert!(
            b2.contains("/now"),
            "second response is the second request: {b2}"
        );
        front.stop();
        front.join();
    }

    #[test]
    fn dropped_completions_answer_500_instead_of_stalling_the_pipeline() {
        let (mut front, addr) = front(|request: &FrontRequest<'_>, completion: Completion| {
            let (_, path) = request.request_parts().unwrap();
            if path == "/drop" {
                drop(completion);
            } else {
                completion.complete(RouteResponse::new(200, JsonValue::object()));
            }
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /drop HTTP/1.1\r\n\r\nGET /ok HTTP/1.1\r\n\r\n")
            .unwrap();
        let mut reader = BufReader::new(stream);
        let (s1, b1) = read_response(&mut reader);
        let (s2, _) = read_response(&mut reader);
        assert_eq!(s1, 500, "dropped completion answers a typed 500: {b1}");
        assert_eq!(s2, 200, "the pipeline continues past the hole");
        front.stop();
        front.join();
    }

    #[test]
    fn framing_errors_close_the_connection() {
        let (mut front, addr) = front(echo_dispatch());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello")
            .unwrap();
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "framing errors are answered with silence");
        front.stop();
        front.join();
    }

    #[test]
    fn stop_drains_in_flight_responses_before_exiting() {
        let pending: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        let dispatch_pending = Arc::clone(&pending);
        let (mut front, addr) =
            front(move |_request: &FrontRequest<'_>, completion: Completion| {
                dispatch_pending.lock().unwrap().push(completion);
            });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /slow HTTP/1.1\r\n\r\n").unwrap();
        let start = Instant::now();
        while pending.lock().unwrap().is_empty() {
            assert!(start.elapsed() < Duration::from_secs(5), "dispatch stalled");
            std::thread::sleep(Duration::from_millis(5));
        }
        front.stop();
        // The front must wait for the in-flight completion before exiting.
        let answer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            let completion = pending.lock().unwrap().pop().unwrap();
            completion.complete(RouteResponse::new(200, JsonValue::object()));
        });
        front.join();
        answer.join().unwrap();
        let mut reader = BufReader::new(stream);
        let (status, _) = read_response(&mut reader);
        assert_eq!(status, 200, "in-flight requests drain through a stop");
    }

    #[test]
    fn forced_threaded_fallback_serves_identically() {
        // The fallback path must stay in behavioural lockstep; exercised here
        // via the env-var test hook rather than a non-Linux host.
        std::env::set_var("VITALITY_FORCE_THREADED_FRONT", "1");
        let (mut front, addr) = front(echo_dispatch());
        std::env::remove_var("VITALITY_FORCE_THREADED_FRONT");
        assert!(!front.is_event_loop());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc")
            .unwrap();
        let mut reader = BufReader::new(stream);
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 200);
        assert!(body.contains("\"/a\""), "got {body}");
        front.stop();
        front.join();
    }
}
