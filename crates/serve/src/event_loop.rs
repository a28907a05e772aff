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
//! level-triggered; per-connection reading pauses once [`MAX_PIPELINE`] requests
//! are unanswered, so a fast pipeliner is backpressured through the kernel
//! socket buffer instead of growing the parse buffer without bound.
//!
//! The front needs epoll: off Linux, [`EventFront::start`] returns the
//! [`io::ErrorKind::Unsupported`] error of [`mio::Poll::new`].

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mio::{Events, Interest, Poll, Token, Waker};

use crate::http::{EncodedResponse, HttpParser, ParseStatus, RouteResponse, WriteReport};
use crate::protocol;

/// Per-connection cap on dispatched-but-unanswered pipelined requests; reading
/// pauses at the cap (kernel-buffer backpressure) and resumes as responses drain.
pub const MAX_PIPELINE: usize = 64;

/// Tunables of the connection front.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Poll timeout; doubles as the shutdown/stop poll interval.
    pub poll_interval: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Name of the event-loop thread (e.g. `serve-conn-8080`). Every socket
    /// read and response write runs on it, so a failpoint scoped to this
    /// thread prefix (`@serve-conn-8080`) hits exactly one server's I/O.
    pub thread_name: String,
}

impl Default for FrontConfig {
    fn default() -> Self {
        Self {
            poll_interval: Duration::from_millis(50),
            max_body_bytes: 16 * 1024 * 1024,
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

/// Loop-health counters answering "is the single loop thread the next wall":
/// epoll wakeups, ready events per wake, the completion-queue depth, and
/// saturation — the fraction of loop wall-clock spent *outside* `epoll_wait`
/// (parsing, dispatching, writing). All lock-free; sampled by `/metrics` and
/// `/healthz`. The server shell creates them before its front and hands them
/// to [`EventFront::start`], so its handlers can read them from the first
/// request.
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
}

impl LoopStats {
    /// Mean ready events per wakeup (`None` before the first wakeup).
    pub fn events_per_wake(&self) -> Option<f64> {
        let wakeups = self.wakeups.load(Ordering::Relaxed);
        if wakeups == 0 {
            return None;
        }
        Some(self.ready_events.load(Ordering::Relaxed) as f64 / wakeups as f64)
    }

    /// Fraction of loop time spent outside `epoll_wait` (`None` until the loop
    /// has run).
    pub fn saturation(&self) -> Option<f64> {
        let busy = self.busy_ns.load(Ordering::Relaxed);
        let idle = self.idle_ns.load(Ordering::Relaxed);
        if busy + idle == 0 {
            return None;
        }
        Some(busy as f64 / (busy + idle) as f64)
    }
}

/// The completion queue and stop flag shared between the loop thread and
/// completions fired from worker threads.
struct FrontShared {
    waker: Waker,
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
        let _ = self.waker.wake();
    }
}

/// The one-shot reply handle for a dispatched request.
///
/// Every request is completed exactly once: either explicitly via
/// [`Completion::complete`] (from any thread), or — if the completion is
/// dropped unanswered, e.g. on a dispatcher panic — by a drop guard that
/// answers a generic 500 so the connection's response pipeline never stalls on
/// a hole in the sequence.
pub struct Completion {
    /// `(shared, conn, seq)`: where the response goes; `None` once delivered.
    target: Option<(Arc<FrontShared>, u64, u64)>,
}

impl Completion {
    /// Delivers the response for this request. Callable from any thread.
    pub fn complete(mut self, response: RouteResponse) {
        self.deliver(response);
    }

    fn deliver(&mut self, response: RouteResponse) {
        if let Some((shared, conn, seq)) = self.target.take() {
            shared.push(conn, seq, response);
        }
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if self.target.is_some() {
            self.deliver(RouteResponse::new(
                500,
                protocol::error_body("internal", "request dropped without a response"),
            ));
        }
    }
}

impl std::fmt::Debug for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.target {
            Some((_, conn, seq)) => format!("{conn}#{seq}"),
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

/// A running connection front: one epoll event-loop thread serving every
/// connection of a listener.
///
/// Stop in two phases: [`stop`](Self::stop) (signal; existing responses still
/// drain, new requests are no longer parsed) then [`join`](Self::join).
pub struct EventFront {
    shared: Arc<FrontShared>,
    handle: Option<JoinHandle<()>>,
}

impl EventFront {
    /// Starts the event loop over an already-bound listener; the loop counts
    /// its health into `stats`.
    ///
    /// # Errors
    ///
    /// Any epoll or eventfd setup error — off Linux, the
    /// [`io::ErrorKind::Unsupported`] error of [`mio::Poll::new`].
    pub fn start(
        listener: TcpListener,
        config: FrontConfig,
        stats: Arc<LoopStats>,
        dispatch: impl Dispatch,
    ) -> io::Result<EventFront> {
        // std's bind hard-codes a 128-deep accept queue; under a connection
        // storm the kernel then RSTs the overflow and peers see their first
        // write die. Re-listen with a deeper queue (clamped by somaxconn).
        if let Err(err) = mio::set_backlog(&listener, 4096) {
            trace::debug!("keeping the default accept backlog: {err}");
        }
        let poll = Poll::new()?;
        listener.set_nonblocking(true)?;
        poll.register(&listener, LISTENER, Interest::READABLE)?;
        let shared = Arc::new(FrontShared {
            waker: Waker::new(&poll, WAKER)?,
            completions: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            stats,
        });
        let loop_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(config.thread_name.clone())
            .spawn(move || {
                EventLoop {
                    poll,
                    listener,
                    config,
                    shared: loop_shared,
                    conns: HashMap::new(),
                    next_conn_id: FIRST_CONN,
                    dispatch,
                }
                .run();
            })
            .expect("spawn event-loop thread");
        Ok(EventFront {
            shared,
            handle: Some(handle),
        })
    }

    /// Signals the front to stop: no new connections or requests; responses
    /// already completed (or still in flight toward a completion) drain first.
    /// Idempotent, callable from any thread.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = self.shared.waker.wake();
    }

    /// Waits for the front to wind down (call after [`stop`](Self::stop); the
    /// loop exits only once every pending response has drained).
    pub fn join(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for EventFront {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventFront")
            .field("stopping", &self.shared.stop.load(Ordering::Relaxed))
            .finish_non_exhaustive()
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
    /// is owed, close. The bad bytes get no reply: past a framing error there
    /// is no request boundary to answer at.
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
                        self.shared.waker.drain();
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
        let readable =
            !conn.peer_eof && !conn.broken && !stopping && conn.unanswered < MAX_PIPELINE;
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
            // Unfired hooks still observe their write outcome: a hook closes
            // its request's trace and write-stage timing, failed write or not.
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
        // bytes arrive, the server just takes its time noticing them).
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
            if conn.unanswered >= MAX_PIPELINE {
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
            if conn.unanswered >= MAX_PIPELINE {
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
                        target: Some((Arc::clone(&self.shared), id, seq)),
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
                    // Stop reading; flush whatever is owed, then close.
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
    use std::net::SocketAddr;

    fn front(dispatch: impl Dispatch) -> (EventFront, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let front = EventFront::start(
            listener,
            FrontConfig {
                thread_name: format!("serve-conn-{}", addr.port()),
                ..FrontConfig::default()
            },
            Arc::new(LoopStats::default()),
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
}
