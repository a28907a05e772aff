//! The dynamic batcher: a bounded admission queue that coalesces concurrent
//! single-image requests into per-model batches.
//!
//! # Coalescing policy
//!
//! A worker calling [`Batcher::next_batch`] blocks until the queue is non-empty, then
//! flushes a batch when the first of three things happens:
//!
//! 1. **max-size flush** — the queue holds [`BatchPolicy::max_batch`] requests for any
//!    single model (not only the head's: a complete batch never waits behind another
//!    model's deadline);
//! 2. **deadline flush** — the head (oldest) request has waited
//!    [`BatchPolicy::max_delay`] since submission;
//! 3. **shutdown drain** — [`Batcher::shutdown`] was called; everything already queued
//!    is still flushed (in batches) so no admitted request goes unanswered, and
//!    `next_batch` returns `None` only once the queue is empty.
//!
//! Batches are homogeneous in model: a flush takes up to `max_batch` requests with one
//! registry key (the full model's on a max-size flush, the head request's on a
//! deadline flush), preserving arrival order, and leaves requests for other models
//! queued (their own head keeps its original deadline, so mixed traffic cannot starve
//! a model). This is what turns the paper's linear-attention win into
//! server throughput — `infer_batch_into` over a coalesced batch amortises per-request
//! overhead while the O(n) Taylor kernels keep per-image cost flat.
//!
//! # Backpressure
//!
//! The queue is bounded by [`BatchPolicy::queue_capacity`]. [`Batcher::submit`] never
//! blocks: beyond capacity it sheds the request with [`ServeError::Overloaded`], which
//! the wire layer reports as HTTP 503. Shedding at admission (instead of queueing
//! unboundedly) keeps tail latency bounded under overload.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::ServeError;
use crate::metrics::Metrics;
use crate::registry::ModelEntry;
use vitality_tensor::Matrix;

/// Tunables of the coalescing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest batch handed to a worker.
    pub max_batch: usize,
    /// Longest a request may wait in the queue before its batch is flushed anyway.
    pub max_delay: Duration,
    /// Admission-queue bound; requests beyond it are shed with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 16,
            max_delay: Duration::from_millis(2),
            queue_capacity: 256,
        }
    }
}

impl BatchPolicy {
    /// Validates the policy.
    ///
    /// # Panics
    ///
    /// Panics when `max_batch` is zero or the queue cannot hold one full batch.
    pub fn validate(&self) {
        assert!(self.max_batch > 0, "max_batch must be positive");
        assert!(
            self.queue_capacity >= self.max_batch,
            "queue_capacity ({}) must hold at least one full batch ({})",
            self.queue_capacity,
            self.max_batch
        );
    }
}

/// The result a worker produces for one request, delivered over the request's private
/// response channel.
#[derive(Debug, Clone, PartialEq)]
pub struct InferReply {
    /// Registry key of the model that served the request.
    pub model: String,
    /// Argmax class index.
    pub prediction: usize,
    /// The full logit row.
    pub logits: Vec<f32>,
    /// Number of requests in the batch this one was served in.
    pub batch_size: usize,
    /// Microseconds the request spent queued before its batch formed.
    pub queue_us: u64,
}

/// A request's expiry: the absolute instant the caller stops waiting, plus the
/// original budget (kept only so the 504 error body can echo what the client sent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestDeadline {
    /// The instant after which the request must not be served.
    pub expires: Instant,
    /// The `deadline_ms` budget the client sent.
    pub budget_ms: u64,
}

impl RequestDeadline {
    /// Anchors a relative `deadline_ms` budget to the current instant.
    pub fn from_budget_ms(budget_ms: u64) -> Self {
        Self {
            expires: Instant::now() + Duration::from_millis(budget_ms),
            budget_ms,
        }
    }

    /// Whether the deadline has passed at `now`.
    pub fn expired_at(&self, now: Instant) -> bool {
        now >= self.expires
    }

    /// The typed error a shed request is answered with.
    pub fn error(&self) -> ServeError {
        ServeError::DeadlineExceeded {
            budget_ms: self.budget_ms,
        }
    }
}

/// Where one request's result goes: a private `mpsc` channel (the blocking
/// front, and tests) or a one-shot completion hook (the event-loop front, which
/// has no thread parked waiting and instead enqueues the response for the loop).
///
/// The hook variant carries a liveness guarantee the channel gets for free from
/// disconnection: if a `Responder` is dropped unanswered — a worker panicked
/// mid-batch and the request's result never materialised — the hook fires with
/// a typed internal error, so no admitted request is ever silently abandoned.
pub struct Responder {
    sink: Option<ResponderSink>,
}

enum ResponderSink {
    Channel(mpsc::Sender<Result<InferReply, ServeError>>),
    Hook(Box<dyn FnOnce(Result<InferReply, ServeError>) + Send>),
}

impl Responder {
    /// A responder delivering into a private channel; the caller blocks on the
    /// receiving end. A dropped-unanswered channel responder surfaces to the
    /// receiver as disconnection, so no extra guard fires.
    pub fn channel(tx: mpsc::Sender<Result<InferReply, ServeError>>) -> Self {
        Self {
            sink: Some(ResponderSink::Channel(tx)),
        }
    }

    /// A responder invoking a one-shot completion hook. The hook runs on
    /// whichever thread answers (worker, batcher shed path, or the submitting
    /// thread on refusal) and must therefore be cheap and non-blocking; if the
    /// responder dies unanswered the hook fires with
    /// [`ServeError::Internal`] during drop — including drops on a panicking
    /// worker's unwind path, so it must not itself panic.
    pub fn hook(hook: impl FnOnce(Result<InferReply, ServeError>) + Send + 'static) -> Self {
        Self {
            sink: Some(ResponderSink::Hook(Box::new(hook))),
        }
    }

    /// Delivers the result. Consumes the responder: every request is answered
    /// exactly once.
    pub fn send(mut self, result: Result<InferReply, ServeError>) {
        match self.sink.take() {
            // The caller may have stopped listening (deadline passed, connection
            // gone); a dropped receiver is fine.
            Some(ResponderSink::Channel(tx)) => drop(tx.send(result)),
            Some(ResponderSink::Hook(hook)) => hook(result),
            None => unreachable!("send consumes the responder"),
        }
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if let Some(ResponderSink::Hook(hook)) = self.sink.take() {
            hook(Err(ServeError::Internal(
                "worker dropped the reply channel".into(),
            )));
        }
    }
}

impl std::fmt::Debug for Responder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.sink {
            Some(ResponderSink::Channel(_)) => "channel",
            Some(ResponderSink::Hook(_)) => "hook",
            None => "consumed",
        };
        f.debug_tuple("Responder").field(&kind).finish()
    }
}

/// A queued inference request: the image, the model to run it on, and the
/// responder the result is delivered through.
#[derive(Debug)]
pub struct PendingRequest {
    /// The model entry resolved at admission time.
    pub entry: Arc<ModelEntry>,
    /// The `n x n` input image.
    pub image: Matrix,
    /// When the request entered the queue (starts the coalescing deadline).
    pub submitted: Instant,
    /// The caller's remaining-time budget, if it sent one. Expired requests are shed
    /// with a typed 504 before any inference is spent on them.
    pub deadline: Option<RequestDeadline>,
    /// Where the worker (or the batcher, on shed/refusal paths) sends the result.
    pub responder: Responder,
    /// The request's span recorder (`None` unless this request is being traced) —
    /// the worker records queue-wait / batch-assembly / compute spans through it.
    pub trace: trace::TraceHandle,
}

struct QueueState {
    queue: VecDeque<PendingRequest>,
    shutdown: bool,
}

/// The shared admission queue + coalescing logic (see the module docs for the policy).
pub struct Batcher {
    policy: BatchPolicy,
    state: Mutex<QueueState>,
    nonempty: Condvar,
    metrics: Arc<Metrics>,
}

impl Batcher {
    /// Creates a batcher with the given policy.
    ///
    /// # Panics
    ///
    /// Panics when the policy fails [`BatchPolicy::validate`].
    pub fn new(policy: BatchPolicy, metrics: Arc<Metrics>) -> Self {
        policy.validate();
        Self {
            policy,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            nonempty: Condvar::new(),
            metrics,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Current queue depth (diagnostic; racy by nature).
    pub fn depth(&self) -> usize {
        self.state
            .lock()
            .expect("batcher lock poisoned")
            .queue
            .len()
    }

    /// Admits a request, or sheds it without enqueueing.
    ///
    /// Never blocks: once [`Batcher::shutdown`] has been called, or when the queue is
    /// at capacity, the request is refused — the typed error
    /// ([`ServeError::ShuttingDown`] / [`ServeError::Overloaded`]) is both returned
    /// *and* delivered through the request's [`Responder`], so hook-based callers
    /// (the event-loop front, which only listens on the responder) see the real
    /// refusal rather than the drop-guard's generic internal error.
    pub fn submit(&self, request: PendingRequest) -> Result<(), ServeError> {
        let mut state = self.state.lock().expect("batcher lock poisoned");
        if state.shutdown {
            drop(state);
            request.responder.send(Err(ServeError::ShuttingDown));
            return Err(ServeError::ShuttingDown);
        }
        if state.queue.len() >= self.policy.queue_capacity {
            self.metrics
                .shed
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let refusal = ServeError::Overloaded {
                queue_depth: state.queue.len(),
                capacity: self.policy.queue_capacity,
            };
            drop(state);
            request.responder.send(Err(refusal.clone()));
            return Err(refusal);
        }
        state.queue.push_back(request);
        self.metrics
            .submitted
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // One new request can complete at most one waiting worker's batch.
        self.nonempty.notify_one();
        Ok(())
    }

    /// Blocks until a batch is due under the coalescing policy and returns it, or
    /// returns `None` once the batcher is shut down *and* drained.
    ///
    /// Before each flush decision the queue is purged of requests whose
    /// [`RequestDeadline`] has already expired: each is answered with a typed 504
    /// ([`ServeError::DeadlineExceeded`]) without spending any inference on it, and
    /// live requests keep their arrival order. Requests without a deadline are never
    /// purged, and their flush timing is unchanged.
    pub fn next_batch(&self) -> Option<Vec<PendingRequest>> {
        let mut state = self.state.lock().expect("batcher lock poisoned");
        loop {
            self.shed_expired(&mut state.queue, Instant::now());
            let Some(head) = state.queue.front() else {
                if state.shutdown {
                    return None;
                }
                state = self.nonempty.wait(state).expect("batcher lock poisoned");
                continue;
            };
            let head_key = head.entry.key().to_string();
            let deadline = head.submitted + self.policy.max_delay;
            // Max-size flushes consider every model, not just the head's: a full
            // batch for model B must not wait out the lone head request of model A
            // (its deadline keeps running — A flushes on its own schedule).
            let full_key = Self::first_full_key(&state.queue, self.policy.max_batch);
            let now = Instant::now();
            if state.shutdown || full_key.is_some() || now >= deadline {
                let flush_key = full_key.unwrap_or(head_key);
                let batch =
                    Self::take_matching(&mut state.queue, &flush_key, self.policy.max_batch);
                // Requests for other models may now be at the front with an already
                // expired deadline; wake another worker to check rather than leaving
                // them to wait for the next submit.
                if !state.queue.is_empty() {
                    self.nonempty.notify_one();
                }
                drop(state);
                self.metrics.record_batch(batch.len());
                return Some(batch);
            }
            // Wake at the earlier of the head's flush deadline and the earliest
            // request expiry, so 504s go out promptly rather than riding the next
            // flush or submit.
            let wake = state
                .queue
                .iter()
                .filter_map(|r| r.deadline.map(|d| d.expires))
                .min()
                .map_or(deadline, |expiry| deadline.min(expiry));
            let (next, _timeout) = self
                .nonempty
                .wait_timeout(state, wake.saturating_duration_since(now))
                .expect("batcher lock poisoned");
            state = next;
        }
    }

    /// Removes every expired request from the queue, answering each with its typed
    /// 504. Live entries keep their relative order (`VecDeque::remove` shifts, it
    /// does not swap).
    fn shed_expired(&self, queue: &mut VecDeque<PendingRequest>, now: Instant) {
        let mut index = 0;
        while index < queue.len() {
            let expired = queue[index]
                .deadline
                .is_some_and(|deadline| deadline.expired_at(now));
            if expired {
                let request = queue.remove(index).expect("index bounded by len");
                let deadline = request.deadline.expect("checked expired above");
                self.metrics
                    .expired
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                // The caller has typically stopped listening by now (that is what
                // the deadline means); a dropped receiver is fine.
                request.responder.send(Err(deadline.error()));
            } else {
                index += 1;
            }
        }
    }

    /// The first model key (in arrival order) that already has a full batch queued,
    /// if any.
    fn first_full_key(queue: &VecDeque<PendingRequest>, max_batch: usize) -> Option<String> {
        // Counting via a tiny Vec keeps the hot path allocation-light: the number of
        // distinct models queued at once is small (bounded by the registry).
        let mut counts: Vec<(&str, usize)> = Vec::new();
        for request in queue {
            let key = request.entry.key();
            match counts.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => {
                    *n += 1;
                    if *n >= max_batch {
                        return Some(key.to_string());
                    }
                }
                None => {
                    if max_batch == 1 {
                        return Some(key.to_string());
                    }
                    counts.push((key, 1));
                }
            }
        }
        None
    }

    /// Removes up to `max` requests with the given key, preserving arrival order and
    /// leaving everything else queued.
    fn take_matching(
        queue: &mut VecDeque<PendingRequest>,
        key: &str,
        max: usize,
    ) -> Vec<PendingRequest> {
        let mut batch = Vec::new();
        let mut index = 0;
        while index < queue.len() && batch.len() < max {
            if queue[index].entry.key() == key {
                batch.push(queue.remove(index).expect("index bounded by len"));
            } else {
                index += 1;
            }
        }
        batch
    }

    /// Starts the drain: no new admissions; queued requests are still batched and
    /// handed out until the queue is empty, after which `next_batch` returns `None`.
    pub fn shutdown(&self) {
        let mut state = self.state.lock().expect("batcher lock poisoned");
        state.shutdown = true;
        self.nonempty.notify_all();
    }
}

impl std::fmt::Debug for Batcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher")
            .field("policy", &self.policy)
            .field("depth", &self.depth())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vitality_vit::{AttentionVariant, TrainConfig, VisionTransformer};

    fn entry(variant: AttentionVariant) -> Arc<ModelEntry> {
        let mut reg = ModelRegistry::new();
        let key = reg
            .register(
                "m",
                VisionTransformer::new(&mut StdRng::seed_from_u64(0), TrainConfig::tiny(), variant),
            )
            .expect("valid model name");
        reg.get(&key).unwrap()
    }

    fn request(
        entry: &Arc<ModelEntry>,
    ) -> (
        PendingRequest,
        mpsc::Receiver<Result<InferReply, ServeError>>,
    ) {
        request_with_deadline(entry, None)
    }

    fn request_with_deadline(
        entry: &Arc<ModelEntry>,
        deadline: Option<RequestDeadline>,
    ) -> (
        PendingRequest,
        mpsc::Receiver<Result<InferReply, ServeError>>,
    ) {
        let (tx, rx) = mpsc::channel();
        let cfg = entry.config();
        (
            PendingRequest {
                entry: Arc::clone(entry),
                image: Matrix::zeros(cfg.image_size, cfg.image_size),
                submitted: Instant::now(),
                deadline,
                responder: Responder::channel(tx),
                trace: None,
            },
            rx,
        )
    }

    fn batcher(max_batch: usize, max_delay: Duration, capacity: usize) -> Batcher {
        Batcher::new(
            BatchPolicy {
                max_batch,
                max_delay,
                queue_capacity: capacity,
            },
            Arc::new(Metrics::new()),
        )
    }

    #[test]
    fn max_size_flush_is_immediate() {
        let b = batcher(4, Duration::from_secs(3600), 64);
        let e = entry(AttentionVariant::Taylor);
        let _rxs: Vec<_> = (0..6)
            .map(|_| {
                let (req, rx) = request(&e);
                b.submit(req).unwrap();
                rx
            })
            .collect();
        // A full batch must flush long before the (hour-long) deadline.
        let start = Instant::now();
        let batch = b.next_batch().expect("batch due");
        assert_eq!(batch.len(), 4);
        assert!(start.elapsed() < Duration::from_secs(10));
        assert_eq!(b.depth(), 2, "remainder stays queued");
    }

    #[test]
    fn deadline_flush_releases_a_partial_batch() {
        let b = batcher(8, Duration::from_millis(30), 64);
        let e = entry(AttentionVariant::Taylor);
        let mut rxs = Vec::new();
        for _ in 0..3 {
            let (req, rx) = request(&e);
            b.submit(req).unwrap();
            rxs.push(rx);
        }
        let start = Instant::now();
        let batch = b.next_batch().expect("batch due");
        let waited = start.elapsed();
        assert_eq!(batch.len(), 3, "partial batch flushed at the deadline");
        assert!(
            waited >= Duration::from_millis(20),
            "flushed after only {waited:?} despite a 30ms deadline"
        );
        assert_eq!(b.depth(), 0);
    }

    #[test]
    fn shutdown_drains_queued_requests_then_ends() {
        let b = batcher(4, Duration::from_secs(3600), 64);
        let e = entry(AttentionVariant::Taylor);
        let _rxs: Vec<_> = (0..5)
            .map(|_| {
                let (req, rx) = request(&e);
                b.submit(req).unwrap();
                rx
            })
            .collect();
        b.shutdown();
        // Everything admitted before shutdown is still flushed, in batches.
        assert_eq!(b.next_batch().expect("drain batch 1").len(), 4);
        assert_eq!(b.next_batch().expect("drain batch 2").len(), 1);
        assert!(b.next_batch().is_none(), "drained batcher ends the stream");
        // New admissions are refused.
        let (req, _rx) = request(&e);
        assert_eq!(b.submit(req).unwrap_err(), ServeError::ShuttingDown);
    }

    #[test]
    fn overload_sheds_with_a_typed_error() {
        let b = batcher(2, Duration::from_secs(3600), 2);
        let e = entry(AttentionVariant::Taylor);
        let (r1, _rx1) = request(&e);
        let (r2, _rx2) = request(&e);
        let (r3, _rx3) = request(&e);
        b.submit(r1).unwrap();
        b.submit(r2).unwrap();
        match b.submit(r3).unwrap_err() {
            ServeError::Overloaded {
                queue_depth,
                capacity,
            } => {
                assert_eq!(queue_depth, 2);
                assert_eq!(capacity, 2);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }

    #[test]
    fn batches_are_homogeneous_per_model() {
        let b = batcher(8, Duration::from_millis(10), 64);
        let taylor = entry(AttentionVariant::Taylor);
        let softmax = entry(AttentionVariant::Softmax);
        let mut rxs = Vec::new();
        // Interleave the two models.
        for i in 0..6 {
            let (req, rx) = request(if i % 2 == 0 { &taylor } else { &softmax });
            b.submit(req).unwrap();
            rxs.push(rx);
        }
        let first = b.next_batch().expect("first model batch");
        let second = b.next_batch().expect("second model batch");
        assert_eq!(first.len(), 3);
        assert_eq!(second.len(), 3);
        assert!(first.iter().all(|r| r.entry.key() == "m:taylor"));
        assert!(second.iter().all(|r| r.entry.key() == "m:softmax"));
        assert_eq!(b.depth(), 0);
    }

    #[test]
    fn a_full_batch_for_another_model_does_not_wait_behind_the_head() {
        let b = batcher(3, Duration::from_secs(3600), 64);
        let taylor = entry(AttentionVariant::Taylor);
        let softmax = entry(AttentionVariant::Softmax);
        // Lone head request for one model with an hour of deadline left...
        let (head, _head_rx) = request(&taylor);
        b.submit(head).unwrap();
        // ...then a complete batch for the other model arrives behind it.
        let _rxs: Vec<_> = (0..3)
            .map(|_| {
                let (req, rx) = request(&softmax);
                b.submit(req).unwrap();
                rx
            })
            .collect();
        let start = Instant::now();
        let batch = b.next_batch().expect("full batch due");
        assert!(start.elapsed() < Duration::from_secs(10));
        assert_eq!(batch.len(), 3);
        assert!(batch.iter().all(|r| r.entry.key() == "m:softmax"));
        assert_eq!(b.depth(), 1, "the head request keeps its own deadline");
    }

    #[test]
    #[should_panic(expected = "queue_capacity")]
    fn policies_that_cannot_hold_a_batch_are_rejected() {
        batcher(16, Duration::from_millis(1), 4);
    }

    /// An already-expired deadline anchored safely in the past.
    fn expired_deadline() -> RequestDeadline {
        RequestDeadline {
            expires: Instant::now() - Duration::from_millis(1),
            budget_ms: 5,
        }
    }

    #[test]
    fn expired_requests_are_shed_with_a_504_and_never_reach_a_worker() {
        let b = batcher(8, Duration::from_millis(10), 64);
        let e = entry(AttentionVariant::Taylor);
        // Interleave live and already-expired requests.
        let mut live_rxs = Vec::new();
        let mut dead_rxs = Vec::new();
        for i in 0..6 {
            if i % 2 == 0 {
                let (req, rx) = request(&e);
                b.submit(req).unwrap();
                live_rxs.push(rx);
            } else {
                let (req, rx) = request_with_deadline(&e, Some(expired_deadline()));
                b.submit(req).unwrap();
                dead_rxs.push(rx);
            }
        }
        let flushed = b.next_batch().expect("live batch due");
        assert_eq!(flushed.len(), 3, "only the live requests flush");
        assert!(
            flushed.iter().all(|r| r.deadline.is_none()),
            "no expired request reaches a worker"
        );
        for rx in dead_rxs {
            match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                Err(ServeError::DeadlineExceeded { budget_ms }) => assert_eq!(budget_ms, 5),
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
        }
        assert_eq!(b.depth(), 0);
    }

    #[test]
    fn live_requests_keep_arrival_order_across_expired_shedding() {
        let b = batcher(8, Duration::from_millis(10), 64);
        let e = entry(AttentionVariant::Taylor);
        // Tag arrival order through the image's first pixel: expired requests sit at
        // positions 1 and 3 of a 5-deep queue.
        let mut rxs = Vec::new();
        for i in 0..5u64 {
            let deadline = (i % 2 == 1).then(expired_deadline);
            let (mut req, rx) = request_with_deadline(&e, deadline);
            req.image.set(0, 0, i as f32);
            b.submit(req).unwrap();
            rxs.push(rx);
        }
        let flushed = b.next_batch().expect("live batch due");
        let order: Vec<f32> = flushed.iter().map(|r| r.image.get(0, 0)).collect();
        assert_eq!(
            order,
            vec![0.0, 2.0, 4.0],
            "live entries preserve arrival order after the purge"
        );
    }

    #[test]
    fn still_live_deadlines_ride_along_uncut() {
        let b = batcher(8, Duration::from_millis(10), 64);
        let e = entry(AttentionVariant::Taylor);
        let (req, _rx) = request_with_deadline(&e, Some(RequestDeadline::from_budget_ms(60_000)));
        b.submit(req).unwrap();
        let flushed = b.next_batch().expect("batch due");
        assert_eq!(
            flushed.len(),
            1,
            "a live deadline does not shed the request"
        );
        assert!(
            flushed[0].deadline.is_some(),
            "the deadline travels with it"
        );
    }

    #[test]
    fn head_flush_timing_is_unchanged_when_no_deadline_is_set() {
        // Same shape as `deadline_flush_releases_a_partial_batch`, re-asserted here
        // as the explicit "deadline_ms absent" contract: the purge and the
        // deadline-aware wake must not change when the field is unused.
        let b = batcher(8, Duration::from_millis(30), 64);
        let e = entry(AttentionVariant::Taylor);
        let mut rxs = Vec::new();
        for _ in 0..3 {
            let (req, rx) = request(&e);
            b.submit(req).unwrap();
            rxs.push(rx);
        }
        let start = Instant::now();
        let batch = b.next_batch().expect("batch due");
        let waited = start.elapsed();
        assert_eq!(batch.len(), 3);
        assert!(
            waited >= Duration::from_millis(20),
            "flushed after only {waited:?}: deadline machinery must not hasten the flush"
        );
        assert!(
            waited < Duration::from_secs(10),
            "flushed only after {waited:?}: deadline machinery must not delay the flush"
        );
    }

    #[test]
    fn a_pending_expiry_wakes_the_worker_before_the_flush_deadline() {
        // Head has an hour of coalescing budget but a ~40ms caller deadline; the 504
        // must go out near the expiry, not at the hour mark (or the next submit).
        let b = batcher(8, Duration::from_secs(3600), 64);
        let e = entry(AttentionVariant::Taylor);
        let (req, rx) = request_with_deadline(&e, Some(RequestDeadline::from_budget_ms(40)));
        b.submit(req).unwrap();
        let worker = {
            let start = Instant::now();
            std::thread::scope(|scope| {
                let handle = scope.spawn(|| b.next_batch());
                let err = rx.recv_timeout(Duration::from_secs(10)).unwrap();
                assert!(matches!(
                    err,
                    Err(ServeError::DeadlineExceeded { budget_ms: 40 })
                ));
                let waited = start.elapsed();
                assert!(
                    waited < Duration::from_secs(10),
                    "shed after {waited:?}; the wake must track the expiry"
                );
                b.shutdown();
                handle.join().unwrap()
            })
        };
        assert!(worker.is_none(), "queue drained after the shed");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Random live/expired interleavings: shedding partitions the queue exactly.
        // Every expired request gets a typed 504 echoing *its own* budget and never
        // reaches a worker; every live request flushes; arrival order survives the
        // purge.
        #[test]
        fn shedding_partitions_random_interleavings_exactly(
            len in 1usize..24,
            kinds in proptest::collection::vec(0u32..3, 24),
        ) {
            let b = batcher(64, Duration::from_millis(5), 256);
            let e = entry(AttentionVariant::Taylor);
            // kind 0: no deadline; kind 1: generous live deadline; kind 2: expired.
            let mut expired = Vec::new();
            let mut live_tags = Vec::new();
            let mut live_rxs = Vec::new();
            for (i, kind) in kinds[..len].iter().enumerate() {
                let deadline = match kind {
                    0 => None,
                    1 => Some(RequestDeadline::from_budget_ms(60_000)),
                    _ => Some(RequestDeadline {
                        expires: Instant::now() - Duration::from_millis(1),
                        budget_ms: 1 + i as u64,
                    }),
                };
                let (mut req, rx) = request_with_deadline(&e, deadline);
                req.image.set(0, 0, i as f32);
                b.submit(req).unwrap();
                if *kind == 2 {
                    expired.push((1 + i as u64, rx));
                } else {
                    live_tags.push(i as f32);
                    live_rxs.push(rx);
                }
            }
            if live_tags.is_empty() {
                // next_batch blocks on an empty queue; keep one live request around
                // so the flush loop below terminates while still exercising the
                // all-expired shed.
                let (mut req, rx) = request(&e);
                req.image.set(0, 0, len as f32);
                b.submit(req).unwrap();
                live_tags.push(len as f32);
                live_rxs.push(rx);
            }
            let mut flushed_tags = Vec::new();
            while flushed_tags.len() < live_tags.len() {
                let batch = b.next_batch().expect("live requests are due");
                for r in &batch {
                    let now = Instant::now();
                    prop_assert!(
                        !r.deadline.is_some_and(|d| d.expired_at(now)),
                        "an expired request reached a worker"
                    );
                    flushed_tags.push(r.image.get(0, 0));
                }
            }
            prop_assert_eq!(flushed_tags, live_tags);
            prop_assert_eq!(b.depth(), 0);
            for (budget, rx) in expired {
                match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                    Err(ServeError::DeadlineExceeded { budget_ms }) => {
                        prop_assert_eq!(budget_ms, budget, "the 504 echoes its own budget");
                    }
                    other => {
                        prop_assert!(false, "expected DeadlineExceeded, got {other:?}");
                    }
                }
            }
        }

        // Generous budgets are never falsely shed: whatever the mix of budgets,
        // every request flushes to a worker with its deadline still attached.
        #[test]
        fn generous_budgets_always_flush_with_the_deadline_attached(
            len in 1usize..12,
            budgets in proptest::collection::vec(30_000u64..120_000, 12),
        ) {
            let b = batcher(64, Duration::from_millis(5), 256);
            let e = entry(AttentionVariant::Taylor);
            let mut rxs = Vec::new();
            for &ms in &budgets[..len] {
                let (req, rx) =
                    request_with_deadline(&e, Some(RequestDeadline::from_budget_ms(ms)));
                b.submit(req).unwrap();
                rxs.push(rx);
            }
            let mut budgets_seen = Vec::new();
            while budgets_seen.len() < len {
                let batch = b.next_batch().expect("live requests are due");
                for r in &batch {
                    let deadline = r.deadline.expect("the deadline travels to the worker");
                    budgets_seen.push(deadline.budget_ms);
                }
            }
            prop_assert_eq!(budgets_seen, budgets[..len].to_vec());
            prop_assert_eq!(b.depth(), 0);
        }
    }
}
