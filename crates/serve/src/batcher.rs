//! The dynamic batcher: a bounded admission queue that coalesces concurrent
//! single-image requests into per-model batches.
//!
//! # Coalescing policy
//!
//! The batcher is **work-conserving**: it never holds a request back while a worker
//! could be running it. A worker calling [`Batcher::next_batch`] sleeps only while the
//! queue is empty, and a batch is flushed under one of two rules:
//!
//! 1. **a worker is free** — a worker asks for work while requests are queued (or is
//!    woken by the first [`Batcher::submit`] into an empty queue) and takes them at
//!    once: the oldest request's model, up to [`BatchPolicy::max_batch`] of them;
//! 2. **shutdown drain** — [`Batcher::shutdown`] was called; everything already queued
//!    is still flushed (in batches, by the same rule) so no admitted request goes
//!    unanswered, and `next_batch` returns `None` only once the queue is empty.
//!
//! There is deliberately no coalescing delay. A request is queued only while every
//! worker is busy, so batches larger than one form exactly when they cost nobody
//! anything — under load — and an idle engine answers a lone request after one
//! forward pass instead of after a timer. A batch of the models served today is a
//! loop over its images (it amortises per-request overhead, it does not make an
//! image cheaper), so waiting for riders would buy latency and nothing else.
//! [`InferReply::queue_us`] therefore reads as *time until a worker was free*.
//!
//! Batches are homogeneous in model: a flush takes the requests sharing the head
//! (oldest) request's registry key, preserving arrival order, and leaves requests for
//! other models queued for the next free worker. The oldest request is always in the
//! next batch, so mixed traffic cannot starve a model. This is what turns the paper's
//! linear-attention win into server throughput — `infer_batch_into` over a coalesced
//! batch amortises per-request overhead while the O(n) Taylor kernels keep per-image
//! cost flat.
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
    /// Largest batch handed to a worker. A free worker takes what is queued for the
    /// oldest request's model up to this bound; there is no minimum and no wait.
    pub max_batch: usize,
    /// Admission-queue bound; requests beyond it are shed with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 16,
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
    /// Microseconds the request spent queued before its batch formed — the time
    /// until a worker was free to take it (there is no coalescing delay).
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
    /// When the request entered the queue (the origin of its queue-wait and latency
    /// measurements).
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
        // One new request is work for at most one waiting worker.
        self.nonempty.notify_one();
        Ok(())
    }

    /// Returns the next batch — at once when requests are queued, otherwise as soon
    /// as one is submitted — or `None` once the batcher is shut down *and* drained.
    ///
    /// The batch is the head (oldest) request's model, up to
    /// [`BatchPolicy::max_batch`] requests in arrival order; requests for other models
    /// stay queued for the next free worker.
    ///
    /// Before the batch is taken the queue is purged of requests whose
    /// [`RequestDeadline`] has already expired: each is answered with a typed 504
    /// ([`ServeError::DeadlineExceeded`]) without spending any inference on it, and
    /// live requests keep their arrival order. A request is queued only while every
    /// worker is busy, so no worker is ever parked to shed it earlier than this.
    pub fn next_batch(&self) -> Option<Vec<PendingRequest>> {
        let mut state = self.state.lock().expect("batcher lock poisoned");
        loop {
            self.shed_expired(&mut state.queue, Instant::now());
            if !state.queue.is_empty() {
                let batch = Self::take_head_model(&mut state.queue, self.policy.max_batch);
                // Requests for other models (or beyond `max_batch`) are still due:
                // wake another worker for them rather than leaving them to wait for
                // the next submit.
                if !state.queue.is_empty() {
                    self.nonempty.notify_one();
                }
                drop(state);
                self.metrics.record_batch(batch.len());
                return Some(batch);
            }
            if state.shutdown {
                return None;
            }
            state = self.nonempty.wait(state).expect("batcher lock poisoned");
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

    /// Removes up to `max` requests sharing the head request's registry key, in
    /// arrival order, leaving everything else queued. One forward pass that stops once
    /// the batch is full: a same-model run at the head costs O(batch) whatever the
    /// queue depth (`VecDeque::remove` shifts the shorter side).
    fn take_head_model(queue: &mut VecDeque<PendingRequest>, max: usize) -> Vec<PendingRequest> {
        let Some(head) = queue.front().map(|request| Arc::clone(&request.entry)) else {
            return Vec::new();
        };
        let mut batch = Vec::with_capacity(max.min(queue.len()));
        let mut index = 0;
        while index < queue.len() && batch.len() < max {
            if queue[index].entry.key() == head.key() {
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

    fn batcher(max_batch: usize, capacity: usize) -> Batcher {
        Batcher::new(
            BatchPolicy {
                max_batch,
                queue_capacity: capacity,
            },
            Arc::new(Metrics::new()),
        )
    }

    /// Submits one request per tag, stamping the tag into the image's first pixel so
    /// arrival order can be read back off a flushed batch.
    fn submit_tagged(
        b: &Batcher,
        entry: &Arc<ModelEntry>,
        tags: impl IntoIterator<Item = u32>,
    ) -> Vec<mpsc::Receiver<Result<InferReply, ServeError>>> {
        tags.into_iter()
            .map(|tag| {
                let (mut req, rx) = request(entry);
                req.image.set(0, 0, tag as f32);
                b.submit(req).unwrap();
                rx
            })
            .collect()
    }

    fn tags(batch: &[PendingRequest]) -> Vec<u32> {
        batch.iter().map(|r| r.image.get(0, 0) as u32).collect()
    }

    #[test]
    fn a_flush_is_capped_at_max_batch() {
        let b = batcher(4, 64);
        let e = entry(AttentionVariant::Taylor);
        let _rxs = submit_tagged(&b, &e, 0..6);
        let batch = b.next_batch().expect("batch due");
        assert_eq!(tags(&batch), vec![0, 1, 2, 3]);
        assert_eq!(b.depth(), 2, "remainder stays queued");
        assert_eq!(tags(&b.next_batch().expect("remainder due")), vec![4, 5]);
    }

    #[test]
    fn a_partial_batch_is_handed_over_at_once() {
        // No clock in this test: a worker that asks while three requests are queued
        // gets the three, however far below `max_batch` that is.
        let b = batcher(8, 64);
        let e = entry(AttentionVariant::Taylor);
        let _rxs = submit_tagged(&b, &e, 0..3);
        let batch = b.next_batch().expect("batch due");
        assert_eq!(tags(&batch), vec![0, 1, 2]);
        assert_eq!(b.depth(), 0);
    }

    #[test]
    fn a_waiting_worker_is_woken_by_the_first_submit() {
        let b = batcher(8, 64);
        let e = entry(AttentionVariant::Taylor);
        let (asking_tx, asking_rx) = mpsc::channel();
        let batch = std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                asking_tx.send(()).unwrap();
                b.next_batch()
            });
            // The queue is empty until the worker is about to ask, so it can only
            // return by being handed this submit — and it must not wait for riders.
            asking_rx.recv().unwrap();
            let _rxs = submit_tagged(&b, &e, 0..1);
            worker.join().unwrap().expect("batch due")
        });
        assert_eq!(
            batch.len(),
            1,
            "the first arrival is not held back for riders"
        );
        assert_eq!(b.depth(), 0);
    }

    #[test]
    fn shutdown_drains_queued_requests_then_ends() {
        let b = batcher(4, 64);
        let e = entry(AttentionVariant::Taylor);
        let _rxs = submit_tagged(&b, &e, 0..5);
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
        let b = batcher(2, 2);
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
        let b = batcher(8, 64);
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
    fn the_heads_model_flushes_first_and_the_other_model_next() {
        let b = batcher(3, 64);
        let taylor = entry(AttentionVariant::Taylor);
        let softmax = entry(AttentionVariant::Softmax);
        // A lone head request for one model, a complete batch for the other behind
        // it, then a straggler for the head's model.
        let _head_rx = submit_tagged(&b, &taylor, 0..1);
        let _rxs = submit_tagged(&b, &softmax, 1..4);
        let _tail_rx = submit_tagged(&b, &taylor, 4..5);
        let first = b.next_batch().expect("head's batch due");
        assert!(first.iter().all(|r| r.entry.key() == "m:taylor"));
        assert_eq!(
            tags(&first),
            vec![0, 4],
            "the oldest request is never passed over"
        );
        assert_eq!(
            b.depth(),
            3,
            "the other model waits for the next free worker"
        );
        let second = b.next_batch().expect("other model's batch due");
        assert!(second.iter().all(|r| r.entry.key() == "m:softmax"));
        assert_eq!(tags(&second), vec![1, 2, 3]);
        assert_eq!(b.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "queue_capacity")]
    fn policies_that_cannot_hold_a_batch_are_rejected() {
        batcher(16, 4);
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
        let b = batcher(8, 64);
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
        let b = batcher(8, 64);
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
        assert_eq!(
            tags(&flushed),
            vec![0, 2, 4],
            "live entries preserve arrival order after the purge"
        );
    }

    #[test]
    fn still_live_deadlines_ride_along_uncut() {
        let b = batcher(8, 64);
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
    fn a_worker_woken_by_an_expired_request_sheds_it_and_keeps_waiting() {
        let b = batcher(8, 64);
        let e = entry(AttentionVariant::Taylor);
        let ended = std::thread::scope(|scope| {
            let worker = scope.spawn(|| b.next_batch());
            let (req, rx) = request_with_deadline(&e, Some(expired_deadline()));
            b.submit(req).unwrap();
            // The 504 comes from the worker's purge; with nothing live left it must
            // go back to waiting rather than return an empty batch.
            let shed = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert!(matches!(
                shed,
                Err(ServeError::DeadlineExceeded { budget_ms: 5 })
            ));
            b.shutdown();
            worker.join().unwrap()
        });
        assert!(ended.is_none(), "only the shutdown ends the wait");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Random live/expired submits across two models, interleaved with worker
        // calls: shedding and flushing partition the stream exactly. Every expired
        // request gets a typed 504 echoing *its own* budget and never reaches a
        // worker; every live request comes out exactly once, in a batch of its own
        // model no larger than `max_batch`, in per-model arrival order; and the
        // oldest queued request is always in the next batch (no starvation).
        #[test]
        fn shedding_partitions_random_interleavings_exactly(
            len in 1usize..24,
            max_batch in 1usize..5,
            kinds in proptest::collection::vec(0u32..3, 24),
            models in proptest::collection::vec(0usize..2, 24),
            // A worker asks after step i when `asks[i] == 0`.
            asks in proptest::collection::vec(0u32..3, 24),
        ) {
            let b = batcher(max_batch, 256);
            let entries = [entry(AttentionVariant::Taylor), entry(AttentionVariant::Softmax)];
            let mut expired = Vec::new();
            let mut live_rxs = Vec::new();
            // Arrival-ordered tags: still queued (any model), and per model every
            // live tag submitted / flushed so far.
            let mut queued: VecDeque<u32> = VecDeque::new();
            let mut submitted_live = [Vec::new(), Vec::new()];
            let mut flushed_live = [Vec::new(), Vec::new()];
            let mut check_batch = |batch: &[PendingRequest],
                                   queued: &mut VecDeque<u32>|
             -> Result<(), String> {
                prop_assert!(!batch.is_empty() && batch.len() <= max_batch);
                let model = entries
                    .iter()
                    .position(|e| e.key() == batch[0].entry.key())
                    .expect("a registered model");
                prop_assert_eq!(
                    Some(&tags(batch)[0]),
                    queued.front(),
                    "the oldest queued request leads the next batch"
                );
                let now = Instant::now();
                for r in batch {
                    prop_assert_eq!(r.entry.key(), entries[model].key(), "homogeneous batch");
                    prop_assert!(
                        !r.deadline.is_some_and(|d| d.expired_at(now)),
                        "an expired request reached a worker"
                    );
                    let tag = r.image.get(0, 0) as u32;
                    let at = queued.iter().position(|&t| t == tag);
                    prop_assert!(at.is_some(), "request {} flushed twice or never queued", tag);
                    queued.remove(at.expect("checked above"));
                    flushed_live[model].push(tag);
                }
                Ok(())
            };
            for i in 0..len {
                // kind 0: no deadline; kind 1: generous live deadline; kind 2: expired.
                let deadline = match kinds[i] {
                    0 => None,
                    1 => Some(RequestDeadline::from_budget_ms(60_000)),
                    _ => Some(RequestDeadline {
                        expires: Instant::now() - Duration::from_millis(1),
                        budget_ms: 1 + i as u64,
                    }),
                };
                let (mut req, rx) = request_with_deadline(&entries[models[i]], deadline);
                req.image.set(0, 0, i as f32);
                b.submit(req).unwrap();
                if kinds[i] == 2 {
                    expired.push((1 + i as u64, rx));
                } else {
                    queued.push_back(i as u32);
                    submitted_live[models[i]].push(i as u32);
                    live_rxs.push(rx);
                }
                // next_batch blocks while nothing live is queued: only ask when the
                // call is due to return.
                if asks[i] == 0 && !queued.is_empty() {
                    let batch = b.next_batch().expect("live requests are due");
                    check_batch(&batch, &mut queued)?;
                }
            }
            // The drain flushes what is left (and purges trailing expired requests)
            // by the same rule, then ends the stream.
            b.shutdown();
            while let Some(batch) = b.next_batch() {
                check_batch(&batch, &mut queued)?;
            }
            prop_assert!(queued.is_empty(), "live requests left behind: {:?}", queued);
            prop_assert_eq!(flushed_live, submitted_live);
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
            let b = batcher(64, 256);
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
