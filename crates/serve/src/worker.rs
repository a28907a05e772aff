//! The worker pool: threads that pull formed batches from the [`Batcher`] and run
//! them through the shared models.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::batcher::{Batcher, InferReply, PendingRequest};
use crate::metrics::Metrics;
use vitality_tensor::Workspace;
use vitality_vit::VitOutput;

/// A fixed pool of inference worker threads.
///
/// Each worker loops on [`Batcher::next_batch`] — which hands a free worker whatever
/// is queued at once, so a batch larger than one is exactly what arrived while the
/// whole pool was busy — and runs the batch through the entry's
/// [`infer_batch_into`](vitality_vit::VisionTransformer::infer_batch_into) on its own
/// long-lived [`Workspace`] and output vector — the allocation-free steady-state loop
/// (parallelism comes from the pool itself, one warm workspace per worker; a batch
/// fans out into image lanes of its own only above `infer_batch_into`'s work grain,
/// which no batch of the models served today reaches). Workers exit when the batcher
/// reports drained shutdown, so [`WorkerPool::join`] after
/// [`Batcher::shutdown`](crate::Batcher::shutdown) guarantees every admitted request
/// has been answered.
#[derive(Debug)]
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one) pulling from `batcher`.
    pub fn start(workers: usize, batcher: Arc<Batcher>, metrics: Arc<Metrics>) -> Self {
        Self::start_named(workers, batcher, metrics, "serve-worker")
    }

    /// Like [`WorkerPool::start`], with an explicit thread-name prefix.
    ///
    /// The server qualifies the prefix with its bound port
    /// (`serve-worker-<port>-<i>`) so failpoint thread scoping can fault one
    /// engine of an in-process cluster while its siblings stay healthy.
    pub fn start_named(
        workers: usize,
        batcher: Arc<Batcher>,
        metrics: Arc<Metrics>,
        name_prefix: &str,
    ) -> Self {
        let handles = (0..workers.max(1))
            .map(|i| {
                let batcher = Arc::clone(&batcher);
                let metrics = Arc::clone(&metrics);
                std::thread::Builder::new()
                    .name(format!("{name_prefix}-{i}"))
                    .spawn(move || {
                        // Per-worker scratch, warm for the lifetime of the thread:
                        // after the first batch, inference itself allocates nothing.
                        let mut ws = Workspace::new();
                        let mut outputs: Vec<VitOutput> = Vec::new();
                        while let Some(batch) = batcher.next_batch() {
                            let ran =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    run_batch(batch, &metrics, &mut ws, &mut outputs)
                                }));
                            if ran.is_err() {
                                // The batch's responders dropped with the panic:
                                // channel-backed requests surface as Disconnected to
                                // their blocking handler, hook-backed ones fire their
                                // drop guard with a typed 500 on this unwind path.
                                // Either way every request is answered 500 and the
                                // pool itself survives.
                                // The workspace may hold partially-written state —
                                // start the next batch from fresh scratch.
                                metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                                trace::warn!(
                                    "worker absorbed a batch panic; replacing workspace \
                                     (total panics: {})",
                                    metrics.worker_panics.load(Ordering::Relaxed)
                                );
                                ws = Workspace::new();
                                outputs = Vec::new();
                            }
                        }
                    })
                    .expect("spawn serve worker")
            })
            .collect();
        Self { handles }
    }

    /// Number of worker threads.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Whether the pool has no threads (never true for a started pool).
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Waits for every worker to exit (call after the batcher's shutdown).
    pub fn join(self) {
        for handle in self.handles {
            handle.join().expect("serve worker panicked");
        }
    }
}

/// Runs one formed (model-homogeneous) batch on the worker's warm workspace and
/// answers every request in it. `outputs` carries the previous batch's results back in
/// so their buffers are recycled before inference (see
/// `VisionTransformer::infer_batch_into`).
fn run_batch(
    batch: Vec<PendingRequest>,
    metrics: &Metrics,
    ws: &mut Workspace,
    outputs: &mut Vec<VitOutput>,
) {
    debug_assert!(!batch.is_empty(), "batcher never yields empty batches");
    // Drop guard rather than paired add/sub: a panic inside inference must not leave
    // the `/healthz` in-flight count stuck high (it is a routing signal upstream).
    struct InFlight<'a>(&'a Metrics);
    impl Drop for InFlight<'_> {
        fn drop(&mut self) {
            self.0.in_flight_batches.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let formed = Instant::now();
    let entry = Arc::clone(&batch[0].entry);
    let mut images = Vec::with_capacity(batch.len());
    let mut meta = Vec::with_capacity(batch.len());
    for request in batch {
        debug_assert_eq!(request.entry.key(), entry.key(), "homogeneous batch");
        // Last line of defence for deadlines: a request can expire between the
        // batcher's purge and batch assembly (this thread can lose the CPU in
        // between). Skipping it here keeps the contract that no inference is ever
        // spent on an expired request.
        if let Some(deadline) = request.deadline {
            if deadline.expired_at(formed) {
                metrics.expired.fetch_add(1, Ordering::Relaxed);
                request.responder.send(Err(deadline.error()));
                continue;
            }
        }
        images.push(request.image);
        meta.push((request.submitted, request.responder, request.trace));
    }
    if images.is_empty() {
        return;
    }
    let batch_size = images.len();
    // Chaos site: `panic` here simulates a worker dying mid-batch (after assembly,
    // before any reply is sent), the worst moment for the requests riding the batch.
    failpoint::fire("serve-worker-batch");
    // The in-flight window covers inference only: it must have closed by the time
    // any reply is sent, or a client probing /healthz right after its reply could
    // read a stale nonzero count.
    // Resolved once per batch; recording through it is lock-free.
    let variant_stats = metrics.variant(entry.variant_label());
    let infer_start = Instant::now();
    {
        metrics.in_flight_batches.fetch_add(1, Ordering::Relaxed);
        let _in_flight = InFlight(metrics);
        entry.model().infer_batch_into(&images, outputs, ws);
    }
    let infer_end = Instant::now();
    let compute_us = infer_end.duration_since(infer_start).as_micros() as u64;
    for (output, (submitted, responder, request_trace)) in outputs.iter().zip(meta) {
        let logits = output.logits.row(0).to_vec();
        let prediction = argmax(&logits);
        let queue_us = formed.duration_since(submitted).as_micros() as u64;
        metrics.queue_wait.record_us(queue_us);
        let latency_us = submitted.elapsed().as_micros() as u64;
        metrics.latency.record_us(latency_us);
        metrics.completed.fetch_add(1, Ordering::Relaxed);
        variant_stats.requests.fetch_add(1, Ordering::Relaxed);
        variant_stats.latency.record_us(latency_us);
        variant_stats.queue_wait.record_us(queue_us);
        variant_stats.compute.record_us(compute_us);
        if let Some(t) = &request_trace {
            t.record("queue_wait", String::new(), submitted, formed);
            t.record("batch_assembly", String::new(), formed, infer_start);
            t.record(
                "compute",
                format!("{} batch={batch_size}", entry.variant_label()),
                infer_start,
                infer_end,
            );
        }
        // A caller that stopped listening (disconnected mid-flight) is the
        // responder's concern; the work is done either way.
        responder.send(Ok(InferReply {
            model: entry.key().to_string(),
            prediction,
            logits,
            batch_size,
            queue_us,
        }));
    }
}

fn argmax(logits: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::{BatchPolicy, Responder};
    use crate::error::ServeError;
    use crate::registry::{ModelEntry, ModelRegistry};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::mpsc;
    use std::time::Duration;
    use vitality_tensor::{init, Matrix};
    use vitality_vit::{AttentionVariant, TrainConfig, VisionTransformer};

    type ReplyRx = mpsc::Receiver<Result<InferReply, ServeError>>;

    struct Fixture {
        model: VisionTransformer,
        entry: Arc<ModelEntry>,
        metrics: Arc<Metrics>,
        batcher: Arc<Batcher>,
        pool: WorkerPool,
    }

    fn fixture(workers: usize, max_batch: usize) -> Fixture {
        let model = VisionTransformer::new(
            &mut StdRng::seed_from_u64(7),
            TrainConfig::tiny(),
            AttentionVariant::Taylor,
        );
        let mut reg = ModelRegistry::new();
        let key = reg.register("m", model.clone()).expect("valid model name");
        let metrics = Arc::new(Metrics::new());
        let batcher = Arc::new(Batcher::new(
            BatchPolicy {
                max_batch,
                queue_capacity: 64,
            },
            Arc::clone(&metrics),
        ));
        let pool = WorkerPool::start(workers, Arc::clone(&batcher), Arc::clone(&metrics));
        Fixture {
            model,
            entry: reg.get(&key).unwrap(),
            metrics,
            batcher,
            pool,
        }
    }

    fn image(seed: u64) -> Matrix {
        let cfg = TrainConfig::tiny();
        init::uniform(
            &mut StdRng::seed_from_u64(seed),
            cfg.image_size,
            cfg.image_size,
            0.0,
            1.0,
        )
    }

    fn submit(f: &Fixture, image: Matrix, responder: Responder) {
        f.batcher
            .submit(PendingRequest {
                entry: Arc::clone(&f.entry),
                image,
                submitted: Instant::now(),
                deadline: None,
                responder,
                trace: None,
            })
            .unwrap();
    }

    fn submit_all(f: &Fixture, seeds: std::ops::Range<u64>) -> Vec<ReplyRx> {
        seeds
            .map(|seed| {
                let (tx, rx) = mpsc::channel();
                submit(f, image(seed), Responder::channel(tx));
                rx
            })
            .collect()
    }

    fn answer(rx: &ReplyRx) -> InferReply {
        rx.recv_timeout(Duration::from_secs(30))
            .expect("worker answered")
            .expect("inference succeeded")
    }

    /// Makes a one-worker pool deterministically busy, no clock involved: submits a
    /// request whose responder hook blocks the worker (mid-`run_batch`, its inference
    /// done) until the returned sender fires or drops. Returns once the worker is
    /// inside the hook, so everything submitted afterwards finds no free worker.
    fn park_the_worker(f: &Fixture) -> mpsc::Sender<()> {
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        submit(
            f,
            image(99),
            Responder::hook(move |_served| {
                let _ = parked_tx.send(());
                // Released by a send or by the test dropping the sender on unwind.
                let _ = release_rx.recv();
            }),
        );
        parked_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the worker took the parking request");
        release_tx
    }

    #[test]
    fn workers_answer_every_request_with_the_direct_result() {
        let f = fixture(2, 4);
        assert_eq!(f.pool.len(), 2);
        assert!(!f.pool.is_empty());

        let receivers = submit_all(&f, 100..109);
        for (seed, rx) in (100..109).zip(&receivers) {
            let reply = answer(rx);
            let image = image(seed);
            assert_eq!(reply.model, "m:taylor");
            assert_eq!(reply.prediction, f.model.predict(&image));
            assert_eq!(reply.logits, f.model.infer(&image).logits.row(0).to_vec());
            assert!((1..=4).contains(&reply.batch_size));
        }

        f.batcher.shutdown();
        f.pool.join();
        assert_eq!(f.metrics.completed.load(Ordering::Relaxed), 9);
        assert!(f.metrics.latency.count() == 9 && f.metrics.queue_wait.count() == 9);
    }

    #[test]
    fn arrivals_behind_a_busy_worker_come_back_as_one_batch() {
        // Below, at and above `max_batch`: what queued while the worker was busy is
        // taken in one go, capped at `max_batch`, and the remainder right after.
        for k in [3usize, 4, 6] {
            let f = fixture(1, 4);
            let release = park_the_worker(&f);
            let receivers = submit_all(&f, 0..k as u64);
            assert_eq!(f.batcher.depth(), k, "no free worker: arrivals wait");
            release.send(()).unwrap();

            let first = k.min(4);
            for (i, rx) in receivers.iter().enumerate() {
                let reply = answer(rx);
                let expected = if i < first { first } else { k - first };
                assert_eq!(reply.batch_size, expected, "request {i} of {k}");
                assert_eq!(
                    reply.logits,
                    f.model.infer(&image(i as u64)).logits.row(0).to_vec(),
                    "riding in a batch must not change the answer"
                );
            }
            f.batcher.shutdown();
            f.pool.join();
            assert_eq!(f.metrics.max_batch(), first);
            assert_eq!(f.batcher.depth(), 0);
        }
    }

    #[test]
    fn shutdown_behind_a_busy_worker_still_answers_the_queue() {
        let f = fixture(1, 4);
        let release = park_the_worker(&f);
        let receivers = submit_all(&f, 0..3);
        f.batcher.shutdown();
        assert_eq!(f.batcher.depth(), 3, "the drain waits for the worker");
        release.send(()).unwrap();
        for rx in &receivers {
            assert_eq!(answer(rx).batch_size, 3);
        }
        f.pool.join();
        // The parking request and the three drained ones.
        assert_eq!(f.metrics.completed.load(Ordering::Relaxed), 4);
    }
}
