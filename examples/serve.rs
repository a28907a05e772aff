//! Boot the `vitality-serve` engine, drive it with concurrent clients over HTTP, read
//! the health and metrics endpoints, and shut down cleanly.
//!
//! ```bash
//! cargo run --release --example serve
//! ```
//!
//! The example registers the same weights twice — once with the linear Taylor
//! attention, once with the softmax baseline — so the two registry keys
//! (`demo:taylor`, `demo:softmax`) serve the paper's comparison side by side. Eight
//! client threads then hammer the Taylor model concurrently through a single worker.
//! The batcher never waits on a timer: a request that finds the worker free runs
//! alone and at once, and the ones that arrive while it is busy are taken together
//! when it frees up — those are the batches visible in the per-reply `batch_size`
//! and the final `/metrics` snapshot.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vitality::serve::{BatchPolicy, ModelRegistry, ServeClient, Server, ServerConfig};
use vitality::tensor::init;
use vitality::vit::{AttentionVariant, TrainConfig, VisionTransformer};

fn main() {
    // 1. Warm two shareable models (same weights, different attention variants).
    let cfg = TrainConfig::experiment();
    let mut rng = StdRng::seed_from_u64(7);
    let taylor = VisionTransformer::new(&mut rng, cfg, AttentionVariant::Taylor);
    let mut softmax = taylor.clone();
    softmax.set_variant(AttentionVariant::Softmax);

    let mut registry = ModelRegistry::new();
    let taylor_key = registry
        .register("demo", taylor.clone())
        .expect("valid name");
    let softmax_key = registry.register("demo", softmax).expect("valid name");

    // 2. Boot the engine on an ephemeral port. One worker under eight clients is
    //    busy most of the time, so arrivals queue behind it and coalesce.
    let server = Server::start(
        ServerConfig {
            workers: 1,
            policy: BatchPolicy {
                max_batch: 8,
                queue_capacity: 128,
            },
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("boot server");
    let addr = server.local_addr();
    println!("vitality-serve listening on http://{addr}");

    // 3. Health check.
    let mut probe = ServeClient::connect(addr).expect("connect");
    let (status, health) = probe.get("/healthz").expect("healthz");
    println!("GET /healthz → {status} {health}");

    // 4. Concurrent clients: 8 threads x 6 requests over keep-alive connections.
    let outcomes: Vec<(usize, usize)> = std::thread::scope(|scope| {
        (0..8usize)
            .map(|c| {
                let taylor_key = taylor_key.as_str();
                let taylor = &taylor;
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    let mut max_batch = 0;
                    let mut correct = 0;
                    for i in 0..6u64 {
                        let img = init::uniform(
                            &mut StdRng::seed_from_u64(100 * c as u64 + i),
                            cfg.image_size,
                            cfg.image_size,
                            0.0,
                            1.0,
                        );
                        let reply = client.infer(taylor_key, &img).expect("inference");
                        max_batch = max_batch.max(reply.batch_size);
                        if reply.prediction == taylor.predict(&img) {
                            correct += 1;
                        }
                    }
                    (correct, max_batch)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let correct: usize = outcomes.iter().map(|(c, _)| c).sum();
    let max_batch = outcomes.iter().map(|(_, b)| *b).max().unwrap_or(0);
    println!("48 concurrent requests: {correct}/48 match direct inference, largest coalesced batch {max_batch}");

    // 5. The softmax baseline serves from the same registry.
    let img = init::uniform(
        &mut StdRng::seed_from_u64(999),
        cfg.image_size,
        cfg.image_size,
        0.0,
        1.0,
    );
    let reply = probe.infer(&softmax_key, &img).expect("softmax inference");
    println!(
        "softmax baseline answered class {} in a batch of {}",
        reply.prediction, reply.batch_size
    );

    // 6. Server-side metrics, then a clean shutdown.
    let (_, metrics) = probe.get("/metrics").expect("metrics");
    println!("GET /metrics → {metrics}");
    drop(probe);
    server.shutdown();
    println!("server drained and shut down cleanly");
}
