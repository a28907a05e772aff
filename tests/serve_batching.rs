//! Batching-semantics guarantees the serving engine depends on: `infer_batch_into`
//! must be *element-wise identical* to per-image `infer` for ragged batch sizes — a
//! coalesced batch may never change a response — and
//! `/healthz` must report the batcher's load (queue depth + in-flight batches), the
//! signal the cluster gateway's least-loaded routing reads.

use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::JsonValue;

use vitality::serve::http::{self, MessageReader};
use vitality::serve::{BatchPolicy, ModelRegistry, Server, ServerConfig};
use vitality::tensor::{init, Matrix, Workspace};
use vitality::vit::{AttentionVariant, TrainConfig, VisionTransformer};

/// The busy-worker gate, defined once next to the engine's own socket tests.
#[path = "../crates/serve/tests/gate/mod.rs"]
mod gate;

/// The ragged sizes the batcher actually produces: singletons on an idle engine,
/// small batches behind a briefly busy worker, a prime mid-size and one crossing the
/// default max-batch boundary.
const RAGGED_SIZES: [usize; 4] = [1, 2, 7, 33];

fn images(cfg: &TrainConfig, seed: u64, count: usize) -> Vec<Matrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| init::uniform(&mut rng, cfg.image_size, cfg.image_size, -1.0, 1.0))
        .collect()
}

/// `/healthz` reports the queue's depth and the in-flight batch count while requests
/// wait for the engine's only worker — the numbers a gateway ranks engines by.
///
/// The batcher holds nothing back for a timer, so the requests are parked behind
/// work (see [`gate`]): the gate request goes first, the light requests and the probe
/// follow back to back on the same connection. The loop thread parses them
/// microseconds after the gate and answers the GET inline, at parse time.
#[test]
fn healthz_reports_queue_depth_and_in_flight_batches() {
    let cfg = TrainConfig::tiny();
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "m",
            VisionTransformer::new(&mut StdRng::seed_from_u64(5), cfg, AttentionVariant::Taylor),
        )
        .expect("valid name");
    gate::register(&mut registry);
    let server = Server::start(
        ServerConfig {
            policy: BatchPolicy {
                max_batch: 64,
                queue_capacity: 64,
            },
            workers: 1,
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("boot server");

    let mut stream = gate::send_gate_then(server.local_addr(), "m:taylor", &images(&cfg, 40, 3));
    http::write_request(&mut stream, "GET", "/healthz", b"").expect("write probe");

    let mut reader = MessageReader::new();
    assert_eq!(
        gate::read_infer_reply(&mut reader, &mut stream).batch_size,
        1
    );
    for _ in 0..3 {
        assert_eq!(
            gate::read_infer_reply(&mut reader, &mut stream).batch_size,
            3,
            "what queued behind the busy worker is taken together"
        );
    }
    let (status, health) = gate::read_reply(&mut reader, &mut stream);
    assert_eq!(status, 200);
    let depth = health
        .get("queue_depth")
        .and_then(JsonValue::as_usize)
        .expect("healthz must report queue_depth");
    let in_flight = health
        .get("in_flight_batches")
        .and_then(JsonValue::as_usize)
        .expect("healthz must report in_flight_batches");
    // Three light requests, plus the gate itself if the worker had not picked it up
    // yet when the probe was parsed.
    assert!(
        (3..=4).contains(&depth),
        "queued requests must show in healthz, read queue_depth {depth}"
    );
    assert!(in_flight <= 1, "one worker runs at most one batch");
    drop(stream);
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn infer_batch_is_elementwise_identical_to_sequential_infer(
        model_seed in 0u64..1_000_000,
        image_seed in 0u64..1_000_000,
    ) {
        let cfg = TrainConfig::tiny();
        let mut rng = StdRng::seed_from_u64(model_seed);
        let model = VisionTransformer::new(&mut rng, cfg, AttentionVariant::Taylor);
        // One workspace and output vector across the sizes, as an engine worker holds
        // them, so every call also recycles a differently-sized previous round.
        let (mut ws, mut batched) = (Workspace::new(), Vec::new());
        for size in RAGGED_SIZES {
            let batch = images(&cfg, image_seed, size);
            model.infer_batch_into(&batch, &mut batched, &mut ws);
            prop_assert_eq!(batched.len(), size);
            for (out, img) in batched.iter().zip(batch.iter()) {
                let single = model.infer(img);
                // Bit-exact, not approximate: the batch path must run the same
                // arithmetic as the per-image path.
                prop_assert_eq!(&out.logits, &single.logits, "size {}", size);
                prop_assert_eq!(&out.tokens, &single.tokens, "size {}", size);
            }
        }
    }
}
