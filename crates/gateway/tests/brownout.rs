//! Brownout degradation end to end over real sockets: queue pressure on a
//! deliberately slow engine makes the gateway answer `accuracy`-tier requests from
//! the int8 variant instead of queueing or shedding them — availability stays 100%,
//! every degraded reply is exact int8 inference — and accuracy traffic lands back on
//! `unified` once the load has drained.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::JsonValue;
use vitality_gateway::{BrownoutConfig, CacheConfig, Gateway, GatewayConfig};
use vitality_serve::{
    BatchPolicy, InferOptions, InferReply, ModelRegistry, ServeClient, Server, ServerConfig,
};
use vitality_tensor::{init, Matrix};
use vitality_vit::{AttentionVariant, Int8Calibration, TrainConfig, VisionTransformer};

/// 196 tokens, where a unified forward is several times an int8 one: the accuracy
/// tier is expensive enough for sixteen clients to queue behind one worker.
fn config() -> TrainConfig {
    TrainConfig {
        image_size: 56,
        patch_size: 4,
        embed_dim: 32,
        heads: 4,
        layers: 2,
        mlp_ratio: 2.0,
        classes: 8,
    }
}

const ACCURACY: InferOptions<'static> = InferOptions {
    tier: Some("accuracy"),
    deadline_ms: None,
    request_id: None,
    trace: false,
};

#[test]
fn queue_pressure_degrades_accuracy_to_int8_then_recovers() {
    let cfg = config();
    let taylor = VisionTransformer::new(
        &mut StdRng::seed_from_u64(196),
        cfg,
        AttentionVariant::Taylor,
    );
    let mut unified = taylor.clone();
    unified.set_variant(AttentionVariant::Unified { threshold: 0.5 });
    let mut int8 = taylor.clone();
    int8.set_variant(AttentionVariant::Int8Taylor {
        calibration: Int8Calibration::Dynamic,
    });
    let images: Vec<Matrix> = (0..16)
        .map(|i| {
            init::uniform(
                &mut StdRng::seed_from_u64(40_000 + i),
                cfg.image_size,
                cfg.image_size,
                0.0,
                1.0,
            )
        })
        .collect();
    let logits = |model: &VisionTransformer| -> Vec<Vec<f32>> {
        images
            .iter()
            .map(|img| model.infer(img).logits.row(0).to_vec())
            .collect()
    };
    let (unified_logits, int8_logits) = (logits(&unified), logits(&int8));

    // One worker under sixteen `unified` clients: requests arrive faster than it
    // answers them, so concurrent accuracy-tier load builds real queue depth.
    let mut registry = ModelRegistry::new();
    for model in [taylor, unified, int8] {
        registry.register("vit196", model).expect("valid name");
    }
    let engine = Server::start(
        ServerConfig {
            workers: 1,
            policy: BatchPolicy {
                max_batch: 4,
                queue_capacity: 2048,
            },
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("boot engine");
    let gateway = Gateway::start(
        GatewayConfig {
            probe_interval: Duration::from_millis(20),
            probe_timeout: Duration::from_millis(500),
            // Every request must reach the engine: a cache hit builds no pressure.
            cache: CacheConfig {
                capacity: 0,
                ..CacheConfig::default()
            },
            brownout: BrownoutConfig {
                enter_pressure: 3.0,
                exit_pressure: 0.5,
                min_hold: Duration::from_millis(200),
                miss_p95_trigger_us: None,
            },
            ..GatewayConfig::default()
        },
        &[engine.local_addr()],
    )
    .expect("boot gateway");
    let addr = gateway.local_addr();

    // An accuracy request answers from `unified`, or — degraded — from `int8`;
    // either way with exactly that variant's direct inference.
    let degraded_replies = AtomicUsize::new(0);
    let check = |idx: usize, reply: &InferReply| match reply.model.as_str() {
        "vit196:unified" => assert_eq!(reply.logits, unified_logits[idx], "unified reply"),
        "vit196:int8" => {
            degraded_replies.fetch_add(1, Ordering::Relaxed);
            assert_eq!(reply.logits, int8_logits[idx], "degraded reply");
        }
        other => panic!("an accuracy-tier request was answered by {other}"),
    };

    let (clients, per_client) = (16, 8);
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (images, check) = (&images, &check);
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect gateway");
                for j in 0..per_client {
                    let idx = (c * per_client + j) % images.len();
                    let response = client
                        .infer_detailed("vit196:taylor", &images[idx], &ACCURACY)
                        .expect("brownout must degrade requests, never shed them");
                    check(idx, &response.reply);
                }
            });
        }
    });
    assert!(
        degraded_replies.load(Ordering::Relaxed) > 0,
        "brownout never engaged under queue pressure"
    );

    // Recovery: with the load gone the queue drains, pressure falls through the
    // exit threshold, and accuracy traffic lands back on unified.
    let mut client = ServeClient::connect(addr).expect("connect gateway");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let response = client
            .infer_detailed("vit196:taylor", &images[0], &ACCURACY)
            .expect("recovery probe");
        check(0, &response.reply);
        if response.reply.model == "vit196:unified" {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "brownout never released after the load drained"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let metrics = gateway.metrics_json();
    let counter = |name: &str| metrics.get(name).and_then(JsonValue::as_usize);
    assert_eq!(
        counter("degraded"),
        Some(degraded_replies.load(Ordering::Relaxed)),
        "every degraded reply is counted, once"
    );
    assert_eq!(counter("failed"), Some(0), "availability stayed at 100%");
    drop(client);
    gateway.shutdown();
    engine.shutdown();
}
