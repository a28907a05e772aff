//! Boot two `vitality-serve` engines behind the `vitality-gateway` cluster
//! front-end, then drive it end-to-end: tiered requests landing on different
//! attention variants, repeat images served from the response cache, and an engine
//! kill that the retry budget absorbs without losing a request.
//!
//! ```bash
//! cargo run --release --example cluster
//! ```
//!
//! Each engine registers the same weights three times — the linear Taylor key
//! (`demo:taylor`), the int8-quantized latency tier (`demo:int8`) and the unified
//! low-rank + sparse accuracy tier (`demo:unified`) — so one cluster serves
//! ViTALiTy's cheap and accurate paths side by side and the gateway routes between
//! them per request.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vitality::gateway::{Gateway, GatewayConfig};
use vitality::serve::{InferOptions, ModelRegistry, ServeClient, Server, ServerConfig};
use vitality::tensor::init;
use vitality::vit::{AttentionVariant, Int8Calibration, TrainConfig, VisionTransformer};

fn engine(base: &VisionTransformer, addr: &str) -> Server {
    let mut int8 = base.clone();
    int8.set_variant(AttentionVariant::Int8Taylor {
        calibration: Int8Calibration::Dynamic,
    });
    let mut unified = base.clone();
    unified.set_variant(AttentionVariant::Unified { threshold: 0.5 });
    let mut registry = ModelRegistry::new();
    registry.register("demo", base.clone()).expect("valid name");
    registry.register("demo", int8).expect("valid name");
    registry.register("demo", unified).expect("valid name");
    Server::start(
        ServerConfig {
            addr: addr.to_string(),
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("boot engine")
}

fn main() {
    // 1. Two engines sharing the same warm weights.
    let cfg = TrainConfig::experiment();
    let mut rng = StdRng::seed_from_u64(7);
    let base = VisionTransformer::new(&mut rng, cfg, AttentionVariant::Taylor);
    let engine_a = engine(&base, "127.0.0.1:0");
    let engine_b = engine(&base, "127.0.0.1:0");
    let addrs = [engine_a.local_addr(), engine_b.local_addr()];

    // 2. The gateway in front: probing, least-loaded routing, caching, tier rules.
    let gateway = Gateway::start(
        GatewayConfig {
            probe_interval: Duration::from_millis(50),
            ..GatewayConfig::default()
        },
        &addrs,
    )
    .expect("boot gateway");
    println!(
        "gateway on http://{} fronting {} engines ({} healthy)",
        gateway.local_addr(),
        addrs.len(),
        gateway.healthy_backends()
    );

    // 3. One image through all three routes: pass-through, latency tier, accuracy
    //    tier — same weights, three attention kernels, one cluster endpoint.
    let mut client = ServeClient::connect(gateway.local_addr()).expect("connect gateway");
    let image = init::uniform(&mut rng, cfg.image_size, cfg.image_size, 0.0, 1.0);
    let plain = client.infer("demo:taylor", &image).expect("pass-through");
    let tiered = |tier| InferOptions {
        tier: Some(tier),
        ..InferOptions::default()
    };
    let fast = client
        .infer_detailed("demo:taylor", &image, &tiered("latency"))
        .expect("latency tier")
        .reply;
    let exact = client
        .infer_detailed("demo:taylor", &image, &tiered("accuracy"))
        .expect("accuracy tier")
        .reply;
    println!(
        "no tier        → {} answered class {}",
        plain.model, plain.prediction
    );
    println!(
        "tier: latency  → {} answered class {}",
        fast.model, fast.prediction
    );
    println!(
        "tier: accuracy → {} answered class {}",
        exact.model, exact.prediction
    );

    // 4. Repeat the same request: the response cache answers without any engine.
    let again = client.infer("demo:taylor", &image).expect("cache hit");
    assert_eq!(again.logits, plain.logits, "cache hits are bit-identical");
    let metrics = gateway.metrics_json();
    let cache = metrics.get("cache").expect("cache block");
    println!(
        "repeat request served from cache (hits {}, misses {})",
        cache.get("hits").unwrap(),
        cache.get("misses").unwrap()
    );

    // 5. Kill one engine mid-traffic: the retry budget fails the requests over.
    engine_b.shutdown();
    for i in 0..6u64 {
        let img = init::uniform(
            &mut StdRng::seed_from_u64(900 + i),
            cfg.image_size,
            cfg.image_size,
            0.0,
            1.0,
        );
        let reply = client
            .infer("demo:taylor", &img)
            .expect("failover keeps every request answered");
        assert_eq!(reply.prediction, base.predict(&img));
    }
    println!(
        "engine killed mid-traffic: 6/6 requests still answered correctly ({} healthy backend left)",
        gateway.healthy_backends()
    );

    // 6. Routing observability, then a clean shutdown (engines are independent).
    let routed = gateway.metrics_json();
    println!(
        "gateway /metrics routed block: {}",
        routed.get("routed").unwrap()
    );
    drop(client);
    gateway.shutdown();
    engine_a.shutdown();
    println!("cluster drained and shut down cleanly");
}
