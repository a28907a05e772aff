//! Tier routing and response-cache semantics of the gateway over real sockets: the
//! `tier` protocol field observably lands on different attention variants, repeat
//! images are served from the cache with bit-identical replies, routing-policy
//! misconfigurations surface as typed errors, and a malformed request still gets its
//! `request_id` echoed.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::JsonValue;
use vitality_gateway::{CacheConfig, Gateway, GatewayConfig, RoutingPolicy, TierRules};
use vitality_serve::http::{write_request_typed, MessageReader};
use vitality_serve::protocol::BINARY_CONTENT_TYPE;
use vitality_serve::{ClientError, InferOptions, ModelRegistry, ServeClient, Server, ServerConfig};
use vitality_tensor::{init, Matrix};
use vitality_vit::{AttentionVariant, Int8Calibration, TrainConfig, VisionTransformer};

/// One engine serving the taylor, int8 and unified variants of the same weights —
/// the tier targets the default routing policy resolves to.
fn tiered_engine(base: &VisionTransformer) -> Server {
    let mut int8 = base.clone();
    int8.set_variant(AttentionVariant::Int8Taylor {
        calibration: Int8Calibration::Dynamic,
    });
    let mut unified = base.clone();
    unified.set_variant(AttentionVariant::Unified { threshold: 0.5 });
    let mut registry = ModelRegistry::new();
    registry.register("vit", base.clone()).expect("taylor");
    registry.register("vit", int8).expect("int8");
    registry.register("vit", unified).expect("unified");
    Server::start(
        ServerConfig {
            workers: 2,
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("boot engine")
}

/// Request options carrying only a routing-tier hint.
fn with_tier(tier: &str) -> InferOptions<'_> {
    InferOptions {
        tier: Some(tier),
        ..InferOptions::default()
    }
}

/// Request options carrying only a remaining-budget deadline.
fn with_deadline(deadline_ms: u64) -> InferOptions<'static> {
    InferOptions {
        deadline_ms: Some(deadline_ms),
        ..InferOptions::default()
    }
}

fn image(cfg: &TrainConfig, seed: u64) -> Matrix {
    init::uniform(
        &mut StdRng::seed_from_u64(seed),
        cfg.image_size,
        cfg.image_size,
        0.0,
        1.0,
    )
}

#[test]
fn tiers_land_on_different_variants_and_are_observable() {
    let cfg = TrainConfig::tiny();
    let base = VisionTransformer::new(
        &mut StdRng::seed_from_u64(11),
        cfg,
        AttentionVariant::Taylor,
    );
    let engines = [tiered_engine(&base), tiered_engine(&base)];
    let addrs: Vec<_> = engines.iter().map(Server::local_addr).collect();
    let gateway = Gateway::start(GatewayConfig::default(), &addrs).expect("boot gateway");
    let mut client = ServeClient::connect(gateway.local_addr()).expect("connect");

    let mut int8_direct = base.clone();
    int8_direct.set_variant(AttentionVariant::Int8Taylor {
        calibration: Int8Calibration::Dynamic,
    });
    let mut unified_direct = base.clone();
    unified_direct.set_variant(AttentionVariant::Unified { threshold: 0.5 });

    for seed in 0..4u64 {
        let img = image(&cfg, 500 + seed);
        // tier: latency rewrites the variant half to int8.
        let latency = client
            .infer_detailed("vit:taylor", &img, &with_tier("latency"))
            .expect("latency tier")
            .reply;
        assert_eq!(latency.model, "vit:int8", "latency tier lands on int8");
        assert_eq!(latency.prediction, int8_direct.predict(&img));
        // tier: accuracy rewrites it to unified.
        let accuracy = client
            .infer_detailed("vit:taylor", &img, &with_tier("accuracy"))
            .expect("accuracy tier")
            .reply;
        assert_eq!(
            accuracy.model, "vit:unified",
            "accuracy tier lands on unified"
        );
        assert_eq!(accuracy.prediction, unified_direct.predict(&img));
        // No tier: the requested key passes through untouched.
        let plain = client.infer("vit:taylor", &img).expect("no tier");
        assert_eq!(plain.model, "vit:taylor");
        assert_eq!(plain.prediction, base.predict(&img));
    }

    // The split is observable on the gateway's /metrics without any client state.
    let (status, metrics) = client.get("/metrics").expect("metrics");
    assert_eq!(status, 200);
    let routed = metrics.get("routed").expect("routed block");
    assert_eq!(routed.get("int8").and_then(JsonValue::as_usize), Some(4));
    assert_eq!(routed.get("unified").and_then(JsonValue::as_usize), Some(4));
    assert_eq!(routed.get("taylor").and_then(JsonValue::as_usize), Some(4));

    // An unknown tier is a typed 400; a tier resolving to an unserved variant is a
    // typed 404 — neither reaches an engine.
    let img = image(&cfg, 900);
    match client.infer_detailed("vit:taylor", &img, &with_tier("bulk")) {
        Err(ClientError::Server { status, code, .. }) => {
            assert_eq!(status, 400);
            assert_eq!(code, "bad_request");
        }
        other => panic!("expected 400 for an unknown tier, got {other:?}"),
    }

    drop(client);
    gateway.shutdown();
    for engine in engines {
        engine.shutdown();
    }
}

#[test]
fn repeat_images_hit_the_cache_with_identical_replies() {
    let cfg = TrainConfig::tiny();
    let base = VisionTransformer::new(
        &mut StdRng::seed_from_u64(21),
        cfg,
        AttentionVariant::Taylor,
    );
    let engine = tiered_engine(&base);
    let gateway = Gateway::start(
        GatewayConfig {
            cache: CacheConfig {
                capacity: 64,
                ttl: Duration::from_secs(60),
                shards: 4,
            },
            ..GatewayConfig::default()
        },
        &[engine.local_addr()],
    )
    .expect("boot gateway");
    let mut client = ServeClient::connect(gateway.local_addr()).expect("connect");

    let img = image(&cfg, 1234);
    let first = client.infer("vit:taylor", &img).expect("miss path");
    let second = client.infer("vit:taylor", &img).expect("hit path");
    assert_eq!(first.prediction, second.prediction);
    assert_eq!(first.logits, second.logits, "cache hits are bit-identical");

    // The enriched healthz surfaces operational state alongside routing facts:
    // admission pressure, ejections, brownout posture and cache occupancy.
    let (status, health) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(JsonValue::as_str), Some("ok"));
    assert_eq!(health.get("healthy").and_then(JsonValue::as_usize), Some(1));
    assert_eq!(health.get("ejected").and_then(JsonValue::as_usize), Some(0));
    assert_eq!(
        health.get("ejections_total").and_then(JsonValue::as_usize),
        Some(0)
    );
    assert_eq!(
        health
            .get("in_flight_requests")
            .and_then(JsonValue::as_usize),
        Some(0),
        "no request is in flight while healthz is being answered"
    );
    let brownout = health.get("brownout").expect("brownout block");
    assert_eq!(
        brownout.get("engaged").and_then(JsonValue::as_bool),
        Some(false),
        "an idle cluster is never browned out"
    );
    assert_eq!(
        brownout.get("entries").and_then(JsonValue::as_usize),
        Some(0)
    );
    let cache_health = health.get("cache").expect("cache block");
    assert_eq!(
        cache_health.get("entries").and_then(JsonValue::as_usize),
        Some(1),
        "one cached response so far"
    );
    assert_eq!(
        cache_health.get("capacity").and_then(JsonValue::as_usize),
        Some(64)
    );

    // The same image under a different tier is a distinct cache entry.
    let tiered = client
        .infer_detailed("vit:taylor", &img, &with_tier("latency"))
        .expect("tiered miss")
        .reply;
    assert_eq!(tiered.model, "vit:int8");

    let metrics = gateway.metrics_json();
    let cache = metrics.get("cache").expect("cache block");
    assert_eq!(cache.get("hits").and_then(JsonValue::as_usize), Some(1));
    assert_eq!(cache.get("misses").and_then(JsonValue::as_usize), Some(2));
    assert_eq!(cache.get("entries").and_then(JsonValue::as_usize), Some(2));
    // The hit never touched an engine: backend requests stay at the two misses.
    let backend_requests: usize = metrics
        .get("backends")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|b| b.get("requests").and_then(JsonValue::as_usize).unwrap())
        .sum();
    assert_eq!(backend_requests, 2);

    drop(client);
    gateway.shutdown();
    engine.shutdown();
}

#[test]
fn deadlines_ride_the_protocol_end_to_end() {
    let cfg = TrainConfig::tiny();
    let base = VisionTransformer::new(
        &mut StdRng::seed_from_u64(41),
        cfg,
        AttentionVariant::Taylor,
    );
    let engine = tiered_engine(&base);
    let gateway = Gateway::start(
        GatewayConfig {
            cache: CacheConfig {
                capacity: 0,
                ..CacheConfig::default()
            },
            ..GatewayConfig::default()
        },
        &[engine.local_addr()],
    )
    .expect("boot gateway");
    let mut client = ServeClient::connect(gateway.local_addr()).expect("connect");
    let img = image(&cfg, 77);

    // A generous budget is forwarded and the request completes normally.
    let reply = client
        .infer_detailed("vit:taylor", &img, &with_deadline(10_000))
        .expect("live budget")
        .reply;
    assert_eq!(reply.prediction, base.predict(&img));

    // A zero budget is shed at the gateway as a typed 504 with no Retry-After.
    match client.infer_detailed("vit:taylor", &img, &with_deadline(0)) {
        Err(err) => {
            assert_eq!(err.retry_after_secs(), None, "504s carry no Retry-After");
            match err {
                ClientError::Server { status, code, .. } => {
                    assert_eq!(status, 504);
                    assert_eq!(code, "deadline_exceeded");
                }
                other => panic!("expected a typed 504, got {other:?}"),
            }
        }
        Ok(_) => panic!("a zero budget must never be served"),
    }
    // The connection survives the 504 (keep-alive framing intact).
    let reply = client
        .infer_detailed("vit:taylor", &img, &with_deadline(10_000))
        .expect("same connection serves")
        .reply;
    assert_eq!(reply.prediction, base.predict(&img));

    let metrics = gateway.metrics_json();
    assert_eq!(
        metrics
            .get("deadline_expired")
            .and_then(JsonValue::as_usize),
        Some(1)
    );
    drop(client);
    gateway.shutdown();
    engine.shutdown();
}

#[test]
fn misrouted_models_surface_typed_errors_not_retry_storms() {
    let cfg = TrainConfig::tiny();
    let base = VisionTransformer::new(
        &mut StdRng::seed_from_u64(31),
        cfg,
        AttentionVariant::Taylor,
    );
    let engine = tiered_engine(&base);
    // A routing policy pointing the latency tier at a variant nobody serves.
    let gateway = Gateway::start(
        GatewayConfig {
            routing: RoutingPolicy {
                default_rules: TierRules {
                    latency: "performer".to_string(),
                    accuracy: "unified".to_string(),
                },
                model_rules: vec![],
            },
            ..GatewayConfig::default()
        },
        &[engine.local_addr()],
    )
    .expect("boot gateway");
    let mut client = ServeClient::connect(gateway.local_addr()).expect("connect");
    let img = image(&cfg, 55);
    match client.infer_detailed("vit:taylor", &img, &with_tier("latency")) {
        Err(ClientError::Server {
            status,
            code,
            message,
            ..
        }) => {
            assert_eq!(status, 404);
            assert_eq!(code, "model_not_found");
            assert!(
                message.contains("vit:performer"),
                "the error names the *resolved* key: {message}"
            );
        }
        other => panic!("expected 404 for an unserved resolved key, got {other:?}"),
    }
    // An entirely unknown model 404s the same way, and the connection survives.
    match client.infer("ghost:taylor", &img) {
        Err(ClientError::Server { status, .. }) => assert_eq!(status, 404),
        other => panic!("expected 404, got {other:?}"),
    }
    assert_eq!(client.get("/healthz").expect("alive").0, 200);
    let metrics = gateway.metrics_json();
    assert_eq!(
        metrics.get("retries").and_then(JsonValue::as_usize),
        Some(0)
    );
    drop(client);
    gateway.shutdown();
    engine.shutdown();
}

#[test]
fn a_400_for_a_later_field_still_echoes_the_clients_request_id() {
    let cfg = TrainConfig::tiny();
    let base = VisionTransformer::new(
        &mut StdRng::seed_from_u64(51),
        cfg,
        AttentionVariant::Taylor,
    );
    let engine = tiered_engine(&base);
    let gateway =
        Gateway::start(GatewayConfig::default(), &[engine.local_addr()]).expect("boot gateway");
    let mut stream = std::net::TcpStream::connect(gateway.local_addr()).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut reader = MessageReader::new();
    // JSON: a good id, then a ragged image.
    let json = br#"{"request_id": "cafe0001", "model": "vit:taylor", "image": [[1, 2], [3]]}"#;
    // Binary: a well-formed 1x1 frame whose metadata has a good id and a bad tier.
    let meta = br#"{"request_id": "cafe0002", "model": "vit:taylor", "tier": 3}"#;
    let mut frame = b"VTLY\x01".to_vec();
    frame.extend_from_slice(&(meta.len() as u32).to_le_bytes());
    frame.extend_from_slice(meta);
    frame.extend_from_slice(&1u32.to_le_bytes());
    frame.extend_from_slice(&1u32.to_le_bytes());
    frame.extend_from_slice(&0.5f32.to_le_bytes());
    for (wire, content_type, id) in [
        (&json[..], "application/json", "cafe0001"),
        (&frame[..], BINARY_CONTENT_TYPE, "cafe0002"),
    ] {
        write_request_typed(&mut stream, "POST", "/v1/infer", wire, content_type)
            .expect("write request");
        let response = reader
            .read_message(&mut stream, 1 << 20, &|| false)
            .expect("read response")
            .expect("response present");
        assert_eq!(response.status_code().expect("status line"), 400, "{id}");
        let body = serde::json::parse(std::str::from_utf8(&response.body).expect("utf-8 body"))
            .expect("error responses are still JSON");
        assert_eq!(
            body.get("error")
                .and_then(|e| e.get("code"))
                .and_then(JsonValue::as_str),
            Some("bad_request"),
            "{id}"
        );
        assert_eq!(
            body.get("request_id").and_then(JsonValue::as_str),
            Some(id),
            "the 400 must quote the id the client sent"
        );
    }
    // Neither request was admitted, let alone routed.
    let metrics = gateway.metrics_json();
    assert_eq!(
        metrics.get("requests").and_then(JsonValue::as_usize),
        Some(0)
    );
    assert_eq!(metrics.get("failed").and_then(JsonValue::as_usize), Some(2));
    drop(stream);
    gateway.shutdown();
    engine.shutdown();
}
