//! Failover guarantees of the cluster gateway over real sockets: an engine killed
//! under concurrent load loses zero admitted requests and produces zero incorrect
//! replies, the dead backend is ejected from routing, and restarting an engine on the
//! same address re-admits it.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::JsonValue;
use vitality_gateway::{CacheConfig, Gateway, GatewayConfig};
use vitality_serve::{ModelRegistry, ServeClient, Server, ServerConfig};
use vitality_tensor::{init, Matrix};
use vitality_vit::{AttentionVariant, TrainConfig, VisionTransformer};

fn engine(model: &VisionTransformer, addr: &str) -> Server {
    let mut registry = ModelRegistry::new();
    registry.register("vit", model.clone()).expect("valid name");
    Server::start(
        ServerConfig {
            addr: addr.to_string(),
            workers: 2,
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("boot engine")
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

fn backend_health(gateway: &Gateway, addr: SocketAddr) -> bool {
    gateway
        .metrics_json()
        .get("backends")
        .and_then(JsonValue::as_array)
        .expect("backends block")
        .iter()
        .find(|b| b.get("addr").and_then(JsonValue::as_str) == Some(&addr.to_string()))
        .expect("backend listed")
        .get("healthy")
        .and_then(JsonValue::as_bool)
        .expect("healthy flag")
}

#[test]
fn engine_kill_under_load_loses_nothing_and_restart_readmits() {
    let cfg = TrainConfig::tiny();
    let model =
        VisionTransformer::new(&mut StdRng::seed_from_u64(3), cfg, AttentionVariant::Taylor);
    let engine_a = engine(&model, "127.0.0.1:0");
    let engine_b = engine(&model, "127.0.0.1:0");
    let b_addr = engine_b.local_addr();
    let addrs = [engine_a.local_addr(), b_addr];
    let gateway = Gateway::start(
        GatewayConfig {
            probe_interval: Duration::from_millis(50),
            probe_timeout: Duration::from_millis(500),
            retry_budget: 4,
            max_backoff: Duration::from_millis(100),
            // Unique images per request below; disable caching so every request
            // actually exercises an engine (and the kill window).
            cache: CacheConfig {
                capacity: 0,
                ..CacheConfig::default()
            },
            ..GatewayConfig::default()
        },
        &addrs,
    )
    .expect("boot gateway");
    assert_eq!(
        gateway.healthy_backends(),
        2,
        "the synchronous boot probe admits both engines"
    );
    let gw_addr = gateway.local_addr();

    // Concurrent load across the kill: every request must be answered correctly —
    // an in-flight failure on the dying engine has to fail over, not surface.
    let threads = 4usize;
    let per_thread = 12usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let model = &model;
                let cfg = &cfg;
                scope.spawn(move || {
                    let mut client = ServeClient::connect(gw_addr).expect("connect gateway");
                    for i in 0..per_thread {
                        let img = image(cfg, 10_000 + (t * per_thread + i) as u64);
                        let reply = client
                            .infer("vit:taylor", &img)
                            .expect("an admitted request must never be lost to an engine kill");
                        assert_eq!(reply.model, "vit:taylor");
                        assert_eq!(
                            reply.prediction,
                            model.predict(&img),
                            "failover must not change answers"
                        );
                        // Stretch the load window so the kill lands mid-traffic.
                        std::thread::sleep(Duration::from_millis(5));
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(100));
        engine_b.shutdown(); // the mid-run kill
        for handle in handles {
            handle.join().expect("client thread");
        }
    });

    // The dead backend is ejected (by a failed request or the prober).
    let deadline = Instant::now() + Duration::from_secs(5);
    while backend_health(&gateway, b_addr) {
        assert!(
            Instant::now() < deadline,
            "dead backend was never ejected from routing"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The gateway still answers from the surviving engine.
    let mut client = ServeClient::connect(gw_addr).expect("connect gateway");
    let img = image(&cfg, 77);
    assert_eq!(
        client
            .infer("vit:taylor", &img)
            .expect("survivor serves")
            .prediction,
        model.predict(&img)
    );

    // Restart an engine on the dead backend's address: the prober re-admits it.
    let engine_b2 = engine(&model, &b_addr.to_string());
    let deadline = Instant::now() + Duration::from_secs(5);
    while !backend_health(&gateway, b_addr) {
        assert!(
            Instant::now() < deadline,
            "restarted backend was never re-admitted"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(gateway.healthy_backends(), 2);

    // And it serves traffic again (drive enough requests that least-loaded routing
    // reaches both backends).
    for i in 0..8 {
        let img = image(&cfg, 200 + i);
        assert_eq!(
            client
                .infer("vit:taylor", &img)
                .expect("post-heal")
                .prediction,
            model.predict(&img)
        );
    }

    let metrics = gateway.metrics_json();
    assert_eq!(
        metrics.get("failed").and_then(JsonValue::as_usize),
        Some(0),
        "zero client-visible failures through the kill"
    );
    assert!(
        metrics
            .get("backends")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .any(|b| b.get("ejections").and_then(JsonValue::as_usize) == Some(1)),
        "the kill shows up as exactly one ejection"
    );

    drop(client);
    gateway.shutdown();
    engine_a.shutdown();
    engine_b2.shutdown();
}

#[test]
fn a_cluster_with_no_admitted_backend_answers_typed_503() {
    // Nothing listens on these ports (bind-then-drop reserves then frees them).
    let dead: Vec<SocketAddr> = (0..2)
        .map(|_| {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        })
        .collect();
    let gateway = Gateway::start(
        GatewayConfig {
            probe_timeout: Duration::from_millis(200),
            ..GatewayConfig::default()
        },
        &dead,
    )
    .expect("gateway boots with an unreachable pool");
    assert_eq!(gateway.healthy_backends(), 0);

    let mut client = ServeClient::connect(gateway.local_addr()).expect("connect");
    let (status, health) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200);
    assert_eq!(
        health.get("status").and_then(JsonValue::as_str),
        Some("unavailable")
    );

    // A total outage is a *retryable* condition: the request answers a typed 503
    // with a Retry-After hint, never a permanent-looking 404 (the gateway cannot
    // know whether the key exists while zero backends are admitted) and never a
    // hang.
    let img = image(&TrainConfig::tiny(), 1);
    match client.infer("vit:taylor", &img) {
        Err(err) => {
            assert_eq!(
                err.retry_after_secs(),
                Some(1),
                "503s carry a back-off hint"
            );
            match err {
                vitality_serve::ClientError::Server { status, code, .. } => {
                    assert_eq!(status, 503);
                    assert_eq!(code, "no_backend");
                }
                other => panic!("expected a typed server error, got {other:?}"),
            }
        }
        other => panic!("expected a typed error, got {other:?}"),
    }
    drop(client);
    gateway.shutdown();
}

#[test]
fn a_gateway_without_backends_reports_unavailable() {
    // 0 of 0 backends healthy is still no backend: every infer answers 503.
    let gateway = Gateway::start(GatewayConfig::default(), &[]).expect("gateway boots");
    let mut client = ServeClient::connect(gateway.local_addr()).expect("connect");
    let (status, health) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200);
    assert_eq!(
        health.get("status").and_then(JsonValue::as_str),
        Some("unavailable")
    );
    match client.infer("vit:taylor", &image(&TrainConfig::tiny(), 2)) {
        Err(vitality_serve::ClientError::Server { status, code, .. }) => {
            assert_eq!((status, code.as_str()), (503, "no_backend"));
        }
        other => panic!("expected a typed 503, got {other:?}"),
    }
    let backends = gateway.metrics_json();
    assert_eq!(
        backends
            .get("backends")
            .and_then(JsonValue::as_array)
            .map(<[JsonValue]>::len),
        Some(0),
        "an empty pool lists an empty backends array"
    );
    drop(client);
    gateway.shutdown();
}
