//! End-to-end tests of the serving engine over real sockets: correctness vs direct
//! inference, the health/metrics endpoints, typed error responses and graceful
//! shutdown under concurrent clients.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::JsonValue;
use vitality_serve::http::MessageReader;
use vitality_serve::{BatchPolicy, ClientError, ModelRegistry, ServeClient, Server, ServerConfig};
use vitality_tensor::{init, Matrix};
use vitality_vit::{AttentionVariant, Int8Calibration, TrainConfig, VisionTransformer};

mod gate;
use gate::read_infer_reply;

const INT8: AttentionVariant = AttentionVariant::Int8Taylor {
    calibration: Int8Calibration::Dynamic,
};

fn boot() -> (Server, VisionTransformer, TrainConfig) {
    boot_with(BatchPolicy::default(), 2, ModelRegistry::new())
}

/// Boots an engine serving the four `vit:*` variants (shared weights) next to
/// whatever `registry` already holds.
fn boot_with(
    policy: BatchPolicy,
    workers: usize,
    mut registry: ModelRegistry,
) -> (Server, VisionTransformer, TrainConfig) {
    let cfg = TrainConfig::tiny();
    let mut rng = StdRng::seed_from_u64(42);
    let model = VisionTransformer::new(&mut rng, cfg, AttentionVariant::Taylor);
    let mut softmax = model.clone();
    softmax.set_variant(AttentionVariant::Softmax);
    let mut unified = model.clone();
    unified.set_variant(AttentionVariant::Unified { threshold: 0.5 });
    let mut int8 = model.clone();
    int8.set_variant(INT8);
    registry.register("vit", model.clone()).unwrap();
    registry.register("vit", softmax).unwrap();
    registry.register("vit", unified).unwrap();
    registry.register("vit", int8).unwrap();
    let server = Server::start(
        ServerConfig {
            policy,
            workers,
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("bind ephemeral port");
    (server, model, cfg)
}

/// An engine whose only worker can be made busy on demand (see [`gate`]): while the
/// worker runs the gate request everything sent after it for `vit:*` queues.
fn boot_gated() -> (Server, VisionTransformer, TrainConfig) {
    let mut registry = ModelRegistry::new();
    gate::register(&mut registry);
    boot_with(
        BatchPolicy {
            max_batch: 8,
            queue_capacity: 64,
        },
        1,
        registry,
    )
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
fn concurrent_clients_get_exact_direct_inference_results() {
    let (server, model, cfg) = boot();
    let addr = server.local_addr();
    let clients = 6;
    let per_client = 5;
    std::thread::scope(|scope| {
        for c in 0..clients {
            let model = &model;
            let cfg = &cfg;
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                for i in 0..per_client {
                    let img = image(cfg, 1000 + (c * per_client + i) as u64);
                    let reply = client.infer("vit:taylor", &img).expect("inference");
                    let direct = model.infer(&img);
                    assert_eq!(reply.model, "vit:taylor");
                    assert_eq!(reply.prediction, model.predict(&img));
                    assert_eq!(
                        reply.logits,
                        direct.logits.row(0).to_vec(),
                        "served logits must equal direct inference bit-for-bit"
                    );
                    assert!(reply.batch_size >= 1);
                }
            });
        }
    });
    let metrics = server.metrics();
    server.shutdown();
    assert_eq!(
        metrics.completed.load(std::sync::atomic::Ordering::Relaxed),
        (clients * per_client) as u64
    );
    assert_eq!(metrics.shed.load(std::sync::atomic::Ordering::Relaxed), 0);
}

#[test]
fn all_four_variants_serve_and_disagree() {
    let (server, model, cfg) = boot();
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let img = image(&cfg, 7);
    // Every served variant answers with its own direct inference, bit for bit, and
    // no two variants answer alike (they share weights but not outputs).
    let mut served: Vec<Vec<f32>> = Vec::new();
    for (label, variant) in [
        ("taylor", AttentionVariant::Taylor),
        ("softmax", AttentionVariant::Softmax),
        ("unified", AttentionVariant::Unified { threshold: 0.5 }),
        ("int8", INT8),
    ] {
        let reply = client.infer(&format!("vit:{label}"), &img).expect(label);
        let mut direct = model.clone();
        direct.set_variant(variant);
        assert_eq!(
            reply.logits,
            direct.infer(&img).logits.row(0).to_vec(),
            "served {label} logits must equal direct inference bit-for-bit"
        );
        assert!(
            !served.contains(&reply.logits),
            "{label} must not answer like another variant"
        );
        served.push(reply.logits);
    }

    // Per-variant counters and stage histograms are observable on /metrics: one
    // request each, seen once by every stage it passed through.
    let (status, metrics) = client.get("/metrics").expect("metrics");
    assert_eq!(status, 200);
    let variants = metrics.get("variants").expect("variants block");
    for label in ["taylor", "softmax", "unified", "int8"] {
        let block = variants
            .get(label)
            .unwrap_or_else(|| panic!("missing /metrics variants.{label}"));
        assert_eq!(
            block.get("requests").and_then(JsonValue::as_usize),
            Some(1),
            "variant {label} request count"
        );
        for stage in ["queue_wait", "compute", "write"] {
            assert_eq!(
                block
                    .get("stages")
                    .and_then(|s| s.get(stage))
                    .and_then(|s| s.get("count"))
                    .and_then(JsonValue::as_usize),
                Some(1),
                "variants.{label}.stages.{stage}.count"
            );
        }
    }
    drop(client);
    server.shutdown();
}

#[test]
fn concurrent_requests_coalesce_into_batches() {
    // Eight requests arrive while the engine's only worker is busy with the gate:
    // the batcher must hand them over as one batch the moment the worker frees up,
    // and the riders must see it in their replies.
    let riders = 8;
    let (server, model, cfg) = boot_gated();
    let images: Vec<Matrix> = (0..riders).map(|i| image(&cfg, 2000 + i as u64)).collect();
    let mut stream = gate::send_gate_then(server.local_addr(), "vit:taylor", &images);
    let mut reader = MessageReader::new();
    assert_eq!(read_infer_reply(&mut reader, &mut stream).batch_size, 1);
    for img in &images {
        let reply = read_infer_reply(&mut reader, &mut stream);
        assert_eq!(
            reply.batch_size, riders,
            "all that queued behind the busy worker rides in one batch"
        );
        assert_eq!(
            reply.logits,
            model.infer(img).logits.row(0).to_vec(),
            "riding in a batch must not change the answer"
        );
    }
    drop(stream);
    let metrics = server.metrics();
    server.shutdown();
    assert_eq!(metrics.max_batch(), riders);
    assert_eq!(metrics.completed.load(Ordering::Relaxed), 1 + riders as u64);
}

#[test]
fn health_and_metrics_endpoints_report_state() {
    let (server, model, cfg) = boot();
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let (status, health) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(JsonValue::as_str), Some("ok"));
    let models: Vec<&str> = health
        .get("models")
        .and_then(JsonValue::as_array)
        .expect("model list")
        .iter()
        .filter_map(JsonValue::as_str)
        .collect();
    assert_eq!(
        models,
        vec!["vit:int8", "vit:softmax", "vit:taylor", "vit:unified"]
    );
    // The load signal a cluster gateway ranks engines by: both numbers are present
    // and zero on an idle server.
    assert_eq!(
        health.get("queue_depth").and_then(JsonValue::as_usize),
        Some(0)
    );
    assert_eq!(
        health
            .get("in_flight_batches")
            .and_then(JsonValue::as_usize),
        Some(0)
    );

    let img = image(&cfg, 9);
    let reply = client.infer("vit:taylor", &img).expect("inference");
    assert_eq!(reply.prediction, model.predict(&img));

    let (status, metrics) = client.get("/metrics").expect("metrics");
    assert_eq!(status, 200);
    assert_eq!(
        metrics.get("completed").and_then(JsonValue::as_usize),
        Some(1)
    );
    let batching = metrics.get("batching").expect("batching block");
    assert_eq!(
        batching.get("batches").and_then(JsonValue::as_usize),
        Some(1)
    );
    assert_eq!(
        batching
            .get("in_flight_batches")
            .and_then(JsonValue::as_usize),
        Some(0),
        "the answered batch is no longer in flight"
    );
    assert!(metrics
        .get("latency")
        .and_then(|l| l.get("p50_us"))
        .is_some());
    drop(client);
    server.shutdown();
}

#[test]
fn bad_requests_get_typed_error_responses() {
    let (server, _model, cfg) = boot();
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let img = image(&cfg, 11);

    match client.infer("missing:taylor", &img) {
        Err(ClientError::Server { status, code, .. }) => {
            assert_eq!(status, 404);
            assert_eq!(code, "model_not_found");
        }
        other => panic!("expected 404, got {other:?}"),
    }

    let wrong_size = Matrix::zeros(cfg.image_size + 1, cfg.image_size + 1);
    match client.infer("vit:taylor", &wrong_size) {
        Err(ClientError::Server { status, code, .. }) => {
            assert_eq!(status, 400);
            assert_eq!(code, "bad_request");
        }
        other => panic!("expected 400, got {other:?}"),
    }

    let (status, body) = client.get("/nope").expect("unknown route still answers");
    assert_eq!(status, 404);
    assert_eq!(
        body.get("error")
            .and_then(|e| e.get("code"))
            .and_then(JsonValue::as_str),
        Some("not_found")
    );

    // The connection survives all of the above (keep-alive across errors).
    assert!(client.get("/healthz").expect("healthz").0 == 200);
    drop(client);

    // Unsupported methods get 405 (raw framing; ServeClient only speaks GET/POST).
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
    vitality_serve::http::write_request(&mut stream, "DELETE", "/v1/infer", b"")
        .expect("write raw request");
    let response = vitality_serve::http::MessageReader::new()
        .read_message(&mut stream, 1 << 20, &|| false)
        .expect("read raw response")
        .expect("response present");
    assert_eq!(response.status_code().unwrap(), 405);

    server.shutdown();
}

#[test]
fn shutdown_answers_in_flight_requests_then_refuses_new_connections() {
    // Four clients' requests sit in the queue behind the gate when the shutdown is
    // issued: the drain must flush and answer them all, proving drained requests are
    // served. (One connection per request: a draining front answers a connection's
    // next response with `Connection: close`.)
    let (server, model, cfg) = boot_gated();
    let addr = server.local_addr();
    let metrics = server.metrics();
    let admitted = |count: u64| {
        let patience = Instant::now() + Duration::from_secs(30);
        while metrics.submitted.load(Ordering::Relaxed) < count {
            assert!(Instant::now() < patience, "request {count} never queued");
            std::thread::yield_now();
        }
    };
    let imgs: Vec<Matrix> = (0..4).map(|i| image(&cfg, 300 + i)).collect();
    let mut gate_conn = gate::send_gate_then(addr, "vit:taylor", &[]);
    // The gate is at the head of the queue (or already running) before any of the
    // four is sent, so the worker cannot take one of them first.
    admitted(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = imgs
            .iter()
            .map(|img| {
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    client.infer("vit:taylor", img)
                })
            })
            .collect();
        admitted(5);
        assert_eq!(
            metrics.completed.load(Ordering::Relaxed),
            0,
            "the shutdown must find the gate running and the four queued behind it"
        );
        server.shutdown();
        for (handle, img) in handles.into_iter().zip(&imgs) {
            let reply = handle
                .join()
                .expect("client thread")
                .expect("drained request answered");
            assert_eq!(reply.prediction, model.predict(img));
            assert_eq!(
                reply.batch_size, 4,
                "the drain flushes the queue as one batch"
            );
        }
    });
    assert_eq!(
        read_infer_reply(&mut MessageReader::new(), &mut gate_conn).batch_size,
        1
    );
    drop(gate_conn);
    // The listener is gone: connecting now fails or is immediately closed.
    match ServeClient::connect(addr) {
        Err(_) => {}
        Ok(mut client) => {
            client
                .set_timeout(Some(Duration::from_millis(500)))
                .expect("set timeout");
            assert!(
                client.get("/healthz").is_err(),
                "a post-shutdown connection must not be served"
            );
        }
    }
}
