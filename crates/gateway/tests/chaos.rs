//! Fault-injection suite: the gateway's robustness contract under injected chaos.
//!
//! Every scenario drives real sockets against real engines with one fault injected
//! through the `failpoint` registry, and asserts the same invariant from the
//! gateway's clients' point of view: **no admitted request is lost or answered
//! incorrectly** — each is either answered with the exact model output or refused
//! with a typed, machine-readable error.
//!
//! Compiled (and run in CI's `chaos` step) only under `--cfg failpoints`; the
//! default build compiles every injection site to an inline no-op.
#![cfg(failpoints)]

use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::JsonValue;
use vitality_gateway::{AdmissionConfig, CacheConfig, Gateway, GatewayConfig};
use vitality_serve::{ClientError, InferOptions, ModelRegistry, ServeClient, Server, ServerConfig};
use vitality_tensor::{init, Matrix};
use vitality_vit::{AttentionVariant, TrainConfig, VisionTransformer};

/// The failpoint registry is process-global; scenarios take this lock so one
/// test's faults can never leak into another's cluster.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_guard() -> std::sync::MutexGuard<'static, ()> {
    let guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::clear();
    failpoint::set_seed(0x0DD5EED);
    guard
}

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

/// Request options carrying only a remaining-budget deadline.
fn with_deadline(deadline_ms: u64) -> InferOptions<'static> {
    InferOptions {
        deadline_ms: Some(deadline_ms),
        ..InferOptions::default()
    }
}

/// A gateway whose prober is effectively frozen after the boot round, so a fault
/// scoped to an engine's connection threads can only be consumed by request
/// traffic, never by a racing health probe.
fn quiet_gateway(addrs: &[std::net::SocketAddr]) -> Gateway {
    Gateway::start(
        GatewayConfig {
            probe_interval: Duration::from_secs(600),
            probe_timeout: Duration::from_millis(500),
            retry_budget: 4,
            backend_timeout: Duration::from_millis(300),
            max_backoff: Duration::from_millis(100),
            // Unique images per request; caching off so every request exercises
            // an engine (and therefore the injected fault).
            cache: CacheConfig {
                capacity: 0,
                ..CacheConfig::default()
            },
            ..GatewayConfig::default()
        },
        addrs,
    )
    .expect("boot gateway")
}

fn metric(gateway: &Gateway, key: &str) -> u64 {
    gateway
        .metrics_json()
        .get(key)
        .and_then(JsonValue::as_usize)
        .unwrap_or_else(|| panic!("metric {key} missing")) as u64
}

fn engine_metric(addr: std::net::SocketAddr, key: &str) -> u64 {
    let mut client = ServeClient::connect(addr).expect("connect engine");
    let (status, body) = client.get("/metrics").expect("engine metrics");
    assert_eq!(status, 200);
    body.get(key)
        .and_then(JsonValue::as_usize)
        .unwrap_or_else(|| panic!("engine metric {key} missing")) as u64
}

fn backend_healthy(gateway: &Gateway, addr: std::net::SocketAddr) -> bool {
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

/// Shared body of the slow-read and slow-write scenarios: engine B works fine but
/// one side of its socket I/O stalls past the gateway's 300 ms read timeout.
fn slow_backend_is_cooled_down(site: &str) {
    let cfg = TrainConfig::tiny();
    let model =
        VisionTransformer::new(&mut StdRng::seed_from_u64(3), cfg, AttentionVariant::Taylor);
    let engine_a = engine(&model, "127.0.0.1:0");
    let engine_b = engine(&model, "127.0.0.1:0");
    let b_addr = engine_b.local_addr();
    let gateway = quiet_gateway(&[engine_a.local_addr(), b_addr]);

    failpoint::cfg(site, &format!("sleep(800)@serve-conn-{}", b_addr.port())).expect("valid spec");

    let mut client = ServeClient::connect(gateway.local_addr()).expect("connect");
    for i in 0..8u64 {
        let img = image(&cfg, 500 + i);
        let reply = client
            .infer("vit:taylor", &img)
            .expect("a slow backend must cost latency, never a lost request");
        assert_eq!(reply.prediction, model.predict(&img), "answers stay exact");
    }

    assert_eq!(metric(&gateway, "failed"), 0);
    assert!(
        metric(&gateway, "retries") >= 1,
        "rotation must have routed at least one request into the stall"
    );
    assert_eq!(
        metric(&gateway, "failovers"),
        0,
        "a read timeout is slow-not-dead: no transport ejection"
    );
    assert!(
        backend_healthy(&gateway, b_addr),
        "the slow backend is cooled down, not ejected"
    );

    failpoint::clear();
    drop(client);
    gateway.shutdown();
    engine_a.shutdown();
    engine_b.shutdown();
}

#[test]
fn a_backend_with_stalled_response_writes_is_cooled_down_not_ejected() {
    let _chaos = chaos_guard();
    slow_backend_is_cooled_down("serve-write-stall");
}

#[test]
fn a_backend_with_stalled_request_reads_is_cooled_down_not_ejected() {
    let _chaos = chaos_guard();
    slow_backend_is_cooled_down("serve-read-stall");
}

/// Shared body of the corrupt-response and partial-write scenarios: one response
/// from engine B is damaged on the wire; the gateway must detect it, never forward
/// it, eject the backend it watched lie, and answer from the survivor.
fn wire_damage_fails_over(site: &str) {
    let cfg = TrainConfig::tiny();
    let model =
        VisionTransformer::new(&mut StdRng::seed_from_u64(3), cfg, AttentionVariant::Taylor);
    let engine_a = engine(&model, "127.0.0.1:0");
    let engine_b = engine(&model, "127.0.0.1:0");
    let b_addr = engine_b.local_addr();
    let gateway = quiet_gateway(&[engine_a.local_addr(), b_addr]);

    failpoint::cfg(site, &format!("1*return@serve-conn-{}", b_addr.port())).expect("valid spec");

    let mut client = ServeClient::connect(gateway.local_addr()).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut i = 0u64;
    // Drive until rotation lands a request on B and trips the single-shot fault.
    while metric(&gateway, "failovers") == 0 {
        assert!(
            Instant::now() < deadline,
            "the fault was never consumed by request traffic"
        );
        let img = image(&cfg, 900 + i);
        let reply = client
            .infer("vit:taylor", &img)
            .expect("a damaged response must fail over, not surface");
        assert_eq!(
            reply.prediction,
            model.predict(&img),
            "a damaged response must never be forwarded as an answer"
        );
        i += 1;
    }
    assert_eq!(metric(&gateway, "failed"), 0);
    assert!(
        !backend_healthy(&gateway, b_addr),
        "a backend caught damaging responses is ejected"
    );
    // The survivor keeps serving.
    let img = image(&cfg, 2_000);
    assert_eq!(
        client
            .infer("vit:taylor", &img)
            .expect("survivor")
            .prediction,
        model.predict(&img)
    );

    failpoint::clear();
    drop(client);
    gateway.shutdown();
    engine_a.shutdown();
    engine_b.shutdown();
}

#[test]
fn a_corrupted_response_body_is_never_forwarded() {
    let _chaos = chaos_guard();
    wire_damage_fails_over("serve-write-corrupt");
}

#[test]
fn a_partial_response_write_is_treated_as_lost_not_short() {
    let _chaos = chaos_guard();
    wire_damage_fails_over("serve-write-partial");
}

#[test]
fn a_worker_panic_mid_batch_is_absorbed_and_retried_elsewhere() {
    let _chaos = chaos_guard();
    let cfg = TrainConfig::tiny();
    let model =
        VisionTransformer::new(&mut StdRng::seed_from_u64(3), cfg, AttentionVariant::Taylor);
    let engine_a = engine(&model, "127.0.0.1:0");
    let engine_b = engine(&model, "127.0.0.1:0");
    let b_addr = engine_b.local_addr();
    let gateway = quiet_gateway(&[engine_a.local_addr(), b_addr]);

    // One of engine B's workers dies mid-batch — after assembly, before any reply.
    failpoint::cfg(
        "serve-worker-batch",
        &format!("1*panic@serve-worker-{}", b_addr.port()),
    )
    .expect("valid spec");

    let mut client = ServeClient::connect(gateway.local_addr()).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut i = 0u64;
    while engine_metric(b_addr, "worker_panics") == 0 {
        assert!(
            Instant::now() < deadline,
            "no request ever reached the doomed worker"
        );
        let img = image(&cfg, 3_000 + i);
        let reply = client
            .infer("vit:taylor", &img)
            .expect("requests riding a panicked batch are answered elsewhere");
        assert_eq!(reply.prediction, model.predict(&img));
        i += 1;
    }
    assert_eq!(metric(&gateway, "failed"), 0);
    assert!(
        backend_healthy(&gateway, b_addr),
        "one dead worker is an engine-internal wound, not an engine death"
    );
    // The engine's pool survived the panic: it still answers directly.
    let img = image(&cfg, 4_000);
    let mut direct = ServeClient::connect(b_addr).expect("connect engine");
    assert_eq!(
        direct
            .infer("vit:taylor", &img)
            .expect("engine serves")
            .prediction,
        model.predict(&img)
    );

    failpoint::clear();
    drop(client);
    gateway.shutdown();
    engine_a.shutdown();
    engine_b.shutdown();
}

#[test]
fn probe_flaps_eject_then_recovery_readmits() {
    let _chaos = chaos_guard();
    let cfg = TrainConfig::tiny();
    let model =
        VisionTransformer::new(&mut StdRng::seed_from_u64(3), cfg, AttentionVariant::Taylor);
    let eng = engine(&model, "127.0.0.1:0");
    let gateway = Gateway::start(
        GatewayConfig {
            probe_interval: Duration::from_millis(40),
            probe_timeout: Duration::from_millis(500),
            eject_after_probe_failures: 2,
            ..GatewayConfig::default()
        },
        &[eng.local_addr()],
    )
    .expect("boot gateway");
    assert_eq!(
        gateway.healthy_backends(),
        1,
        "boot probe admits the engine"
    );

    // The next eight prober rounds report the (perfectly healthy) engine as down;
    // scoping to the prober thread leaves request traffic untouched.
    failpoint::cfg("gateway-probe-flap", "8*return@gateway-probe").expect("valid spec");

    let deadline = Instant::now() + Duration::from_secs(5);
    while gateway.healthy_backends() != 0 {
        assert!(Instant::now() < deadline, "flapping probes never ejected");
        std::thread::sleep(Duration::from_millis(10));
    }
    // While ejected, requests answer a typed 503 — not a hang, not a 404.
    let mut client = ServeClient::connect(gateway.local_addr()).expect("connect");
    let img = image(&cfg, 5_000);
    match client.infer("vit:taylor", &img) {
        Err(ClientError::Server { status, code, .. }) => {
            assert_eq!(status, 503);
            assert_eq!(code, "no_backend");
        }
        other => panic!("expected a typed 503 during the flap window, got {other:?}"),
    }
    // The flap budget runs out; honest probes re-admit the engine.
    let deadline = Instant::now() + Duration::from_secs(5);
    while gateway.healthy_backends() != 1 {
        assert!(
            Instant::now() < deadline,
            "recovered engine never re-admitted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let reply = client.infer("vit:taylor", &img).expect("post-recovery");
    assert_eq!(reply.prediction, model.predict(&img));

    // The episode is visible on the enriched healthz.
    let (status, health) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("ejected").and_then(JsonValue::as_usize), Some(0));
    assert_eq!(
        health.get("ejections_total").and_then(JsonValue::as_usize),
        Some(1)
    );

    failpoint::clear();
    drop(client);
    gateway.shutdown();
    eng.shutdown();
}

#[test]
fn an_expired_deadline_is_a_typed_504_and_costs_no_inference() {
    let _chaos = chaos_guard();
    let cfg = TrainConfig::tiny();
    let model =
        VisionTransformer::new(&mut StdRng::seed_from_u64(3), cfg, AttentionVariant::Taylor);
    let eng = engine(&model, "127.0.0.1:0");
    let gateway = quiet_gateway(&[eng.local_addr()]);
    let mut client = ServeClient::connect(gateway.local_addr()).expect("connect");
    let img = image(&cfg, 6_000);

    let completed_before = engine_metric(eng.local_addr(), "completed");
    match client.infer_detailed("vit:taylor", &img, &with_deadline(0)) {
        Err(ClientError::Server { status, code, .. }) => {
            assert_eq!(status, 504);
            assert_eq!(code, "deadline_exceeded");
        }
        other => panic!("expected a typed 504, got {other:?}"),
    }
    assert_eq!(
        engine_metric(eng.local_addr(), "completed"),
        completed_before,
        "an already-expired request must never reach inference"
    );
    assert_eq!(metric(&gateway, "deadline_expired"), 1);

    // A live budget rides through normally.
    let reply = client
        .infer_detailed("vit:taylor", &img, &with_deadline(5_000))
        .expect("live deadline")
        .reply;
    assert_eq!(reply.prediction, model.predict(&img));

    drop(client);
    gateway.shutdown();
    eng.shutdown();
}

#[test]
fn a_deadline_beats_a_stalled_backend_with_a_prompt_504() {
    let _chaos = chaos_guard();
    let cfg = TrainConfig::tiny();
    let model =
        VisionTransformer::new(&mut StdRng::seed_from_u64(3), cfg, AttentionVariant::Taylor);
    let eng = engine(&model, "127.0.0.1:0");
    let addr = eng.local_addr();
    let gateway = Gateway::start(
        GatewayConfig {
            probe_interval: Duration::from_secs(600),
            probe_timeout: Duration::from_millis(500),
            // Deliberately generous: the *deadline*, not this, must bound the wait.
            backend_timeout: Duration::from_secs(30),
            cache: CacheConfig {
                capacity: 0,
                ..CacheConfig::default()
            },
            ..GatewayConfig::default()
        },
        &[addr],
    )
    .expect("boot gateway");

    failpoint::cfg(
        "serve-write-stall",
        &format!("sleep(1500)@serve-conn-{}", addr.port()),
    )
    .expect("valid spec");

    let mut client = ServeClient::connect(gateway.local_addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("client timeout");
    let img = image(&cfg, 7_000);
    let started = Instant::now();
    match client.infer_detailed("vit:taylor", &img, &with_deadline(300)) {
        Err(ClientError::Server { status, code, .. }) => {
            assert_eq!(status, 504);
            assert_eq!(code, "deadline_exceeded");
        }
        other => panic!("expected a typed 504, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_millis(1_200),
        "the 504 must arrive on the deadline's clock, not the 30 s socket timeout \
         (took {:?})",
        started.elapsed()
    );

    failpoint::clear();
    drop(client);
    gateway.shutdown();
    eng.shutdown();
}

#[test]
fn admission_control_refuses_overflow_with_a_derived_retry_after() {
    let _chaos = chaos_guard();
    let cfg = TrainConfig::tiny();
    let model =
        VisionTransformer::new(&mut StdRng::seed_from_u64(3), cfg, AttentionVariant::Taylor);
    let eng = engine(&model, "127.0.0.1:0");
    let addr = eng.local_addr();
    let gateway = Gateway::start(
        GatewayConfig {
            probe_interval: Duration::from_secs(600),
            probe_timeout: Duration::from_millis(500),
            admission: AdmissionConfig {
                max_concurrent: 1,
                ..AdmissionConfig::default()
            },
            cache: CacheConfig {
                capacity: 0,
                ..CacheConfig::default()
            },
            ..GatewayConfig::default()
        },
        &[addr],
    )
    .expect("boot gateway");
    let gw_addr = gateway.local_addr();

    // The first request stalls inside the engine long enough for the second to
    // arrive while the gateway's single admission slot is taken.
    failpoint::cfg(
        "serve-write-stall",
        &format!("1*sleep(700)@serve-conn-{}", addr.port()),
    )
    .expect("valid spec");

    std::thread::scope(|scope| {
        let slow = {
            let model = &model;
            let cfg = &cfg;
            scope.spawn(move || {
                let mut client = ServeClient::connect(gw_addr).expect("connect");
                let img = image(cfg, 8_000);
                let reply = client.infer("vit:taylor", &img).expect("slow but admitted");
                assert_eq!(reply.prediction, model.predict(&img));
            })
        };
        std::thread::sleep(Duration::from_millis(200));
        let mut client = ServeClient::connect(gw_addr).expect("connect");
        let img = image(&cfg, 8_001);
        match client.infer("vit:taylor", &img) {
            Err(err) => {
                assert!(
                    err.retry_after_secs()
                        .is_some_and(|s| (1..=10).contains(&s)),
                    "admission 503s carry a bounded, derived Retry-After"
                );
                match err {
                    ClientError::Server { status, code, .. } => {
                        assert_eq!(status, 503);
                        assert_eq!(code, "admission_full");
                    }
                    other => panic!("expected a typed 503, got {other:?}"),
                }
            }
            Ok(_) => panic!("the second concurrent request must be refused at admission"),
        }
        slow.join().expect("admitted request thread");
    });
    assert_eq!(metric(&gateway, "admission_shed"), 1);

    // With the slot free again, requests flow.
    let mut client = ServeClient::connect(gw_addr).expect("connect");
    let img = image(&cfg, 8_002);
    assert_eq!(
        client
            .infer("vit:taylor", &img)
            .expect("slot free")
            .prediction,
        model.predict(&img)
    );

    failpoint::clear();
    drop(client);
    gateway.shutdown();
    eng.shutdown();
}

/// A head-sampling rate low enough that retention is effectively tail-only
/// (recording stays on for every request, so failures can be flagged), without
/// head-sampled noise polluting the ring during a driven loop.
const TAIL_ONLY: f64 = 1e-6;

/// Like [`quiet_gateway`], but with (effectively tail-only) tracing enabled.
fn traced_quiet_gateway(addrs: &[std::net::SocketAddr]) -> Gateway {
    Gateway::start(
        GatewayConfig {
            probe_interval: Duration::from_secs(600),
            probe_timeout: Duration::from_millis(500),
            retry_budget: 4,
            backend_timeout: Duration::from_millis(300),
            max_backoff: Duration::from_millis(100),
            cache: CacheConfig {
                capacity: 0,
                ..CacheConfig::default()
            },
            trace: trace::TraceConfig {
                sample: Some(TAIL_ONLY),
                ring_capacity: 64,
            },
            ..GatewayConfig::default()
        },
        addrs,
    )
    .expect("boot gateway")
}

/// The `/debug/traces` entry at `addr` with the given request id, if retained.
fn find_trace(addr: std::net::SocketAddr, id: &str) -> Option<JsonValue> {
    let mut client = ServeClient::connect(addr).expect("connect for traces");
    let (status, body) = client.get("/debug/traces").expect("debug traces");
    assert_eq!(status, 200);
    body.get("traces")
        .and_then(JsonValue::as_array)?
        .iter()
        .find(|t| t.get("id").and_then(JsonValue::as_str) == Some(id))
        .cloned()
}

/// Collects `(name, detail)` pairs from a `/debug/traces` span tree.
fn span_rows(entry: &JsonValue) -> Vec<(String, String)> {
    fn walk(nodes: &[JsonValue], out: &mut Vec<(String, String)>) {
        for node in nodes {
            out.push((
                node.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
                node.get("detail")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
            ));
            if let Some(children) = node.get("children").and_then(JsonValue::as_array) {
                walk(children, out);
            }
        }
    }
    let mut out = Vec::new();
    if let Some(roots) = entry.get("spans").and_then(JsonValue::as_array) {
        walk(roots, &mut out);
    }
    out
}

#[test]
fn a_failed_over_request_is_tail_sampled_with_both_attempts_and_its_id() {
    let _chaos = chaos_guard();
    let cfg = TrainConfig::tiny();
    let model =
        VisionTransformer::new(&mut StdRng::seed_from_u64(3), cfg, AttentionVariant::Taylor);
    let engine_a = engine(&model, "127.0.0.1:0");
    let engine_b = engine(&model, "127.0.0.1:0");
    let b_addr = engine_b.local_addr();
    let gateway = traced_quiet_gateway(&[engine_a.local_addr(), b_addr]);

    // One of engine B's responses is corrupted on the wire; the gateway must fail
    // the attempt over — and precisely that request must land in the tail ring.
    failpoint::cfg(
        "serve-write-corrupt",
        &format!("1*return@serve-conn-{}", b_addr.port()),
    )
    .expect("valid spec");

    let mut client = ServeClient::connect(gateway.local_addr()).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut i = 0u64;
    while metric(&gateway, "failovers") == 0 {
        assert!(
            Instant::now() < deadline,
            "the fault was never consumed by request traffic"
        );
        let id = format!("tail-{i}");
        let response = client
            .infer_detailed(
                "vit:taylor",
                &image(&cfg, 9_000 + i),
                &InferOptions {
                    request_id: Some(&id),
                    ..InferOptions::default()
                },
            )
            .expect("a damaged response must fail over, not surface");
        assert_eq!(
            response.request_id.as_deref(),
            Some(id.as_str()),
            "every reply echoes the id the client sent, failover or not"
        );
        i += 1;
    }

    // The request that rode the corrupted response answered 200 after failover,
    // yet its flagged trace is retained — with both attempts visible.
    let tripped = format!("tail-{}", i - 1);
    let entry = find_trace(gateway.local_addr(), &tripped)
        .expect("the failed-over request is tail-sampled");
    assert_eq!(entry.get("status").and_then(JsonValue::as_usize), Some(200));
    let rows = span_rows(&entry);
    let attempts: Vec<&(String, String)> = rows
        .iter()
        .filter(|(n, _)| n == "backend_attempt")
        .collect();
    assert!(
        attempts.len() >= 2,
        "both the failed and the successful attempt are recorded: {rows:?}"
    );
    assert!(
        attempts.iter().any(|(_, d)| d.contains("error")),
        "the failed attempt is labeled: {attempts:?}"
    );
    assert!(
        attempts.iter().any(|(_, d)| d.contains("ok")),
        "the successful attempt is labeled: {attempts:?}"
    );

    failpoint::clear();
    drop(client);
    gateway.shutdown();
    engine_a.shutdown();
    engine_b.shutdown();
}

#[test]
fn a_worker_panic_lands_in_the_engines_tail_ring_under_the_clients_id() {
    let _chaos = chaos_guard();
    let cfg = TrainConfig::tiny();
    let model =
        VisionTransformer::new(&mut StdRng::seed_from_u64(3), cfg, AttentionVariant::Taylor);
    let engine_a = engine(&model, "127.0.0.1:0");
    // Engine B records (tail-only) traces of its own, so its internal 500 — which
    // the gateway masks by retrying elsewhere — stays diagnosable on B itself.
    let mut registry = ModelRegistry::new();
    registry.register("vit", model.clone()).expect("valid name");
    let engine_b = Server::start(
        ServerConfig {
            workers: 2,
            poll_interval: Duration::from_millis(10),
            trace: trace::TraceConfig {
                sample: Some(TAIL_ONLY),
                ring_capacity: 64,
            },
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("boot engine");
    let b_addr = engine_b.local_addr();
    let gateway = traced_quiet_gateway(&[engine_a.local_addr(), b_addr]);

    failpoint::cfg(
        "serve-worker-batch",
        &format!("1*panic@serve-worker-{}", b_addr.port()),
    )
    .expect("valid spec");

    let mut client = ServeClient::connect(gateway.local_addr()).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut i = 0u64;
    while engine_metric(b_addr, "worker_panics") == 0 {
        assert!(
            Instant::now() < deadline,
            "no request ever reached the doomed worker"
        );
        let id = format!("panic-{i}");
        client
            .infer_detailed(
                "vit:taylor",
                &image(&cfg, 10_000 + i),
                &InferOptions {
                    request_id: Some(&id),
                    ..InferOptions::default()
                },
            )
            .expect("requests riding a panicked batch are answered elsewhere");
        i += 1;
    }

    // The gateway forwarded the *same* id to the engine on every attempt, so the
    // engine's own tail ring names the request the client knows. Which one: the 500
    // leaves the dying batch's drop guards while the worker is still unwinding —
    // before `worker_panics` moves — and the retry elsewhere answers in well under
    // that time, so by the time the counter read 1 the client may have been a
    // request or two further on. The ring keeps only failures, the fault fires once
    // and the client sends one request at a time: exactly one of the ids sent.
    let on_b: Vec<(u64, JsonValue)> = (0..i)
        .filter_map(|sent| Some((sent, find_trace(b_addr, &format!("panic-{sent}"))?)))
        .collect();
    let [(tripped, entry)] = on_b.as_slice() else {
        panic!("exactly one request must have died on engine B, its ring holds {on_b:?}");
    };
    assert_eq!(entry.get("status").and_then(JsonValue::as_usize), Some(500));
    assert!(
        span_rows(entry).iter().any(|(n, _)| n == "parse"),
        "the engine attributed at least its parse stage before the batch died"
    );
    // And it is the request the gateway answered from elsewhere: its own (flagged)
    // trace of the same id shows the failed attempt against B.
    let retried = find_trace(gateway.local_addr(), &format!("panic-{tripped}"))
        .expect("the retried request is tail-sampled on the gateway");
    assert_eq!(
        retried.get("status").and_then(JsonValue::as_usize),
        Some(200)
    );
    let rows = span_rows(&retried);
    assert!(
        rows.iter().any(|(n, d)| n == "backend_attempt"
            && d.starts_with(&b_addr.to_string())
            && d.contains("error")),
        "the gateway recorded the failed attempt against engine B: {rows:?}"
    );

    failpoint::clear();
    drop(client);
    gateway.shutdown();
    engine_a.shutdown();
    engine_b.shutdown();
}
