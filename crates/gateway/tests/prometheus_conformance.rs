//! Prometheus exposition conformance, scraped live: boots a real engine and a real
//! gateway in front of it, drives traffic through the stack, then fetches
//! `GET /metrics?format=prometheus` from **both** processes' listeners and runs the
//! full-text validator over each body — `# TYPE` before samples, no duplicate
//! series, escaped labels, cumulative buckets ending in `+Inf` with `_count` and
//! `_sum` agreement, trailing newline. The JSON `/metrics` shape must stay
//! byte-compatible at the key level (every pre-existing key still present; the
//! event-loop block is additive), and `/debug/traces?limit=N` must cap and annotate
//! the returned ring.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::JsonValue;
use vitality_gateway::{Gateway, GatewayConfig};
use vitality_serve::{validate_exposition, ModelRegistry, ServeClient, Server, ServerConfig};
use vitality_tensor::{init, Matrix};
use vitality_vit::{AttentionVariant, TrainConfig, VisionTransformer};

fn engine(model: &VisionTransformer) -> Server {
    let mut registry = ModelRegistry::new();
    registry.register("vit", model.clone()).expect("valid name");
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

fn image(cfg: &TrainConfig, seed: u64) -> Matrix {
    init::uniform(
        &mut StdRng::seed_from_u64(seed),
        cfg.image_size,
        cfg.image_size,
        0.0,
        1.0,
    )
}

/// A raw one-shot HTTP GET returning `(status, content_type, body)` as text —
/// `ServeClient::get` insists on JSON bodies, and the point here is to see the
/// Prometheus text exactly as a scraper would.
fn get_text(addr: std::net::SocketAddr, target: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect for raw GET");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("header/body separator present");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let content_type = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-type"))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_default();
    (status, content_type, body.to_string())
}

#[test]
fn live_scrapes_from_engine_and_gateway_pass_exposition_conformance() {
    let cfg = TrainConfig::tiny();
    let model = VisionTransformer::new(
        &mut StdRng::seed_from_u64(21),
        cfg,
        AttentionVariant::Taylor,
    );
    let eng = engine(&model);
    let gw = Gateway::start(
        GatewayConfig {
            probe_interval: Duration::from_millis(50),
            retry_budget: 2,
            ..GatewayConfig::default()
        },
        &[eng.local_addr()],
    )
    .expect("boot gateway");

    // Traffic through the whole stack so counters, histograms and per-variant
    // blocks are all non-empty: distinct images (backend misses) plus one repeat
    // (a cache hit).
    let mut client = ServeClient::connect(gw.local_addr()).expect("connect");
    for seed in [31u64, 32, 33, 31] {
        client
            .infer("vit:taylor", &image(&cfg, seed))
            .expect("infer through gateway");
    }

    for (who, addr, prefix) in [
        ("engine", eng.local_addr(), "vitality_serve"),
        ("gateway", gw.local_addr(), "vitality_gateway"),
    ] {
        let (status, content_type, body) = get_text(addr, "/metrics?format=prometheus");
        assert_eq!(status, 200, "{who} prometheus scrape status");
        assert_eq!(
            content_type, "text/plain; version=0.0.4",
            "{who} scrape content type"
        );
        let series = validate_exposition(&body)
            .unwrap_or_else(|err| panic!("{who} exposition invalid: {err}\n{body}"));
        assert!(
            series > 10,
            "{who} scrape suspiciously small: {series} series"
        );
        assert!(
            body.contains(&format!("{prefix}_event_loop_wakeups_total")),
            "{who} scrape must carry the event-loop block"
        );
    }

    // Engine Prometheus body carries the per-variant series the JSON block has.
    let (_, _, engine_text) = get_text(eng.local_addr(), "/metrics?format=prometheus");
    for series in [
        "vitality_serve_requests_completed_total",
        "vitality_serve_latency_us_bucket",
        "vitality_serve_variant_requests_total{variant=\"taylor\"}",
        "vitality_serve_variant_stage_us_bucket",
    ] {
        assert!(
            engine_text.contains(series),
            "engine scrape missing {series}"
        );
    }
    let (_, _, gateway_text) = get_text(gw.local_addr(), "/metrics?format=prometheus");
    for series in [
        "vitality_gateway_requests_total",
        "vitality_gateway_cache_hits_total",
        "vitality_gateway_routed_total{variant=\"taylor\"}",
        "vitality_gateway_backend_healthy",
        "vitality_gateway_dispatch_queue_depth",
        "vitality_gateway_hit_latency_us_bucket",
    ] {
        assert!(
            gateway_text.contains(series),
            "gateway scrape missing {series}"
        );
    }

    // The JSON `/metrics` shape is unchanged for existing consumers: every key the
    // pre-Prometheus snapshot exported is still present, and the event-loop block
    // rides alongside as a pure addition.
    let (status, engine_json) = client_json(eng.local_addr(), "/metrics");
    assert_eq!(status, 200);
    for key in [
        "uptime_s",
        "compute",
        "submitted",
        "completed",
        "shed",
        "expired",
        "worker_panics",
        "failed",
        "throughput_rps",
        "latency",
        "queue_wait",
        "batching",
        "variants",
    ] {
        assert!(
            engine_json.get(key).is_some(),
            "engine JSON /metrics lost key {key}"
        );
    }
    assert!(
        engine_json
            .get("event_loop")
            .and_then(|l| l.get("mode"))
            .and_then(JsonValue::as_str)
            .is_some(),
        "engine JSON /metrics gains the event_loop block"
    );
    let (status, gateway_json) = client_json(gw.local_addr(), "/metrics");
    assert_eq!(status, 200);
    for key in [
        "uptime_s",
        "requests",
        "completed",
        "failed",
        "retries",
        "failovers",
        "degraded",
        "admission_shed",
        "deadline_expired",
        "cache",
        "hit_latency",
        "miss_latency",
        "stages",
        "routed",
        "backends",
        "healthy_backends",
    ] {
        assert!(
            gateway_json.get(key).is_some(),
            "gateway JSON /metrics lost key {key}"
        );
    }
    assert!(
        gateway_json.get("event_loop").is_some()
            && gateway_json.get("dispatch_queue_depth").is_some(),
        "gateway JSON /metrics gains event_loop + dispatch depth"
    );
    // Both `/healthz` bodies surface the loop health inline.
    for addr in [eng.local_addr(), gw.local_addr()] {
        let (status, health) = client_json(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(
            health
                .get("event_loop")
                .and_then(|l| l.get("mode"))
                .is_some(),
            "/healthz must carry the event-loop block"
        );
    }

    drop(client);
    gw.shutdown();
    eng.shutdown();
}

fn client_json(addr: std::net::SocketAddr, path: &str) -> (u16, JsonValue) {
    let mut client = ServeClient::connect(addr).expect("connect for JSON GET");
    client.get(path).expect("JSON GET")
}

#[test]
fn debug_traces_limit_caps_and_annotates_the_ring() {
    let cfg = TrainConfig::tiny();
    let model = VisionTransformer::new(
        &mut StdRng::seed_from_u64(22),
        cfg,
        AttentionVariant::Taylor,
    );
    let eng = engine(&model);
    let gw = Gateway::start(
        GatewayConfig {
            probe_interval: Duration::from_millis(50),
            retry_budget: 2,
            trace: trace::TraceConfig {
                sample: Some(1.0),
                ring_capacity: 64,
            },
            ..GatewayConfig::default()
        },
        &[eng.local_addr()],
    )
    .expect("boot gateway");

    let mut client = ServeClient::connect(gw.local_addr()).expect("connect");
    for seed in 0..6u64 {
        client
            .infer("vit:taylor", &image(&cfg, 600 + seed))
            .expect("infer through gateway");
    }

    let (status, body) = client.get("/debug/traces?limit=2").expect("limited traces");
    assert_eq!(status, 200);
    let traces = body
        .get("traces")
        .and_then(JsonValue::as_array)
        .expect("traces array");
    assert_eq!(traces.len(), 2, "limit=2 returns exactly the newest two");
    assert_eq!(body.get("returned").and_then(JsonValue::as_usize), Some(2));
    let retained = body
        .get("retained")
        .and_then(JsonValue::as_usize)
        .expect("retained count");
    assert!(retained >= 6, "all sampled traces retained, got {retained}");
    for trace in traces {
        assert!(
            trace.get("age_s").and_then(JsonValue::as_f64).is_some(),
            "each trace reports its age"
        );
        assert!(
            trace
                .get("total_us")
                .and_then(JsonValue::as_usize)
                .is_some(),
            "each trace reports its total duration"
        );
    }

    // The unlimited endpoint still answers, capped at its own default.
    let (status, body) = client.get("/debug/traces").expect("default traces");
    assert_eq!(status, 200);
    let default_len = body
        .get("traces")
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::len)
        .expect("traces array");
    assert!((2..=trace::DEFAULT_JSON_TRACES).contains(&default_len));

    drop(client);
    gw.shutdown();
    eng.shutdown();
}
