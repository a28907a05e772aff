//! Prometheus exposition conformance, scraped live: boots a real engine and a real
//! gateway in front of it, drives traffic through the stack, then fetches
//! `GET /metrics?format=prometheus` from **both** processes' listeners and runs the
//! full-text validator over each body — `# TYPE` before samples, no duplicate
//! series, escaped labels, cumulative buckets ending in `+Inf` with `_count` and
//! `_sum` agreement, trailing newline. The JSON `/metrics` and `/healthz` shapes
//! must stay byte-compatible at the leaf level (every pinned key path still
//! present, `backends` an array in pool order), every pinned Prometheus family
//! must keep its name and `# TYPE`, the
//! loop-health numbers must be on `/metrics` and `/healthz` of both, and
//! `/debug/traces?limit=N` must cap and annotate the returned ring.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::JsonValue;
use vitality_gateway::{Gateway, GatewayConfig};
use vitality_serve::{validate_exposition, ModelRegistry, ServeClient, Server, ServerConfig};
use vitality_tensor::{init, Matrix, SimdTier};
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
    // pre-Prometheus snapshot exported is still present, beside the event-loop block.
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
    assert_loop_health("engine /metrics", &engine_json);
    let tile = engine_json
        .get("compute")
        .and_then(|compute| compute.get("f32_tile"))
        .and_then(JsonValue::as_str);
    assert_eq!(
        tile,
        Some(SimdTier::host().label()),
        "engine JSON /metrics names the f32 tile it runs"
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
    assert_loop_health("gateway /metrics", &gateway_json);
    assert!(
        gateway_json.get("dispatch_queue_depth").is_some(),
        "gateway JSON /metrics carries the dispatch queue depth"
    );
    // Both `/healthz` bodies surface the loop health inline.
    for (who, addr) in [("engine", eng.local_addr()), ("gateway", gw.local_addr())] {
        let (status, health) = client_json(addr, "/healthz");
        assert_eq!(status, 200);
        assert_loop_health(&format!("{who} /healthz"), &health);
    }

    // The full leaf inventory of every JSON body (one variant, one backend, batches
    // of one) and every Prometheus family with its type: each may grow, none may
    // lose a key or change a name.
    let (_, engine_health) = client_json(eng.local_addr(), "/healthz");
    let (_, gateway_health) = client_json(gw.local_addr(), "/healthz");
    for (who, body, expected) in [
        ("engine /metrics", &engine_json, ENGINE_METRICS_LEAVES),
        ("engine /healthz", &engine_health, ENGINE_HEALTHZ_LEAVES),
        ("gateway /metrics", &gateway_json, GATEWAY_METRICS_LEAVES),
        ("gateway /healthz", &gateway_health, GATEWAY_HEALTHZ_LEAVES),
    ] {
        let mut leaves = Vec::new();
        leaf_paths("", body, &mut leaves);
        let missing: Vec<&str> = expected
            .iter()
            .copied()
            .filter(|leaf| !leaves.iter().any(|l| l == leaf))
            .collect();
        assert!(missing.is_empty(), "{who} lost leaves {missing:?}");
    }
    let backends = gateway_json
        .get("backends")
        .and_then(JsonValue::as_array)
        .expect("gateway /metrics backends is an array");
    assert_eq!(
        backends[0].get("addr").and_then(JsonValue::as_str),
        Some(eng.local_addr().to_string().as_str()),
        "backends are listed in pool order"
    );
    // Series that were JSON-only before both bodies rendered from one registry.
    let backend = format!("{{backend=\"{}\"}}", eng.local_addr());
    let mut parity: Vec<String> = [
        "vitality_gateway_cache_entries ",
        "vitality_gateway_cache_evictions_total ",
        "vitality_gateway_cache_expirations_total ",
    ]
    .map(String::from)
    .to_vec();
    for series in [
        "requests_total",
        "errors_total",
        "ejections_total",
        "probes_ok_total",
        "probes_failed_total",
        "queue_depth",
        "in_flight_batches",
        "gateway_in_flight",
    ] {
        parity.push(format!("vitality_gateway_backend_{series}{backend} "));
    }
    for series in &parity {
        assert!(
            gateway_text.lines().any(|l| l.starts_with(series.as_str())),
            "gateway scrape missing {series}"
        );
    }
    assert!(
        engine_text.contains("vitality_serve_batches_by_size_total{size=\"1\"} "),
        "engine scrape missing the batch-size series"
    );
    for (who, text, expected) in [
        ("engine", &engine_text, ENGINE_FAMILIES),
        ("gateway", &gateway_text, GATEWAY_FAMILIES),
    ] {
        for (name, kind) in expected {
            assert!(
                text.lines().any(|l| l == format!("# TYPE {name} {kind}")),
                "{who} scrape lost family {name} ({kind})"
            );
        }
    }

    drop(client);
    gw.shutdown();
    eng.shutdown();
}

/// The loop-health fields `benchmark/` turns into `serve.event_loop.{saturation,
/// ready_per_wake}`, where an absent or `null` field reads as 0: once the loop has
/// served traffic, `wakeups` is at least one and `saturation` and `events_per_wake`
/// are numbers.
fn assert_loop_health(who: &str, body: &JsonValue) {
    let block = body
        .get("event_loop")
        .unwrap_or_else(|| panic!("{who} lacks the event_loop block"));
    let wakeups = block.get("wakeups").and_then(JsonValue::as_f64);
    assert!(
        wakeups.is_some_and(|w| w >= 1.0),
        "{who} event_loop.wakeups: {wakeups:?}"
    );
    for field in ["saturation", "events_per_wake"] {
        assert!(
            block.get(field).and_then(JsonValue::as_f64).is_some(),
            "{who} event_loop.{field} must be a number"
        );
    }
}

/// Every leaf of a JSON body as a dotted path; array elements are keyed by index.
fn leaf_paths(prefix: &str, value: &JsonValue, out: &mut Vec<String>) {
    let join = |key: &str| {
        if prefix.is_empty() {
            key.to_string()
        } else {
            format!("{prefix}.{key}")
        }
    };
    if let Some(members) = value.as_object() {
        for (key, child) in members {
            leaf_paths(&join(key), child, out);
        }
    } else if let Some(items) = value.as_array() {
        for (i, child) in items.iter().enumerate() {
            leaf_paths(&join(&i.to_string()), child, out);
        }
    } else {
        out.push(prefix.to_string());
    }
}

const ENGINE_METRICS_LEAVES: &[&str] = &[
    "uptime_s",
    "compute.matmul_backend",
    "compute.f32_tile",
    "compute.cpu_avx2",
    "compute.cpu_fma",
    "submitted",
    "completed",
    "shed",
    "expired",
    "worker_panics",
    "failed",
    "throughput_rps",
    "latency.count",
    "latency.mean_us",
    "latency.p50_us",
    "latency.p95_us",
    "latency.p99_us",
    "queue_wait.mean_us",
    "queue_wait.p50_us",
    "queue_wait.p99_us",
    "batching.batches",
    "batching.in_flight_batches",
    "batching.mean_batch",
    "batching.max_batch",
    "batching.size_distribution.1",
    "variants.taylor.requests",
    "variants.taylor.mean_us",
    "variants.taylor.p50_us",
    "variants.taylor.p95_us",
    "variants.taylor.p99_us",
    "variants.taylor.stages.queue_wait.count",
    "variants.taylor.stages.queue_wait.mean_us",
    "variants.taylor.stages.queue_wait.p50_us",
    "variants.taylor.stages.queue_wait.p95_us",
    "variants.taylor.stages.compute.count",
    "variants.taylor.stages.compute.mean_us",
    "variants.taylor.stages.compute.p50_us",
    "variants.taylor.stages.compute.p95_us",
    "variants.taylor.stages.write.count",
    "variants.taylor.stages.write.mean_us",
    "variants.taylor.stages.write.p50_us",
    "variants.taylor.stages.write.p95_us",
    "event_loop.wakeups",
    "event_loop.ready_events",
    "event_loop.completions",
    "event_loop.queue_depth",
    "event_loop.max_queue_depth",
    "event_loop.events_per_wake",
    "event_loop.saturation",
];

const ENGINE_HEALTHZ_LEAVES: &[&str] = &[
    "status",
    "models.0",
    "queue_depth",
    "in_flight_batches",
    "encodings.0",
    "encodings.1",
    "event_loop.wakeups",
    "event_loop.ready_events",
    "event_loop.completions",
    "event_loop.queue_depth",
    "event_loop.max_queue_depth",
    "event_loop.events_per_wake",
    "event_loop.saturation",
];

const GATEWAY_METRICS_LEAVES: &[&str] = &[
    "uptime_s",
    "requests",
    "completed",
    "failed",
    "retries",
    "failovers",
    "degraded",
    "admission_shed",
    "deadline_expired",
    "cache.entries",
    "cache.hits",
    "cache.misses",
    "cache.hit_ratio",
    "cache.evictions",
    "cache.expirations",
    "hit_latency.count",
    "hit_latency.mean_us",
    "hit_latency.p50_us",
    "hit_latency.p95_us",
    "hit_latency.p99_us",
    "miss_latency.count",
    "miss_latency.mean_us",
    "miss_latency.p50_us",
    "miss_latency.p95_us",
    "miss_latency.p99_us",
    "stages.backend_attempt.count",
    "stages.backend_attempt.mean_us",
    "stages.backend_attempt.p50_us",
    "stages.backend_attempt.p95_us",
    "stages.backend_attempt.p99_us",
    "stages.write.count",
    "stages.write.mean_us",
    "stages.write.p50_us",
    "stages.write.p95_us",
    "stages.write.p99_us",
    "routed.taylor",
    "backends.0.addr",
    "backends.0.healthy",
    "backends.0.gateway_in_flight",
    "backends.0.queue_depth",
    "backends.0.in_flight_batches",
    "backends.0.requests",
    "backends.0.errors",
    "backends.0.ejections",
    "backends.0.probes_ok",
    "backends.0.probes_failed",
    "healthy_backends",
    "event_loop.wakeups",
    "event_loop.ready_events",
    "event_loop.completions",
    "event_loop.queue_depth",
    "event_loop.max_queue_depth",
    "event_loop.events_per_wake",
    "event_loop.saturation",
    "dispatch_queue_depth",
];

const GATEWAY_HEALTHZ_LEAVES: &[&str] = &[
    "status",
    "backends",
    "healthy",
    "ejected",
    "ejections_total",
    "in_flight_requests",
    "brownout.engaged",
    "brownout.pressure",
    "brownout.enter_pressure",
    "brownout.exit_pressure",
    "brownout.entries",
    "cache.entries",
    "cache.capacity",
    "models.0",
    "encodings.0",
    "encodings.1",
    "event_loop.wakeups",
    "event_loop.ready_events",
    "event_loop.completions",
    "event_loop.queue_depth",
    "event_loop.max_queue_depth",
    "event_loop.events_per_wake",
    "event_loop.saturation",
    "dispatch_queue_depth",
];

const ENGINE_FAMILIES: &[(&str, &str)] = &[
    ("vitality_serve_uptime_seconds", "gauge"),
    ("vitality_serve_requests_submitted_total", "counter"),
    ("vitality_serve_requests_completed_total", "counter"),
    ("vitality_serve_requests_shed_total", "counter"),
    ("vitality_serve_requests_expired_total", "counter"),
    ("vitality_serve_worker_panics_total", "counter"),
    ("vitality_serve_requests_failed_total", "counter"),
    ("vitality_serve_batches_total", "counter"),
    ("vitality_serve_in_flight_batches", "gauge"),
    ("vitality_serve_latency_us", "histogram"),
    ("vitality_serve_queue_wait_us", "histogram"),
    ("vitality_serve_variant_requests_total", "counter"),
    ("vitality_serve_variant_latency_us", "histogram"),
    ("vitality_serve_variant_stage_us", "histogram"),
    ("vitality_serve_event_loop_wakeups_total", "counter"),
    ("vitality_serve_event_loop_ready_events_total", "counter"),
    ("vitality_serve_event_loop_completions_total", "counter"),
    ("vitality_serve_event_loop_queue_depth", "gauge"),
    ("vitality_serve_event_loop_max_queue_depth", "gauge"),
    ("vitality_serve_event_loop_saturation", "gauge"),
];

const GATEWAY_FAMILIES: &[(&str, &str)] = &[
    ("vitality_gateway_uptime_seconds", "gauge"),
    ("vitality_gateway_requests_total", "counter"),
    ("vitality_gateway_requests_completed_total", "counter"),
    ("vitality_gateway_requests_failed_total", "counter"),
    ("vitality_gateway_retries_total", "counter"),
    ("vitality_gateway_failovers_total", "counter"),
    ("vitality_gateway_degraded_total", "counter"),
    ("vitality_gateway_admission_shed_total", "counter"),
    ("vitality_gateway_deadline_expired_total", "counter"),
    ("vitality_gateway_hit_latency_us", "histogram"),
    ("vitality_gateway_miss_latency_us", "histogram"),
    ("vitality_gateway_stage_us", "histogram"),
    ("vitality_gateway_routed_total", "counter"),
    ("vitality_gateway_cache_hits_total", "counter"),
    ("vitality_gateway_cache_misses_total", "counter"),
    ("vitality_gateway_healthy_backends", "gauge"),
    ("vitality_gateway_backend_healthy", "gauge"),
    ("vitality_gateway_event_loop_wakeups_total", "counter"),
    ("vitality_gateway_event_loop_ready_events_total", "counter"),
    ("vitality_gateway_event_loop_completions_total", "counter"),
    ("vitality_gateway_event_loop_queue_depth", "gauge"),
    ("vitality_gateway_event_loop_max_queue_depth", "gauge"),
    ("vitality_gateway_event_loop_saturation", "gauge"),
    ("vitality_gateway_dispatch_queue_depth", "gauge"),
];

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
