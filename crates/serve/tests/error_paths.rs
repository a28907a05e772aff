//! Error-path and int8-observability tests of the serving engine: typed 404s for
//! unregistered variants, 400s for malformed bodies (echoing the client's
//! `request_id` whenever it parsed), and the `/metrics` per-variant
//! block appearing for the int8 kernel with zero serving-layer changes — the
//! registry/metrics half of the `AttentionKernel` plug-point contract.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::JsonValue;
use vitality_serve::http::{write_request_typed, MessageReader};
use vitality_serve::protocol::BINARY_CONTENT_TYPE;
use vitality_serve::{BatchPolicy, ClientError, ModelRegistry, ServeClient, Server, ServerConfig};
use vitality_tensor::{init, Matrix};
use vitality_vit::{AttentionVariant, Int8Calibration, TrainConfig, VisionTransformer};

/// Boots a server with one weight set registered under the f32 Taylor variant and the
/// int8 variant — exactly the "add a variant" recipe: nothing serve-side changes, the
/// registry keys the model `vit:int8` off the kernel label automatically.
fn boot() -> (Server, VisionTransformer, TrainConfig) {
    let cfg = TrainConfig::tiny();
    let mut rng = StdRng::seed_from_u64(77);
    let taylor = VisionTransformer::new(&mut rng, cfg, AttentionVariant::Taylor);
    let mut int8 = taylor.clone();
    int8.set_variant(AttentionVariant::Int8Taylor {
        calibration: Int8Calibration::Dynamic,
    });
    let int8_direct = int8.clone();
    let mut registry = ModelRegistry::new();
    registry.register("vit", taylor).unwrap();
    registry.register("vit", int8).unwrap();
    let server = Server::start(
        ServerConfig {
            policy: BatchPolicy::default(),
            workers: 2,
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("bind ephemeral port");
    (server, int8_direct, cfg)
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
fn unregistered_variant_keys_return_a_typed_404_not_a_hang_or_500() {
    let (server, _direct, cfg) = boot();
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    // Bound the round trip so a routing bug that *hangs* instead of answering fails
    // the test as an error rather than wedging the suite.
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let img = image(&cfg, 1);
    // A variant label that exists as a kernel but was never registered, and a key
    // that is entirely unknown: both must answer a typed 404.
    for key in ["vit:performer", "vit:unified", "nope:int8"] {
        match client.infer(key, &img) {
            Err(ClientError::Server {
                status,
                code,
                message,
                retry_after,
                request_id,
            }) => {
                assert_eq!(status, 404, "{key} must 404");
                assert_eq!(code, "model_not_found", "{key} must carry the typed code");
                assert!(message.contains(key), "message names the missing key");
                assert_eq!(retry_after, None, "404s carry no Retry-After hint");
                assert!(
                    request_id.is_some_and(|id| !id.is_empty()),
                    "typed error bodies echo a request_id"
                );
            }
            other => panic!("expected typed 404 for {key}, got {other:?}"),
        }
    }
    // The connection survives and the registered keys still serve.
    let reply = client.infer("vit:int8", &img).expect("int8 still serves");
    assert_eq!(reply.model, "vit:int8");
    drop(client);
    server.shutdown();
}

/// One raw `POST /v1/infer` on a keep-alive connection: `(status, body)`.
fn post(
    stream: &mut std::net::TcpStream,
    reader: &mut MessageReader,
    body: &[u8],
    content_type: &str,
) -> (u16, JsonValue) {
    write_request_typed(stream, "POST", "/v1/infer", body, content_type).expect("write request");
    let response = reader
        .read_message(stream, 1 << 20, &|| false)
        .expect("read response")
        .expect("response present");
    let status = response.status_code().expect("status line");
    let body = serde::json::parse(std::str::from_utf8(&response.body).expect("utf-8 body"))
        .expect("error responses are still JSON");
    (status, body)
}

fn error_code(body: &JsonValue) -> Option<&str> {
    body.get("error")
        .and_then(|e| e.get("code"))
        .and_then(JsonValue::as_str)
}

#[test]
fn malformed_json_bodies_return_400_and_keep_the_connection_alive() {
    let (server, _direct, _cfg) = boot();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut reader = MessageReader::new();
    // Truncated JSON, non-JSON noise, valid JSON of the wrong shape, non-UTF-8 bytes:
    // every one is a client error, never a 500 and never a dropped connection.
    for bad in [
        &b"{\"model\": \"vit:int8\", \"image\""[..],
        b"this is not json",
        b"[1, 2, 3]",
        b"\xff\xfe{}",
    ] {
        let (status, body) = post(&mut stream, &mut reader, bad, "application/json");
        assert_eq!(status, 400, "body {bad:?} must answer 400");
        assert_eq!(
            error_code(&body),
            Some("bad_request"),
            "body {bad:?} must carry the typed code"
        );
    }
    server.shutdown();
}

#[test]
fn a_400_for_a_later_field_still_echoes_the_clients_request_id() {
    let (server, _direct, _cfg) = boot();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
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
        let (status, body) = post(&mut stream, &mut reader, wire, content_type);
        assert_eq!(status, 400, "{id}");
        assert_eq!(error_code(&body), Some("bad_request"), "{id}");
        assert_eq!(
            body.get("request_id").and_then(JsonValue::as_str),
            Some(id),
            "the 400 must quote the id the client sent"
        );
    }
    server.shutdown();
}

#[test]
fn metrics_grow_an_int8_variant_block_after_the_first_int8_request() {
    let (server, int8_direct, cfg) = boot();
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    // /healthz lists the int8 key; /metrics has no int8 block yet (the per-variant
    // counters appear on first use, so an idle variant does not pollute dashboards).
    let (status, health) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200);
    let models: Vec<&str> = health
        .get("models")
        .and_then(JsonValue::as_array)
        .expect("model list")
        .iter()
        .filter_map(JsonValue::as_str)
        .collect();
    assert_eq!(models, vec!["vit:int8", "vit:taylor"]);
    let (_, metrics) = client.get("/metrics").expect("metrics");
    assert!(
        metrics
            .get("variants")
            .and_then(|v| v.get("int8"))
            .is_none(),
        "int8 counters must not exist before any int8 request"
    );

    // First int8 request: answered from the quantized kernel (bit-identical to direct
    // inference with the int8 variant) and tallied under variants.int8.*.
    let img = image(&cfg, 2);
    let reply = client.infer("vit:int8", &img).expect("int8 inference");
    assert_eq!(reply.model, "vit:int8");
    let direct = int8_direct.infer(&img);
    assert_eq!(
        reply.logits,
        direct.logits.row(0).to_vec(),
        "served int8 logits must equal direct int8 inference bit-for-bit"
    );

    let (_, metrics) = client.get("/metrics").expect("metrics after int8");
    let int8 = metrics
        .get("variants")
        .and_then(|v| v.get("int8"))
        .expect("variants.int8 block after the first int8 request");
    assert_eq!(
        int8.get("requests").and_then(JsonValue::as_usize),
        Some(1),
        "variants.int8.requests"
    );
    assert!(
        int8.get("p50_us").and_then(JsonValue::as_usize).is_some(),
        "variants.int8.p50_us present"
    );
    // The taylor block is independent: still absent until taylor serves.
    assert!(metrics
        .get("variants")
        .and_then(|v| v.get("taylor"))
        .is_none());
    drop(client);
    server.shutdown();
}
