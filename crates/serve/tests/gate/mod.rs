//! Test support: the *gate* that makes an engine's only worker busy on demand.
//!
//! The batcher holds nothing back for a timer, so a socket-level test that needs
//! requests to *sit* in the queue parks them behind work: a request to a second, much
//! heavier registered model goes first (batches are per model, so a single worker can
//! take nothing else with it) and the light requests follow **pipelined on the same
//! connection** before any reply is read. The loop thread parses them microseconds
//! after the gate, so the gate only has to outlast the parsing of a few small
//! requests.
//!
//! The one definition of the gate: `server_roundtrip.rs` includes it as `mod gate`,
//! the root package's `tests/serve_batching.rs` through `#[path]`.

use std::net::{SocketAddr, TcpStream};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::JsonValue;
use vitality_serve::http::{self, MessageReader};
use vitality_serve::protocol::{self, InferOptions};
use vitality_serve::{InferReply, ModelRegistry};
use vitality_tensor::{init, Matrix};
use vitality_vit::{AttentionVariant, TrainConfig, VisionTransformer};

/// 256 tokens × 64 dim × 8 layers. One softmax forward pass measures 32–36 ms in the
/// dev profile and 23–24 ms with `--release` on the 2-vCPU reference host, against
/// 0.2 / 0.04 ms for a `TrainConfig::tiny()` rider whose request parses in tens of
/// µs: two orders of magnitude of slack. Re-measure if the forward pass gets an order
/// of magnitude faster.
const CONFIG: TrainConfig = TrainConfig {
    image_size: 32,
    patch_size: 2,
    embed_dim: 64,
    heads: 4,
    layers: 8,
    mlp_ratio: 4.0,
    classes: 4,
};

/// Registers the gate model (`gate:softmax`) next to the models under test.
pub fn register(registry: &mut ModelRegistry) {
    let gate = VisionTransformer::new(
        &mut StdRng::seed_from_u64(43),
        CONFIG,
        AttentionVariant::Softmax,
    );
    registry.register("gate", gate).expect("valid name");
}

/// Opens a raw connection and pipelines one gate request followed by one request to
/// `model` per rider image, back to back, without reading anything. The caller may
/// write more on the returned stream before reading the replies, which come back in
/// request order.
pub fn send_gate_then(addr: SocketAddr, model: &str, riders: &[Matrix]) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut send = |model: &str, image: &Matrix| {
        let body =
            protocol::infer_request_json_opts(model, image, &InferOptions::default()).to_json();
        http::write_request(&mut stream, "POST", "/v1/infer", body.as_bytes())
            .expect("write request");
    };
    let side = CONFIG.image_size;
    let gate_image = init::uniform(&mut StdRng::seed_from_u64(1), side, side, 0.0, 1.0);
    send("gate:softmax", &gate_image);
    for rider in riders {
        send(model, rider);
    }
    stream
}

/// Reads the next pipelined reply: status code and JSON body.
pub fn read_reply(reader: &mut MessageReader, stream: &mut TcpStream) -> (u16, JsonValue) {
    let message = reader
        .read_message(stream, 1 << 20, &|| false)
        .expect("read reply")
        .expect("reply present");
    let body = std::str::from_utf8(&message.body).expect("UTF-8 body");
    (
        message.status_code().expect("status line"),
        serde::json::parse(body).expect("JSON body"),
    )
}

/// Reads the next pipelined reply, which must be a successful inference.
pub fn read_infer_reply(reader: &mut MessageReader, stream: &mut TcpStream) -> InferReply {
    let (status, body) = read_reply(reader, stream);
    assert_eq!(status, 200, "{body}");
    protocol::parse_infer_reply(&body).expect("infer reply")
}
