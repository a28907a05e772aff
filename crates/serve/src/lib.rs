//! # `vitality-serve` — batched, multi-worker inference serving
//!
//! ViTALiTy's linear Taylor attention makes per-image ViT inference O(n); this crate is
//! the layer that turns that kernel win into *served throughput*. It is a thread-based
//! serving engine built entirely on `std::net` / `std::thread` (no third-party runtime;
//! JSON comes from the workspace's `serde` shim), with five pieces:
//!
//! 1. **[`ModelRegistry`]** — warm, shareable
//!    [`VisionTransformer`](vitality_vit::VisionTransformer) instances keyed by `name:variant`
//!    (`"deit:taylor"`, `"deit:softmax"`), handed out as `Arc`s so every thread serves
//!    the same weights.
//! 2. **[`Batcher`]** — a bounded, work-conserving admission queue: a free worker
//!    takes what is queued for the oldest request's model, up to
//!    [`BatchPolicy::max_batch`], so concurrent single-image requests coalesce into
//!    per-model batches exactly while every worker is busy and nothing ever waits on
//!    a timer; sheds with a typed [`ServeError::Overloaded`] when full.
//! 3. **[`WorkerPool`]** — threads pulling formed batches into
//!    `VisionTransformer::infer_batch_into`, answering each request over its private
//!    channel, with drain-then-exit shutdown semantics.
//! 4. **Wire protocol** — a minimal HTTP/1.1 + JSON surface: `POST /v1/infer`,
//!    `GET /healthz`, `GET /metrics` (see [`protocol`] for the exact shapes), plus
//!    [`ServeClient`] as the matching blocking client. The routes, the request
//!    lifecycle and the error envelope live once, in the [`Shell`] the engine and
//!    the gateway both run in.
//! 5. **[`Metrics`]** — lock-free latency histograms (p50/p95/p99), throughput
//!    counters and the batch-size distribution, each declared once into the
//!    [`MetricsRegistry`] that renders `/metrics` as JSON and as Prometheus text.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use vitality_serve::{ModelRegistry, ServeClient, Server, ServerConfig};
//! use vitality_vit::{AttentionVariant, TrainConfig, VisionTransformer};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let cfg = TrainConfig::tiny();
//! let model = VisionTransformer::new(&mut rng, cfg, AttentionVariant::Taylor);
//!
//! let mut registry = ModelRegistry::new();
//! let key = registry.register("demo", model.clone()).unwrap();
//! let server = Server::start(ServerConfig::default(), registry).unwrap();
//!
//! let image = vitality_tensor::init::uniform(&mut rng, cfg.image_size, cfg.image_size, 0.0, 1.0);
//! let mut client = ServeClient::connect(server.local_addr()).unwrap();
//! let reply = client.infer(&key, &image).unwrap();
//! assert_eq!(reply.prediction, model.predict(&image));
//!
//! drop(client);
//! server.shutdown();
//! ```

#![deny(missing_docs)]

pub mod batcher;
pub mod client;
pub mod error;
pub mod event_loop;
pub mod exposition;
pub mod http;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod shell;
pub mod worker;

pub use batcher::{BatchPolicy, Batcher, InferReply, PendingRequest, RequestDeadline, Responder};
pub use client::{ClientError, InferResponse, ServeClient};
pub use error::{ServeError, WireError};
pub use event_loop::{Completion, EventFront, FrontConfig, FrontRequest, LoopStats};
pub use exposition::{validate_exposition, MetricsRegistry};
pub use metrics::{LatencyHistogram, Metrics, VariantStats};
pub use protocol::InferOptions;
pub use registry::{ModelEntry, ModelRegistry};
pub use server::{Server, ServerConfig};
pub use shell::{Reply, Service, Shell};
pub use worker::WorkerPool;
