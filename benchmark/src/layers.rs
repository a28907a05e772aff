//! Per-layer microbenchmarks: each layer's public functions timed from outside, at the
//! shapes the workloads serve, on a warm workspace. Nothing here runs during an
//! end-to-end window.
//!
//! Every timing is the median over up to [`MAX_SAMPLES`] samples (fewer when a call is
//! so slow that the item's time budget runs out first, never fewer than
//! [`MIN_SAMPLES`]); calls shorter than ~20 µs are timed in groups so the clock's own
//! cost does not show.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use vitality_gateway::{image_hash, BackendPool, CacheConfig, ResponseCache, RoutingPolicy, Tier};
use vitality_nn::{Activation, ClassificationHead, LayerNorm, Linear, Mlp, PatchEmbed};
use vitality_serve::http::{encode_response, HttpParser, ParseStatus};
use vitality_serve::{
    protocol, BatchPolicy, Batcher, InferOptions, InferReply, Metrics, ModelRegistry,
    PendingRequest, Responder,
};
use vitality_tensor::backend::Operand;
use vitality_tensor::{init, matmul_backend, Matrix, Workspace};
use vitality_vit::{
    AttentionVariant, MultiHeadAttention, TransformerBlock, VisionTransformer, VitOutput,
};

use crate::inputs::{self, Stream, Vit196, MODEL_SEED, REQUEST_KEY};
use crate::stats;
use crate::wire::Encoding;

const MAX_SAMPLES: usize = 200;
const MIN_SAMPLES: usize = 5;

/// Named results, `name -> value`.
pub type Table = BTreeMap<String, f64>;

struct Timer {
    /// Wall-clock budget of one item.
    budget: Duration,
}

impl Timer {
    /// Median nanoseconds of one call of `f`.
    fn ns(&self, mut f: impl FnMut()) -> f64 {
        for _ in 0..2 {
            f();
        }
        let probe = Instant::now();
        f();
        let once = probe.elapsed().as_nanos().max(1) as u64;
        let group = (20_000 / once).clamp(1, 1000) as usize;
        let deadline = Instant::now() + self.budget;
        let mut samples = Vec::with_capacity(MAX_SAMPLES);
        while samples.len() < MAX_SAMPLES
            && (samples.len() < MIN_SAMPLES || Instant::now() < deadline)
        {
            let start = Instant::now();
            for _ in 0..group {
                f();
            }
            samples.push(start.elapsed().as_nanos() as f64 / group as f64);
        }
        stats::median(&samples)
    }
}

fn normal(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    init::normal(rng, rows, cols, 0.0, 0.5)
}

fn tensor_layer(timer: &Timer, rng: &mut StdRng, table: &mut Table) {
    let backend = matmul_backend();
    for (m, k, n) in [
        (196, 32, 32),
        (196, 32, 64),
        (196, 64, 32),
        (6272, 32, 32),
        (1024, 64, 64),
        (1024, 64, 256),
    ] {
        let a = normal(rng, m, k);
        let b = normal(rng, k, n);
        let mut out = vec![0.0f32; m * n];
        let ns = timer.ns(|| {
            backend.gemm_into(
                &mut out,
                m,
                k,
                n,
                Operand::row_major(a.as_slice(), k),
                Operand::row_major(b.as_slice(), n),
            );
            black_box(&out);
        });
        table.insert(format!("tensor.backend.gemm_{m}x{k}x{n}_ns"), ns);
    }
    let mut ws = Workspace::new();
    let ns = timer.ns(|| {
        let m = ws.take(196, 32);
        ws.recycle(black_box(m));
    });
    table.insert("tensor.workspace.take_recycle_ns".into(), ns);
}

fn attention_layer(timer: &Timer, rng: &mut StdRng, models: &Vit196, table: &mut Table) {
    let mut ws = Workspace::new();
    let mut outputs: BTreeMap<&str, Matrix> = BTreeMap::new();
    let (served_at_196, served_at_1024) = (models.all(), [&models.taylor, &models.softmax]);
    let shapes: [(usize, usize, &[&VisionTransformer]); 2] =
        [(196, 8, &served_at_196), (1024, 64, &served_at_1024)];
    for (n, hd, served) in shapes {
        let (q, k, v) = (normal(rng, n, hd), normal(rng, n, hd), normal(rng, n, hd));
        for model in served {
            // The kernel exactly as the served model builds it (int8 with its frozen scales).
            let kernel = model.variant().kernel();
            let mut out = Matrix::zeros(n, hd);
            let ns = timer.ns(|| {
                kernel.compute_into(&q, &k, &v, &mut ws, &mut out);
                black_box(&out);
            });
            table.insert(
                format!("attention.kernel.{}_n{n}_hd{hd}_ns", kernel.label()),
                ns,
            );
            if n == 196 {
                outputs.insert(kernel.label(), out);
            }
        }
    }
    table.insert(
        "attention.kernel.taylor_vs_softmax_maxabs_n196".into(),
        f64::from(outputs["taylor"].max_abs_diff(&outputs["softmax"])),
    );
}

/// Times the `vit196`-shaped nn layers and returns them summed the way one taylor
/// forward uses them (for `vit.model.unattributed_share`).
fn nn_layer(timer: &Timer, rng: &mut StdRng, image: &Matrix, table: &mut Table) -> f64 {
    let cfg = inputs::vit196_config();
    let (n, e) = (cfg.tokens(), cfg.embed_dim);
    let hidden = (e as f32 * cfg.mlp_ratio).round() as usize;
    let mut ws = Workspace::new();
    let x = normal(rng, n, e);
    let mut out = Matrix::zeros(n, e);

    let embed = PatchEmbed::new(rng, cfg.patch_size, n, e);
    let embed_ns = timer.ns(|| embed.infer_into(image, &mut ws, &mut out));
    let norm = LayerNorm::new(e);
    let norm_ns = timer.ns(|| norm.infer_into(&x, &mut out));
    let linear = Linear::new(rng, e, e, true);
    let linear_ns = timer.ns(|| linear.infer_into(&x, &mut out));
    let mlp = Mlp::new(rng, e, hidden, Activation::Gelu);
    let mlp_ns = timer.ns(|| mlp.infer_into(&x, &mut ws, &mut out));
    let head = ClassificationHead::new(rng, e, cfg.classes);
    let mut logits = Matrix::zeros(1, cfg.classes);
    let head_ns = timer.ns(|| head.infer_into(&x, &mut ws, &mut logits));
    black_box((&out, &logits));

    for (name, ns) in [
        ("embed", embed_ns),
        ("norm", norm_ns),
        ("linear", linear_ns),
        ("mlp", mlp_ns),
        ("head", head_ns),
    ] {
        table.insert(format!("nn.{name}.infer_ns"), ns);
    }
    let per_block = 2.0 * norm_ns
        + 4.0 * linear_ns
        + cfg.heads as f64 * table["attention.kernel.taylor_n196_hd8_ns"]
        + mlp_ns;
    embed_ns + cfg.layers as f64 * per_block + head_ns
}

/// Median microseconds of one `infer_batch_into` over `images`, and the share of the
/// workspace's checkouts that were pool hits by the end.
fn batch_us(timer: &Timer, model: &VisionTransformer, images: &[Matrix]) -> (f64, f64) {
    let mut ws = Workspace::new();
    let mut outputs: Vec<VitOutput> = Vec::new();
    let us = timer.ns(|| model.infer_batch_into(images, &mut outputs, &mut ws)) / 1e3;
    (us, ws.pool_hits() as f64 / ws.checkouts().max(1) as f64)
}

fn vit_layer(
    timer: &Timer,
    rng: &mut StdRng,
    models: &Vit196,
    seed: u64,
    explained_ns: f64,
    table: &mut Table,
) {
    let cfg = inputs::vit196_config();
    let (n, e) = (cfg.tokens(), cfg.embed_dim);
    let mut ws = Workspace::new();
    let x = normal(rng, n, e);
    let mut out = Matrix::zeros(n, e);
    let mha = MultiHeadAttention::new(rng, e, cfg.heads, AttentionVariant::Taylor);
    let ns = timer.ns(|| mha.infer_into(&x, &mut ws, &mut out));
    table.insert("vit.block.mha_infer_ns".into(), ns);
    let block = TransformerBlock::new(rng, e, cfg.heads, cfg.mlp_ratio, AttentionVariant::Taylor);
    let mut tokens = x.clone();
    let ns = timer.ns(|| {
        // The block updates in place; restart from the same tokens so values stay bounded.
        tokens.copy_from(&x);
        block.infer_inplace(&mut tokens, &mut ws);
    });
    table.insert("vit.block.infer_ns".into(), ns);

    let images: Vec<Matrix> = (0..32)
        .map(|i| inputs::image(seed, Stream::Layers, i, cfg.image_size))
        .collect();
    for model in models.all() {
        let (us, hit_share) = batch_us(timer, model, &images[..1]);
        let label = model.variant().label();
        table.insert(format!("vit.model.infer_b1_us.{label}"), us);
        if label == "taylor" {
            table.insert("tensor.workspace.pool_hit_share".into(), hit_share);
        }
    }
    let b1 = table["vit.model.infer_b1_us.taylor"];
    let (b32, _) = batch_us(timer, &models.taylor, &images);
    table.insert("vit.model.infer_b32_us.taylor".into(), b32);
    table.insert("vit.model.b32_over_32xb1".into(), b32 / (32.0 * b1));
    table.insert(
        "vit.model.unattributed_share".into(),
        1.0 - explained_ns / (b1 * 1e3),
    );

    let big = inputs::image(
        seed,
        Stream::Layers,
        1000,
        inputs::vit1024_config().image_size,
    );
    for variant in [AttentionVariant::Taylor, AttentionVariant::Softmax] {
        let model = inputs::build_vit1024(variant);
        let (us, _) = batch_us(timer, &model, std::slice::from_ref(&big));
        table.insert(
            format!("vit.model.infer_b1_us.vit1024_{}", variant.label()),
            us,
        );
    }
}

fn serve_layer(timer: &Timer, models: &Vit196, image: &Matrix, table: &mut Table) {
    let key = REQUEST_KEY;
    let opts = InferOptions::default();
    let ns = timer.ns(|| {
        black_box(Encoding::Json.encode(key, image, &opts));
    });
    table.insert("serve.protocol.encode_json_ns".into(), ns);
    let json = String::from_utf8(Encoding::Json.encode(key, image, &opts)).expect("JSON is UTF-8");
    let ns = timer.ns(|| {
        let parsed = serde::json::parse(&json).expect("own encoding parses");
        black_box(protocol::parse_infer_request(&parsed).expect("own encoding decodes"));
    });
    table.insert("serve.protocol.decode_json_ns".into(), ns);
    let ns = timer.ns(|| {
        black_box(Encoding::Binary.encode(key, image, &opts));
    });
    table.insert("serve.protocol.encode_binary_ns".into(), ns);
    let binary = Encoding::Binary.encode(key, image, &opts);
    let ns = timer.ns(|| {
        black_box(protocol::decode_binary_infer(&binary).expect("own encoding decodes"));
    });
    table.insert("serve.protocol.decode_binary_ns".into(), ns);

    let reply = InferReply {
        model: key.to_string(),
        prediction: 3,
        logits: models.taylor.infer(image).logits.as_slice().to_vec(),
        batch_size: 16,
        queue_us: 1870,
    };
    let ns = timer.ns(|| {
        black_box(protocol::infer_reply_json(&reply).to_json());
    });
    table.insert("serve.protocol.reply_encode_ns".into(), ns);
    let reply_json = protocol::infer_reply_json(&reply).to_json();
    let ns = timer.ns(|| {
        let parsed = serde::json::parse(&reply_json).expect("own reply parses");
        black_box(protocol::parse_infer_reply(&parsed).expect("own reply decodes"));
    });
    table.insert("serve.protocol.reply_decode_ns".into(), ns);

    // One JSON infer request as the engine's front sees it: head + 3136 pixels of text.
    let mut request = format!(
        "POST /v1/infer HTTP/1.1\r\nHost: vitality-serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        json.len()
    )
    .into_bytes();
    request.extend_from_slice(json.as_bytes());
    let mut parser = HttpParser::new();
    let ns = timer.ns(|| {
        parser.feed(&request);
        assert_eq!(
            parser.poll(1 << 20).expect("own request frames"),
            ParseStatus::Message
        );
        black_box(parser.body().len());
        parser.advance();
    });
    table.insert("serve.http.parse_request_ns".into(), ns);
    let ns = timer.ns(|| {
        black_box(encode_response(200, reply_json.as_bytes(), true, &[]).bytes);
    });
    table.insert("serve.http.encode_response_ns".into(), ns);

    // A full default batch through the admission queue: 16 submits, one `next_batch`.
    let mut registry = ModelRegistry::new();
    let registered = registry
        .register(inputs::MODEL_NAME, models.taylor.clone())
        .expect("valid model name");
    let entry = registry.get(&registered).expect("just registered");
    let policy = BatchPolicy::default();
    let batcher = Batcher::new(policy, Arc::new(Metrics::new()));
    let (tx, _rx) = mpsc::channel();
    let ns = timer.ns(|| {
        for _ in 0..policy.max_batch {
            batcher
                .submit(PendingRequest {
                    entry: Arc::clone(&entry),
                    image: image.clone(),
                    submitted: Instant::now(),
                    deadline: None,
                    responder: Responder::channel(tx.clone()),
                    trace: None,
                })
                .expect("queue has room");
        }
        black_box(batcher.next_batch().expect("a full batch is due at once"));
    });
    table.insert("serve.batcher.submit_next_ns".into(), ns);
}

fn gateway_layer(
    timer: &Timer,
    models: &Vit196,
    image: &Matrix,
    table: &mut Table,
) -> Result<(), String> {
    let ns = timer.ns(|| {
        black_box(image_hash(image));
    });
    table.insert("gateway.cache.image_hash_ns".into(), ns);

    let key = REQUEST_KEY;
    let reply = InferReply {
        model: key.to_string(),
        prediction: 3,
        logits: vec![0.25; inputs::vit196_config().classes],
        batch_size: 1,
        queue_us: 100,
    };
    let config = CacheConfig::default();
    let cache = ResponseCache::new(config.capacity, config.ttl, config.shards);
    for hash in 0..config.capacity as u64 {
        cache.put(key, hash, reply.clone());
    }
    let mut hash = 0u64;
    let ns = timer.ns(|| {
        hash = (hash + 1) % config.capacity as u64;
        black_box(cache.get(key, hash).expect("resident entry"));
    });
    table.insert("gateway.cache.get_hit_ns".into(), ns);
    let mut absent = u64::MAX / 2;
    let ns = timer.ns(|| {
        absent += 1;
        black_box(cache.get(key, absent));
    });
    table.insert("gateway.cache.get_miss_ns".into(), ns);
    let mut fresh = 1u64 << 40;
    let ns = timer.ns(|| {
        fresh += 1;
        cache.put(key, fresh, reply.clone());
    });
    table.insert("gateway.cache.put_evict_ns".into(), ns);

    let routing = RoutingPolicy::default();
    let ns = timer.ns(|| {
        black_box(routing.resolve(key, Some(Tier::Latency)));
    });
    table.insert("gateway.router.resolve_ns".into(), ns);

    // `pick` over two probed-healthy engines, as in `cluster_mixed`.
    let engines = (0..2)
        .map(|_| crate::workloads::boot_engine(models))
        .collect::<Result<Vec<_>, _>>()?;
    let addrs: Vec<_> = engines.iter().map(|e| e.local_addr()).collect();
    let pool = BackendPool::new(&addrs);
    pool.probe_all(Duration::from_secs(1), 2);
    let result = if pool.healthy_count() == addrs.len() {
        let ns = timer.ns(|| {
            black_box(pool.pick(key, &[]));
        });
        table.insert("gateway.pool.pick_ns".into(), ns);
        Ok(())
    } else {
        Err(format!(
            "probe admitted {}/{} engines",
            pool.healthy_count(),
            addrs.len()
        ))
    };
    for engine in engines {
        engine.shutdown();
    }
    result
}

/// Runs every microbenchmark, spending at most about `budget` in total. Inputs come
/// from the fixed [`MODEL_SEED`], not from `--seed`: the layers are timed on the same
/// operands in every run, so a value such as the taylor-vs-softmax divergence only
/// moves when the code does.
pub fn run(budget: Duration, models: &Vit196) -> Result<Table, String> {
    let seed = MODEL_SEED;
    // ~55 timed items; the slow ones (batch-32 and 1024-token forwards) use their
    // whole share, the fast ones finish their 200 samples early.
    let timer = Timer {
        budget: budget / 40,
    };
    let mut rng = inputs::rng_for(seed, Stream::Layers, u64::MAX);
    let image = inputs::image(seed, Stream::Layers, 0, inputs::vit196_config().image_size);
    let mut table = Table::new();
    tensor_layer(&timer, &mut rng, &mut table);
    attention_layer(&timer, &mut rng, models, &mut table);
    let explained_ns = nn_layer(&timer, &mut rng, &image, &mut table);
    vit_layer(&timer, &mut rng, models, seed, explained_ns, &mut table);
    serve_layer(&timer, models, &image, &mut table);
    gateway_layer(&timer, models, &image, &mut table)?;
    Ok(table)
}
