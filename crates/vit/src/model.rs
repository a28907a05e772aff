//! The trainable Vision Transformer used by the accuracy experiments.

use rand::Rng;

use crate::block::{AttentionVariant, MultiHeadAttention, TransformerBlock};
use crate::config::TrainConfig;
use vitality_attention::Int8Calibration;
use vitality_autograd::{Graph, Var};
use vitality_nn::registry::{NamedParameters, ParamRegistry};
use vitality_nn::{ClassificationHead, PatchEmbed};
use vitality_tensor::parallel::for_each_chunk_mut;
use vitality_tensor::{with_thread_workspace, Matrix, Workspace};

/// Work one lane of [`VisionTransformer::infer_batch_into`] must have before a batch is
/// split: 128 M multiply–accumulates, about 5 ms on one thread at the 25–28 GMAC/s the
/// GEMMs reach inline on the reference host. A lane costs one `thread::scope`
/// generation, measured at 75–90 µs, so at this grain the fan-out is at most 2% of the
/// work it spreads.
///
/// The constant is also the switch ROADMAP item 2(a) waits on. Every batch the engine
/// serves (`vit196`, at most 32 images of 3.5 MMAC) lies below it and runs the
/// sequential loop on purpose: lowering the grain is the whole change that hands
/// served batches to the lanes, and it cannot be accepted before the benchmark's
/// `peak_rss_mib` stops counting the load generator's per-op log (item 1(a)).
const LANE_GRAIN_MACS: u64 = 128_000_000;

/// Multiply–accumulates of one image's forward pass, from the configuration alone and
/// counted the way [`crate::opcount`] counts them: the linear layers (Q/K/V and output
/// projections, MLP) plus the Taylor attention's two `n x d x d` products per head —
/// the floor over the attention variants, so a softmax model is never split sooner
/// than its work warrants — plus the patch embedding.
fn image_macs(config: &TrainConfig) -> u64 {
    let (n, e, d) = (
        config.tokens() as u64,
        config.embed_dim as u64,
        config.head_dim() as u64,
    );
    let hidden = (config.embed_dim as f32 * config.mlp_ratio) as u64;
    let linear = 4 * n * e * e + 2 * n * e * hidden;
    let attention = 2 * n * e * d;
    let embed = n * (config.patch_size * config.patch_size) as u64 * e;
    config.layers as u64 * (linear + attention) + embed
}

/// Result of an inference pass: the logits plus the final token representations.
#[derive(Debug, Clone)]
pub struct VitOutput {
    /// `1 x classes` classification logits.
    pub logits: Matrix,
    /// `n x d` token representations after the final block (before the head's norm).
    pub tokens: Matrix,
}

/// A small but structurally complete Vision Transformer: patch embedding, a stack of
/// pre-norm Transformer blocks with a pluggable attention variant, and a mean-pooled
/// classification head.
///
/// The attention variant can be switched after training, which is exactly how ViTALiTy is
/// deployed: fine-tune with [`AttentionVariant::Unified`], then switch to
/// [`AttentionVariant::Taylor`] for inference and drop the sparse component.
#[derive(Debug, Clone)]
pub struct VisionTransformer {
    config: TrainConfig,
    embed: PatchEmbed,
    blocks: Vec<TransformerBlock>,
    head: ClassificationHead,
    variant: AttentionVariant,
}

impl VisionTransformer {
    /// Creates a model with randomly initialised weights and the given attention variant.
    ///
    /// # Panics
    ///
    /// Panics when the configuration fails [`TrainConfig::validate`].
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        config: TrainConfig,
        variant: AttentionVariant,
    ) -> Self {
        config.validate();
        let embed = PatchEmbed::new(rng, config.patch_size, config.tokens(), config.embed_dim);
        let blocks = (0..config.layers)
            .map(|_| {
                TransformerBlock::new(
                    rng,
                    config.embed_dim,
                    config.heads,
                    config.mlp_ratio,
                    variant,
                )
            })
            .collect();
        let head = ClassificationHead::new(rng, config.embed_dim, config.classes);
        Self {
            config,
            embed,
            blocks,
            head,
            variant,
        }
    }

    /// Compile-time proof that the model is `Send + Sync` — the property that lets the
    /// serving engine share one warm model (behind an `Arc`) across its registry,
    /// batcher and worker threads without cloning weights. Calling it is free; it
    /// exists so a change that introduces interior mutability or a non-`Send` member
    /// fails to build here, next to the model, instead of deep inside
    /// `vitality-serve`.
    pub fn assert_send_sync() {
        fn assert<T: Send + Sync>() {}
        assert::<Self>();
    }

    /// The training configuration.
    pub fn config(&self) -> TrainConfig {
        self.config
    }

    /// The currently active attention variant.
    pub fn variant(&self) -> AttentionVariant {
        self.variant
    }

    /// Switches the attention variant (e.g. from training-time Unified to inference-time
    /// Taylor) without touching the weights. Every block's attention kernel is rebuilt
    /// exactly once here — never on the inference path.
    pub fn set_variant(&mut self, variant: AttentionVariant) {
        self.variant = variant;
        for block in &mut self.blocks {
            block.set_variant(variant);
        }
    }

    /// Number of Transformer blocks.
    pub fn depth(&self) -> usize {
        self.blocks.len()
    }

    /// Training forward pass for one image, producing `1 x classes` logits on the tape.
    pub fn forward_train(&self, graph: &Graph, reg: &mut ParamRegistry, image: &Matrix) -> Var {
        let mut x = self.embed.forward(graph, reg, "embed", image);
        for (i, block) in self.blocks.iter().enumerate() {
            x = block.forward_train(graph, reg, &format!("block{i}"), &x);
        }
        self.head.forward(graph, reg, "head", &x)
    }

    /// Inference pass producing logits and the final token representations.
    ///
    /// Runs on the calling thread's persistent [`Workspace`], so repeated calls from
    /// the same thread (a serving worker) reuse warm scratch buffers.
    pub fn infer(&self, image: &Matrix) -> VitOutput {
        with_thread_workspace(|ws| self.infer_with(image, ws))
    }

    /// Inference pass drawing every intermediate from the caller's workspace.
    ///
    /// The returned [`VitOutput`] matrices are themselves workspace checkouts: recycle
    /// them back (as [`VisionTransformer::infer_batch_into`] does between rounds) and
    /// the steady state performs zero hot-path allocations.
    pub fn infer_with(&self, image: &Matrix, ws: &mut Workspace) -> VitOutput {
        let mut x = ws.take(self.config.tokens(), self.config.embed_dim);
        self.embed.infer_into(image, ws, &mut x);
        for block in &self.blocks {
            block.infer_inplace(&mut x, ws);
        }
        let mut logits = ws.take(1, self.config.classes);
        self.head.infer_into(&x, ws, &mut logits);
        VitOutput { logits, tokens: x }
    }

    /// Steady-state batched inference: refills `outputs` with one [`VitOutput`] per
    /// image, in input order, recycling the previous round's outputs first.
    ///
    /// This is the allocation-free serving loop: after a warmup round every buffer —
    /// projections, attention scratch, token matrices, logits — is a workspace pool
    /// hit, which the counting-allocator regression test (`tests/alloc_regression.rs`)
    /// asserts is exactly zero heap traffic.
    ///
    /// A batch that carries at least two lanes' worth of work (see the grain constant
    /// `LANE_GRAIN_MACS`; `min(cores, images, batch MACs / grain)` lanes) is split
    /// into contiguous runs of images, one thread and one child workspace of `ws`
    /// ([`Workspace::lanes_mut`]) per run. Images are the only parallel axis then: a
    /// lane is the outermost parallel region of its thread, so every GEMM inside it
    /// runs inline. The outputs are bit-identical to the sequential path at any lane
    /// count, and the lane workspaces stay warm inside `ws` between calls; what the
    /// fan-out allocates per call is its threads and one job list. Below the grain —
    /// every batch the engine serves today — nothing is spawned and the loop is the
    /// sequential one on the calling thread, so its zero-allocation guarantee holds
    /// there unchanged.
    ///
    /// A *served* model above the grain fans out inside each engine worker, i.e. up to
    /// workers × lanes threads; making the workers themselves the outer axis is
    /// ROADMAP item 2(a).
    pub fn infer_batch_into(
        &self,
        images: &[Matrix],
        outputs: &mut Vec<VitOutput>,
        ws: &mut Workspace,
    ) {
        let lanes = self.lane_count(images.len());
        self.infer_batch_lanes(images, outputs, ws, lanes);
    }

    /// How many lanes a batch of `images` images is worth: as many as there are cores
    /// and images, but no more than the batch has [`LANE_GRAIN_MACS`]-sized shares of
    /// work. Below two it does not ask for the core count, which costs a system call.
    fn lane_count(&self, images: usize) -> usize {
        let by_work = images as u64 * image_macs(&self.config) / LANE_GRAIN_MACS;
        if by_work.min(images as u64) <= 1 {
            return 1;
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        cores
            .min(images)
            .min(usize::try_from(by_work).unwrap_or(usize::MAX))
    }

    /// [`VisionTransformer::infer_batch_into`] with the lane count given (at most
    /// `lanes`; tests pin it).
    ///
    /// `ws` itself is where outputs rest between differently-shaped calls: slots the
    /// new batch does not fill are recycled into it, slots the old batch did not have
    /// are checked out of it, and the sequential path runs on it. Every slot is then
    /// recycled into the lane that refills it, so a lane gets back exactly as many
    /// output buffers as it hands out and no pool drifts or grows, whatever the
    /// sequence of batch sizes and lane counts.
    fn infer_batch_lanes(
        &self,
        images: &[Matrix],
        outputs: &mut Vec<VitOutput>,
        ws: &mut Workspace,
        lanes: usize,
    ) {
        fn recycle(ws: &mut Workspace, output: VitOutput) {
            ws.recycle(output.logits);
            ws.recycle(output.tokens);
        }
        if lanes.min(images.len()) <= 1 {
            for output in outputs.drain(..) {
                recycle(ws, output);
            }
            outputs.reserve(images.len());
            for image in images {
                outputs.push(self.infer_with(image, ws));
            }
            return;
        }
        for surplus in outputs.drain(images.len().min(outputs.len())..) {
            recycle(ws, surplus);
        }
        while outputs.len() < images.len() {
            outputs.push(VitOutput {
                logits: ws.take(1, self.config.classes),
                tokens: ws.take(self.config.tokens(), self.config.embed_dim),
            });
        }
        let per_lane = images.len().div_ceil(lanes);
        let lane_ws = ws.lanes_mut(images.len().div_ceil(per_lane));
        for (slot, output) in outputs.drain(..).enumerate() {
            recycle(&mut lane_ws[slot / per_lane], output);
        }
        outputs.resize_with(images.len(), || VitOutput {
            logits: Matrix::zeros(0, 0),
            tokens: Matrix::zeros(0, 0),
        });
        let mut jobs: Vec<_> = lane_ws
            .iter_mut()
            .zip(images.chunks(per_lane))
            .zip(outputs.chunks_mut(per_lane))
            .collect();
        for_each_chunk_mut(&mut jobs, 1, |_, job| {
            let ((ws, images), slots) = &mut job[0];
            for (image, slot) in images.iter().zip(slots.iter_mut()) {
                *slot = self.infer_with(image, ws);
            }
        });
    }

    /// Predicted class index for one image.
    pub fn predict(&self, image: &Matrix) -> usize {
        let logits = self.infer(image).logits;
        let mut best = 0;
        for j in 1..logits.cols() {
            if logits.get(0, j) > logits.get(0, best) {
                best = j;
            }
        }
        best
    }

    /// Top-1 accuracy over a labelled set of images.
    pub fn accuracy(&self, images: &[Matrix], labels: &[usize]) -> f32 {
        assert_eq!(
            images.len(),
            labels.len(),
            "one label per image is required"
        );
        if images.is_empty() {
            return 0.0;
        }
        let correct = images
            .iter()
            .zip(labels)
            .filter(|&(image, &label)| self.predict(image) == label)
            .count();
        correct as f32 / images.len() as f32
    }

    /// Calibrates fixed int8 quantization scales on sample images and switches the
    /// model to [`AttentionVariant::Int8Taylor`] with the measured ranges — the
    /// model-construction calibration hook of the quantized serving path.
    ///
    /// Each image is propagated through the model with the *current* variant while the
    /// per-head absmax of every block's `Q` / centred `K̂` / `V` activations is
    /// aggregated ([`crate::MultiHeadAttention::qkv_absmax`]); the maxima over all blocks,
    /// heads and images become the frozen [`Int8Calibration::Fixed`] ranges, so every
    /// calibration-set activation is representable and anything beyond saturates at
    /// ±127 (the accelerator's behaviour). Returns the calibration for registering
    /// further int8 models on the same ranges.
    ///
    /// # Panics
    ///
    /// Panics when `images` is empty — a fixed calibration measured on nothing would
    /// silently zero every activation.
    pub fn calibrate_int8(&mut self, images: &[Matrix]) -> Int8Calibration {
        assert!(
            !images.is_empty(),
            "int8 calibration requires at least one sample image"
        );
        let (mut q_max, mut k_max, mut v_max) = (0.0f32, 0.0f32, 0.0f32);
        let mut ws = Workspace::new();
        for image in images {
            self.walk_attention_inputs(image, &mut ws, |attn, x| {
                let (q, k, v) = attn.qkv_absmax(x);
                q_max = q_max.max(q);
                k_max = k_max.max(k);
                v_max = v_max.max(v);
            });
        }
        let calibration = Int8Calibration::Fixed {
            q_absmax: q_max,
            k_absmax: k_max,
            v_absmax: v_max,
        };
        self.set_variant(AttentionVariant::Int8Taylor { calibration });
        calibration
    }

    /// Mean sparse-component occupancy across blocks for one image (the Fig. 14 probe),
    /// measured on the input each block's attention sees, `norm1(x)`.
    pub fn sparse_occupancy(&self, image: &Matrix) -> f32 {
        let mut total = 0.0;
        self.walk_attention_inputs(image, &mut Workspace::new(), |attn, x| {
            total += attn.sparse_occupancy(x);
        });
        total / self.blocks.len().max(1) as f32
    }

    /// Per-block, per-head attention logits (raw and mean-centred) for one image, consumed
    /// by the Fig. 3 distribution probe; measured on the input each block's attention
    /// sees, `norm1(x)`.
    pub fn collect_head_logits(&self, image: &Matrix) -> Vec<Vec<(Matrix, Matrix)>> {
        let mut out = Vec::with_capacity(self.blocks.len());
        self.walk_attention_inputs(image, &mut Workspace::new(), |attn, x| {
            out.push(attn.head_logits(x));
        });
        out
    }

    /// The one walk of the offline probes: runs `image` through the served forward on
    /// `ws` and, before each block runs, hands `probe` the block's attention and the
    /// input that attention sees, `norm1(x)`.
    fn walk_attention_inputs(
        &self,
        image: &Matrix,
        ws: &mut Workspace,
        mut probe: impl FnMut(&MultiHeadAttention, &Matrix),
    ) {
        let mut x = ws.take(self.config.tokens(), self.config.embed_dim);
        self.embed.infer_into(image, ws, &mut x);
        let mut normed = ws.take(x.rows(), x.cols());
        for block in &self.blocks {
            block.norm1().infer_into(&x, &mut normed);
            probe(block.attention(), &normed);
            block.infer_inplace(&mut x, ws);
        }
        ws.recycle(normed);
        ws.recycle(x);
    }
}

impl NamedParameters for VisionTransformer {
    fn visit_parameters(&self, prefix: &str, visitor: &mut dyn FnMut(&str, &Matrix)) {
        let p = |leaf: &str| {
            if prefix.is_empty() {
                leaf.to_string()
            } else {
                format!("{prefix}.{leaf}")
            }
        };
        self.embed.visit_parameters(&p("embed"), visitor);
        for (i, block) in self.blocks.iter().enumerate() {
            block.visit_parameters(&p(&format!("block{i}")), visitor);
        }
        self.head.visit_parameters(&p("head"), visitor);
    }

    fn visit_parameters_mut(&mut self, prefix: &str, visitor: &mut dyn FnMut(&str, &mut Matrix)) {
        let p = |leaf: &str| {
            if prefix.is_empty() {
                leaf.to_string()
            } else {
                format!("{prefix}.{leaf}")
            }
        };
        self.embed.visit_parameters_mut(&p("embed"), visitor);
        for (i, block) in self.blocks.iter_mut().enumerate() {
            block.visit_parameters_mut(&p(&format!("block{i}")), visitor);
        }
        self.head.visit_parameters_mut(&p("head"), visitor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vitality_tensor::init;

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
    fn inference_produces_class_logits() {
        let cfg = TrainConfig::tiny();
        let mut rng = StdRng::seed_from_u64(200);
        let model = VisionTransformer::new(&mut rng, cfg, AttentionVariant::Softmax);
        let out = model.infer(&image(&cfg, 1));
        assert_eq!(out.logits.shape(), (1, cfg.classes));
        assert_eq!(out.tokens.shape(), (cfg.tokens(), cfg.embed_dim));
        assert!(model.predict(&image(&cfg, 1)) < cfg.classes);
        assert_eq!(model.depth(), cfg.layers);
        assert_eq!(model.config(), cfg);
    }

    #[test]
    fn training_forward_matches_inference_values() {
        let cfg = TrainConfig::tiny();
        let mut rng = StdRng::seed_from_u64(201);
        let model = VisionTransformer::new(&mut rng, cfg, AttentionVariant::Taylor);
        let img = image(&cfg, 2);
        let graph = Graph::new();
        let mut reg = ParamRegistry::new();
        let logits = model.forward_train(&graph, &mut reg, &img);
        assert!(logits.value().approx_eq(&model.infer(&img).logits, 1e-3));
        let grads = graph.backward(&logits.cross_entropy_with_logits(&[0]));
        // Every registered parameter should receive a gradient.
        assert!(reg.grad("embed.proj.weight", &grads).is_some());
        assert!(reg.grad("block0.attn.wq.weight", &grads).is_some());
        assert!(reg.grad("head.fc.weight", &grads).is_some());
    }

    /// The benchmark's served model: 196 tokens, 3.5 MMAC per image.
    fn vit196() -> TrainConfig {
        TrainConfig {
            image_size: 56,
            patch_size: 4,
            embed_dim: 32,
            heads: 4,
            layers: 2,
            mlp_ratio: 2.0,
            classes: 8,
        }
    }

    /// The benchmark's high-resolution model: 1024 tokens, 236 MMAC per image.
    fn vit1024() -> TrainConfig {
        TrainConfig {
            image_size: 128,
            patch_size: 4,
            embed_dim: 64,
            heads: 1,
            layers: 4,
            mlp_ratio: 4.0,
            classes: 8,
        }
    }

    #[test]
    fn image_macs_agree_with_the_opcount_workload() {
        use crate::config::{ModelConfig, ModelFamily, StageConfig};
        use crate::opcount::ModelWorkload;
        for (cfg, millions) in [(vit196(), 3.5), (vit1024(), 236.0)] {
            let workload = ModelWorkload::for_model(&ModelConfig {
                name: "train",
                family: ModelFamily::Deit,
                resolution: cfg.image_size,
                stages: vec![StageConfig {
                    tokens: cfg.tokens(),
                    embed_dim: cfg.embed_dim,
                    heads: cfg.heads,
                    head_dim: cfg.head_dim(),
                    layers: cfg.layers,
                    mlp_ratio: cfg.mlp_ratio,
                }],
                backbone_macs: 0,
            });
            let embed = (cfg.tokens() * cfg.patch_size * cfg.patch_size * cfg.embed_dim) as u64;
            let counted = workload.linear_macs() + workload.taylor_attention_ops().mul + embed;
            let macs = image_macs(&cfg);
            // `opcount` adds small bookkeeping terms (t_D, one row of T_N) to the two
            // Taylor products; they stay under 1%.
            assert!(
                counted >= macs && (counted - macs) as f64 <= 0.01 * macs as f64,
                "{macs} vs opcount {counted}"
            );
            assert!((macs as f64 / 1e6 - millions).abs() < 0.02 * millions);
        }
    }

    #[test]
    fn only_batches_above_the_grain_are_split_into_lanes() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut rng = StdRng::seed_from_u64(240);
        let served = VisionTransformer::new(&mut rng, vit196(), AttentionVariant::Taylor);
        let hires = VisionTransformer::new(&mut rng, vit1024(), AttentionVariant::Taylor);
        // Every batch the engine is run with (`max_batch` is 16 by default; 32 is
        // headroom) stays sequential...
        for images in [0, 1, 16, 32] {
            assert_eq!(served.lane_count(images), 1, "vit196 x {images}");
        }
        // ...and so does a single image however large...
        assert_eq!(hires.lane_count(1), 1);
        // ...while the benchmark's offline batch (4 x 236 MMAC = 7 grains) gets one lane
        // per image, as far as there are cores: two on the reference host.
        assert_eq!(hires.lane_count(4), cores.min(4));
        assert_eq!(hires.lane_count(2), cores.min(2));
        // The count is bounded by work, not only by images and cores: 40 vit196 images
        // are 1.1 grains.
        assert_eq!(served.lane_count(40), 1);
        assert_eq!(served.lane_count(80), cores.min(2));
    }

    #[test]
    fn lanes_are_bit_identical_to_sequential_inference_in_input_order() {
        let cfg = TrainConfig::tiny();
        let mut rng = StdRng::seed_from_u64(241);
        let mut model = VisionTransformer::new(&mut rng, cfg, AttentionVariant::Taylor);
        let images: Vec<Matrix> = (0..8).map(|i| image(&cfg, 70 + i)).collect();
        for variant in [
            AttentionVariant::Taylor,
            AttentionVariant::Softmax,
            AttentionVariant::Int8Taylor {
                calibration: Int8Calibration::Dynamic,
            },
        ] {
            model.set_variant(variant);
            let expected: Vec<VitOutput> = images
                .iter()
                .map(|img| model.infer_with(img, &mut Workspace::new()))
                .collect();
            for lanes in [1, 2, 3] {
                // One workspace and one output vector across the batch sizes, so every
                // call also recycles a differently-sized previous round.
                let mut ws = Workspace::new();
                let mut outputs = Vec::new();
                for batch in [1, 2, 3, 5, 8, 3] {
                    model.infer_batch_lanes(&images[..batch], &mut outputs, &mut ws, lanes);
                    assert_eq!(outputs.len(), batch);
                    for (i, (out, want)) in outputs.iter().zip(&expected).enumerate() {
                        let case = format!("{} b{batch} l{lanes} #{i}", variant.label());
                        assert_eq!(out.logits, want.logits, "logits {case}");
                        assert_eq!(out.tokens, want.tokens, "tokens {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn lane_pools_neither_drift_nor_grow_across_changing_batch_sizes() {
        let cfg = TrainConfig::tiny();
        let mut rng = StdRng::seed_from_u64(242);
        let model = VisionTransformer::new(&mut rng, cfg, AttentionVariant::Taylor);
        let images: Vec<Matrix> = (0..4).map(|i| image(&cfg, 80 + i)).collect();
        let cycle = [4, 1, 3, 2];
        let mut ws = Workspace::new();
        let mut outputs = Vec::new();
        let mut round = |ws: &mut Workspace, batch: usize| {
            model.infer_batch_lanes(&images[..batch], &mut outputs, ws, 2);
            ws.pooled_bytes()
        };
        for batch in cycle {
            round(&mut ws, batch);
        }
        // After the first cycle no checkout misses, and the pools (parent and lanes
        // together) hold the same bytes at the same point of every cycle.
        let misses = ws.checkouts() - ws.pool_hits();
        let pooled: Vec<usize> = cycle.iter().map(|&batch| round(&mut ws, batch)).collect();
        for _ in 2..50 {
            for (&batch, &bytes) in cycle.iter().zip(&pooled) {
                assert_eq!(
                    round(&mut ws, batch),
                    bytes,
                    "pooled bytes at batch {batch}"
                );
            }
        }
        assert_eq!(
            ws.checkouts() - ws.pool_hits(),
            misses,
            "a warm pool missed"
        );
        assert_eq!(ws.lanes_mut(2).len(), 2);
    }

    #[test]
    fn switching_variants_preserves_weights_but_changes_outputs() {
        let cfg = TrainConfig::tiny();
        let mut rng = StdRng::seed_from_u64(202);
        let mut model = VisionTransformer::new(&mut rng, cfg, AttentionVariant::Softmax);
        let img = image(&cfg, 3);
        let softmax_logits = model.infer(&img).logits;
        model.set_variant(AttentionVariant::Taylor);
        assert_eq!(model.variant().label(), "taylor");
        let taylor_logits = model.infer(&img).logits;
        assert_eq!(softmax_logits.shape(), taylor_logits.shape());
        assert!(!softmax_logits.approx_eq(&taylor_logits, 1e-6));
    }

    #[test]
    fn accuracy_counts_correct_predictions() {
        let cfg = TrainConfig::tiny();
        let mut rng = StdRng::seed_from_u64(203);
        let model = VisionTransformer::new(&mut rng, cfg, AttentionVariant::Softmax);
        let images: Vec<Matrix> = (0..4).map(|i| image(&cfg, 10 + i)).collect();
        let predictions: Vec<usize> = images.iter().map(|img| model.predict(img)).collect();
        assert_eq!(model.accuracy(&images, &predictions), 1.0);
        let wrong: Vec<usize> = predictions.iter().map(|p| (p + 1) % cfg.classes).collect();
        assert_eq!(model.accuracy(&images, &wrong), 0.0);
        assert_eq!(model.accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn sparse_occupancy_probe_is_zero_for_dense_variants() {
        let cfg = TrainConfig::tiny();
        let mut rng = StdRng::seed_from_u64(204);
        let mut model = VisionTransformer::new(&mut rng, cfg, AttentionVariant::Taylor);
        let img = image(&cfg, 5);
        assert_eq!(model.sparse_occupancy(&img), 0.0);
        model.set_variant(AttentionVariant::Unified { threshold: 0.02 });
        let occupancy = model.sparse_occupancy(&img);
        assert!(occupancy > 0.0 && occupancy <= 1.0);
    }

    #[test]
    fn probes_read_the_normalised_attention_input() {
        // Fig. 3 and Fig. 14 describe the logits the attention computes, i.e. Q/K of
        // each block's `norm1(x)`, not of the block input `x`.
        let cfg = TrainConfig::tiny();
        let mut rng = StdRng::seed_from_u64(207);
        let model =
            VisionTransformer::new(&mut rng, cfg, AttentionVariant::Unified { threshold: 0.02 });
        let img = image(&cfg, 7);
        let mut ws = Workspace::new();
        let mut x = Matrix::zeros(cfg.tokens(), cfg.embed_dim);
        model.embed.infer_into(&img, &mut ws, &mut x);
        let mut normed = Matrix::zeros(cfg.tokens(), cfg.embed_dim);
        let (mut logits, mut occupancy) = (Vec::new(), 0.0);
        for block in &model.blocks {
            block.norm1().infer_into(&x, &mut normed);
            logits.push(block.attention().head_logits(&normed));
            occupancy += block.attention().sparse_occupancy(&normed);
            block.infer_inplace(&mut x, &mut ws);
        }
        assert_eq!(model.collect_head_logits(&img), logits);
        assert_eq!(
            model.sparse_occupancy(&img),
            occupancy / model.depth() as f32
        );
    }

    #[test]
    fn head_logit_probe_shapes() {
        let cfg = TrainConfig::tiny();
        let mut rng = StdRng::seed_from_u64(205);
        let model = VisionTransformer::new(&mut rng, cfg, AttentionVariant::Softmax);
        let captured = model.collect_head_logits(&image(&cfg, 6));
        assert_eq!(captured.len(), cfg.layers);
        assert_eq!(captured[0].len(), cfg.heads);
        assert_eq!(captured[0][0].0.shape(), (cfg.tokens(), cfg.tokens()));
    }

    #[test]
    fn shared_models_serve_from_multiple_threads() {
        VisionTransformer::assert_send_sync();
        let cfg = TrainConfig::tiny();
        let mut rng = StdRng::seed_from_u64(220);
        let model = std::sync::Arc::new(VisionTransformer::new(
            &mut rng,
            cfg,
            AttentionVariant::Taylor,
        ));
        let img = image(&cfg, 40);
        let expected = model.infer(&img).logits;
        let outputs: Vec<Matrix> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let model = std::sync::Arc::clone(&model);
                    let img = img.clone();
                    scope.spawn(move || model.infer(&img).logits)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("inference thread panicked"))
                .collect()
        });
        for logits in outputs {
            assert_eq!(logits, expected, "shared inference must be deterministic");
        }
    }

    #[test]
    fn calibrate_int8_freezes_ranges_and_switches_the_variant() {
        let cfg = TrainConfig::tiny();
        let mut rng = StdRng::seed_from_u64(230);
        let mut model = VisionTransformer::new(&mut rng, cfg, AttentionVariant::Taylor);
        let samples: Vec<Matrix> = (0..3).map(|i| image(&cfg, 60 + i)).collect();
        let predict_all = |model: &VisionTransformer| -> Vec<usize> {
            samples.iter().map(|img| model.predict(img)).collect()
        };
        let f32_predictions = predict_all(&model);
        let calibration = model.calibrate_int8(&samples);
        let Int8Calibration::Fixed {
            q_absmax,
            k_absmax,
            v_absmax,
        } = calibration
        else {
            panic!("calibration must freeze fixed ranges");
        };
        assert!(q_absmax > 0.0 && k_absmax > 0.0 && v_absmax > 0.0);
        assert_eq!(
            model.variant(),
            AttentionVariant::Int8Taylor { calibration }
        );
        assert_eq!(model.variant().label(), "int8");
        // Calibrated int8 inference stays usable: finite logits, overwhelmingly the
        // same top-1 decisions on the calibration set.
        let int8_predictions = predict_all(&model);
        let agreement = int8_predictions
            .iter()
            .zip(&f32_predictions)
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            agreement >= samples.len() - 1,
            "calibrated int8 flipped {} of {} predictions",
            samples.len() - agreement,
            samples.len()
        );
    }

    #[test]
    #[should_panic(expected = "at least one sample image")]
    fn calibrate_int8_rejects_an_empty_sample_set() {
        let cfg = TrainConfig::tiny();
        let mut rng = StdRng::seed_from_u64(231);
        let mut model = VisionTransformer::new(&mut rng, cfg, AttentionVariant::Taylor);
        let _ = model.calibrate_int8(&[]);
    }

    #[test]
    fn parameter_names_are_unique() {
        let cfg = TrainConfig::tiny();
        let mut rng = StdRng::seed_from_u64(206);
        let model = VisionTransformer::new(&mut rng, cfg, AttentionVariant::Softmax);
        let mut names = Vec::new();
        model.visit_parameters("", &mut |n, _| names.push(n.to_string()));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate parameter names");
        assert!(model.parameter_count() > 1000);
    }
}
