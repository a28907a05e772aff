//! # ViTALiTy (reproduction)
//!
//! A from-scratch Rust reproduction of *ViTALiTy: Unifying Low-rank and Sparse
//! Approximation for Vision Transformer Acceleration with a Linear Taylor Attention*
//! (HPCA 2023). This facade crate re-exports the whole workspace:
//!
//! * [`tensor`] — dense `f32` matrix kernels.
//! * [`autograd`] — reverse-mode automatic differentiation.
//! * [`nn`] — neural-network layers (linear, layer norm, MLP, patch embedding).
//! * [`attention`] — the linear Taylor attention (Algorithm 1), the Sanger-style sparse
//!   attention, the unified training-time attention, the int8 Taylor kernel and the
//!   op-count models (including Table IV's linear-attention baselines).
//! * [`vit`] — ViT model configurations, workloads and the trainable Vision Transformer.
//! * [`train`] — the synthetic task, the AdamW optimiser and the paper's training schemes.
//! * [`accel`] — the cycle-level ViTALiTy accelerator simulator.
//! * [`baselines`] — Sanger / SALO / CPU / GPU / edge-GPU baseline models.
//! * [`serve`] — the batched, multi-worker HTTP inference serving engine with dynamic
//!   request coalescing (see `examples/serve.rs`).
//! * [`gateway`] — the multi-engine cluster front-end: response caching, tiered
//!   variant routing, least-loaded balancing and failover (see `examples/cluster.rs`).
//!
//! # Quickstart
//!
//! Approximate the softmax attention with the linear Taylor attention and simulate the
//! dedicated accelerator on DeiT-Tiny:
//!
//! ```
//! use rand::SeedableRng;
//! use vitality::attention::{AttentionKernel, SoftmaxAttention, TaylorAttention};
//! use vitality::accel::{AcceleratorConfig, VitalityAccelerator};
//! use vitality::vit::{ModelConfig, ModelWorkload};
//! use vitality::tensor::init;
//!
//! // Algorithm: linear Taylor attention vs the exact softmax attention.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let (n, d) = (32, 16);
//! let q = init::normal(&mut rng, n, d, 0.0, 0.1);
//! let k = init::normal(&mut rng, n, d, 0.0, 0.1);
//! let v = init::normal(&mut rng, n, d, 0.0, 1.0);
//! let exact = SoftmaxAttention::new().compute(&q, &k, &v);
//! let taylor = TaylorAttention::new().compute(&q, &k, &v);
//! assert!(exact.max_abs_diff(&taylor) < 0.05);
//!
//! // Hardware: simulate the dedicated accelerator on the DeiT-Tiny workload.
//! let accel = VitalityAccelerator::new(AcceleratorConfig::paper());
//! let report = accel.simulate_model(&ModelWorkload::for_model(&ModelConfig::deit_tiny()));
//! assert!(report.attention_latency_s < 1e-3);
//! ```

#![deny(missing_docs)]

pub use vitality_accel as accel;
pub use vitality_attention as attention;
pub use vitality_autograd as autograd;
pub use vitality_baselines as baselines;
pub use vitality_gateway as gateway;
pub use vitality_nn as nn;
pub use vitality_serve as serve;
pub use vitality_tensor as tensor;
pub use vitality_train as train;
pub use vitality_vit as vit;
