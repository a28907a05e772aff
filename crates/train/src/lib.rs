//! Training substrate for the ViTALiTy accuracy experiments.
//!
//! The paper's accuracy results (Fig. 10, Fig. 13, Fig. 14, Fig. 15, Table IV) come from
//! fine-tuning ImageNet ViTs; this reproduction substitutes a synthetic patch-pattern
//! classification task (documented in the [`dataset`] module) and trains the
//! structurally faithful [`VisionTransformer`](vitality_vit::VisionTransformer) from
//! `vitality-vit` with the paper's four training schemes:
//!
//! * **BASELINE** — vanilla softmax attention.
//! * **SPARSE** — Sanger-style sparse attention (threshold `T = 0.02`).
//! * **LOWRANK** — drop-in linear Taylor attention on a model trained with softmax
//!   attention (no fine-tuning), which collapses exactly as Fig. 10 shows.
//! * **VITALITY** — fine-tune with the unified low-rank + sparse attention (optionally
//!   with knowledge distillation), then drop the sparse component for inference.
//!
//! The crate provides the synthetic dataset, the AdamW optimiser, the training loop with
//! knowledge distillation, the scheme runner, and the sparse-occupancy tracker behind
//! Fig. 14.

#![deny(missing_docs)]

pub mod dataset;
pub mod optimizer;
pub mod schemes;
pub mod trainer;

pub use dataset::{DatasetConfig, SyntheticDataset};
pub use optimizer::{Adam, GradientMap};
pub use schemes::{
    run_scheme, run_scheme_with_baseline, train_baseline, SchemeContext, SchemeOutcome,
    TrainingScheme,
};
pub use trainer::{Distillation, EpochStats, TrainOptions, Trainer};
