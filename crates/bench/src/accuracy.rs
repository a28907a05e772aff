//! Accuracy experiments on the synthetic classification task: Fig. 10, Table IV, Fig. 13,
//! Fig. 14 and Fig. 15.
//!
//! Every function takes a `quick` flag: the experiment binaries run with `quick = false`
//! (more epochs, more data), while the integration tests run with `quick = true` to stay
//! fast. Accuracies are *not* expected to match the paper's ImageNet numbers — the
//! reproduced quantity is the ordering between schemes and the ablation trends.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::format::{format_percent, render_table};
use vitality_attention::opcount::{
    efficient_attention_ops, linear_kernel_ops, linformer_ops, performer_ops,
};
use vitality_attention::{
    AttentionKernel, SangerSparseAttention, SoftmaxAttention, TaylorAttention,
};
use vitality_train::{
    run_scheme_with_baseline, train_baseline, Adam, DatasetConfig, SchemeContext, SyntheticDataset,
    TrainOptions, Trainer, TrainingScheme,
};
use vitality_vit::{AttentionVariant, ModelConfig, ModelWorkload, TrainConfig, VisionTransformer};

/// Builds the shared training context for the accuracy experiments.
pub fn experiment_context(seed: u64, quick: bool) -> SchemeContext {
    let mut rng = StdRng::seed_from_u64(seed);
    let dataset_config = if quick {
        DatasetConfig::tiny()
    } else {
        DatasetConfig::experiment()
    };
    let model_config = if quick {
        TrainConfig::tiny()
    } else {
        TrainConfig::experiment()
    };
    SchemeContext {
        model_config,
        dataset: SyntheticDataset::generate(&mut rng, dataset_config),
        options: TrainOptions {
            epochs: if quick { 2 } else { 12 },
            batch_size: if quick { 4 } else { 8 },
            distillation: None,
            track_sparse_occupancy: false,
        },
        learning_rate: 0.01,
        seed,
    }
}

/// Fig. 10: accuracy of BASELINE / SPARSE / LOWRANK / VITALITY across the seven ViT models.
///
/// Each paper model is represented by a differently-seeded instance of the synthetic task
/// (the full ImageNet models cannot be trained here); the per-model columns therefore show
/// the *ordering* of the four schemes, which is the paper's claim.
pub fn fig10_accuracy(quick: bool) -> String {
    let models = ModelConfig::all_models();
    let model_names: Vec<&str> = models.iter().map(|m| m.name).collect();
    let mut rows = Vec::new();
    let mut sums = [0.0f32; 4];
    for (i, name) in model_names.iter().enumerate() {
        let ctx = experiment_context(40 + i as u64, quick);
        let (baseline_model, _) = train_baseline(&ctx);
        let baseline_acc =
            baseline_model.accuracy(ctx.dataset.test_images(), ctx.dataset.test_labels());
        let sparse = run_scheme_with_baseline(
            TrainingScheme::Sparse { threshold: 0.02 },
            &ctx,
            Some(&baseline_model),
        );
        let lowrank =
            run_scheme_with_baseline(TrainingScheme::LowRankDropIn, &ctx, Some(&baseline_model));
        let vitality = run_scheme_with_baseline(
            TrainingScheme::Vitality {
                threshold: 0.5,
                distillation: !quick,
            },
            &ctx,
            Some(&baseline_model),
        );
        let accs = [
            baseline_acc,
            sparse.final_accuracy,
            lowrank.final_accuracy,
            vitality.final_accuracy,
        ];
        for (s, a) in sums.iter_mut().zip(accs.iter()) {
            *s += a;
        }
        rows.push(vec![
            name.to_string(),
            format_percent(accs[0] as f64),
            format_percent(accs[1] as f64),
            format_percent(accs[2] as f64),
            format_percent(accs[3] as f64),
        ]);
    }
    let n = model_names.len() as f32;
    rows.push(vec![
        "Average".to_string(),
        format_percent((sums[0] / n) as f64),
        format_percent((sums[1] / n) as f64),
        format_percent((sums[2] / n) as f64),
        format_percent((sums[3] / n) as f64),
    ]);
    let mut out = String::from(
        "Fig. 10 — Accuracy of the four schemes on the synthetic task (paper averages on ImageNet:\nBaseline 77.1%, Sparse 75.7%, LowRank 23.2%, ViTALiTy 76.0%; the reproduced quantity is the ordering)\n\n",
    );
    out.push_str(&render_table(
        &[
            "model (proxy task seed)",
            "Baseline",
            "Sparse",
            "LowRank",
            "ViTALiTy",
        ],
        &rows,
    ));
    out
}

/// Table IV: accuracy versus attention FLOPs for ViTALiTy and the linear/sparse baselines.
pub fn table4_accuracy_flops(quick: bool) -> String {
    let ctx = experiment_context(4, quick);
    let tokens = ctx.model_config.tokens();
    let head_dim = ctx.model_config.head_dim();
    let heads = ctx.model_config.heads as u64;
    let layers = ctx.model_config.layers as u64;
    let attention_mflops =
        |ops: vitality_attention::OpCounts| ops.scaled(heads * layers).flops() as f64 / 1e6;
    // DeiT-Tiny-scale attention FLOPs for the reference column (the paper's Table IV).
    let deit = ModelWorkload::for_model(&ModelConfig::deit_tiny());
    let deit_vanilla = deit.vanilla_attention_ops().flops() as f64 / 1e9;
    let deit_taylor = deit.taylor_attention_ops().flops() as f64 / 1e9;

    let (baseline_model, _) = train_baseline(&ctx);
    let baseline_acc =
        baseline_model.accuracy(ctx.dataset.test_images(), ctx.dataset.test_labels());
    let vitality = run_scheme_with_baseline(
        TrainingScheme::Vitality {
            threshold: 0.5,
            distillation: !quick,
        },
        &ctx,
        Some(&baseline_model),
    );
    let sparse = run_scheme_with_baseline(
        TrainingScheme::Sparse { threshold: 0.02 },
        &ctx,
        Some(&baseline_model),
    );

    let rows = vec![
        vec![
            "BASELINE (softmax)".to_string(),
            "Quadratic".to_string(),
            format_percent(baseline_acc as f64),
            format!(
                "{:.3}",
                attention_mflops(SoftmaxAttention::new().op_counts(tokens, head_dim))
            ),
            format!("{deit_vanilla:.2} (DeiT-Tiny scale; paper 0.50)"),
        ],
        vec![
            "ViTALiTy (ours)".to_string(),
            "Linear".to_string(),
            format_percent(vitality.final_accuracy as f64),
            format!(
                "{:.3}",
                attention_mflops(TaylorAttention::new().op_counts(tokens, head_dim))
            ),
            format!("{deit_taylor:.2} (DeiT-Tiny scale; paper 0.33)"),
        ],
        vec![
            "Linformer".to_string(),
            "Linear".to_string(),
            "(not trained; linear baseline)".to_string(),
            format!(
                "{:.3}",
                attention_mflops(linformer_ops(tokens, head_dim, tokens / 4))
            ),
            "paper 0.35 / 69.5%".to_string(),
        ],
        vec![
            "Performer".to_string(),
            "Linear".to_string(),
            "(not trained; linear baseline)".to_string(),
            format!(
                "{:.3}",
                attention_mflops(performer_ops(tokens, head_dim, head_dim))
            ),
            "paper 0.40 / 68.3%".to_string(),
        ],
        vec![
            "Linear Transformer (elu+1)".to_string(),
            "Linear".to_string(),
            "(not trained; linear baseline)".to_string(),
            format!(
                "{:.3}",
                attention_mflops(linear_kernel_ops(tokens, head_dim))
            ),
            "-".to_string(),
        ],
        vec![
            "Efficient Attention".to_string(),
            "Linear".to_string(),
            "(not trained; linear baseline)".to_string(),
            format!(
                "{:.3}",
                attention_mflops(efficient_attention_ops(tokens, head_dim))
            ),
            "-".to_string(),
        ],
        vec![
            "SANGER (sparse)".to_string(),
            "Sparse".to_string(),
            format_percent(sparse.final_accuracy as f64),
            format!(
                "{:.3}",
                attention_mflops(SangerSparseAttention::new(0.02).op_counts(tokens, head_dim))
            ),
            "paper 0.33 / 71.2%".to_string(),
        ],
    ];
    let mut out = String::from(
        "Table IV — Accuracy vs attention FLOPs trade-off (synthetic task; FLOPs also shown at DeiT-Tiny scale)\n\n",
    );
    out.push_str(&render_table(
        &[
            "method",
            "type",
            "accuracy (synthetic)",
            "attention MFLOPs (this task)",
            "reference",
        ],
        &rows,
    ));
    out
}

/// Fig. 13: training-scheme ablation on one model (LowRank drop-in, LR+Sparse, +KD,
/// ViTALiTy with and without KD, versus the Baseline and Sparse references).
pub fn fig13_training_ablation(quick: bool) -> String {
    let ctx = experiment_context(13, quick);
    let (baseline_model, _) = train_baseline(&ctx);
    let baseline_acc =
        baseline_model.accuracy(ctx.dataset.test_images(), ctx.dataset.test_labels());
    let schemes = vec![
        ("Baseline (softmax)", None, baseline_acc),
        (
            "Sparse (Sanger, T=0.02)",
            Some(TrainingScheme::Sparse { threshold: 0.02 }),
            0.0,
        ),
        (
            "LowRank (drop-in Taylor)",
            Some(TrainingScheme::LowRankDropIn),
            0.0,
        ),
        (
            "LR + Sparse (T=0.5)",
            Some(TrainingScheme::LowRankSparse {
                threshold: 0.5,
                distillation: false,
            }),
            0.0,
        ),
        (
            "LR + Sparse + KD (T=0.5)",
            Some(TrainingScheme::LowRankSparse {
                threshold: 0.5,
                distillation: true,
            }),
            0.0,
        ),
        (
            "ViTALiTy (T=0.5)",
            Some(TrainingScheme::Vitality {
                threshold: 0.5,
                distillation: false,
            }),
            0.0,
        ),
        (
            "ViTALiTy + KD (T=0.5)",
            Some(TrainingScheme::Vitality {
                threshold: 0.5,
                distillation: true,
            }),
            0.0,
        ),
    ];
    let mut rows = Vec::new();
    for (label, scheme, fixed) in schemes {
        let accuracy = match scheme {
            Some(s) => run_scheme_with_baseline(s, &ctx, Some(&baseline_model)).final_accuracy,
            None => fixed,
        };
        rows.push(vec![label.to_string(), format_percent(accuracy as f64)]);
    }
    let mut out = String::from(
        "Fig. 13 — Training-scheme ablation (paper, DeiT-Tiny: Baseline 72.2%, Sparse 71.2%,\nLowRank 27%, LR+Sparse 70.7%, +KD 71.9%, ViTALiTy+KD 71.9%)\n\n",
    );
    out.push_str(&render_table(&["scheme", "accuracy (synthetic)"], &rows));
    out
}

/// Fig. 14: non-zero occupancy of the sparse component of the unified attention over
/// training epochs (the paper observes it vanishing after ~10 epochs).
pub fn fig14_sparse_vanishing(quick: bool) -> String {
    let ctx = experiment_context(14, quick);
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let mut model = VisionTransformer::new(
        &mut rng,
        ctx.model_config,
        AttentionVariant::Unified { threshold: 0.5 },
    );
    let trainer = Trainer::new(TrainOptions {
        epochs: if quick { 3 } else { 16 },
        batch_size: ctx.options.batch_size,
        distillation: None,
        track_sparse_occupancy: true,
    });
    let mut optimizer = Adam::new(ctx.learning_rate, 1e-4);
    let history = trainer.train(&mut model, &mut optimizer, &ctx.dataset, None);
    let mut rows = Vec::new();
    for stats in &history {
        rows.push(vec![
            format!("{}", stats.epoch),
            format_percent(stats.sparse_occupancy as f64),
            format_percent(stats.test_accuracy as f64),
        ]);
    }
    let mut out = String::from(
        "Fig. 14 — Non-zeros in the sparse component of the unified attention over training\n(paper: the sparse component vanishes after ~10 epochs, so it can be dropped at inference)\n\n",
    );
    out.push_str(&render_table(
        &["epoch", "sparse non-zeros", "test accuracy"],
        &rows,
    ));
    if let (Some(first), Some(last)) = (history.first(), history.last()) {
        out.push_str(&format!(
            "\nOccupancy {} -> {} over {} epochs\n",
            format_percent(first.sparse_occupancy as f64),
            format_percent(last.sparse_occupancy as f64),
            history.len()
        ));
    }
    out
}

/// Fig. 15: effect of the sparsity threshold on accuracy for the unified training
/// (with and without dropping the sparse component at inference).
pub fn fig15_threshold_sweep(quick: bool) -> String {
    let thresholds: &[f32] = if quick {
        &[0.02, 0.5]
    } else {
        &[0.002, 0.02, 0.2, 0.5, 0.9]
    };
    let ctx = experiment_context(15, quick);
    let (baseline_model, _) = train_baseline(&ctx);
    let mut rows = Vec::new();
    for &threshold in thresholds {
        let keep_sparse = run_scheme_with_baseline(
            TrainingScheme::LowRankSparse {
                threshold,
                distillation: !quick,
            },
            &ctx,
            Some(&baseline_model),
        );
        let drop_sparse = run_scheme_with_baseline(
            TrainingScheme::Vitality {
                threshold,
                distillation: !quick,
            },
            &ctx,
            Some(&baseline_model),
        );
        rows.push(vec![
            format!("{threshold}"),
            format_percent(keep_sparse.final_accuracy as f64),
            format_percent(drop_sparse.final_accuracy as f64),
        ]);
    }
    let mut out = String::from(
        "Fig. 15 — Sparsity-threshold sweep (paper: optimum at T = 0.5, where ViTALiTy without the\nsparse component matches LR+Sparse+KD at 71.9%)\n\n",
    );
    out.push_str(&render_table(
        &[
            "threshold T",
            "LR+Sparse(+KD) accuracy",
            "ViTALiTy (drop sparse) accuracy",
        ],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builder_respects_quick_flag() {
        let quick = experiment_context(1, true);
        let full = experiment_context(1, false);
        assert!(quick.options.epochs < full.options.epochs);
        assert!(quick.dataset.train_len() < full.dataset.train_len());
    }

    #[test]
    fn fig13_quick_report_contains_every_scheme() {
        let report = fig13_training_ablation(true);
        for label in ["Baseline", "Sparse", "LowRank", "LR + Sparse", "ViTALiTy"] {
            assert!(report.contains(label), "missing {label}");
        }
    }

    #[test]
    fn fig14_quick_report_tracks_occupancy() {
        let report = fig14_sparse_vanishing(true);
        assert!(report.contains("epoch"));
        assert!(report.contains("Occupancy"));
    }

    #[test]
    fn fig15_quick_report_lists_thresholds() {
        let report = fig15_threshold_sweep(true);
        assert!(report.contains("0.02"));
        assert!(report.contains("0.5"));
    }

    #[test]
    fn table4_quick_report_lists_all_methods() {
        let report = table4_accuracy_flops(true);
        for method in ["BASELINE", "ViTALiTy", "Linformer", "Performer", "SANGER"] {
            assert!(report.contains(method), "missing {method}");
        }
    }
}
