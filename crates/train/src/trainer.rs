//! The training loop: mini-batch gradient accumulation, optional knowledge distillation
//! and sparse-occupancy tracking.

use serde::{Deserialize, Serialize};

use crate::dataset::SyntheticDataset;
use crate::optimizer::{Adam, GradientMap};
use vitality_autograd::Graph;
use vitality_nn::registry::ParamRegistry;
use vitality_tensor::Matrix;
use vitality_vit::VisionTransformer;

/// Knowledge-distillation settings (the paper applies token-based distillation from the
/// softmax-attention teacher during ViTALiTy fine-tuning; this reproduction distils the
/// classifier logits, which exercises the same loss plumbing).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Distillation {
    /// Softmax temperature applied to teacher and student logits.
    pub temperature: f32,
    /// Weight of the distillation term (`1 - alpha` goes to the hard cross-entropy).
    pub alpha: f32,
}

impl Default for Distillation {
    fn default() -> Self {
        Self {
            temperature: 2.0,
            alpha: 0.5,
        }
    }
}

/// Options controlling one training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainOptions {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (gradients are averaged across the batch).
    pub batch_size: usize,
    /// Knowledge-distillation settings; `None` disables distillation.
    pub distillation: Option<Distillation>,
    /// When `true`, the mean sparse-component occupancy is measured after every epoch
    /// (the Fig. 14 probe). Only meaningful for the Unified attention variant.
    pub track_sparse_occupancy: bool,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 8,
            distillation: None,
            track_sparse_occupancy: false,
        }
    }
}

/// Statistics of one training epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (starting at zero).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f32,
    /// Accuracy on the held-out test split after the epoch.
    pub test_accuracy: f32,
    /// Mean sparse-component occupancy (zero when tracking is disabled or not applicable).
    pub sparse_occupancy: f32,
}

/// Drives training of a [`VisionTransformer`] on a [`SyntheticDataset`].
#[derive(Debug, Clone)]
pub struct Trainer {
    options: TrainOptions,
}

impl Trainer {
    /// Creates a trainer with the given options.
    ///
    /// # Panics
    ///
    /// Panics when `epochs == 0` or `batch_size == 0`.
    pub fn new(options: TrainOptions) -> Self {
        assert!(options.epochs > 0, "at least one epoch is required");
        assert!(options.batch_size > 0, "batch size must be positive");
        Self { options }
    }

    /// The configured options.
    pub fn options(&self) -> TrainOptions {
        self.options
    }

    /// Trains `model` with `optimizer`, optionally distilling from `teacher`, and returns
    /// per-epoch statistics.
    ///
    /// # Panics
    ///
    /// Panics when distillation is requested without a teacher.
    pub fn train(
        &self,
        model: &mut VisionTransformer,
        optimizer: &mut Adam,
        dataset: &SyntheticDataset,
        teacher: Option<&VisionTransformer>,
    ) -> Vec<EpochStats> {
        if self.options.distillation.is_some() {
            assert!(teacher.is_some(), "distillation requires a teacher model");
        }
        let mut history = Vec::with_capacity(self.options.epochs);
        for epoch in 0..self.options.epochs {
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for (start, end) in dataset.train_batches(self.options.batch_size) {
                let mut grads = GradientMap::new();
                let mut batch_loss = 0.0;
                let count = (end - start) as f32;
                for idx in start..end {
                    let image = &dataset.train_images()[idx];
                    let label = dataset.train_labels()[idx];
                    let (loss_value, registry, gradients) =
                        self.sample_loss(model, teacher, image, label);
                    batch_loss += loss_value;
                    grads.accumulate(&registry, &gradients, 1.0 / count);
                }
                optimizer.step(model, &grads);
                epoch_loss += batch_loss / count;
                batches += 1;
            }
            let sparse_occupancy = if self.options.track_sparse_occupancy {
                self.mean_sparse_occupancy(model, dataset)
            } else {
                0.0
            };
            history.push(EpochStats {
                epoch,
                train_loss: epoch_loss / batches.max(1) as f32,
                test_accuracy: model.accuracy(dataset.test_images(), dataset.test_labels()),
                sparse_occupancy,
            });
        }
        history
    }

    /// Builds the loss for one sample and runs the backward pass.
    fn sample_loss(
        &self,
        model: &VisionTransformer,
        teacher: Option<&VisionTransformer>,
        image: &Matrix,
        label: usize,
    ) -> (f32, ParamRegistry, vitality_autograd::Gradients) {
        let graph = Graph::new();
        let mut registry = ParamRegistry::new();
        let logits = model.forward_train(&graph, &mut registry, image);
        let hard = logits.cross_entropy_with_logits(&[label]);
        let loss = match (self.options.distillation, teacher) {
            (Some(distill), Some(teacher)) => {
                let teacher_logits = teacher.infer(image).logits;
                let soft_targets = teacher_logits
                    .scale(1.0 / distill.temperature)
                    .softmax_rows();
                let soft = logits
                    .scale(1.0 / distill.temperature)
                    .soft_cross_entropy(&soft_targets)
                    .scale(distill.temperature * distill.temperature);
                hard.scale(1.0 - distill.alpha)
                    .add(&soft.scale(distill.alpha))
            }
            _ => hard,
        };
        let value = loss.value().get(0, 0);
        let gradients = graph.backward(&loss);
        (value, registry, gradients)
    }

    /// Mean sparse occupancy over (a subsample of) the training set.
    fn mean_sparse_occupancy(&self, model: &VisionTransformer, dataset: &SyntheticDataset) -> f32 {
        let probe: Vec<&Matrix> = dataset.train_images().iter().take(4).collect();
        if probe.is_empty() {
            return 0.0;
        }
        probe
            .iter()
            .map(|img| model.sparse_occupancy(img))
            .sum::<f32>()
            / probe.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;
    use crate::optimizer::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vitality_vit::{AttentionVariant, TrainConfig};

    fn setup(variant: AttentionVariant) -> (VisionTransformer, SyntheticDataset) {
        let mut rng = StdRng::seed_from_u64(600);
        let dataset = SyntheticDataset::generate(&mut rng, DatasetConfig::tiny());
        let model = VisionTransformer::new(&mut rng, TrainConfig::tiny(), variant);
        (model, dataset)
    }

    #[test]
    fn training_reduces_the_loss() {
        let (mut model, dataset) = setup(AttentionVariant::Softmax);
        let trainer = Trainer::new(TrainOptions {
            epochs: 3,
            batch_size: 4,
            ..TrainOptions::default()
        });
        let mut optimizer = Adam::new(0.01, 0.0);
        let history = trainer.train(&mut model, &mut optimizer, &dataset, None);
        assert_eq!(history.len(), 3);
        assert!(
            history.last().unwrap().train_loss < history[0].train_loss,
            "loss did not decrease: {history:?}"
        );
        assert_eq!(trainer.options().epochs, 3);
    }

    #[test]
    fn distillation_requires_a_teacher() {
        let (mut model, dataset) = setup(AttentionVariant::Taylor);
        let trainer = Trainer::new(TrainOptions {
            epochs: 1,
            batch_size: 4,
            distillation: Some(Distillation::default()),
            ..TrainOptions::default()
        });
        let mut optimizer = Adam::new(0.01, 0.0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            trainer.train(&mut model, &mut optimizer, &dataset, None)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn distillation_runs_with_a_teacher() {
        let (mut student, dataset) = setup(AttentionVariant::Taylor);
        let (teacher, _) = setup(AttentionVariant::Softmax);
        let trainer = Trainer::new(TrainOptions {
            epochs: 1,
            batch_size: 4,
            distillation: Some(Distillation {
                temperature: 2.0,
                alpha: 0.5,
            }),
            ..TrainOptions::default()
        });
        let mut optimizer = Adam::new(0.01, 0.0);
        let history = trainer.train(&mut student, &mut optimizer, &dataset, Some(&teacher));
        assert_eq!(history.len(), 1);
        assert!(history[0].train_loss.is_finite());
    }

    #[test]
    fn sparse_occupancy_is_tracked_for_unified_training() {
        let (mut model, dataset) = setup(AttentionVariant::Unified { threshold: 0.1 });
        let trainer = Trainer::new(TrainOptions {
            epochs: 1,
            batch_size: 4,
            track_sparse_occupancy: true,
            ..TrainOptions::default()
        });
        let mut optimizer = Adam::new(0.005, 0.0);
        let history = trainer.train(&mut model, &mut optimizer, &dataset, None);
        assert!(history[0].sparse_occupancy > 0.0);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn rejects_zero_batch_size() {
        let _ = Trainer::new(TrainOptions {
            batch_size: 0,
            ..TrainOptions::default()
        });
    }
}
