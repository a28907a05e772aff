//! Synthetic patch-pattern classification dataset.
//!
//! The dataset substitutes ImageNet in the accuracy experiments: the reproduced quantity
//! is the ordering between training schemes, not the paper's ImageNet accuracies. Each
//! class is defined by an oriented sinusoidal grating whose phase is randomised per
//! sample, combined with a class-specific bright patch location; Gaussian pixel noise
//! makes the task non-trivial. Telling the classes apart requires combining
//! *global* structure (the grating orientation/frequency — what attention is good at) with
//! *local* structure (the bright patch — what the sparse "strong connection" component
//! helps with), which is exactly the tension the ViTALiTy training scheme resolves.

use rand::Rng;

use vitality_tensor::{init, Matrix};

/// Configuration of a synthetic dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetConfig {
    /// Number of classes.
    pub classes: usize,
    /// Image side length in pixels.
    pub image_size: usize,
    /// Training samples generated per class.
    pub train_per_class: usize,
    /// Test samples generated per class.
    pub test_per_class: usize,
    /// Standard deviation of the additive Gaussian pixel noise.
    pub noise: f32,
}

impl DatasetConfig {
    /// A small default matching [`vitality_vit::TrainConfig::experiment`].
    pub fn experiment() -> Self {
        Self {
            classes: 6,
            image_size: 24,
            train_per_class: 12,
            test_per_class: 6,
            noise: 0.25,
        }
    }

    /// An even smaller configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            classes: 4,
            image_size: 16,
            train_per_class: 4,
            test_per_class: 2,
            noise: 0.15,
        }
    }
}

/// A generated dataset split into train and test sets.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    config: DatasetConfig,
    train_images: Vec<Matrix>,
    train_labels: Vec<usize>,
    test_images: Vec<Matrix>,
    test_labels: Vec<usize>,
}

impl SyntheticDataset {
    /// Generates a dataset with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration has fewer than two classes or a zero image size.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, config: DatasetConfig) -> Self {
        assert!(
            config.classes >= 2,
            "a classification task needs at least two classes"
        );
        assert!(config.image_size >= 8, "images must be at least 8x8 pixels");
        let mut train_images = Vec::new();
        let mut train_labels = Vec::new();
        let mut test_images = Vec::new();
        let mut test_labels = Vec::new();
        for class in 0..config.classes {
            for _ in 0..config.train_per_class {
                train_images.push(Self::sample(rng, &config, class));
                train_labels.push(class);
            }
            for _ in 0..config.test_per_class {
                test_images.push(Self::sample(rng, &config, class));
                test_labels.push(class);
            }
        }
        // Shuffle the training set so mini-batches mix classes.
        for i in (1..train_images.len()).rev() {
            let j = rng.gen_range(0..=i);
            train_images.swap(i, j);
            train_labels.swap(i, j);
        }
        Self {
            config,
            train_images,
            train_labels,
            test_images,
            test_labels,
        }
    }

    /// Generates one image of the given class.
    fn sample<R: Rng + ?Sized>(rng: &mut R, config: &DatasetConfig, class: usize) -> Matrix {
        let size = config.image_size;
        let classes = config.classes as f32;
        // Global structure: an oriented grating with class-dependent angle and frequency.
        let angle = std::f32::consts::PI * class as f32 / classes;
        let frequency = 2.0 + (class % 3) as f32;
        let phase: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
        let (sin_a, cos_a) = (angle.sin(), angle.cos());
        let mut image = Matrix::from_fn(size, size, |i, j| {
            let u = (i as f32 / size as f32 - 0.5) * cos_a + (j as f32 / size as f32 - 0.5) * sin_a;
            0.5 + 0.5 * (std::f32::consts::TAU * frequency * u + phase).sin()
        });
        // Local structure: a bright patch whose quadrant depends on the class.
        let quarter = size / 4;
        let (cy, cx) = (
            quarter + (class % 2) * 2 * quarter,
            quarter + ((class / 2) % 2) * 2 * quarter,
        );
        for di in 0..quarter {
            for dj in 0..quarter {
                let (y, x) = (cy + di, cx + dj);
                if y < size && x < size {
                    image.set(y, x, (image.get(y, x) + 1.0).min(2.0));
                }
            }
        }
        // Pixel noise.
        let noise = init::normal(rng, size, size, 0.0, config.noise);
        image.try_add(&noise).expect("noise shape")
    }

    /// The dataset configuration.
    pub fn config(&self) -> DatasetConfig {
        self.config
    }

    /// Training images.
    pub fn train_images(&self) -> &[Matrix] {
        &self.train_images
    }

    /// Training labels (parallel to [`SyntheticDataset::train_images`]).
    pub fn train_labels(&self) -> &[usize] {
        &self.train_labels
    }

    /// Test images.
    pub fn test_images(&self) -> &[Matrix] {
        &self.test_images
    }

    /// Test labels (parallel to [`SyntheticDataset::test_images`]).
    pub fn test_labels(&self) -> &[usize] {
        &self.test_labels
    }

    /// Number of training samples.
    pub fn train_len(&self) -> usize {
        self.train_images.len()
    }

    /// Number of test samples.
    pub fn test_len(&self) -> usize {
        self.test_images.len()
    }

    /// Iterates over the training set in mini-batches of index ranges.
    pub fn train_batches(&self, batch_size: usize) -> Vec<(usize, usize)> {
        assert!(batch_size > 0, "batch size must be positive");
        let mut out = Vec::new();
        let mut start = 0;
        while start < self.train_len() {
            let end = (start + batch_size).min(self.train_len());
            out.push((start, end));
            start = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generates_the_requested_number_of_samples() {
        let cfg = DatasetConfig::tiny();
        let mut rng = StdRng::seed_from_u64(400);
        let ds = SyntheticDataset::generate(&mut rng, cfg);
        assert_eq!(ds.train_len(), cfg.classes * cfg.train_per_class);
        assert_eq!(ds.test_len(), cfg.classes * cfg.test_per_class);
        assert_eq!(ds.train_images().len(), ds.train_labels().len());
        assert_eq!(ds.test_images().len(), ds.test_labels().len());
        assert_eq!(ds.config(), cfg);
        for img in ds.train_images() {
            assert_eq!(img.shape(), (cfg.image_size, cfg.image_size));
        }
    }

    #[test]
    fn every_class_appears_in_both_splits() {
        let cfg = DatasetConfig::tiny();
        let mut rng = StdRng::seed_from_u64(401);
        let ds = SyntheticDataset::generate(&mut rng, cfg);
        for class in 0..cfg.classes {
            assert!(ds.train_labels().contains(&class));
            assert!(ds.test_labels().contains(&class));
        }
    }

    #[test]
    fn images_of_different_classes_differ_more_than_noise() {
        let cfg = DatasetConfig {
            noise: 0.05,
            ..DatasetConfig::tiny()
        };
        let mut rng = StdRng::seed_from_u64(402);
        let a0 = SyntheticDataset::sample(&mut rng, &cfg, 0);
        let a1 = SyntheticDataset::sample(&mut rng, &cfg, 0);
        let b = SyntheticDataset::sample(&mut rng, &cfg, 2);
        // Same-class images share the bright-patch location; cross-class images do not, so
        // the cross-class distance should exceed the within-class distance on average.
        let within = (&a0 - &a1).frobenius_norm();
        let across = (&a0 - &b).frobenius_norm();
        assert!(across > within * 0.8, "within {within} across {across}");
    }

    #[test]
    fn batching_covers_every_sample_exactly_once() {
        let cfg = DatasetConfig::tiny();
        let mut rng = StdRng::seed_from_u64(403);
        let ds = SyntheticDataset::generate(&mut rng, cfg);
        let batches = ds.train_batches(5);
        let total: usize = batches.iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, ds.train_len());
        assert!(batches.windows(2).all(|w| w[0].1 == w[1].0));
    }

    #[test]
    fn generation_is_deterministic_for_a_fixed_seed() {
        let cfg = DatasetConfig::tiny();
        let a = SyntheticDataset::generate(&mut StdRng::seed_from_u64(7), cfg);
        let b = SyntheticDataset::generate(&mut StdRng::seed_from_u64(7), cfg);
        assert!(a.train_images()[0].approx_eq(&b.train_images()[0], 0.0));
        assert_eq!(a.train_labels(), b.train_labels());
    }

    #[test]
    #[should_panic(expected = "two classes")]
    fn rejects_single_class_configurations() {
        let mut rng = StdRng::seed_from_u64(404);
        let _ = SyntheticDataset::generate(
            &mut rng,
            DatasetConfig {
                classes: 1,
                ..DatasetConfig::tiny()
            },
        );
    }
}
