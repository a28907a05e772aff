//! The fixed models and everything a workload draws from `--seed`: image pools, the
//! never-repeated cold images, the Poisson arrival schedule and the pick sequences.
//!
//! Model weights use [`MODEL_SEED`], independent of `--seed`: a seed changes the
//! traffic, never the program under test.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vitality_tensor::{init, Matrix};
use vitality_vit::{AttentionVariant, TrainConfig, VisionTransformer};

/// Seed of every model's weights.
pub const MODEL_SEED: u64 = 196;

/// Images per pool (the hot set of `cluster_mixed`, the whole input set of the
/// engine workloads).
pub const POOL_SIZE: usize = 64;

/// Name half of every served model key.
pub const MODEL_NAME: &str = "vit196";

/// The model key every request names (tier hints rewrite its variant half).
pub const REQUEST_KEY: &str = "vit196:taylor";

/// The served model: 196 tokens, the shape every earlier bench number is in.
pub fn vit196_config() -> TrainConfig {
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

/// The high-resolution offline model: 1024 tokens, one head of dimension 64.
pub fn vit1024_config() -> TrainConfig {
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

/// The four `vit196` variants an engine registers, sharing one set of weights.
#[derive(Debug, Clone)]
pub struct Vit196 {
    pub taylor: VisionTransformer,
    pub softmax: VisionTransformer,
    pub unified: VisionTransformer,
    pub int8: VisionTransformer,
}

impl Vit196 {
    /// Builds the variants. The int8 scales are calibrated on eight images drawn from
    /// [`MODEL_SEED`], so they too are the same whatever the traffic seed.
    pub fn build() -> Self {
        let size = vit196_config().image_size;
        let calibration: Vec<Matrix> = (0..8)
            .map(|i| image(MODEL_SEED, Stream::Pool, i, size))
            .collect();
        let mut rng = StdRng::seed_from_u64(MODEL_SEED);
        let taylor = VisionTransformer::new(&mut rng, vit196_config(), AttentionVariant::Taylor);
        let mut softmax = taylor.clone();
        softmax.set_variant(AttentionVariant::Softmax);
        let mut unified = taylor.clone();
        unified.set_variant(AttentionVariant::Unified { threshold: 0.5 });
        let mut int8 = taylor.clone();
        int8.calibrate_int8(&calibration);
        Self {
            taylor,
            softmax,
            unified,
            int8,
        }
    }

    /// The variant a reply's `model` field names, if it is one of ours.
    pub fn by_key(&self, key: &str) -> Option<&VisionTransformer> {
        match key.strip_prefix(MODEL_NAME)?.strip_prefix(':')? {
            "taylor" => Some(&self.taylor),
            "softmax" => Some(&self.softmax),
            "unified" => Some(&self.unified),
            "int8" => Some(&self.int8),
            _ => None,
        }
    }

    pub fn all(&self) -> [&VisionTransformer; 4] {
        [&self.taylor, &self.softmax, &self.unified, &self.int8]
    }
}

/// Builds `vit1024` with the given attention variant.
pub fn build_vit1024(variant: AttentionVariant) -> VisionTransformer {
    VisionTransformer::new(
        &mut StdRng::seed_from_u64(MODEL_SEED),
        vit1024_config(),
        variant,
    )
}

/// Independent random streams derived from one `--seed`.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Pool,
    Cold,
    Schedule,
    Picks,
    Layers,
    WarmUp,
}

/// A generator for `stream`'s `index`-th item under `seed` (SplitMix-style mixing, so
/// neighbouring seeds and indices give unrelated streams).
pub fn rng_for(seed: u64, stream: Stream, index: u64) -> StdRng {
    let mixed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((stream as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB));
    StdRng::seed_from_u64(mixed)
}

/// One seeded `size x size` image with pixels in `[0, 1)`.
pub fn image(seed: u64, stream: Stream, index: u64, size: usize) -> Matrix {
    init::uniform(&mut rng_for(seed, stream, index), size, size, 0.0, 1.0)
}

/// The seed's pool of [`POOL_SIZE`] images.
pub fn pool(seed: u64, size: usize) -> Vec<Matrix> {
    (0..POOL_SIZE as u64)
        .map(|i| image(seed, Stream::Pool, i, size))
        .collect()
}

/// Send offsets of a Poisson arrival process at `rate` per second over `seconds`
/// seconds, conditioned on its expected count: given their number, Poisson arrivals
/// are independent uniform draws in order. Every seed therefore sends the same number
/// of requests, and only their spacing (bursts and gaps) differs.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Duration> {
    let mut rng = rng_for(seed, Stream::Schedule, 0);
    let count = (rate * seconds).round() as usize;
    let mut offsets: Vec<f64> = (0..count).map(|_| rng.gen::<f64>() * seconds).collect();
    offsets.sort_by(f64::total_cmp);
    offsets.into_iter().map(Duration::from_secs_f64).collect()
}

/// Which tier hint a `cluster_mixed` request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierHint {
    None,
    Latency,
    Accuracy,
}

impl TierHint {
    pub const ALL: [TierHint; 3] = [TierHint::None, TierHint::Latency, TierHint::Accuracy];

    pub fn wire(self) -> Option<&'static str> {
        match self {
            TierHint::None => None,
            TierHint::Latency => Some("latency"),
            TierHint::Accuracy => Some("accuracy"),
        }
    }
}

/// Which image a request carries: a pool image (repeats) or a cold image that is
/// sent exactly once, regenerated from its id when its reply is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageRef {
    Pool(usize),
    Cold(u64),
}

/// One connection's seeded pick sequence.
#[derive(Debug)]
pub struct Picks {
    rng: StdRng,
    lane: u64,
    lanes: u64,
    cold_sent: u64,
}

impl Picks {
    /// The sequence of connection `lane` out of `lanes` (lanes never share a cold id).
    pub fn new(seed: u64, lane: usize, lanes: usize) -> Self {
        Self {
            rng: rng_for(seed, Stream::Picks, lane as u64),
            lane: lane as u64,
            lanes: lanes as u64,
            cold_sent: 0,
        }
    }

    /// A uniform pool pick (the engine workloads).
    pub fn pool_pick(&mut self) -> ImageRef {
        ImageRef::Pool(self.rng.gen_range(0..POOL_SIZE))
    }

    /// The `cluster_mixed` draw: hot or cold with equal odds, then the tier mix
    /// (half no tier, a quarter each `latency` and `accuracy`).
    pub fn mixed_pick(&mut self) -> (ImageRef, TierHint) {
        let image = if self.rng.gen_bool(0.5) {
            self.pool_pick()
        } else {
            let id = self.lane + self.lanes * self.cold_sent;
            self.cold_sent += 1;
            ImageRef::Cold(id)
        };
        let tier = match self.rng.gen_range(0..4u32) {
            0 | 1 => TierHint::None,
            2 => TierHint::Latency,
            _ => TierHint::Accuracy,
        };
        (image, tier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_and_picks_repeat_for_equal_seeds_and_differ_across_seeds() {
        let a = poisson_schedule(7, 150.0, 4.0);
        assert_eq!(a, poisson_schedule(7, 150.0, 4.0));
        assert_ne!(a, poisson_schedule(8, 150.0, 4.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
        assert!(a.last().unwrap().as_secs_f64() < 4.0);
        assert_eq!(a.len(), 600, "the expected count, whatever the seed");
        // Exponential-like gaps, not a metronome: some arrivals nearly coincide and
        // some gaps are several times the mean of 6.7 ms.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        assert!(gaps.iter().any(|&g| g < 0.001) && gaps.iter().any(|&g| g > 0.02));

        let draw = |seed: u64, lane: usize| -> Vec<(ImageRef, TierHint)> {
            let mut picks = Picks::new(seed, lane, 2);
            (0..256).map(|_| picks.mixed_pick()).collect()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
    }

    #[test]
    fn cold_ids_never_repeat_within_or_across_lanes() {
        let mut seen = std::collections::BTreeSet::new();
        for lane in 0..2 {
            let mut picks = Picks::new(3, lane, 2);
            for _ in 0..500 {
                if let (ImageRef::Cold(id), _) = picks.mixed_pick() {
                    assert!(seen.insert(id), "cold id {id} repeated");
                }
            }
        }
        assert!(seen.len() > 300, "about half of 1000 draws are cold");
    }

    #[test]
    fn images_are_a_function_of_seed_stream_and_index() {
        assert_eq!(image(1, Stream::Cold, 5, 8), image(1, Stream::Cold, 5, 8));
        assert_ne!(image(1, Stream::Cold, 5, 8), image(1, Stream::Cold, 6, 8));
        assert_ne!(image(1, Stream::Cold, 5, 8), image(1, Stream::Pool, 5, 8));
        assert_ne!(image(1, Stream::Cold, 5, 8), image(2, Stream::Cold, 5, 8));
    }

    #[test]
    fn replies_name_the_variant_they_are_checked_against() {
        let models = Vit196::build();
        assert_eq!(
            models.by_key("vit196:int8").unwrap().variant().label(),
            "int8"
        );
        assert_eq!(
            models.by_key("vit196:unified").unwrap().variant().label(),
            "unified"
        );
        assert!(models.by_key("vit196:sparse").is_none());
        assert!(models.by_key("other:taylor").is_none());
    }
}
