//! Output correctness, outside the timed window: every reply's prediction and logits
//! are checked against direct inference of the variant the reply's `model` field
//! names. Pool images use expectations computed at set-up; cold images are
//! regenerated from their id and re-inferred here, after the window has closed, so
//! the load-generator threads run no inference while the clock is on.

use std::collections::BTreeMap;

use vitality_tensor::Matrix;
use vitality_vit::VisionTransformer;

use crate::inputs::{self, ImageRef, Stream, Vit196, MODEL_NAME};
use crate::loadgen::Op;
use crate::wire::Reply;

/// Largest accepted max-abs difference between served and direct logits.
pub const LOGIT_TOLERANCE: f32 = 1e-4;

/// What direct inference answers for one image.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub prediction: usize,
    pub logits: Vec<f32>,
}

/// Index of the largest logit (the first one on a tie, as the model's own `predict`).
pub fn argmax(logits: &[f32]) -> usize {
    let mut best = 0;
    for (j, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = j;
        }
    }
    best
}

/// Direct single-image inference (the reference every reply is held to).
pub fn direct(model: &VisionTransformer, image: &Matrix) -> Expected {
    let logits = model.infer(image).logits.as_slice().to_vec();
    Expected {
        prediction: argmax(&logits),
        logits,
    }
}

/// Whether a served answer agrees with the direct one.
pub fn agrees(expected: &Expected, prediction: usize, logits: &[f32]) -> Result<(), String> {
    if logits.len() != expected.logits.len() {
        return Err(format!(
            "{} logits, expected {}",
            logits.len(),
            expected.logits.len()
        ));
    }
    let max_abs = logits
        .iter()
        .zip(&expected.logits)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    // `f32::max` skips NaN, so a NaN logit must be caught on its own.
    if max_abs > LOGIT_TOLERANCE || logits.iter().any(|v| v.is_nan()) {
        return Err(format!("logits differ by {max_abs}"));
    }
    if prediction != expected.prediction {
        return Err(format!(
            "prediction {prediction}, expected {}",
            expected.prediction
        ));
    }
    Ok(())
}

/// The serving workloads' checker.
pub struct Checker<'a> {
    models: &'a Vit196,
    seed: u64,
    /// Per served model key, the expectation of every pool image.
    pool: BTreeMap<String, Vec<Expected>>,
}

impl<'a> Checker<'a> {
    /// Precomputes pool expectations for the given variant labels (the ones the
    /// workload's requests can resolve to).
    pub fn new(models: &'a Vit196, seed: u64, pool: &[Matrix], variants: &[&str]) -> Self {
        let pool = variants
            .iter()
            .map(|variant| {
                let key = format!("{MODEL_NAME}:{variant}");
                let model = models.by_key(&key).expect("a served variant");
                (key, pool.iter().map(|image| direct(model, image)).collect())
            })
            .collect();
        Self { models, seed, pool }
    }

    fn check_reply(&self, image: ImageRef, reply: &Reply) -> Result<(), String> {
        let key = reply.infer.model.as_str();
        let computed;
        let expected = match image {
            ImageRef::Pool(index) => match self.pool.get(key) {
                Some(expectations) => &expectations[index],
                None => return Err(format!("answered by unexpected model {key}")),
            },
            ImageRef::Cold(id) => {
                let Some(model) = self.models.by_key(key) else {
                    return Err(format!("answered by unknown model {key}"));
                };
                let size = model.config().image_size;
                computed = direct(model, &inputs::image(self.seed, Stream::Cold, id, size));
                &computed
            }
        };
        agrees(expected, reply.infer.prediction, &reply.infer.logits)
    }

    /// Checks one op: `Ok` for a correct answer, `Err(why)` for a failed, refused or
    /// wrong one.
    pub fn check(&self, op: &Op) -> Result<(), String> {
        match &op.outcome {
            Ok(reply) => self.check_reply(op.image, reply),
            Err(why) => Err(why.clone()),
        }
    }

    /// Checks every op, splitting the (cold re-inference) work over the host's cores.
    pub fn check_all(&self, ops: &[Op]) -> Vec<Result<(), String>> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let chunk = ops.len().div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = ops
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || part.iter().map(|op| self.check(op)).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("verification thread panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::pool;
    use std::time::Instant;
    use vitality_serve::InferReply;

    fn op(image: ImageRef, outcome: Result<Reply, String>) -> Op {
        let now = Instant::now();
        Op {
            id: 0,
            image,
            due: now,
            encode_start: now,
            encode_end: now,
            write_start: now,
            write_end: now,
            read_done: now,
            decode_end: now,
            outcome,
        }
    }

    fn reply(model: &str, expected: &Expected) -> Reply {
        Reply {
            infer: InferReply {
                model: model.to_string(),
                prediction: expected.prediction,
                logits: expected.logits.clone(),
                batch_size: 1,
                queue_us: 0,
            },
            cached: false,
            degraded: false,
            spans: None,
        }
    }

    #[test]
    fn replies_are_held_to_the_variant_they_name() {
        let images = pool(5, 56);
        let models = Vit196::build();
        let checker = Checker::new(&models, 5, &images, &["taylor", "int8"]);
        let taylor = direct(&models.taylor, &images[3]);
        let int8 = direct(&models.int8, &images[3]);
        assert_ne!(
            taylor.logits, int8.logits,
            "the variants answer differently"
        );

        // A pool image answered by either served variant checks against that variant.
        assert!(checker
            .check(&op(ImageRef::Pool(3), Ok(reply("vit196:taylor", &taylor))))
            .is_ok());
        assert!(checker
            .check(&op(ImageRef::Pool(3), Ok(reply("vit196:int8", &int8))))
            .is_ok());
        // The right logits under the wrong model name are wrong.
        assert!(checker
            .check(&op(ImageRef::Pool(3), Ok(reply("vit196:int8", &taylor))))
            .is_err());
        // A variant the workload cannot resolve to is an error, as is a failed op.
        assert!(checker
            .check(&op(ImageRef::Pool(3), Ok(reply("vit196:softmax", &taylor))))
            .is_err());
        assert!(checker
            .check(&op(ImageRef::Pool(3), Err("status 503".into())))
            .is_err());

        // Cold images are re-inferred from their id.
        let cold = inputs::image(5, Stream::Cold, 11, 56);
        let unified = direct(&models.unified, &cold);
        assert!(checker
            .check(&op(
                ImageRef::Cold(11),
                Ok(reply("vit196:unified", &unified))
            ))
            .is_ok());
        assert!(checker
            .check(&op(
                ImageRef::Cold(12),
                Ok(reply("vit196:unified", &unified))
            ))
            .is_err());

        // A flipped prediction or a drifted logit is a mismatch.
        let mut wrong = reply("vit196:taylor", &taylor);
        wrong.infer.prediction = (taylor.prediction + 1) % 8;
        assert!(checker.check(&op(ImageRef::Pool(3), Ok(wrong))).is_err());
        let mut drifted = reply("vit196:taylor", &taylor);
        drifted.infer.logits[0] += 1e-3;
        assert!(checker.check(&op(ImageRef::Pool(3), Ok(drifted))).is_err());

        let verdicts = checker.check_all(&[
            op(ImageRef::Pool(3), Ok(reply("vit196:taylor", &taylor))),
            op(ImageRef::Pool(3), Err("nope".into())),
            op(ImageRef::Cold(11), Ok(reply("vit196:unified", &unified))),
        ]);
        assert_eq!(
            verdicts.iter().map(Result::is_ok).collect::<Vec<_>>(),
            [true, false, true]
        );
    }
}
