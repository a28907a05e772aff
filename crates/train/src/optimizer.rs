//! Gradient-based optimisers operating on named parameters.

use std::collections::HashMap;

use vitality_autograd::Gradients;
use vitality_nn::registry::{NamedParameters, ParamRegistry};
use vitality_tensor::Matrix;

/// Named gradients accumulated over one or more per-sample backward passes.
///
/// The autograd graph is rebuilt per sample, so tape node ids are not stable across a
/// mini-batch; `GradientMap` re-keys gradients by parameter *name* and supports scaled
/// accumulation, which is what mini-batch training needs.
#[derive(Debug, Clone, Default)]
pub struct GradientMap {
    grads: HashMap<String, Matrix>,
}

impl GradientMap {
    /// Creates an empty gradient map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a map directly from one backward pass.
    pub fn from_registry(registry: &ParamRegistry, grads: &Gradients) -> Self {
        let mut map = Self::new();
        map.accumulate(registry, grads, 1.0);
        map
    }

    /// Adds `scale` times the gradients of one backward pass into the map.
    pub fn accumulate(&mut self, registry: &ParamRegistry, grads: &Gradients, scale: f32) {
        for name in registry.names() {
            if let Some(grad) = registry.grad(name, grads) {
                let scaled = grad.scale(scale);
                match self.grads.get_mut(name) {
                    Some(existing) => {
                        *existing = existing.try_add(&scaled).expect("gradient shapes");
                    }
                    None => {
                        self.grads.insert(name.to_string(), scaled);
                    }
                }
            }
        }
    }

    /// Gradient for a parameter name, if any sample produced one.
    pub fn get(&self, name: &str) -> Option<&Matrix> {
        self.grads.get(name)
    }

    /// Number of parameters with gradients.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// `true` when no gradients have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Global L2 norm over all gradients.
    pub fn global_norm(&self) -> f32 {
        self.grads
            .values()
            .map(|g| g.iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }
}

/// Adam with decoupled weight decay (AdamW), the optimiser DeiT fine-tuning uses.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    step: u64,
    first_moment: HashMap<String, Matrix>,
    second_moment: HashMap<String, Matrix>,
}

impl Adam {
    /// Creates AdamW with the given learning rate and weight decay (betas 0.9 / 0.999).
    ///
    /// # Panics
    ///
    /// Panics when the learning rate is not positive.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            step: 0,
            first_moment: HashMap::new(),
            second_moment: HashMap::new(),
        }
    }

    /// Number of update steps applied so far.
    pub fn steps_taken(&self) -> u64 {
        self.step
    }

    /// Applies one update step from gradients accumulated by name.
    ///
    /// The moments are keyed by parameter name, so one optimiser serves every step even
    /// though the autograd graph is rebuilt each time. Parameters without a gradient
    /// (layers that did not take part in the loss) are left untouched.
    pub fn step(&mut self, model: &mut dyn NamedParameters, grads: &GradientMap) {
        self.step += 1;
        let lr = self.lr;
        let (beta1, beta2, eps, wd) = (self.beta1, self.beta2, self.eps, self.weight_decay);
        let bias1 = 1.0 - beta1.powi(self.step as i32);
        let bias2 = 1.0 - beta2.powi(self.step as i32);
        let first = &mut self.first_moment;
        let second = &mut self.second_moment;
        model.visit_parameters_mut("", &mut |name, value| {
            let Some(grad) = grads.get(name) else {
                return;
            };
            let m = first
                .entry(name.to_string())
                .or_insert_with(|| Matrix::zeros(value.rows(), value.cols()));
            let v = second
                .entry(name.to_string())
                .or_insert_with(|| Matrix::zeros(value.rows(), value.cols()));
            for (((mi, vi), g), w) in m
                .as_mut_slice()
                .iter_mut()
                .zip(v.as_mut_slice().iter_mut())
                .zip(grad.as_slice().iter())
                .zip(value.as_mut_slice().iter_mut())
            {
                *mi = beta1 * *mi + (1.0 - beta1) * g;
                *vi = beta2 * *vi + (1.0 - beta2) * g * g;
                let m_hat = *mi / bias1;
                let v_hat = *vi / bias2;
                // Decoupled weight decay (AdamW).
                *w -= lr * (m_hat / (v_hat.sqrt() + eps) + wd * *w);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vitality_autograd::Graph;
    use vitality_nn::Linear;
    use vitality_tensor::Matrix;

    /// Runs a few optimisation steps of `w` toward minimising `|x w - y|^2` and returns the
    /// final loss.
    fn optimise(optimizer: &mut Adam, steps: usize) -> f32 {
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let y = Matrix::from_rows(&[vec![2.0], vec![-1.0], vec![1.0]]).unwrap();
        let mut layer = Linear::from_weights(Matrix::zeros(2, 1), None);
        let mut final_loss = f32::INFINITY;
        for _ in 0..steps {
            let graph = Graph::new();
            let mut reg = ParamRegistry::new();
            let pred = layer.forward(&graph, &mut reg, "", &graph.constant(x.clone()));
            let err = pred.sub(&graph.constant(y.clone()));
            let loss = err.hadamard(&err).mean_all();
            final_loss = loss.value().get(0, 0);
            let grads = graph.backward(&loss);
            optimizer.step(&mut layer, &GradientMap::from_registry(&reg, &grads));
        }
        final_loss
    }

    #[test]
    fn adam_reduces_the_loss_of_a_least_squares_problem() {
        let mut adam = Adam::new(0.05, 0.0);
        let loss = optimise(&mut adam, 150);
        assert!(loss < 0.05, "final loss {loss}");
        assert_eq!(adam.steps_taken(), 150);
    }

    #[test]
    fn weight_decay_shrinks_unused_directions() {
        // A zero input gives the weight a zero gradient, so only the decoupled decay
        // moves it: each step multiplies it by `1 - lr * weight_decay`.
        let decayed_weight = |weight_decay: f32| {
            let mut layer = Linear::from_weights(Matrix::filled(1, 1, 1.0), None);
            let mut adam = Adam::new(0.1, weight_decay);
            for _ in 0..10 {
                let graph = Graph::new();
                let mut reg = ParamRegistry::new();
                let pred =
                    layer.forward(&graph, &mut reg, "", &graph.constant(Matrix::zeros(1, 1)));
                let loss = pred.hadamard(&pred).mean_all();
                let grads = graph.backward(&loss);
                adam.step(&mut layer, &GradientMap::from_registry(&reg, &grads));
            }
            layer.weight().get(0, 0)
        };
        assert_eq!(decayed_weight(0.0), 1.0);
        let expected = (1.0f32 - 0.1 * 0.5).powi(10);
        assert!((decayed_weight(0.5) - expected).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn adam_rejects_zero_learning_rate() {
        let _ = Adam::new(0.0, 0.0);
    }
}
