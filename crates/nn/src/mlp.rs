//! The Transformer MLP (feed-forward) block.

use rand::Rng;

use crate::linear::Linear;
use crate::registry::{qualify, NamedParameters, ParamRegistry};
use vitality_autograd::{Graph, Var};
use vitality_tensor::{Matrix, Workspace};

/// Activation used between the two MLP projections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Gaussian error linear unit (standard in ViTs).
    #[default]
    Gelu,
    /// Rectified linear unit (used by LeViT's hardswish-free variant in this reproduction).
    Relu,
}

/// Two-layer feed-forward block: `Linear -> activation -> Linear`.
///
/// ViT MLP modules expand the embedding dimension by a configurable ratio (4x for DeiT,
/// 2x for LeViT/MobileViT blocks) and project back down.
#[derive(Debug, Clone)]
pub struct Mlp {
    fc1: Linear,
    fc2: Linear,
    activation: Activation,
}

impl Mlp {
    /// Creates an MLP mapping `features -> hidden -> features`.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        features: usize,
        hidden: usize,
        activation: Activation,
    ) -> Self {
        Self {
            fc1: Linear::new(rng, features, hidden, true),
            fc2: Linear::new(rng, hidden, features, true),
            activation,
        }
    }

    /// Embedding dimension seen at the input and output.
    pub fn features(&self) -> usize {
        self.fc1.in_features()
    }

    /// Hidden (expanded) dimension.
    pub fn hidden(&self) -> usize {
        self.fc1.out_features()
    }

    /// Configured activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Runs the MLP on the autograd graph.
    pub fn forward(&self, graph: &Graph, reg: &mut ParamRegistry, prefix: &str, x: &Var) -> Var {
        let h = self.fc1.forward(graph, reg, &qualify(prefix, "fc1"), x);
        let h = match self.activation {
            Activation::Gelu => h.gelu(),
            Activation::Relu => h.relu(),
        };
        self.fc2.forward(graph, reg, &qualify(prefix, "fc2"), &h)
    }

    /// Inference forward pass into `x.rows() x features` output storage, off the tape:
    /// the block's one inference entry. The hidden activation buffer is checked out of
    /// (and recycled back into) `ws`, so a warm workspace makes it allocation-free. The
    /// GELU path folds `fc1`'s bias into the activation sweep (one pass over the
    /// hidden buffer instead of two).
    ///
    /// # Panics
    ///
    /// Panics when the shapes are inconsistent.
    pub fn infer_into(&self, x: &Matrix, ws: &mut Workspace, out: &mut Matrix) {
        let mut h = ws.take(x.rows(), self.hidden());
        match self.activation {
            Activation::Gelu => self.fc1.infer_gelu_into(x, &mut h),
            Activation::Relu => {
                self.fc1.infer_into(x, &mut h);
                h.map_inplace(|v| v.max(0.0));
            }
        }
        self.fc2.infer_into(&h, out);
        ws.recycle(h);
    }

    /// Multiply–accumulate count of one forward pass over `tokens` rows.
    pub fn macs(&self, tokens: usize) -> usize {
        self.fc1.macs(tokens) + self.fc2.macs(tokens)
    }
}

impl NamedParameters for Mlp {
    fn visit_parameters(&self, prefix: &str, visitor: &mut dyn FnMut(&str, &Matrix)) {
        self.fc1.visit_parameters(&qualify(prefix, "fc1"), visitor);
        self.fc2.visit_parameters(&qualify(prefix, "fc2"), visitor);
    }

    fn visit_parameters_mut(&mut self, prefix: &str, visitor: &mut dyn FnMut(&str, &mut Matrix)) {
        self.fc1
            .visit_parameters_mut(&qualify(prefix, "fc1"), visitor);
        self.fc2
            .visit_parameters_mut(&qualify(prefix, "fc2"), visitor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vitality_tensor::init;

    fn infer(mlp: &Mlp, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), mlp.features());
        mlp.infer_into(x, &mut Workspace::new(), &mut out);
        out
    }

    #[test]
    fn forward_matches_infer() {
        let mut rng = StdRng::seed_from_u64(7);
        let mlp = Mlp::new(&mut rng, 8, 16, Activation::Gelu);
        assert_eq!(mlp.features(), 8);
        assert_eq!(mlp.hidden(), 16);
        assert_eq!(mlp.activation(), Activation::Gelu);
        let x = init::normal(&mut rng, 5, 8, 0.0, 1.0);
        let graph = Graph::new();
        let mut reg = ParamRegistry::new();
        let y = mlp.forward(&graph, &mut reg, "mlp", &graph.constant(x.clone()));
        assert!(y.value().approx_eq(&infer(&mlp, &x), 1e-6));
        assert_eq!(reg.len(), 4);
    }

    #[test]
    fn relu_variant_zeroes_negative_hidden_activations() {
        let fc1 = Linear::from_weights(Matrix::identity(2), None);
        let fc2 = Linear::from_weights(Matrix::identity(2), None);
        let mlp = Mlp {
            fc1,
            fc2,
            activation: Activation::Relu,
        };
        let x = Matrix::from_rows(&[vec![-1.0, 2.0]]).unwrap();
        assert!(infer(&mlp, &x).approx_eq(&Matrix::from_rows(&[vec![0.0, 2.0]]).unwrap(), 1e-6));
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let mut rng = StdRng::seed_from_u64(8);
        let mlp = Mlp::new(&mut rng, 4, 8, Activation::Gelu);
        let graph = Graph::new();
        let mut reg = ParamRegistry::new();
        let x = graph.constant(init::normal(&mut rng, 3, 4, 0.0, 1.0));
        let loss = mlp.forward(&graph, &mut reg, "mlp", &x).mean_all();
        let grads = graph.backward(&loss);
        for name in [
            "mlp.fc1.weight",
            "mlp.fc1.bias",
            "mlp.fc2.weight",
            "mlp.fc2.bias",
        ] {
            assert!(reg.grad(name, &grads).is_some(), "missing grad for {name}");
        }
    }

    #[test]
    fn parameter_count_and_macs() {
        let mut rng = StdRng::seed_from_u64(9);
        let mlp = Mlp::new(&mut rng, 4, 8, Activation::Gelu);
        assert_eq!(mlp.parameter_count(), 4 * 8 + 8 + 8 * 4 + 4);
        assert_eq!(mlp.macs(10), 10 * 4 * 8 * 2);
    }
}
