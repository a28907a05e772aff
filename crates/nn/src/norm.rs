//! Layer normalisation.

use crate::registry::{qualify, NamedParameters, ParamRegistry};
use vitality_autograd::{Graph, Var};
use vitality_tensor::{simd, Matrix};

/// Layer normalisation over the feature dimension with a learned affine transform.
///
/// Every Transformer block in the evaluated ViTs applies `LayerNorm` before the attention
/// and the MLP sub-modules (pre-norm), and the classification head applies a final one.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Matrix,
    beta: Matrix,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer norm over `features` with unit scale and zero shift.
    pub fn new(features: usize) -> Self {
        Self {
            gamma: Matrix::ones(1, features),
            beta: Matrix::zeros(1, features),
            eps: 1e-5,
        }
    }

    /// Creates a layer norm with an explicit epsilon.
    pub fn with_eps(features: usize, eps: f32) -> Self {
        Self {
            eps,
            ..Self::new(features)
        }
    }

    /// Normalised feature count.
    pub fn features(&self) -> usize {
        self.gamma.cols()
    }

    /// Numerical-stability epsilon.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// Runs layer normalisation on the autograd graph.
    pub fn forward(&self, graph: &Graph, reg: &mut ParamRegistry, prefix: &str, x: &Var) -> Var {
        let gamma = reg.register(graph, qualify(prefix, "gamma"), &self.gamma);
        let beta = reg.register(graph, qualify(prefix, "beta"), &self.beta);
        x.layer_norm(&gamma, &beta, self.eps)
    }

    /// Inference layer normalisation into an equally-shaped `out` matrix, off the tape
    /// and without allocating: the layer's one inference entry.
    ///
    /// # Panics
    ///
    /// Panics when `out.shape() != x.shape()` or `x.cols() != self.features()`.
    pub fn infer_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(out.shape(), x.shape(), "layer norm output shape mismatch");
        assert_eq!(x.cols(), self.features(), "layer norm width mismatch");
        simd::layer_norm_rows(
            x.as_slice(),
            self.gamma.as_slice(),
            self.beta.as_slice(),
            self.eps,
            out.as_mut_slice(),
        );
    }
}

impl NamedParameters for LayerNorm {
    fn visit_parameters(&self, prefix: &str, visitor: &mut dyn FnMut(&str, &Matrix)) {
        visitor(&qualify(prefix, "gamma"), &self.gamma);
        visitor(&qualify(prefix, "beta"), &self.beta);
    }

    fn visit_parameters_mut(&mut self, prefix: &str, visitor: &mut dyn FnMut(&str, &mut Matrix)) {
        visitor(&qualify(prefix, "gamma"), &mut self.gamma);
        visitor(&qualify(prefix, "beta"), &mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vitality_tensor::init;

    fn normalise(ln: &LayerNorm, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), x.cols());
        ln.infer_into(x, &mut out);
        out
    }

    #[test]
    fn infer_normalises_each_row() {
        let ln = LayerNorm::new(8);
        let mut rng = StdRng::seed_from_u64(5);
        let x = init::normal(&mut rng, 4, 8, 3.0, 2.0);
        let y = normalise(&ln, &x);
        for i in 0..y.rows() {
            let s = vitality_tensor::stats::Summary::of(y.row(i));
            assert!(s.mean.abs() < 1e-4);
            assert!((s.std_dev - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn forward_matches_infer_and_produces_grads() {
        let ln = LayerNorm::with_eps(6, 1e-6);
        assert_eq!(ln.features(), 6);
        assert!(ln.eps() < 1e-5);
        let mut rng = StdRng::seed_from_u64(6);
        let x = init::normal(&mut rng, 3, 6, 0.0, 1.0);
        let graph = Graph::new();
        let mut reg = ParamRegistry::new();
        let y = ln.forward(&graph, &mut reg, "ln", &graph.constant(x.clone()));
        assert!(y.value().approx_eq(&normalise(&ln, &x), 1e-4));
        let grads = graph.backward(&y.sum());
        assert!(reg.grad("ln.gamma", &grads).is_some());
        assert!(reg.grad("ln.beta", &grads).is_some());
    }

    #[test]
    fn named_parameters() {
        let mut ln = LayerNorm::new(4);
        assert_eq!(ln.parameter_count(), 8);
        let mut names = Vec::new();
        ln.visit_parameters("norm", &mut |n, _| names.push(n.to_string()));
        assert_eq!(names, vec!["norm.gamma", "norm.beta"]);
        ln.visit_parameters_mut("norm", &mut |n, m| {
            if n.ends_with("beta") {
                m.map_inplace(|_| 1.0);
            }
        });
        let x = Matrix::zeros(2, 4);
        assert!(normalise(&ln, &x).approx_eq(&Matrix::ones(2, 4), 1e-5));
    }
}
