//! Fully-connected (dense) projection layer.

use rand::Rng;

use crate::registry::{qualify, NamedParameters, ParamRegistry};
use vitality_autograd::{Graph, Var};
use vitality_tensor::{init, simd, Matrix};

/// A dense layer computing `y = x W + b` for row-major token matrices.
///
/// `W` is stored as `in_features x out_features`, matching the paper's notation where the
/// query/key/value projections are `Q = X W_Q` with `W_Q ∈ R^{d x d}`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Matrix,
    bias: Option<Matrix>,
}

impl Linear {
    /// Creates a linear layer with Xavier-uniform weights and (optionally) a zero bias.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_features: usize,
        out_features: usize,
        bias: bool,
    ) -> Self {
        Self {
            weight: init::xavier_uniform(rng, in_features, out_features),
            bias: bias.then(|| Matrix::zeros(1, out_features)),
        }
    }

    /// Creates a layer from explicit weights (and optional bias), mainly for tests.
    ///
    /// # Panics
    ///
    /// Panics when the bias width does not match the weight's output width.
    pub fn from_weights(weight: Matrix, bias: Option<Matrix>) -> Self {
        if let Some(b) = &bias {
            assert_eq!(
                b.shape(),
                (1, weight.cols()),
                "bias must be 1 x out_features"
            );
        }
        Self { weight, bias }
    }

    /// Input feature dimension.
    pub fn in_features(&self) -> usize {
        self.weight.rows()
    }

    /// Output feature dimension.
    pub fn out_features(&self) -> usize {
        self.weight.cols()
    }

    /// Borrow of the weight matrix.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Borrow of the bias row vector, if the layer has one.
    pub fn bias(&self) -> Option<&Matrix> {
        self.bias.as_ref()
    }

    /// Runs the projection on the autograd graph, registering the parameters under
    /// `prefix.weight` / `prefix.bias`.
    pub fn forward(&self, graph: &Graph, reg: &mut ParamRegistry, prefix: &str, x: &Var) -> Var {
        let w = reg.register(graph, qualify(prefix, "weight"), &self.weight);
        let y = x.matmul(&w);
        match &self.bias {
            Some(b) => {
                let b = reg.register(graph, qualify(prefix, "bias"), b);
                y.add_bias(&b)
            }
            None => y,
        }
    }

    /// Inference projection into a caller-provided `x.rows() x out_features` matrix,
    /// off the tape and without allocating: the layer's one inference entry.
    ///
    /// # Panics
    ///
    /// Panics when the shapes are inconsistent.
    pub fn infer_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.weight, out);
        if let Some(b) = &self.bias {
            out.add_row_inplace(b);
        }
    }

    /// [`Linear::infer_into`] followed by GELU, with the bias folded into the
    /// activation sweep (the MLP's `fc1` epilogue).
    pub(crate) fn infer_gelu_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.weight, out);
        match &self.bias {
            Some(b) => simd::bias_gelu_rows(out.as_mut_slice(), b.as_slice()),
            None => simd::gelu_inplace(out.as_mut_slice()),
        }
    }

    /// Multiply–accumulate count of one forward pass over `tokens` rows.
    pub fn macs(&self, tokens: usize) -> usize {
        tokens * self.in_features() * self.out_features()
    }
}

impl NamedParameters for Linear {
    fn visit_parameters(&self, prefix: &str, visitor: &mut dyn FnMut(&str, &Matrix)) {
        visitor(&qualify(prefix, "weight"), &self.weight);
        if let Some(b) = &self.bias {
            visitor(&qualify(prefix, "bias"), b);
        }
    }

    fn visit_parameters_mut(&mut self, prefix: &str, visitor: &mut dyn FnMut(&str, &mut Matrix)) {
        visitor(&qualify(prefix, "weight"), &mut self.weight);
        if let Some(b) = &mut self.bias {
            visitor(&qualify(prefix, "bias"), b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn infer_matches_forward_values() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new(&mut rng, 6, 3, true);
        let x = init::normal(&mut rng, 4, 6, 0.0, 1.0);
        let graph = Graph::new();
        let mut reg = ParamRegistry::new();
        let y = layer.forward(&graph, &mut reg, "lin", &graph.constant(x.clone()));
        let mut inferred = Matrix::zeros(4, 3);
        layer.infer_into(&x, &mut inferred);
        assert!(y.value().approx_eq(&inferred, 1e-5));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn gradients_reach_weight_and_bias() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = Linear::new(&mut rng, 3, 2, true);
        let graph = Graph::new();
        let mut reg = ParamRegistry::new();
        let x = graph.constant(Matrix::ones(5, 3));
        let loss = layer.forward(&graph, &mut reg, "lin", &x).sum();
        let grads = graph.backward(&loss);
        assert!(reg.grad("lin.weight", &grads).is_some());
        let gb = reg.grad("lin.bias", &grads).unwrap();
        assert!(gb.approx_eq(&Matrix::filled(1, 2, 5.0), 1e-5));
    }

    #[test]
    fn from_weights_validates_bias_shape() {
        let w = Matrix::identity(3);
        let layer = Linear::from_weights(w.clone(), Some(Matrix::zeros(1, 3)));
        assert_eq!(layer.in_features(), 3);
        assert_eq!(layer.out_features(), 3);
        assert!(layer.bias().is_some());
        assert_eq!(layer.weight().shape(), (3, 3));
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap();
        let mut y = Matrix::zeros(1, 3);
        layer.infer_into(&x, &mut y);
        assert!(y.approx_eq(&x, 1e-6));
    }

    #[test]
    #[should_panic(expected = "bias must be")]
    fn from_weights_rejects_bad_bias() {
        let _ = Linear::from_weights(Matrix::identity(3), Some(Matrix::zeros(1, 2)));
    }

    #[test]
    fn named_parameters_and_macs() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Linear::new(&mut rng, 4, 8, true);
        assert_eq!(layer.parameter_count(), 4 * 8 + 8);
        assert_eq!(layer.macs(10), 10 * 4 * 8);
        let mut names = Vec::new();
        layer.visit_parameters("blk", &mut |n, _| names.push(n.to_string()));
        assert_eq!(names, vec!["blk.weight", "blk.bias"]);
        layer.visit_parameters_mut("blk", &mut |_, m| m.map_inplace(|_| 0.0));
        assert_eq!(layer.weight().sum(), 0.0);
    }

    #[test]
    fn layer_without_bias_has_fewer_parameters() {
        let mut rng = StdRng::seed_from_u64(4);
        let with = Linear::new(&mut rng, 4, 4, true);
        let without = Linear::new(&mut rng, 4, 4, false);
        assert_eq!(with.parameter_count() - without.parameter_count(), 4);
        assert!(without.bias().is_none());
    }
}
