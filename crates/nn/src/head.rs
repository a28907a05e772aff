//! Classification head: final norm, mean token pooling and the logit projection.

use rand::Rng;

use crate::linear::Linear;
use crate::norm::LayerNorm;
use crate::registry::{qualify, NamedParameters, ParamRegistry};
use vitality_autograd::{Graph, Var};
use vitality_tensor::{Matrix, Workspace};

/// Final classification head.
///
/// The reproduction uses mean pooling over tokens instead of a dedicated class token:
/// the accuracy experiments only depend on relative orderings between attention variants,
/// and mean pooling keeps the token count identical across every attention type, which in
/// turn keeps the operation-count comparisons (Table I) clean.
#[derive(Debug, Clone)]
pub struct ClassificationHead {
    norm: LayerNorm,
    classifier: Linear,
}

impl ClassificationHead {
    /// Creates a head mapping `dim`-dimensional pooled tokens to `classes` logits.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, dim: usize, classes: usize) -> Self {
        Self {
            norm: LayerNorm::new(dim),
            classifier: Linear::new(rng, dim, classes, true),
        }
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classifier.out_features()
    }

    /// Embedding dimension expected at the input.
    pub fn dim(&self) -> usize {
        self.classifier.in_features()
    }

    /// Produces `1 x classes` logits from an `n x d` token matrix on the autograd graph.
    pub fn forward(
        &self,
        graph: &Graph,
        reg: &mut ParamRegistry,
        prefix: &str,
        tokens: &Var,
    ) -> Var {
        let normed = self
            .norm
            .forward(graph, reg, &qualify(prefix, "norm"), tokens);
        let pooled = normed.mean_over_rows();
        self.classifier
            .forward(graph, reg, &qualify(prefix, "fc"), &pooled)
    }

    /// Inference logits into `1 x classes` output storage, off the tape: the head's one
    /// inference entry. The normalised-token and pooled buffers are checked out of (and
    /// recycled back into) `ws`, so a warm workspace makes it allocation-free.
    ///
    /// # Panics
    ///
    /// Panics when the shapes are inconsistent.
    pub fn infer_into(&self, tokens: &Matrix, ws: &mut Workspace, out: &mut Matrix) {
        let mut normed = ws.take(tokens.rows(), tokens.cols());
        self.norm.infer_into(tokens, &mut normed);
        let mut pooled = ws.take(1, tokens.cols());
        normed.col_mean_into(&mut pooled);
        self.classifier.infer_into(&pooled, out);
        ws.recycle(normed);
        ws.recycle(pooled);
    }
}

impl NamedParameters for ClassificationHead {
    fn visit_parameters(&self, prefix: &str, visitor: &mut dyn FnMut(&str, &Matrix)) {
        self.norm
            .visit_parameters(&qualify(prefix, "norm"), visitor);
        self.classifier
            .visit_parameters(&qualify(prefix, "fc"), visitor);
    }

    fn visit_parameters_mut(&mut self, prefix: &str, visitor: &mut dyn FnMut(&str, &mut Matrix)) {
        self.norm
            .visit_parameters_mut(&qualify(prefix, "norm"), visitor);
        self.classifier
            .visit_parameters_mut(&qualify(prefix, "fc"), visitor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vitality_tensor::init;

    fn infer(head: &ClassificationHead, tokens: &Matrix) -> Matrix {
        let mut logits = Matrix::zeros(1, head.classes());
        head.infer_into(tokens, &mut Workspace::new(), &mut logits);
        logits
    }

    #[test]
    fn produces_one_logit_row() {
        let mut rng = StdRng::seed_from_u64(12);
        let head = ClassificationHead::new(&mut rng, 8, 5);
        assert_eq!(head.classes(), 5);
        assert_eq!(head.dim(), 8);
        let tokens = init::normal(&mut rng, 10, 8, 0.0, 1.0);
        let logits = infer(&head, &tokens);
        assert_eq!(logits.shape(), (1, 5));
    }

    #[test]
    fn forward_matches_infer_and_backpropagates() {
        let mut rng = StdRng::seed_from_u64(13);
        let head = ClassificationHead::new(&mut rng, 6, 3);
        let tokens = init::normal(&mut rng, 7, 6, 0.0, 1.0);
        let graph = Graph::new();
        let mut reg = ParamRegistry::new();
        let logits = head.forward(&graph, &mut reg, "head", &graph.constant(tokens.clone()));
        assert!(logits.value().approx_eq(&infer(&head, &tokens), 1e-4));
        let loss = logits.cross_entropy_with_logits(&[1]);
        let grads = graph.backward(&loss);
        for name in [
            "head.norm.gamma",
            "head.norm.beta",
            "head.fc.weight",
            "head.fc.bias",
        ] {
            assert!(reg.grad(name, &grads).is_some(), "missing grad for {name}");
        }
    }

    #[test]
    fn parameter_count() {
        let mut rng = StdRng::seed_from_u64(14);
        let head = ClassificationHead::new(&mut rng, 4, 2);
        // norm: 4 + 4, fc: 4*2 + 2
        assert_eq!(head.parameter_count(), 8 + 10);
    }
}
