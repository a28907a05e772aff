//! Patch extraction and patch embedding.

use rand::Rng;

use crate::linear::Linear;
use crate::registry::{qualify, NamedParameters, ParamRegistry};
use vitality_autograd::{Graph, Var};
use vitality_tensor::{init, Matrix, Workspace};

/// Splits a single-channel `H x W` image into non-overlapping `patch x patch` patches and
/// flattens each patch into one row of the returned `n x patch²` matrix (row-major patch
/// order, matching the "Split & Embed" step of Fig. 2 in the paper).
///
/// # Panics
///
/// Panics when the image dimensions are not divisible by `patch` or `patch == 0`.
pub fn patchify(image: &Matrix, patch: usize) -> Matrix {
    assert!(patch > 0, "patch size must be positive");
    assert!(
        image.rows().is_multiple_of(patch) && image.cols().is_multiple_of(patch),
        "image {:?} is not divisible into {patch}x{patch} patches",
        image.shape()
    );
    let rows = image.rows() / patch;
    let cols = image.cols() / patch;
    let mut out = Matrix::zeros(rows * cols, patch * patch);
    patchify_into(image, patch, &mut out);
    out
}

/// Allocation-free form of [`patchify`]: writes the flattened patches into a
/// caller-provided `n x patch²` matrix.
///
/// # Panics
///
/// Panics when the image is not divisible into patches or `out` has the wrong shape.
pub fn patchify_into(image: &Matrix, patch: usize, out: &mut Matrix) {
    assert!(patch > 0, "patch size must be positive");
    assert!(
        image.rows().is_multiple_of(patch) && image.cols().is_multiple_of(patch),
        "image {:?} is not divisible into {patch}x{patch} patches",
        image.shape()
    );
    let rows = image.rows() / patch;
    let cols = image.cols() / patch;
    assert_eq!(
        out.shape(),
        (rows * cols, patch * patch),
        "patchify_into output shape mismatch"
    );
    for pr in 0..rows {
        for pc in 0..cols {
            let token = pr * cols + pc;
            for i in 0..patch {
                for j in 0..patch {
                    out.set(
                        token,
                        i * patch + j,
                        image.get(pr * patch + i, pc * patch + j),
                    );
                }
            }
        }
    }
}

/// Linear patch embedding with a learned positional embedding.
///
/// The projection maps flattened patches (`patch²` values) to the model dimension `d`, and
/// a learned `n x d` positional embedding is added, mirroring the ViT/DeiT front end.
#[derive(Debug, Clone)]
pub struct PatchEmbed {
    projection: Linear,
    positional: Matrix,
    patch: usize,
}

impl PatchEmbed {
    /// Creates a patch embedding for `num_patches` patches of `patch x patch` pixels into
    /// an embedding dimension of `dim`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, patch: usize, num_patches: usize, dim: usize) -> Self {
        Self {
            projection: Linear::new(rng, patch * patch, dim, true),
            positional: init::truncated_normal(rng, num_patches, dim, 0.0, 0.02),
            patch: patch.max(1),
        }
    }

    /// Patch side length.
    pub fn patch(&self) -> usize {
        self.patch
    }

    /// Number of tokens the positional embedding covers.
    pub fn num_patches(&self) -> usize {
        self.positional.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.projection.out_features()
    }

    /// Embeds an image on the autograd graph: patchify, project, add positional embedding.
    ///
    /// # Panics
    ///
    /// Panics when the image yields a different number of patches than configured.
    pub fn forward(
        &self,
        graph: &Graph,
        reg: &mut ParamRegistry,
        prefix: &str,
        image: &Matrix,
    ) -> Var {
        let patches = patchify(image, self.patch);
        assert_eq!(
            patches.rows(),
            self.num_patches(),
            "image produces {} patches but the positional embedding covers {}",
            patches.rows(),
            self.num_patches()
        );
        let x = graph.constant(patches);
        let projected = self
            .projection
            .forward(graph, reg, &qualify(prefix, "proj"), &x);
        let pos = reg.register(graph, qualify(prefix, "pos"), &self.positional);
        projected.add(&pos)
    }

    /// Inference embedding into `num_patches x dim` output storage, off the tape: the
    /// layer's one inference entry. The patch buffer is checked out of (and recycled
    /// back into) `ws`, so a warm workspace makes it allocation-free.
    ///
    /// # Panics
    ///
    /// Panics when the image or output shapes are inconsistent with the configuration.
    pub fn infer_into(&self, image: &Matrix, ws: &mut Workspace, out: &mut Matrix) {
        let mut patches = ws.take(self.num_patches(), self.patch * self.patch);
        patchify_into(image, self.patch, &mut patches);
        self.projection.infer_into(&patches, out);
        out.add_assign(&self.positional);
        ws.recycle(patches);
    }
}

impl NamedParameters for PatchEmbed {
    fn visit_parameters(&self, prefix: &str, visitor: &mut dyn FnMut(&str, &Matrix)) {
        self.projection
            .visit_parameters(&qualify(prefix, "proj"), visitor);
        visitor(&qualify(prefix, "pos"), &self.positional);
    }

    fn visit_parameters_mut(&mut self, prefix: &str, visitor: &mut dyn FnMut(&str, &mut Matrix)) {
        self.projection
            .visit_parameters_mut(&qualify(prefix, "proj"), visitor);
        visitor(&qualify(prefix, "pos"), &mut self.positional);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn patchify_preserves_all_pixels_in_order() {
        let image = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f32);
        let patches = patchify(&image, 2);
        assert_eq!(patches.shape(), (4, 4));
        // First patch is the top-left 2x2 block in row-major order.
        assert_eq!(patches.row(0), &[0.0, 1.0, 4.0, 5.0]);
        // Last patch is the bottom-right block.
        assert_eq!(patches.row(3), &[10.0, 11.0, 14.0, 15.0]);
        assert_eq!(patches.sum(), image.sum());
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn patchify_rejects_indivisible_images() {
        let _ = patchify(&Matrix::zeros(5, 4), 2);
    }

    #[test]
    fn forward_matches_infer_and_registers_positional_embedding() {
        let mut rng = StdRng::seed_from_u64(10);
        let embed = PatchEmbed::new(&mut rng, 4, 16, 8);
        assert_eq!(embed.patch(), 4);
        assert_eq!(embed.num_patches(), 16);
        assert_eq!(embed.dim(), 8);
        let image = init::uniform(&mut rng, 16, 16, 0.0, 1.0);
        let graph = Graph::new();
        let mut reg = ParamRegistry::new();
        let y = embed.forward(&graph, &mut reg, "embed", &image);
        assert_eq!(y.shape(), (16, 8));
        let mut inferred = Matrix::zeros(16, 8);
        embed.infer_into(&image, &mut Workspace::new(), &mut inferred);
        assert!(y.value().approx_eq(&inferred, 1e-5));
        let grads = graph.backward(&y.sum());
        assert!(reg.grad("embed.pos", &grads).is_some());
        assert!(reg.grad("embed.proj.weight", &grads).is_some());
    }

    #[test]
    fn parameter_count_includes_positional() {
        let mut rng = StdRng::seed_from_u64(11);
        let embed = PatchEmbed::new(&mut rng, 2, 9, 4);
        // proj weight 4x4 + bias 4 + positional 9x4.
        assert_eq!(embed.parameter_count(), 16 + 4 + 36);
    }
}
