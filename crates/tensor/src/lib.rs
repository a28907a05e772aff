//! Dense `f32` matrix and small-tensor kernels used throughout the ViTALiTy reproduction.
//!
//! The ViTALiTy paper (HPCA 2023) operates on per-head attention matrices of modest size
//! (a few hundred tokens by at most a few hundred feature dimensions), so this crate
//! provides a deliberately small, dependency-free dense linear-algebra substrate instead
//! of binding to an external BLAS:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix with the multiplication, transposition,
//!   reduction and broadcasting primitives needed by the attention algorithms.
//! * [`backend`] — the pluggable dense-GEMM backends behind every `Matrix` product: a
//!   scalar [`MatmulBackend::Naive`] reference and the default cache-blocked,
//!   register-tiled, rayon-parallel [`MatmulBackend::Blocked`] kernel. See the module
//!   docs for the blocking parameters and how to select a backend (the
//!   `VITALITY_MATMUL_BACKEND` environment variable, [`set_matmul_backend`], or the
//!   explicit `*_with` methods).
//! * [`Workspace`] — a checkout/recycle scratch-buffer arena behind the allocation-free
//!   `*_into` forms of the `Matrix` products, giving serving hot paths a zero-allocation
//!   steady state (one workspace per thread: [`with_thread_workspace`], or the child
//!   lanes of [`Workspace::lanes_mut`]).
//! * [`Tensor3`] — a batched stack of equally-shaped matrices (batch or head dimension).
//! * [`stats`] — histogram and interval-occupancy helpers used for the attention
//!   distribution study (Fig. 3 of the paper).
//! * [`init`] — deterministic random initialisers built on the `rand` crate.
//!
//! # Example
//!
//! ```
//! use vitality_tensor::Matrix;
//!
//! let q = Matrix::from_fn(4, 8, |i, j| (i * 8 + j) as f32 * 0.01);
//! let k = Matrix::from_fn(4, 8, |i, j| ((i + j) % 3) as f32 * 0.1);
//! // Scaled dot-product similarity, the input to the softmax in a vanilla attention.
//! let sim = q.matmul_transpose_b(&k).scale(1.0 / (8f32).sqrt());
//! assert_eq!(sim.shape(), (4, 4));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod aligned;
pub mod backend;
pub mod error;
pub mod init;
pub mod matrix;
pub mod simd;
pub mod stats;
pub mod tensor3;
pub mod workspace;

pub use aligned::{AlignedVec, SIMD_ALIGN};
pub use backend::{matmul_backend, set_matmul_backend, MatmulBackend};
pub use error::{ShapeError, TensorResult};
pub use matrix::Matrix;
pub use simd::{cpu_features, CpuFeatures};
pub use tensor3::Tensor3;
pub use workspace::{with_thread_workspace, Workspace};

/// Numerical tolerance used by the approximate-equality helpers in this workspace.
pub const DEFAULT_TOLERANCE: f32 = 1e-4;

/// Returns `true` when two floats agree to within `tol` absolutely or relatively.
///
/// Relative comparison kicks in for values whose magnitude exceeds one, which keeps the
/// check meaningful both for attention probabilities (order `1e-2`) and for accumulated
/// logits (order `1e2`).
///
/// ```
/// assert!(vitality_tensor::approx_eq(1.0, 1.0 + 1e-6, 1e-4));
/// assert!(!vitality_tensor::approx_eq(1.0, 1.1, 1e-4));
/// ```
pub fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(0.0, 0.0, 1e-6));
        assert!(approx_eq(1000.0, 1000.05, 1e-4));
        assert!(!approx_eq(1.0, 2.0, 1e-4));
        assert!(!approx_eq(-1.0, 1.0, 1e-3));
    }
}
