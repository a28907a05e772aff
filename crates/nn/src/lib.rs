//! Neural-network layers for the ViTALiTy reproduction.
//!
//! The layers in this crate are the building blocks shared by every Vision Transformer
//! variant evaluated in the paper (DeiT, MobileViT's transformer blocks, LeViT's stages):
//! linear projections, layer normalisation, the MLP block, patch embedding and the
//! classification head. They are written against [`vitality_autograd`] so that the same
//! definitions serve both inference and the fine-tuning experiments.
//!
//! # Parameter handling
//!
//! The autograd [`Graph`](vitality_autograd::Graph) is rebuilt for every training step, so
//! layers own their weights as plain [`Matrix`](vitality_tensor::Matrix) values and
//! re-register them on the active graph at the start of each forward pass through a
//! [`ParamRegistry`]. After `backward`, optimisers look gradients up by parameter name and
//! update the owned matrices in place.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use vitality_autograd::Graph;
//! use vitality_nn::{Linear, ParamRegistry};
//! use vitality_tensor::Matrix;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let layer = Linear::new(&mut rng, 8, 4, true);
//! let graph = Graph::new();
//! let mut reg = ParamRegistry::new();
//! let x = graph.constant(Matrix::ones(3, 8));
//! let y = layer.forward(&graph, &mut reg, "proj", &x);
//! assert_eq!(y.shape(), (3, 4));
//! ```

#![deny(missing_docs)]

pub mod embed;
pub mod head;
pub mod linear;
pub mod mlp;
pub mod norm;
pub mod registry;

pub use embed::{patchify, PatchEmbed};
pub use head::ClassificationHead;
pub use linear::Linear;
pub use mlp::{Activation, Mlp};
pub use norm::LayerNorm;
pub use registry::{NamedParameters, ParamRegistry};
