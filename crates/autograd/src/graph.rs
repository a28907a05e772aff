//! The differentiation tape: [`Graph`], [`Var`] and reverse-mode backpropagation.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use vitality_tensor::{simd, Matrix};

/// Stable identifier of a tape node, used to look gradients up after a backward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(usize);

impl VarId {
    /// Raw index of the node on the tape.
    pub fn index(&self) -> usize {
        self.0
    }
}

type BackwardFn = Box<dyn Fn(&Matrix) -> Vec<Matrix>>;

struct Node {
    value: Matrix,
    /// `true` for trainable parameters: their gradients are collected into [`Gradients`].
    is_parameter: bool,
    /// `true` when a gradient must flow through this node (parameter or ancestor of one).
    needs_grad: bool,
    parents: Vec<usize>,
    backward: Option<BackwardFn>,
}

/// A dynamically-built computation tape.
///
/// Cloning a `Graph` is cheap (it is a reference-counted handle); all clones share the
/// same tape. The tape only grows — call [`Graph::clear`] between training steps to drop
/// the recorded operations while keeping the handle alive.
#[derive(Clone, Default)]
pub struct Graph {
    nodes: Rc<RefCell<Vec<Node>>>,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph({} nodes)", self.nodes.borrow().len())
    }
}

/// A handle to one value on the tape.
///
/// All operator methods allocate a new node holding the eagerly-computed result together
/// with the closure that maps the output gradient back onto the operand gradients.
#[derive(Clone)]
pub struct Var {
    graph: Graph,
    idx: usize,
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shape = self.shape();
        write!(f, "Var(#{}, {}x{})", self.idx, shape.0, shape.1)
    }
}

/// Gradients of a scalar output with respect to every parameter node, keyed by [`VarId`].
#[derive(Debug, Clone, Default)]
pub struct Gradients {
    map: HashMap<VarId, Matrix>,
}

impl Gradients {
    /// Gradient of the requested variable, if it is a parameter reached by the backward pass.
    pub fn get(&self, var: &Var) -> Option<&Matrix> {
        self.map.get(&var.id())
    }

    /// Gradient looked up directly by id.
    pub fn get_by_id(&self, id: VarId) -> Option<&Matrix> {
        self.map.get(&id)
    }

    /// Number of parameters that received a gradient.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no parameter received a gradient.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterator over `(id, gradient)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&VarId, &Matrix)> {
        self.map.iter()
    }

    /// Global L2 norm across every stored gradient, used for gradient clipping.
    pub fn global_norm(&self) -> f32 {
        self.map
            .values()
            .map(|g| g.iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes currently recorded.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// `true` when the tape holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// Drops every recorded node. Outstanding [`Var`] handles become invalid and must not
    /// be used afterwards; training loops call this once per step after the optimizer
    /// update.
    pub fn clear(&self) {
        self.nodes.borrow_mut().clear();
    }

    /// Records a constant (non-trainable) value such as an input image or a fixed mask.
    pub fn constant(&self, value: Matrix) -> Var {
        self.push(Node {
            value,
            is_parameter: false,
            needs_grad: false,
            parents: Vec::new(),
            backward: None,
        })
    }

    /// Records a trainable parameter whose gradient will be reported by [`Graph::backward`].
    pub fn parameter(&self, value: Matrix) -> Var {
        self.push(Node {
            value,
            is_parameter: true,
            needs_grad: true,
            parents: Vec::new(),
            backward: None,
        })
    }

    fn push(&self, node: Node) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(node);
        Var {
            graph: self.clone(),
            idx: nodes.len() - 1,
        }
    }

    fn value_of(&self, idx: usize) -> Matrix {
        self.nodes.borrow()[idx].value.clone()
    }

    fn needs_grad(&self, idx: usize) -> bool {
        self.nodes.borrow()[idx].needs_grad
    }

    /// Runs reverse-mode differentiation from `output` (which must be a `1 x 1` scalar)
    /// and returns the gradients of every parameter that influenced it.
    ///
    /// # Panics
    ///
    /// Panics when `output` is not a `1 x 1` matrix or does not belong to this graph.
    pub fn backward(&self, output: &Var) -> Gradients {
        assert!(
            Rc::ptr_eq(&self.nodes, &output.graph.nodes),
            "output variable belongs to a different graph"
        );
        assert_eq!(
            output.shape(),
            (1, 1),
            "backward expects a scalar (1 x 1) output, got {:?}",
            output.shape()
        );

        let nodes = self.nodes.borrow();
        let mut grads: Vec<Option<Matrix>> = vec![None; nodes.len()];
        grads[output.idx] = Some(Matrix::ones(1, 1));

        let mut result = Gradients::default();
        for idx in (0..=output.idx).rev() {
            let Some(grad) = grads[idx].take() else {
                continue;
            };
            let node = &nodes[idx];
            if node.is_parameter {
                result.map.insert(VarId(idx), grad.clone());
            }
            if let Some(backward) = &node.backward {
                let parent_grads = backward(&grad);
                debug_assert_eq!(parent_grads.len(), node.parents.len());
                for (&parent, pgrad) in node.parents.iter().zip(parent_grads) {
                    if !nodes[parent].needs_grad {
                        continue;
                    }
                    debug_assert_eq!(
                        pgrad.shape(),
                        nodes[parent].value.shape(),
                        "gradient shape mismatch flowing into node {parent}"
                    );
                    grads[parent] = Some(match grads[parent].take() {
                        Some(existing) => existing.try_add(&pgrad).expect("gradient accumulation"),
                        None => pgrad,
                    });
                }
            }
        }
        result
    }
}

impl Var {
    /// Identifier of this variable on the tape.
    pub fn id(&self) -> VarId {
        VarId(self.idx)
    }

    /// The graph this variable belongs to.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// A clone of the current value.
    pub fn value(&self) -> Matrix {
        self.graph.value_of(self.idx)
    }

    /// Shape of the value.
    pub fn shape(&self) -> (usize, usize) {
        self.graph.nodes.borrow()[self.idx].value.shape()
    }

    /// Overwrites the stored value in place (used by optimizers to apply updates to
    /// parameter nodes between steps).
    ///
    /// # Panics
    ///
    /// Panics when the new value has a different shape.
    pub fn assign(&self, value: Matrix) {
        let mut nodes = self.graph.nodes.borrow_mut();
        assert_eq!(
            nodes[self.idx].value.shape(),
            value.shape(),
            "assign must preserve the shape"
        );
        nodes[self.idx].value = value;
    }

    fn unary<F>(&self, value: Matrix, backward: F) -> Var
    where
        F: Fn(&Matrix) -> Vec<Matrix> + 'static,
    {
        let needs = self.graph.needs_grad(self.idx);
        self.graph.push(Node {
            value,
            is_parameter: false,
            needs_grad: needs,
            parents: vec![self.idx],
            backward: if needs {
                Some(Box::new(backward))
            } else {
                None
            },
        })
    }

    fn binary<F>(&self, other: &Var, value: Matrix, backward: F) -> Var
    where
        F: Fn(&Matrix) -> Vec<Matrix> + 'static,
    {
        assert!(
            Rc::ptr_eq(&self.graph.nodes, &other.graph.nodes),
            "operands belong to different graphs"
        );
        let needs = self.graph.needs_grad(self.idx) || self.graph.needs_grad(other.idx);
        self.graph.push(Node {
            value,
            is_parameter: false,
            needs_grad: needs,
            parents: vec![self.idx, other.idx],
            backward: if needs {
                Some(Box::new(backward))
            } else {
                None
            },
        })
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic
    // ------------------------------------------------------------------

    /// Elementwise addition.
    pub fn add(&self, other: &Var) -> Var {
        let value = self.value().try_add(&other.value()).expect("add shapes");
        self.binary(other, value, |grad| vec![grad.clone(), grad.clone()])
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Var) -> Var {
        let value = self.value().try_sub(&other.value()).expect("sub shapes");
        self.binary(other, value, |grad| vec![grad.clone(), grad.scale(-1.0)])
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Var) -> Var {
        let a = self.value();
        let b = other.value();
        let value = a.try_hadamard(&b).expect("hadamard shapes");
        self.binary(other, value, move |grad| {
            vec![grad.hadamard(&b), grad.hadamard(&a)]
        })
    }

    /// Multiplies every element by a constant.
    pub fn scale(&self, factor: f32) -> Var {
        self.unary(self.value().scale(factor), move |grad| {
            vec![grad.scale(factor)]
        })
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&self, value: f32) -> Var {
        self.unary(self.value().add_scalar(value), |grad| vec![grad.clone()])
    }

    // ------------------------------------------------------------------
    // Matrix products and transposition
    // ------------------------------------------------------------------

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Var) -> Var {
        let a = self.value();
        let b = other.value();
        let value = a.try_matmul(&b).expect("matmul shapes");
        self.binary(other, value, move |grad| {
            vec![grad.matmul_transpose_b(&b), a.transpose_matmul(grad)]
        })
    }

    /// Matrix product `self * other.T` (fused; neither operand is materialised transposed).
    pub fn matmul_transpose_b(&self, other: &Var) -> Var {
        let a = self.value();
        let b = other.value();
        let value = a.matmul_transpose_b(&b);
        self.binary(other, value, move |grad| {
            // y = a b^T  =>  da = g b, db = g^T a
            vec![grad.matmul(&b), grad.transpose_matmul(&a)]
        })
    }

    /// Matrix product `self.T * other` (the ViTALiTy global-context pattern `K^T V`).
    pub fn transpose_matmul(&self, other: &Var) -> Var {
        let a = self.value();
        let b = other.value();
        let value = a.transpose_matmul(&b);
        self.binary(other, value, move |grad| {
            // y = a^T b  =>  da = b g^T, db = a g
            vec![b.matmul_transpose_b(grad), a.matmul(grad)]
        })
    }

    /// Transpose.
    pub fn transpose(&self) -> Var {
        self.unary(self.value().transpose(), |grad| vec![grad.transpose()])
    }

    // ------------------------------------------------------------------
    // Broadcasts and reductions
    // ------------------------------------------------------------------

    /// Adds a `1 x d` bias row to every row of an `n x d` matrix.
    pub fn add_bias(&self, bias: &Var) -> Var {
        let value = self.value().broadcast_add_row(&bias.value());
        self.binary(bias, value, |grad| vec![grad.clone(), grad.col_sum()])
    }

    /// Subtracts a `1 x d` row vector from every row.
    pub fn broadcast_sub_row(&self, row: &Var) -> Var {
        let value = self.value().broadcast_sub_row(&row.value());
        self.binary(row, value, |grad| {
            vec![grad.clone(), grad.col_sum().scale(-1.0)]
        })
    }

    /// Divides each row by the matching entry of an `n x 1` column vector
    /// (the Taylor-attention normalisation `diag^{-1}(t_D) T_N`).
    pub fn broadcast_div_col(&self, col: &Var) -> Var {
        let x = self.value();
        let c = col.value();
        let value = x.broadcast_div_col(&c);
        self.binary(col, value, move |grad| {
            let dx = grad.broadcast_div_col(&c);
            let mut dc = Matrix::zeros(c.rows(), 1);
            for i in 0..x.rows() {
                let ci = c.get(i, 0);
                let mut acc = 0.0;
                for j in 0..x.cols() {
                    acc += grad.get(i, j) * x.get(i, j);
                }
                dc.set(i, 0, -acc / (ci * ci));
            }
            vec![dx, dc]
        })
    }

    /// Replicates a `1 x d` row vector into `n` identical rows.
    pub fn broadcast_row_to(&self, n: usize) -> Var {
        let v = self.value();
        assert_eq!(v.rows(), 1, "broadcast_row_to expects a 1 x d row vector");
        let value = Matrix::from_fn(n, v.cols(), |_, j| v.get(0, j));
        self.unary(value, |grad| vec![grad.col_sum()])
    }

    /// Column sums as a `1 x d` row vector (`1_n^T X`).
    pub fn col_sum(&self) -> Var {
        let rows = self.shape().0;
        self.unary(self.value().col_sum(), move |grad| {
            vec![Matrix::from_fn(rows, grad.cols(), |_, j| grad.get(0, j))]
        })
    }

    /// Column means as a `1 x d` row vector (`\bar{X}`).
    pub fn col_mean(&self) -> Var {
        let rows = self.shape().0;
        self.unary(self.value().col_mean(), move |grad| {
            vec![Matrix::from_fn(rows, grad.cols(), |_, j| {
                grad.get(0, j) / rows as f32
            })]
        })
    }

    /// Row sums as an `n x 1` column vector.
    pub fn row_sum(&self) -> Var {
        let cols = self.shape().1;
        self.unary(self.value().row_sum(), move |grad| {
            vec![Matrix::from_fn(grad.rows(), cols, |i, _| grad.get(i, 0))]
        })
    }

    /// Mean over all rows, producing a `1 x d` row vector (mean token pooling).
    pub fn mean_over_rows(&self) -> Var {
        self.col_mean()
    }

    /// Sum of every element as a `1 x 1` scalar.
    pub fn sum(&self) -> Var {
        let (rows, cols) = self.shape();
        let value = Matrix::filled(1, 1, self.value().sum());
        self.unary(value, move |grad| {
            vec![Matrix::filled(rows, cols, grad.get(0, 0))]
        })
    }

    /// Mean of every element as a `1 x 1` scalar.
    pub fn mean_all(&self) -> Var {
        let (rows, cols) = self.shape();
        let count = (rows * cols) as f32;
        let value = Matrix::filled(1, 1, self.value().mean());
        self.unary(value, move |grad| {
            vec![Matrix::filled(rows, cols, grad.get(0, 0) / count)]
        })
    }

    // ------------------------------------------------------------------
    // Non-linearities
    // ------------------------------------------------------------------

    /// Numerically-stable softmax over each row.
    pub fn softmax_rows(&self) -> Var {
        let s = self.value().softmax_rows();
        let s_saved = s.clone();
        self.unary(s, move |grad| {
            let mut dx = Matrix::zeros(s_saved.rows(), s_saved.cols());
            for i in 0..s_saved.rows() {
                let dot: f32 = (0..s_saved.cols())
                    .map(|j| grad.get(i, j) * s_saved.get(i, j))
                    .sum();
                for j in 0..s_saved.cols() {
                    dx.set(i, j, s_saved.get(i, j) * (grad.get(i, j) - dot));
                }
            }
            vec![dx]
        })
    }

    /// GELU activation (tanh approximation, as used by ViT MLP blocks).
    pub fn gelu(&self) -> Var {
        let x = self.value();
        let mut value = x.clone();
        simd::gelu_inplace(value.as_mut_slice());
        self.unary(value, move |grad| {
            let mut dx = grad.clone();
            simd::gelu_grad_mul(x.as_slice(), dx.as_mut_slice());
            vec![dx]
        })
    }

    /// ReLU activation.
    pub fn relu(&self) -> Var {
        let x = self.value();
        let value = x.map(|v| v.max(0.0));
        self.unary(value, move |grad| {
            let mut dx = grad.clone();
            for (g, &xv) in dx.as_mut_slice().iter_mut().zip(x.as_slice().iter()) {
                if xv <= 0.0 {
                    *g = 0.0;
                }
            }
            vec![dx]
        })
    }

    /// Layer normalisation over the feature (column) dimension of each row, followed by a
    /// per-feature affine transform: `y = gamma ⊙ (x - μ)/σ + beta`.
    ///
    /// `gamma` and `beta` must be `1 x d` row vectors.
    pub fn layer_norm(&self, gamma: &Var, beta: &Var, eps: f32) -> Var {
        let x = self.value();
        let g = gamma.value();
        let b = beta.value();
        assert_eq!(g.shape(), (1, x.cols()), "gamma must be 1 x d");
        assert_eq!(b.shape(), (1, x.cols()), "beta must be 1 x d");

        let d = x.cols();
        let mut normalised = Matrix::zeros(x.rows(), d);
        let mut inv_std = vec![0.0f32; x.rows()];
        for (i, istd_slot) in inv_std.iter_mut().enumerate() {
            let row = x.row(i);
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let istd = 1.0 / (var + eps).sqrt();
            *istd_slot = istd;
            for j in 0..d {
                normalised.set(i, j, (x.get(i, j) - mean) * istd);
            }
        }
        let mut out = normalised.clone();
        for i in 0..out.rows() {
            for j in 0..d {
                out.set(i, j, out.get(i, j) * g.get(0, j) + b.get(0, j));
            }
        }

        assert!(
            Rc::ptr_eq(&self.graph.nodes, &gamma.graph.nodes)
                && Rc::ptr_eq(&self.graph.nodes, &beta.graph.nodes),
            "layer_norm operands belong to different graphs"
        );
        let needs = self.graph.needs_grad(self.idx)
            || self.graph.needs_grad(gamma.idx)
            || self.graph.needs_grad(beta.idx);
        let xhat = normalised;
        let gamma_saved = g;
        self.graph.push(Node {
            value: out,
            is_parameter: false,
            needs_grad: needs,
            parents: vec![self.idx, gamma.idx, beta.idx],
            backward: if needs {
                Some(Box::new(move |grad: &Matrix| {
                    let rows = xhat.rows();
                    let d = xhat.cols();
                    let mut dgamma = Matrix::zeros(1, d);
                    let mut dbeta = Matrix::zeros(1, d);
                    let mut dx = Matrix::zeros(rows, d);
                    for (i, &istd) in inv_std.iter().enumerate().take(rows) {
                        // Per-feature parameter gradients.
                        for j in 0..d {
                            dgamma.set(0, j, dgamma.get(0, j) + grad.get(i, j) * xhat.get(i, j));
                            dbeta.set(0, j, dbeta.get(0, j) + grad.get(i, j));
                        }
                        // Input gradient for this row.
                        let dxhat: Vec<f32> = (0..d)
                            .map(|j| grad.get(i, j) * gamma_saved.get(0, j))
                            .collect();
                        let mean_dxhat = dxhat.iter().sum::<f32>() / d as f32;
                        let mean_dxhat_xhat = dxhat
                            .iter()
                            .enumerate()
                            .map(|(j, v)| v * xhat.get(i, j))
                            .sum::<f32>()
                            / d as f32;
                        for (j, &dxh) in dxhat.iter().enumerate() {
                            let v = istd * (dxh - mean_dxhat - xhat.get(i, j) * mean_dxhat_xhat);
                            dx.set(i, j, v);
                        }
                    }
                    vec![dx, dgamma, dbeta]
                }))
            } else {
                None
            },
        })
    }

    // ------------------------------------------------------------------
    // Masking, slicing and concatenation
    // ------------------------------------------------------------------

    /// Zeroes elements where the (constant) mask is zero; the gradient is masked the same
    /// way. Used for dropout and for the Sanger-style sparse attention mask.
    pub fn apply_mask(&self, mask: &Matrix) -> Var {
        let value = self.value().apply_mask(mask);
        let mask = mask.clone();
        self.unary(value, move |grad| vec![grad.apply_mask(&mask)])
    }

    /// Copies columns `start..end` into a new variable (used to split attention heads).
    pub fn slice_cols(&self, start: usize, end: usize) -> Var {
        let (rows, cols) = self.shape();
        let value = self.value().slice_cols(start, end);
        self.unary(value, move |grad| {
            let mut dx = Matrix::zeros(rows, cols);
            for i in 0..rows {
                for (j, col) in (start..end).enumerate() {
                    dx.set(i, col, grad.get(i, j));
                }
            }
            vec![dx]
        })
    }

    /// Horizontally concatenates several variables (used to merge attention heads).
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or the row counts differ.
    pub fn concat_cols(parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols needs at least one part");
        let graph = parts[0].graph.clone();
        let rows = parts[0].shape().0;
        let widths: Vec<usize> = parts.iter().map(|p| p.shape().1).collect();
        let mut value = parts[0].value();
        for p in &parts[1..] {
            assert_eq!(p.shape().0, rows, "concat_cols row count mismatch");
            value = value.hstack(&p.value());
        }
        let parents: Vec<usize> = parts.iter().map(|p| p.idx).collect();
        let needs = parents.iter().any(|&p| graph.needs_grad(p));
        let widths_saved = widths;
        graph.push(Node {
            value,
            is_parameter: false,
            needs_grad: needs,
            parents,
            backward: if needs {
                Some(Box::new(move |grad: &Matrix| {
                    let mut out = Vec::with_capacity(widths_saved.len());
                    let mut offset = 0;
                    for &w in &widths_saved {
                        out.push(grad.slice_cols(offset, offset + w));
                        offset += w;
                    }
                    out
                }))
            } else {
                None
            },
        })
    }

    // ------------------------------------------------------------------
    // Losses
    // ------------------------------------------------------------------

    /// Mean cross-entropy between row-wise logits and integer class targets.
    ///
    /// # Panics
    ///
    /// Panics when `targets.len()` differs from the number of rows or a target is out of
    /// range.
    pub fn cross_entropy_with_logits(&self, targets: &[usize]) -> Var {
        let logits = self.value();
        assert_eq!(
            targets.len(),
            logits.rows(),
            "one target per row is required"
        );
        let probs = logits.softmax_rows();
        let n = logits.rows() as f32;
        let mut loss = 0.0;
        for (i, &t) in targets.iter().enumerate() {
            assert!(t < logits.cols(), "target class {t} out of range");
            loss -= probs.get(i, t).max(1e-12).ln();
        }
        loss /= n;
        let targets = targets.to_vec();
        self.unary(Matrix::filled(1, 1, loss), move |grad| {
            let scale = grad.get(0, 0) / n;
            let mut dx = probs.clone();
            for (i, &t) in targets.iter().enumerate() {
                dx.set(i, t, dx.get(i, t) - 1.0);
            }
            vec![dx.scale(scale)]
        })
    }

    /// Mean cross-entropy between row-wise logits and *soft* target distributions
    /// (token-based knowledge distillation uses this with teacher probabilities).
    ///
    /// # Panics
    ///
    /// Panics when the shapes of the logits and the soft targets differ.
    pub fn soft_cross_entropy(&self, soft_targets: &Matrix) -> Var {
        let logits = self.value();
        assert_eq!(
            logits.shape(),
            soft_targets.shape(),
            "soft target shape mismatch"
        );
        let probs = logits.softmax_rows();
        let n = logits.rows() as f32;
        let mut loss = 0.0;
        for i in 0..logits.rows() {
            for j in 0..logits.cols() {
                loss -= soft_targets.get(i, j) * probs.get(i, j).max(1e-12).ln();
            }
        }
        loss /= n;
        let targets = soft_targets.clone();
        self.unary(Matrix::filled(1, 1, loss), move |grad| {
            let scale = grad.get(0, 0) / n;
            let dx = probs.try_sub(&targets).expect("soft target shapes");
            vec![dx.scale(scale)]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[Vec<f32>]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn constant_and_parameter_bookkeeping() {
        let g = Graph::new();
        let c = g.constant(Matrix::ones(2, 2));
        let p = g.parameter(Matrix::ones(2, 2));
        assert_eq!(g.len(), 2);
        assert_ne!(c.id(), p.id());
        assert_eq!(c.shape(), (2, 2));
        g.clear();
        assert!(g.is_empty());
    }

    #[test]
    fn matmul_gradients_match_closed_form() {
        let g = Graph::new();
        let a = g.parameter(mat(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let b = g.parameter(mat(&[vec![0.5, -1.0], vec![2.0, 0.0]]));
        let y = a.matmul(&b).sum();
        let grads = g.backward(&y);
        // d(sum(AB))/dA = 1 * B^T summed over output => each row of dA is col-sums of B^T.
        let da = grads.get(&a).unwrap();
        let db = grads.get(&b).unwrap();
        let ones = Matrix::ones(2, 2);
        assert!(da.approx_eq(&ones.matmul_transpose_b(&b.value()), 1e-5));
        assert!(db.approx_eq(&a.value().transpose_matmul(&ones), 1e-5));
    }

    #[test]
    fn fused_transpose_products_match_composed_ones() {
        let g = Graph::new();
        let a = g.parameter(mat(&[vec![1.0, -2.0, 0.5], vec![0.3, 4.0, -1.0]]));
        let b = g.parameter(mat(&[vec![2.0, 1.0, 0.0], vec![-1.0, 0.5, 3.0]]));
        let fused = a.matmul_transpose_b(&b).sum();
        let grads_fused = g.backward(&fused);
        let composed = a.matmul(&b.transpose()).sum();
        let grads_composed = g.backward(&composed);
        assert!(grads_fused
            .get(&a)
            .unwrap()
            .approx_eq(grads_composed.get(&a).unwrap(), 1e-5));
        assert!(grads_fused
            .get(&b)
            .unwrap()
            .approx_eq(grads_composed.get(&b).unwrap(), 1e-5));
    }

    #[test]
    fn transpose_matmul_gradients_match_composed() {
        let g = Graph::new();
        let a = g.parameter(mat(&[vec![1.0, -2.0], vec![0.3, 4.0], vec![2.0, 1.0]]));
        let b = g.parameter(mat(&[vec![2.0, 1.0], vec![-1.0, 0.5], vec![0.2, 0.8]]));
        let fused = a.transpose_matmul(&b).sum();
        let gf = g.backward(&fused);
        let composed = a.transpose().matmul(&b).sum();
        let gc = g.backward(&composed);
        assert!(gf.get(&a).unwrap().approx_eq(gc.get(&a).unwrap(), 1e-5));
        assert!(gf.get(&b).unwrap().approx_eq(gc.get(&b).unwrap(), 1e-5));
    }

    #[test]
    fn softmax_rows_gradient_sums_to_zero() {
        // Softmax is shift-invariant, so its Jacobian maps constants to zero: the gradient
        // of any loss w.r.t. the logits must sum to ~0 per row.
        let g = Graph::new();
        let x = g.parameter(mat(&[vec![0.2, -1.0, 0.7], vec![3.0, 0.0, -2.0]]));
        let w = g.constant(mat(&[vec![1.0], vec![-2.0], vec![0.5]]));
        let y = x.softmax_rows().matmul(&w).sum();
        let grads = g.backward(&y);
        let dx = grads.get(&x).unwrap();
        for i in 0..dx.rows() {
            let row_sum: f32 = dx.row(i).iter().sum();
            assert!(row_sum.abs() < 1e-5, "row {i} grad sum {row_sum}");
        }
    }

    #[test]
    fn cross_entropy_gradient_is_probability_minus_onehot() {
        let g = Graph::new();
        let logits = g.parameter(mat(&[vec![2.0, 0.5, -1.0]]));
        let loss = logits.cross_entropy_with_logits(&[0]);
        let grads = g.backward(&loss);
        let dx = grads.get(&logits).unwrap();
        let p = logits.value().softmax_rows();
        assert!((dx.get(0, 0) - (p.get(0, 0) - 1.0)).abs() < 1e-5);
        assert!((dx.get(0, 1) - p.get(0, 1)).abs() < 1e-5);
        assert!((dx.get(0, 2) - p.get(0, 2)).abs() < 1e-5);
    }

    #[test]
    fn soft_cross_entropy_matches_hard_targets_when_onehot() {
        let g = Graph::new();
        let logits_value = mat(&[vec![1.0, -0.5, 0.25], vec![0.0, 2.0, -1.0]]);
        let hard = g.parameter(logits_value.clone());
        let soft = g.parameter(logits_value);
        let onehot = mat(&[vec![0.0, 0.0, 1.0], vec![1.0, 0.0, 0.0]]);
        let hard_loss = hard.cross_entropy_with_logits(&[2, 0]);
        let soft_loss = soft.soft_cross_entropy(&onehot);
        assert!((hard_loss.value().get(0, 0) - soft_loss.value().get(0, 0)).abs() < 1e-5);
        let gh = g.backward(&hard_loss);
        let gs = g.backward(&soft_loss);
        assert!(gh
            .get(&hard)
            .unwrap()
            .approx_eq(gs.get(&soft).unwrap(), 1e-5));
    }

    #[test]
    fn broadcast_div_col_gradients_flow_to_both_operands() {
        let g = Graph::new();
        let num = g.parameter(mat(&[vec![2.0, 4.0], vec![6.0, 8.0]]));
        let den = g.parameter(mat(&[vec![2.0], vec![4.0]]));
        let y = num.broadcast_div_col(&den).sum();
        let grads = g.backward(&y);
        let dnum = grads.get(&num).unwrap();
        let dden = grads.get(&den).unwrap();
        assert!(dnum.approx_eq(&mat(&[vec![0.5, 0.5], vec![0.25, 0.25]]), 1e-5));
        // d/dc (sum_j x_ij / c_i) = -sum_j x_ij / c_i^2
        assert!((dden.get(0, 0) - (-(2.0 + 4.0) / 4.0)).abs() < 1e-5);
        assert!((dden.get(1, 0) - (-(6.0 + 8.0) / 16.0)).abs() < 1e-5);
    }

    #[test]
    fn layer_norm_output_is_normalised_and_params_get_grads() {
        let g = Graph::new();
        let x = g.parameter(mat(&[vec![1.0, 2.0, 3.0, 4.0], vec![-1.0, 0.0, 1.0, 2.0]]));
        let gamma = g.parameter(Matrix::ones(1, 4));
        let beta = g.parameter(Matrix::zeros(1, 4));
        let y = x.layer_norm(&gamma, &beta, 1e-5);
        let v = y.value();
        for i in 0..v.rows() {
            let mean: f32 = v.row(i).iter().sum::<f32>() / 4.0;
            let var: f32 = v
                .row(i)
                .iter()
                .map(|a| (a - mean) * (a - mean))
                .sum::<f32>()
                / 4.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-3);
        }
        let loss = y.hadamard(&y).sum();
        let grads = g.backward(&loss);
        assert!(grads.get(&x).is_some());
        assert!(grads.get(&gamma).is_some());
        assert!(grads.get(&beta).is_some());
    }

    #[test]
    fn relu_and_mask_zero_out_gradients() {
        let g = Graph::new();
        let x = g.parameter(mat(&[vec![-1.0, 2.0, -3.0, 4.0]]));
        let y = x.relu().sum();
        let grads = g.backward(&y);
        assert!(grads
            .get(&x)
            .unwrap()
            .approx_eq(&mat(&[vec![0.0, 1.0, 0.0, 1.0]]), 1e-6));

        let mask = mat(&[vec![1.0, 0.0, 1.0, 0.0]]);
        let y2 = x.apply_mask(&mask).sum();
        let grads2 = g.backward(&y2);
        assert!(grads2
            .get(&x)
            .unwrap()
            .approx_eq(&mat(&[vec![1.0, 0.0, 1.0, 0.0]]), 1e-6));
    }

    #[test]
    fn slice_and_concat_round_trip_gradients() {
        let g = Graph::new();
        let x = g.parameter(mat(&[vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]]));
        let left = x.slice_cols(0, 2);
        let right = x.slice_cols(2, 4);
        let rebuilt = Var::concat_cols(&[left, right]);
        assert!(rebuilt.value().approx_eq(&x.value(), 0.0));
        let loss = rebuilt.scale(2.0).sum();
        let grads = g.backward(&loss);
        assert!(grads
            .get(&x)
            .unwrap()
            .approx_eq(&Matrix::filled(2, 4, 2.0), 1e-6));
    }

    #[test]
    fn bias_and_row_broadcasts() {
        let g = Graph::new();
        let x = g.parameter(mat(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]));
        let b = g.parameter(mat(&[vec![0.5, -0.5]]));
        let y = x.add_bias(&b).sum();
        let grads = g.backward(&y);
        assert!(grads
            .get(&b)
            .unwrap()
            .approx_eq(&Matrix::filled(1, 2, 3.0), 1e-6));

        let centred = x.broadcast_sub_row(&x.col_mean());
        assert!(centred.value().col_mean().iter().all(|v| v.abs() < 1e-5));
        let loss = centred.hadamard(&centred).sum();
        let grads2 = g.backward(&loss);
        assert!(grads2.get(&x).is_some());

        let row = g.parameter(mat(&[vec![1.0, 2.0]]));
        let tiled = row.broadcast_row_to(4).sum();
        let grads3 = g.backward(&tiled);
        assert!(grads3
            .get(&row)
            .unwrap()
            .approx_eq(&Matrix::filled(1, 2, 4.0), 1e-6));
    }

    #[test]
    fn reductions_produce_expected_gradients() {
        let g = Graph::new();
        let x = g.parameter(mat(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let grads = g.backward(&x.mean_all());
        assert!(grads
            .get(&x)
            .unwrap()
            .approx_eq(&Matrix::filled(2, 2, 0.25), 1e-6));
        let grads = g.backward(&x.col_sum().sum());
        assert!(grads.get(&x).unwrap().approx_eq(&Matrix::ones(2, 2), 1e-6));
        let grads = g.backward(&x.row_sum().sum());
        assert!(grads.get(&x).unwrap().approx_eq(&Matrix::ones(2, 2), 1e-6));
        let grads = g.backward(&x.col_mean().sum());
        assert!(grads
            .get(&x)
            .unwrap()
            .approx_eq(&Matrix::filled(2, 2, 0.5), 1e-6));
    }

    #[test]
    fn assign_updates_value_in_place() {
        let g = Graph::new();
        let p = g.parameter(Matrix::zeros(2, 2));
        p.assign(Matrix::ones(2, 2));
        assert_eq!(p.value().sum(), 4.0);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_rejects_non_scalar_output() {
        let g = Graph::new();
        let x = g.parameter(Matrix::ones(2, 2));
        let _ = g.backward(&x);
    }

    #[test]
    fn gradients_accumulate_over_reused_variables() {
        let g = Graph::new();
        let x = g.parameter(mat(&[vec![2.0]]));
        // y = x*x + 3x  =>  dy/dx = 2x + 3 = 7
        let y = x.hadamard(&x).add(&x.scale(3.0)).sum();
        let grads = g.backward(&y);
        assert!((grads.get(&x).unwrap().get(0, 0) - 7.0).abs() < 1e-5);
    }

    #[test]
    fn constants_do_not_receive_gradients() {
        let g = Graph::new();
        let c = g.constant(Matrix::ones(2, 2));
        let p = g.parameter(Matrix::ones(2, 2));
        let y = c.hadamard(&p).sum();
        let grads = g.backward(&y);
        assert!(grads.get(&c).is_none());
        assert!(grads.get(&p).is_some());
        assert_eq!(grads.len(), 1);
        assert!(!grads.is_empty());
        assert!(grads.global_norm() > 0.0);
    }

    #[test]
    fn gelu_matches_reference_values() {
        // Reference values from the tanh approximation itself at well-known points.
        let g = Graph::new();
        let x = g.parameter(mat(&[vec![0.0, 1.0, -1.0]]));
        let y = x.gelu();
        let v = y.value();
        assert!(v.get(0, 0).abs() < 1e-6);
        assert!((v.get(0, 1) - 0.841_192).abs() < 1e-3);
        assert!((v.get(0, 2) + 0.158_808).abs() < 1e-3);
        // Derivative at 0 is 0.5.
        let grads = g.backward(&y.sum());
        assert!((grads.get(&x).unwrap().get(0, 0) - 0.5).abs() < 1e-5);
    }
}
