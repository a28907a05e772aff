//! Operation-count accounting (Table I and Eqs. 1–3 of the paper).

use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// Scalar operation counts of an attention computation.
///
/// The paper compares mechanisms by the number of multiplications, additions, divisions
/// and exponentiations (Table I), because the relative cost of those operator classes is
/// what the dedicated accelerator exploits: the Taylor attention trades expensive
/// multiplications and exponentiations for cheap column accumulations and element-wise
/// additions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounts {
    /// Scalar multiplications.
    pub mul: u64,
    /// Scalar additions/subtractions.
    pub add: u64,
    /// Scalar divisions.
    pub div: u64,
    /// Scalar exponentiations (`exp`), only present in softmax-based attentions.
    pub exp: u64,
}

impl OpCounts {
    /// A zero count.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Creates a count from its four components.
    pub fn new(mul: u64, add: u64, div: u64, exp: u64) -> Self {
        Self { mul, add, div, exp }
    }

    /// Total scalar operations of any kind.
    pub fn total(&self) -> u64 {
        self.mul + self.add + self.div + self.exp
    }

    /// Floating-point operations (multiplications + additions + divisions + exps), the
    /// quantity reported in the paper's Table IV "FLOPs (attention)" column.
    pub fn flops(&self) -> u64 {
        self.total()
    }

    /// Counts expressed in millions (the unit of Table I).
    pub fn in_millions(&self) -> (f64, f64, f64, f64) {
        (
            self.mul as f64 / 1e6,
            self.add as f64 / 1e6,
            self.div as f64 / 1e6,
            self.exp as f64 / 1e6,
        )
    }

    /// Ratio of another mechanism's counts to this one, per operator class
    /// (`other / self`); zero denominators yield zero ratios.
    pub fn ratio_from(&self, other: &Self) -> OpRatios {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        OpRatios {
            mul: ratio(other.mul, self.mul),
            add: ratio(other.add, self.add),
            div: ratio(other.div, self.div),
            exp: ratio(other.exp, self.exp),
        }
    }

    /// Scales every count by an integer factor (e.g. heads × layers).
    pub fn scaled(&self, factor: u64) -> Self {
        Self {
            mul: self.mul * factor,
            add: self.add * factor,
            div: self.div * factor,
            exp: self.exp * factor,
        }
    }
}

/// Per-operator-class ratios between two [`OpCounts`] values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OpRatios {
    /// Multiplication ratio.
    pub mul: f64,
    /// Addition ratio.
    pub add: f64,
    /// Division ratio.
    pub div: f64,
    /// Exponentiation ratio.
    pub exp: f64,
}

impl Add for OpCounts {
    type Output = OpCounts;

    fn add(self, rhs: OpCounts) -> OpCounts {
        OpCounts {
            mul: self.mul + rhs.mul,
            add: self.add + rhs.add,
            div: self.div + rhs.div,
            exp: self.exp + rhs.exp,
        }
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for OpCounts {
    type Output = OpCounts;

    fn mul(self, rhs: u64) -> OpCounts {
        self.scaled(rhs)
    }
}

impl Sum for OpCounts {
    fn sum<I: Iterator<Item = OpCounts>>(iter: I) -> OpCounts {
        iter.fold(OpCounts::zero(), |acc, x| acc + x)
    }
}

/// Operation counts of one head of the **vanilla softmax attention** over `n` tokens with
/// feature dimension `d` (the BASELINE column of Table I).
///
/// * multiplications: `2 n² d` (for `Q K^T` and `S V`),
/// * additions: `2 n² d + n²` (dot-product accumulations plus the softmax denominator sums),
/// * divisions: `n²` (softmax normalisation),
/// * exponentiations: `n²`.
pub fn vanilla_softmax_ops(n: usize, d: usize) -> OpCounts {
    let (n, d) = (n as u64, d as u64);
    OpCounts {
        mul: 2 * n * n * d,
        add: 2 * n * n * d + n * n,
        div: n * n,
        exp: n * n,
    }
}

/// Operation counts of one head of the **ViTALiTy Taylor attention** (Algorithm 1).
///
/// * multiplications: `2 n d² + n d` (`G = \hat{K}^T V`, `Q G` and `Q \hat{k}_{sum}^T`),
/// * additions: `(2d + 7) n d` (the two big products plus the pre/post-processing steps
///   1 and 3–5 of Algorithm 1),
/// * divisions: `n d + d` (Step 1's mean and Step 6's row-wise normalisation),
/// * exponentiations: none.
pub fn taylor_attention_ops(n: usize, d: usize) -> OpCounts {
    let (n, d) = (n as u64, d as u64);
    OpCounts {
        mul: 2 * n * d * d + n * d,
        add: (2 * d + 7) * n * d,
        div: n * d + d,
        exp: 0,
    }
}

/// Operation counts of one head of **Linformer** (Table IV's low-rank baseline): keys and
/// values are projected from `n` tokens down to `landmarks` tokens (at most `n`) before
/// an `n x landmarks` softmax attention.
///
/// * multiplications: `4 n k d` (the two `k x n` projections plus the two products),
/// * additions: `4 n k d + n k`, divisions and exponentiations: `n k` (the softmax).
pub fn linformer_ops(n: usize, d: usize, landmarks: usize) -> OpCounts {
    let k = landmarks.min(n) as u64;
    let (n, d) = (n as u64, d as u64);
    OpCounts {
        mul: 4 * n * k * d,
        add: 4 * n * k * d + n * k,
        div: n * k,
        exp: n * k,
    }
}

/// Operation counts of one head of **Performer** (FAVOR+, Table IV's kernel baseline)
/// with `features` positive random features: the feature maps (`2 n d m`), the context
/// (`n m d`), the numerator (`n m d`) and the denominator (`n m`), with one exponential
/// per feature-map entry.
pub fn performer_ops(n: usize, d: usize, features: usize) -> OpCounts {
    let m = features as u64;
    let (n, d) = (n as u64, d as u64);
    OpCounts {
        mul: 2 * n * d * m + 2 * n * m * d + n * m,
        add: 2 * n * d * m + 2 * n * m * d + 2 * n * m,
        div: n * d + 2 * n * m,
        exp: 2 * n * m,
    }
}

/// Operation counts of one head of the **Linear Transformer** (`phi(x) = elu(x) + 1`):
/// the same `O(n d²)` associativity trick as the Taylor attention, with elu's negative
/// branch costing one exponential per entry (half the entries of `Q` and `K`).
pub fn linear_kernel_ops(n: usize, d: usize) -> OpCounts {
    let (n, d) = (n as u64, d as u64);
    OpCounts {
        mul: 2 * n * d * d + n * d,
        add: 2 * n * d * d + 2 * n * d,
        div: n * d,
        exp: n * d,
    }
}

/// Operation counts of one head of **Efficient Attention**
/// (`softmax_rows(Q) (softmax_cols(K)ᵀ V)`): two `O(n d²)` products plus a softmax over
/// each of `Q` and `K`.
pub fn efficient_attention_ops(n: usize, d: usize) -> OpCounts {
    let (n, d) = (n as u64, d as u64);
    OpCounts {
        mul: 2 * n * d * d,
        add: 2 * n * d * d + 2 * n * d,
        div: 2 * n * d,
        exp: 2 * n * d,
    }
}

/// The paper's Eq. (1): theoretical multiplication-count ratio between the vanilla softmax
/// attention and the Taylor attention, `R_mul = 2n / (2d + 1) ≈ n / d`.
pub fn theoretical_mul_ratio(n: usize, d: usize) -> f64 {
    2.0 * n as f64 / (2.0 * d as f64 + 1.0)
}

/// The paper's Eq. (2): theoretical addition-count ratio, `R_add = (2d+1) n / ((2d+7) d)`.
pub fn theoretical_add_ratio(n: usize, d: usize) -> f64 {
    ((2 * d + 1) * n) as f64 / ((2 * d + 7) * d) as f64
}

/// The paper's Eq. (3): theoretical division-count ratio, `R_div = n² / ((n+1) d)`.
pub fn theoretical_div_ratio(n: usize, d: usize) -> f64 {
    (n * n) as f64 / ((n + 1) * d) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_scaling() {
        let a = OpCounts::new(1, 2, 3, 4);
        let b = OpCounts::new(10, 20, 30, 40);
        assert_eq!((a + b).total(), 110);
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        assert_eq!(a.scaled(3), a * 3);
        assert_eq!(vec![a, b].into_iter().sum::<OpCounts>(), a + b);
        assert_eq!(a.flops(), a.total());
        let (m, ad, dv, ex) = b.in_millions();
        assert!(m < 1.0 && ad < 1.0 && dv < 1.0 && ex < 1.0);
    }

    #[test]
    fn ratios_handle_zero_denominators() {
        let taylor = OpCounts::new(100, 100, 10, 0);
        let vanilla = OpCounts::new(300, 310, 30, 30);
        let r = taylor.ratio_from(&vanilla);
        assert!((r.mul - 3.0).abs() < 1e-9);
        assert_eq!(r.exp, 0.0);
    }

    #[test]
    fn vanilla_counts_follow_quadratic_scaling() {
        let small = vanilla_softmax_ops(10, 8);
        let large = vanilla_softmax_ops(20, 8);
        // n doubles => n² terms quadruple.
        assert_eq!(large.mul, small.mul * 4);
        assert_eq!(large.exp, small.exp * 4);
    }

    #[test]
    fn taylor_counts_follow_linear_scaling_and_have_no_exp() {
        let small = taylor_attention_ops(10, 8);
        let large = taylor_attention_ops(20, 8);
        assert_eq!(large.mul, small.mul * 2);
        assert_eq!(large.add, small.add * 2);
        assert_eq!(small.exp, 0);
    }

    /// The four linear baselines at Table IV's shape (n = 36, d = 8, 9 landmarks /
    /// 8 features) and at DeiT-Tiny's (n = 197, d = 64, 49 landmarks / 64 features).
    #[test]
    fn linear_baseline_counts_are_pinned() {
        assert_eq!(
            linformer_ops(36, 8, 9),
            OpCounts::new(10368, 10692, 324, 324)
        );
        assert_eq!(performer_ops(36, 8, 8), OpCounts::new(9504, 9792, 864, 576));
        assert_eq!(
            linear_kernel_ops(36, 8),
            OpCounts::new(4896, 5184, 288, 288)
        );
        assert_eq!(
            efficient_attention_ops(36, 8),
            OpCounts::new(4608, 5184, 576, 576)
        );
        assert_eq!(
            linformer_ops(197, 64, 49),
            OpCounts::new(2471168, 2480821, 9653, 9653)
        );
        assert_eq!(
            performer_ops(197, 64, 64),
            OpCounts::new(3240256, 3252864, 37824, 25216)
        );
        assert_eq!(
            linear_kernel_ops(197, 64),
            OpCounts::new(1626432, 1639040, 12608, 12608)
        );
        assert_eq!(
            efficient_attention_ops(197, 64),
            OpCounts::new(1613824, 1639040, 25216, 25216)
        );
    }

    #[test]
    fn linear_baseline_counts_are_linear_in_tokens() {
        let baselines: [fn(usize, usize) -> OpCounts; 4] = [
            |n, d| linformer_ops(n, d, 32),
            |n, d| performer_ops(n, d, 64),
            linear_kernel_ops,
            efficient_attention_ops,
        ];
        for (i, ops) in baselines.iter().enumerate() {
            let (a, b) = (ops(128, 64), ops(256, 64));
            assert_eq!(b.mul, a.mul * 2, "baseline {i}");
            assert!(a.exp > 0, "baseline {i}");
        }
        // Linformer never projects to more landmarks than there are tokens.
        assert_eq!(linformer_ops(8, 4, 32), linformer_ops(8, 4, 8));
    }

    #[test]
    fn empirical_ratio_approaches_n_over_d() {
        // For DeiT-Tiny-like dimensions (n = 197, d = 64) the paper reports ~3.1x fewer
        // multiplications; Eq. (1) gives 2n/(2d+1).
        let n = 197;
        let d = 64;
        let vanilla = vanilla_softmax_ops(n, d);
        let taylor = taylor_attention_ops(n, d);
        let measured = vanilla.mul as f64 / taylor.mul as f64;
        let theoretical = theoretical_mul_ratio(n, d);
        assert!((measured - theoretical).abs() / theoretical < 0.02);
        assert!(measured > 2.9 && measured < 3.2, "ratio {measured}");
        // Division ratio from Eq. (3) is ≈ n/d as well.
        let div_ratio = vanilla.div as f64 / taylor.div as f64;
        assert!((div_ratio - theoretical_div_ratio(n, d)).abs() / div_ratio < 0.05);
        // Addition ratio is strictly below n/d (Eq. 2's conclusion).
        assert!(theoretical_add_ratio(n, d) < n as f64 / d as f64);
    }
}
