//! Operation records for the reverse-mode tape.
//!
//! Every [`Op`] stores the ids of its operands plus whatever auxiliary data
//! the backward pass needs (sparse operands are shared via `Arc` so rebuilding
//! the tape each step never copies the graph structure).

use std::sync::Arc;

use graphaug_sparse::Csr;

use crate::mat::Mat;
use crate::tape::NodeId;

/// A sparse matrix paired with its transpose, so `spmm` backward never has to
/// re-transpose inside the training loop. Use [`SpPair::symmetric`] for
/// symmetric matrices (normalized adjacencies) to share one buffer.
#[derive(Clone)]
pub struct SpPair {
    /// The forward operand.
    pub m: Arc<Csr>,
    /// Its transpose (possibly the same allocation when symmetric).
    pub mt: Arc<Csr>,
}

impl SpPair {
    /// Builds a pair, computing the transpose once.
    pub fn new(m: Csr) -> Self {
        let mt = Arc::new(m.transpose());
        SpPair { m: Arc::new(m), mt }
    }

    /// Wraps a symmetric matrix without computing a transpose.
    pub fn symmetric(m: Csr) -> Self {
        let m = Arc::new(m);
        SpPair {
            mt: Arc::clone(&m),
            m,
        }
    }
}

/// The adjacency operand of [`crate::Graph::propagate`]: a constant sparse
/// matrix (the clean graph), or a fixed pattern whose stored values are the
/// `nnz × 1` tape node `weights` (a learned or sampled view, differentiable
/// in its weights).
#[derive(Clone, Copy)]
pub enum Adj<'a> {
    /// A constant adjacency, propagated by `Graph::spmm`.
    Fixed(&'a SpPair),
    /// A pattern with edge weights on the tape, propagated by
    /// `Graph::spmm_ew`.
    Weighted {
        /// The sparsity pattern (values unused).
        pattern: &'a Arc<Csr>,
        /// Per stored entry, in CSR order.
        weights: NodeId,
    },
}

impl<'a> From<&'a SpPair> for Adj<'a> {
    fn from(sp: &'a SpPair) -> Self {
        Adj::Fixed(sp)
    }
}

/// Tape operation records. Field names follow `y = op(…)` conventions.
pub enum Op {
    /// Leaf holding a constant or a parameter snapshot.
    Leaf,
    /// `y = a + b`
    Add(NodeId, NodeId),
    /// `y = a - b`
    Sub(NodeId, NodeId),
    /// `y = a ⊙ b`
    Mul(NodeId, NodeId),
    /// `y = c · a`
    Scale(NodeId, f32),
    /// `y = a + c`
    AddScalar(NodeId, f32),
    /// `y = a ⊙ k` for a constant matrix `k` (masks, noise)
    MulConst(NodeId, Arc<Mat>),
    /// `y = a + k` for a constant matrix `k`
    AddConst(NodeId, Arc<Mat>),
    /// `y = a × b`
    MatMul(NodeId, NodeId),
    /// `y = a × bᵀ`
    MatMulNT(NodeId, NodeId),
    /// `y[i] = a[i] + bias` with `bias` a `1 × d` node broadcast over rows
    AddRowBroadcast(NodeId, NodeId),
    /// `y = M × h` for a constant sparse `M`
    Spmm { sp: SpPair, h: NodeId },
    /// `y = csr(pattern, w) × h` — edge-weighted SpMM, differentiable in both
    /// the `nnz × 1` weight node `w` and the dense node `h`
    SpmmEw {
        pattern: Arc<Csr>,
        w: NodeId,
        h: NodeId,
    },
    /// `y[i] = src[idx[i]]`
    GatherRows { src: NodeId, idx: Arc<Vec<u32>> },
    /// `y = [a | b]` column-wise
    ConcatCols(NodeId, NodeId),
    /// `y = src[:, start..end]`
    SliceCols {
        src: NodeId,
        start: usize,
        end: usize,
    },
    /// `y = src[start..end, :]`
    SliceRows {
        src: NodeId,
        start: usize,
        end: usize,
    },
    /// `y = σ(a)`
    Sigmoid(NodeId),
    /// `y = LeakyReLU(a; slope)`
    LeakyRelu(NodeId, f32),
    /// `y = tanh(a)`
    Tanh(NodeId),
    /// `y = exp(a)`
    Exp(NodeId),
    /// `y = ln(a)` (requires positive input)
    Ln(NodeId),
    /// `y = a²`
    Square(NodeId),
    /// `y = softplus(a) = ln(1 + eᵃ)` (numerically stabilized)
    Softplus(NodeId),
    /// `y[i] = a[i] / max(‖a[i]‖₂, ε)` row-wise
    L2NormalizeRows(NodeId),
    /// `y[i] = a[i] · b[i]` row-wise dot → `n × 1`
    RowwiseDot(NodeId, NodeId),
    /// `y[i] = log Σ_j exp(a[i][j])` → `n × 1`
    LogsumexpRows(NodeId),
    /// `y[i] = a[i][i]` for square `a` → `n × 1`
    DiagNN(NodeId),
    /// `y = Σ a` → `1 × 1`
    SumAll(NodeId),
    /// `y = mean(a)` → `1 × 1`
    MeanAll(NodeId),
    /// `y = s · a` for a `1 × 1` scalar node `s` broadcast over `a`
    ScaleByScalar(NodeId, NodeId),
}

/// Stable softplus: `ln(1 + e^x) = max(x, 0) + ln(1 + e^{-|x|})`.
#[inline]
pub fn softplus(x: f32) -> f32 {
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softplus_is_stable_at_extremes() {
        assert!((softplus(100.0) - 100.0).abs() < 1e-4);
        assert!(softplus(-100.0).abs() < 1e-4);
        assert!((softplus(0.0) - (2.0f32).ln()).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(50.0) > 0.999_99);
        assert!(sigmoid(-50.0) < 1e-5);
        for x in [-3.0f32, -0.5, 0.7, 2.5] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sp_pair_symmetric_shares_allocation() {
        let c = Csr::identity(3);
        let p = SpPair::symmetric(c);
        assert!(Arc::ptr_eq(&p.m, &p.mt));
    }

    #[test]
    fn propagate_is_the_direct_spmm_call_for_either_adjacency() {
        use crate::Graph;
        let csr = Csr::from_coo(3, 3, vec![(0, 1, 0.5), (1, 0, 0.25), (2, 2, 1.0)]);
        let sp = SpPair::new(csr.clone());
        let pattern = Arc::new(csr);
        let mut g = Graph::new();
        let h = g.constant(Mat::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.3 - 0.4));
        let w = g.constant(Mat::from_vec(3, 1, vec![0.7, -0.2, 1.3]));
        let fixed = [g.spmm(&sp, h), g.propagate((&sp).into(), h)];
        let weighted = [
            g.spmm_ew(Arc::clone(&pattern), w, h),
            g.propagate(
                Adj::Weighted {
                    pattern: &pattern,
                    weights: w,
                },
                h,
            ),
        ];
        assert_eq!(g.value(fixed[0]), g.value(fixed[1]));
        assert_eq!(g.value(weighted[0]), g.value(weighted[1]));
    }

    #[test]
    fn sp_pair_new_transposes() {
        let c = Csr::from_coo(2, 3, vec![(0, 2, 1.0)]);
        let p = SpPair::new(c);
        assert_eq!(p.mt.n_rows(), 3);
        assert_eq!(p.mt.row(2).0, &[0u32]);
    }
}
