//! Shared neural building blocks for GNN collaborative filtering.
//!
//! These tape-level builders are used both by GraphAug and by every baseline
//! in `graphaug-baselines`: BPR pairwise ranking (paper Eq. 15), InfoNCE
//! contrastive alignment (Eq. 14), the standard-normal KL term of the GIB
//! bound (Eq. 9), LightGCN-style propagation, weight decay, and the
//! user / item split of a node-embedding table.

use std::sync::Arc;

use graphaug_tensor::{Adj, Graph, Mat, NodeId};

/// A BPR mini-batch as tape-ready index vectors. `pos`/`neg` are *node* ids
/// in the bipartite indexing (item `v` lives at `n_users + v`).
#[derive(Clone, Debug)]
pub struct BprBatch {
    /// Anchor users (bipartite node ids — equal to raw user ids).
    pub users: Arc<Vec<u32>>,
    /// Positive items, offset by `n_users`.
    pub pos: Arc<Vec<u32>>,
    /// Negative items, offset by `n_users`.
    pub neg: Arc<Vec<u32>>,
}

impl BprBatch {
    /// Builds a batch from raw sampler output, applying the item offset.
    pub fn from_raw(users: Vec<u32>, pos: Vec<u32>, neg: Vec<u32>, n_users: usize) -> Self {
        let off = n_users as u32;
        BprBatch {
            users: Arc::new(users),
            pos: Arc::new(pos.into_iter().map(|v| v + off).collect()),
            neg: Arc::new(neg.into_iter().map(|v| v + off).collect()),
        }
    }

    /// Batch size.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }
}

/// BPR loss `mean softplus(score_neg − score_pos)` (≡ `−log σ(pos − neg)`),
/// computed on rows of the node-embedding matrix `emb` (`(I+J) × d`).
pub fn bpr_loss(g: &mut Graph, emb: NodeId, batch: &BprBatch) -> NodeId {
    let eu = g.gather_rows(emb, Arc::clone(&batch.users));
    let ep = g.gather_rows(emb, Arc::clone(&batch.pos));
    let en = g.gather_rows(emb, Arc::clone(&batch.neg));
    let pos = g.rowwise_dot(eu, ep);
    let neg = g.rowwise_dot(eu, en);
    let margin = g.sub(neg, pos);
    let sp = g.softplus(margin);
    g.mean_all(sp)
}

/// InfoNCE alignment between two views (paper Eq. 14): cosine similarities
/// of the gathered rows, positives on the diagonal, full-batch negatives.
/// `idx` selects which rows (users or offset items) participate.
pub fn infonce_loss(
    g: &mut Graph,
    view_a: NodeId,
    view_b: NodeId,
    idx: &Arc<Vec<u32>>,
    temperature: f32,
) -> NodeId {
    debug_assert!(temperature > 0.0);
    let a = g.gather_rows(view_a, Arc::clone(idx));
    let b = g.gather_rows(view_b, Arc::clone(idx));
    let na = g.l2_normalize_rows(a);
    let nb = g.l2_normalize_rows(b);
    let sim = g.matmul_nt(na, nb);
    let scaled = g.scale(sim, 1.0 / temperature);
    let lse = g.logsumexp_rows(scaled);
    let pos = g.diag_nn(scaled);
    let diff = g.sub(lse, pos);
    g.mean_all(diff)
}

/// Mean KL divergence `KL(N(μ, diag σ²) ‖ N(0, I))` per element:
/// `0.5 (μ² + σ² − ln σ² − 1)`, where `sigma` must be strictly positive
/// (pass it through softplus first).
pub fn kl_std_normal(g: &mut Graph, mu: NodeId, sigma: NodeId) -> NodeId {
    let mu2 = g.square(mu);
    let s2 = g.square(sigma);
    let ln_s2 = g.ln(s2);
    let a = g.add(mu2, s2);
    let b = g.sub(a, ln_s2);
    let c = g.add_scalar(b, -1.0);
    let half = g.scale(c, 0.5);
    g.mean_all(half)
}

/// Sum of squared Frobenius norms of the given parameter nodes
/// (weight-decay / `‖Θ‖²_F` term of Eq. 16).
pub fn weight_decay(g: &mut Graph, params: &[NodeId]) -> NodeId {
    assert!(
        !params.is_empty(),
        "weight decay needs at least one parameter"
    );
    let mut total: Option<NodeId> = None;
    for &p in params {
        let sq = g.square(p);
        let s = g.sum_all(sq);
        total = Some(match total {
            Some(t) => g.add(t, s),
            None => s,
        });
    }
    total.expect("non-empty params")
}

/// LightGCN propagation: `L` rounds of `H ← Ã H` with a mean readout over
/// `{H⁰, …, H^L}` — no transforms, no nonlinearity. `adj` is the clean
/// adjacency (`&SpPair`) or a weighted view ([`Adj::Weighted`]); this is
/// also GraphAug's "w/o Mixhop" encoder.
pub fn lightgcn_propagate<'a>(
    g: &mut Graph,
    adj: impl Into<Adj<'a>>,
    h0: NodeId,
    layers: usize,
) -> NodeId {
    let adj = adj.into();
    let mut h = h0;
    let mut acc = h0;
    for _ in 0..layers {
        h = g.propagate(adj, h);
        acc = g.add(acc, h);
    }
    g.scale(acc, 1.0 / (layers as f32 + 1.0))
}

/// Splits an `(I+J) × d` node-embedding matrix into its user and item
/// blocks (rows `0..I` and `I..I+J`).
pub fn split_embeddings(all: &Mat, n_users: usize, n_items: usize) -> (Mat, Mat) {
    let d = all.cols();
    debug_assert_eq!(all.rows(), n_users + n_items);
    let mut u = Mat::zeros(n_users, d);
    let mut i = Mat::zeros(n_items, d);
    for r in 0..n_users {
        u.row_mut(r).copy_from_slice(all.row(r));
    }
    for r in 0..n_items {
        i.row_mut(r).copy_from_slice(all.row(n_users + r));
    }
    (u, i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphaug_sparse::Csr;
    use graphaug_tensor::SpPair;

    #[test]
    fn bpr_prefers_higher_positive_scores() {
        // Embeddings engineered so user 0 scores pos=1 high, neg=2 low.
        let emb_good = Mat::from_vec(3, 2, vec![1.0, 0.0, 1.0, 0.0, -1.0, 0.0]);
        let emb_bad = Mat::from_vec(3, 2, vec![1.0, 0.0, -1.0, 0.0, 1.0, 0.0]);
        let batch = BprBatch {
            users: Arc::new(vec![0]),
            pos: Arc::new(vec![1]),
            neg: Arc::new(vec![2]),
        };
        let mut g = Graph::new();
        let e1 = g.constant(emb_good);
        let l1 = bpr_loss(&mut g, e1, &batch);
        let e2 = g.constant(emb_bad);
        let l2 = bpr_loss(&mut g, e2, &batch);
        assert!(g.value(l1).item() < g.value(l2).item());
    }

    #[test]
    fn infonce_is_low_when_views_match() {
        let idx = Arc::new(vec![0u32, 1, 2]);
        let aligned = Mat::from_fn(3, 4, |r, c| ((r * 4 + c) as f32 * 1.3).sin());
        let shuffled = Mat::from_fn(3, 4, |r, c| (((2 - r) * 4 + c) as f32 * 1.3).sin());
        let mut g = Graph::new();
        let a = g.constant(aligned.clone());
        let b = g.constant(aligned.clone());
        let l_match = infonce_loss(&mut g, a, b, &idx, 0.5);
        let c = g.constant(aligned);
        let d = g.constant(shuffled);
        let l_mismatch = infonce_loss(&mut g, c, d, &idx, 0.5);
        assert!(g.value(l_match).item() < g.value(l_mismatch).item());
    }

    #[test]
    fn kl_is_zero_at_standard_normal() {
        let mut g = Graph::new();
        let mu = g.constant(Mat::zeros(4, 3));
        let sigma = g.constant(Mat::filled(4, 3, 1.0));
        let kl = kl_std_normal(&mut g, mu, sigma);
        assert!(g.value(kl).item().abs() < 1e-6);
    }

    #[test]
    fn kl_grows_with_mean_shift() {
        let mut g = Graph::new();
        let mu = g.constant(Mat::filled(2, 2, 2.0));
        let sigma = g.constant(Mat::filled(2, 2, 1.0));
        let kl = kl_std_normal(&mut g, mu, sigma);
        assert!((g.value(kl).item() - 2.0).abs() < 1e-5);
    }

    #[test]
    fn weight_decay_sums_frobenius_norms() {
        let mut g = Graph::new();
        let a = g.constant(Mat::filled(2, 2, 1.0));
        let b = g.constant(Mat::filled(1, 3, 2.0));
        let wd = weight_decay(&mut g, &[a, b]);
        assert!((g.value(wd).item() - 16.0).abs() < 1e-5);
    }

    #[test]
    fn lightgcn_identity_adjacency_is_identity() {
        let mut g = Graph::new();
        let adj = SpPair::symmetric(Csr::identity(3));
        let h0 = g.constant(Mat::from_fn(3, 2, |r, c| (r + c) as f32));
        let out = lightgcn_propagate(&mut g, &adj, h0, 3);
        assert_eq!(g.value(out), g.value(h0));
    }

    #[test]
    fn edge_weighted_propagation_matches_constant_weights() {
        let csr = Csr::from_coo(3, 3, vec![(0, 1, 0.5), (1, 0, 0.5), (2, 2, 1.0)]);
        let pattern = Arc::new(csr.clone());
        let mut g = Graph::new();
        let adj = SpPair::symmetric(csr.clone());
        let h0 = g.constant(Mat::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.3));
        let dense_out = lightgcn_propagate(&mut g, &adj, h0, 2);
        let w = g.constant(Mat::from_vec(3, 1, csr.data().to_vec()));
        let view = Adj::Weighted {
            pattern: &pattern,
            weights: w,
        };
        let ew_out = lightgcn_propagate(&mut g, view, h0, 2);
        for (a, b) in g
            .value(dense_out)
            .as_slice()
            .iter()
            .zip(g.value(ew_out).as_slice())
        {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
