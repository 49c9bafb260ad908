//! The learnable GIB-regularized graph augmentor (paper Eq. 4–5).
//!
//! For every observed interaction `(u, v)` the augmentor scores the edge
//! with an MLP over disturbed, masked node embeddings (Eq. 4), relaxes the
//! Bernoulli keep-decision with Gumbel/concrete reparameterization (Eq. 5),
//! and thresholds at `ξ` via a straight-through constant mask. The resulting
//! per-edge weights multiply the fixed symmetric-normalization coefficients
//! of the bipartite adjacency, producing a *differentiable* sampled view —
//! an [`Adj::Weighted`] whose gradients reach the MLP and the encoder
//! through `Graph::propagate`.

use std::sync::Arc;

use graphaug_rng::StdRng;

use graphaug_graph::InteractionGraph;
use graphaug_sparse::{sym_norm_weights, Csr};
use graphaug_tensor::{init, Adj, Graph, Mat, NodeId};

/// Precomputed structure of the augmentable bipartite adjacency: the CSR
/// pattern, the map from stored (directed) entries back to undirected edge
/// ids, the per-entry normalization constants, and the endpoints of every
/// undirected edge.
pub struct EdgeIndex {
    /// Symmetric `(I+J) × (I+J)` bipartite pattern (values unused).
    pub pattern: Arc<Csr>,
    /// For each stored entry (CSR order): the undirected edge id in
    /// `0..n_edges`.
    pub dir_to_undir: Arc<Vec<u32>>,
    /// Per stored entry: `1/sqrt(deg(r)·deg(c))` of the clean adjacency.
    pub norm: Arc<Mat>,
    /// Per undirected edge: user endpoint (bipartite node id).
    pub edge_users: Arc<Vec<u32>>,
    /// Per undirected edge: item endpoint (bipartite node id, offset by I).
    pub edge_items: Arc<Vec<u32>>,
}

impl EdgeIndex {
    /// Builds the index from a training graph.
    pub fn build(train: &InteractionGraph) -> Self {
        let n_users = train.n_users();
        let n = train.n_nodes();
        let edges = train.edges();
        // Encode the undirected edge id as the COO value so the CSR sort
        // carries the mapping along.
        let mut triplets = Vec::with_capacity(edges.len() * 2);
        for (k, &(u, v)) in edges.iter().enumerate() {
            let vi = n_users as u32 + v;
            triplets.push((u, vi, k as f32));
            triplets.push((vi, u, k as f32));
        }
        let carrier = Csr::from_coo(n, n, triplets);
        let dir_to_undir: Vec<u32> = carrier.data().iter().map(|&v| v as u32).collect();
        let pattern = carrier.map_data(|_| 1.0);
        let norm_vals = sym_norm_weights(&pattern);
        let edge_users: Vec<u32> = edges.iter().map(|&(u, _)| u).collect();
        let edge_items: Vec<u32> = edges.iter().map(|&(_, v)| n_users as u32 + v).collect();
        EdgeIndex {
            norm: Arc::new(Mat::from_vec(norm_vals.len(), 1, norm_vals)),
            pattern: Arc::new(pattern),
            dir_to_undir: Arc::new(dir_to_undir),
            edge_users: Arc::new(edge_users),
            edge_items: Arc::new(edge_items),
        }
    }

    /// Number of undirected interactions.
    pub fn n_edges(&self) -> usize {
        self.edge_users.len()
    }

    /// The view adjacency whose undirected edge weights are the `E × 1`
    /// node `w`: each weight goes to both stored directions of its edge and
    /// is scaled by the clean symmetric normalization. This is the one
    /// constructor of learned views.
    pub fn view(&self, g: &mut Graph, w: NodeId) -> Adj<'_> {
        let directed = g.gather_rows(w, Arc::clone(&self.dir_to_undir));
        let weights = g.mul_const(directed, Arc::clone(&self.norm));
        Adj::Weighted {
            pattern: &self.pattern,
            weights,
        }
    }
}

/// Tape nodes of the augmentor MLP parameters.
#[derive(Clone, Copy)]
pub struct AugmentorNodes {
    /// First layer weight `(2d × h)`.
    pub w1: NodeId,
    /// First layer bias `(1 × h)`.
    pub b1: NodeId,
    /// Output weight `(h × 1)`.
    pub w2: NodeId,
    /// Output bias `(1 × 1)`.
    pub b2: NodeId,
}

/// Hyperparameters consumed by [`sample_view`].
#[derive(Clone, Copy, Debug)]
pub struct AugmentorSettings {
    /// Gumbel/concrete temperature `τ₁`.
    pub gumbel_temperature: f32,
    /// Keep threshold `ξ`.
    pub edge_threshold: f32,
    /// Feature-mask keep probability (Eq. 4's `m`).
    pub feature_keep_prob: f32,
    /// Feature-noise std (Eq. 4's `ε`).
    pub feature_noise_std: f32,
    /// LeakyReLU slope inside the MLP.
    pub leaky_slope: f32,
}

/// Output of one sampled view.
pub struct SampledView<'a> {
    /// The view adjacency: per stored entry, soft keep probability ×
    /// normalization ([`EdgeIndex::view`]).
    pub adj: Adj<'a>,
    /// Fraction of edges surviving the hard threshold (diagnostic).
    pub kept_fraction: f32,
}

/// Computes the per-edge logits `MLP(h̃_u ‖ h̃_v)` of Eq. 4 over disturbed,
/// masked embeddings, returning the logits node (`E × 1`).
pub fn edge_logits(
    g: &mut Graph,
    h_bar: NodeId,
    idx: &EdgeIndex,
    mlp: &AugmentorNodes,
    settings: &AugmentorSettings,
    rng: &mut StdRng,
) -> NodeId {
    let (n, d) = g.value(h_bar).shape();
    // Eq. 4: h̃ = (h̄ − ε) ⊙ m + ε with Bernoulli mask m and Gaussian ε.
    // Both constants are drawn through the parallel bulk fills (per-chunk
    // derived streams keyed off this sampler's rng), which replaces ~2·n·d
    // serial Box–Muller/uniform calls with the faster polar method and
    // scales across threads; only the two `next_u64` seed draws touch the
    // caller's stream.
    let keep = settings.feature_keep_prob;
    let mut mask_m = Mat::zeros(n, d);
    init::par_fill_bernoulli(mask_m.as_mut_slice(), keep, rng.next_u64());
    let mask = Arc::new(mask_m);
    let std = settings.feature_noise_std;
    let mut noise_m = Mat::zeros(n, d);
    init::par_fill_normal(noise_m.as_mut_slice(), std, rng.next_u64());
    let neg_noise = Arc::new(noise_m.map(|x| -x));
    let noise = Arc::new(noise_m);
    let shifted = g.add_const(h_bar, neg_noise);
    let masked = g.mul_const(shifted, mask);
    let disturbed = g.add_const(masked, noise);

    // The first layer is linear over the concatenation, so it splits per
    // endpoint: [h̃_u ‖ h̃_v]·W1 = h̃_u·W1[..d] + h̃_v·W1[d..]. Every node is
    // projected once through each half (n × h) and the projections are
    // gathered per edge — no E × 2d feature matrix is ever built.
    let w1_user = g.slice_rows(mlp.w1, 0, d);
    let w1_item = g.slice_rows(mlp.w1, d, 2 * d);
    let p = g.matmul(disturbed, w1_user);
    let q = g.matmul(disturbed, w1_item);
    let pu = g.gather_rows(p, Arc::clone(&idx.edge_users));
    let qv = g.gather_rows(q, Arc::clone(&idx.edge_items));
    let z1 = g.add(pu, qv);
    let z1b = g.add_row_broadcast(z1, mlp.b1);
    let hidden = g.leaky_relu(z1b, settings.leaky_slope);
    let z2 = g.matmul(hidden, mlp.w2);
    g.add_row_broadcast(z2, mlp.b2)
}

/// Draws one reparameterized view (Eq. 5) from fresh Gumbel noise.
///
/// `ā = σ((logit p + logit ε′)/τ₁)`; entries with `ā ≤ ξ` are zeroed by a
/// straight-through constant mask. The returned view carries each weight on
/// both directed copies of its edge, scaled by the clean normalization.
pub fn sample_view<'a>(
    g: &mut Graph,
    logits: NodeId,
    idx: &'a EdgeIndex,
    settings: &AugmentorSettings,
    rng: &mut StdRng,
) -> SampledView<'a> {
    let e = idx.n_edges();
    assert_eq!(
        g.value(logits).shape(),
        (e, 1),
        "one logit per undirected edge"
    );

    // logit(p) + logit(ε′), ε′ ~ U(0,1): the logistic-noise (Gumbel
    // difference) form of the binary concrete distribution, drawn through
    // the parallel bulk fill (per-chunk derived streams).
    let mut gumbel_m = Mat::zeros(e, 1);
    init::par_fill_logistic(gumbel_m.as_mut_slice(), rng.next_u64());
    let gumbel = Arc::new(gumbel_m);
    let noisy = g.add_const(logits, gumbel);
    let sharpened = g.scale(noisy, 1.0 / settings.gumbel_temperature);
    let soft = g.sigmoid(sharpened);

    // Straight-through hard threshold ξ as a constant mask over the soft
    // Bernoulli weights (keeps Eq. 5's two-case form differentiable).
    let xi = settings.edge_threshold;
    let soft_vals = g.value(soft);
    let mut kept = 0usize;
    let mask = Arc::new(Mat::from_fn(e, 1, |r, _| {
        if soft_vals.get(r, 0) > xi {
            kept += 1;
            1.0
        } else {
            0.0
        }
    }));
    let hard = g.mul_const(soft, mask);
    SampledView {
        adj: idx.view(g, hard),
        kept_fraction: kept as f32 / e.max(1) as f32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphaug_tensor::init::seeded_rng;

    fn toy_graph() -> InteractionGraph {
        InteractionGraph::new(3, 4, vec![(0, 0), (0, 2), (1, 1), (1, 3), (2, 0), (2, 3)])
    }

    fn settings() -> AugmentorSettings {
        AugmentorSettings {
            gumbel_temperature: 0.5,
            edge_threshold: 0.2,
            feature_keep_prob: 0.9,
            feature_noise_std: 0.1,
            leaky_slope: 0.5,
        }
    }

    fn mlp_nodes(g: &mut Graph, d: usize, h: usize) -> AugmentorNodes {
        AugmentorNodes {
            w1: g.constant(Mat::from_fn(2 * d, h, |r, c| {
                ((r + c) as f32 * 0.13).sin() * 0.4
            })),
            b1: g.constant(Mat::zeros(1, h)),
            w2: g.constant(Mat::from_fn(h, 1, |r, _| ((r as f32) * 0.21).cos() * 0.4)),
            b2: g.constant(Mat::zeros(1, 1)),
        }
    }

    #[test]
    fn edge_index_maps_both_directions() {
        let idx = EdgeIndex::build(&toy_graph());
        assert_eq!(idx.n_edges(), 6);
        assert_eq!(idx.pattern.nnz(), 12);
        assert_eq!(idx.dir_to_undir.len(), 12);
        // Every undirected edge id appears exactly twice.
        let mut counts = [0usize; 6];
        for &k in idx.dir_to_undir.iter() {
            counts[k as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 2));
        // Endpoint arrays are consistent with the original edges.
        assert_eq!(idx.edge_users[0], 0);
        assert_eq!(idx.edge_items[0], 3); // item 0 offset by 3 users
    }

    #[test]
    fn logits_have_one_row_per_edge() {
        let train = toy_graph();
        let idx = EdgeIndex::build(&train);
        let mut g = Graph::new();
        let d = 4;
        let h_bar = g.constant(Mat::from_fn(train.n_nodes(), d, |r, c| {
            ((r * d + c) as f32 * 0.3).sin()
        }));
        let mlp = mlp_nodes(&mut g, d, 3);
        let mut rng = seeded_rng(1);
        let logits = edge_logits(&mut g, h_bar, &idx, &mlp, &settings(), &mut rng);
        assert_eq!(g.value(logits).shape(), (6, 1));
    }

    fn weights(g: &Graph, view: &SampledView<'_>) -> Mat {
        let Adj::Weighted { weights, .. } = view.adj else {
            panic!("a sampled view is edge-weighted");
        };
        g.value(weights).clone()
    }

    #[test]
    fn sampled_views_differ() {
        let train = toy_graph();
        let idx = EdgeIndex::build(&train);
        let mut g = Graph::new();
        let d = 4;
        let h_bar = g.constant(Mat::from_fn(train.n_nodes(), d, |r, c| {
            ((r * d + c) as f32 * 0.3).sin()
        }));
        let mlp = mlp_nodes(&mut g, d, 3);
        let mut rng = seeded_rng(2);
        let logits = edge_logits(&mut g, h_bar, &idx, &mlp, &settings(), &mut rng);
        let v1 = sample_view(&mut g, logits, &idx, &settings(), &mut rng);
        let v2 = sample_view(&mut g, logits, &idx, &settings(), &mut rng);
        assert_eq!(weights(&g, &v1).shape(), (12, 1));
        // Same logits, different Gumbel draws.
        assert_ne!(weights(&g, &v1), weights(&g, &v2));
    }

    #[test]
    fn view_weights_are_bounded_by_normalization() {
        let train = toy_graph();
        let idx = EdgeIndex::build(&train);
        let mut g = Graph::new();
        let d = 4;
        let h_bar = g.constant(Mat::filled(train.n_nodes(), d, 0.2));
        let mlp = mlp_nodes(&mut g, d, 3);
        let mut rng = seeded_rng(3);
        let logits = edge_logits(&mut g, h_bar, &idx, &mlp, &settings(), &mut rng);
        let v = sample_view(&mut g, logits, &idx, &settings(), &mut rng);
        // 0 ≤ weight ≤ norm coefficient (soft prob ∈ [0,1]).
        for (w, n) in weights(&g, &v).as_slice().iter().zip(idx.norm.as_slice()) {
            assert!(*w >= 0.0 && *w <= *n + 1e-6);
        }
    }

    #[test]
    fn high_threshold_prunes_more_edges() {
        let train = toy_graph();
        let idx = EdgeIndex::build(&train);
        let mut g = Graph::new();
        let d = 4;
        let h_bar = g.constant(Mat::from_fn(train.n_nodes(), d, |r, c| {
            ((r + c) as f32 * 0.37).sin()
        }));
        let mlp = mlp_nodes(&mut g, d, 3);
        let mut low = settings();
        low.edge_threshold = 0.0;
        let mut high = settings();
        high.edge_threshold = 0.9;
        let mut rng = seeded_rng(4);
        let logits = edge_logits(&mut g, h_bar, &idx, &mlp, &low, &mut rng);
        let mut rng_a = seeded_rng(5);
        let va = sample_view(&mut g, logits, &idx, &low, &mut rng_a);
        let mut rng_b = seeded_rng(5);
        let vb = sample_view(&mut g, logits, &idx, &high, &mut rng_b);
        assert!(va.kept_fraction >= vb.kept_fraction);
        assert!(va.kept_fraction > 0.99); // ξ=0 keeps everything
    }
}
