//! Shared infrastructure for the baseline recommenders.

use std::sync::Arc;

use graphaug_rng::StdRng;

use graphaug_core::GraphAug;
use graphaug_eval::Recommender;
use graphaug_graph::InteractionGraph;
use graphaug_tensor::{Graph, Mat, NodeId};

/// Training hyperparameters shared by all baselines (mirroring the paper's
/// common protocol: Adam, BPR batches, fixed epoch budget).
#[derive(Clone, Debug)]
pub struct BaselineOpts {
    /// Embedding dimension.
    pub embed_dim: usize,
    /// Propagation layers (GNN models).
    pub layers: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Optimization steps per epoch.
    pub steps_per_epoch: usize,
    /// BPR triplets per step.
    pub bpr_batch: usize,
    /// Contrastive batch size (SSL models).
    pub cl_batch: usize,
    /// InfoNCE temperature.
    pub temperature: f32,
    /// SSL loss weight.
    pub ssl_weight: f32,
    /// Weight decay coefficient.
    pub weight_decay: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BaselineOpts {
    fn default() -> Self {
        BaselineOpts {
            embed_dim: 32,
            layers: 2,
            learning_rate: 5e-3,
            epochs: 40,
            steps_per_epoch: 6,
            bpr_batch: 1024,
            cl_batch: 256,
            temperature: 0.5,
            ssl_weight: 0.05,
            weight_decay: 1e-5,
            seed: 2024,
        }
    }
}

impl BaselineOpts {
    /// Fast settings for unit tests.
    pub fn fast_test() -> Self {
        BaselineOpts {
            embed_dim: 16,
            epochs: 8,
            steps_per_epoch: 3,
            bpr_batch: 256,
            cl_batch: 64,
            seed: 7,
            ..Default::default()
        }
    }

    /// Sets the epoch budget.
    pub fn epochs(mut self, e: usize) -> Self {
        self.epochs = e;
        self
    }

    /// Sets the embedding dimension.
    pub fn embed_dim(mut self, d: usize) -> Self {
        self.embed_dim = d;
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }
}

/// A uniformly trainable model: every baseline (and GraphAug, via the
/// adapter below) exposes epoch-wise training with an embedding callback so
/// the harness can record convergence curves (Fig. 4).
pub trait Trainable: Recommender {
    /// Trains the model, invoking `on_epoch(epoch, user_emb, item_emb)`
    /// after every epoch.
    fn fit_with(&mut self, on_epoch: &mut dyn FnMut(usize, &Mat, &Mat));

    /// Trains without a callback.
    fn fit(&mut self) {
        self.fit_with(&mut |_, _, _| {});
    }
}

impl Trainable for GraphAug {
    fn fit_with(&mut self, on_epoch: &mut dyn FnMut(usize, &Mat, &Mat)) {
        GraphAug::fit_with(self, |e, u, i| on_epoch(e, u, i));
    }
}

/// Builds a constant random edge-keep weight vector for SGL-style edge
/// dropout over a directed pattern: kept entries carry `norm/keep_prob`
/// (inverted-dropout scaling), dropped entries are 0. The two directed
/// copies of one undirected edge are dropped together.
pub fn edge_dropout_weights(
    n_undirected: usize,
    dir_to_undir: &[u32],
    norm: &Mat,
    keep_prob: f32,
    rng: &mut StdRng,
) -> Arc<Mat> {
    let keep: Vec<bool> = (0..n_undirected)
        .map(|_| rng.random_range(0.0f32..1.0) < keep_prob)
        .collect();
    let scale = 1.0 / keep_prob.max(1e-6);
    Arc::new(Mat::from_fn(dir_to_undir.len(), 1, |r, _| {
        if keep[dir_to_undir[r] as usize] {
            norm.get(r, 0) * scale
        } else {
            0.0
        }
    }))
}

/// Lloyd's k-means over matrix rows (used by NCL's EM prototype step).
/// Returns `(assignment, centroids)`; empty clusters are re-seeded from the
/// farthest point.
pub fn kmeans(data: &Mat, k: usize, iters: usize, seed: u64) -> (Vec<usize>, Mat) {
    let (n, d) = data.shape();
    assert!(k >= 1 && n >= k, "need at least k rows");
    let mut rng = graphaug_tensor::init::seeded_rng(seed);
    // Initialize centroids from distinct random rows.
    let mut order: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.random_range(i..n);
        order.swap(i, j);
    }
    let mut centroids = Mat::zeros(k, d);
    for (c, &row) in order.iter().enumerate().take(k) {
        centroids.row_mut(c).copy_from_slice(data.row(row));
    }
    let mut assign = vec![0usize; n];
    for _ in 0..iters {
        // Assignment step.
        for (r, a) in assign.iter_mut().enumerate() {
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for c in 0..k {
                let dist: f32 = data
                    .row(r)
                    .iter()
                    .zip(centroids.row(c))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                if dist < best_d {
                    best_d = dist;
                    best = c;
                }
            }
            *a = best;
        }
        // Update step.
        let mut counts = vec![0usize; k];
        let mut sums = Mat::zeros(k, d);
        for r in 0..n {
            counts[assign[r]] += 1;
            let crow = sums.row_mut(assign[r]);
            for (o, &x) in crow.iter_mut().zip(data.row(r)) {
                *o += x;
            }
        }
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                let j = rng.random_range(0..n);
                centroids.row_mut(c).copy_from_slice(data.row(j));
            } else {
                let inv = 1.0 / count as f32;
                let crow = centroids.row_mut(c);
                for (o, &s) in crow.iter_mut().zip(sums.row(c)) {
                    *o = s * inv;
                }
            }
        }
    }
    (assign, centroids)
}

/// Bipartite interaction matrix of a graph as a dense constant row per user
/// (AutoRec input). Returns `(users × items)` with 1.0 at interactions.
pub fn interaction_rows(train: &InteractionGraph, users: &[u32]) -> Mat {
    let mut m = Mat::zeros(users.len(), train.n_items());
    for (i, &u) in users.iter().enumerate() {
        for &v in train.items_of(u as usize) {
            m.set(i, v as usize, 1.0);
        }
    }
    m
}

/// Softmax across the columns of an `n × k` node, built from primitive ops
/// (`exp(x − logsumexp_row)` broadcast per column slice).
pub fn softmax_cols(g: &mut Graph, x: NodeId, k: usize) -> Vec<NodeId> {
    let lse = g.logsumexp_rows(x);
    (0..k)
        .map(|c| {
            let xc = g.slice_cols(x, c, c + 1);
            let diff = g.sub(xc, lse);
            g.exp(diff)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Uniform training driver for tape-based CF models.
// ---------------------------------------------------------------------------

use graphaug_core::nn::{split_embeddings, BprBatch};
use graphaug_graph::TripletSampler;
use graphaug_tensor::{Optimizer, ParamId, ParamStore, SpPair};

/// Shared state of every graph-CF baseline: options, training graph,
/// normalized adjacency, parameter store, and cached final embeddings.
pub struct CfCore {
    /// Training options.
    pub opts: BaselineOpts,
    /// The training interactions.
    pub train: InteractionGraph,
    /// Symmetric-normalized bipartite adjacency (no self-loops).
    pub adj: SpPair,
    /// Parameter store (persists Adam state across steps).
    pub store: ParamStore,
    /// Cached user embeddings after the last refresh.
    pub user_emb: Mat,
    /// Cached item embeddings after the last refresh.
    pub item_emb: Mat,
    /// Model RNG.
    pub rng: StdRng,
}

impl CfCore {
    /// Builds the shared state for a training graph.
    pub fn new(opts: BaselineOpts, train: &InteractionGraph) -> Self {
        let adj = SpPair::symmetric(train.normalized_adjacency_plain());
        let rng = graphaug_tensor::init::seeded_rng(opts.seed);
        CfCore {
            user_emb: Mat::zeros(train.n_users(), opts.embed_dim),
            item_emb: Mat::zeros(train.n_items(), opts.embed_dim),
            opts,
            train: train.clone(),
            adj,
            store: ParamStore::new(),
            rng,
        }
    }
}

/// The per-model hooks consumed by [`fit_cf`]: an evaluation encoder and a
/// per-step loss builder. Implementing this plus the
/// `impl_recommender_trainable!` macro gives a model the full
/// [`Recommender`]/[`Trainable`] surface.
pub trait CfModel {
    /// Shared state accessor.
    fn core(&self) -> &CfCore;
    /// Shared state accessor.
    fn core_mut(&mut self) -> &mut CfCore;
    /// Display name.
    fn model_name(&self) -> &'static str;
    /// Builds the deterministic evaluation encoder; returns the
    /// `(I+J) × d'` node-embedding node.
    fn encode_eval(&mut self, g: &mut Graph) -> NodeId;
    /// Builds one training step; returns the scalar loss and the
    /// `(param, node)` pairs to update.
    fn build_step(&mut self, g: &mut Graph, batch: &BprBatch) -> (NodeId, Vec<(ParamId, NodeId)>);
    /// Hook invoked after each epoch (EM steps, re-clustering, …).
    fn on_epoch_end(&mut self, _epoch: usize) {}
}

/// Recomputes and caches the model's final embeddings.
pub fn refresh_cf<M: CfModel + ?Sized>(m: &mut M) {
    let mut g = Graph::new();
    let emb = m.encode_eval(&mut g);
    let all = g.value(emb).clone();
    let c = m.core_mut();
    let (u, i) = split_embeddings(&all, c.train.n_users(), c.train.n_items());
    c.user_emb = u;
    c.item_emb = i;
}

/// The shared epoch/step training loop (Adam on BPR batches), with an
/// embedding callback after every epoch.
pub fn fit_cf<M: CfModel + ?Sized>(m: &mut M, on_epoch: &mut dyn FnMut(usize, &Mat, &Mat)) {
    let train = m.core().train.clone();
    let opts = m.core().opts.clone();
    let mut sampler = TripletSampler::new(&train, opts.seed ^ 0x5a5a_1234);
    for epoch in 0..opts.epochs {
        for _ in 0..opts.steps_per_epoch {
            let (users, pos, neg) = sampler.sample_batch(opts.bpr_batch);
            let batch = BprBatch::from_raw(users, pos, neg, train.n_users());
            let mut g = Graph::new();
            let (loss, pairs) = m.build_step(&mut g, &batch);
            g.backward(loss);
            m.core_mut()
                .store
                .apply_grads(&g, &pairs, Optimizer::adam(opts.learning_rate));
        }
        m.on_epoch_end(epoch);
        refresh_cf(m);
        let c = m.core();
        on_epoch(epoch, &c.user_emb, &c.item_emb);
    }
}

/// Adds the weight-decay term over all parameter nodes to `loss`.
pub fn with_weight_decay(
    g: &mut Graph,
    loss: NodeId,
    pairs: &[(ParamId, NodeId)],
    coeff: f32,
) -> NodeId {
    let nodes: Vec<NodeId> = pairs.iter().map(|&(_, n)| n).collect();
    let wd = graphaug_core::nn::weight_decay(g, &nodes);
    let scaled = g.scale(wd, coeff);
    g.add(loss, scaled)
}

/// Generates `Recommender` + `Trainable` impls for a [`CfModel`] type.
macro_rules! impl_recommender_trainable {
    ($ty:ty) => {
        impl graphaug_eval::Recommender for $ty {
            fn name(&self) -> &str {
                self.model_name()
            }
            fn embeddings(&self) -> Option<(&graphaug_tensor::Mat, &graphaug_tensor::Mat)> {
                let c = self.core();
                Some((&c.user_emb, &c.item_emb))
            }
        }
        impl $crate::common::Trainable for $ty {
            fn fit_with(
                &mut self,
                on_epoch: &mut dyn FnMut(usize, &graphaug_tensor::Mat, &graphaug_tensor::Mat),
            ) {
                $crate::common::fit_cf(self, on_epoch);
            }
        }
    };
}
pub(crate) use impl_recommender_trainable;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_embeddings_partitions_rows() {
        let all = Mat::from_fn(5, 2, |r, c| (r * 2 + c) as f32);
        let (u, i) = split_embeddings(&all, 2, 3);
        assert_eq!(u.shape(), (2, 2));
        assert_eq!(i.shape(), (3, 2));
        assert_eq!(i.get(0, 0), 4.0);
    }

    #[test]
    fn edge_dropout_pairs_directions() {
        let dir_to_undir = vec![0u32, 1, 0, 1];
        let norm = Mat::filled(4, 1, 0.5);
        let mut rng = graphaug_tensor::init::seeded_rng(3);
        let w = edge_dropout_weights(2, &dir_to_undir, &norm, 0.5, &mut rng);
        // Directed copies of the same undirected edge share fate.
        assert_eq!(w.get(0, 0) == 0.0, w.get(2, 0) == 0.0);
        assert_eq!(w.get(1, 0) == 0.0, w.get(3, 0) == 0.0);
    }

    #[test]
    fn edge_dropout_scales_kept_edges() {
        let dir_to_undir = vec![0u32];
        let norm = Mat::filled(1, 1, 0.4);
        let mut rng = graphaug_tensor::init::seeded_rng(1);
        let w = edge_dropout_weights(1, &dir_to_undir, &norm, 1.0, &mut rng);
        assert!((w.get(0, 0) - 0.4).abs() < 1e-6);
    }

    #[test]
    fn kmeans_separates_two_blobs() {
        let data = Mat::from_fn(20, 2, |r, _| if r < 10 { 0.0 } else { 10.0 });
        let (assign, centroids) = kmeans(&data, 2, 10, 5);
        assert_ne!(assign[0], assign[19]);
        assert!(assign[..10].iter().all(|&a| a == assign[0]));
        assert!(assign[10..].iter().all(|&a| a == assign[19]));
        let lo = centroids.get(assign[0], 0);
        let hi = centroids.get(assign[19], 0);
        assert!((lo - 0.0).abs() < 1.0 && (hi - 10.0).abs() < 1.0);
    }

    #[test]
    fn interaction_rows_are_binary() {
        let g = InteractionGraph::new(2, 4, vec![(0, 1), (1, 3)]);
        let m = interaction_rows(&g, &[0, 1]);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 3), 1.0);
        assert_eq!(m.as_slice().iter().sum::<f32>(), 2.0);
    }

    #[test]
    fn softmax_cols_sums_to_one() {
        let mut g = Graph::new();
        let x = g.constant(Mat::from_fn(3, 4, |r, c| (r as f32 - c as f32) * 0.7));
        let cols = softmax_cols(&mut g, x, 4);
        for r in 0..3 {
            let total: f32 = cols.iter().map(|&c| g.value(c).get(r, 0)).sum();
            assert!((total - 1.0).abs() < 1e-5);
        }
    }
}
