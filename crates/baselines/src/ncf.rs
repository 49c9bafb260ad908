//! NCF (He et al., 2017): neural collaborative filtering combining a GMF
//! branch (element-wise product of user/item embeddings) with an MLP branch
//! over the concatenated embeddings, fused by a linear output head. Trained
//! with BPR over the fused scores.

use std::sync::Arc;

use graphaug_eval::Recommender;
use graphaug_graph::{InteractionGraph, TripletSampler};
use graphaug_tensor::init::xavier_uniform;
use graphaug_tensor::{Graph, Mat, NodeId, Optimizer, ParamId, ParamStore};

use crate::common::{BaselineOpts, Trainable};

/// The NCF model. Not a dot-product scorer: [`Recommender::score_items`] runs
/// the fused GMF+MLP head directly.
pub struct Ncf {
    opts: BaselineOpts,
    train: InteractionGraph,
    store: ParamStore,
    p_gmf: ParamId,
    p_mlp_emb: ParamId,
    p_w1: ParamId,
    p_b1: ParamId,
    p_w2: ParamId,
    p_b2: ParamId,
    p_out: ParamId,
}

impl Ncf {
    /// Initializes NCF for the training graph.
    pub fn new(opts: BaselineOpts, train: &InteractionGraph) -> Self {
        let d = opts.embed_dim;
        let n = train.n_nodes();
        let mut rng = graphaug_tensor::init::seeded_rng(opts.seed);
        let mut store = ParamStore::new();
        let h = d;
        let h2 = (d / 2).max(2);
        Ncf {
            p_gmf: store.register(xavier_uniform(n, d, &mut rng)),
            p_mlp_emb: store.register(xavier_uniform(n, d, &mut rng)),
            p_w1: store.register(xavier_uniform(2 * d, h, &mut rng)),
            p_b1: store.register(Mat::zeros(1, h)),
            p_w2: store.register(xavier_uniform(h, h2, &mut rng)),
            p_b2: store.register(Mat::zeros(1, h2)),
            p_out: store.register(xavier_uniform(d + h2, 1, &mut rng)),
            opts,
            train: train.clone(),
            store,
        }
    }

    /// Builds the fused score node for `(user, item)` index vectors.
    #[allow(clippy::too_many_arguments)]
    fn score_node(
        &self,
        g: &mut Graph,
        gmf: NodeId,
        mlp: NodeId,
        w1: NodeId,
        b1: NodeId,
        w2: NodeId,
        b2: NodeId,
        out: NodeId,
        users: &Arc<Vec<u32>>,
        items: &Arc<Vec<u32>>,
    ) -> NodeId {
        let gu = g.gather_rows(gmf, Arc::clone(users));
        let gi = g.gather_rows(gmf, Arc::clone(items));
        let gmf_feat = g.mul(gu, gi);
        let mu = g.gather_rows(mlp, Arc::clone(users));
        let mi = g.gather_rows(mlp, Arc::clone(items));
        let cat = g.concat_cols(mu, mi);
        let z1 = g.matmul(cat, w1);
        let z1b = g.add_row_broadcast(z1, b1);
        let a1 = g.leaky_relu(z1b, 0.5);
        let z2 = g.matmul(a1, w2);
        let z2b = g.add_row_broadcast(z2, b2);
        let a2 = g.leaky_relu(z2b, 0.5);
        let fused = g.concat_cols(gmf_feat, a2);
        g.matmul(fused, out)
    }
}

impl Recommender for Ncf {
    fn name(&self) -> &str {
        "NCF"
    }

    fn embeddings(&self) -> Option<(&Mat, &Mat)> {
        None
    }

    fn score_items(&self, user: usize) -> Vec<f32> {
        // Inference outside the tape: plain Mat arithmetic per item block.
        let n_users = self.train.n_users();
        let n_items = self.train.n_items();
        let d = self.opts.embed_dim;
        let gmf = self.store.value(self.p_gmf);
        let mlp = self.store.value(self.p_mlp_emb);
        let w1 = self.store.value(self.p_w1);
        let b1 = self.store.value(self.p_b1);
        let w2 = self.store.value(self.p_w2);
        let b2 = self.store.value(self.p_b2);
        let out = self.store.value(self.p_out);
        let h = w1.cols();
        let h2 = w2.cols();
        let gu = gmf.row(user);
        let mu = mlp.row(user);
        let leaky = |x: f32| if x > 0.0 { x } else { 0.5 * x };
        (0..n_items)
            .map(|v| {
                let node = n_users + v;
                let gi = gmf.row(node);
                let mi = mlp.row(node);
                // MLP branch.
                let mut a1 = vec![0f32; h];
                for (j, a) in a1.iter_mut().enumerate() {
                    let mut acc = b1.get(0, j);
                    for k in 0..d {
                        acc += mu[k] * w1.get(k, j) + mi[k] * w1.get(d + k, j);
                    }
                    *a = leaky(acc);
                }
                let mut a2 = vec![0f32; h2];
                for (j, a) in a2.iter_mut().enumerate() {
                    let mut acc = b2.get(0, j);
                    for (k, &x) in a1.iter().enumerate() {
                        acc += x * w2.get(k, j);
                    }
                    *a = leaky(acc);
                }
                // Fused head: first d slots are GMF, rest MLP.
                let mut s = 0f32;
                for k in 0..d {
                    s += gu[k] * gi[k] * out.get(k, 0);
                }
                for (k, &x) in a2.iter().enumerate() {
                    s += x * out.get(d + k, 0);
                }
                s
            })
            .collect()
    }
}

impl Trainable for Ncf {
    fn train_graph(&self) -> &InteractionGraph {
        &self.train
    }
    fn epochs(&self) -> usize {
        self.opts.epochs
    }
    fn steps_per_epoch(&self) -> usize {
        self.opts.steps_per_epoch
    }
    fn sampler_seed(&self) -> u64 {
        self.opts.seed ^ 0x6e6366
    }
    fn step(&mut self, sampler: &mut TripletSampler<'_>) {
        let (users, pos, neg) = sampler.sample_batch(self.opts.bpr_batch);
        let off = self.train.n_users() as u32;
        let users = Arc::new(users);
        let pos = Arc::new(pos.into_iter().map(|v| v + off).collect::<Vec<_>>());
        let neg = Arc::new(neg.into_iter().map(|v| v + off).collect::<Vec<_>>());
        let mut g = Graph::new();
        let gmf = self.store.node(&mut g, self.p_gmf);
        let mlp = self.store.node(&mut g, self.p_mlp_emb);
        let w1 = self.store.node(&mut g, self.p_w1);
        let b1 = self.store.node(&mut g, self.p_b1);
        let w2 = self.store.node(&mut g, self.p_w2);
        let b2 = self.store.node(&mut g, self.p_b2);
        let out = self.store.node(&mut g, self.p_out);
        let s_pos = self.score_node(&mut g, gmf, mlp, w1, b1, w2, b2, out, &users, &pos);
        let s_neg = self.score_node(&mut g, gmf, mlp, w1, b1, w2, b2, out, &users, &neg);
        let margin = g.sub(s_neg, s_pos);
        let sp = g.softplus(margin);
        let loss = g.mean_all(sp);
        g.backward(loss);
        let pairs = [
            (self.p_gmf, gmf),
            (self.p_mlp_emb, mlp),
            (self.p_w1, w1),
            (self.p_b1, b1),
            (self.p_w2, w2),
            (self.p_b2, b2),
            (self.p_out, out),
        ];
        self.store
            .apply_grads(&g, &pairs, Optimizer::adam(self.opts.learning_rate));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphaug_data::{generate, SyntheticConfig};
    use graphaug_eval::evaluate;
    use graphaug_graph::TrainTestSplit;

    #[test]
    fn scores_cover_all_items() {
        let data = generate(&SyntheticConfig::new(30, 25, 300).seed(1));
        let m = Ncf::new(BaselineOpts::fast_test(), &data);
        let s = m.score_items(0);
        assert_eq!(s.len(), 25);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn training_improves_ranking() {
        let data = generate(&SyntheticConfig::new(80, 120, 900).clusters(4).seed(3));
        let split = TrainTestSplit::per_user(&data, 0.2, 5);
        let mut m = Ncf::new(BaselineOpts::fast_test().epochs(15), &split.train);
        let before = evaluate(&m, &split, &[5]).recall(5);
        m.fit();
        let after = evaluate(&m, &split, &[5]).recall(5);
        assert!(after > before, "before {before} after {after}");
    }
}
