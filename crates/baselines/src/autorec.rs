//! AutoRec (Sedhain et al., 2015): autoencoder-based collaborative
//! filtering. The U-AutoRec variant reconstructs each user's interaction
//! row through a bottleneck: `r̂ = W₂ σ(W₁ r + b₁) + b₂`, trained with a
//! masked reconstruction loss over observed entries plus a light negative
//! weight so the decoder does not degenerate to all-ones.

use graphaug_eval::Recommender;
use graphaug_graph::{InteractionGraph, TripletSampler};
use graphaug_tensor::init::xavier_uniform;
use graphaug_tensor::{Graph, Mat, Optimizer, ParamId, ParamStore};
use std::sync::Arc;

use crate::common::{interaction_rows, BaselineOpts, Trainable};

/// The U-AutoRec model.
pub struct AutoRec {
    opts: BaselineOpts,
    train: InteractionGraph,
    store: ParamStore,
    p_w1: ParamId,
    p_b1: ParamId,
    p_w2: ParamId,
    p_b2: ParamId,
    rng: graphaug_rng::StdRng,
}

impl AutoRec {
    /// Initializes AutoRec with a bottleneck of `2 · embed_dim`.
    pub fn new(opts: BaselineOpts, train: &InteractionGraph) -> Self {
        let mut rng = graphaug_tensor::init::seeded_rng(opts.seed);
        let mut store = ParamStore::new();
        let h = opts.embed_dim * 2;
        let j = train.n_items();
        AutoRec {
            p_w1: store.register(xavier_uniform(j, h, &mut rng)),
            p_b1: store.register(Mat::zeros(1, h)),
            p_w2: store.register(xavier_uniform(h, j, &mut rng)),
            p_b2: store.register(Mat::zeros(1, j)),
            opts,
            train: train.clone(),
            store,
            rng,
        }
    }

    fn reconstruct_row(&self, user: usize) -> Vec<f32> {
        let j = self.train.n_items();
        let w1 = self.store.value(self.p_w1);
        let b1 = self.store.value(self.p_b1);
        let w2 = self.store.value(self.p_w2);
        let b2 = self.store.value(self.p_b2);
        let h = w1.cols();
        let mut hidden = vec![0f32; h];
        for &v in self.train.items_of(user) {
            for (k, hd) in hidden.iter_mut().enumerate() {
                *hd += w1.get(v as usize, k);
            }
        }
        for (k, hd) in hidden.iter_mut().enumerate() {
            *hd = graphaug_tensor::sigmoid(*hd + b1.get(0, k));
        }
        (0..j)
            .map(|v| {
                let mut acc = b2.get(0, v);
                for (k, &x) in hidden.iter().enumerate() {
                    acc += x * w2.get(k, v);
                }
                acc
            })
            .collect()
    }
}

impl Recommender for AutoRec {
    fn name(&self) -> &str {
        "AutoR"
    }

    fn embeddings(&self) -> Option<(&Mat, &Mat)> {
        None
    }

    fn score_items(&self, user: usize) -> Vec<f32> {
        self.reconstruct_row(user)
    }
}

/// AutoRec trains on whole interaction rows of users drawn from its own
/// RNG, so its steps leave the driver's triplet sampler untouched.
impl Trainable for AutoRec {
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
        self.opts.seed
    }
    fn step(&mut self, _: &mut TripletSampler<'_>) {
        let n_users = self.train.n_users();
        let users: Vec<u32> = (0..128.min(n_users))
            .map(|_| self.rng.random_range(0..n_users as u32))
            .collect();
        let rows = interaction_rows(&self.train, &users);
        // Observed entries weigh 1, unobserved 0.05 (implicit negatives
        // keep the decoder from saturating).
        let mask = Arc::new(rows.map(|x| if x > 0.0 { 1.0 } else { 0.05 }));
        let target = Arc::new(rows.map(|x| -x));
        let mut g = Graph::new();
        let w1 = self.store.node(&mut g, self.p_w1);
        let b1 = self.store.node(&mut g, self.p_b1);
        let w2 = self.store.node(&mut g, self.p_w2);
        let b2 = self.store.node(&mut g, self.p_b2);
        let input = g.constant(rows);
        let z1 = g.matmul(input, w1);
        let z1b = g.add_row_broadcast(z1, b1);
        let hid = g.sigmoid(z1b);
        let z2 = g.matmul(hid, w2);
        let recon = g.add_row_broadcast(z2, b2);
        let diff = g.add_const(recon, target);
        let sq = g.square(diff);
        let weighted = g.mul_const(sq, mask);
        let loss = g.mean_all(weighted);
        g.backward(loss);
        let pairs = [
            (self.p_w1, w1),
            (self.p_b1, b1),
            (self.p_w2, w2),
            (self.p_b2, b2),
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
    fn reconstruction_scores_all_items() {
        let data = generate(&SyntheticConfig::new(30, 25, 300).seed(1));
        let m = AutoRec::new(BaselineOpts::fast_test(), &data);
        let s = m.score_items(3);
        assert_eq!(s.len(), 25);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn training_improves_ranking() {
        let data = generate(&SyntheticConfig::new(80, 120, 900).clusters(4).seed(3));
        let split = TrainTestSplit::per_user(&data, 0.2, 5);
        let mut m = AutoRec::new(BaselineOpts::fast_test().epochs(20), &split.train);
        let before = evaluate(&m, &split, &[5]).recall(5);
        m.fit();
        let after = evaluate(&m, &split, &[5]).recall(5);
        assert!(after > before, "before {before} after {after}");
    }

    #[test]
    fn trained_reconstruction_prefers_observed_items() {
        let data = generate(&SyntheticConfig::new(40, 30, 500).seed(9));
        let mut m = AutoRec::new(BaselineOpts::fast_test().epochs(20), &data);
        m.fit();
        // Mean score of observed items should exceed mean of unobserved.
        let mut obs = (0.0f64, 0usize);
        let mut uno = (0.0f64, 0usize);
        for u in 0..10 {
            let s = m.score_items(u);
            for (v, &sc) in s.iter().enumerate() {
                if data.has_edge(u as u32, v as u32) {
                    obs = (obs.0 + sc as f64, obs.1 + 1);
                } else {
                    uno = (uno.0 + sc as f64, uno.1 + 1);
                }
            }
        }
        assert!(obs.0 / obs.1 as f64 > uno.0 / uno.1 as f64);
    }
}
