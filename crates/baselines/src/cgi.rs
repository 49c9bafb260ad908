//! CGI (contrastive graph structure learning with information bottleneck) —
//! the learnable-view baseline in the paper's Table II.
//!
//! CGI learns a free per-edge dropout logit (no MLP — this is its key
//! difference from GraphAug's embedding-conditioned augmentor), draws a
//! concrete/Gumbel sample per step, propagates a LightGCN view over the
//! sampled adjacency, and optimizes BPR + InfoNCE(main, view) + an IB-style
//! sparsity pressure on the keep probabilities (pushing views to discard
//! uninformative edges).

use std::sync::Arc;

use graphaug_core::nn::{bpr_loss, infonce_loss, lightgcn_propagate, BprBatch};
use graphaug_core::EdgeIndex;
use graphaug_graph::InteractionGraph;
use graphaug_tensor::init::xavier_uniform;
use graphaug_tensor::{Graph, Mat, NodeId, ParamId};

use crate::common::{
    impl_recommender_trainable, refresh_cf, with_weight_decay, BaselineOpts, CfCore, CfModel,
};

/// The CGI model.
pub struct Cgi {
    core: CfCore,
    edge_index: EdgeIndex,
    p_emb: ParamId,
    /// Free per-undirected-edge keep logits.
    p_edge_logits: ParamId,
    /// Concrete relaxation temperature.
    gumbel_temperature: f32,
    /// IB sparsity weight on keep probabilities.
    ib_weight: f32,
}

impl Cgi {
    /// Initializes CGI.
    pub fn new(opts: BaselineOpts, train: &InteractionGraph) -> Self {
        let mut core = CfCore::new(opts, train);
        let edge_index = EdgeIndex::build(train);
        let p_emb = core.store.register(xavier_uniform(
            train.n_nodes(),
            core.opts.embed_dim,
            &mut core.rng,
        ));
        // Initialize logits at +1 (keep-biased) so early training sees most
        // of the graph.
        let p_edge_logits = core
            .store
            .register(Mat::filled(edge_index.n_edges(), 1, 1.0));
        let mut m = Cgi {
            core,
            edge_index,
            p_emb,
            p_edge_logits,
            gumbel_temperature: 0.5,
            ib_weight: 0.05,
        };
        refresh_cf(&mut m);
        m
    }

    /// Trained keep probability per training edge (diagnostic parity with
    /// GraphAug's case study).
    pub fn edge_keep_probabilities(&self) -> Vec<f32> {
        self.core
            .store
            .value(self.p_edge_logits)
            .as_slice()
            .iter()
            .map(|&l| graphaug_tensor::sigmoid(l))
            .collect()
    }

    fn sampled_view(&mut self, g: &mut Graph, logits: NodeId, emb: NodeId) -> NodeId {
        let e = self.edge_index.n_edges();
        let rng = &mut self.core.rng;
        let gumbel = Arc::new(Mat::from_fn(e, 1, |_, _| rng.logistic_f32()));
        let noisy = g.add_const(logits, gumbel);
        let sharp = g.scale(noisy, 1.0 / self.gumbel_temperature);
        let soft = g.sigmoid(sharp);
        let view = self.edge_index.view(g, soft);
        lightgcn_propagate(g, view, emb, self.core.opts.layers)
    }
}

impl CfModel for Cgi {
    fn core(&self) -> &CfCore {
        &self.core
    }
    fn core_mut(&mut self) -> &mut CfCore {
        &mut self.core
    }
    fn model_name(&self) -> &'static str {
        "CGI"
    }
    fn encode_eval(&mut self, g: &mut Graph) -> NodeId {
        let emb = self.core.store.node(g, self.p_emb);
        lightgcn_propagate(g, &self.core.adj, emb, self.core.opts.layers)
    }
    fn build_step(&mut self, g: &mut Graph, batch: &BprBatch) -> (NodeId, Vec<(ParamId, NodeId)>) {
        let emb = self.core.store.node(g, self.p_emb);
        let logits = self.core.store.node(g, self.p_edge_logits);
        let main = lightgcn_propagate(g, &self.core.adj, emb, self.core.opts.layers);
        let loss = bpr_loss(g, main, batch);
        let view = self.sampled_view(g, logits, emb);
        let n_cl = self.core.opts.cl_batch;
        let (users, items) = self.core.contrastive_indices(n_cl);
        let cu = infonce_loss(g, main, view, &users, self.core.opts.temperature);
        let ci = infonce_loss(g, main, view, &items, self.core.opts.temperature);
        let cl = g.add(cu, ci);
        let clw = g.scale(cl, self.core.opts.ssl_weight);
        let with_cl = g.add(loss, clw);
        // IB sparsity pressure: E[keep] should not stay at 1.
        let probs = g.sigmoid(logits);
        let ib = g.mean_all(probs);
        let ibw = g.scale(ib, self.ib_weight);
        let with_ib = g.add(with_cl, ibw);
        let pairs = vec![(self.p_emb, emb), (self.p_edge_logits, logits)];
        let total = with_weight_decay(g, with_ib, &pairs, self.core.opts.weight_decay);
        (total, pairs)
    }
}

impl_recommender_trainable!(Cgi);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Trainable;
    use graphaug_data::{generate, SyntheticConfig};
    use graphaug_eval::{evaluate, Recommender};
    use graphaug_graph::TrainTestSplit;

    #[test]
    fn cgi_trains_and_improves() {
        let data = generate(&SyntheticConfig::new(80, 120, 900).clusters(4).seed(2));
        let s = TrainTestSplit::per_user(&data, 0.2, 4);
        let mut m = Cgi::new(BaselineOpts::fast_test().epochs(12), &s.train);
        let before = evaluate(&m, &s, &[5]).recall(5);
        m.fit();
        let after = evaluate(&m, &s, &[5]).recall(5);
        assert!(after > before, "before {before} after {after}");
        assert_eq!(m.name(), "CGI");
    }

    #[test]
    fn ib_pressure_moves_keep_probabilities_below_one() {
        let data = generate(&SyntheticConfig::new(40, 30, 400).seed(3));
        let mut m = Cgi::new(BaselineOpts::fast_test().epochs(10), &data);
        m.fit();
        let probs = m.edge_keep_probabilities();
        let mean: f32 = probs.iter().sum::<f32>() / probs.len() as f32;
        // Initial sigmoid(1.0) ≈ 0.731; the IB term pushes it down.
        assert!(mean < 0.731, "mean keep prob {mean}");
    }
}
