//! HCCF (Xia et al., 2022): hypergraph contrastive collaborative filtering.
//!
//! Local embeddings come from LightGCN propagation; global embeddings come
//! from a learnable low-rank hypergraph: a `(d × k)` hyperedge projection
//! routes every node through `k` hyperedges (`G = (H Wₕ) Wₕᵀ H`-style
//! bottleneck). Local and global views are aligned with InfoNCE over users
//! and items, on top of BPR.

use graphaug_core::nn::{bpr_loss, infonce_loss, lightgcn_propagate, BprBatch};
use graphaug_graph::InteractionGraph;
use graphaug_tensor::init::xavier_uniform;
use graphaug_tensor::{Graph, NodeId, ParamId};

use crate::common::{
    impl_recommender_trainable, refresh_cf, with_weight_decay, BaselineOpts, CfCore, CfModel,
};

/// The HCCF model with `k = 16` hyperedges.
pub struct Hccf {
    core: CfCore,
    p_emb: ParamId,
    p_hyper: ParamId,
    n_hyperedges: usize,
}

impl Hccf {
    /// Initializes HCCF.
    pub fn new(opts: BaselineOpts, train: &InteractionGraph) -> Self {
        let mut core = CfCore::new(opts, train);
        let d = core.opts.embed_dim;
        let k = 16;
        let p_emb = core
            .store
            .register(xavier_uniform(train.n_nodes(), d, &mut core.rng));
        let p_hyper = core.store.register(xavier_uniform(d, k, &mut core.rng));
        let mut m = Hccf {
            core,
            p_emb,
            p_hyper,
            n_hyperedges: k,
        };
        refresh_cf(&mut m);
        m
    }

    /// Global hypergraph pass: node→hyperedge→node through the learnable
    /// `(d × k)` incidence projection, with a LeakyReLU on the hyperedge
    /// activations.
    /// Number of hyperedges in the learnable incidence projection.
    pub fn n_hyperedges(&self) -> usize {
        self.n_hyperedges
    }

    fn hyper_global(&self, g: &mut Graph, h: NodeId, hyper: NodeId) -> NodeId {
        let assign = g.matmul(h, hyper); // n × k
        let act = g.leaky_relu(assign, 0.5);
        g.matmul_nt(act, hyper) // n × d (W_hᵀ back-projection)
    }
}

impl CfModel for Hccf {
    fn core(&self) -> &CfCore {
        &self.core
    }
    fn core_mut(&mut self) -> &mut CfCore {
        &mut self.core
    }
    fn model_name(&self) -> &'static str {
        "HCCF"
    }
    fn encode_eval(&mut self, g: &mut Graph) -> NodeId {
        let emb = self.core.store.node(g, self.p_emb);
        lightgcn_propagate(g, &self.core.adj, emb, self.core.opts.layers)
    }
    fn build_step(&mut self, g: &mut Graph, batch: &BprBatch) -> (NodeId, Vec<(ParamId, NodeId)>) {
        let emb = self.core.store.node(g, self.p_emb);
        let hyper = self.core.store.node(g, self.p_hyper);
        let local = lightgcn_propagate(g, &self.core.adj, emb, self.core.opts.layers);
        let global = self.hyper_global(g, emb, hyper);
        let loss = bpr_loss(g, local, batch);
        // Local–global alignment (users and items).
        let n_cl = self.core.opts.cl_batch;
        let (users, items) = self.core.contrastive_indices(n_cl);
        let cu = infonce_loss(g, local, global, &users, self.core.opts.temperature);
        let ci = infonce_loss(g, local, global, &items, self.core.opts.temperature);
        let c = g.add(cu, ci);
        let cw = g.scale(c, self.core.opts.ssl_weight);
        let with_cl = g.add(loss, cw);
        let pairs = vec![(self.p_emb, emb), (self.p_hyper, hyper)];
        let total = with_weight_decay(g, with_cl, &pairs, self.core.opts.weight_decay);
        (total, pairs)
    }
}

impl_recommender_trainable!(Hccf);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Trainable;
    use graphaug_data::{generate, SyntheticConfig};
    use graphaug_eval::{evaluate, Recommender};
    use graphaug_graph::TrainTestSplit;

    #[test]
    fn hccf_trains_and_improves() {
        let data = generate(&SyntheticConfig::new(80, 120, 900).clusters(4).seed(2));
        let s = TrainTestSplit::per_user(&data, 0.2, 4);
        let mut m = Hccf::new(BaselineOpts::fast_test().epochs(45), &s.train);
        let before = evaluate(&m, &s, &[5]).recall(5);
        m.fit();
        let after = evaluate(&m, &s, &[5]).recall(5);
        assert!(after > before, "before {before} after {after}");
        assert_eq!(m.name(), "HCCF");
    }

    #[test]
    fn hyper_projection_has_bottleneck_rank() {
        let data = generate(&SyntheticConfig::new(30, 25, 300).seed(1));
        let m = Hccf::new(BaselineOpts::fast_test(), &data);
        assert_eq!(m.n_hyperedges(), 16);
        // Global pass output shape matches the embedding table.
        let mut g = Graph::new();
        let emb = m.core.store.node(&mut g, m.p_emb);
        let hyper = m.core.store.node(&mut g, m.p_hyper);
        let global = m.hyper_global(&mut g, emb, hyper);
        assert_eq!(g.value(global).shape(), (55, 16));
    }
}
