//! Disentangled graph CF baselines: DisenGCN (Ma et al., 2019) and DGCF
//! (Wang et al., 2020).
//!
//! Both split the embedding into `K` latent-factor chunks and learn
//! *per-factor* edge weights by routing: the affinity of an edge's endpoint
//! chunks is softmax-normalized across factors, and each factor propagates
//! its chunk over its own weighted adjacency. DGCF refines the routing with
//! a second iteration computed from the propagated chunks (its iterative
//! intent-aware update); DisenGCN uses a single routing pass.

use std::sync::Arc;

use graphaug_core::nn::{bpr_loss, lightgcn_propagate, BprBatch};
use graphaug_core::EdgeIndex;
use graphaug_graph::InteractionGraph;
use graphaug_tensor::init::xavier_uniform;
use graphaug_tensor::{Adj, Graph, NodeId, ParamId};

use crate::common::{
    impl_recommender_trainable, refresh_cf, softmax_cols, with_weight_decay, BaselineOpts, CfCore,
    CfModel,
};

/// Routing depth selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DisenKind {
    /// Single routing pass (DisenGCN).
    DisenGcn,
    /// Two routing iterations (DGCF).
    Dgcf,
}

/// A disentangled graph CF model with `K = 4` latent factors.
pub struct DisenCf {
    core: CfCore,
    kind: DisenKind,
    edge_index: EdgeIndex,
    p_emb: ParamId,
    n_factors: usize,
}

impl DisenCf {
    /// Initializes the chosen variant.
    pub fn new(kind: DisenKind, opts: BaselineOpts, train: &InteractionGraph) -> Self {
        assert!(
            opts.embed_dim.is_multiple_of(4),
            "embed_dim must be divisible by 4 factors"
        );
        let mut core = CfCore::new(opts, train);
        let p_emb = core.store.register(xavier_uniform(
            train.n_nodes(),
            core.opts.embed_dim,
            &mut core.rng,
        ));
        let mut m = DisenCf {
            edge_index: EdgeIndex::build(train),
            core,
            kind,
            p_emb,
            n_factors: 4,
        };
        refresh_cf(&mut m);
        m
    }

    /// DisenGCN constructor.
    pub fn disengcn(opts: BaselineOpts, train: &InteractionGraph) -> Self {
        Self::new(DisenKind::DisenGcn, opts, train)
    }

    /// DGCF constructor.
    pub fn dgcf(opts: BaselineOpts, train: &InteractionGraph) -> Self {
        Self::new(DisenKind::Dgcf, opts, train)
    }

    /// Computes the per-factor routed views of the graph from the given
    /// chunk embeddings.
    fn routing_views(&self, g: &mut Graph, chunks: &[NodeId]) -> Vec<Adj<'_>> {
        let idx = &self.edge_index;
        let mut scores: Option<NodeId> = None;
        for &chunk in chunks {
            let normed = g.l2_normalize_rows(chunk);
            let hu = g.gather_rows(normed, Arc::clone(&idx.edge_users));
            let hv = g.gather_rows(normed, Arc::clone(&idx.edge_items));
            let s = g.rowwise_dot(hu, hv);
            scores = Some(match scores {
                Some(prev) => g.concat_cols(prev, s),
                None => s,
            });
        }
        let stacked = scores.expect("at least one factor");
        let factor_weights = softmax_cols(g, stacked, self.n_factors);
        factor_weights.into_iter().map(|w| idx.view(g, w)).collect()
    }

    fn encode(&self, g: &mut Graph, emb: NodeId) -> NodeId {
        let d = self.core.opts.embed_dim;
        let dk = d / self.n_factors;
        let chunks: Vec<NodeId> = (0..self.n_factors)
            .map(|k| g.slice_cols(emb, k * dk, (k + 1) * dk))
            .collect();
        let routing_iters = match self.kind {
            DisenKind::DisenGcn => 1,
            DisenKind::Dgcf => 2,
        };
        let mut current = chunks.clone();
        for _ in 0..routing_iters {
            let views = self.routing_views(g, &current);
            current = chunks
                .iter()
                .zip(views)
                .map(|(&chunk, view)| lightgcn_propagate(g, view, chunk, self.core.opts.layers))
                .collect();
        }
        let mut out = current[0];
        for &c in &current[1..] {
            out = g.concat_cols(out, c);
        }
        out
    }
}

impl CfModel for DisenCf {
    fn core(&self) -> &CfCore {
        &self.core
    }
    fn core_mut(&mut self) -> &mut CfCore {
        &mut self.core
    }
    fn model_name(&self) -> &'static str {
        match self.kind {
            DisenKind::DisenGcn => "DisenGCN",
            DisenKind::Dgcf => "DGCF",
        }
    }
    fn encode_eval(&mut self, g: &mut Graph) -> NodeId {
        let emb = self.core.store.node(g, self.p_emb);
        self.encode(g, emb)
    }
    fn build_step(&mut self, g: &mut Graph, batch: &BprBatch) -> (NodeId, Vec<(ParamId, NodeId)>) {
        let emb = self.core.store.node(g, self.p_emb);
        let h = self.encode(g, emb);
        let loss = bpr_loss(g, h, batch);
        let pairs = vec![(self.p_emb, emb)];
        let total = with_weight_decay(g, loss, &pairs, self.core.opts.weight_decay);
        (total, pairs)
    }
}

impl_recommender_trainable!(DisenCf);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Trainable;
    use graphaug_data::{generate, SyntheticConfig};
    use graphaug_eval::{evaluate, Recommender};
    use graphaug_graph::TrainTestSplit;

    fn split() -> TrainTestSplit {
        let data = generate(&SyntheticConfig::new(80, 120, 900).clusters(4).seed(2));
        TrainTestSplit::per_user(&data, 0.2, 4)
    }

    #[test]
    fn both_variants_produce_finite_embeddings() {
        let s = split();
        for kind in [DisenKind::DisenGcn, DisenKind::Dgcf] {
            let m = DisenCf::new(kind, BaselineOpts::fast_test(), &s.train);
            let (u, i) = m.embeddings().unwrap();
            assert_eq!(u.cols(), 16);
            assert!(u.all_finite() && i.all_finite());
        }
    }

    #[test]
    fn dgcf_training_improves_ranking() {
        let s = split();
        let mut m = DisenCf::dgcf(BaselineOpts::fast_test().epochs(12), &s.train);
        let before = evaluate(&m, &s, &[5]).recall(5);
        m.fit();
        let after = evaluate(&m, &s, &[5]).recall(5);
        assert!(after > before, "before {before} after {after}");
    }

    #[test]
    fn names_are_paper_labels() {
        let s = split();
        assert_eq!(
            DisenCf::disengcn(BaselineOpts::fast_test(), &s.train).name(),
            "DisenGCN"
        );
        assert_eq!(
            DisenCf::dgcf(BaselineOpts::fast_test(), &s.train).name(),
            "DGCF"
        );
    }
}
