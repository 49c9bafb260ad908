//! Stochastic-augmentation contrastive baselines: SLRec (Yao et al., 2021),
//! SGL (Wu et al., 2021), and DGCL (Li et al., 2021).
//!
//! * **SLRec** contrasts two feature-dropout views of the raw embedding
//!   table (no propagation) on top of BPR matrix factorization.
//! * **SGL** contrasts two edge-dropout LightGCN views with InfoNCE over
//!   users and items.
//! * **DGCL** adds factor-wise discrimination: the embedding is split into
//!   four factors and each factor chunk is contrasted independently across
//!   the two edge-dropout views.

use std::sync::Arc;

use graphaug_core::nn::{bpr_loss, infonce_loss, lightgcn_propagate, BprBatch};
use graphaug_core::EdgeIndex;
use graphaug_graph::InteractionGraph;
use graphaug_tensor::init::xavier_uniform;
use graphaug_tensor::{Adj, Graph, Mat, NodeId, ParamId};

use crate::common::{
    edge_dropout_weights, impl_recommender_trainable, refresh_cf, with_weight_decay, BaselineOpts,
    CfCore, CfModel,
};

// ---------------------------------------------------------------------------
// SLRec
// ---------------------------------------------------------------------------

/// SLRec: feature-dropout contrastive learning over MF embeddings.
pub struct SlRec {
    core: CfCore,
    p_emb: ParamId,
}

impl SlRec {
    /// Initializes SLRec.
    pub fn new(opts: BaselineOpts, train: &InteractionGraph) -> Self {
        let mut core = CfCore::new(opts, train);
        let p_emb = core.store.register(xavier_uniform(
            train.n_nodes(),
            core.opts.embed_dim,
            &mut core.rng,
        ));
        let mut m = SlRec { core, p_emb };
        refresh_cf(&mut m);
        m
    }

    fn feature_dropout(&mut self, g: &mut Graph, emb: NodeId, keep: f32) -> NodeId {
        let (n, d) = g.value(emb).shape();
        let scale = 1.0 / keep;
        let rng = &mut self.core.rng;
        let mask = Arc::new(Mat::from_fn(n, d, |_, _| {
            if rng.random_range(0.0f32..1.0) < keep {
                scale
            } else {
                0.0
            }
        }));
        g.mul_const(emb, mask)
    }
}

impl CfModel for SlRec {
    fn core(&self) -> &CfCore {
        &self.core
    }
    fn core_mut(&mut self) -> &mut CfCore {
        &mut self.core
    }
    fn model_name(&self) -> &'static str {
        "SLRec"
    }
    fn encode_eval(&mut self, g: &mut Graph) -> NodeId {
        self.core.store.node(g, self.p_emb)
    }
    fn build_step(&mut self, g: &mut Graph, batch: &BprBatch) -> (NodeId, Vec<(ParamId, NodeId)>) {
        let emb = self.core.store.node(g, self.p_emb);
        let loss = bpr_loss(g, emb, batch);
        let v1 = self.feature_dropout(g, emb, 0.8);
        let v2 = self.feature_dropout(g, emb, 0.8);
        let n_cl = self.core.opts.cl_batch;
        let (users, items) = self.core.contrastive_indices(n_cl);
        let cu = infonce_loss(g, v1, v2, &users, self.core.opts.temperature);
        let ci = infonce_loss(g, v1, v2, &items, self.core.opts.temperature);
        let c = g.add(cu, ci);
        let cw = g.scale(c, self.core.opts.ssl_weight);
        let with_cl = g.add(loss, cw);
        let pairs = vec![(self.p_emb, emb)];
        let total = with_weight_decay(g, with_cl, &pairs, self.core.opts.weight_decay);
        (total, pairs)
    }
}

impl_recommender_trainable!(SlRec);

// ---------------------------------------------------------------------------
// SGL / DGCL
// ---------------------------------------------------------------------------

/// Contrast granularity for the edge-dropout models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeClKind {
    /// Whole-embedding InfoNCE (SGL).
    Sgl,
    /// Factor-wise InfoNCE over four chunks (DGCL).
    Dgcl,
}

/// SGL/DGCL: LightGCN with two edge-dropout views and InfoNCE alignment.
pub struct EdgeClCf {
    core: CfCore,
    kind: EdgeClKind,
    edge_index: EdgeIndex,
    p_emb: ParamId,
    /// Undirected-edge keep probability for the dropout views.
    keep_prob: f32,
}

impl EdgeClCf {
    /// Initializes the chosen variant.
    pub fn new(kind: EdgeClKind, opts: BaselineOpts, train: &InteractionGraph) -> Self {
        let mut core = CfCore::new(opts, train);
        let p_emb = core.store.register(xavier_uniform(
            train.n_nodes(),
            core.opts.embed_dim,
            &mut core.rng,
        ));
        let mut m = EdgeClCf {
            edge_index: EdgeIndex::build(train),
            core,
            kind,
            p_emb,
            keep_prob: 0.8,
        };
        refresh_cf(&mut m);
        m
    }

    /// SGL constructor.
    pub fn sgl(opts: BaselineOpts, train: &InteractionGraph) -> Self {
        Self::new(EdgeClKind::Sgl, opts, train)
    }

    /// DGCL constructor.
    pub fn dgcl(opts: BaselineOpts, train: &InteractionGraph) -> Self {
        Self::new(EdgeClKind::Dgcl, opts, train)
    }

    fn dropout_view(&mut self, g: &mut Graph, emb: NodeId) -> NodeId {
        let w = edge_dropout_weights(
            self.edge_index.n_edges(),
            &self.edge_index.dir_to_undir,
            &self.edge_index.norm,
            self.keep_prob,
            &mut self.core.rng,
        );
        let view = Adj::Weighted {
            pattern: &self.edge_index.pattern,
            weights: g.constant((*w).clone()),
        };
        lightgcn_propagate(g, view, emb, self.core.opts.layers)
    }
}

impl CfModel for EdgeClCf {
    fn core(&self) -> &CfCore {
        &self.core
    }
    fn core_mut(&mut self) -> &mut CfCore {
        &mut self.core
    }
    fn model_name(&self) -> &'static str {
        match self.kind {
            EdgeClKind::Sgl => "SGL",
            EdgeClKind::Dgcl => "DGCL",
        }
    }
    fn encode_eval(&mut self, g: &mut Graph) -> NodeId {
        let emb = self.core.store.node(g, self.p_emb);
        lightgcn_propagate(g, &self.core.adj, emb, self.core.opts.layers)
    }
    fn build_step(&mut self, g: &mut Graph, batch: &BprBatch) -> (NodeId, Vec<(ParamId, NodeId)>) {
        let emb = self.core.store.node(g, self.p_emb);
        let h = lightgcn_propagate(g, &self.core.adj, emb, self.core.opts.layers);
        let loss = bpr_loss(g, h, batch);
        let v1 = self.dropout_view(g, emb);
        let v2 = self.dropout_view(g, emb);
        let n_cl = self.core.opts.cl_batch;
        let (users, items) = self.core.contrastive_indices(n_cl);
        let tau = self.core.opts.temperature;
        let cl = match self.kind {
            EdgeClKind::Sgl => {
                let cu = infonce_loss(g, v1, v2, &users, tau);
                let ci = infonce_loss(g, v1, v2, &items, tau);
                g.add(cu, ci)
            }
            EdgeClKind::Dgcl => {
                // Factor-wise contrast: each chunk must align independently,
                // which discriminates latent factors across views.
                let d = self.core.opts.embed_dim;
                let k = 4;
                let dk = d / k;
                let mut acc: Option<NodeId> = None;
                for f in 0..k {
                    let c1 = g.slice_cols(v1, f * dk, (f + 1) * dk);
                    let c2 = g.slice_cols(v2, f * dk, (f + 1) * dk);
                    let cu = infonce_loss(g, c1, c2, &users, tau);
                    let ci = infonce_loss(g, c1, c2, &items, tau);
                    let s = g.add(cu, ci);
                    acc = Some(match acc {
                        Some(a) => g.add(a, s),
                        None => s,
                    });
                }
                let sum = acc.expect("factors > 0");
                g.scale(sum, 1.0 / k as f32)
            }
        };
        let cw = g.scale(cl, self.core.opts.ssl_weight);
        let with_cl = g.add(loss, cw);
        let pairs = vec![(self.p_emb, emb)];
        let total = with_weight_decay(g, with_cl, &pairs, self.core.opts.weight_decay);
        (total, pairs)
    }
}

impl_recommender_trainable!(EdgeClCf);

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
    fn slrec_trains_and_improves() {
        let s = split();
        let mut m = SlRec::new(BaselineOpts::fast_test().epochs(14), &s.train);
        let before = evaluate(&m, &s, &[5]).recall(5);
        m.fit();
        let after = evaluate(&m, &s, &[5]).recall(5);
        assert!(after > before, "before {before} after {after}");
    }

    #[test]
    fn sgl_trains_and_improves() {
        let s = split();
        let mut m = EdgeClCf::sgl(BaselineOpts::fast_test().epochs(12), &s.train);
        let before = evaluate(&m, &s, &[5]).recall(5);
        m.fit();
        let after = evaluate(&m, &s, &[5]).recall(5);
        assert!(after > before, "before {before} after {after}");
        assert_eq!(m.name(), "SGL");
    }

    #[test]
    fn dgcl_produces_finite_embeddings() {
        let s = split();
        let mut m = EdgeClCf::dgcl(BaselineOpts::fast_test().epochs(5), &s.train);
        m.fit();
        let (u, i) = m.embeddings().unwrap();
        assert!(u.all_finite() && i.all_finite());
        assert_eq!(m.name(), "DGCL");
    }
}
