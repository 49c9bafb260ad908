//! NCL (Lin et al., 2022): neighborhood-enriched contrastive learning.
//!
//! Two contrastive signals on top of LightGCN:
//!
//! * **structural neighbors** — each node's ego embedding (layer 0) is
//!   aligned with its even-hop propagated embedding (layer 2), which
//!   captures homogeneous (user–user / item–item) neighbors in a bipartite
//!   graph;
//! * **semantic prototypes** — an EM step (k-means over the cached
//!   embeddings, re-run every epoch) assigns each node a cluster, and the
//!   node is pulled towards its prototype against all other prototypes.

use std::sync::Arc;

use graphaug_core::nn::{bpr_loss, infonce_loss, BprBatch};
use graphaug_graph::InteractionGraph;
use graphaug_tensor::init::xavier_uniform;
use graphaug_tensor::{Graph, Mat, NodeId, ParamId};

use crate::common::{
    impl_recommender_trainable, kmeans, refresh_cf, with_weight_decay, BaselineOpts, CfCore,
    CfModel,
};

/// The NCL model with 8 user prototypes and 8 item prototypes.
pub struct Ncl {
    core: CfCore,
    p_emb: ParamId,
    n_clusters: usize,
    /// Structural (ego vs 2-hop) contrast weight. NCL's paper tunes this
    /// orders of magnitude below the BPR term.
    struct_weight: f32,
    /// Prototype contrast weight.
    proto_weight: f32,
    /// `(assignment, centroids)` for users, refreshed every epoch.
    user_protos: Option<(Vec<usize>, Mat)>,
    /// Same for items.
    item_protos: Option<(Vec<usize>, Mat)>,
}

impl Ncl {
    /// Initializes NCL.
    pub fn new(opts: BaselineOpts, train: &InteractionGraph) -> Self {
        let mut core = CfCore::new(opts, train);
        let p_emb = core.store.register(xavier_uniform(
            train.n_nodes(),
            core.opts.embed_dim,
            &mut core.rng,
        ));
        let mut m = Ncl {
            core,
            p_emb,
            n_clusters: 8,
            struct_weight: 1e-3,
            proto_weight: 1e-4,
            user_protos: None,
            item_protos: None,
        };
        refresh_cf(&mut m);
        m
    }

    /// Prototype InfoNCE for a population slice: pulls each sampled row of
    /// `emb` towards its assigned centroid against the other centroids.
    fn proto_loss(
        &self,
        g: &mut Graph,
        emb: NodeId,
        rows: &Arc<Vec<u32>>,
        assign: &[usize],
        row_offset: usize,
        centroids: &Mat,
    ) -> NodeId {
        let k = centroids.rows();
        let batch = g.gather_rows(emb, Arc::clone(rows));
        let nb = g.l2_normalize_rows(batch);
        let cents = g.constant(centroids.clone());
        let nc = g.l2_normalize_rows(cents);
        let sim = g.matmul_nt(nb, nc); // B × k
        let scaled = g.scale(sim, 1.0 / self.core.opts.temperature);
        let lse = g.logsumexp_rows(scaled);
        // Positive logit: one-hot mask × similarity, row-summed.
        let onehot = Arc::new(Mat::from_fn(rows.len(), k, |r, c| {
            let node = rows[r] as usize - row_offset;
            if assign[node] == c {
                1.0
            } else {
                0.0
            }
        }));
        let masked = g.mul_const(scaled, onehot);
        let ones = g.constant(Mat::filled(k, 1, 1.0));
        let pos = g.matmul(masked, ones); // B × 1
        let diff = g.sub(lse, pos);
        g.mean_all(diff)
    }
}

impl CfModel for Ncl {
    fn core(&self) -> &CfCore {
        &self.core
    }
    fn core_mut(&mut self) -> &mut CfCore {
        &mut self.core
    }
    fn model_name(&self) -> &'static str {
        "NCL"
    }
    fn encode_eval(&mut self, g: &mut Graph) -> NodeId {
        let emb = self.core.store.node(g, self.p_emb);
        graphaug_core::nn::lightgcn_propagate(g, &self.core.adj, emb, self.core.opts.layers)
    }
    fn build_step(&mut self, g: &mut Graph, batch: &BprBatch) -> (NodeId, Vec<(ParamId, NodeId)>) {
        let emb = self.core.store.node(g, self.p_emb);
        // Manual propagation so layer-0 and layer-2 are both available.
        let h1 = g.spmm(&self.core.adj, emb);
        let h2 = g.spmm(&self.core.adj, h1);
        let s01 = g.add(emb, h1);
        let s012 = g.add(s01, h2);
        let readout = g.scale(s012, 1.0 / 3.0);
        let loss = bpr_loss(g, readout, batch);

        let n_cl = self.core.opts.cl_batch;
        let (users, items) = self.core.contrastive_indices(n_cl);

        // Structural neighbor contrast: ego (layer 0) vs 2-hop (layer 2).
        let tau = self.core.opts.temperature;
        let su = infonce_loss(g, emb, h2, &users, tau);
        let si = infonce_loss(g, emb, h2, &items, tau);
        let structural = g.add(su, si);
        let mut ssl = g.scale(structural, self.struct_weight);

        // Prototype contrast (once the first EM pass has run).
        if let (Some((ua, uc)), Some((ia, ic))) = (&self.user_protos, &self.item_protos) {
            let pu = self.proto_loss(g, readout, &users, ua, 0, uc);
            let off = self.core.train.n_users();
            let pi = self.proto_loss(g, readout, &items, ia, off, ic);
            let p = g.add(pu, pi);
            let pw = g.scale(p, self.proto_weight);
            ssl = g.add(ssl, pw);
        }
        let with_ssl = g.add(loss, ssl);
        let pairs = vec![(self.p_emb, emb)];
        let total = with_weight_decay(g, with_ssl, &pairs, self.core.opts.weight_decay);
        (total, pairs)
    }
    fn on_epoch_end(&mut self, epoch: usize) {
        // EM step: recluster the cached embeddings.
        refresh_cf(self);
        let k_user = self.n_clusters.min(self.core.user_emb.rows());
        let k_item = self.n_clusters.min(self.core.item_emb.rows());
        self.user_protos = Some(kmeans(
            &self.core.user_emb,
            k_user,
            5,
            self.core.opts.seed + epoch as u64,
        ));
        self.item_protos = Some(kmeans(
            &self.core.item_emb,
            k_item,
            5,
            self.core.opts.seed + 31 + epoch as u64,
        ));
    }
}

impl_recommender_trainable!(Ncl);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Trainable;
    use graphaug_data::{generate, SyntheticConfig};
    use graphaug_eval::{evaluate, Recommender};
    use graphaug_graph::TrainTestSplit;

    #[test]
    fn ncl_trains_and_improves() {
        let data = generate(&SyntheticConfig::new(80, 120, 900).clusters(4).seed(2));
        let s = TrainTestSplit::per_user(&data, 0.2, 4);
        let mut m = Ncl::new(BaselineOpts::fast_test().epochs(12), &s.train);
        let before = evaluate(&m, &s, &[5]).recall(5);
        m.fit();
        let after = evaluate(&m, &s, &[5]).recall(5);
        assert!(after > before, "before {before} after {after}");
        assert_eq!(m.name(), "NCL");
    }

    #[test]
    fn prototypes_appear_after_first_epoch() {
        let data = generate(&SyntheticConfig::new(40, 30, 400).seed(3));
        let mut m = Ncl::new(BaselineOpts::fast_test().epochs(2), &data);
        assert!(m.user_protos.is_none());
        m.fit();
        let (assign, cents) = m.user_protos.as_ref().unwrap();
        assert_eq!(assign.len(), 40);
        assert_eq!(cents.rows(), 8);
    }
}
