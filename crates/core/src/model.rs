//! The GraphAug model: GIB-regularized learnable augmentation + mixhop
//! contrastive encoding, trained jointly per Algorithm 1 / Eq. 16.

use std::sync::Arc;

use graphaug_rng::StdRng;

use graphaug_eval::Recommender;
use graphaug_graph::{InteractionGraph, TripletSampler};
use graphaug_tensor::init::{seeded_rng, xavier_uniform};
use graphaug_tensor::{
    Adj, Graph, Mat, NodeId, Optimizer, ParamId, ParamStore, ParamStoreState, RestoreError, SpPair,
};

use crate::augmentor::{edge_logits, sample_view, AugmentorNodes, AugmentorSettings, EdgeIndex};
use crate::config::{EncoderKind, GraphAugConfig};
use crate::gib::gib_kl;
use crate::mixhop::{encode_mixhop, mixing_row_shape};
use crate::nn::{
    bpr_loss, infonce_loss, lightgcn_propagate, split_embeddings, weight_decay, BprBatch,
};
use crate::train::Trainable;

/// Per-step diagnostics reported by [`GraphAug::train_step`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    /// Total Eq. 16 loss.
    pub loss: f32,
    /// Main-graph BPR component.
    pub bpr: f32,
    /// GIB KL component (0 when disabled).
    pub kl: f32,
    /// Contrastive component (0 when disabled).
    pub cl: f32,
    /// Mean fraction of edges kept by the two sampled views.
    pub kept_fraction: f32,
    /// Global L2 norm over the finite gradient entries of every parameter.
    pub grad_norm: f32,
    /// Number of non-finite (NaN/±∞) gradient entries this step. When this
    /// is non-zero — or the loss itself is non-finite — the Adam update is
    /// withheld entirely instead of poisoning the parameters and moments.
    pub bad_grads: usize,
}

impl StepStats {
    /// True when the loss and every gradient entry were finite, i.e. the
    /// optimizer update for this step was actually applied.
    pub fn update_applied(&self) -> bool {
        self.loss.is_finite() && self.bad_grads == 0
    }
}

/// Supervisor knobs for a single optimization step
/// ([`GraphAug::train_step_with`]). The defaults reproduce the historical
/// [`GraphAug::train_step`] behavior (modulo the always-on finite guard).
#[derive(Clone, Copy, Debug)]
pub struct StepOptions {
    /// Clip the global gradient L2 norm to this value before the update
    /// (the `RecoveryPolicy::ClipAndContinue` path of the runtime).
    pub clip_norm: Option<f32>,
    /// Multiplier on the configured learning rate — the runtime's
    /// rollback-with-LR-backoff recovery shrinks this after repeated
    /// divergence.
    pub lr_scale: f32,
    /// Fault-injection hook: poison the first gradient entry with NaN
    /// *after* backward and *before* the guard, so recovery paths can be
    /// exercised deterministically in tests.
    pub inject_nan_grad: bool,
}

impl Default for StepOptions {
    fn default() -> Self {
        StepOptions {
            clip_norm: None,
            lr_scale: 1.0,
            inject_nan_grad: false,
        }
    }
}

/// Complete serializable training state of a [`GraphAug`] model: parameter
/// values, Adam moments and step counter, the model's own RNG stream, and
/// the step cursor driving the contrastive warm-up ramp. Together with a
/// [`graphaug_graph::SamplerState`] this is sufficient to resume training
/// with a bit-identical loss trajectory (see `graphaug-runtime`).
#[derive(Clone, Debug)]
pub struct ModelState {
    /// Parameter values plus optimizer state.
    pub params: ParamStoreState,
    /// Raw xoshiro256++ state of the model's augmentation/CL stream.
    pub rng: [u64; 4],
    /// Number of optimization steps taken (CL warm-up cursor).
    pub steps_taken: u64,
    /// Whether a full `fit` has completed.
    pub trained: bool,
}

/// The GraphAug recommender (paper Sec. III). Construct with
/// [`GraphAug::new`], train with [`Trainable::fit`], then use the
/// [`Recommender`] interface for scoring.
pub struct GraphAug {
    cfg: GraphAugConfig,
    train_graph: InteractionGraph,
    adj: SpPair,
    edge_index: EdgeIndex,
    store: ParamStore,
    p_h0: ParamId,
    p_enc: Vec<ParamId>,
    p_mlp: [ParamId; 4],
    rng: StdRng,
    user_emb: Mat,
    item_emb: Mat,
    trained: bool,
    steps_taken: usize,
}

impl GraphAug {
    /// Initializes a model for the given training graph (parameters are
    /// Xavier-initialized from `cfg.seed`).
    pub fn new(cfg: GraphAugConfig, train: &InteractionGraph) -> Self {
        let mut model = GraphAug::construct(cfg, train);
        model.refresh_embeddings();
        model
    }

    /// Builds a model for **inference only**: the parameter store is
    /// constructed, `state` is restored into it, and the encoder forward
    /// runs exactly once to materialize the final user/item embedding
    /// tables. Unlike `GraphAug::new` followed by
    /// [`GraphAug::restore_training_state`], the throwaway
    /// Xavier-initialized parameters are never encoded, so a checkpoint
    /// load costs one forward pass instead of two — this is how the
    /// training runtime moves a model onto a delta-grown graph.
    pub fn for_inference(
        cfg: GraphAugConfig,
        train: &InteractionGraph,
        state: &ModelState,
    ) -> Result<Self, RestoreError> {
        let mut model = GraphAug::construct(cfg, train);
        // `restore_training_state` refreshes the embeddings on success —
        // that refresh is the single forward pass of this constructor.
        model.restore_training_state(state)?;
        Ok(model)
    }

    /// Shared constructor: registers every parameter (in the fixed order
    /// the snapshot codec relies on) but does *not* run the encoder — the
    /// cached embedding tables start zeroed until the caller refreshes or
    /// restores.
    fn construct(cfg: GraphAugConfig, train: &InteractionGraph) -> Self {
        let d = cfg.embed_dim;
        let n = train.n_nodes();
        let mut rng = seeded_rng(cfg.seed);
        let mut store = ParamStore::new();
        let p_h0 = store.register(xavier_uniform(n, d, &mut rng));
        // One mixing row per layer (the rows of the paper's mixing matrix
        // M), initialized to uniform hop averaging so training starts from
        // LightGCN-like propagation and refines the mixture. The vanilla
        // ("w/o Mixhop") ablation has no mixing parameters.
        let p_enc: Vec<ParamId> = if cfg.encoder == EncoderKind::Mixhop {
            let (r, c) = mixing_row_shape(cfg.hops.len());
            // Zero logits → uniform softmax mixture at initialization.
            (0..cfg.n_layers)
                .map(|_| store.register(Mat::zeros(r, c)))
                .collect()
        } else {
            Vec::new()
        };
        let h = (d / 2).max(4);
        let p_mlp = [
            store.register(xavier_uniform(2 * d, h, &mut rng)),
            store.register(Mat::zeros(1, h)),
            store.register(xavier_uniform(h, 1, &mut rng)),
            store.register(Mat::zeros(1, 1)),
        ];
        let adj = SpPair::symmetric(train.normalized_adjacency_plain());
        let edge_index = EdgeIndex::build(train);
        GraphAug {
            cfg,
            train_graph: train.clone(),
            adj,
            edge_index,
            store,
            p_h0,
            p_enc,
            p_mlp,
            rng,
            user_emb: Mat::zeros(train.n_users(), d),
            item_emb: Mat::zeros(train.n_items(), d),
            trained: false,
            steps_taken: 0,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &GraphAugConfig {
        &self.cfg
    }

    /// Total scalar parameter count (cost reporting, Table VI).
    pub fn n_parameters(&self) -> usize {
        self.store.scalar_count()
    }

    /// True once training has finished its last epoch, through
    /// [`crate::fit_with`] or a driver that calls [`GraphAug::mark_trained`].
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// The learned per-layer hop-mixing rows (rows of the mixing matrix
    /// `M`); empty for the vanilla encoder.
    pub fn mixing_rows(&self) -> Vec<Vec<f32>> {
        self.p_enc
            .iter()
            .map(|&p| self.store.value(p).as_slice().to_vec())
            .collect()
    }

    fn augmentor_settings(&self) -> AugmentorSettings {
        AugmentorSettings {
            gumbel_temperature: self.cfg.gumbel_temperature,
            edge_threshold: self.cfg.edge_threshold,
            feature_keep_prob: self.cfg.feature_keep_prob,
            feature_noise_std: self.cfg.feature_noise_std,
            leaky_slope: self.cfg.leaky_slope,
        }
    }

    fn param_nodes(
        &self,
        g: &mut Graph,
    ) -> (NodeId, Vec<NodeId>, AugmentorNodes, Vec<(ParamId, NodeId)>) {
        let h0 = self.store.node(g, self.p_h0);
        let enc: Vec<NodeId> = self.p_enc.iter().map(|&p| self.store.node(g, p)).collect();
        let mlp = AugmentorNodes {
            w1: self.store.node(g, self.p_mlp[0]),
            b1: self.store.node(g, self.p_mlp[1]),
            w2: self.store.node(g, self.p_mlp[2]),
            b2: self.store.node(g, self.p_mlp[3]),
        };
        let mut pairs = vec![(self.p_h0, h0)];
        pairs.extend(self.p_enc.iter().copied().zip(enc.iter().copied()));
        pairs.extend([
            (self.p_mlp[0], mlp.w1),
            (self.p_mlp[1], mlp.b1),
            (self.p_mlp[2], mlp.w2),
            (self.p_mlp[3], mlp.b2),
        ]);
        (h0, enc, mlp, pairs)
    }

    /// The configured encoder over `adj`: the clean graph (`&self.adj`) or
    /// a sampled view.
    fn encode<'a>(
        &self,
        g: &mut Graph,
        adj: impl Into<Adj<'a>>,
        h0: NodeId,
        enc: &[NodeId],
    ) -> NodeId {
        match self.cfg.encoder {
            EncoderKind::Mixhop => encode_mixhop(g, adj, h0, enc, &self.cfg.hops),
            EncoderKind::Vanilla => lightgcn_propagate(g, adj, h0, self.cfg.n_layers),
        }
    }

    fn sample_items(&mut self, n: usize) -> Vec<u32> {
        let n_items = self.train_graph.n_items() as u32;
        let off = self.train_graph.n_users() as u32;
        let mut pool: Vec<u32> = (0..n_items).collect();
        let n = n.min(pool.len());
        for i in 0..n {
            let j = self.rng.random_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(n);
        pool.iter_mut().for_each(|v| *v += off);
        pool
    }

    /// Runs one optimization step (one tape build/backward/Adam update)
    /// with default [`StepOptions`].
    pub fn train_step(&mut self, sampler: &mut TripletSampler<'_>) -> StepStats {
        self.train_step_with(sampler, &StepOptions::default())
    }

    /// Runs one optimization step under supervisor control. After backward,
    /// gradients are materialized and checked: any non-finite loss or
    /// gradient entry withholds the Adam update entirely (the parameters,
    /// moments, and step counter are untouched) and is reported through
    /// [`StepStats::bad_grads`] / [`StepStats::grad_norm`] so a recovery
    /// policy can decide what to do next. Finite gradients are optionally
    /// clipped to `opts.clip_norm` and applied at
    /// `learning_rate × opts.lr_scale`.
    pub fn train_step_with(
        &mut self,
        sampler: &mut TripletSampler<'_>,
        opts: &StepOptions,
    ) -> StepStats {
        let mut g = Graph::new();
        let (h0, enc, mlp, pairs) = self.param_nodes(&mut g);
        let h_main = self.encode(&mut g, &self.adj, h0, &enc);

        let (users, pos, neg) = sampler.sample_batch(self.cfg.bpr_batch);
        let batch = BprBatch::from_raw(users, pos, neg, self.train_graph.n_users());
        let bpr_main = bpr_loss(&mut g, h_main, &batch);
        let mut loss = bpr_main;
        let mut stats = StepStats {
            bpr: g.value(bpr_main).item(),
            ..Default::default()
        };

        if self.cfg.use_cl || self.cfg.use_gib {
            let settings = self.augmentor_settings();
            let logits = edge_logits(
                &mut g,
                h_main,
                &self.edge_index,
                &mlp,
                &settings,
                &mut self.rng,
            );
            let v1 = sample_view(&mut g, logits, &self.edge_index, &settings, &mut self.rng);
            let v2 = sample_view(&mut g, logits, &self.edge_index, &settings, &mut self.rng);
            stats.kept_fraction = 0.5 * (v1.kept_fraction + v2.kept_fraction);
            let z1 = self.encode(&mut g, v1.adj, h0, &enc);
            let z2 = self.encode(&mut g, v2.adj, h0, &enc);

            if self.cfg.use_gib {
                // −I(Z′;Y) lower bound: recommendation likelihood on both
                // view embeddings (Eq. 7) …
                let b1 = bpr_loss(&mut g, z1, &batch);
                let b2 = bpr_loss(&mut g, z2, &batch);
                let vb_sum = g.add(b1, b2);
                let vb = g.scale(vb_sum, 0.5 * self.cfg.view_bpr_weight);
                loss = g.add(loss, vb);
                // … plus the compression KL (Eq. 9) weighted by β₁.
                let kl = gib_kl(&mut g, h_main, z1, z2);
                stats.kl = g.value(kl).item();
                let klw = g.scale(kl, self.cfg.beta_gib);
                loss = g.add(loss, klw);
            }
            if self.cfg.use_cl {
                let user_idx = Arc::new(
                    TripletSampler::new(&self.train_graph, self.rng.random())
                        .sample_active_users(self.cfg.cl_batch),
                );
                let item_idx = Arc::new(self.sample_items(self.cfg.cl_batch));
                let cu = infonce_loss(&mut g, z1, z2, &user_idx, self.cfg.temperature);
                let ci = infonce_loss(&mut g, z1, z2, &item_idx, self.cfg.temperature);
                let c = g.add(cu, ci);
                stats.cl = g.value(c).item();
                // Linear warm-up of the contrastive weight (see config).
                let ramp = if self.cfg.cl_warmup_steps == 0 {
                    1.0
                } else {
                    ((self.steps_taken + 1) as f32 / self.cfg.cl_warmup_steps as f32).min(1.0)
                };
                let cw = g.scale(c, self.cfg.beta_cl * ramp);
                loss = g.add(loss, cw);
            }
        }

        // β₃ ‖Θ‖²_F.
        let param_nodes: Vec<NodeId> = pairs.iter().map(|&(_, n)| n).collect();
        let wd = weight_decay(&mut g, &param_nodes);
        let wdw = g.scale(wd, self.cfg.beta_reg);
        loss = g.add(loss, wdw);

        stats.loss = g.value(loss).item();
        g.backward(loss);

        let mut grads: Vec<(ParamId, Mat)> = Vec::with_capacity(pairs.len());
        for &(pid, nid) in &pairs {
            if let Some(gm) = g.grad(nid) {
                grads.push((pid, gm.clone()));
            }
        }
        if opts.inject_nan_grad {
            if let Some((_, gm)) = grads.first_mut() {
                gm.as_mut_slice()[0] = f32::NAN;
            }
        }
        // Serial fixed-order reduction: the norm is bit-identical for any
        // thread count, like everything else in the step.
        let mut sq_sum = 0f64;
        for (_, gm) in &grads {
            for &x in gm.as_slice() {
                if x.is_finite() {
                    sq_sum += (x as f64) * (x as f64);
                } else {
                    stats.bad_grads += 1;
                }
            }
        }
        stats.grad_norm = sq_sum.sqrt() as f32;

        self.steps_taken += 1;
        if !stats.update_applied() {
            return stats;
        }
        let mut scale = 1.0f32;
        if let Some(max) = opts.clip_norm {
            if stats.grad_norm > max && stats.grad_norm > 0.0 {
                scale = max / stats.grad_norm;
            }
        }
        self.store.apply_step(
            &grads,
            Optimizer::adam(self.cfg.learning_rate * opts.lr_scale),
            scale,
        );
        stats
    }

    /// Captures the model's complete training state for checkpointing.
    pub fn training_state(&self) -> ModelState {
        ModelState {
            params: self.store.snapshot(),
            rng: self.rng.state(),
            steps_taken: self.steps_taken as u64,
            trained: self.trained,
        }
    }

    /// Restores a state captured by [`GraphAug::training_state`] into a
    /// model built with the *same configuration and training graph* — shape
    /// mismatches are rejected and leave the model untouched. On success the
    /// cached embeddings are refreshed, and subsequent training continues
    /// the snapshotted run bit-identically.
    pub fn restore_training_state(&mut self, state: &ModelState) -> Result<(), RestoreError> {
        self.store.restore(&state.params)?;
        self.rng = StdRng::from_state(state.rng);
        self.steps_taken = state.steps_taken as usize;
        self.trained = state.trained;
        self.refresh_embeddings();
        Ok(())
    }

    /// Marks the model as fully trained — called by external training
    /// drivers (e.g. `graphaug-runtime`) that run their own loop through
    /// [`GraphAug::train_step_with`] instead of [`crate::fit_with`].
    pub fn mark_trained(&mut self) {
        self.trained = true;
    }

    /// Recomputes and caches the final user/item embeddings from the clean
    /// graph (the paper's forecasting phase uses `Ĥ = GE(G)`).
    pub fn refresh_embeddings(&mut self) {
        let mut g = Graph::new();
        let (h0, enc, _, _) = self.param_nodes(&mut g);
        let h = self.encode(&mut g, &self.adj, h0, &enc);
        let (nu, ni) = (self.train_graph.n_users(), self.train_graph.n_items());
        (self.user_emb, self.item_emb) = split_embeddings(g.value(h), nu, ni);
    }

    /// Deterministic keep-probabilities `p((u,v)|H̄)` for every training
    /// edge under the trained augmentor (feature disturbance disabled) —
    /// the quantity visualized in the paper's case study (Fig. 6).
    pub fn edge_keep_probabilities(&mut self) -> Vec<f32> {
        let mut g = Graph::new();
        let (h0, enc, mlp, _) = self.param_nodes(&mut g);
        let h_main = self.encode(&mut g, &self.adj, h0, &enc);
        let settings = AugmentorSettings {
            feature_keep_prob: 1.0,
            feature_noise_std: 0.0,
            ..self.augmentor_settings()
        };
        let logits = edge_logits(
            &mut g,
            h_main,
            &self.edge_index,
            &mlp,
            &settings,
            &mut self.rng,
        );
        let probs = g.sigmoid(logits);
        g.value(probs).as_slice().to_vec()
    }

    /// The training edges in the order matched by
    /// [`GraphAug::edge_keep_probabilities`].
    pub fn train_edges(&self) -> &[(u32, u32)] {
        self.train_graph.edges()
    }
}

impl Recommender for GraphAug {
    fn name(&self) -> &str {
        self.cfg.variant_name()
    }

    fn embeddings(&self) -> Option<(&Mat, &Mat)> {
        Some((&self.user_emb, &self.item_emb))
    }
}

impl Trainable for GraphAug {
    fn train_graph(&self) -> &InteractionGraph {
        &self.train_graph
    }
    fn epochs(&self) -> usize {
        self.cfg.epochs
    }
    fn steps_per_epoch(&self) -> usize {
        self.cfg.steps_per_epoch
    }
    fn sampler_seed(&self) -> u64 {
        self.cfg.seed.wrapping_add(101)
    }
    fn step(&mut self, sampler: &mut TripletSampler<'_>) {
        self.train_step(sampler);
    }
    fn end_epoch(&mut self, epoch: usize) {
        self.refresh_embeddings();
        if epoch + 1 == self.cfg.epochs {
            self.mark_trained();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphaug_data::{generate, SyntheticConfig};
    use graphaug_eval::evaluate;
    use graphaug_graph::TrainTestSplit;

    fn toy_train() -> InteractionGraph {
        generate(&SyntheticConfig::new(60, 50, 700).clusters(4).seed(11))
    }

    #[test]
    fn construction_initializes_embeddings() {
        let train = toy_train();
        let m = GraphAug::new(GraphAugConfig::fast_test(), &train);
        let (u, i) = m.embeddings().unwrap();
        assert_eq!(u.shape(), (60, 16));
        assert_eq!(i.shape(), (50, 16));
        assert!(u.all_finite() && i.all_finite());
    }

    #[test]
    fn train_step_reduces_loss_over_time() {
        let train = toy_train();
        let mut m = GraphAug::new(GraphAugConfig::fast_test(), &train);
        let graph = m.train_graph.clone();
        let mut sampler = TripletSampler::new(&graph, 5);
        let first = m.train_step(&mut sampler);
        let mut last = first;
        for _ in 0..30 {
            last = m.train_step(&mut sampler);
        }
        assert!(last.loss.is_finite());
        assert!(
            last.bpr < first.bpr,
            "BPR should improve: first {} last {}",
            first.bpr,
            last.bpr
        );
    }

    #[test]
    fn training_beats_untrained_ranking() {
        let full = generate(&SyntheticConfig::new(80, 60, 1200).clusters(4).seed(3));
        let split = TrainTestSplit::per_user(&full, 0.2, 9);
        let untrained = GraphAug::new(GraphAugConfig::fast_test(), &split.train);
        let before = evaluate(&untrained, &split, &[20]);
        let mut m = GraphAug::new(GraphAugConfig::fast_test().epochs(12), &split.train);
        m.fit();
        let after = evaluate(&m, &split, &[20]);
        assert!(
            after.recall(20) > before.recall(20),
            "training should help: before {} after {}",
            before.recall(20),
            after.recall(20)
        );
    }

    #[test]
    fn ablation_variants_have_distinct_names() {
        let names: Vec<&str> = [
            GraphAugConfig::fast_test(),
            GraphAugConfig::fast_test().encoder(EncoderKind::Vanilla),
            GraphAugConfig::fast_test().gib(false),
            GraphAugConfig::fast_test().cl(false),
        ]
        .iter()
        .map(GraphAugConfig::variant_name)
        .collect();
        assert_eq!(names.len(), 4);
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn ablations_train_without_views_when_disabled() {
        let train = toy_train();
        let mut m = GraphAug::new(
            GraphAugConfig::fast_test().gib(false).cl(false).epochs(2),
            &train,
        );
        let graph = m.train_graph.clone();
        let mut sampler = TripletSampler::new(&graph, 5);
        let stats = m.train_step(&mut sampler);
        assert_eq!(stats.kl, 0.0);
        assert_eq!(stats.cl, 0.0);
        assert_eq!(stats.kept_fraction, 0.0);
        assert!(stats.loss.is_finite());
    }

    #[test]
    fn train_step_reports_finite_grad_norm() {
        let train = toy_train();
        let mut m = GraphAug::new(GraphAugConfig::fast_test(), &train);
        let graph = m.train_graph.clone();
        let mut sampler = TripletSampler::new(&graph, 5);
        let stats = m.train_step(&mut sampler);
        assert_eq!(stats.bad_grads, 0);
        assert!(stats.update_applied());
        assert!(stats.grad_norm.is_finite() && stats.grad_norm > 0.0);
    }

    #[test]
    fn nan_injection_withholds_the_update_and_training_recovers() {
        let train = toy_train();
        let mut m = GraphAug::new(GraphAugConfig::fast_test(), &train);
        let graph = m.train_graph.clone();
        let mut sampler = TripletSampler::new(&graph, 5);
        m.train_step(&mut sampler);
        let before = m.training_state();
        let poisoned = m.train_step_with(
            &mut sampler,
            &StepOptions {
                inject_nan_grad: true,
                ..Default::default()
            },
        );
        assert!(poisoned.bad_grads > 0);
        assert!(!poisoned.update_applied());
        // Parameters and Adam state must be exactly as before the bad step.
        let after = m.training_state();
        assert_eq!(after.params.t, before.params.t, "Adam step not advanced");
        for (a, b) in after.params.slots.iter().zip(&before.params.slots) {
            assert_eq!(a.value, b.value, "poisoned update must not be applied");
            assert_eq!(a.m, b.m);
            assert_eq!(a.v, b.v);
        }
        // The next clean step applies normally.
        let clean = m.train_step(&mut sampler);
        assert!(clean.update_applied());
        assert!(m.embeddings().unwrap().0.all_finite());
    }

    #[test]
    fn clip_norm_shrinks_the_applied_update() {
        let train = toy_train();
        let mut m = GraphAug::new(GraphAugConfig::fast_test(), &train);
        let graph = m.train_graph.clone();
        let mut sampler = TripletSampler::new(&graph, 5);
        let start = m.training_state();
        let unclipped = m.train_step(&mut sampler);
        assert!(unclipped.grad_norm > 1e-3, "need a non-trivial gradient");
        let after_unclipped = m.training_state();
        // Replay the identical step with an aggressive clip.
        m.restore_training_state(&start).unwrap();
        let mut sampler = TripletSampler::new(&graph, 5);
        let clipped = m.train_step_with(
            &mut sampler,
            &StepOptions {
                clip_norm: Some(unclipped.grad_norm / 100.0),
                ..Default::default()
            },
        );
        assert_eq!(clipped.grad_norm.to_bits(), unclipped.grad_norm.to_bits());
        let after_clipped = m.training_state();
        // Both applied an update, but they differ (the clip rescaled it).
        assert_ne!(
            after_clipped.params.slots[0].value.as_slice(),
            after_unclipped.params.slots[0].value.as_slice()
        );
        assert_ne!(
            after_clipped.params.slots[0].value.as_slice(),
            start.params.slots[0].value.as_slice()
        );
    }

    #[test]
    fn training_state_round_trip_resumes_bit_identically() {
        let train = toy_train();
        let cfg = GraphAugConfig::fast_test();
        let mut m = GraphAug::new(cfg.clone(), &train);
        let graph = m.train_graph.clone();
        let mut sampler = TripletSampler::new(&graph, 5);
        for _ in 0..4 {
            m.train_step(&mut sampler);
        }
        let model_state = m.training_state();
        let sampler_state = sampler.state();
        let expect: Vec<u32> = (0..5)
            .map(|_| m.train_step(&mut sampler).loss.to_bits())
            .collect();

        let mut resumed = GraphAug::new(cfg, &train);
        resumed.restore_training_state(&model_state).unwrap();
        let mut resumed_sampler = TripletSampler::from_state(&graph, sampler_state);
        let got: Vec<u32> = (0..5)
            .map(|_| resumed.train_step_with(&mut resumed_sampler, &StepOptions::default()))
            .map(|s| s.loss.to_bits())
            .collect();
        assert_eq!(expect, got, "resumed loss trajectory must be bit-identical");
        // `embeddings()` serves a cache; recompute both from current params.
        m.refresh_embeddings();
        resumed.refresh_embeddings();
        let (u_a, i_a) = m.embeddings().unwrap();
        let (u_b, i_b) = resumed.embeddings().unwrap();
        assert_eq!(u_a, u_b);
        assert_eq!(i_a, i_b);
    }

    #[test]
    fn for_inference_matches_the_training_model_bit_exactly() {
        let train = toy_train();
        let cfg = GraphAugConfig::fast_test();
        let mut m = GraphAug::new(cfg.clone(), &train);
        let graph = m.train_graph.clone();
        let mut sampler = TripletSampler::new(&graph, 5);
        for _ in 0..6 {
            m.train_step(&mut sampler);
        }
        m.refresh_embeddings();
        let served = GraphAug::for_inference(cfg, &train, &m.training_state()).unwrap();
        let (u_a, i_a) = m.embeddings().unwrap();
        let (u_b, i_b) = served.embeddings().unwrap();
        assert_eq!(u_a, u_b, "inference-only forward must match training");
        assert_eq!(i_a, i_b);
    }

    #[test]
    fn for_inference_rejects_a_differently_shaped_state() {
        let train = toy_train();
        let m8 = GraphAug::new(GraphAugConfig::fast_test().embed_dim(8), &train);
        let err =
            GraphAug::for_inference(GraphAugConfig::fast_test(), &train, &m8.training_state());
        assert!(err.is_err());
    }

    #[test]
    fn restore_rejects_a_differently_shaped_model() {
        let train = toy_train();
        let m8 = GraphAug::new(GraphAugConfig::fast_test().embed_dim(8), &train);
        let mut m16 = GraphAug::new(GraphAugConfig::fast_test(), &train);
        assert!(m16.restore_training_state(&m8.training_state()).is_err());
    }

    #[test]
    fn edge_probabilities_cover_all_train_edges() {
        let train = toy_train();
        let mut m = GraphAug::new(GraphAugConfig::fast_test().epochs(2), &train);
        m.fit();
        let probs = m.edge_keep_probabilities();
        assert_eq!(probs.len(), m.train_edges().len());
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn fit_with_invokes_callback_every_epoch() {
        let train = toy_train();
        let mut m = GraphAug::new(GraphAugConfig::fast_test().epochs(3), &train);
        let mut seen = Vec::new();
        crate::fit_with(&mut m, |e, m| {
            let (u, i) = m.embeddings().unwrap();
            assert!(u.all_finite() && i.all_finite());
            assert_eq!(m.is_trained(), e == 2);
            seen.push(e);
        });
        assert_eq!(seen, vec![0, 1, 2]);
    }
}
