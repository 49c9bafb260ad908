//! GraphAug hyperparameters (paper Sec. IV-A3) and ablation switches.

/// Encoder choice for the ablation study (Fig. 2, Table III).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncoderKind {
    /// The paper's mixhop encoder: per layer, hop-0/1/2 propagations are
    /// combined by a learnable softmax mixing row (the rows of the paper's
    /// mixing matrix `M`, Eq. 11–13).
    Mixhop,
    /// Single-hop LightGCN-style propagation — the "w/o Mixhop" variant.
    Vanilla,
}

/// Full GraphAug configuration. Defaults follow the paper's reported
/// settings (`d = 32`, `τ = 0.9`, `ξ = 0.2`, `β₁ = 1e-5`, `β₂ = β₃`
/// rebalanced for the scaled datasets).
#[derive(Clone, Debug)]
pub struct GraphAugConfig {
    /// Embedding dimensionality `d` (paper reports with 32).
    pub embed_dim: usize,
    /// Number of message-passing layers `L`.
    pub n_layers: usize,
    /// Mixhop powers `M` (paper uses {0, 1, 2}).
    pub hops: Vec<usize>,
    /// LeakyReLU negative slope (paper fixes 0.5).
    pub leaky_slope: f32,
    /// InfoNCE temperature `τ` (paper best: 0.9).
    pub temperature: f32,
    /// Gumbel/concrete relaxation temperature `τ₁` (Eq. 5).
    pub gumbel_temperature: f32,
    /// Edge sampling threshold `ξ` (Eq. 5; paper best: 0.2).
    pub edge_threshold: f32,
    /// GIB weight `β₁` (Eq. 16; paper best: 1e-5 — rescaled here because the
    /// KL is averaged rather than summed).
    pub beta_gib: f32,
    /// Contrastive weight `β₂`.
    pub beta_cl: f32,
    /// Weight of the view-likelihood (−I(Z′;Y) bound) BPR term inside the
    /// GIB objective.
    pub view_bpr_weight: f32,
    /// Steps over which the contrastive weight ramps from 0 to `beta_cl`.
    /// Full-strength InfoNCE before the ranking loss has shaped the
    /// embedding space collapses training on denser graphs.
    pub cl_warmup_steps: usize,
    /// Weight-decay `β₃`.
    pub beta_reg: f32,
    /// Element keep-probability of the feature mask `m` (Eq. 4).
    pub feature_keep_prob: f32,
    /// Std-dev of the feature noise `ε` (Eq. 4).
    pub feature_noise_std: f32,
    /// Adam learning rate `ι`.
    pub learning_rate: f32,
    /// Training epochs `E`.
    pub epochs: usize,
    /// Optimization steps per epoch.
    pub steps_per_epoch: usize,
    /// BPR triplets per step.
    pub bpr_batch: usize,
    /// Users (and items) per contrastive batch.
    pub cl_batch: usize,
    /// RNG seed.
    pub seed: u64,
    /// Encoder ablation switch.
    pub encoder: EncoderKind,
    /// Disable the GIB regularizer ("w/o GIB").
    pub use_gib: bool,
    /// Disable contrastive augmentation ("w/o CL").
    pub use_cl: bool,
}

impl Default for GraphAugConfig {
    fn default() -> Self {
        GraphAugConfig {
            embed_dim: 32,
            n_layers: 2,
            hops: vec![0, 1, 2],
            leaky_slope: 0.5,
            temperature: 0.9,
            gumbel_temperature: 0.5,
            edge_threshold: 0.2,
            beta_gib: 1e-2,
            beta_cl: 1.0,
            view_bpr_weight: 0.1,
            cl_warmup_steps: 60,
            beta_reg: 1e-5,
            feature_keep_prob: 0.9,
            feature_noise_std: 0.1,
            learning_rate: 5e-3,
            epochs: 40,
            steps_per_epoch: 6,
            bpr_batch: 1024,
            cl_batch: 256,
            seed: 2024,
            encoder: EncoderKind::Mixhop,
            use_gib: true,
            use_cl: true,
        }
    }
}

impl GraphAugConfig {
    /// Paper-default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the embedding dimension.
    pub fn embed_dim(mut self, d: usize) -> Self {
        assert!(
            d >= 2 && d.is_multiple_of(2),
            "GIB pooling splits d in half"
        );
        self.embed_dim = d;
        self
    }

    /// Sets the number of layers.
    pub fn layers(mut self, l: usize) -> Self {
        self.n_layers = l;
        self
    }

    /// Sets the InfoNCE temperature.
    pub fn temperature(mut self, t: f32) -> Self {
        assert!(t > 0.0);
        self.temperature = t;
        self
    }

    /// Sets the edge-sampling threshold ξ.
    pub fn edge_threshold(mut self, xi: f32) -> Self {
        assert!((0.0..1.0).contains(&xi));
        self.edge_threshold = xi;
        self
    }

    /// Sets the GIB weight β₁.
    pub fn beta_gib(mut self, b: f32) -> Self {
        self.beta_gib = b;
        self
    }

    /// Sets the contrastive weight β₂.
    pub fn beta_cl(mut self, b: f32) -> Self {
        self.beta_cl = b;
        self
    }

    /// Sets training length.
    pub fn epochs(mut self, e: usize) -> Self {
        self.epochs = e;
        self
    }

    /// Sets optimization steps per epoch.
    pub fn steps_per_epoch(mut self, s: usize) -> Self {
        self.steps_per_epoch = s;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Selects the encoder ("w/o Mixhop" ablation uses
    /// [`EncoderKind::Vanilla`]).
    pub fn encoder(mut self, e: EncoderKind) -> Self {
        self.encoder = e;
        self
    }

    /// Enables/disables the GIB regularizer ("w/o GIB" ablation).
    pub fn gib(mut self, on: bool) -> Self {
        self.use_gib = on;
        self
    }

    /// Enables/disables contrastive augmentation ("w/o CL" ablation).
    pub fn cl(mut self, on: bool) -> Self {
        self.use_cl = on;
        self
    }

    /// Name of the ablation variant these switches select.
    pub fn variant_name(&self) -> &'static str {
        match (self.encoder, self.use_gib, self.use_cl) {
            (EncoderKind::Mixhop, true, true) => "GraphAug",
            (EncoderKind::Vanilla, true, true) => "GraphAug w/o Mixhop",
            (EncoderKind::Mixhop, false, true) => "GraphAug w/o GIB",
            (EncoderKind::Mixhop, true, false) => "GraphAug w/o CL",
            (EncoderKind::Vanilla, false, true) => "GraphAug w/o Mixhop+GIB",
            (EncoderKind::Vanilla, true, false) => "GraphAug w/o Mixhop+CL",
            (EncoderKind::Mixhop, false, false) => "GraphAug base",
            (EncoderKind::Vanilla, false, false) => "GraphAug base (vanilla)",
        }
    }

    /// A fast configuration for unit/integration tests. The contrastive
    /// weight is softened: at tiny step budgets the full-strength InfoNCE
    /// term dominates before the ranking loss has warmed up.
    pub fn fast_test() -> Self {
        GraphAugConfig::default()
            .embed_dim(16)
            .epochs(8)
            .steps_per_epoch(3)
            .beta_cl(0.2)
            .seed(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = GraphAugConfig::default();
        assert_eq!(c.embed_dim, 32);
        assert_eq!(c.hops, vec![0, 1, 2]);
        assert_eq!(c.temperature, 0.9);
        assert_eq!(c.edge_threshold, 0.2);
        assert_eq!(c.encoder, EncoderKind::Mixhop);
        assert!(c.use_gib && c.use_cl);
    }

    #[test]
    fn builder_chains() {
        let c = GraphAugConfig::new()
            .embed_dim(8)
            .temperature(0.5)
            .edge_threshold(0.4)
            .encoder(EncoderKind::Vanilla)
            .gib(false)
            .cl(false);
        assert_eq!(c.embed_dim, 8);
        assert_eq!(c.encoder, EncoderKind::Vanilla);
        assert!(!c.use_gib && !c.use_cl);
    }

    #[test]
    #[should_panic(expected = "splits d in half")]
    fn rejects_odd_embed_dim() {
        GraphAugConfig::new().embed_dim(7);
    }
}
