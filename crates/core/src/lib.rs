//! **GraphAug** — a from-scratch Rust implementation of *"Graph Augmentation
//! for Recommendation"* (ICDE 2024).
//!
//! GraphAug is a self-supervised graph-collaborative-filtering model built
//! from three cooperating pieces:
//!
//! 1. a **learnable augmentor** ([`augmentor`]) that scores every observed
//!    user–item edge with an MLP and draws two denoised contrastive views
//!    via Gumbel/concrete reparameterization (paper Eq. 4–5);
//! 2. a **Graph Information Bottleneck regularizer** ([`gib`]) that keeps
//!    the views predictive of interactions while compressing away structure
//!    noise (Eq. 6–10);
//! 3. a **mixhop encoder** ([`mixhop`]) that concatenates hop-0/1/2
//!    propagations per layer to counteract oversmoothing (Eq. 11–13).
//!
//! Training jointly minimizes `BPR + β₁·GIB + β₂·InfoNCE + β₃·‖Θ‖²` (Eq. 16)
//! — see [`GraphAug::train_step`]. Every arm of the evaluation, GraphAug and
//! the baselines alike, trains through the one driver in [`train`].
//!
//! # Quickstart
//!
//! ```
//! use graphaug_core::{GraphAug, GraphAugConfig, Trainable};
//! use graphaug_data::{generate, SyntheticConfig};
//! use graphaug_eval::{evaluate, Recommender};
//! use graphaug_graph::TrainTestSplit;
//!
//! let data = generate(&SyntheticConfig::new(80, 60, 1000).seed(1));
//! let split = TrainTestSplit::per_user(&data, 0.2, 1);
//! let mut model = GraphAug::new(GraphAugConfig::fast_test(), &split.train);
//! model.fit();
//! let result = evaluate(&model, &split, &[20]);
//! assert!(result.recall(20) >= 0.0);
//! ```

pub mod augmentor;
pub mod config;
pub mod gib;
pub mod mixhop;
pub mod model;
pub mod nn;
pub mod train;

pub use augmentor::{AugmentorSettings, EdgeIndex, SampledView};
pub use config::{EncoderKind, GraphAugConfig};
pub use model::{GraphAug, ModelState, StepOptions, StepStats};
pub use train::{fit_with, Trainable};
