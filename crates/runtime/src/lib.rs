//! Fault-tolerant training runtime for the GraphAug reproduction.
//!
//! Training runs die: preemptions, OOM kills, NaN explosions, corrupted
//! snapshots. This crate wraps [`graphaug_core::GraphAug`] in a
//! [`Runtime`] that survives all of them, built from three pillars:
//!
//! 1. **Checkpoint/restore** ([`checkpoint`], [`snapshot`]) — a versioned,
//!    checksummed, dependency-free binary snapshot of *everything* that
//!    shapes the loss trajectory (parameters, Adam moments and step counter,
//!    model RNG stream, sampler stream, epoch cursor, recovery bookkeeping)
//!    plus the tables the generation serves, written atomically with two
//!    retained generations. Because the whole
//!    stack is bit-deterministic at any thread count, a resumed run is not
//!    merely "close": it reproduces the uninterrupted run **bit-identically**
//!    — and the tests assert exactly that.
//! 2. **Divergence guards** ([`guards`]) — every step's loss and global
//!    gradient norm are checked; non-finite updates are withheld inside
//!    `train_step_with` before they can poison the optimizer, and a rolling
//!    median spike detector flags silent blow-ups. A configurable
//!    [`RecoveryPolicy`] decides what happens next: skip the batch, clip and
//!    continue, or roll back to the last good state with learning-rate
//!    backoff.
//! 3. **Fault injection** ([`fault`]) — scripted NaN gradients, simulated
//!    kills between batches or epochs, and on-disk checkpoint damage
//!    (truncation, bit flips), so every recovery path above is exercised by
//!    deterministic tests instead of waiting for production to exercise it
//!    for you.
//!
//! # Quickstart
//!
//! ```
//! use graphaug_core::GraphAugConfig;
//! use graphaug_data::{generate, SyntheticConfig};
//! use graphaug_runtime::{Runtime, RuntimeConfig};
//!
//! let graph = generate(&SyntheticConfig::new(40, 30, 400).seed(1));
//! let dir = std::env::temp_dir().join("graphaug-quickstart-ckpt");
//! let cfg = RuntimeConfig::new(GraphAugConfig::fast_test().epochs(2))
//!     .checkpoint_dir(&dir);
//! let mut rt = Runtime::new(cfg.clone(), &graph).unwrap();
//! let report = rt.run().unwrap();
//! assert_eq!(report.epochs_completed, 2);
//! assert!(report.checkpoints_written >= 1);
//!
//! // After a crash: pick up from the newest valid checkpoint.
//! let resumed = Runtime::resume(cfg, &graph).unwrap();
//! assert_eq!(resumed.epochs_completed(), 2);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod checkpoint;
pub mod demo;
pub mod fault;
pub mod guards;
pub mod online;
pub mod runtime;
pub mod snapshot;

pub use checkpoint::{
    generation_path, inspect_dir, list_generations, load_latest_valid, newest_generation,
    CheckpointInfo, CheckpointSummary, Checkpointer, RunCompat, ServedTables, TrainState,
};
pub use demo::{demo_config, demo_split};
pub use fault::{corrupt_checkpoint, truncate_checkpoint, FaultPlan};
pub use guards::{RecoveryPolicy, SpikeDetector, StepVerdict};
pub use online::{FineTuner, OnlineError, RoundReport};
pub use runtime::{RecoveryAction, RecoveryEvent, RunReport, Runtime, RuntimeConfig, RuntimeError};
pub use snapshot::SnapshotError;
