//! The online-learning loop: watching the interaction log and warm-start
//! fine-tuning the latest checkpoint over windows of fresh interactions.
//!
//! # Watermarks and windows
//!
//! Every checkpoint carries a `log_offset` watermark: the model state was
//! trained on the base graph plus log records `[0, log_offset)`. The
//! [`FineTuner`] advances that watermark in fixed windows of `window`
//! records: a fine-tune round fires only once a *complete* window of new
//! records exists beyond the current watermark, and a partial tail stays
//! pending. Fixed windows are what make the loop replayable — live
//! ingestion (rounds firing as the log grows) and offline replay (rounds
//! fired back-to-back over a finished log) walk the identical sequence of
//! (graph, window) pairs, so they produce byte-identical checkpoints.
//!
//! # One round
//!
//! 1. read records `[w, w + window)` (checksum-verified),
//! 2. [`apply_deltas`] onto the current graph (dedup + re-validate),
//! 3. [`Runtime::absorb_deltas`] — the model is rebuilt over the grown
//!    graph with its parameters/optimizer/RNG streams restored,
//! 4. [`Runtime::fine_tune_round`] — one extra epoch of
//!    `cfg.model.steps_per_epoch` guarded steps continuing the persisted
//!    sampler stream, then a checkpoint publish the serving watcher picks
//!    up with zero downtime.

use std::path::{Path, PathBuf};

use graphaug_graph::InteractionGraph;
use graphaug_ingest::{apply_deltas, log_len, read_range, IngestError};

use crate::runtime::{Runtime, RuntimeConfig, RuntimeError};
use crate::snapshot::SnapshotError;

/// Why the online loop could not proceed.
#[derive(Debug)]
pub enum OnlineError {
    /// Training-side failure (checkpointing, restore, divergence).
    Runtime(RuntimeError),
    /// Log-side failure (corrupt record, chain gap, out-of-range ids).
    Ingest(IngestError),
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::Runtime(e) => write!(f, "online runtime error: {e}"),
            OnlineError::Ingest(e) => write!(f, "online ingest error: {e}"),
        }
    }
}

impl std::error::Error for OnlineError {}

impl From<RuntimeError> for OnlineError {
    fn from(e: RuntimeError) -> Self {
        OnlineError::Runtime(e)
    }
}

impl From<IngestError> for OnlineError {
    fn from(e: IngestError) -> Self {
        OnlineError::Ingest(e)
    }
}

/// What one fine-tune round did.
#[derive(Clone, Debug)]
pub struct RoundReport {
    /// Fine-tune rounds applied in total after this one.
    pub round: u64,
    /// The watermark after this round (records `[0, watermark)` absorbed).
    pub watermark: u64,
    /// New edges this round's window added to the graph.
    pub applied: usize,
    /// Window records that were duplicates of existing edges.
    pub duplicates: usize,
    /// Guarded training steps executed.
    pub steps: usize,
    /// Mean loss over the round's applied steps (`NaN` when none applied).
    pub mean_loss: f32,
}

/// The incremental trainer: owns a [`Runtime`] resumed from the latest
/// checkpoint and a watermark-resolved graph, and turns complete log
/// windows into checkpoint generations.
pub struct FineTuner {
    rt: Runtime,
    graph: InteractionGraph,
    log_dir: PathBuf,
    window: u64,
}

impl FineTuner {
    /// Resumes the online loop from the newest valid checkpoint under
    /// `cfg.checkpoint_dir`. The frame carries the graph it was trained on
    /// (base plus log records `[0, watermark)`), so the resumed graph is
    /// exactly the checkpoint's wherever in the stream the previous process
    /// died, without reading the log. A frame whose graph is not over
    /// `base`'s users and items is refused as
    /// [`SnapshotError::Incompatible`].
    ///
    /// `window` is the fixed round size in records and must match across
    /// every process that ever advanced this checkpoint directory —
    /// it defines the replayable round boundaries.
    pub fn open(
        cfg: RuntimeConfig,
        base: &InteractionGraph,
        log_dir: &Path,
        window: u64,
    ) -> Result<FineTuner, OnlineError> {
        assert!(window >= 1, "window must be >= 1");
        let dir = cfg
            .checkpoint_dir
            .clone()
            .expect("FineTuner::open requires a checkpoint_dir");
        let Some((_, state)) = crate::checkpoint::load_latest_valid(&dir) else {
            return Err(OnlineError::Runtime(RuntimeError::NoCheckpoint(dir)));
        };
        let graph = state.served.graph.clone();
        let shape = (graph.n_users(), graph.n_items(), graph.n_interactions());
        let want = (
            base.n_users(),
            base.n_items(),
            state.compat.n_edges as usize,
        );
        if shape != want {
            let e = SnapshotError::Incompatible(format!(
                "checkpoint graph is {shape:?} (users, items, edges), expected {want:?}"
            ));
            return Err(RuntimeError::from(e).into());
        }
        let mut rt = Runtime::new(cfg, &graph)?;
        rt.restore_state(&state)?;
        Ok(FineTuner {
            rt,
            graph,
            log_dir: log_dir.to_path_buf(),
            window,
        })
    }

    /// The current watermark.
    pub fn watermark(&self) -> u64 {
        self.rt.log_offset()
    }

    /// Fine-tune rounds applied so far (across resumes).
    pub fn finetunes(&self) -> u64 {
        self.rt.finetunes()
    }

    /// The graph as of the current watermark.
    pub fn graph(&self) -> &InteractionGraph {
        &self.graph
    }

    /// The underlying runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Runs one fine-tune round if a complete window of fresh records is
    /// available; `Ok(None)` means the log has no full window yet (the
    /// pending tail, if any, stays untouched).
    pub fn poll_once(&mut self) -> Result<Option<RoundReport>, OnlineError> {
        let w = self.rt.log_offset();
        if log_len(&self.log_dir)? < w + self.window {
            return Ok(None);
        }
        let records = read_range(&self.log_dir, w, w + self.window)?;
        let delta = apply_deltas(&self.graph, &records)?;
        self.rt.absorb_deltas(&delta.graph, w + self.window)?;
        self.graph = delta.graph;
        let report = self.rt.fine_tune_round()?;
        let steps = report.step_losses.len();
        let mean_loss = report.step_losses.iter().sum::<f32>() / steps as f32;
        Ok(Some(RoundReport {
            round: self.rt.finetunes(),
            watermark: self.rt.log_offset(),
            applied: delta.applied,
            duplicates: delta.duplicates,
            steps,
            mean_loss,
        }))
    }

    /// Drains every complete window currently in the log — the replay
    /// path: after this, the watermark is within one window of the log's
    /// end, and the checkpoints written are byte-identical to the ones a
    /// live process produced while the log was streaming in.
    pub fn run_pending(&mut self) -> Result<Vec<RoundReport>, OnlineError> {
        let mut out = Vec::new();
        while let Some(report) = self.poll_once()? {
            out.push(report);
        }
        Ok(out)
    }
}
