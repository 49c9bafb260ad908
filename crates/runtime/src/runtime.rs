//! The fault-tolerant training driver: owns the epoch loop around
//! [`GraphAug::train_step_with`], checkpoints at epoch boundaries, judges
//! every step with the divergence guards, and applies the configured
//! [`RecoveryPolicy`] when training goes off the rails.

use std::path::{Path, PathBuf};

use graphaug_core::{GraphAug, GraphAugConfig, StepOptions, Trainable};
use graphaug_graph::{GraphInvariantError, InteractionGraph, SamplerState, TripletSampler};
use graphaug_tensor::RestoreError;

use crate::checkpoint::{Checkpointer, RunCompat, TrainState};
use crate::fault::FaultPlan;
use crate::guards::{RecoveryPolicy, SpikeDetector, StepVerdict};
use crate::snapshot::SnapshotError;

/// Why the runtime could not start, restore, or continue.
#[derive(Debug)]
pub enum RuntimeError {
    /// The training graph failed its structural invariant check at startup.
    InvalidGraph(GraphInvariantError),
    /// A checkpoint could not be written or read.
    Snapshot(SnapshotError),
    /// A decoded checkpoint did not fit the model (shape mismatch).
    Restore(RestoreError),
    /// [`Runtime::resume`] found no valid checkpoint to resume from.
    NoCheckpoint(PathBuf),
    /// Rollback recovery exhausted its budget without stabilizing training.
    Unrecoverable {
        /// Rollbacks performed before giving up.
        rollbacks: u32,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::InvalidGraph(e) => write!(f, "training graph invalid: {e}"),
            RuntimeError::Snapshot(e) => write!(f, "checkpoint error: {e}"),
            RuntimeError::Restore(e) => write!(f, "checkpoint does not fit this model: {e}"),
            RuntimeError::NoCheckpoint(dir) => {
                write!(f, "no valid checkpoint under {}", dir.display())
            }
            RuntimeError::Unrecoverable { rollbacks } => {
                write!(
                    f,
                    "training diverged beyond recovery ({rollbacks} rollbacks)"
                )
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<SnapshotError> for RuntimeError {
    fn from(e: SnapshotError) -> Self {
        RuntimeError::Snapshot(e)
    }
}

impl From<RestoreError> for RuntimeError {
    fn from(e: RestoreError) -> Self {
        RuntimeError::Restore(e)
    }
}

/// Configuration of a [`Runtime`]: the model hyperparameters plus the
/// fault-tolerance knobs layered around them.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Model hyperparameters (epochs/steps_per_epoch drive the run length).
    pub model: GraphAugConfig,
    /// Where to persist checkpoints; `None` disables disk checkpointing
    /// (in-memory rollback still works).
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint every this many completed epochs.
    pub checkpoint_every: usize,
    /// What to do when a step diverges.
    pub policy: RecoveryPolicy,
    /// Rolling-window length of the loss-spike detector.
    pub spike_window: usize,
    /// Spike trip factor over the window median.
    pub spike_factor: f32,
    /// Rollbacks tolerated before declaring the run unrecoverable.
    pub max_rollbacks: u32,
    /// Scripted faults (tests and drills; [`FaultPlan::none`] in production).
    pub fault: FaultPlan,
}

impl RuntimeConfig {
    /// Defaults: checkpoint every epoch (once a directory is set), skip bad
    /// batches, an 8-step spike window tripping at 4× the median.
    pub fn new(model: GraphAugConfig) -> Self {
        RuntimeConfig {
            model,
            checkpoint_dir: None,
            checkpoint_every: 1,
            policy: RecoveryPolicy::SkipBatch,
            spike_window: 8,
            spike_factor: 4.0,
            max_rollbacks: 8,
            fault: FaultPlan::none(),
        }
    }

    /// Enables disk checkpointing under `dir`.
    pub fn checkpoint_dir(mut self, dir: &Path) -> Self {
        self.checkpoint_dir = Some(dir.to_path_buf());
        self
    }

    /// Sets the checkpoint cadence in epochs.
    pub fn checkpoint_every(mut self, epochs: usize) -> Self {
        assert!(epochs >= 1);
        self.checkpoint_every = epochs;
        self
    }

    /// Sets the divergence recovery policy.
    pub fn policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Installs a scripted fault plan.
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Sets the spike detector's window and trip factor.
    pub fn spike(mut self, window: usize, factor: f32) -> Self {
        self.spike_window = window;
        self.spike_factor = factor;
        self
    }
}

/// What the runtime did about one bad step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RecoveryAction {
    /// The batch was dropped and training moved on.
    SkippedBatch,
    /// The clipped update was kept (or, for a non-finite gradient, withheld
    /// by the in-step guard) and training moved on.
    ClippedContinue,
    /// The bad step was tolerated while the consecutive-bad counter climbs
    /// toward the rollback threshold.
    Tolerated,
    /// Training state was restored to the last good snapshot and the
    /// learning rate backed off to the reported scale.
    RolledBack {
        /// The learning-rate multiplier in force after the backoff.
        lr_scale: f32,
    },
}

/// One recovery intervention, for the run report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryEvent {
    /// Monotonic attempt index of the offending step.
    pub attempt: u64,
    /// Epoch the step belonged to.
    pub epoch: u64,
    /// What the guards saw.
    pub verdict: StepVerdict,
    /// What the policy did about it.
    pub action: RecoveryAction,
}

/// Outcome of one [`Runtime::run`] call.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Loss of every *applied* step executed by this call, in order.
    pub step_losses: Vec<f32>,
    /// Total epochs completed across the whole run (including epochs
    /// completed before a resume).
    pub epochs_completed: u64,
    /// Every recovery intervention, in order.
    pub recoveries: Vec<RecoveryEvent>,
    /// True when a scripted fault halted the run early (simulated crash).
    pub halted_by_fault: bool,
    /// Checkpoints written by this call.
    pub checkpoints_written: usize,
}

/// Fault-tolerant training driver around a [`GraphAug`] model.
pub struct Runtime {
    cfg: RuntimeConfig,
    model: GraphAug,
    graph: InteractionGraph,
    checkpointer: Option<Checkpointer>,
    detector: SpikeDetector,
    sampler_state: SamplerState,
    epoch: u64,
    step_in_epoch: u64,
    lr_scale: f32,
    consecutive_bad: u32,
    attempt: u64,
    rollbacks: u32,
    log_offset: u64,
    finetunes: u64,
    last_good: TrainState,
}

impl Runtime {
    /// Builds a fresh runtime: validates the training graph, constructs the
    /// model, and captures the initial state as the first rollback target.
    pub fn new(cfg: RuntimeConfig, graph: &InteractionGraph) -> Result<Runtime, RuntimeError> {
        graph.validate().map_err(RuntimeError::InvalidGraph)?;
        let model = GraphAug::new(cfg.model.clone(), graph);
        // The sampler seed is the training driver's, so an unsupervised
        // `fit` and a `Runtime` run with identical settings walk identical
        // batch streams.
        let sampler_state = TripletSampler::new(graph, model.sampler_seed()).state();
        let checkpointer = match &cfg.checkpoint_dir {
            Some(dir) => Some(Checkpointer::new(dir)?),
            None => None,
        };
        let detector = SpikeDetector::new(cfg.spike_window, cfg.spike_factor);
        let last_good = TrainState {
            compat: RunCompat {
                n_users: graph.n_users() as u64,
                n_items: graph.n_items() as u64,
                n_edges: graph.n_interactions() as u64,
                seed: cfg.model.seed,
                embed_dim: cfg.model.embed_dim as u64,
            },
            epoch: 0,
            lr_scale: 1.0,
            consecutive_bad: 0,
            attempt: 0,
            step_in_epoch: 0,
            log_offset: 0,
            finetunes: 0,
            loss_window: Vec::new(),
            model: model.training_state(),
            sampler: sampler_state,
        };
        Ok(Runtime {
            cfg,
            model,
            graph: graph.clone(),
            checkpointer,
            detector,
            sampler_state,
            epoch: 0,
            step_in_epoch: 0,
            lr_scale: 1.0,
            consecutive_bad: 0,
            attempt: 0,
            rollbacks: 0,
            log_offset: 0,
            finetunes: 0,
            last_good,
        })
    }

    /// Builds a runtime and restores the newest valid checkpoint under the
    /// configured directory. Fails with [`RuntimeError::NoCheckpoint`] when
    /// none decodes cleanly — corrupt generations are silently walked past
    /// as long as an older valid one exists.
    pub fn resume(cfg: RuntimeConfig, graph: &InteractionGraph) -> Result<Runtime, RuntimeError> {
        let dir = cfg
            .checkpoint_dir
            .clone()
            .expect("Runtime::resume requires a checkpoint_dir");
        let mut rt = Runtime::new(cfg, graph)?;
        let Some((_, state)) = rt
            .checkpointer
            .as_ref()
            .expect("checkpointer exists when dir is set")
            .latest_valid()
        else {
            return Err(RuntimeError::NoCheckpoint(dir));
        };
        rt.restore_state(&state)?;
        Ok(rt)
    }

    /// [`Runtime::resume`] when a valid checkpoint exists, otherwise a fresh
    /// run — the idiom for a crash-looping supervisor.
    pub fn resume_or_new(
        cfg: RuntimeConfig,
        graph: &InteractionGraph,
    ) -> Result<Runtime, RuntimeError> {
        match Runtime::resume(cfg.clone(), graph) {
            Ok(rt) => Ok(rt),
            Err(RuntimeError::NoCheckpoint(_)) => Runtime::new(cfg, graph),
            Err(e) => Err(e),
        }
    }

    fn compat(&self) -> RunCompat {
        RunCompat {
            n_users: self.graph.n_users() as u64,
            n_items: self.graph.n_items() as u64,
            n_edges: self.graph.n_interactions() as u64,
            seed: self.cfg.model.seed,
            embed_dim: self.cfg.model.embed_dim as u64,
        }
    }

    pub(crate) fn current_state(&self) -> TrainState {
        TrainState {
            compat: self.compat(),
            epoch: self.epoch,
            lr_scale: self.lr_scale,
            consecutive_bad: self.consecutive_bad,
            attempt: self.attempt,
            step_in_epoch: self.step_in_epoch,
            log_offset: self.log_offset,
            finetunes: self.finetunes,
            loss_window: self.detector.window().to_vec(),
            model: self.model.training_state(),
            sampler: self.sampler_state,
        }
    }

    /// Restores a decoded checkpoint into this runtime (compat-checked).
    fn restore_state(&mut self, state: &TrainState) -> Result<(), RuntimeError> {
        state.compat.check(&self.compat())?;
        self.model.restore_training_state(&state.model)?;
        self.sampler_state = state.sampler;
        self.epoch = state.epoch;
        self.step_in_epoch = state.step_in_epoch;
        self.lr_scale = state.lr_scale;
        self.consecutive_bad = state.consecutive_bad;
        self.attempt = state.attempt;
        self.log_offset = state.log_offset;
        self.finetunes = state.finetunes;
        self.detector.restore(&state.loss_window);
        self.last_good = state.clone();
        Ok(())
    }

    /// The model being trained.
    pub fn model(&self) -> &GraphAug {
        &self.model
    }

    /// Epochs completed so far.
    pub fn epochs_completed(&self) -> u64 {
        self.epoch
    }

    /// Steps executed inside the current (incomplete) epoch — `0` at every
    /// epoch boundary, non-zero only after a budgeted [`Runtime::run_steps`]
    /// stopped mid-epoch.
    pub fn step_in_epoch(&self) -> u64 {
        self.step_in_epoch
    }

    /// The learning-rate multiplier currently in force.
    pub fn lr_scale(&self) -> f32 {
        self.lr_scale
    }

    /// Interaction-log watermark this model state was trained through.
    pub fn log_offset(&self) -> u64 {
        self.log_offset
    }

    /// Warm-start fine-tune rounds applied so far.
    pub fn finetunes(&self) -> u64 {
        self.finetunes
    }

    /// Adopts a delta-grown training graph without losing the training
    /// trajectory: the model is reconstructed over `graph` and the current
    /// parameters, optimizer moments, and RNG streams are restored into it
    /// (embedding shapes depend only on the fixed user/item universe, so a
    /// graph with extra *edges* always fits). `log_offset` records the
    /// interaction-log watermark the graph corresponds to; it is carried
    /// in every subsequent checkpoint so a consumer can re-derive the same
    /// graph by replaying the log prefix. The rollback target is refreshed
    /// because states captured against the old graph no longer pass the
    /// compat check.
    pub fn absorb_deltas(
        &mut self,
        graph: &InteractionGraph,
        log_offset: u64,
    ) -> Result<(), RuntimeError> {
        graph.validate().map_err(RuntimeError::InvalidGraph)?;
        let state = self.model.training_state();
        self.model = GraphAug::for_inference(self.cfg.model.clone(), graph, &state)?;
        self.graph = graph.clone();
        self.log_offset = log_offset;
        self.last_good = self.current_state();
        Ok(())
    }

    /// One warm-start fine-tune round: trains exactly one additional epoch
    /// of `cfg.model.steps_per_epoch` steps (continuing the persisted
    /// sampler and RNG streams), then refreshes embeddings and publishes a
    /// checkpoint — regardless of the configured epoch total or cadence.
    pub fn fine_tune_round(&mut self) -> Result<RunReport, RuntimeError> {
        self.finetunes += 1;
        let target = self.epoch + 1;
        self.run_loop(target, None)
    }

    /// Runs (or continues) training to `cfg.model.epochs` epochs, applying
    /// guards and recovery throughout. Returns the report for *this* call;
    /// a run halted by a scripted fault can be continued by calling `run`
    /// again or by resuming from disk.
    pub fn run(&mut self) -> Result<RunReport, RuntimeError> {
        self.run_until(self.cfg.model.epochs as u64)
    }

    /// Runs until `target` epochs are completed (capped at the configured
    /// total). Lets a driver interleave training with its own work — the
    /// kill/resume harness uses this to report progress between epochs.
    pub fn run_until(&mut self, target: u64) -> Result<RunReport, RuntimeError> {
        let total = (self.cfg.model.epochs as u64).min(target);
        self.run_loop(total, None)
    }

    /// Runs at most `max_steps` mini-batch steps toward the configured
    /// epoch total, stopping *mid-epoch* when the budget runs out: the
    /// sampler stream and step cursor are saved so the next call (or a
    /// checkpoint cut at the stop point) resumes the run bit-identically.
    /// The trajectory — batches, losses, checkpoints at epoch boundaries —
    /// is byte-identical to one uninterrupted [`Runtime::run`], however the
    /// total is sliced into budgets.
    pub fn run_steps(&mut self, max_steps: u64) -> Result<RunReport, RuntimeError> {
        self.run_loop(self.cfg.model.epochs as u64, Some(max_steps))
    }

    fn run_loop(
        &mut self,
        total_epochs: u64,
        step_budget: Option<u64>,
    ) -> Result<RunReport, RuntimeError> {
        let mut report = RunReport::default();
        let graph = self.graph.clone();
        let steps_per_epoch = self.cfg.model.steps_per_epoch as u64;
        let mut consumed = 0u64;

        'epochs: while self.epoch < total_epochs {
            let mut sampler = TripletSampler::from_state(&graph, self.sampler_state);
            while self.step_in_epoch < steps_per_epoch {
                if step_budget.is_some_and(|budget| consumed >= budget) {
                    // Budget exhausted mid-epoch: persist the sampler
                    // stream at the exact step boundary so the next call
                    // picks up the identical batch sequence.
                    self.sampler_state = sampler.state();
                    report.epochs_completed = self.epoch;
                    return Ok(report);
                }
                if self.cfg.fault.should_halt_before(self.attempt) {
                    // A scripted crash: like the real SIGKILL it models,
                    // in-epoch progress is abandoned — a continuation
                    // replays the epoch from the last saved stream state.
                    self.step_in_epoch = 0;
                    report.halted_by_fault = true;
                    report.epochs_completed = self.epoch;
                    return Ok(report);
                }
                let opts = StepOptions {
                    clip_norm: match self.cfg.policy {
                        RecoveryPolicy::ClipAndContinue { max_norm } => Some(max_norm),
                        _ => None,
                    },
                    lr_scale: self.lr_scale,
                    inject_nan_grad: self.cfg.fault.inject_nan(self.attempt),
                };
                let attempt = self.attempt;
                self.attempt += 1;
                let stats = self.model.train_step_with(&mut sampler, &opts);
                let verdict = self.detector.observe(&stats);
                if verdict == StepVerdict::Healthy {
                    self.consecutive_bad = 0;
                    report.step_losses.push(stats.loss);
                    self.step_in_epoch += 1;
                    consumed += 1;
                    continue;
                }
                self.consecutive_bad += 1;
                let event = |action| RecoveryEvent {
                    attempt,
                    epoch: self.epoch,
                    verdict,
                    action,
                };
                match self.cfg.policy {
                    RecoveryPolicy::SkipBatch => {
                        report.recoveries.push(event(RecoveryAction::SkippedBatch));
                        self.step_in_epoch += 1;
                        consumed += 1;
                    }
                    RecoveryPolicy::ClipAndContinue { .. } => {
                        report
                            .recoveries
                            .push(event(RecoveryAction::ClippedContinue));
                        if verdict == StepVerdict::Spike {
                            // The clipped update is bounded — admit the loss
                            // as progress rather than dropping the step.
                            report.step_losses.push(stats.loss);
                        }
                        self.step_in_epoch += 1;
                        consumed += 1;
                    }
                    RecoveryPolicy::RollbackWithBackoff { after, lr_factor } => {
                        if self.consecutive_bad < after {
                            report.recoveries.push(event(RecoveryAction::Tolerated));
                            self.step_in_epoch += 1;
                            consumed += 1;
                            continue;
                        }
                        self.rollbacks += 1;
                        if self.rollbacks > self.cfg.max_rollbacks {
                            return Err(RuntimeError::Unrecoverable {
                                rollbacks: self.rollbacks - 1,
                            });
                        }
                        let target = self.last_good.clone();
                        let backed_off = (self.lr_scale * lr_factor).max(f32::MIN_POSITIVE);
                        // Keep the attempt counter monotonic across the
                        // restore: it keys fault injection, and rewinding it
                        // would refire the very fault being recovered from.
                        let keep_attempt = self.attempt;
                        self.restore_state(&target)?;
                        self.attempt = keep_attempt;
                        self.lr_scale = backed_off;
                        self.consecutive_bad = 0;
                        report.recoveries.push(RecoveryEvent {
                            attempt,
                            epoch: target.epoch,
                            verdict,
                            action: RecoveryAction::RolledBack {
                                lr_scale: backed_off,
                            },
                        });
                        // Restart the (restored) epoch with a fresh sampler
                        // from the restored stream state.
                        continue 'epochs;
                    }
                }
            }

            self.sampler_state = sampler.state();
            self.step_in_epoch = 0;
            self.epoch += 1;
            self.model.refresh_embeddings();

            let due = self.epoch.is_multiple_of(self.cfg.checkpoint_every as u64)
                || self.epoch == total_epochs;
            let state = self.current_state();
            if due {
                if let Some(ckpt) = self.checkpointer.as_mut() {
                    ckpt.write(&state)?;
                    report.checkpoints_written += 1;
                }
            }
            self.last_good = state;

            if self.cfg.fault.should_halt_after_epoch(self.epoch - 1) {
                report.halted_by_fault = true;
                report.epochs_completed = self.epoch;
                return Ok(report);
            }
        }

        if self.epoch >= self.cfg.model.epochs as u64 {
            self.model.mark_trained();
        }
        report.epochs_completed = self.epoch;
        Ok(report)
    }
}
