//! The one training driver: every arm — GraphAug and each baseline — trains
//! through [`fit_with`] under the paper's common protocol (a fixed epoch
//! budget of steps over a seeded BPR triplet stream).
//!
//! An arm supplies only its per-step work, its end-of-epoch work and its
//! schedule; the driver owns the loop and hands the model itself to the
//! per-epoch callback, so a convergence curve (Fig. 4) evaluates exactly
//! what the finished model will score.

use graphaug_eval::Recommender;
use graphaug_graph::{InteractionGraph, TripletSampler};

/// A model the driver can train.
pub trait Trainable: Recommender {
    /// The training interactions the batch stream draws from.
    fn train_graph(&self) -> &InteractionGraph;
    /// Epoch budget.
    fn epochs(&self) -> usize;
    /// Optimization steps per epoch.
    fn steps_per_epoch(&self) -> usize;
    /// Seed of the BPR triplet stream.
    fn sampler_seed(&self) -> u64;
    /// One optimization step (an arm that does not train on triplets may
    /// leave the sampler untouched).
    fn step(&mut self, sampler: &mut TripletSampler<'_>);
    /// Work after each epoch: refresh cached embeddings, EM steps, ….
    /// Nothing by default.
    fn end_epoch(&mut self, _epoch: usize) {}

    /// Trains without a callback.
    fn fit(&mut self) {
        fit_with(self, |_, _| {});
    }
}

/// Trains `model` for its epoch budget, calling `on_epoch(epoch, model)`
/// after every epoch's `end_epoch`.
pub fn fit_with<M: Trainable + ?Sized>(model: &mut M, mut on_epoch: impl FnMut(usize, &M)) {
    let graph = model.train_graph().clone();
    let mut sampler = TripletSampler::new(&graph, model.sampler_seed());
    for epoch in 0..model.epochs() {
        for _ in 0..model.steps_per_epoch() {
            model.step(&mut sampler);
        }
        model.end_epoch(epoch);
        on_epoch(epoch, model);
    }
}
