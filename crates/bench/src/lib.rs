//! Experiment harness reproducing every table and figure of the GraphAug
//! paper (see DESIGN.md for the per-experiment index).
//!
//! The binaries under `src/bin/` each regenerate one artifact
//! (`table2_main`, `fig3_noise`, …); this library holds the shared runner:
//! dataset preparation, model construction by name (baselines + GraphAug
//! variants), train-and-evaluate plumbing, and CSV emission into
//! `results/`.
//!
//! ## Scaling knobs
//!
//! * `GRAPHAUG_FAST=1` — run every experiment on mini datasets with short
//!   training (smoke-test mode; minutes for the full suite).
//! * `GRAPHAUG_EPOCHS=n` — override the training epoch budget.

pub mod harness;
pub mod perf;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use graphaug_baselines::{build_model, BaselineOpts};
use graphaug_core::{fit_with, EncoderKind, GraphAug, GraphAugConfig, Trainable};
use graphaug_data::Dataset;
use graphaug_eval::{evaluate, ConvergenceRecorder, EvalResult, TextTable};
use graphaug_graph::{InteractionGraph, TrainTestSplit};

/// Fixed split seed so every experiment sees the same holdout.
pub const SPLIT_SEED: u64 = 2024;
/// Held-out fraction per user.
pub const TEST_FRACTION: f64 = 0.2;
/// Table II metric cutoffs.
pub const KS: [usize; 2] = [20, 40];

/// True when `GRAPHAUG_FAST=1` (mini datasets, short training).
pub fn fast_mode() -> bool {
    std::env::var("GRAPHAUG_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The training epoch budget (env-overridable).
pub fn epoch_budget() -> usize {
    if let Ok(v) = std::env::var("GRAPHAUG_EPOCHS") {
        if let Ok(n) = v.parse() {
            return n;
        }
    }
    if fast_mode() {
        8
    } else {
        40
    }
}

/// Loads a dataset preset (mini variant in fast mode) and splits it.
pub fn prepared_split(ds: Dataset) -> TrainTestSplit {
    let g = if fast_mode() {
        ds.load_mini()
    } else {
        ds.load()
    };
    split_graph(&g)
}

/// Splits an explicit graph with the experiment defaults.
pub fn split_graph(g: &InteractionGraph) -> TrainTestSplit {
    TrainTestSplit::per_user(g, TEST_FRACTION, SPLIT_SEED)
}

/// Default GraphAug configuration for the experiments.
pub fn graphaug_config() -> GraphAugConfig {
    GraphAugConfig::new().epochs(epoch_budget())
}

/// Default baseline options for the experiments.
pub fn baseline_opts() -> BaselineOpts {
    BaselineOpts::default().epochs(epoch_budget())
}

/// Builds any model by name: the 18 registry baselines, `"GraphAug"`, or an
/// ablation variant (`"GraphAug w/o Mixhop"`, `"GraphAug w/o GIB"`,
/// `"GraphAug w/o CL"`).
pub fn build_any(name: &str, train: &InteractionGraph) -> Box<dyn Trainable> {
    match name {
        "GraphAug" => Box::new(GraphAug::new(graphaug_config(), train)),
        "GraphAug w/o Mixhop" => Box::new(GraphAug::new(
            graphaug_config().encoder(EncoderKind::Vanilla),
            train,
        )),
        "GraphAug w/o GIB" => Box::new(GraphAug::new(graphaug_config().gib(false), train)),
        "GraphAug w/o CL" => Box::new(GraphAug::new(graphaug_config().cl(false), train)),
        other => build_model(other, baseline_opts(), train),
    }
}

/// Outcome of one train-and-evaluate run.
pub struct RunOutcome {
    /// Final metrics at [`KS`].
    pub result: EvalResult,
    /// Wall-clock training time.
    pub train_time: Duration,
    /// Per-epoch Recall@20 (only populated by [`run_model_with_curve`]).
    pub curve: ConvergenceRecorder,
    /// The trained model (for MAD / uniformity post-analysis).
    pub model: Box<dyn Trainable>,
}

/// Trains `name` on the split and evaluates at [`KS`].
pub fn run_model(name: &str, split: &TrainTestSplit) -> RunOutcome {
    train_and_evaluate(name, split, false)
}

/// Trains `name`, evaluating Recall@20 after **every epoch** (the Fig. 4
/// convergence study — slower than [`run_model`]).
pub fn run_model_with_curve(name: &str, split: &TrainTestSplit) -> RunOutcome {
    train_and_evaluate(name, split, true)
}

fn train_and_evaluate(name: &str, split: &TrainTestSplit, with_curve: bool) -> RunOutcome {
    let mut model = build_any(name, &split.train);
    let mut curve = ConvergenceRecorder::new();
    let start = Instant::now();
    fit_with(model.as_mut(), |epoch, m| {
        if with_curve {
            curve.record(epoch, evaluate(m, split, &[20]).recall(20));
        }
    });
    let train_time = start.elapsed();
    let result = evaluate(model.as_ref(), split, &KS);
    RunOutcome {
        result,
        train_time,
        curve,
        model,
    }
}

/// The `results/` directory at the workspace root.
pub fn results_dir() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Writes a table as `results/<name>.csv` and returns the path.
pub fn write_csv(name: &str, table: &TextTable) -> PathBuf {
    let path = results_dir().join(format!("{name}.csv"));
    std::fs::write(&path, table.to_csv()).expect("write results csv");
    path
}

/// Prints a standard experiment header.
pub fn banner(title: &str) {
    println!("{}", "=".repeat(72));
    println!("{title}");
    if fast_mode() {
        println!("(GRAPHAUG_FAST=1: mini datasets, short training — shapes only)");
    }
    println!("{}", "=".repeat(72));
}

/// All dataset presets, honoring a `GRAPHAUG_DATASETS` filter
/// (comma-separated names, e.g. `gowalla,amazon`).
pub fn selected_datasets() -> Vec<Dataset> {
    let all = Dataset::ALL.to_vec();
    match std::env::var("GRAPHAUG_DATASETS") {
        Ok(filter) => {
            let wanted: Vec<String> = filter.split(',').map(|s| s.trim().to_lowercase()).collect();
            all.into_iter()
                .filter(|d| {
                    wanted
                        .iter()
                        .any(|w| d.name().to_lowercase().replace(' ', "").contains(w))
                })
                .collect()
        }
        Err(_) => all,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_budget_defaults_are_sane() {
        let e = epoch_budget();
        assert!((1..=10_000).contains(&e));
    }

    #[test]
    fn build_any_accepts_graphaug_variants_and_baselines() {
        let g = graphaug_data::generate(&graphaug_data::SyntheticConfig::new(30, 25, 250).seed(1));
        for name in ["GraphAug", "GraphAug w/o GIB", "LightGCN", "NCL"] {
            let m = build_any(name, &g);
            assert!(!m.score_items(0).is_empty(), "{name}");
        }
    }

    #[test]
    fn results_dir_is_writable() {
        let d = results_dir();
        assert!(d.ends_with("results"));
        let mut t = TextTable::new(&["a"]);
        t.row(&["1".into()]);
        let p = write_csv("harness_selftest", &t);
        assert!(p.exists());
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn selected_datasets_defaults_to_all() {
        if std::env::var("GRAPHAUG_DATASETS").is_err() {
            assert_eq!(selected_datasets().len(), 3);
        }
    }
}
