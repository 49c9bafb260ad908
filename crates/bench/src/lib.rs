//! Experiment harness reproducing every table and figure of the GraphAug
//! paper (DESIGN.md: the per-experiment index, "One experiment path").
//! Each binary under `src/bin/` is one [`experiment`]: it trains [`Arm`]s
//! through [`run_model`] and adds their rows to a [`Sheet`].
//!
//! Settings: `GRAPHAUG_FAST=1` (mini datasets, 8 epochs), `GRAPHAUG_EPOCHS=n`,
//! `GRAPHAUG_DATASETS=gowalla,amazon` and `GRAPHAUG_MODELS=NCL,GraphAug`
//! (Table II). A value that does not parse or names nothing exits 2.

pub mod harness;
pub mod perf;

use std::error::Error;
use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use graphaug_baselines::{build_model, model_names, BaselineOpts};
use graphaug_core::{fit_with, EncoderKind, GraphAug, GraphAugConfig, Trainable};
use graphaug_data::Dataset;
use graphaug_eval::{evaluate, fmt4, mad, ConvergenceRecorder, EvalResult, TextTable};
use graphaug_graph::{InteractionGraph, TrainTestSplit};

/// Fixed split seed so every experiment sees the same holdout.
pub const SPLIT_SEED: u64 = 2024;
/// Held-out fraction per user.
pub const TEST_FRACTION: f64 = 0.2;
/// Table II metric cutoffs.
pub const KS: [usize; 2] = [20, 40];

/// True when `GRAPHAUG_FAST=1` (mini datasets, short training).
fn fast_mode() -> bool {
    std::env::var("GRAPHAUG_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The training epoch budget: `GRAPHAUG_EPOCHS`, else 8 in fast mode and
/// 40 otherwise.
pub fn epoch_budget() -> Result<usize, String> {
    parse_epochs(std::env::var("GRAPHAUG_EPOCHS").ok().as_deref())
}

fn parse_epochs(value: Option<&str>) -> Result<usize, String> {
    match value {
        Some(v) => v
            .parse()
            .map_err(|_| format!("GRAPHAUG_EPOCHS={v:?} is not a number")),
        None => Ok(if fast_mode() { 8 } else { 40 }),
    }
}

/// Loads a dataset preset (the mini variant in fast mode).
pub fn load_preset(ds: Dataset) -> InteractionGraph {
    if fast_mode() {
        ds.load_mini()
    } else {
        ds.load()
    }
}

/// Loads a dataset preset and splits it.
pub fn prepared_split(ds: Dataset) -> TrainTestSplit {
    split_graph(&load_preset(ds))
}

/// Splits an explicit graph with the experiment defaults.
pub fn split_graph(g: &InteractionGraph) -> TrainTestSplit {
    TrainTestSplit::per_user(g, TEST_FRACTION, SPLIT_SEED)
}

/// The dataset presets `GRAPHAUG_DATASETS` names (all three if unset).
pub fn selected_datasets() -> Result<Vec<Dataset>, String> {
    pick("GRAPHAUG_DATASETS", &Dataset::ALL, Dataset::name)
}

/// The `names` `GRAPHAUG_MODELS` names (all of them if unset).
pub fn selected_models(names: &[&'static str]) -> Result<Vec<&'static str>, String> {
    pick("GRAPHAUG_MODELS", names, |n| n)
}

/// The entries of `all` that the comma-separated list in `var` names (any
/// case, spaces ignored), in `all` order. A name that matches nothing is
/// an error, not a silent drop.
fn pick<T: Copy>(var: &str, all: &[T], name: fn(T) -> &'static str) -> Result<Vec<T>, String> {
    let Ok(list) = std::env::var(var) else {
        return Ok(all.to_vec());
    };
    let key = |s: &str| s.replace(' ', "").to_lowercase();
    let wanted: Vec<String> = list.split(',').map(key).collect();
    let keys: Vec<String> = all.iter().map(|&t| key(name(t))).collect();
    if let Some(w) = wanted.iter().find(|w| !keys.contains(w)) {
        let valid: Vec<&str> = all.iter().map(|&t| name(t)).collect();
        return Err(format!("{var}: {w:?} is none of {}", valid.join(", ")));
    }
    let picked = all.iter().zip(&keys).filter(|(_, k)| wanted.contains(k));
    Ok(picked.map(|(&t, _)| t).collect())
}

/// What an experiment trains: a registry baseline or a GraphAug
/// configuration (whose switches name its ablation).
#[derive(Clone, Debug)]
pub enum Arm {
    /// One of the 18 Table II baselines, by its paper name.
    Baseline(&'static str, BaselineOpts),
    /// GraphAug or one of its ablations.
    GraphAug(GraphAugConfig),
}

/// A name [`Arm::named`] does not know.
#[derive(Debug, PartialEq)]
pub struct UnknownModel(pub String);

impl fmt::Display for UnknownModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let valid: Vec<&str> = named_arms().iter().map(Arm::label).collect();
        let valid = valid.join(", ");
        write!(f, "unknown model {:?}; valid names: {valid}", self.0)
    }
}

impl Error for UnknownModel {}

/// Every arm a paper name denotes: the 18 Table II baselines, then
/// GraphAug and its three Fig. 2 ablations, each at the default 40 epochs.
fn named_arms() -> Vec<Arm> {
    let full = GraphAugConfig::new();
    let vanilla = full.clone().encoder(EncoderKind::Vanilla);
    let graphaug = [
        full.clone(),
        vanilla,
        full.clone().gib(false),
        full.cl(false),
    ];
    let baselines = model_names()
        .into_iter()
        .map(|n| Arm::Baseline(n, BaselineOpts::default()));
    baselines.chain(graphaug.map(Arm::GraphAug)).collect()
}

impl Arm {
    /// The arm `name` denotes (see [`named_arms`]).
    pub fn named(name: &str) -> Result<Arm, UnknownModel> {
        let arm = named_arms().into_iter().find(|arm| arm.label() == name);
        arm.ok_or_else(|| UnknownModel(name.to_string()))
    }

    /// The name rows and reports print.
    pub fn label(&self) -> &'static str {
        match self {
            Arm::Baseline(name, _) => name,
            Arm::GraphAug(cfg) => cfg.variant_name(),
        }
    }

    /// Sets the training epoch budget.
    pub fn epochs(self, n: usize) -> Arm {
        match self {
            Arm::Baseline(name, opts) => Arm::Baseline(name, opts.epochs(n)),
            Arm::GraphAug(cfg) => Arm::GraphAug(cfg.epochs(n)),
        }
    }

    /// Builds the arm on `graph` and trains it for its epoch budget,
    /// handing the model to `on_epoch` after every epoch.
    pub fn train(
        &self,
        graph: &InteractionGraph,
        on_epoch: impl FnMut(usize, &(dyn Trainable + 'static)),
    ) -> Box<dyn Trainable> {
        let mut model: Box<dyn Trainable> = match self {
            Arm::Baseline(name, opts) => build_model(name, opts.clone(), graph),
            Arm::GraphAug(cfg) => Box::new(GraphAug::new(cfg.clone(), graph)),
        };
        fit_with(model.as_mut(), on_epoch);
        model
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

/// Trains `arm` on the split and evaluates it at [`KS`].
pub fn run_model(arm: &Arm, split: &TrainTestSplit) -> RunOutcome {
    train_and_evaluate(arm, split, false)
}

/// Trains `arm`, evaluating Recall@20 after **every epoch** (the Fig. 4
/// convergence study — slower than [`run_model`]).
pub fn run_model_with_curve(arm: &Arm, split: &TrainTestSplit) -> RunOutcome {
    train_and_evaluate(arm, split, true)
}

fn train_and_evaluate(arm: &Arm, split: &TrainTestSplit, with_curve: bool) -> RunOutcome {
    let mut curve = ConvergenceRecorder::new();
    let start = Instant::now();
    let model = arm.train(&split.train, |epoch, m| {
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

/// `Recall@20,Recall@40,NDCG@20,NDCG@40` cells, the Table II order.
pub fn metric_cells(r: &EvalResult) -> Vec<String> {
    let metrics = [r.recall(20), r.recall(40), r.ndcg(20), r.ndcg(40)];
    metrics.into_iter().map(fmt4).collect()
}

/// Trains `arm` and adds its `label,MAD,Recall@20,NDCG@20` row, the layout
/// Tables III and VII share.
pub fn mad_row(sheet: &mut Sheet, label: &str, arm: &Arm, split: &TrainTestSplit) {
    let out = run_model(arm, split);
    let emb = out.model.all_node_embeddings().expect("embedding models");
    let (r, m) = (&out.result, mad(&emb));
    sheet.row(vec![
        label.into(),
        fmt4(m),
        fmt4(r.recall(20)),
        fmt4(r.ndcg(20)),
    ]);
}

/// The rows of one table. Each prints as `header=value` pairs when added.
pub struct Sheet {
    header: Vec<&'static str>,
    table: TextTable,
}

impl Sheet {
    /// An empty sheet under a CSV header line (`"Model,MAD"`).
    pub fn new(header: &'static str) -> Sheet {
        let header: Vec<&str> = header.split(',').collect();
        let table = TextTable::new(&header);
        Sheet { header, table }
    }

    /// Prints `cells` and appends them as a row.
    pub fn row(&mut self, cells: Vec<String>) {
        let pairs = self
            .header
            .iter()
            .zip(&cells)
            .map(|(h, c)| format!("{h}={c}"));
        println!("{}", pairs.collect::<Vec<_>>().join("  "));
        self.table.row(&cells);
    }

    /// The aligned table.
    pub fn render(&self) -> String {
        self.table.render()
    }
}

/// Runs one table or figure binary: checks the epoch budget, prints the
/// banner, lets `body` fill a sheet under `header` (it gets the budget for
/// its arms), then prints the table and writes `results/<name>.csv`. An
/// error prints `name: <reason>` and exits 2 without writing anything.
pub fn experiment(
    name: &str,
    title: &str,
    header: &'static str,
    body: impl FnOnce(&mut Sheet, usize) -> Result<(), Box<dyn Error>>,
) -> ExitCode {
    let mut sheet = Sheet::new(header);
    let filled = epoch_budget().map_err(Box::from).and_then(|epochs| {
        let rule = "=".repeat(72);
        println!("{rule}\n{title}\n{rule}");
        if fast_mode() {
            println!("(GRAPHAUG_FAST=1: mini datasets, short training — shapes only)");
        }
        body(&mut sheet, epochs)
    });
    if let Err(e) = filled {
        eprintln!("{name}: {e}");
        return ExitCode::from(2);
    }
    let path = write_csv(name, &sheet.table);
    println!("\n{}\nwritten: {}", sheet.render(), path.display());
    ExitCode::SUCCESS
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_budget_defaults_are_sane() {
        let e = parse_epochs(None).unwrap();
        assert!((1..=10_000).contains(&e));
        assert_eq!(parse_epochs(Some("25")), Ok(25));
        let e = parse_epochs(Some("25x")).unwrap_err();
        assert_eq!(e, "GRAPHAUG_EPOCHS=\"25x\" is not a number");
    }

    #[test]
    fn arm_named_accepts_graphaug_variants_and_baselines() {
        let g = graphaug_data::generate(&graphaug_data::SyntheticConfig::new(30, 25, 250).seed(1));
        for name in ["GraphAug", "GraphAug w/o GIB", "LightGCN", "NCL"] {
            let arm = Arm::named(name).unwrap().epochs(1);
            assert_eq!(arm.label(), name);
            let m = arm.train(&g, |_, _| {});
            assert_eq!(m.name(), name);
            assert!(!m.score_items(0).is_empty(), "{name}");
        }
        let unknown = Arm::named("NoSuchModel").unwrap_err().to_string();
        assert!(unknown
            .ends_with(", NCL, GraphAug, GraphAug w/o Mixhop, GraphAug w/o GIB, GraphAug w/o CL"));
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
            assert_eq!(selected_datasets().unwrap().len(), 3);
        }
    }
}
