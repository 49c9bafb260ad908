//! A published generation serves from its checkpoint frame alone: the frame
//! carries the final embedding tables and the watermark graph, and they
//! must equal an independent rebuild — the base graph plus a replay of the
//! log, a fresh model restored over it, one forward — bit for bit, at 1 and
//! 4 threads. An engine with no interaction log serves the same bits.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use graphaug_core::{GraphAug, GraphAugConfig};
use graphaug_data::{generate, SyntheticConfig};
use graphaug_eval::Recommender;
use graphaug_graph::InteractionGraph;
use graphaug_ingest::{apply_deltas, read_range, LogWriter};
use graphaug_runtime::{checkpoint, FineTuner, Runtime, RuntimeConfig};
use graphaug_serve::{
    Engine, IvfParams, ModelSource, ModelTables, QuantParams, Recommendation, ScoredItem,
};
use graphaug_tensor::Mat;

/// `set_thread_count` is process-global; serialize the tests that flip it.
static THREAD_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A unique, self-cleaning directory per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("graphaug-gen-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

const WINDOW: u64 = 24;
const WINDOWS: u64 = 4;

fn toy_graph() -> InteractionGraph {
    generate(&SyntheticConfig::new(64, 48, 700).clusters(4).seed(17))
}

fn toy_model() -> GraphAugConfig {
    GraphAugConfig::fast_test()
        .seed(9)
        .epochs(3)
        .steps_per_epoch(3)
}

/// Both approximate tiers built and enabled, so `REC` runs the int8 IVF
/// path and `RECX` the exact scorer.
fn ivf() -> IvfParams {
    IvfParams::new().nlists(4).nprobe(2).recall_floor(0.0)
}

fn quant() -> QuantParams {
    QuantParams::new().drift_floor(0.0)
}

/// Deterministic in-range interactions for the toy graph.
fn record(k: u64) -> (u32, u32) {
    (((k * 13 + 1) % 64) as u32, ((k * 7 + 4) % 48) as u32)
}

fn runtime_config(dir: &Path) -> RuntimeConfig {
    RuntimeConfig::new(toy_model()).checkpoint_dir(&dir.join("ckpt"))
}

/// The base run, checkpointed under `dir/ckpt`.
fn train_base(dir: &Path, base: &InteractionGraph) {
    Runtime::new(runtime_config(dir), base)
        .unwrap()
        .run()
        .unwrap();
}

/// `WINDOWS` fine-tune windows over the base run through a log under
/// `dir/log`; `each` sees the tuner after every round.
fn fine_tune(dir: &Path, base: &InteractionGraph, mut each: impl FnMut(&FineTuner)) {
    let (cfg, log) = (runtime_config(dir), dir.join("log"));
    let mut writer = LogWriter::open(&log, 32).unwrap();
    let mut tuner = FineTuner::open(cfg, base, &log, WINDOW).unwrap();
    for k in 0..WINDOWS * WINDOW {
        let (u, i) = record(k);
        writer.append(u, i).unwrap();
        if (k + 1) % WINDOW == 0 {
            tuner.poll_once().unwrap().expect("a complete window");
            each(&tuner);
        }
    }
}

fn source(dir: &Path, base: &InteractionGraph) -> ModelSource {
    ModelSource::new(toy_model(), base.clone(), &dir.join("ckpt"))
        .ann(ivf())
        .quant(quant())
}

fn bits(m: &Mat) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn hex(items: &[ScoredItem]) -> String {
    items
        .iter()
        .map(|s| format!("{}:{:08x}", s.item, s.score.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

fn served_hex(rec: Result<Recommendation, graphaug_serve::ServeError>) -> String {
    hex(&rec.unwrap().items)
}

#[test]
fn every_generation_serves_the_tables_a_log_replay_rebuilds_at_1_and_4_threads() {
    let _guard = lock();
    let base = toy_graph();
    for threads in [1usize, 4] {
        graphaug_par::set_thread_count(threads);
        let dir = TempDir::new(&format!("equiv-{threads}"));
        let source = source(dir.path(), &base);
        train_base(dir.path(), &base);
        let engine = Engine::open(source.clone()).unwrap();
        let log = dir.path().join("log");
        let mut generations = 0;
        fine_tune(dir.path(), &base, |tuner| {
            let generation = engine.reload_if_newer().unwrap().expect("a new generation");
            let (newest, state) = checkpoint::load_latest_valid(&source.checkpoint_dir).unwrap();
            assert_eq!(newest, generation);
            let w = state.log_offset;
            assert_eq!(w, tuner.watermark());

            // The reference: replay the log, restore a fresh model, one forward.
            let records = read_range(&log, 0, w).unwrap();
            let replayed = apply_deltas(&base, &records).unwrap().graph;
            let model = GraphAug::for_inference(toy_model(), &replayed, &state.model).unwrap();
            let (user_emb, item_emb) = model.embeddings().unwrap();
            let ctx = format!("threads={threads} gen={generation} watermark={w}");
            assert_eq!(state.served.graph.edges(), replayed.edges(), "{ctx}");
            assert_eq!(bits(&state.served.user_emb), bits(user_emb), "{ctx}");
            assert_eq!(bits(&state.served.item_emb), bits(item_emb), "{ctx}");

            let reference = ModelTables::from_embeddings(
                user_emb.clone(),
                item_emb.clone(),
                replayed,
                generation,
                Some(&ivf()),
                Some(&quant()),
            );
            assert!(reference.quant().unwrap().enabled(), "{ctx}");
            for user in 0..base.n_users() as u32 {
                for k in [1usize, 5, 20] {
                    let (rec, how) = reference.top_k_quant(user, k).unwrap();
                    assert!(how.used_quant);
                    assert_eq!(
                        served_hex(engine.recommend(user, k)),
                        hex(&rec),
                        "{ctx} REC"
                    );
                    let recx = reference.top_k(user, k).unwrap();
                    assert_eq!(
                        served_hex(engine.recommend_exact(user, k)),
                        hex(&recx),
                        "{ctx} RECX"
                    );
                }
            }
            generations += 1;
        });
        assert_eq!(generations, WINDOWS);
        assert_eq!(engine.stats().log_offset, WINDOWS * WINDOW);
    }
}

#[test]
fn a_watermarked_generation_serves_without_the_log() {
    let _guard = lock();
    graphaug_par::set_thread_count(1);
    let base = toy_graph();
    let dir = TempDir::new("no-log");
    train_base(dir.path(), &base);
    fine_tune(dir.path(), &base, |_| {});

    let log = dir.path().join("log");
    let with_log = Engine::open(source(dir.path(), &base).log_dir(&log)).unwrap();
    let without = Engine::open(source(dir.path(), &base)).unwrap();
    let (a, b) = (with_log.stats(), without.stats());
    assert_eq!(b.log_offset, WINDOWS * WINDOW, "a watermarked generation");
    assert_eq!((a.generation, a.log_offset), (b.generation, b.log_offset));
    assert_eq!(a.ingested, WINDOWS * WINDOW);
    assert_eq!(b.ingested, 0, "no log, nothing ingested to report");
    for user in 0..base.n_users() as u32 {
        for k in [1usize, 5, 20] {
            assert_eq!(
                served_hex(with_log.recommend(user, k)),
                served_hex(without.recommend(user, k))
            );
            assert_eq!(
                served_hex(with_log.recommend_exact(user, k)),
                served_hex(without.recommend_exact(user, k))
            );
        }
    }
}
