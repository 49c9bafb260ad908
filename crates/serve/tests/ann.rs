//! IVF ANN integration tests: the index build must be bit-deterministic
//! for any thread count, full-probe search must reproduce the exact
//! ranking hex-exactly end to end (engine and TCP), the recall gate must
//! fail closed into the exact path, the response cache must never mix the
//! two scorer modes, and a hot reload must rebuild (and re-gate) the
//! index per generation.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use graphaug_core::GraphAugConfig;
use graphaug_data::{generate, SyntheticConfig};
use graphaug_graph::InteractionGraph;
use graphaug_rng::prop::{check, DEFAULT_CASES};
use graphaug_rng::{prop_assert, prop_assert_eq};
use graphaug_runtime::{checkpoint, Runtime, RuntimeConfig};
use graphaug_serve::{
    parse_ok_line, serve, Engine, IvfIndex, IvfParams, ModelSource, ModelTables, QuantIvf,
    QuantParams, QuantRows, ScoredItem,
};
use graphaug_tensor::Mat;

/// `set_thread_count` is process-global; serialize the tests that flip it.
static THREAD_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("graphaug-ann-{tag}-{}", std::process::id()));
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

fn toy_graph() -> InteractionGraph {
    generate(&SyntheticConfig::new(60, 45, 700).clusters(4).seed(21))
}

fn toy_model() -> GraphAugConfig {
    GraphAugConfig::fast_test()
        .seed(5)
        .epochs(4)
        .steps_per_epoch(3)
}

fn train_into(dir: &Path, graph: &InteractionGraph) {
    let mut rt = Runtime::new(RuntimeConfig::new(toy_model()).checkpoint_dir(dir), graph).unwrap();
    rt.run().unwrap();
}

fn hex_list(items: &[ScoredItem]) -> String {
    items
        .iter()
        .map(|s| format!("{}:{:08x}", s.item, s.score.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Full-probe params: every list probed, so ANN output must equal exact.
fn full_probe() -> IvfParams {
    IvfParams::new().nlists(7).nprobe(7)
}

#[test]
fn index_build_is_bit_identical_across_thread_counts() {
    let _guard = lock();
    let graph = toy_graph();
    let dir = TempDir::new("threads");
    train_into(dir.path(), &graph);
    let (generation, state) = checkpoint::load_latest_valid(dir.path()).unwrap();

    let mut runs = Vec::new();
    for threads in [1usize, 3, 4] {
        graphaug_par::set_thread_count(threads);
        let source = ModelSource::new(toy_model(), graph.clone(), dir.path()).ann(IvfParams::new());
        let tables = ModelTables::build(&source, generation, &state, state.fingerprint()).unwrap();
        let ann = tables.ann().expect("index built");
        // The whole build is pinned: quantizer bits, list membership, the
        // recall estimate, and the served lists.
        let mut served = String::new();
        for user in [0u32, 17, 42] {
            let (top, _) = tables.top_k_ann(user, 10).unwrap();
            served.push_str(&hex_list(&top));
            served.push('\n');
        }
        runs.push((
            ann.index().fingerprint(),
            ann.build_recall().to_bits(),
            ann.enabled(),
            served,
        ));
    }
    graphaug_par::set_thread_count(1);
    assert_eq!(runs[0], runs[1], "threads=1 vs threads=3");
    assert_eq!(runs[0], runs[2], "threads=1 vs threads=4");
}

#[test]
fn full_probe_rec_equals_recx_on_the_wire() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let graph = toy_graph();
    let dir = TempDir::new("wire");
    train_into(dir.path(), &graph);
    let source = ModelSource::new(toy_model(), graph.clone(), dir.path()).ann(full_probe());
    let engine = Arc::new(Engine::open(source).unwrap());
    assert!(engine.tables().ann().unwrap().enabled());
    let handle = serve(engine.clone(), "127.0.0.1:0").unwrap();

    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut ask = |req: &str| {
        writeln!(writer, "{req}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    };

    for user in [0u32, 9, 33, 59] {
        for k in [1usize, 5, 20] {
            let rec = ask(&format!("REC {user} {k}"));
            let recx = ask(&format!("RECX {user} {k}"));
            // nprobe = nlists: the fast path visits every item, so the two
            // verbs must answer byte-identically.
            assert_eq!(rec, recx, "user={user} k={k}");
            let ok = parse_ok_line(&rec).expect("well-formed OK line");
            let direct = engine.recommend_exact(user, k).unwrap();
            assert_eq!(hex_list(&ok.items), hex_list(&direct.items));
        }
    }
    let stats = ask("STATS");
    assert!(stats.contains(" ann=on "), "{stats}");
}

#[test]
fn narrow_probe_serves_ann_and_self_audits() {
    let graph = toy_graph();
    let dir = TempDir::new("audit");
    train_into(dir.path(), &graph);
    // Narrow probe, audit every ANN-computed list, no floor (this test is
    // about the counters, not quality).
    let params = IvfParams::new()
        .nlists(9)
        .nprobe(3)
        .recall_floor(0.0)
        .audit_every(1);
    let source = ModelSource::new(toy_model(), graph.clone(), dir.path()).ann(params);
    let engine = Engine::open(source).unwrap();
    assert!(engine.tables().ann().unwrap().enabled());

    let n_items = engine.tables().n_items() as u64;
    let served = 30u64;
    for user in 0..served as u32 {
        engine.recommend(user, 10).unwrap();
    }
    let stats = engine.stats();
    assert!(stats.ann_on);
    assert_eq!(stats.ann_probes, served * 3, "3 probes per request");
    assert!(
        stats.ann_cands < served * n_items,
        "a narrow probe must score fewer candidates than exact would \
         ({} vs {})",
        stats.ann_cands,
        served * n_items
    );
    assert_eq!(stats.exact_fallbacks, 0);
    let recall = stats
        .recall_sampled
        .expect("audit_every=1 samples every request");
    assert!((0.0..=1.0).contains(&recall));

    // The exact oracle is untouched by the live index: RECX-path output
    // still matches a from-scratch exact build.
    let plain = Engine::open(ModelSource::new(toy_model(), graph, dir.path())).unwrap();
    for user in [0u32, 29] {
        assert_eq!(
            hex_list(&engine.recommend_exact(user, 10).unwrap().items),
            hex_list(&plain.recommend(user, 10).unwrap().items)
        );
    }
}

#[test]
fn cache_never_mixes_rec_and_recx_entries() {
    let graph = toy_graph();
    let dir = TempDir::new("modekey");
    train_into(dir.path(), &graph);
    let source = ModelSource::new(toy_model(), graph, dir.path()).ann(full_probe());
    let engine = Engine::open(source).unwrap();

    // Same (user, k, generation), four calls alternating modes: each mode
    // must miss once and then hit its *own* entry.
    assert!(!engine.recommend(5, 8).unwrap().from_cache);
    assert!(engine.recommend(5, 8).unwrap().from_cache);
    assert!(
        !engine.recommend_exact(5, 8).unwrap().from_cache,
        "an exact request must not be answered from the ANN entry"
    );
    assert!(engine.recommend_exact(5, 8).unwrap().from_cache);
    let stats = engine.stats();
    assert_eq!(stats.cache_hits, 2);
    assert_eq!(stats.cache_misses, 2);
}

#[test]
fn recall_gate_refuses_and_serving_falls_back_to_exact() {
    let graph = toy_graph();
    let dir = TempDir::new("gate");
    train_into(dir.path(), &graph);
    // An unsatisfiable floor: the build must keep the index but disable it.
    let params = IvfParams::new().nlists(9).nprobe(1).recall_floor(1.1);
    let source = ModelSource::new(toy_model(), graph.clone(), dir.path()).ann(params);
    let engine = Engine::open(source).unwrap();
    let tables = engine.tables();
    let ann = tables.ann().expect("index still built and reported");
    assert!(!ann.enabled());

    let rec = engine.recommend(3, 10).unwrap();
    let plain = Engine::open(ModelSource::new(toy_model(), graph, dir.path())).unwrap();
    assert_eq!(
        hex_list(&rec.items),
        hex_list(&plain.recommend(3, 10).unwrap().items),
        "disabled index must serve the exact ranking"
    );
    let stats = engine.stats();
    assert!(!stats.ann_on);
    assert_eq!(stats.exact_fallbacks, 1);
    assert_eq!(stats.ann_probes, 0);
    assert!(stats.recall_sampled.is_none());
}

/// Property: for *any* embedding matrix and index geometry, the IVF build
/// — f32 and int8 alike — is bit-identical at every thread count. The
/// fingerprint covers the quantizer bits and the list membership; the
/// packed rows are a gather of the source in that order (unit-tested per
/// representation).
#[test]
fn prop_index_build_is_thread_count_invariant() {
    let _guard = lock();
    check("ann_build_thread_invariant", DEFAULT_CASES / 4, |g| {
        let n_items = g.len_in(4, 120);
        let dim = g.len_in(2, 20);
        let data = g.vec_of(n_items * dim, |g| g.random_range(-2.0f32..2.0));
        let items = Mat::from_vec(n_items, dim, data);
        let params = IvfParams::new()
            .nlists(g.len_in(1, 12))
            .seed(g.random_range(0..u64::MAX));

        let mut prints = Vec::new();
        for threads in [1usize, 3, 4] {
            graphaug_par::set_thread_count(threads);
            prints.push((
                IvfIndex::build(&items, &params).fingerprint(),
                QuantIvf::build(&QuantRows::quantize(&items), &params).fingerprint(),
            ));
        }
        graphaug_par::set_thread_count(1);
        prop_assert_eq!(prints[0], prints[1]);
        prop_assert_eq!(prints[0], prints[2]);
        Ok(())
    });
}

/// Property: with `nprobe = nlists` an index is hex-identical to its
/// representation's full scan — the f32 ANN path to the exact scorer, the
/// int8 index to the quant scan of tables built without ANN geometry — for
/// any embeddings, geometry, and `k` (past the unseen count too, where
/// seen items surface at the tail), including duplicate-heavy scores,
/// where the shared total-order tie-break (equal score → lower index) is
/// what keeps the two paths aligned.
#[test]
fn prop_full_probe_matches_exact_hex_under_ties() {
    check("ann_full_probe_parity", DEFAULT_CASES / 4, |g| {
        let n_users = g.len_in(2, 16);
        let n_items = g.len_in(4, 90);
        let dim = g.len_in(2, 10);
        // A tiny value palette makes duplicate dot products near-certain,
        // so ties are exercised on every case, not by luck.
        let palette = [-1.0f32, -0.5, 0.0, 0.5, 1.0];
        let draw = |g: &mut graphaug_rng::prop::Gen, n: usize| {
            g.vec_of(n, |g| palette[g.random_range(0..palette.len())])
        };
        let users = draw(g, n_users * dim);
        let items = draw(g, n_items * dim);
        let graph = generate(
            &SyntheticConfig::new(n_users, n_items, 2 * n_users).seed(g.random_range(0..1 << 32)),
        );
        let nlists = g.len_in(1, 9);
        let params = IvfParams::new()
            .nlists(nlists)
            .nprobe(nlists)
            .recall_floor(0.0)
            .seed(g.random_range(0..u64::MAX));

        // The palette quantizes to five int8 values, so int8 score ties
        // are as certain as the f32 ones.
        let quant = QuantParams::new().drift_floor(0.0);
        let tables = |ann: Option<&IvfParams>| {
            ModelTables::from_embeddings(
                Mat::from_vec(n_users, dim, users.clone()),
                Mat::from_vec(n_items, dim, items.clone()),
                graph.clone(),
                1,
                ann,
                Some(&quant),
            )
        };
        let ann_tables = tables(Some(&params));
        let scan_tables = tables(None);
        prop_assert!(ann_tables.ann().expect("index built").enabled());
        prop_assert!(ann_tables.quant().expect("int8 built").ivf().is_some());
        prop_assert!(scan_tables.quant().expect("int8 built").ivf().is_none());

        let k = g.len_in(1, n_items + 4);
        for user in 0..n_users as u32 {
            let (approx, how) = ann_tables.top_k_ann(user, k).map_err(|e| e.to_string())?;
            prop_assert!(how.used_ann);
            let exact = scan_tables.top_k(user, k).map_err(|e| e.to_string())?;
            prop_assert_eq!(hex_list(&approx), hex_list(&exact));

            let (via_ivf, how) = ann_tables.top_k_quant(user, k).map_err(|e| e.to_string())?;
            prop_assert!(how.used_quant);
            prop_assert_eq!(how.cands as usize, n_items);
            let (via_scan, how) = scan_tables
                .top_k_quant(user, k)
                .map_err(|e| e.to_string())?;
            prop_assert!(how.used_quant);
            prop_assert_eq!(how.probes, 0);
            prop_assert_eq!(hex_list(&via_ivf), hex_list(&via_scan));
        }
        Ok(())
    });
}

#[test]
fn hot_reload_rebuilds_and_regates_the_index() {
    let graph = toy_graph();
    let stage = TempDir::new("regate-stage");
    train_into(stage.path(), &graph);
    let generations = checkpoint::list_generations(stage.path());
    assert!(generations.len() >= 2, "need two generations to swap");

    // Serve the oldest generation with ANN on, then reveal the newest.
    let dir = TempDir::new("regate");
    let first = generations.first().unwrap();
    let last = generations.last().unwrap();
    fs::copy(
        checkpoint::generation_path(stage.path(), *first),
        checkpoint::generation_path(dir.path(), *first),
    )
    .unwrap();
    let source = ModelSource::new(toy_model(), graph, dir.path()).ann(full_probe());
    let engine = Engine::open(source).unwrap();
    let before = engine.tables();
    assert_eq!(before.generation(), *first);
    assert!(before.ann().unwrap().enabled());

    fs::copy(
        checkpoint::generation_path(stage.path(), *last),
        checkpoint::generation_path(dir.path(), *last),
    )
    .unwrap();
    assert_eq!(engine.reload_if_newer().unwrap(), Some(*last));
    let after = engine.tables();
    assert_eq!(after.generation(), *last);
    let ann = after.ann().expect("reload rebuilds the index");
    assert!(ann.enabled(), "gate re-ran on the new tables");
    // The new index quantizes the *new* embeddings — full-probe output must
    // match the new generation's exact ranking.
    let (top, how) = after.top_k_ann(11, 10).unwrap();
    assert!(how.used_ann);
    assert_eq!(hex_list(&top), hex_list(&after.top_k(11, 10).unwrap()));
}
