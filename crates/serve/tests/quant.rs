//! Int8 quantization integration tests: the quantizer must be
//! bit-deterministic for any thread count, the integer kernel must agree
//! between lane and scalar builds, quantized IVF full-probe must equal the
//! quantized full scan hex-exactly, the drift gate must fail closed into
//! the f32 path (serving bits hex-identical to the `RECX` oracle), the
//! response cache must never mix scorer modes, a hot reload must
//! re-quantize and re-gate per generation, and the wire-level `STATS`
//! must carry the quant fields.

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
    parse_ok_line, serve, Engine, IvfParams, ModelSource, ModelTables, QuantParams, QuantRows,
    ScoredItem,
};
use graphaug_tensor::Mat;

/// `set_thread_count`/`set_simd_enabled` are process-global; serialize the
/// tests that flip them.
static THREAD_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("graphaug-quant-{tag}-{}", std::process::id()));
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

/// Property: for any matrix — including all-zero rows and rows dominated
/// by a single outlier — dequantizing recovers every weight to within half
/// a quantization step (`scale / 2`), the symmetric-rounding error bound.
#[test]
fn prop_quantize_roundtrip_error_is_bounded_by_half_a_step() {
    check("quant_roundtrip_bound", DEFAULT_CASES / 2, |g| {
        let rows = g.len_in(1, 24);
        let dim = g.len_in(1, 40);
        let mut data = g.vec_of(rows * dim, |g| g.random_range(-8.0f32..8.0));
        // Force the edge geometries on (deterministically chosen) rows: an
        // all-zero row (scale 0) and a single-outlier row (every other
        // weight lands in the lowest quantization bins).
        let zero_row = g.random_range(0..rows);
        data[zero_row * dim..(zero_row + 1) * dim].fill(0.0);
        if rows > 1 {
            let outlier_row = (zero_row + 1) % rows;
            let span = &mut data[outlier_row * dim..(outlier_row + 1) * dim];
            for v in span.iter_mut() {
                *v = g.random_range(-0.05f32..0.05);
            }
            span[dim - 1] = 120.0;
        }
        let m = Mat::from_vec(rows, dim, data.clone());
        let q = QuantRows::quantize(&m);
        let back = q.dequantize();
        for r in 0..rows {
            let scale = q.scale(r);
            prop_assert!(scale >= 0.0);
            for c in 0..dim {
                let err = (back.row(r)[c] - data[r * dim + c]).abs();
                // f32 slack for the dequant multiply itself.
                prop_assert!(
                    err <= scale / 2.0 + scale * 1e-5,
                    "row {r} col {c}: err {err} vs scale {scale}"
                );
            }
        }
        Ok(())
    });
}

/// Property: the int8 row kernel scores every row with the bits of the
/// scalar `dot8_i8` formula, in its lane and its scalar build, at every
/// supported thread count — the integer accumulation is exact, so there is
/// nothing to round differently.
#[test]
fn prop_dot8_i8_lane_and_scalar_agree_at_every_thread_count() {
    let _guard = lock();
    check("quant_dot_lane_scalar_parity", DEFAULT_CASES / 2, |g| {
        let dim = g.len_in(0, 200);
        let n = g.len_in(0, 6);
        let user = g.vec_of(dim, |g| g.random_range(-128i64..128) as i8);
        let rows = g.vec_of(n * dim, |g| g.random_range(-128i64..128) as i8);
        let scales = g.vec_of(n, |g| g.random_range(0.0f32..0.1));
        let want: Vec<u32> = (0..n)
            .map(|r| {
                let dot = graphaug_par::dot8_i8(&user, &rows[r * dim..(r + 1) * dim]);
                (dot as f32 * (0.03 * scales[r])).to_bits()
            })
            .collect();
        let mut results = Vec::new();
        for threads in [1usize, 3, 4] {
            graphaug_par::set_thread_count(threads);
            for simd in [true, false] {
                graphaug_par::set_simd_enabled(simd);
                let mut out = Vec::new();
                graphaug_par::score_rows_i8(&rows, &scales, &user, 0.03, &mut out);
                results.push(out.iter().map(|s| s.to_bits()).collect::<Vec<_>>());
            }
        }
        graphaug_par::set_simd_enabled(true);
        graphaug_par::set_thread_count(1);
        for r in &results {
            prop_assert_eq!(r, &want);
        }
        Ok(())
    });
}

/// Property: quantization produces byte-identical tables (fingerprint over
/// every int8 weight and every scale's bits) at every thread count.
#[test]
fn prop_quantization_is_byte_deterministic_across_thread_counts() {
    let _guard = lock();
    check("quant_thread_determinism", DEFAULT_CASES / 4, |g| {
        let rows = g.len_in(1, 60);
        let dim = g.len_in(1, 24);
        let data = g.vec_of(rows * dim, |g| g.random_range(-4.0f32..4.0));
        let m = Mat::from_vec(rows, dim, data);
        let mut prints = Vec::new();
        for threads in [1usize, 3, 4] {
            graphaug_par::set_thread_count(threads);
            prints.push(QuantRows::quantize(&m).fingerprint());
        }
        graphaug_par::set_thread_count(1);
        prop_assert_eq!(prints[0], prints[1]);
        prop_assert_eq!(prints[0], prints[2]);
        Ok(())
    });
}

/// The quantized IVF probe visits every list ⇒ its output must be
/// hex-identical to the quantized full scan (the integer scores of the
/// same items are exactly equal, and both paths share the tie-break).
#[test]
fn quant_full_probe_equals_quant_full_scan_hex() {
    let graph = toy_graph();
    let dir = TempDir::new("fullprobe");
    train_into(dir.path(), &graph);
    let (generation, state) = checkpoint::load_latest_valid(dir.path()).unwrap();

    let full_probe = IvfParams::new().nlists(7).nprobe(7).recall_floor(0.0);
    let ivf_source = ModelSource::new(toy_model(), graph.clone(), dir.path())
        .ann(full_probe)
        .quant(QuantParams::new().drift_floor(0.0));
    let scan_source =
        ModelSource::new(toy_model(), graph, dir.path()).quant(QuantParams::new().drift_floor(0.0));
    let ivf_tables =
        ModelTables::build(&ivf_source, generation, &state, state.fingerprint()).unwrap();
    let scan_tables =
        ModelTables::build(&scan_source, generation, &state, state.fingerprint()).unwrap();
    assert!(ivf_tables.quant().unwrap().ivf().is_some());
    assert!(scan_tables.quant().unwrap().ivf().is_none());

    for user in [0u32, 17, 42, 59] {
        for k in [1usize, 5, 20] {
            let (via_ivf, how) = ivf_tables.top_k_quant(user, k).unwrap();
            assert!(how.used_quant);
            let (via_scan, how) = scan_tables.top_k_quant(user, k).unwrap();
            assert!(how.used_quant);
            assert_eq!(hex_list(&via_ivf), hex_list(&via_scan), "user={user} k={k}");
        }
    }
}

/// The quantized IVF serves exactly what the eager formula it replaced
/// served: every probed candidate scored `dot8_i8 · (s_u · s_i)` one row at
/// a time, every seen item masked to `-inf` before selection, then
/// `topk_pairs` — hex for hex at one probe, the default width and a full
/// probe, for every user and for `k` from 0 past the catalog size.
#[test]
fn quant_ivf_equals_the_eager_per_row_formula_hex() {
    use graphaug_eval::{topk_pairs, Recommender};

    let graph = toy_graph();
    let dir = TempDir::new("eager");
    train_into(dir.path(), &graph);
    let (generation, state) = checkpoint::load_latest_valid(dir.path()).unwrap();
    let nlists = 16;
    for nprobe in [1usize, 0, nlists] {
        let ivf = IvfParams::new()
            .nlists(nlists)
            .nprobe(nprobe)
            .recall_floor(0.0);
        let source = ModelSource::new(toy_model(), graph.clone(), dir.path())
            .ann(ivf)
            .quant(QuantParams::new().drift_floor(0.0));
        let tables = ModelTables::build(&source, generation, &state, state.fingerprint()).unwrap();
        let qb = tables.quant().unwrap();
        let index = qb.ivf().expect("quant IVF built");
        let (user_emb, item_emb) = tables.embeddings().unwrap();
        // Quantization is a pure function of the f32 table: these are the
        // bytes the index packed.
        let items = QuantRows::quantize(item_emb);
        let users = qb.user_rows();
        for user in 0..tables.n_users() as u32 {
            let (qu, su) = (users.row(user as usize), users.scale(user as usize));
            let seen = tables.seen(user);
            for k in [0usize, 1, 5, 20, 44, 60] {
                let (served, how) = tables.top_k_quant(user, k).unwrap();
                assert!(how.used_quant);
                let lists = index.probe(user_emb.row(user as usize), how.probes as usize);
                let eager = lists
                    .iter()
                    .flat_map(|&l| index.list(l as usize))
                    .map(|&v| {
                        let (qi, si) = (items.row(v as usize), items.scale(v as usize));
                        let score = graphaug_par::dot8_i8(qu, qi) as f32 * (su * si);
                        match seen.binary_search(&v) {
                            Ok(_) => (v, f32::NEG_INFINITY),
                            Err(_) => (v, score),
                        }
                    });
                let want: Vec<ScoredItem> = topk_pairs(eager, k, |_| false)
                    .into_iter()
                    .map(|(item, score)| ScoredItem { item, score })
                    .collect();
                assert_eq!(
                    hex_list(&served),
                    hex_list(&want),
                    "nprobe={nprobe} user={user} k={k}"
                );
            }
        }
    }
}

/// The fail-closed acceptance check: an impossible drift floor disables
/// the quantized path, and `REC` then serves f32 bits **hex-identical** to
/// the pinned `RECX` oracle — on the wire, byte for byte.
#[test]
fn impossible_drift_floor_serves_f32_bits_identical_to_recx() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let graph = toy_graph();
    let dir = TempDir::new("gate");
    train_into(dir.path(), &graph);
    let source = ModelSource::new(toy_model(), graph.clone(), dir.path())
        .quant(QuantParams::new().drift_floor(1.1));
    let engine = Arc::new(Engine::open(source).unwrap());
    let tables = engine.tables();
    let qb = tables.quant().expect("tables still built and reported");
    assert!(!qb.enabled(), "an impossible floor must refuse the gate");
    assert!(qb.build_drift() <= 1.0);

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
            assert_eq!(rec, recx, "user={user} k={k}");
            parse_ok_line(&rec).expect("well-formed OK line");
        }
    }
    let stats = ask("STATS");
    assert!(stats.contains(" quant=off "), "{stats}");

    // Belt and braces: the engine-level bits equal a quant-free build's.
    let plain = Engine::open(ModelSource::new(toy_model(), graph, dir.path())).unwrap();
    for user in [0u32, 44] {
        assert_eq!(
            hex_list(&engine.recommend(user, 10).unwrap().items),
            hex_list(&plain.recommend(user, 10).unwrap().items)
        );
    }
}

/// Same `(user, k, generation)` through `REC` (quant mode) and `RECX`:
/// each mode must miss once and then hit its own cache entry, never the
/// other mode's.
#[test]
fn cache_never_mixes_quant_and_exact_entries() {
    let graph = toy_graph();
    let dir = TempDir::new("modekey");
    train_into(dir.path(), &graph);
    let source =
        ModelSource::new(toy_model(), graph, dir.path()).quant(QuantParams::new().drift_floor(0.0));
    let engine = Engine::open(source).unwrap();
    assert!(engine.tables().quant().unwrap().enabled());

    assert!(!engine.recommend(5, 8).unwrap().from_cache);
    assert!(engine.recommend(5, 8).unwrap().from_cache);
    assert!(
        !engine.recommend_exact(5, 8).unwrap().from_cache,
        "an exact request must not be answered from the quant entry"
    );
    assert!(engine.recommend_exact(5, 8).unwrap().from_cache);
    let stats = engine.stats();
    assert_eq!(stats.cache_hits, 2);
    assert_eq!(stats.cache_misses, 2);
    assert_eq!(stats.quant_served, 1, "one uncached quant list");
}

/// The every-Nth self-audit samples drift online and reports it through
/// `EngineStats` (and the `STATS` wire line renders it).
#[test]
fn quant_self_audit_reports_sampled_drift() {
    let graph = toy_graph();
    let dir = TempDir::new("audit");
    train_into(dir.path(), &graph);
    let source = ModelSource::new(toy_model(), graph, dir.path())
        .quant(QuantParams::new().drift_floor(0.0).audit_every(1));
    let engine = Engine::open(source).unwrap();
    assert!(engine.tables().quant().unwrap().enabled());

    for user in 0..30u32 {
        engine.recommend(user, 10).unwrap();
    }
    let stats = engine.stats();
    assert!(stats.quant_on);
    assert_eq!(stats.quant_served, 30);
    assert!(stats.table_bytes > 0);
    let drift = stats
        .drift_sampled
        .expect("audit_every=1 samples every request");
    assert!((0.0..=1.0).contains(&drift));
    assert_eq!(stats.exact_fallbacks, 0);
}

/// A hot reload re-quantizes the *new* generation's embeddings and
/// re-runs the drift gate — quantized serving after the swap reflects the
/// new tables.
#[test]
fn hot_reload_requantizes_and_regates() {
    let graph = toy_graph();
    let stage = TempDir::new("regate-stage");
    train_into(stage.path(), &graph);
    let generations = checkpoint::list_generations(stage.path());
    assert!(generations.len() >= 2, "need two generations to swap");

    let dir = TempDir::new("regate");
    let first = generations.first().unwrap();
    let last = generations.last().unwrap();
    fs::copy(
        checkpoint::generation_path(stage.path(), *first),
        checkpoint::generation_path(dir.path(), *first),
    )
    .unwrap();
    let source =
        ModelSource::new(toy_model(), graph, dir.path()).quant(QuantParams::new().drift_floor(0.0));
    let engine = Engine::open(source).unwrap();
    let before = engine.tables();
    assert_eq!(before.generation(), *first);
    let drift_before = before.quant().unwrap().build_drift();
    let print_before = before.quant().unwrap().user_rows().fingerprint();

    fs::copy(
        checkpoint::generation_path(stage.path(), *last),
        checkpoint::generation_path(dir.path(), *last),
    )
    .unwrap();
    assert_eq!(engine.reload_if_newer().unwrap(), Some(*last));
    let after = engine.tables();
    assert_eq!(after.generation(), *last);
    let qb = after.quant().expect("reload rebuilds the quant tables");
    assert!(qb.enabled(), "gate re-ran on the new tables");
    assert_ne!(
        qb.user_rows().fingerprint(),
        print_before,
        "new generation must re-quantize new embeddings"
    );
    // The re-gate measured the *new* tables (usually a different estimate;
    // at minimum it is a fresh, valid one).
    assert!((0.0..=1.0).contains(&qb.build_drift()));
    let _ = drift_before;
    // Served quant output matches a from-scratch build of the new
    // generation, bit for bit.
    let (generation, state) = checkpoint::load_latest_valid(dir.path()).unwrap();
    assert_eq!(generation, *last);
    let fresh =
        ModelTables::build(engine.source(), generation, &state, state.fingerprint()).unwrap();
    let (reloaded, _) = after.top_k_quant(11, 10).unwrap();
    let (scratch, _) = fresh.top_k_quant(11, 10).unwrap();
    assert_eq!(hex_list(&reloaded), hex_list(&scratch));
}
