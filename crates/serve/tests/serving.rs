//! Serving integration tests: the served ranking must be bit-identical to
//! the offline `graphaug-eval` ranking for the same checkpoint (at several
//! thread counts), hot reload must never tear or drop an in-flight
//! request, the response cache must be generation-keyed and bit-faithful,
//! and the TCP protocol must round-trip scores exactly.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use graphaug_core::{GraphAug, GraphAugConfig};
use graphaug_data::{generate, SyntheticConfig};
use graphaug_eval::{evaluate, topk_indices, Recommender};
use graphaug_graph::{InteractionGraph, TrainTestSplit};
use graphaug_runtime::checkpoint::{generation_path, list_generations};
use graphaug_runtime::{Checkpointer, Runtime, RuntimeConfig};
use graphaug_serve::{
    parse_ok_line, serve, spawn_watcher, Engine, ModelSource, ModelTables, Request, ScoredItem,
};

/// `set_thread_count` is process-global; serialize the tests that flip it.
static THREAD_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A unique, self-cleaning directory per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("graphaug-serve-{tag}-{}", std::process::id()));
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

/// Trains the toy model to completion, leaving checkpoints under `dir`.
fn train_into(dir: &Path, graph: &InteractionGraph) {
    let mut rt = Runtime::new(RuntimeConfig::new(toy_model()).checkpoint_dir(dir), graph).unwrap();
    rt.run().unwrap();
}

/// Bit-exact rendering of a ranked list.
fn hex_list(items: &[ScoredItem]) -> String {
    items
        .iter()
        .map(|s| format!("{}:{:08x}", s.item, s.score.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The offline ranking exactly as `graphaug-eval` computes it: score all
/// items through the `Recommender` trait, mask train items to `-inf`,
/// bounded-heap top-K.
fn offline_hex(model: &dyn Recommender, graph: &InteractionGraph, user: u32, k: usize) -> String {
    let mut scores = model.score_items(user as usize);
    for &v in graph.items_of(user as usize) {
        scores[v as usize] = f32::NEG_INFINITY;
    }
    let ranked = topk_indices(&scores, k);
    hex_list(
        &ranked
            .iter()
            .map(|&i| ScoredItem {
                item: i,
                score: scores[i as usize],
            })
            .collect::<Vec<_>>(),
    )
}

#[test]
fn served_topk_is_bit_identical_to_offline_eval_at_1_and_4_threads() {
    let _guard = lock();
    let graph = toy_graph();
    let split = TrainTestSplit::per_user(&graph, 0.25, 3);
    let dir = TempDir::new("parity");
    train_into(dir.path(), &split.train);

    // Offline side: the training-restore path, independent of the serving
    // table builder.
    let (generation, state) =
        graphaug_runtime::checkpoint::load_latest_valid(dir.path()).expect("trained checkpoints");
    let mut offline = GraphAug::new(toy_model(), &split.train);
    offline.restore_training_state(&state.model).unwrap();

    let source = ModelSource::new(toy_model(), split.train.clone(), dir.path());
    let mut per_thread_outputs: Vec<String> = Vec::new();
    for threads in [1usize, 4] {
        graphaug_par::set_thread_count(threads);
        let engine = Engine::open(source.clone()).unwrap();
        assert_eq!(engine.stats().generation, generation);

        let mut all = String::new();
        for user in 0..split.train.n_users() as u32 {
            for k in [1usize, 7, 20] {
                let served = engine.recommend(user, k).unwrap();
                let served_hex = hex_list(&served.items);
                let expect = offline_hex(&offline, &split.train, user, k);
                assert_eq!(
                    served_hex, expect,
                    "user {user} k {k} at {threads} threads: served ranking \
                     must equal offline eval bit-for-bit"
                );
                all.push_str(&served_hex);
                all.push('\n');
            }
        }
        per_thread_outputs.push(all);

        // Aggregate-metric parity through the eval harness itself.
        let tables = engine.tables();
        assert_eq!(
            evaluate(tables.as_ref(), &split, &[5, 20]).bitline(),
            evaluate(&offline, &split, &[5, 20]).bitline(),
            "EvalResult bitlines must match at {threads} threads"
        );
    }
    graphaug_par::set_thread_count(1);
    assert_eq!(
        per_thread_outputs[0], per_thread_outputs[1],
        "served output must be thread-count invariant"
    );
}

#[test]
fn batched_requests_match_single_requests_and_share_one_generation() {
    let graph = toy_graph();
    let dir = TempDir::new("batch");
    train_into(dir.path(), &graph);
    let engine = Engine::open(ModelSource::new(toy_model(), graph.clone(), dir.path())).unwrap();

    let requests: Vec<(u32, usize)> = (0..graph.n_users() as u32).map(|u| (u, 9)).collect();
    let batch = engine.recommend_batch(&requests);
    assert_eq!(batch.len(), requests.len());
    let gen0 = engine.stats().generation;
    for (result, &(user, k)) in batch.iter().zip(&requests) {
        let rec = result.as_ref().unwrap();
        assert_eq!(rec.user, user);
        assert_eq!(rec.generation, gen0, "whole batch serves one generation");
        let single = engine.recommend(user, k).unwrap();
        assert_eq!(hex_list(&rec.items), hex_list(&single.items));
    }

    // Out-of-range users fail cleanly without poisoning the batch.
    let mixed = engine.recommend_batch(&[(0, 5), (9999, 5), (1, 5)]);
    assert!(mixed[0].is_ok());
    assert!(mixed[1].is_err());
    assert!(mixed[2].is_ok());
}

#[test]
fn response_cache_is_bit_faithful_and_generation_keyed() {
    let graph = toy_graph();
    let dir = TempDir::new("cache");
    train_into(dir.path(), &graph);
    let engine = Engine::open(ModelSource::new(toy_model(), graph, dir.path())).unwrap();

    let cold = engine.recommend(3, 8).unwrap();
    assert!(!cold.from_cache);
    let warm = engine.recommend(3, 8).unwrap();
    assert!(warm.from_cache, "second identical request hits the cache");
    assert_eq!(hex_list(&cold.items), hex_list(&warm.items));
    let stats = engine.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);

    // A different k is a different key.
    let other = engine.recommend(3, 9).unwrap();
    assert!(!other.from_cache);
}

/// Replays training epoch by epoch, copying every checkpoint file aside
/// before the retention policy prunes it. Returns `(gen, file_bytes)` in
/// ascending generation order.
fn all_generations(graph: &InteractionGraph) -> Vec<(u64, Vec<u8>)> {
    let dir = TempDir::new("stage");
    let mut rt = Runtime::new(
        RuntimeConfig::new(toy_model()).checkpoint_dir(dir.path()),
        graph,
    )
    .unwrap();
    let mut kept: Vec<(u64, Vec<u8>)> = Vec::new();
    for epoch in 1..=4u64 {
        rt.run_until(epoch).unwrap();
        for generation in list_generations(dir.path()) {
            if kept.iter().all(|&(g, _)| g != generation) {
                let bytes = fs::read(generation_path(dir.path(), generation)).unwrap();
                kept.push((generation, bytes));
            }
        }
    }
    kept.sort_by_key(|&(g, _)| g);
    kept
}

#[test]
fn hot_reload_is_atomic_under_concurrent_readers() {
    let graph = toy_graph();
    let generations = all_generations(&graph);
    assert!(generations.len() >= 3, "need several generations to swap");

    // Expected bit-exact answer for every (generation, user) the readers
    // can observe, built straight from the checkpoint bytes.
    let source = ModelSource::new(toy_model(), graph.clone(), Path::new("/unused"));
    let users: Vec<u32> = (0..graph.n_users() as u32).collect();
    const K: usize = 10;
    let mut expected: std::collections::HashMap<(u64, u32), String> =
        std::collections::HashMap::new();
    let stage = TempDir::new("expect");
    for (generation, bytes) in &generations {
        let path = generation_path(stage.path(), *generation);
        fs::write(&path, bytes).unwrap();
        let state = Checkpointer::load(&path).unwrap();
        let tables = ModelTables::build(&source, *generation, &state, state.fingerprint()).unwrap();
        for &user in &users {
            expected.insert(
                (*generation, user),
                hex_list(&tables.top_k(user, K).unwrap()),
            );
        }
    }

    // Serve the oldest generation, then feed newer ones in while readers
    // hammer the engine from four threads.
    let dir = TempDir::new("reload");
    let (first, rest) = generations.split_first().unwrap();
    fs::write(generation_path(dir.path(), first.0), &first.1).unwrap();
    let engine =
        Arc::new(Engine::open(ModelSource::new(toy_model(), graph.clone(), dir.path())).unwrap());
    assert_eq!(engine.stats().generation, first.0);

    let stop = Arc::new(AtomicBool::new(false));
    let expected = Arc::new(expected);
    let mut readers = Vec::new();
    for reader in 0..4u32 {
        let engine = engine.clone();
        let stop = stop.clone();
        let expected = expected.clone();
        let users = users.clone();
        readers.push(std::thread::spawn(move || {
            let mut observed = Vec::new();
            let mut last_gen = 0u64;
            let mut i = reader as usize;
            while !stop.load(Ordering::Relaxed) {
                let user = users[i % users.len()];
                i += 1;
                let rec = engine.recommend(user, K).expect("serving never fails");
                // A response must be *exactly* the answer of some single
                // generation — any torn table would produce a hex line
                // matching no generation at all.
                let want = expected
                    .get(&(rec.generation, user))
                    .expect("response claims a known generation");
                assert_eq!(
                    &hex_list(&rec.items),
                    want,
                    "reader {reader}: torn or stale response for user {user} \
                     at generation {}",
                    rec.generation
                );
                assert!(
                    rec.generation >= last_gen,
                    "generation must never move backwards within a connection"
                );
                last_gen = rec.generation;
                observed.push(rec.generation);
            }
            observed
        }));
    }

    // Roll the remaining generations out one at a time.
    let mut swapped = Vec::new();
    for (generation, bytes) in rest {
        std::thread::sleep(std::time::Duration::from_millis(15));
        fs::write(generation_path(dir.path(), *generation), bytes).unwrap();
        let result = engine.reload_if_newer().unwrap();
        assert_eq!(result, Some(*generation));
        swapped.push(*generation);
    }
    std::thread::sleep(std::time::Duration::from_millis(15));
    stop.store(true, Ordering::Relaxed);

    let mut seen_gens = std::collections::BTreeSet::new();
    let mut total = 0usize;
    for handle in readers {
        let observed = handle.join().expect("reader must not panic");
        total += observed.len();
        seen_gens.extend(observed);
    }
    assert!(total > 0, "readers actually served requests");
    assert!(
        seen_gens.len() >= 2,
        "readers should observe at least two generations across the \
         swaps (saw {seen_gens:?})"
    );
    let stats = engine.stats();
    assert_eq!(stats.reloads, swapped.len() as u64);
    assert_eq!(stats.generation, *swapped.last().unwrap());
    assert_eq!(stats.reload_errors, 0);
}

#[test]
fn identical_checkpoint_under_a_newer_generation_is_rebadged_not_rebuilt() {
    let graph = toy_graph();
    let dir = TempDir::new("skip");
    train_into(dir.path(), &graph);
    let engine = Engine::open(ModelSource::new(toy_model(), graph.clone(), dir.path())).unwrap();
    let serving = engine.stats().generation;
    let before = engine.recommend(5, 10).unwrap();

    // Re-publish the serving checkpoint's bytes under the next generation
    // number (a backfill / checkpoint-dir restore). The state is
    // byte-identical, so the reload must take the fingerprint fast path:
    // no decode-forward-quantize-gate rebuild, just a rebadge.
    let bytes = fs::read(generation_path(dir.path(), serving)).unwrap();
    fs::write(generation_path(dir.path(), serving + 1), &bytes).unwrap();
    assert_eq!(engine.reload_if_newer().unwrap(), Some(serving + 1));
    let stats = engine.stats();
    assert_eq!(stats.generation, serving + 1);
    assert_eq!(
        stats.reload_skips, 1,
        "identical state must skip the rebuild"
    );
    assert_eq!(
        stats.reloads, 0,
        "no full rebuild may run for identical state"
    );

    // Served bits are unchanged; only the generation badge moved (and with
    // it the cache keying, so the fresh generation recomputes its entry).
    let after = engine.recommend(5, 10).unwrap();
    assert_eq!(after.generation, serving + 1);
    assert_eq!(hex_list(&before.items), hex_list(&after.items));

    // A genuinely different state under a yet-newer generation still takes
    // the full rebuild path and refreshes the fingerprint.
    let earlier = all_generations(&graph)
        .into_iter()
        .next()
        .expect("staged generations");
    assert_ne!(earlier.1, bytes, "staged generation differs from final");
    fs::write(generation_path(dir.path(), serving + 2), &earlier.1).unwrap();
    assert_eq!(engine.reload_if_newer().unwrap(), Some(serving + 2));
    let stats = engine.stats();
    assert_eq!(stats.reloads, 1);
    assert_eq!(stats.reload_skips, 1);
}

#[test]
fn watcher_picks_up_new_generations_in_the_background() {
    let graph = toy_graph();
    let generations = all_generations(&graph);
    let (first, rest) = generations.split_first().unwrap();

    let dir = TempDir::new("watch");
    fs::write(generation_path(dir.path(), first.0), &first.1).unwrap();
    let engine = Arc::new(Engine::open(ModelSource::new(toy_model(), graph, dir.path())).unwrap());
    let watcher = spawn_watcher(engine.clone(), std::time::Duration::from_millis(2));

    let (last_gen, last_bytes) = rest.last().unwrap();
    fs::write(generation_path(dir.path(), *last_gen), last_bytes).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while engine.stats().generation != *last_gen {
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never swapped to generation {last_gen}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    watcher.stop();
    assert_eq!(engine.stats().reloads, 1);
}

#[test]
fn tcp_round_trip_matches_the_engine_bit_exactly() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let graph = toy_graph();
    let dir = TempDir::new("tcp");
    train_into(dir.path(), &graph);
    let engine = Arc::new(Engine::open(ModelSource::new(toy_model(), graph, dir.path())).unwrap());
    let handle = serve(engine.clone(), "127.0.0.1:0").unwrap();

    fn recv(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }
    fn ask(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> String {
        writeln!(writer, "{req}").unwrap();
        recv(reader)
    }

    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    assert_eq!(ask(&mut writer, &mut reader, "PING"), "PONG");

    // Single REC: the wire bits must equal the in-process answer exactly.
    let direct = engine.recommend(7, 5).unwrap();
    let ok = parse_ok_line(&ask(&mut writer, &mut reader, "REC 7 5")).expect("well-formed OK line");
    assert_eq!(ok.user, 7);
    assert_eq!(ok.k, 5);
    assert_eq!(ok.gen, direct.generation);
    assert_eq!(hex_list(&ok.items), hex_list(&direct.items));

    // Multi-user REC answers one line per user, in request order.
    writeln!(writer, "REC 1,2,3 4").unwrap();
    for expect_user in [1u32, 2, 3] {
        let ok = parse_ok_line(&recv(&mut reader)).expect("well-formed OK line");
        assert_eq!(ok.user, expect_user);
        let direct = engine.recommend(expect_user, 4).unwrap();
        assert_eq!(hex_list(&ok.items), hex_list(&direct.items));
    }

    assert!(ask(&mut writer, &mut reader, "REC 99999 5").starts_with("ERR "));
    assert!(ask(&mut writer, &mut reader, "BOGUS").starts_with("ERR "));
    let stats_line = ask(&mut writer, &mut reader, "STATS");
    assert!(stats_line.starts_with("STATS gen="), "got {stats_line:?}");
    assert_eq!(ask(&mut writer, &mut reader, "QUIT"), "BYE");
    handle.stop();
}

/// Trains the toy model and serves it on an ephemeral loopback port.
fn serve_toy(tag: &str) -> (TempDir, graphaug_serve::ServerHandle) {
    let graph = toy_graph();
    let dir = TempDir::new(tag);
    train_into(dir.path(), &graph);
    let engine = Arc::new(Engine::open(ModelSource::new(toy_model(), graph, dir.path())).unwrap());
    let handle = serve(engine, "127.0.0.1:0").unwrap();
    (dir, handle)
}

/// Sends a 64-user `REC` (an ~18 KB reply) `tries` times, checks each
/// reply byte-identical to 64 single-user replies, and returns the round
/// trips, sorted.
fn batch64_round_trips(tag: &str, tries: usize) -> Vec<std::time::Duration> {
    use graphaug_serve::ServeClient;

    let (_dir, handle) = serve_toy(tag);
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();
    let users: Vec<u32> = (0..64).map(|i| i % 60).collect();

    let singles: Vec<String> = users
        .iter()
        .map(|&u| client.rec_one(u, 20).unwrap())
        .collect();
    let reply_bytes: usize = singles.iter().map(|l| l.len() + 1).sum();
    assert!(
        reply_bytes > 16 * 1024,
        "the batch reply must span several writes to mean anything ({reply_bytes} bytes)"
    );

    let batch_request = Request::Rec {
        users: users.clone(),
        k: 20,
        exact: false,
    };
    let mut round_trips: Vec<_> = (0..tries)
        .map(|_| {
            let t = std::time::Instant::now();
            let batch = client.request_lines(&batch_request, users.len()).unwrap();
            let took = t.elapsed();
            assert_eq!(batch, singles);
            took
        })
        .collect();
    round_trips.sort_unstable();
    client.quit();
    handle.stop();
    round_trips
}

#[test]
fn a_64_user_line_is_byte_identical_to_64_single_lines() {
    batch64_round_trips("batch64", 2);
}

/// A reply pushed out in several small writes stalls ~40 ms on Nagle + the
/// client's delayed ACK; written whole (or with `TCP_NODELAY`) it is a
/// loopback hop.
#[test]
#[ignore = "the reply path still stalls (~44 ms); enable with the nodelay/single-write fix in ingest::net (ROADMAP item 1)"]
fn a_64_user_line_does_not_stall_on_nagle() {
    let round_trips = batch64_round_trips("batch64-latency", 20);
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(10),
        "64-user REC median round trip {median:?} (sorted: {round_trips:?})"
    );
}

#[test]
fn an_overlong_request_line_is_refused_and_the_connection_closed() {
    use graphaug_serve::net::MAX_LINE_BYTES;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    let (_dir, handle) = serve_toy("overlong");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    // A server that waits for the newline forever fails here, not hangs.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    // One byte over the cap and no newline: the server has to give up on
    // the line on its own.
    let flood = format!("REC {}", "1".repeat(MAX_LINE_BYTES - 3));
    assert_eq!(flood.len(), MAX_LINE_BYTES + 1);
    reader.get_mut().write_all(flood.as_bytes()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(
        line,
        format!("ERR line too long (max {MAX_LINE_BYTES} bytes)\n")
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "got {line:?}");

    // The listener itself is unharmed.
    let mut other = graphaug_serve::ServeClient::connect(&handle.addr().to_string()).unwrap();
    assert!(other.ping().unwrap());
    handle.stop();
}
