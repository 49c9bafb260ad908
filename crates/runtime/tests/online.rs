//! Integration tests for the online-learning loop: live windowed
//! fine-tuning must be bit-identical to offline replay of the same log
//! (at multiple thread counts), a concurrent read-only watcher must never
//! observe a partially written checkpoint, and a fine-tuner killed
//! mid-stream must resume from its watermark and converge to the same
//! bytes as an uninterrupted run.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use graphaug_core::GraphAugConfig;
use graphaug_data::{generate, SyntheticConfig};
use graphaug_graph::InteractionGraph;
use graphaug_ingest::{apply_deltas, read_range, LogWriter};
use graphaug_runtime::{
    checkpoint, FineTuner, OnlineError, Runtime, RuntimeConfig, RuntimeError, SnapshotError,
};

fn toy_graph() -> InteractionGraph {
    generate(&SyntheticConfig::new(70, 55, 800).clusters(4).seed(13))
}

fn toy_model() -> GraphAugConfig {
    GraphAugConfig::fast_test()
        .seed(3)
        .epochs(6)
        .steps_per_epoch(3)
}

/// A unique, self-cleaning directory per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("graphaug-online-{tag}-{}", std::process::id()));
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

/// Deterministic stream of in-bounds interactions for the toy graph.
fn synthetic_record(k: u64) -> (u32, u32) {
    (((k * 7 + 3) % 70) as u32, ((k * 11 + 5) % 55) as u32)
}

fn copy_dir(from: &Path, to: &Path) {
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

fn newest_checkpoint_bytes(dir: &Path) -> (u64, Vec<u8>) {
    let gen = checkpoint::newest_generation(dir).expect("a checkpoint exists");
    (
        gen,
        fs::read(checkpoint::generation_path(dir, gen)).unwrap(),
    )
}

fn train_base(dir: &Path, graph: &InteractionGraph) {
    let mut rt = Runtime::new(RuntimeConfig::new(toy_model()).checkpoint_dir(dir), graph).unwrap();
    let report = rt.run().unwrap();
    assert_eq!(report.epochs_completed, 6);
}

#[test]
fn live_windowed_polling_equals_offline_replay_bit_identically_at_1_and_4_threads() {
    const WINDOW: u64 = 16;
    let base = toy_graph();
    let mut per_thread_bytes: Vec<Vec<u8>> = Vec::new();

    for threads in [1usize, 4] {
        graphaug_par::set_thread_count(threads);

        // One base training run; clone its checkpoint dir so the live and
        // replay fine-tuners warm-start from byte-identical state.
        let live_dir = TempDir::new(&format!("live-{threads}"));
        let replay_dir = TempDir::new(&format!("replay-{threads}"));
        let log_dir = TempDir::new(&format!("log-{threads}"));
        train_base(live_dir.path(), &base);
        copy_dir(live_dir.path(), replay_dir.path());

        // Live path: the log grows while the fine-tuner polls. Rounds fire
        // only at complete WINDOW boundaries; the 5-record tail stays
        // pending.
        let mut writer = LogWriter::open(log_dir.path(), 32).unwrap();
        let mut live = FineTuner::open(
            RuntimeConfig::new(toy_model()).checkpoint_dir(live_dir.path()),
            &base,
            log_dir.path(),
            WINDOW,
        )
        .unwrap();

        let mut live_rounds = Vec::new();
        let mut appended = 0u64;
        let feed = |w: &mut LogWriter, n: u64, appended: &mut u64| {
            for _ in 0..n {
                let (u, i) = synthetic_record(*appended);
                w.append(u, i).unwrap();
                *appended += 1;
            }
        };

        feed(&mut writer, 10, &mut appended);
        assert!(live.poll_once().unwrap().is_none(), "10 < one window");
        feed(&mut writer, 6, &mut appended);
        live_rounds.push(live.poll_once().unwrap().expect("window 1 complete"));
        feed(&mut writer, WINDOW, &mut appended);
        live_rounds.push(live.poll_once().unwrap().expect("window 2 complete"));
        feed(&mut writer, WINDOW + 5, &mut appended);
        live_rounds.push(live.poll_once().unwrap().expect("window 3 complete"));
        assert!(
            live.poll_once().unwrap().is_none(),
            "partial tail must stay pending"
        );
        assert_eq!(live.watermark(), 3 * WINDOW);
        assert_eq!(live.finetunes(), 3);

        // Replay path: same finished log, rounds fired back-to-back.
        let mut replay = FineTuner::open(
            RuntimeConfig::new(toy_model()).checkpoint_dir(replay_dir.path()),
            &base,
            log_dir.path(),
            WINDOW,
        )
        .unwrap();
        let replay_rounds = replay.run_pending().unwrap();
        assert_eq!(replay_rounds.len(), 3);
        assert_eq!(replay.watermark(), 3 * WINDOW);

        // Round-by-round equivalence, then byte-identical checkpoints.
        for (l, r) in live_rounds.iter().zip(&replay_rounds) {
            assert_eq!(l.round, r.round);
            assert_eq!(l.watermark, r.watermark);
            assert_eq!(l.applied, r.applied);
            assert_eq!(l.duplicates, r.duplicates);
            assert_eq!(l.steps, r.steps);
            assert_eq!(l.mean_loss.to_bits(), r.mean_loss.to_bits());
        }
        let (live_gen, live_bytes) = newest_checkpoint_bytes(live_dir.path());
        let (replay_gen, replay_bytes) = newest_checkpoint_bytes(replay_dir.path());
        assert_eq!(live_gen, replay_gen);
        assert_eq!(
            live_bytes, replay_bytes,
            "threads={threads}: live vs replay checkpoints must be byte-identical"
        );
        per_thread_bytes.push(live_bytes);
    }

    // The determinism contract also holds across thread counts.
    assert_eq!(
        per_thread_bytes[0], per_thread_bytes[1],
        "checkpoints must be byte-identical at 1 and 4 threads"
    );
}

#[test]
fn a_fine_tuner_killed_mid_stream_resumes_from_its_watermark_bit_identically() {
    const WINDOW: u64 = 16;
    graphaug_par::set_thread_count(1);
    let base = toy_graph();

    let ref_dir = TempDir::new("kill-ref");
    let kill_dir = TempDir::new("kill-victim");
    let log_dir = TempDir::new("kill-log");
    train_base(ref_dir.path(), &base);
    copy_dir(ref_dir.path(), kill_dir.path());

    // A finished log of exactly three windows.
    let mut writer = LogWriter::open(log_dir.path(), 16).unwrap();
    for k in 0..3 * WINDOW {
        let (u, i) = synthetic_record(k);
        writer.append(u, i).unwrap();
    }

    // Victim: one round, then the process "dies".
    let cfg = |dir: &Path| RuntimeConfig::new(toy_model()).checkpoint_dir(dir);
    let mut victim = FineTuner::open(cfg(kill_dir.path()), &base, log_dir.path(), WINDOW).unwrap();
    victim.poll_once().unwrap().expect("round 1");
    assert_eq!(victim.watermark(), WINDOW);
    drop(victim);

    // Reopen: `open` takes the graph at the persisted watermark from the
    // frame — no log needed — then drains the rest from the log.
    let no_log = kill_dir.path().join("no-such-log");
    let frame_only = FineTuner::open(cfg(kill_dir.path()), &base, &no_log, WINDOW).unwrap();
    let mut resumed = FineTuner::open(cfg(kill_dir.path()), &base, log_dir.path(), WINDOW).unwrap();
    assert_eq!(resumed.watermark(), WINDOW, "watermark restored from disk");
    assert!(
        resumed.graph().n_interactions() > base.n_interactions(),
        "resumed graph must include the absorbed window"
    );
    let replayed = apply_deltas(&base, &read_range(log_dir.path(), 0, WINDOW).unwrap())
        .unwrap()
        .graph;
    assert_eq!(resumed.graph().edges(), replayed.edges());
    assert_eq!(frame_only.graph().edges(), replayed.edges());
    let rounds = resumed.run_pending().unwrap();
    assert_eq!(rounds.len(), 2);

    // Reference: the same log drained in one uninterrupted process.
    let mut reference =
        FineTuner::open(cfg(ref_dir.path()), &base, log_dir.path(), WINDOW).unwrap();
    assert_eq!(reference.run_pending().unwrap().len(), 3);

    let (ref_gen, ref_bytes) = newest_checkpoint_bytes(ref_dir.path());
    let (kill_gen, kill_bytes) = newest_checkpoint_bytes(kill_dir.path());
    assert_eq!(ref_gen, kill_gen);
    assert_eq!(
        ref_bytes, kill_bytes,
        "kill + resume must converge to the uninterrupted run's bytes"
    );
}

#[test]
fn a_fine_tuner_refuses_a_frame_over_another_universe() {
    graphaug_par::set_thread_count(1);
    let base = toy_graph();
    let dir = TempDir::new("universe");
    train_base(dir.path(), &base);
    let cfg = RuntimeConfig::new(toy_model()).checkpoint_dir(dir.path());
    let log = dir.path().join("log");
    for other in [
        generate(&SyntheticConfig::new(71, 55, 800).clusters(4).seed(13)),
        generate(&SyntheticConfig::new(70, 54, 800).clusters(4).seed(13)),
    ] {
        match FineTuner::open(cfg.clone(), &other, &log, 16) {
            Err(OnlineError::Runtime(RuntimeError::Snapshot(SnapshotError::Incompatible(_)))) => {}
            Err(e) => panic!("expected Incompatible, got {e}"),
            Ok(_) => panic!("expected Incompatible, got a tuner"),
        }
    }
}

#[test]
fn concurrent_reader_never_observes_a_partial_checkpoint() {
    graphaug_par::set_thread_count(1);
    let dir = TempDir::new("concurrent");
    let dir_path = dir.path().to_path_buf();
    let graph = toy_graph();

    // Writer: a real training run publishing a generation per epoch into
    // the watched directory (atomic tmp+rename, keep-2 pruning).
    let writer = std::thread::spawn(move || {
        let cfg = RuntimeConfig::new(toy_model().epochs(12)).checkpoint_dir(&dir_path);
        let mut rt = Runtime::new(cfg, &graph).unwrap();
        rt.run().unwrap();
    });

    // Reader: hammer the read-only inspection API the serving watcher
    // uses. Three invariants while the writer races us:
    //  * every readable checkpoint file decodes cleanly — a file that
    //    exists is never a torn write (the only tolerated Err is Io, from
    //    a file pruned between the directory listing and the read);
    //  * `load_latest_valid` never goes backwards;
    //  * `.tmp` staging files never leak into the generation listing.
    let latest_seen = Arc::new(AtomicU64::new(0));
    let mut observed_any = false;
    while !writer.is_finished() {
        for info in checkpoint::inspect_dir(dir.path()) {
            match &info.status {
                Ok(summary) => {
                    assert!(summary.epoch <= 12);
                    observed_any = true;
                }
                Err(SnapshotError::Io(_)) => {} // pruned mid-read: fine
                Err(e) => panic!(
                    "reader observed a partial/corrupt checkpoint gen {}: {e}",
                    info.generation
                ),
            }
        }
        if let Some((gen, state)) = checkpoint::load_latest_valid(dir.path()) {
            let prev = latest_seen.swap(gen + 1, Ordering::Relaxed);
            assert!(
                gen + 1 >= prev,
                "latest_valid went backwards: {} then {gen}",
                prev - 1
            );
            assert!(state.epoch <= 12);
        }
        for g in checkpoint::list_generations(dir.path()) {
            let name = checkpoint::generation_path(dir.path(), g);
            assert!(!name.to_string_lossy().ends_with(".tmp"));
        }
    }
    writer.join().unwrap();

    // Final pass on the quiesced directory: everything left is valid and
    // the newest generation reflects the finished 12-epoch run.
    assert!(observed_any, "the race window never opened");
    let (gen, state) = checkpoint::load_latest_valid(dir.path()).expect("final checkpoint");
    assert!(gen + 1 >= latest_seen.load(Ordering::Relaxed));
    assert_eq!(state.epoch, 12);
    for info in checkpoint::inspect_dir(dir.path()) {
        info.status.expect("quiesced checkpoints all decode");
    }
}
