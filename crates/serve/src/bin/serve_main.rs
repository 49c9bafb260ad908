//! The serving demo binary driven by `ci.sh` and the README quickstart
//! (arguments: [`USAGE`]).
//!
//! Runs a self-contained service over the standard demo workload (the same
//! deterministic synthetic graph the kill/resume harness trains):
//!
//! 1. probes `<checkpoint-dir>` **once**: a valid checkpoint is decoded
//!    and reused directly (`reusing checkpoint gen=…`, no re-train, no
//!    second decode); otherwise the demo model is trained there first
//!    (checkpoint every epoch);
//! 2. opens the serving [`Engine`] from that state — with `--ann`, the IVF
//!    item index is built and recall-gated at open, printing `ANN ok
//!    recall=…` (or `ANN DISABLED …` with an exact fallback when the gate
//!    refuses); with `--quant`, int8 tables are built and drift-gated at
//!    open, printing `QUANT ok drift=…` (or `QUANT DISABLED …` with an
//!    f32 fallback when the gate refuses);
//! 3. runs a **parity self-check** through the exact-oracle path (`RECX`
//!    semantics — independent of any ANN index): the offline
//!    `graphaug-eval` ranking (computed through the independent
//!    training-restore path, over this process's own replay of the log)
//!    must match the served lists hex-exactly, the served graph must equal
//!    the replayed one, and the `EvalResult::bitline()`s of both sides must
//!    be byte-identical — printed as `PARITY ok …`;
//! 4. starts the TCP server (printing `READY addr=… gen=…`) with a hot
//!    reload watcher, then serves until killed.
//!
//! `--addr 127.0.0.1:0` (the default) binds an ephemeral loopback port so
//! smoke tests can run concurrently. An `--ann-*` / `--quant-*` flag
//! without its `--ann` / `--quant` switch is a usage error (exit 2).
//!
//! `--log-dir PATH` attaches the interaction log an `ingestd` process
//! appends to. The engine serves fine-tuned generations (nonzero
//! watermark) from their frames alone and reads the log only for `STATS
//! ingested=`; the parity self-check replays it to rebuild the model
//! independently, so a watermarked checkpoint at startup needs the flag.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use graphaug_core::GraphAug;
use graphaug_eval::{evaluate, topk_indices, Recommender};
use graphaug_graph::{InteractionGraph, TrainTestSplit};
use graphaug_ingest::{apply_deltas, read_range};
use graphaug_runtime::{checkpoint, demo_config, demo_split, Runtime, RuntimeConfig};
use graphaug_serve::args::{self, ArgError, Args, Fail};
use graphaug_serve::{
    serve, spawn_watcher, Engine, IvfParams, ModelSource, QuantParams, DEFAULT_CACHE_CAPACITY,
};

/// Offline top-K for one user, computed exactly as the eval harness does:
/// score every item, mask train items to `-inf`, bounded-heap top-K.
/// `graph` is the watermark-resolved training graph — base plus replayed
/// deltas — so seen-item masking matches the served tables.
fn offline_topk(model: &dyn Recommender, graph: &InteractionGraph, user: u32, k: usize) -> String {
    let mut scores = model.score_items(user as usize);
    for &v in graph.items_of(user as usize) {
        scores[v as usize] = f32::NEG_INFINITY;
    }
    let ranked = topk_indices(&scores, k);
    hex_list(
        &ranked
            .iter()
            .map(|&i| (i, scores[i as usize]))
            .collect::<Vec<_>>(),
    )
}

/// Bit-exact rendering of a ranked list (item ids + f32 score bit
/// patterns), mirroring the `EvalResult::bitline()` idea.
fn hex_list(items: &[(u32, f32)]) -> String {
    let mut out = String::new();
    for (i, &(item, score)) in items.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&format!("{item}:{:08x}", score.to_bits()));
    }
    out
}

/// The graph a checkpoint with watermark `log_offset` was trained on,
/// rebuilt without the frame: the base graph plus a replay of log records
/// `[0, log_offset)`, exactly as the trainer applied them.
fn replayed_graph(
    base: &InteractionGraph,
    log_dir: Option<&Path>,
    log_offset: u64,
) -> Result<InteractionGraph, String> {
    if log_offset == 0 {
        return Ok(base.clone());
    }
    let dir = log_dir.ok_or(format!(
        "watermark {log_offset}: the parity oracle replays the log and needs --log-dir"
    ))?;
    let records = read_range(dir, 0, log_offset).map_err(|e| format!("log replay: {e}"))?;
    let delta = apply_deltas(base, &records).map_err(|e| format!("log replay: {e}"))?;
    Ok(delta.graph)
}

fn parity_check(
    engine: &Engine,
    split: &TrainTestSplit,
    users: usize,
    log_dir: Option<&Path>,
) -> Result<String, String> {
    let source = engine.source();
    let dir = &source.checkpoint_dir;
    let (generation, state) = checkpoint::load_latest_valid(dir)
        .ok_or_else(|| format!("no valid checkpoint under {}", dir.display()))?;
    // Independent offline path: the base graph plus this process's own
    // replay of the log, then a training-style construct + restore over
    // it — none of which the engine does.
    let graph = replayed_graph(&source.graph, log_dir, state.log_offset)?;
    let mut offline = GraphAug::new(source.config.clone(), &graph);
    offline
        .restore_training_state(&state.model)
        .map_err(|e| format!("offline restore failed: {e}"))?;

    // Per-user ranked-list parity at several cutoffs, hex-exact.
    let tables = engine.tables();
    if tables.generation() != generation {
        return Err(format!(
            "engine serves gen {} but newest valid is {generation}",
            tables.generation()
        ));
    }
    if tables.graph().edges() != graph.edges() {
        return Err(format!(
            "gen {generation} serves a graph of {} edges, the log replay has {}",
            tables.graph().n_interactions(),
            graph.n_interactions()
        ));
    }
    let n_users = graph.n_users().min(users);
    let mut compared = 0usize;
    for user in 0..n_users as u32 {
        for k in [1usize, 5, 20] {
            // The exact-oracle path (`RECX` semantics): parity vs offline
            // eval must hold bit-for-bit whether or not an ANN index is
            // live, so the check pins the scorer, not the fast path.
            let served = engine
                .recommend_exact(user, k)
                .map_err(|e| format!("serve failed for user {user}: {e}"))?;
            let served_hex = hex_list(
                &served
                    .items
                    .iter()
                    .map(|s| (s.item, s.score))
                    .collect::<Vec<_>>(),
            );
            let offline_hex = offline_topk(&offline, &graph, user, k);
            if served_hex != offline_hex {
                return Err(format!(
                    "top-{k} mismatch for user {user}:\n  served:  {served_hex}\n  offline: {offline_hex}"
                ));
            }
            compared += 1;
        }
    }

    // Aggregate-metric parity: the served tables, evaluated as a
    // Recommender, must reproduce the offline model's bitline exactly.
    let served_bitline = evaluate(tables.as_ref(), split, &[20]).bitline();
    let offline_bitline = evaluate(&offline, split, &[20]).bitline();
    if served_bitline != offline_bitline {
        return Err(format!(
            "bitline mismatch:\n  served:  {served_bitline}\n  offline: {offline_bitline}"
        ));
    }
    Ok(format!(
        "PARITY ok gen={generation} lists={compared} {served_bitline}"
    ))
}

const USAGE: &str = "usage: serve_main <checkpoint-dir> [--addr HOST:PORT] [--watch-ms N] \
     [--parity-users N] [--ann] [--ann-nlists N] [--ann-nprobe N] [--ann-floor F] \
     [--quant] [--quant-floor F] [--log-dir PATH]";

struct Opts {
    dir: PathBuf,
    addr: String,
    watch_ms: u64,
    parity_users: usize,
    ann: bool,
    ann_nlists: Option<usize>,
    ann_nprobe: Option<usize>,
    ann_floor: Option<f64>,
    quant: bool,
    quant_floor: Option<f64>,
    log_dir: Option<PathBuf>,
}

fn parse(mut args: Args) -> Result<Opts, ArgError> {
    let opts = Opts {
        dir: args.positional("<checkpoint-dir>")?,
        addr: args.value("--addr", "127.0.0.1:0".into())?,
        // `spawn_watcher` ticks every `min(5 ms, period)`: zero is a busy loop.
        watch_ms: args.at_least("--watch-ms", 100)?,
        parity_users: args.value("--parity-users", 16)?,
        ann: args.switch("--ann")?,
        ann_nlists: args.opt("--ann-nlists")?,
        ann_nprobe: args.opt("--ann-nprobe")?,
        ann_floor: args.opt("--ann-floor")?,
        quant: args.switch("--quant")?,
        quant_floor: args.opt("--quant-floor")?,
        log_dir: args.opt("--log-dir")?,
    };
    args.finish()?;
    // An `--ann-*` / `--quant-*` flag only means something beside its
    // tier's switch, so alone it is rejected, not dropped.
    for (flag, given, switch, on) in [
        ("--ann-nlists", opts.ann_nlists.is_some(), "--ann", opts.ann),
        ("--ann-nprobe", opts.ann_nprobe.is_some(), "--ann", opts.ann),
        ("--ann-floor", opts.ann_floor.is_some(), "--ann", opts.ann),
        (
            "--quant-floor",
            opts.quant_floor.is_some(),
            "--quant",
            opts.quant,
        ),
    ] {
        if given && !on {
            return Err(ArgError::invalid(flag, format!("needs {switch}")));
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    args::run("serve_main", USAGE, |args| serve_demo(parse(args)?))
}

fn serve_demo(opts: Opts) -> Result<(), Fail> {
    let split = demo_split();
    let cfg = demo_config();
    let dir = opts.dir.as_path();

    // One probe decides training *and* feeds the engine: a valid checkpoint
    // is decoded exactly once and handed straight to `open_preloaded`, so a
    // warm restart never pays a redundant decode (or a redundant re-train).
    let preloaded = checkpoint::load_latest_valid_with_fingerprint(dir);
    match &preloaded {
        Some((generation, state, _)) => println!(
            "reusing checkpoint gen={generation} epoch={} under {} — skipping training",
            state.epoch,
            dir.display()
        ),
        None => {
            println!(
                "no valid checkpoint under {} — training demo model",
                dir.display()
            );
            let rt_cfg = RuntimeConfig::new(cfg.clone()).checkpoint_dir(dir);
            let mut rt = Runtime::new(rt_cfg, &split.train)
                .map_err(|e| format!("training setup failed: {e}"))?;
            let report = rt.run().map_err(|e| format!("training failed: {e}"))?;
            println!(
                "trained {} epochs, {} checkpoints written",
                report.epochs_completed, report.checkpoints_written
            );
        }
    }

    let ann_floor = opts.ann_floor.unwrap_or(0.9);
    let quant_floor = opts.quant_floor.unwrap_or(0.9);
    let mut source = ModelSource::new(cfg, split.train.clone(), dir);
    if opts.ann {
        source = source.ann(
            IvfParams::new()
                .recall_floor(ann_floor)
                .nlists(opts.ann_nlists.unwrap_or(0))
                .nprobe(opts.ann_nprobe.unwrap_or(0)),
        );
    }
    if opts.quant {
        source = source.quant(QuantParams::new().drift_floor(quant_floor));
    }
    if let Some(log_dir) = &opts.log_dir {
        source = source.log_dir(log_dir);
    }
    let opened = match preloaded {
        Some((generation, state, fingerprint)) => Engine::open_preloaded(
            source,
            generation,
            &state,
            fingerprint,
            DEFAULT_CACHE_CAPACITY,
        ),
        None => Engine::open(source),
    };
    let engine = Arc::new(opened.map_err(|e| format!("cannot open engine: {e}"))?);

    if opts.ann {
        match engine.tables().ann() {
            Some(ann) if ann.enabled() => println!(
                "ANN ok recall={:.4} floor={ann_floor:.4} nlists={} nprobe={}",
                ann.build_recall(),
                ann.index().nlists(),
                ann.nprobe()
            ),
            Some(ann) => println!(
                "ANN DISABLED recall={:.4} below floor={ann_floor:.4} (nlists={} nprobe={}) — serving exact",
                ann.build_recall(),
                ann.index().nlists(),
                ann.nprobe()
            ),
            None => println!("ANN DISABLED empty catalog — serving exact"),
        }
    }

    if opts.quant {
        match engine.tables().quant() {
            Some(q) if q.enabled() => println!(
                "QUANT ok drift={:.4} floor={quant_floor:.4} table_bytes={} ivf={}",
                q.build_drift(),
                q.table_bytes(),
                if q.ivf().is_some() { "on" } else { "off" }
            ),
            Some(q) => println!(
                "QUANT DISABLED drift={:.4} below floor={quant_floor:.4} — serving f32",
                q.build_drift(),
            ),
            None => println!("QUANT DISABLED empty catalog — serving f32"),
        }
    }

    let line = parity_check(&engine, &split, opts.parity_users, opts.log_dir.as_deref())
        .map_err(|e| format!("PARITY FAIL: {e}"))?;
    println!("{line}");

    let handle =
        serve(engine.clone(), &opts.addr).map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    let _watcher = spawn_watcher(engine.clone(), Duration::from_millis(opts.watch_ms));
    println!(
        "READY addr={} gen={}",
        handle.addr(),
        engine.stats().generation
    );

    // Serve until killed (the accept loop runs on its own thread).
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(argv: &str) -> Result<Opts, ArgError> {
        parse(Args::new(argv.split_whitespace()))
    }

    #[test]
    fn usage_names_exactly_the_flags_the_parser_takes() {
        args::assert_usage_matches(USAGE, &["ck"], parse);
        // Constants since they lost their last caller, not flags.
        for gone in ["--ann-audit", "--quant-audit"] {
            assert_eq!(
                parse_str(&format!("ck --ann --quant {gone} 64")).err(),
                Some(ArgError::Unknown(gone.into()))
            );
        }
    }

    #[test]
    fn a_zero_watch_period_is_refused_not_spun_on() {
        assert_eq!(
            parse_str("ck --watch-ms 0").err(),
            Some(ArgError::BelowMinimum("--watch-ms"))
        );
        assert_eq!(parse_str("ck --watch-ms 1").unwrap().watch_ms, 1);
        assert_eq!(parse_str("ck").unwrap().watch_ms, 100);
    }

    #[test]
    fn a_tier_flag_without_its_switch_is_a_usage_error() {
        for (argv, flag) in [
            ("ck --ann-nlists 6 --ann-floor 0.95", "--ann-nlists"),
            ("ck --quant --ann-nprobe 2", "--ann-nprobe"),
            ("ck --ann --quant-floor 0.95", "--quant-floor"),
        ] {
            assert!(
                matches!(parse_str(argv).err(), Some(ArgError::Invalid { flag: f, .. }) if f == flag),
                "{argv}"
            );
        }
        let both = parse_str("ck --quant --ann --ann-nlists 6 --ann-nprobe 4").unwrap();
        assert_eq!((both.ann_nlists, both.ann_nprobe), (Some(6), Some(4)));
    }
}
