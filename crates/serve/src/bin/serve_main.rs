//! The serving demo binary driven by `ci.sh` and the README quickstart.
//!
//! ```text
//! serve_main <checkpoint-dir> [--addr HOST:PORT] [--watch-ms N] [--parity-users N]
//!            [--ann] [--ann-nlists N] [--ann-nprobe N] [--ann-floor F] [--ann-audit N]
//!            [--quant] [--quant-floor F] [--quant-audit N] [--log-dir PATH]
//! ```
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
//!    training-restore path) must match the served lists hex-exactly, and
//!    the `EvalResult::bitline()`s of both sides must be byte-identical —
//!    printed as `PARITY ok …`;
//! 4. starts the TCP server (printing `READY addr=… gen=…`) with a hot
//!    reload watcher, then serves until killed.
//!
//! `--addr 127.0.0.1:0` (the default) binds an ephemeral loopback port so
//! smoke tests can run concurrently. An `--ann-*` / `--quant-*` flag
//! without its `--ann` / `--quant` switch is a usage error (exit 2).
//!
//! `--log-dir PATH` attaches the interaction log an `ingestd` process
//! appends to: checkpoints fine-tuned past the base graph (nonzero
//! watermark) are then resolved by replaying the log, so the watcher
//! hot-reloads the online-learning loop's generations with zero downtime.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use graphaug_core::GraphAug;
use graphaug_eval::{evaluate, topk_indices, Recommender};
use graphaug_graph::{InteractionGraph, TrainTestSplit};
use graphaug_runtime::{checkpoint, demo_config, demo_split, Runtime, RuntimeConfig};
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

fn parity_check(engine: &Engine, split: &TrainTestSplit, users: usize) -> Result<String, String> {
    let source = engine.source();
    let dir = &source.checkpoint_dir;
    let (generation, state) = checkpoint::load_latest_valid(dir)
        .ok_or_else(|| format!("no valid checkpoint under {}", dir.display()))?;
    // Independent offline path: training-style construct + restore, over
    // the same watermark-resolved graph the serving tables were built on
    // (base graph plus a fresh replay of the interaction log).
    let graph = source
        .graph_at(state.log_offset)
        .map_err(|e| format!("offline graph resolution failed: {e}"))?;
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

struct Args {
    dir: String,
    addr: String,
    watch_ms: u64,
    parity_users: usize,
    ann: bool,
    ann_nlists: usize,
    ann_nprobe: usize,
    ann_floor: f64,
    ann_audit: u64,
    quant: bool,
    quant_floor: f64,
    quant_audit: u64,
    log_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let dir = args.next().ok_or("missing <checkpoint-dir>")?;
    let mut out = Args {
        dir,
        addr: "127.0.0.1:0".into(),
        watch_ms: 100,
        parity_users: 16,
        ann: false,
        ann_nlists: 0,
        ann_nprobe: 0,
        ann_floor: 0.9,
        ann_audit: 64,
        quant: false,
        quant_floor: 0.9,
        quant_audit: 64,
        log_dir: None,
    };
    // The first `--ann-*` / `--quant-*` flag seen: each only means something
    // beside its tier's switch, so alone it is rejected, not dropped.
    let (mut ann_flag, mut quant_flag) = (None, None);
    while let Some(flag) = args.next() {
        if flag.starts_with("--ann-") {
            ann_flag.get_or_insert(flag.clone());
        } else if flag.starts_with("--quant-") {
            quant_flag.get_or_insert(flag.clone());
        }
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => out.addr = value("--addr")?,
            "--watch-ms" => {
                out.watch_ms = value("--watch-ms")?
                    .parse()
                    .map_err(|_| "bad --watch-ms".to_string())?
            }
            "--parity-users" => {
                out.parity_users = value("--parity-users")?
                    .parse()
                    .map_err(|_| "bad --parity-users".to_string())?
            }
            "--ann" => out.ann = true,
            "--ann-nlists" => {
                out.ann_nlists = value("--ann-nlists")?
                    .parse()
                    .map_err(|_| "bad --ann-nlists".to_string())?
            }
            "--ann-nprobe" => {
                out.ann_nprobe = value("--ann-nprobe")?
                    .parse()
                    .map_err(|_| "bad --ann-nprobe".to_string())?
            }
            "--ann-floor" => {
                out.ann_floor = value("--ann-floor")?
                    .parse()
                    .map_err(|_| "bad --ann-floor".to_string())?
            }
            "--ann-audit" => {
                out.ann_audit = value("--ann-audit")?
                    .parse()
                    .map_err(|_| "bad --ann-audit".to_string())?
            }
            "--quant" => out.quant = true,
            "--quant-floor" => {
                out.quant_floor = value("--quant-floor")?
                    .parse()
                    .map_err(|_| "bad --quant-floor".to_string())?
            }
            "--quant-audit" => {
                out.quant_audit = value("--quant-audit")?
                    .parse()
                    .map_err(|_| "bad --quant-audit".to_string())?
            }
            "--log-dir" => out.log_dir = Some(value("--log-dir")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    match (
        ann_flag.filter(|_| !out.ann),
        quant_flag.filter(|_| !out.quant),
    ) {
        (Some(flag), _) => Err(format!("{flag} needs --ann")),
        (_, Some(flag)) => Err(format!("{flag} needs --quant")),
        _ => Ok(out),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve_main: {e}");
            eprintln!(
                "usage: serve_main <checkpoint-dir> [--addr HOST:PORT] [--watch-ms N] [--parity-users N] \
                 [--ann] [--ann-nlists N] [--ann-nprobe N] [--ann-floor F] [--ann-audit N] \
                 [--quant] [--quant-floor F] [--quant-audit N] [--log-dir PATH]"
            );
            return ExitCode::from(2);
        }
    };

    let split = demo_split();
    let cfg = demo_config();
    let dir = Path::new(&args.dir);

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
            let mut rt = match Runtime::new(rt_cfg, &split.train) {
                Ok(rt) => rt,
                Err(e) => {
                    eprintln!("serve_main: training setup failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match rt.run() {
                Ok(report) => println!(
                    "trained {} epochs, {} checkpoints written",
                    report.epochs_completed, report.checkpoints_written
                ),
                Err(e) => {
                    eprintln!("serve_main: training failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let mut source = ModelSource::new(cfg, split.train.clone(), dir);
    if args.ann {
        let mut params = IvfParams::new()
            .recall_floor(args.ann_floor)
            .audit_every(args.ann_audit);
        if args.ann_nlists > 0 {
            params = params.nlists(args.ann_nlists);
        }
        if args.ann_nprobe > 0 {
            params = params.nprobe(args.ann_nprobe);
        }
        source = source.ann(params);
    }
    if args.quant {
        source = source.quant(
            QuantParams::new()
                .drift_floor(args.quant_floor)
                .audit_every(args.quant_audit),
        );
    }
    if let Some(log_dir) = &args.log_dir {
        source = source.log_dir(Path::new(log_dir));
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
    let engine = match opened {
        Ok(e) => Arc::new(e),
        Err(e) => {
            eprintln!("serve_main: cannot open engine: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.ann {
        match engine.tables().ann() {
            Some(ann) if ann.enabled() => println!(
                "ANN ok recall={:.4} floor={:.4} nlists={} nprobe={}",
                ann.build_recall(),
                args.ann_floor,
                ann.index().nlists(),
                ann.nprobe()
            ),
            Some(ann) => println!(
                "ANN DISABLED recall={:.4} below floor={:.4} (nlists={} nprobe={}) — serving exact",
                ann.build_recall(),
                args.ann_floor,
                ann.index().nlists(),
                ann.nprobe()
            ),
            None => println!("ANN DISABLED empty catalog — serving exact"),
        }
    }

    if args.quant {
        match engine.tables().quant() {
            Some(q) if q.enabled() => println!(
                "QUANT ok drift={:.4} floor={:.4} table_bytes={} ivf={}",
                q.build_drift(),
                args.quant_floor,
                q.table_bytes(),
                if q.ivf().is_some() { "on" } else { "off" }
            ),
            Some(q) => println!(
                "QUANT DISABLED drift={:.4} below floor={:.4} — serving f32",
                q.build_drift(),
                args.quant_floor
            ),
            None => println!("QUANT DISABLED empty catalog — serving f32"),
        }
    }

    match parity_check(&engine, &split, args.parity_users) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("PARITY FAIL: {e}");
            return ExitCode::FAILURE;
        }
    }

    let handle = match serve(engine.clone(), &args.addr) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve_main: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let _watcher = spawn_watcher(engine.clone(), Duration::from_millis(args.watch_ms));
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
