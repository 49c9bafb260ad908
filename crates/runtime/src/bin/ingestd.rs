//! The ingestion + incremental-training daemon driven by `ci.sh` and the
//! README quickstart (arguments: [`USAGE`]).
//!
//! Runs the online-learning loop over the standard demo workload (the same
//! deterministic graph and hyperparameters `serve_main` uses, via
//! [`graphaug_runtime::demo`]):
//!
//! 1. if `<checkpoint-dir>` holds no valid checkpoint, trains the demo
//!    base model there first (checkpoint every epoch);
//! 2. **live mode** (default): opens the interaction log, starts the TCP
//!    `PUT` listener (printing `READY addr=… gen=… watermark=…`), and polls
//!    the log — every complete window of `--window` fresh records triggers
//!    a warm-start fine-tune round of `--round-steps` steps and publishes
//!    a new checkpoint generation (printing a `FINETUNE …` line with the
//!    checkpoint fingerprint), which a `serve_main --log-dir` process
//!    watching the same directory hot-reloads with zero downtime;
//! 3. **`--replay` mode**: no listener — drains every complete window
//!    already in the log back-to-back, prints the same `FINETUNE` lines,
//!    then `REPLAY done …` and exits. Because rounds fire at fixed log
//!    offsets, a replay over a finished log writes checkpoints
//!    byte-identical to the live run that produced the log — at any
//!    `GRAPHAUG_THREADS`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use graphaug_ingest::args::{self, ArgError, Args, Fail};
use graphaug_ingest::{start_ingest, LogWriter};
use graphaug_runtime::{checkpoint, demo, FineTuner, RoundReport, Runtime, RuntimeConfig};

const USAGE: &str = "usage: ingestd <checkpoint-dir> <log-dir> [--addr HOST:PORT] [--window N] \
     [--round-steps N] [--poll-ms N] [--replay]";

/// Records per log segment file before the writer rolls to the next.
const SEGMENT_RECORDS: u64 = 4096;

struct Opts {
    ckpt_dir: PathBuf,
    log_dir: PathBuf,
    addr: String,
    window: u64,
    round_steps: usize,
    poll_ms: u64,
    replay: bool,
}

fn parse(mut args: Args) -> Result<Opts, ArgError> {
    let out = Opts {
        ckpt_dir: args.positional("<checkpoint-dir>")?,
        log_dir: args.positional("<log-dir>")?,
        addr: args.value("--addr", "127.0.0.1:0".into())?,
        window: args.at_least("--window", 32)?,
        round_steps: args.at_least("--round-steps", 4)?,
        // The idle loop sleeps this long between polls of the log: zero spins.
        poll_ms: args.at_least("--poll-ms", 20)?,
        replay: args.switch("--replay")?,
    };
    args.finish()?;
    Ok(out)
}

/// `FINETUNE` line for one round: everything a smoke needs to compare a
/// live run against a replay (`ckpt_fnv` is the frame checksum of the
/// newest checkpoint — byte-identity of generations in one hex token).
fn finetune_line(dir: &Path, report: &RoundReport) -> String {
    let (gen_str, fnv) = match checkpoint::load_latest_valid_with_fingerprint(dir) {
        Some((generation, _, fingerprint)) => (generation.to_string(), fingerprint),
        None => ("-".into(), 0),
    };
    format!(
        "FINETUNE round={} gen={gen_str} watermark={} applied={} dups={} steps={} loss={:.6} ckpt_fnv={fnv:016x}",
        report.round, report.watermark, report.applied, report.duplicates, report.steps,
        report.mean_loss,
    )
}

fn main() -> ExitCode {
    args::run("ingestd", USAGE, |args| ingest_demo(parse(args)?))
}

fn ingest_demo(opts: Opts) -> Result<(), Fail> {
    let split = demo::demo_split();
    let (ckpt_dir, log_dir) = (opts.ckpt_dir.as_path(), opts.log_dir.as_path());

    // Train the demo base model if the directory is empty — with the
    // *base* hyperparameters, so the checkpoint chain starts exactly like
    // `serve_main`'s.
    if checkpoint::load_latest_valid(ckpt_dir).is_none() {
        println!(
            "no valid checkpoint under {} — training demo base model",
            ckpt_dir.display()
        );
        let base_cfg = RuntimeConfig::new(demo::demo_config()).checkpoint_dir(ckpt_dir);
        let r = Runtime::new(base_cfg, &split.train)
            .and_then(|mut rt| rt.run())
            .map_err(|e| format!("base training failed: {e}"))?;
        println!(
            "trained base model: {} epochs, {} checkpoints",
            r.epochs_completed, r.checkpoints_written
        );
    }

    // Fine-tune rounds run `--round-steps` steps each: same model config,
    // different steps_per_epoch. Replay must use the same value.
    let tune_cfg = RuntimeConfig::new(demo::demo_config().steps_per_epoch(opts.round_steps))
        .checkpoint_dir(ckpt_dir);
    let mut tuner = FineTuner::open(tune_cfg, &split.train, log_dir, opts.window)
        .map_err(|e| format!("cannot open fine-tuner: {e}"))?;

    if opts.replay {
        // Drain round by round (rather than `run_pending`) so each
        // `FINETUNE` line carries *that round's* generation and
        // fingerprint — byte-comparable against a live run's log.
        let mut rounds = 0usize;
        while let Some(report) = tuner
            .poll_once()
            .map_err(|e| format!("replay failed: {e}"))?
        {
            println!("{}", finetune_line(ckpt_dir, &report));
            rounds += 1;
        }
        let fnv = checkpoint::load_latest_valid_with_fingerprint(ckpt_dir)
            .map(|(_, _, fingerprint)| fingerprint)
            .unwrap_or(0);
        println!(
            "REPLAY done rounds={rounds} watermark={} finetunes={} ckpt_fnv={fnv:016x}",
            tuner.watermark(),
            tuner.finetunes(),
        );
        return Ok(());
    }

    // Live mode: PUT listener + polling loop.
    let log = LogWriter::open(log_dir, SEGMENT_RECORDS)
        .map_err(|e| format!("cannot open log {}: {e}", log_dir.display()))?;
    let handle = start_ingest(
        Arc::new(Mutex::new(log)),
        split.train.n_users(),
        split.train.n_items(),
        &opts.addr,
    )
    .map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    let generation = checkpoint::newest_generation(ckpt_dir).unwrap_or(0);
    println!(
        "READY addr={} gen={generation} watermark={}",
        handle.addr(),
        tuner.watermark()
    );

    loop {
        match tuner
            .poll_once()
            .map_err(|e| format!("fine-tune round failed: {e}"))?
        {
            Some(report) => println!("{}", finetune_line(ckpt_dir, &report)),
            None => std::thread::sleep(Duration::from_millis(opts.poll_ms)),
        }
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
        args::assert_usage_matches(USAGE, &["ck", "log"], parse);
        // A constant since it lost its last caller, not a flag.
        assert_eq!(
            parse_str("ck log --segment-records 64").err(),
            Some(ArgError::Unknown("--segment-records".into()))
        );
    }

    #[test]
    fn a_zero_poll_period_is_refused_not_spun_on() {
        assert_eq!(
            parse_str("ck log --poll-ms 0").err(),
            Some(ArgError::BelowMinimum("--poll-ms"))
        );
        for flag in ["--window", "--round-steps"] {
            assert_eq!(
                parse_str(&format!("ck log {flag} 0")).err(),
                Some(ArgError::BelowMinimum(flag))
            );
        }
        let ok = parse_str("ck log --replay --poll-ms 10 --window 64").unwrap();
        assert_eq!((ok.window, ok.round_steps, ok.poll_ms), (64, 4, 10));
        assert!(ok.replay);
        assert_eq!(parse_str("ck").err(), Some(ArgError::Missing("<log-dir>")));
    }
}
