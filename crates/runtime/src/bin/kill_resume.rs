//! Child-process kill/resume smoke harness (driven by `ci.sh`).
//!
//! Three modes over a shared deterministic workload:
//!
//! * `kill_resume reference <dir>` — train uninterrupted, print the FINAL
//!   line (bit-exact model fingerprint + ranking metrics).
//! * `kill_resume victim <dir>`    — same run, but checkpoint every epoch,
//!   print `EPOCH k` as each completes, and pause briefly between epochs so
//!   the harness can land a `kill -9` mid-run.
//! * `kill_resume resume <dir>`    — resume from the newest valid checkpoint
//!   in `<dir>`, finish the run, print the FINAL line.
//!
//! The contract under test: `victim` (killed anywhere) followed by `resume`
//! prints a FINAL line byte-identical to `reference` — at any
//! `GRAPHAUG_THREADS` setting.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use graphaug_core::GraphAugConfig;
use graphaug_data::{generate, SyntheticConfig};
use graphaug_eval::{evaluate, Recommender};
use graphaug_graph::TrainTestSplit;
use graphaug_ingest::args::{self, ArgError};
use graphaug_runtime::snapshot::fnv1a64;
use graphaug_runtime::{Runtime, RuntimeConfig};

fn workload() -> TrainTestSplit {
    let graph = generate(&SyntheticConfig::new(150, 120, 2200).clusters(6).seed(42));
    TrainTestSplit::per_user(&graph, 0.2, 7)
}

fn config(dir: &Path) -> RuntimeConfig {
    let model = GraphAugConfig::fast_test()
        .seed(9)
        .epochs(8)
        .steps_per_epoch(4);
    RuntimeConfig::new(model).checkpoint_dir(dir)
}

/// Order-stable 64-bit fingerprint over the exact embedding bit patterns:
/// two models print the same fingerprint iff their embeddings are
/// bit-identical.
fn fingerprint(model: &dyn Recommender) -> u64 {
    let (u, i) = model.embeddings().expect("embedding model");
    let mut bytes = Vec::with_capacity(4 * (u.len() + i.len()));
    for &x in u.as_slice().iter().chain(i.as_slice()) {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

fn print_final(rt: &Runtime, split: &TrainTestSplit) {
    let result = evaluate(rt.model(), split, &[20]);
    println!(
        "FINAL fp={:016x} {} recall20={:.6} ndcg20={:.6} epochs={}",
        fingerprint(rt.model()),
        result.bitline(),
        result.recall(20),
        result.ndcg(20),
        rt.epochs_completed()
    );
}

const USAGE: &str = "usage: kill_resume <reference|victim|resume> <checkpoint-dir>";

fn main() -> ExitCode {
    args::run("kill_resume", USAGE, |mut args| {
        let mode: String = args.positional("<reference|victim|resume>")?;
        let dir: PathBuf = args.positional("<checkpoint-dir>")?;
        args.finish()?;
        let split = workload();
        let cfg = config(&dir);
        let total = cfg.model.epochs as u64;

        match mode.as_str() {
            "reference" => {
                let mut rt = Runtime::new(cfg, &split.train).expect("fresh runtime");
                rt.run().expect("uninterrupted run");
                print_final(&rt, &split);
            }
            "victim" => {
                let mut rt = Runtime::new(cfg, &split.train).expect("fresh runtime");
                while rt.epochs_completed() < total {
                    let next = rt.epochs_completed() + 1;
                    rt.run_until(next).expect("victim epoch");
                    println!("EPOCH {}", rt.epochs_completed());
                    std::io::stdout().flush().ok();
                    // A window for the harness's kill -9 to land between epochs.
                    std::thread::sleep(std::time::Duration::from_millis(60));
                }
                print_final(&rt, &split);
            }
            "resume" => {
                let mut rt = Runtime::resume(cfg, &split.train).expect("resumable checkpoint");
                rt.run().expect("resumed run");
                print_final(&rt, &split);
            }
            other => {
                let reason = format!("unknown mode {other:?}");
                return Err(ArgError::invalid("<reference|victim|resume>", reason).into());
            }
        }
        Ok(())
    })
}
