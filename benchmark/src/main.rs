//! The repository's end-to-end benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's contract)
//! benchmark [--seed N] [--seconds S] [--traced] [--quick] [--runs R] [--out FILE]
//!                                                            every workload, one child process each
//! benchmark compare A.json B.json                            apply each metric's bound
//! benchmark spec                                             print BENCHMARK.json
//! ```

mod common;
mod compare;
mod gen;
mod json;
mod online_loop;
mod pace;
mod rec_cold;
mod rec_hot;
mod replay;
mod serving;
mod spec;
mod stats;
mod suite;
mod trace;
mod train_gowalla;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Opts, Report};
use json::Json;

/// Seconds a `--quick` run measures per workload: every check runs, the
/// timings are too short to gate on.
const QUICK_SECONDS: f64 = 2.0;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub quick: bool,
    pub runs: usize,
    pub out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !spec::is_workload(w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                out.workload = Some(w.clone());
            }
            "--seed" => out.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds wants 1..=600".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            "--traced" => out.trace = true,
            "--quick" => out.quick = true,
            "--runs" => {
                out.runs = value()?
                    .parse()
                    .ok()
                    .filter(|&r| r >= 1)
                    .ok_or("bad --runs")?;
            }
            "--out" => out.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// The benchmark's own directory: `run.sh` exports it; a bare binary run
/// from the repository root finds it at `benchmark/`.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("GRAPHAUG_BENCHMARK_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

/// Removes the per-invocation scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The result object of the run contract.
fn result_json(report: &Report, trace: bool) -> Json {
    let entry = |name: &str, unit: &str| {
        let value = report.value(name).unwrap_or(0.0);
        (
            name.to_string(),
            Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    };
    let metrics = if trace {
        spec::PER_LAYER
            .iter()
            .map(|m| entry(m.name, m.unit))
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| entry(m.name, m.unit))
            .collect()
    };
    Json::obj(vec![
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn run_one(args: &Args, workload: &str) -> Result<bool, String> {
    let out_dir = bench_dir().join("out");
    let work = WorkDir(out_dir.join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;
    let opts = Opts {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick {
            QUICK_SECONDS
        } else {
            suite::RUN_SECONDS as f64
        }),
        trace: args.trace,
        setup_repeats: if args.quick { 1 } else { 3 },
        work_dir: work.0.clone(),
        out_dir,
    };
    println!(
        "{workload} seed={} seconds={} {} ({} CPUs available)",
        opts.seed,
        opts.seconds,
        if opts.trace { "traced" } else { "untraced" },
        stats::nproc()
    );
    let mut report = Report::default();
    match (workload, opts.trace) {
        ("rec_cold", false) => rec_cold::run(&opts, &mut report),
        ("rec_cold", true) => rec_cold::run_traced(&opts, &mut report),
        ("rec_hot", false) => rec_hot::run(&opts, &mut report),
        ("rec_hot", true) => rec_hot::run_traced(&opts, &mut report),
        ("online_loop", false) => online_loop::run(&opts, &mut report),
        ("online_loop", true) => online_loop::run_traced(&opts, &mut report),
        ("train_gowalla", false) => train_gowalla::run(&opts, &mut report),
        ("train_gowalla", true) => train_gowalla::run_traced(&opts, &mut report),
        _ => unreachable!("workload names are validated"),
    }?;
    report.check(
        &format!(
            "no operation failed ({} of {})",
            report.failed, report.attempted
        ),
        report.failed == 0,
    );
    suite::print_metrics(workload, &report, opts.trace);
    drop(work);
    println!("{}", result_json(&report, opts.trace).render());
    Ok(report.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => compare::main(&argv[1..]),
        Some("spec") => {
            println!("{}", suite::benchmark_json());
            Ok(true)
        }
        _ => parse_args(&argv).and_then(|args| match args.workload.clone() {
            Some(w) => run_one(&args, &w),
            None => suite::run_all(&args),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
