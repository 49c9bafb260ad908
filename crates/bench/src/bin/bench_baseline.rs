//! Records the perf-trajectory baseline: the spmm, matmul, mixhop_forward,
//! sampling, training-step, top-K evaluation, and augmentor workloads, then
//! the checkpoint, serving, router and ingestion suites, in one process,
//! written as `BENCH_<suite>.json` (`BENCH_pr9.json` and `BENCH_pr10.json`
//! are the recorded pair `ci.sh gates` compares) — run from the repo root:
//! `cargo run --release --offline -p graphaug-bench --bin bench_baseline pr10`.

use std::process::ExitCode;

use graphaug_bench::harness::Harness;
use graphaug_bench::perf;
use graphaug_ingest::args;

const USAGE: &str = "usage: bench_baseline [<suite>]";

fn main() -> ExitCode {
    args::run("bench_baseline", USAGE, |mut args| {
        // Optional suite label (default "seed") so each PR can record its own
        // trajectory point: `bench_baseline pr10` → BENCH_pr10.json.
        let suite = args
            .positional("[<suite>]")
            .unwrap_or_else(|_| "seed".to_string());
        args.finish()?;
        let mut h = Harness::new(&suite);
        perf::spmm(&mut h);
        perf::matmul(&mut h);
        perf::mixhop_forward(&mut h);
        perf::sampling(&mut h);
        perf::autodiff_epoch(&mut h);
        perf::topk_eval(&mut h);
        perf::augmentor(&mut h);
        perf::checkpoint(&mut h);
        perf::serving(&mut h);
        perf::ann(&mut h);
        perf::quant(&mut h);
        perf::router(&mut h);
        perf::ingest(&mut h);
        h.finish();
        Ok(())
    })
}
