//! Records the perf-trajectory baseline: the spmm, matmul, mixhop_forward,
//! sampling, training-step, top-K evaluation, and augmentor workloads, then
//! the checkpoint, serving, router and ingestion suites, in one process,
//! written as `BENCH_seed.json` so future PRs have a stable comparison
//! point (run from the repo root:
//! `cargo run --release --offline -p graphaug-bench --bin bench_baseline`).

use graphaug_bench::harness::Harness;
use graphaug_bench::perf;

fn main() {
    // Optional suite label (default "seed") so later PRs can record their
    // own trajectory point: `bench_baseline pr2` → BENCH_pr2.json.
    let suite = std::env::args().nth(1).unwrap_or_else(|| "seed".into());
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
}
