//! A lightweight wall-clock benchmark harness (the workspace's `criterion`
//! replacement).
//!
//! Each benchmark runs a warmup window followed by `N` timed samples; very
//! fast closures are batched so a sample never measures below timer
//! granularity. Results print as a table and serialize into the
//! `BENCH_*.json` report format `bench_compare` diffs:
//!
//! ```json
//! {
//!   "schema": "graphaug-bench/v1",
//!   "suite": "spmm",
//!   "benches": [
//!     { "name": "spmm/csr_x_dense_d32/small", "iters": 30, "batch": 1,
//!       "min_ns": 1, "median_ns": 2, "p95_ns": 3, "max_ns": 4, "mean_ns": 2 }
//!   ]
//! }
//! ```
//!
//! Environment knobs:
//!
//! * `GRAPHAUG_BENCH_OUT` — write the JSON to this path (default
//!   `BENCH_<suite>.json` in the current directory).
//! * `GRAPHAUG_BENCH_ITERS` — timed samples per benchmark (default 30).
//! * `GRAPHAUG_BENCH_WARMUP_MS` — warmup window per benchmark (default 300).
//! * `GRAPHAUG_BENCH_MAX_MS` — per-benchmark measurement budget (default
//!   2000); sampling stops early once spent.

use std::time::{Duration, Instant};

/// Summary statistics for one benchmark, in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark id (`suite/function/params`).
    pub name: String,
    /// Number of timed samples taken.
    pub iters: usize,
    /// Closure invocations per sample (auto-calibrated for fast closures).
    pub batch: usize,
    /// Fastest sample.
    pub min_ns: u128,
    /// Median sample — the headline number for trajectory comparisons.
    pub median_ns: u128,
    /// 95th-percentile sample (tail noise indicator).
    pub p95_ns: u128,
    /// Slowest sample.
    pub max_ns: u128,
    /// Mean over all samples.
    pub mean_ns: u128,
    /// Optional derived throughput: `(units_per_second, unit_label)`, from
    /// the declared work per iteration and the median sample (e.g.
    /// `GFLOP/s` for matmul, `Medges/s` for SpMM).
    pub throughput: Option<(f64, String)>,
}

/// A benchmark suite accumulating [`BenchResult`]s plus free-form scalar
/// metrics (quality numbers like sampled recall that ride along with the
/// timings).
pub struct Harness {
    suite: String,
    results: Vec<BenchResult>,
    /// `(name, value)` quality metrics; serialized into a separate
    /// `"metrics"` JSON section that the trajectory comparator ignores
    /// (its scanner only picks up objects carrying `median_ns`), so a
    /// recall value can never be misread as a regressed timing.
    metrics: Vec<(String, f64)>,
    warmup: Duration,
    samples: usize,
    max_time: Duration,
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl Harness {
    /// Creates a suite, reading iteration/warmup budgets from the
    /// environment (see module docs).
    pub fn new(suite: &str) -> Self {
        Harness {
            suite: suite.to_string(),
            results: Vec::new(),
            metrics: Vec::new(),
            warmup: Duration::from_millis(env_u64("GRAPHAUG_BENCH_WARMUP_MS", 300)),
            samples: env_u64("GRAPHAUG_BENCH_ITERS", 30) as usize,
            max_time: Duration::from_millis(env_u64("GRAPHAUG_BENCH_MAX_MS", 2000)),
        }
    }

    /// Times `f`: warmup until the warmup window is spent, calibrate a batch
    /// size so one sample is ≥ ~20 µs, then record up to the configured
    /// number of samples within the measurement budget.
    pub fn bench(&mut self, name: &str, f: impl FnMut()) {
        self.bench_inner(name, None, f);
    }

    /// Like [`Harness::bench`], but also records throughput: `work` is the
    /// amount of work one closure call performs (e.g. FLOPs or edges) and
    /// `unit` labels the per-second rate derived from the median sample
    /// (`"GFLOP/s"` ⇒ `work / 1e9 / median_seconds`, `"Medges/s"` ⇒
    /// `work / 1e6 / median_seconds`, anything else ⇒ `work /
    /// median_seconds`).
    pub fn bench_throughput(&mut self, name: &str, work: f64, unit: &str, f: impl FnMut()) {
        self.bench_inner(name, Some((work, unit.to_string())), f);
    }

    fn bench_inner(&mut self, name: &str, work: Option<(f64, String)>, mut f: impl FnMut()) {
        // Warmup (also primes caches/allocator) while estimating cost.
        let warm_start = Instant::now();
        let mut warm_calls = 0u64;
        while warm_start.elapsed() < self.warmup || warm_calls == 0 {
            f();
            warm_calls += 1;
        }
        let est_per_call = warm_start.elapsed().as_nanos() / warm_calls as u128;
        // One sample should dominate timer granularity.
        let batch = (20_000 / est_per_call.max(1)).clamp(1, 1_000_000) as usize;

        let mut samples_ns: Vec<u128> = Vec::with_capacity(self.samples);
        let run_start = Instant::now();
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            samples_ns.push(t.elapsed().as_nanos() / batch as u128);
            if run_start.elapsed() > self.max_time {
                break;
            }
        }
        samples_ns.sort_unstable();
        let n = samples_ns.len();
        let median_ns = samples_ns[n / 2];
        let throughput = work.map(|(w, unit)| {
            let per_sec = w / (median_ns.max(1) as f64 * 1e-9);
            let scaled = match unit.as_str() {
                "GFLOP/s" => per_sec / 1e9,
                "Medges/s" => per_sec / 1e6,
                _ => per_sec,
            };
            (scaled, unit)
        });
        let result = BenchResult {
            name: name.to_string(),
            iters: n,
            batch,
            min_ns: samples_ns[0],
            median_ns,
            p95_ns: samples_ns[(n * 95 / 100).min(n - 1)],
            max_ns: samples_ns[n - 1],
            mean_ns: samples_ns.iter().sum::<u128>() / n as u128,
            throughput,
        };
        let rate = match &result.throughput {
            Some((v, u)) => format!("  {v:>8.2} {u}"),
            None => String::new(),
        };
        println!(
            "{:<40} median {:>12}  p95 {:>12}  ({} samples × {}){}",
            result.name,
            fmt_ns(result.median_ns),
            fmt_ns(result.p95_ns),
            result.iters,
            result.batch,
            rate
        );
        self.results.push(result);
    }

    /// Records a scalar quality metric (e.g. `ann_recall20_100k`). Printed
    /// with the timings and serialized under `"metrics"` — deliberately
    /// *outside* the `"benches"` array, so `bench_compare`'s
    /// `median_ns`-keyed scanner never treats it as a timing.
    pub fn metric(&mut self, name: &str, value: f64) {
        println!("{name:<40} metric {value:>14.6}");
        self.metrics.push((name.to_string(), value));
    }

    /// Renders the suite as `BENCH_*.json` trajectory JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"graphaug-bench/v1\",\n");
        out.push_str(&format!(
            "  \"suite\": {},\n  \"benches\": [\n",
            json_str(&self.suite)
        ));
        for (i, r) in self.results.iter().enumerate() {
            let rate = match &r.throughput {
                Some((v, u)) => {
                    format!(
                        ", \"throughput\": {:.3}, \"throughput_unit\": {}",
                        v,
                        json_str(u)
                    )
                }
                None => String::new(),
            };
            out.push_str(&format!(
                "    {{ \"name\": {}, \"iters\": {}, \"batch\": {}, \"min_ns\": {}, \
                 \"median_ns\": {}, \"p95_ns\": {}, \"max_ns\": {}, \"mean_ns\": {}{} }}{}\n",
                json_str(&r.name),
                r.iters,
                r.batch,
                r.min_ns,
                r.median_ns,
                r.p95_ns,
                r.max_ns,
                r.mean_ns,
                rate,
                if i + 1 == self.results.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]");
        if !self.metrics.is_empty() {
            out.push_str(",\n  \"metrics\": [\n");
            for (i, (name, value)) in self.metrics.iter().enumerate() {
                out.push_str(&format!(
                    "    {{ \"name\": {}, \"value\": {value:.6} }}{}\n",
                    json_str(name),
                    if i + 1 == self.metrics.len() { "" } else { "," }
                ));
            }
            out.push_str("  ]");
        }
        out.push_str("\n}\n");
        out
    }

    /// Writes the JSON report (`GRAPHAUG_BENCH_OUT` or
    /// `BENCH_<suite>.json`) and prints its destination.
    pub fn finish(self) -> Result<(), String> {
        let path = std::env::var("GRAPHAUG_BENCH_OUT")
            .unwrap_or_else(|_| format!("BENCH_{}.json", self.suite));
        std::fs::write(&path, self.to_json())
            .map_err(|e| format!("cannot write bench report {path}: {e}"))?;
        println!("bench report: {path}");
        Ok(())
    }
}

fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A suite with budgets small enough for a unit test, built directly:
    /// tests run on concurrent threads, so none may set the process
    /// environment [`Harness::new`] reads.
    fn tiny() -> Harness {
        Harness {
            suite: "unit".to_string(),
            results: Vec::new(),
            metrics: Vec::new(),
            warmup: Duration::from_millis(1),
            samples: 5,
            max_time: Duration::from_millis(200),
        }
    }

    #[test]
    fn bench_produces_ordered_stats_and_json() {
        let mut h = tiny();
        let mut acc = 0u64;
        h.bench("noop_accumulate", || {
            acc = acc.wrapping_add(std::hint::black_box(1));
        });
        let r = &h.results[0];
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.p95_ns && r.p95_ns <= r.max_ns);
        assert!(r.iters >= 1 && r.batch >= 1);
        let json = h.to_json();
        assert!(json.contains("\"graphaug-bench/v1\""));
        assert!(json.contains("\"noop_accumulate\""));
        assert!(json.contains("\"median_ns\""));
    }

    #[test]
    fn metrics_serialize_outside_the_benches_array() {
        let mut h = Harness::new("unit");
        h.metric("ann_recall20_100k", 0.9731);
        let json = h.to_json();
        assert!(json.contains("\"metrics\""));
        assert!(json.contains("\"ann_recall20_100k\", \"value\": 0.973100"));
        // The comparator's scanner keys on `median_ns` per object; a metric
        // object must never carry it (that would turn recall into a fake
        // timing in cross-PR comparisons).
        let metric_obj = json
            .split('{')
            .find(|o| o.contains("ann_recall20_100k"))
            .unwrap();
        assert!(!metric_obj.contains("median_ns"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn throughput_is_derived_from_median() {
        let mut h = tiny();
        h.bench_throughput("spin", 1_000_000.0, "Medges/s", || {
            std::hint::black_box((0..100).sum::<u64>());
        });
        let r = &h.results[0];
        let (rate, unit) = r.throughput.as_ref().expect("throughput recorded");
        assert_eq!(unit, "Medges/s");
        // 1e6 edges / median_s / 1e6 == 1e9 / median_ns.
        let want = 1e9 / r.median_ns.max(1) as f64;
        assert!((rate - want).abs() < want * 1e-6);
        let json = h.to_json();
        assert!(json.contains("\"throughput\""));
        assert!(json.contains("\"throughput_unit\": \"Medges/s\""));
    }
}
