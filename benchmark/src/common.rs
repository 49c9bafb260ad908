//! What every workload shares: options, the report a run fills in, and
//! the repeated-set-up helper.

use std::path::PathBuf;
use std::time::Instant;

use crate::spec;
use crate::stats;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// How many times set-up is repeated for `setup_s` (median).
    pub setup_repeats: usize,
    /// Scratch state of this invocation; removed on exit.
    pub work_dir: PathBuf,
    /// Where trace files go.
    pub out_dir: PathBuf,
}

/// Operations attempted and failed, metrics, and output checks of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
    checks_failed: usize,
}

impl Report {
    /// Records a metric of `BENCHMARK.json` by name.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::end_to_end(name).is_some() || spec::layer(name).is_some(),
            "metric {name} is not in the spec"
        );
        assert!(
            !self.metrics.iter().any(|(n, _)| *n == name),
            "metric {name} reported twice"
        );
        self.metrics.push((name, value));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// An output check: a failed one makes the run incorrect.
    pub fn check(&mut self, what: &str, ok: bool) {
        if ok {
            println!("  check ok      {what}");
        } else {
            println!("  CHECK FAILED  {what}");
            self.checks_failed += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.checks_failed == 0 && self.failed == 0
    }

    /// `peak_rss_mb`, read once the window and its checks are done.
    pub fn peak_rss(&mut self) {
        match stats::peak_rss_mb() {
            Ok(mb) => self.metric("peak_rss_mb", mb),
            Err(e) => self.check(&format!("peak RSS readable ({e})"), false),
        }
    }
}

/// `op`'s result and how long it took, in seconds.
pub fn timed_s<T>(op: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = op();
    (out, t.elapsed().as_secs_f64())
}

/// `setup_s`: the median of `first_s` — the set-up the window ran on — and
/// `repeats - 1` further set-ups, each in its own numbered scratch
/// directory and torn down at once. One set-up time is too noisy to gate
/// on. The repeats run after the window so that `peak_rss_mb`, read before
/// them, is the peak of one set-up and one window however often set-up is
/// timed (read after three set-ups it spread 5 % on `online_loop`, after
/// one 2 %).
pub fn setup_median<T>(
    first_s: f64,
    repeats: usize,
    mut build: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<f64, String> {
    let mut times = vec![first_s];
    for i in 1..repeats {
        let (built, seconds) = timed_s(|| build(i));
        teardown(built?);
        times.push(seconds);
    }
    Ok(stats::median(&mut times))
}

/// Pins the process to one CPU and the `par` pool to one thread — the
/// serving and online workloads' rule (see [`stats::pin_to_one_cpu`]).
pub fn pin_single_cpu() -> Result<(), String> {
    let cpu = stats::pin_to_one_cpu()?;
    graphaug_par::set_thread_count(1);
    println!("  pinned to CPU {cpu}, GRAPHAUG_THREADS=1");
    Ok(())
}

pub fn print_latency(label: &str, s: &stats::Summary) {
    let pooled = s.pooled_ns.map_or(String::new(), |(p50, tail)| {
        format!("   (pooled {:.2} / {:.2})", p50 / 1e3, tail / 1e3)
    });
    println!(
        "  {label:<28} p50 {:>11.2} us   {} {:>11.2} us   n={}{pooled}",
        s.p50_us(),
        s.tail_label,
        s.tail_us(),
        s.n
    );
}

/// How a traced run decomposes one operation.
pub struct Decomposition<'a> {
    /// What is decomposed, for the printed table.
    pub operation: &'a str,
    /// The operation in the untraced window, reduced as its metric is, in us.
    pub untraced_us: f64,
    /// The operation's outermost traced span (`replay::typical_us`), in us.
    pub outer_us: f64,
    /// `(label, typical self time in us)` along the blocking path.
    pub layers: &'a [(&'a str, f64)],
    /// Requests (or windows, or steps) replayed at every depth.
    pub replayed: usize,
}

/// Closes a traced run: prints how the layers' typical self times add up
/// against the untraced value of the operation they decompose, reports
/// the `trace.*` metrics and writes the span file.
pub fn finish_trace(
    opts: &Opts,
    report: &mut Report,
    trace: &crate::trace::Trace,
    d: &Decomposition,
) -> Result<(), String> {
    let sum: f64 = d.layers.iter().map(|(_, us)| us).sum();
    println!("  layer self times along {}:", d.operation);
    for (label, us) in d.layers {
        println!(
            "    {label:<34} {us:>12.3} us  {:>5.1} %",
            100.0 * us / sum.max(1e-12)
        );
    }
    let gap = (sum - d.untraced_us).abs() / d.untraced_us;
    let verdict = if gap <= 0.15 {
        "ok, within 15 %"
    } else {
        "WARN: outside 15 %"
    };
    println!(
        "    {:<34} {sum:>12.3} us  vs untraced {:.3} us: gap {:.1} % ({verdict})",
        "sum",
        d.untraced_us,
        100.0 * gap
    );
    let overhead = d.outer_us / d.untraced_us - 1.0;
    println!(
        "  trace_overhead_share {overhead:+.4} (traced outer span {:.3} us vs untraced {:.3} us)",
        d.outer_us, d.untraced_us
    );
    report.metric("trace.untraced_p50_us", d.untraced_us);
    report.metric("trace.outer_span_p50_us", d.outer_us);
    report.metric("trace.overhead_share", overhead);
    report.metric("trace.layer_sum_us", sum);
    report.metric("trace.layer_sum_gap_share", gap);
    report.metric("trace.spans", trace.len() as f64);
    report.metric("trace.requests_replayed", d.replayed as f64);
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let path = opts.out_dir.join(format!("trace-{}.json", opts.workload));
    trace
        .write_file(&path, &opts.workload, opts.seed)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  wrote {} spans to {}", trace.len(), path.display());
    Ok(())
}
