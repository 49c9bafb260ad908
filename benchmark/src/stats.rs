//! Latency summaries, quartiles and the process-level measurements
//! (peak RSS, CPU pinning) every workload shares.

/// The percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [(f64, &str); 5] = [
    (0.75, "p75"),
    (0.90, "p90"),
    (0.99, "p99"),
    (0.999, "p99.9"),
    (0.9999, "p99.99"),
];

/// How many samples must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The most slices [`Summary::sliced`] cuts a run into.
pub const MAX_SLICES: usize = 20;

/// `cap` for a population of which only the median is reported.
pub const MEDIAN_ONLY: f64 = 0.5;

/// The fewest samples a slice's median is taken of.
const MIN_FOR_MEDIAN: usize = 5;

/// Nearest-rank index of percentile `p` in `n` ascending samples.
fn rank(n: usize, p: f64) -> usize {
    ((n as f64 * p).ceil() as usize).clamp(1, n) - 1
}

/// The percentile rule: the highest percentile of the ladder, not above
/// `cap`, that has at least [`MIN_BEYOND`] samples beyond it. `None` when
/// even p75 is not supported (fewer than 40 samples).
pub fn tail_percentile(n: usize, cap: f64) -> Option<(f64, &'static str)> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&(p, _)| p <= cap && n > 0 && n - 1 - rank(n, p) >= MIN_BEYOND)
        .copied()
}

/// The fewest samples that support the ladder's highest percentile not
/// above `cap`.
fn min_samples(cap: f64) -> usize {
    let Some(&(p, _)) = TAIL_LADDER.iter().rev().find(|&&(p, _)| p <= cap) else {
        return MIN_FOR_MEDIAN;
    };
    (1..)
        .find(|&n| tail_percentile(n, cap).is_some_and(|(q, _)| q == p))
        .expect("enough samples support any percentile below 1")
}

/// Median and rule-chosen tail of one latency population, in ns.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50_ns: f64,
    pub tail_ns: f64,
    pub tail_label: &'static str,
    /// Median and tail of all samples pooled, when `p50_ns` and `tail_ns`
    /// are the fast decile of slices: printed beside them, never gated.
    pub pooled_ns: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples` (sorted in place). `cap` is the percentile the
    /// workload's tail metric is defined at: fixed per workload so the
    /// metric means the same on every commit, and lowered by the rule
    /// only when a short run has too few samples for it (down to the
    /// maximum below 100 samples).
    pub fn of(samples: &mut [u32], cap: f64) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let n = samples.len();
        let (tail_ns, tail_label) = match tail_percentile(n, cap) {
            Some((p, label)) => (samples[rank(n, p)] as f64, label),
            None => (samples[n - 1] as f64, "max"),
        };
        Some(Summary {
            n,
            p50_ns: samples[rank(n, 0.5)] as f64,
            tail_ns,
            tail_label,
            pooled_ns: None,
        })
    }

    /// Summarises time-ordered `samples` slice by slice: up to
    /// [`MAX_SLICES`] consecutive equal-count slices, each large enough to
    /// support the percentile at `cap`, are summarised on their own, and
    /// the reported median and tail are the [`fast_decile`] of the
    /// slices' medians and tails.
    ///
    /// Why not one pooled summary: the box this runs on slows down by
    /// 30–50 % for anything from two seconds to a whole run at a time (a
    /// pinned spin loop shows it, with no steal reported — a busy sibling
    /// hyperthread on the host, by the look of it). That is one-sided —
    /// it never speeds the program up — so the fast decile of the slices
    /// reads the program as long as a tenth of the run was left alone,
    /// where a pooled p90 reads the burst and a median slice needs half
    /// the run quiet. (Over 15 s windows of a spin loop's 0.5 s readings in
    /// a bad half hour, the median reading spread 18 %, the fast quartile
    /// 13 %, the fast decile 7 %; the single fastest reading is no steadier
    /// and is one fluke away from wrong.)
    pub fn sliced(samples: &mut [u32], cap: f64) -> Option<Summary> {
        let n = samples.len();
        let slices = (n / min_samples(cap)).clamp(1, MAX_SLICES);
        let parts = (0..slices)
            .filter_map(|i| Summary::of(&mut samples[i * n / slices..(i + 1) * n / slices], cap))
            .collect();
        Summary::fast_decile_of(parts, samples, cap)
    }

    /// Like [`Summary::sliced`] with slices of exactly `len` consecutive
    /// samples, for a workload whose samples come in periods (one
    /// fine-tune window) that a slice must not cut.
    pub fn chunked(samples: &mut [u32], len: usize, cap: f64) -> Option<Summary> {
        let parts = samples
            .chunks_exact_mut(len)
            .filter_map(|chunk| Summary::of(chunk, cap))
            .collect();
        Summary::fast_decile_of(parts, samples, cap)
    }

    /// Like [`Summary::sliced`] for a workload that comes in slices already
    /// (sub-phases that alternate with others).
    pub fn over(slices: &mut [Vec<u32>], cap: f64) -> Option<Summary> {
        let parts = slices
            .iter_mut()
            .filter_map(|slice| Summary::of(slice, cap))
            .collect();
        Summary::fast_decile_of(parts, &mut slices.concat(), cap)
    }

    fn fast_decile_of(parts: Vec<Summary>, samples: &mut [u32], cap: f64) -> Option<Summary> {
        let tail_label = parts.first()?.tail_label;
        let pooled = Summary::of(samples, cap)?;
        let of =
            |f: fn(&Summary) -> f64| fast_decile(&parts.iter().map(f).collect::<Vec<_>>(), false);
        Some(Summary {
            n: parts.iter().map(|s| s.n).sum(),
            p50_ns: of(|s| s.p50_ns),
            tail_ns: of(|s| s.tail_ns),
            tail_label,
            pooled_ns: Some((pooled.p50_ns, pooled.tail_ns)),
        })
    }

    pub fn p50_us(&self) -> f64 {
        self.p50_ns / 1e3
    }

    pub fn tail_us(&self) -> f64 {
        self.tail_ns / 1e3
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The decile of `values` on the fast side, by nearest rank (one of the
/// values, never a blend of a fast and a slow one): a tenth of them are at
/// least as fast — the second fastest of twenty, the fastest of up to ten.
/// The first decile for timings, the ninth when higher is better.
pub fn fast_decile(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "decile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    v[rank(v.len(), 0.10)]
}

/// Operations per second as the [`fast_decile`] of the rates over the
/// stretches between consecutive `marks` — cumulative `(seconds since the
/// window began, operations completed)`. `None` with fewer than two marks.
pub fn fast_rate(marks: &[(f64, u64)]) -> Option<f64> {
    let rates: Vec<f64> = marks
        .windows(2)
        .filter(|w| w[1].0 > w[0].0)
        .map(|w| (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0))
        .collect();
    (!rates.is_empty()).then(|| fast_decile(&rates, true))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method) — the spread the acceptance
/// procedure uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Saturating ns → u32, the per-sample storage type (4.29 s ceiling; no
/// operation of any workload comes near it).
pub fn ns32(d: std::time::Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Peak resident set of this process in MB (`VmHWM`), or an error when
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// CPUs available to the process when it started — read once, before any
/// workload pins itself, since pinning shrinks what the OS reports.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins this thread — and every thread it spawns afterwards — to the
/// highest CPU the process is allowed on, and returns that CPU. The
/// serving and online workloads run pinned because an unpinned
/// single-connection loop flips between two latency modes from run to run
/// (14 µs ↔ 107 µs routed `REC` p50 on the 2-vCPU box) depending on where
/// the scheduler happens to place client and server threads.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    const WORDS: usize = 16; // 1024 CPUs
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte size
    // passed; pid 0 means the calling thread.
    let rc = unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) };
    if rc != 0 {
        return Err("sched_getaffinity failed; cannot pin the workload to one CPU".into());
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte size passed and
    // names a CPU the kernel just reported as allowed.
    let rc = unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        // 99 samples: p90 has rank 89 → 9 beyond; p75 is the rung below.
        assert_eq!(tail_percentile(99, 1.0).unwrap().1, "p75");
        // 39 samples: p75 has rank 29 → 9 beyond: nothing qualifies.
        assert_eq!(tail_percentile(39, 1.0), None);
        assert_eq!(tail_percentile(40, 1.0).unwrap().1, "p75");
        // 101 samples: p90 → rank 90 (0-based), 10 beyond.
        assert_eq!(tail_percentile(101, 1.0).unwrap().1, "p90");
        // 1000 samples: p99 → rank 989, 10 beyond; p99.9 → 0 beyond.
        assert_eq!(tail_percentile(1000, 1.0).unwrap().1, "p99");
        assert_eq!(tail_percentile(999, 1.0).unwrap().1, "p90");
        assert_eq!(tail_percentile(10_000, 1.0).unwrap().1, "p99.9");
        assert_eq!(tail_percentile(200_000, 1.0).unwrap().1, "p99.99");
        // The cap keeps a gated metric on the percentile it is named for.
        assert_eq!(tail_percentile(200_000, 0.99).unwrap().1, "p99");
        assert_eq!(tail_percentile(0, 1.0), None);
    }

    #[test]
    fn summary_reads_median_and_tail_off_sorted_samples() {
        let mut v: Vec<u32> = (1..=1000).rev().collect();
        let s = Summary::of(&mut v, 0.99).unwrap();
        assert_eq!(
            (s.n, s.p50_ns, s.tail_ns, s.tail_label),
            (1000, 500.0, 990.0, "p99")
        );
        let mut few = vec![5u32, 1, 3];
        let s = Summary::of(&mut few, 0.99).unwrap();
        assert_eq!((s.p50_ns, s.tail_ns, s.tail_label), (3.0, 5.0, "max"));
        assert!(Summary::of(&mut [], 0.99).is_none());
        let mut v: Vec<u32> = (1..=1000).collect();
        assert_eq!(Summary::of(&mut v, 0.90).unwrap().tail_label, "p90");
    }

    #[test]
    fn a_slow_phase_moves_the_pooled_summary_but_not_the_fast_decile_of_slices() {
        // 4000 samples at 100 ns with every 5th at 900 ns (the p90
        // mechanism); from sample 1200 on the box ran ten times slower.
        let mut v: Vec<u32> = (0..4000)
            .map(|i| if i % 5 == 0 { 900 } else { 100 } * if i >= 1200 { 10 } else { 1 })
            .collect();
        let pooled = Summary::of(&mut v.clone(), 0.90).unwrap();
        assert_eq!((pooled.p50_ns, pooled.tail_ns), (1000.0, 9000.0));
        // Twenty slices of 200; only the first six were left alone.
        let s = Summary::sliced(&mut v, 0.90).unwrap();
        assert_eq!(
            (s.n, s.p50_ns, s.tail_ns, s.tail_label),
            (4000, 100.0, 900.0, "p90")
        );
        // Too few samples for one supported slice: the pooled summary.
        let mut few: Vec<u32> = (1..=35).collect();
        let s = Summary::sliced(&mut few, 0.90).unwrap();
        assert_eq!((s.p50_ns, s.tail_ns, s.tail_label), (18.0, 35.0, "max"));
        assert!(Summary::sliced(&mut [], 0.9).is_none());
        // Median only: slices of five. 20 samples, the last 15 slow.
        let mut evals = vec![
            10, 11, 12, 11, 10, 30, 31, 30, 32, 30, 31, 30, 30, 33, 30, 31, 30, 30, 32, 30,
        ];
        assert_eq!(
            Summary::sliced(&mut evals, MEDIAN_ONLY).unwrap().p50_ns,
            11.0
        );
        // Whole periods only: 250 samples in chunks of 100 are two chunks.
        let mut periods: Vec<u32> = (0..250).map(|i| i % 100).collect();
        let s = Summary::chunked(&mut periods, 100, 0.90).unwrap();
        assert_eq!((s.n, s.p50_ns, s.tail_label), (200, 49.0, "p90"));
        // Never more than MAX_SLICES, never a slice below the rule.
        assert_eq!(
            (
                min_samples(0.90),
                min_samples(0.99),
                min_samples(MEDIAN_ONLY)
            ),
            (100, 1000, 5)
        );
        let mut many: Vec<u32> = (0..100_000).map(|i| i % 1000).collect();
        assert_eq!(Summary::sliced(&mut many, 0.90).unwrap().p50_ns, 499.0);
    }

    #[test]
    fn fast_rate_reads_the_undisturbed_stretches() {
        // 1000 ops per 0.1 s; three of seven stretches took twice as long.
        let times = [0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0];
        let marks: Vec<(f64, u64)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, 1000 * i as u64))
            .collect();
        let rate = fast_rate(&marks).unwrap();
        assert!((rate - 10_000.0).abs() < 1e-6, "{rate}");
        assert_eq!(fast_rate(&marks[..1]), None);
        assert_eq!(fast_decile(&[7.0], false), 7.0);
        assert_eq!(fast_decile(&[1.0, 2.0, 3.0], false), 1.0);
        assert_eq!(fast_decile(&[1.0, 2.0, 3.0], true), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn peak_rss_is_readable_and_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
