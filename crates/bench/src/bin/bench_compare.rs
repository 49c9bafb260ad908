//! Diffs two `BENCH_*.json` trajectory files and fails on regression
//! (arguments: [`USAGE`]).
//!
//! Benchmarks present in both files are compared by `median_ns`; any bench
//! whose new median exceeds the baseline by more than the threshold
//! (default 10%) is a regression and makes the process exit non-zero unless
//! `--warn-only` is given. Benches present in only one file are listed but
//! never fail the run, so suites can grow without breaking the gate.

use std::process::ExitCode;

use graphaug_ingest::args;

const USAGE: &str =
    "usage: bench_compare <new.json> <baseline.json> [--threshold <pct>] [--warn-only]";

/// Extracts `(name, median_ns)` pairs from a `graphaug-bench/v1` report
/// with a purpose-built scanner (the workspace has no JSON dependency; the
/// writer in `harness.rs` emits one object per bench).
fn parse_report(text: &str) -> Vec<(String, u128)> {
    let mut out = Vec::new();
    for obj in text.split('{').skip(1) {
        let obj = &obj[..obj.find('}').unwrap_or(obj.len())];
        let name = match extract_str(obj, "\"name\":") {
            Some(n) => n,
            None => continue,
        };
        let median = match extract_num(obj, "\"median_ns\":") {
            Some(m) => m,
            None => continue,
        };
        out.push((name, median));
    }
    out
}

fn extract_str(obj: &str, key: &str) -> Option<String> {
    let rest = &obj[obj.find(key)? + key.len()..];
    let rest = &rest[rest.find('"')? + 1..];
    let mut s = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(s),
            '\\' => s.push(chars.next()?),
            c => s.push(c),
        }
    }
    None
}

fn extract_num(obj: &str, key: &str) -> Option<u128> {
    let rest = obj[obj.find(key)? + key.len()..].trim_start();
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn load(path: &str) -> Vec<(String, u128)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read bench report {path}: {e}"));
    let report = parse_report(&text);
    assert!(!report.is_empty(), "no benchmarks found in {path}");
    report
}

fn main() -> ExitCode {
    args::run("bench_compare", USAGE, |mut args| {
        let new: String = args.positional("<new.json>")?;
        let base: String = args.positional("<baseline.json>")?;
        let threshold_pct: f64 = args.value("--threshold", 10.0)?;
        let warn_only = args.switch("--warn-only")?;
        args.finish()?;
        compare(&load(&new), &load(&base), threshold_pct, warn_only)
    })
}

fn compare(
    new: &[(String, u128)],
    base: &[(String, u128)],
    threshold_pct: f64,
    warn_only: bool,
) -> Result<(), args::Fail> {
    let mut regressions = 0usize;
    println!(
        "{:<42} {:>14} {:>14} {:>9}",
        "benchmark", "baseline", "new", "ratio"
    );
    for (name, new_med) in new {
        match base.iter().find(|(n, _)| n == name) {
            Some((_, base_med)) => {
                let ratio = *new_med as f64 / (*base_med).max(1) as f64;
                let verdict = if ratio > 1.0 + threshold_pct / 100.0 {
                    regressions += 1;
                    "  REGRESSION"
                } else if ratio < 0.9 {
                    "  improved"
                } else {
                    ""
                };
                println!("{name:<42} {base_med:>12}ns {new_med:>12}ns {ratio:>8.2}x{verdict}");
            }
            None => println!("{name:<42} {:>14} {new_med:>12}ns     (new)", "-"),
        }
    }
    for (name, _) in base {
        if !new.iter().any(|(n, _)| n == name) {
            println!("{name:<42} (missing from new report)");
        }
    }

    if regressions > 0 {
        let verdict =
            format!("{regressions} benchmark(s) regressed by more than {threshold_pct}% on median");
        if !warn_only {
            return Err(verdict.into());
        }
        eprintln!("{verdict}\n--warn-only: not failing");
    }
    Ok(())
}
