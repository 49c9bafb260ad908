//! Diffs two `graphaug-bench/v1` reports recorded in one session and fails
//! on regression (arguments: [`USAGE`]).
//!
//! Benchmarks present in both files are compared by `median_ns`; any bench
//! whose new median exceeds the baseline by more than [`THRESHOLD_PCT`] is
//! a regression and fails the run (exit 1), as does a report that cannot be
//! read or holds no benches. Benches present in only one file are listed
//! but never fail the run.

use std::process::ExitCode;

use graphaug_ingest::args::{self, ArgError, Args};

const USAGE: &str = "usage: bench_compare <new.json> <baseline.json>";

/// Median slowdown, in percent, beyond which a shared bench has regressed.
const THRESHOLD_PCT: f64 = 10.0;

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

fn load(path: &str) -> Result<Vec<(String, u128)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read bench report {path}: {e}"))?;
    let report = parse_report(&text);
    if report.is_empty() {
        return Err(format!("no benchmarks found in {path}"));
    }
    Ok(report)
}

fn main() -> ExitCode {
    args::run("bench_compare", USAGE, |args| {
        let (new, base) = parse(args)?;
        compare(&load(&new)?, &load(&base)?)
    })
}

/// `(new, baseline)` report paths.
fn parse(mut args: Args) -> Result<(String, String), ArgError> {
    let paths = (
        args.positional("<new.json>")?,
        args.positional("<baseline.json>")?,
    );
    args.finish()?;
    Ok(paths)
}

fn compare(new: &[(String, u128)], base: &[(String, u128)]) -> Result<(), args::Fail> {
    let mut regressions = 0usize;
    println!(
        "{:<42} {:>14} {:>14} {:>9}",
        "benchmark", "baseline", "new", "ratio"
    );
    for (name, new_med) in new {
        match base.iter().find(|(n, _)| n == name) {
            Some((_, base_med)) => {
                let ratio = *new_med as f64 / (*base_med).max(1) as f64;
                let verdict = if ratio > 1.0 + THRESHOLD_PCT / 100.0 {
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
        return Err(format!(
            "{regressions} benchmark(s) regressed by more than {THRESHOLD_PCT}% on median"
        )
        .into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_exactly_the_flags_the_parser_takes() {
        args::assert_usage_matches(USAGE, &["new.json", "baseline.json"], parse);
    }

    #[test]
    fn an_unreadable_or_empty_report_is_a_run_failure_not_a_panic() {
        let missing = load("/nonexistent/graphaug-bench-report.json").unwrap_err();
        assert!(
            missing.starts_with("cannot read bench report "),
            "{missing}"
        );

        let path = std::env::temp_dir().join(format!(
            "graphaug-bench-compare-empty-{}.json",
            std::process::id()
        ));
        std::fs::write(
            &path,
            "{ \"schema\": \"graphaug-bench/v1\", \"benches\": [] }",
        )
        .expect("write temp report");
        let empty = load(path.to_str().expect("utf-8 temp path")).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(empty.starts_with("no benchmarks found in "), "{empty}");
    }
}
