//! Records the kernel ledger (arguments: [`USAGE`]): the suites of
//! `perf::SUITES` named on the command line, or all of them, in one
//! process, written as one `graphaug-bench/v1` report to
//! `GRAPHAUG_BENCH_OUT` (default `BENCH_baseline.json` in the current
//! directory). `bench_compare` diffs two recordings made in one session.

use std::process::ExitCode;

use graphaug_bench::harness::Harness;
use graphaug_bench::perf::{Suite, SUITES};
use graphaug_ingest::args::{self, ArgError, Args};

const USAGE: &str = "usage: bench_baseline [<suite>...]";

fn main() -> ExitCode {
    args::run("bench_baseline", USAGE, |args| {
        let suites = parse(args)?;
        let mut h = Harness::new("baseline");
        for (_, run) in suites {
            run(&mut h);
        }
        Ok(h.finish()?)
    })
}

/// The `SUITES` entries named in `args`, in table order; every entry when
/// none is named.
fn parse(mut args: Args) -> Result<Vec<Suite>, ArgError> {
    let mut names = Vec::new();
    while let Ok(name) = args.positional::<String>("[<suite>...]") {
        names.push(name);
    }
    args.finish()?;
    if let Some(bad) = names.iter().find(|n| !SUITES.iter().any(|(s, _)| s == n)) {
        let known: Vec<&str> = SUITES.iter().map(|(s, _)| *s).collect();
        let reason = format!("unknown suite {bad:?} (one of: {})", known.join(" "));
        return Err(ArgError::invalid("<suite>", reason));
    }
    let named = |s: &str| names.is_empty() || names.iter().any(|n| n == s);
    Ok(SUITES.iter().copied().filter(|(s, _)| named(s)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn picked(argv: &[&str]) -> Result<Vec<&'static str>, ArgError> {
        let suites = parse(Args::new(argv.iter().copied()))?;
        Ok(suites.into_iter().map(|(name, _)| name).collect())
    }

    #[test]
    fn suites_are_picked_by_name_from_the_one_table() {
        let all = [
            "spmm",
            "matmul",
            "mixhop_forward",
            "sampling",
            "autodiff_epoch",
            "topk_eval",
            "augmentor",
            "checkpoint",
            "ann",
            "quant",
        ];
        let table: Vec<&str> = SUITES.iter().map(|(name, _)| *name).collect();
        assert_eq!(table, all);
        assert_eq!(picked(&[]).unwrap(), all);
        assert_eq!(picked(&["matmul", "spmm"]).unwrap(), ["spmm", "matmul"]);
        assert!(matches!(
            picked(&["pr10"]),
            Err(ArgError::Invalid {
                flag: "<suite>",
                ..
            })
        ));
        let mut unique = table.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), table.len(), "suite names are unique");
    }

    #[test]
    fn usage_names_exactly_the_flags_the_parser_takes() {
        args::assert_usage_matches(USAGE, &[], parse);
    }
}
