//! Running every workload (one child process each, so one workload's
//! pinning, thread budget and peak RSS never leak into the next), the
//! human-readable metric table, and `BENCHMARK.json` itself.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

use crate::common::Report;
use crate::json::Json;
use crate::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::Args;

/// `run_seconds` of `BENCHMARK.json`: with three set-ups per run, the
/// four workloads' whole runs take 20–30 s, so the driver's 4 + 22 × 4
/// runs (~2400 s) and two builds fit its 3420 s with room for slow phases
/// of the box.
pub const RUN_SECONDS: u32 = 20;

pub fn print_metrics(workload: &str, report: &Report, trace: bool) {
    if trace {
        println!("  per-layer metrics (0 = this workload does not exercise the layer):");
        for m in &PER_LAYER {
            if let Some(v) = report.value(m.name) {
                println!("    {:<40} {v:>16.4} {}", m.name, m.unit);
            }
        }
    } else {
        println!(
            "  end-to-end metrics (a timing or rate is the fast decile, over up to {} slices of the window, of each slice's median, tail or rate):",
            crate::stats::MAX_SLICES
        );
        for m in &END_TO_END {
            let alias = spec::alias(workload, m.name);
            let v = report.value(m.name).unwrap_or(0.0);
            println!("    {:<18} {:<22} {v:>16.4} {}", m.name, alias, m.unit);
        }
        println!(
            "    {:<18} {:<22} {:>16.6} fraction",
            "fail_share",
            "(failed / attempted)",
            report.failed as f64 / report.attempted.max(1) as f64
        );
    }
}

/// The text of `BENCHMARK.json`, generated from `spec.rs`.
pub fn benchmark_json() -> String {
    let better = |higher: bool| Json::str(if higher { "higher" } else { "lower" });
    let list = |items: Vec<Json>| {
        let body: Vec<String> = items
            .iter()
            .map(|j| format!("    {}", j.render()))
            .collect();
        format!("[\n{}\n  ]", body.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| Json::obj(vec![("name", Json::str(name)), ("why", Json::str(why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", better(m.higher_is_better)),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", better(m.higher_is_better)),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}",
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

/// Runs one workload in a child process, echoing its output, and returns
/// its result object (the last line it printed).
fn run_child(args: &Args, workload: &str, seconds: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read {workload}: {e}"))?;
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = child.wait().map_err(|e| format!("wait {workload}: {e}"))?;
    Json::parse(&last)
        .map_err(|e| format!("{workload} exited with {status} and no result line: {e}"))
}

/// Every workload, `--runs` times, one child process per run; writes the
/// result file `compare` reads.
pub fn run_all(args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(if args.quick {
        crate::QUICK_SECONDS
    } else {
        RUN_SECONDS as f64
    });
    let out_dir = crate::bench_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join("results.json"));
    let mut runs = Vec::new();
    let mut all_correct = true;
    for run in 0..args.runs {
        for (workload, _) in WORKLOADS {
            if args.runs > 1 {
                println!("--- run {} of {}", run + 1, args.runs);
            }
            let result = run_child(args, workload, seconds)?;
            all_correct &= result.get("correct") == Some(&Json::Bool(true));
            runs.push(Json::obj(vec![
                ("workload", Json::str(workload)),
                ("seed", Json::Num(args.seed as f64)),
                ("seconds", Json::Num(seconds)),
                ("trace", Json::Num(if args.trace { 1.0 } else { 0.0 })),
                ("result", result),
            ]));
        }
    }
    let body: Vec<String> = runs.iter().map(|r| format!("  {}", r.render())).collect();
    let mut file =
        std::fs::File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    write!(file, "{{\"runs\": [\n{}\n]}}\n", body.join(",\n"))
        .map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!(
        "{} run(s) of {} workloads: {}; results in {}",
        args.runs,
        WORKLOADS.len(),
        if all_correct {
            "every output check passed"
        } else {
            "SOME OUTPUT CHECKS FAILED"
        },
        out_path.display()
    );
    Ok(all_correct)
}
