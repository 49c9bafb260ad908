//! `benchmark compare A.json B.json`: one row per workload × end-to-end
//! metric, each metric's own bound applied in its own direction.
//!
//! * `ok` — B's median is not worse than A's by more than the bound;
//! * `worse` — it is;
//! * `unresolved` — either side's run-to-run spread (interquartile range
//!   over median) is wider than the bound, so the files cannot tell.

use crate::json::Json;
use crate::spec::{self, EndToEnd};
use crate::stats::{median, quartiles};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    /// How much worse B is than A, as a share of A's median, in the
    /// metric's own direction (negative = better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// Interquartile range over median; a single run has no spread to show.
fn spread(values: &[f64], med: f64) -> f64 {
    if values.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / med.abs()
}

pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Row {
    let (median_a, median_b) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let (spread_a, spread_b) = (spread(a, median_a), spread(b, median_b));
    let change = (median_b - median_a) / median_a.abs().max(f64::MIN_POSITIVE);
    let worse_by = if metric.higher_is_better {
        -change
    } else {
        change
    };
    let verdict = if spread_a > metric.bound || spread_b > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Row {
        median_a,
        median_b,
        spread_a,
        spread_b,
        worse_by,
        verdict,
    }
}

/// Every untraced value of `metric` on `workload` in a result file.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
        .filter_map(|run| {
            run.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn incorrect_runs(doc: &Json) -> usize {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|run| run.get("result").and_then(|r| r.get("correct")) != Some(&Json::Bool(true)))
        .count()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: benchmark compare A.json B.json".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<14} {:<17} {:<22} {:>13} {:>13} {:>8} {:>8} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "means here",
        "A median",
        "B median",
        "A iqr",
        "B iqr",
        "worse by",
        "bound"
    );
    let mut all_ok = true;
    for (workload, _) in spec::WORKLOADS {
        for metric in &spec::END_TO_END {
            let (va, vb) = (
                values(&a, workload, metric.name),
                values(&b, workload, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{workload:<14} {:<17} missing from {}",
                    metric.name,
                    if va.is_empty() { a_path } else { b_path }
                );
                all_ok = false;
                continue;
            }
            let row = judge(metric, &va, &vb);
            all_ok &= row.verdict == Verdict::Ok;
            println!(
                "{workload:<14} {:<17} {:<22} {:>13.4} {:>13.4} {:>7.2}% {:>7.2}% {:>+8.2}% {:>5.0}%  {}",
                metric.name,
                spec::alias(workload, metric.name),
                row.median_a,
                row.median_b,
                100.0 * row.spread_a,
                100.0 * row.spread_b,
                100.0 * row.worse_by,
                100.0 * metric.bound,
                match row.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    for (path, doc) in [(a_path, &a), (b_path, &b)] {
        let bad = incorrect_runs(doc);
        if bad > 0 {
            println!("{path}: {bad} run(s) failed their output checks");
            all_ok = false;
        }
    }
    println!(
        "{}",
        if all_ok {
            "compare: ok"
        } else {
            "compare: NOT ok"
        }
    );
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: EndToEnd = EndToEnd {
        name: "primary_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.10,
    };
    const RATE: EndToEnd = EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.10,
    };

    #[test]
    fn each_metric_is_judged_in_its_own_direction() {
        // +12 % latency is worse; +12 % throughput is better.
        assert_eq!(judge(&LATENCY, &[100.0], &[112.0]).verdict, Verdict::Worse);
        assert_eq!(judge(&RATE, &[100.0], &[112.0]).verdict, Verdict::Ok);
        assert_eq!(judge(&RATE, &[100.0], &[88.0]).verdict, Verdict::Worse);
        assert_eq!(judge(&LATENCY, &[100.0], &[88.0]).verdict, Verdict::Ok);
        // Inside the bound either way is ok.
        assert_eq!(judge(&LATENCY, &[100.0], &[109.0]).verdict, Verdict::Ok);
        assert_eq!(judge(&RATE, &[100.0], &[91.0]).verdict, Verdict::Ok);
        let row = judge(&RATE, &[100.0], &[88.0]);
        assert!((row.worse_by - 0.12).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        let steady = [99.0, 100.0, 100.0, 100.0, 101.0];
        assert_eq!(
            judge(&LATENCY, &noisy, &steady).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&LATENCY, &steady, &noisy).verdict,
            Verdict::Unresolved
        );
        assert_eq!(judge(&LATENCY, &steady, &steady).verdict, Verdict::Ok);
        // Medians decide, not single runs.
        let shifted = [111.0, 112.0, 112.0, 112.0, 113.0];
        assert_eq!(judge(&LATENCY, &steady, &shifted).verdict, Verdict::Worse);
    }

    #[test]
    fn values_come_from_untraced_runs_of_the_named_workload() {
        let doc = Json::parse(
            r#"{"runs": [
              {"workload": "rec_cold", "trace": 0, "result": {"correct": true, "metrics": {"setup_s": {"value": 2.5, "unit": "s"}}}},
              {"workload": "rec_cold", "trace": 1, "result": {"correct": true, "metrics": {"setup_s": {"value": 9.0, "unit": "s"}}}},
              {"workload": "rec_hot", "trace": 0, "result": {"correct": false, "metrics": {"setup_s": {"value": 3.5, "unit": "s"}}}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(values(&doc, "rec_cold", "setup_s"), [2.5]);
        assert_eq!(values(&doc, "rec_hot", "setup_s"), [3.5]);
        assert!(values(&doc, "rec_cold", "quality").is_empty());
        assert_eq!(incorrect_runs(&doc), 1);
    }
}
