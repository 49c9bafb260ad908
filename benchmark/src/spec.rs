//! The names, units, directions and bounds of every metric — the Rust
//! side of `BENCHMARK.json` (a unit test keeps the two identical).
//!
//! The run contract wants every workload to report every end-to-end
//! metric, so the end-to-end metrics are *slots* that each workload fills
//! with its own client-observed quantity; [`SLOTS`] records what each slot
//! means per workload, under the name ISSUE 11 and the README use for it.

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "rec_cold",
        "one pinned closed-loop connection to serve::serve; uniform users and k miss the response cache, so quant/ANN/exact scoring and the self-audit dominate",
    ),
    (
        "rec_hot",
        "pinned closed-loop REC through router::start to 2x2 replicas, then straight to one; a zipf hot set hits the cache, so socket, proto, LRU and relay are the whole cost; then 64-user lines 1 in 8",
    ),
    (
        "online_loop",
        "paced open-loop PUTs and a 5 ms REC probe beside a polled FineTuner and a watched engine, then closed-loop PUTs: apply, fine-tune, publish and reload on the path to freshness",
    ),
    (
        "train_gowalla",
        "Runtime trains GraphAug on the Gowalla preset for a frozen step count, pinned, evaluating at K=20 as it goes: tensor, sparse, augmentor, mixhop and the sampler do the work; serving does nothing",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

// Timings are bounded at 25 %, the most the contract allows: reduced to
// the fast decile of slices (`stats::Summary::sliced`) every timing below
// repeats within 2–9 % (interquartile range over median, ten seeds), but
// this 2-vCPU microVM also drifts for longer than a run — medians of two
// sets of ten runs twenty minutes apart differed by up to 10–20 % — and a
// bound the box alone can cross would reject honest changes. `quality` does
// not depend on the clock and `peak_rss_mb` barely does; they stay tight.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "primary_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "primary_alt_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "secondary_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "quality",
        unit: "fraction",
        higher_is_better: true,
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
    },
];

/// What each workload puts in each slot: `(workload, slot, ISSUE name,
/// meaning)`. `setup_s` and `peak_rss_mb` mean the same everywhere.
pub const SLOTS: [(&str, &str, &str, &str); 20] = [
    (
        "rec_cold",
        "primary_p50_us",
        "rec_p50_us",
        "single-user REC round trip, median",
    ),
    (
        "rec_cold",
        "primary_alt_us",
        "rec_p99_us",
        "single-user REC p99: the every-64th self-audit exact scan",
    ),
    (
        "rec_cold",
        "secondary_p50_us",
        "recx_p50_us",
        "RECX (exact scan) round trip, median",
    ),
    (
        "rec_cold",
        "work_per_s",
        "lists_per_s",
        "lists per second over stretches of 1024 lines",
    ),
    (
        "rec_cold",
        "quality",
        "served_recall",
        "overlap of served REC lists with the exact top-k",
    ),
    (
        "rec_hot",
        "primary_p50_us",
        "rec_p50_us",
        "routed single-user REC round trip, back to back, median",
    ),
    (
        "rec_hot",
        "primary_alt_us",
        "rec_direct_p50_us",
        "the same single-user REC lines straight to one replica, median",
    ),
    (
        "rec_hot",
        "secondary_p50_us",
        "batch64_p50_us",
        "routed 64-user REC line, median",
    ),
    (
        "rec_hot",
        "work_per_s",
        "lists_per_s",
        "lists per second on the mixed stream, over cycles of 7 single-user lines and a 64-user line",
    ),
    (
        "rec_hot",
        "quality",
        "served_recall",
        "overlap of routed REC lists with the exact top-k",
    ),
    (
        "online_loop",
        "primary_p50_us",
        "put_to_served_us",
        "ack of a window's last PUT to first probe REC on a generation covering it",
    ),
    (
        "online_loop",
        "primary_alt_us",
        "publish_to_served_us",
        "the last stage of that path: checkpoint published to first probe REC on it (watcher wait, reload, probe wait)",
    ),
    (
        "online_loop",
        "secondary_p50_us",
        "rec_beside_p50_us",
        "the probe's single-user REC round trip beside the loop, one every 5 ms, median",
    ),
    (
        "online_loop",
        "work_per_s",
        "absorb_put_per_s",
        "PUTs per second the loop can keep fresh: window / one fine-tune round, poll start to published",
    ),
    (
        "online_loop",
        "quality",
        "served_recall20",
        "held-out Recall@20 of the last generation served in the paced phase",
    ),
    (
        "train_gowalla",
        "primary_p50_us",
        "train_step_p50_us",
        "one Runtime training step, median",
    ),
    (
        "train_gowalla",
        "primary_alt_us",
        "train_step_p75_us",
        "one Runtime training step, p75",
    ),
    (
        "train_gowalla",
        "secondary_p50_us",
        "evaluate_p50_us",
        "full-ranking evaluate at K=20, median",
    ),
    (
        "train_gowalla",
        "work_per_s",
        "train_steps_per_s",
        "training steps per second over the whole step loop",
    ),
    (
        "train_gowalla",
        "quality",
        "recall20",
        "held-out Recall@20 after the frozen step count",
    ),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Every per-layer metric, named `<crate>.<module>.<what>`. A traced run
/// reports all of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [Layer; 60] = [
    lower("serve.proto.parse_ns", "ns"),
    lower("serve.proto.render_ns_per_list", "ns"),
    higher("serve.cache.hit_share", "fraction"),
    lower("serve.cache.get_ns", "ns"),
    lower("serve.engine.hit_ns", "ns"),
    lower("serve.engine.miss_self_us", "us"),
    lower("serve.tables.exact_topk_us", "us"),
    lower("serve.ann.topk_us", "us"),
    lower("serve.ann.probes_per_query", "count"),
    lower("serve.ann.cands_per_query", "count"),
    higher("serve.ann.build_recall", "fraction"),
    lower("serve.quant.topk_us", "us"),
    lower("serve.quant.cands_per_query", "count"),
    higher("serve.quant.build_drift", "fraction"),
    lower("serve.quant.table_bytes", "bytes"),
    lower("serve.engine.open_ms", "ms"),
    lower("serve.engine.reload_ms", "ms"),
    lower("serve.server.single_self_us", "us"),
    lower("serve.server.batch64_self_us", "us"),
    lower("router.hash.shard_of_ns", "ns"),
    lower("router.router.single_self_us", "us"),
    lower("router.router.batch64_self_us", "us"),
    lower("router.router.shard_skew", "ratio"),
    lower("router.router.failovers", "count"),
    lower("router.router.deadline_errors", "count"),
    lower("ingest.log.append_us", "us"),
    lower("ingest.server.put_self_us", "us"),
    higher("ingest.server.put_per_s", "1/s"),
    lower("ingest.server.put_ack_p50_us", "us"),
    lower("ingest.server.put_ack_p75_us", "us"),
    lower("ingest.log.read_window_us", "us"),
    lower("ingest.delta.apply_window_us", "us"),
    lower("runtime.online.absorb_ms", "ms"),
    lower("runtime.online.finetune_round_ms", "ms"),
    higher("runtime.online.rounds", "count"),
    lower("runtime.online.backlog_windows_max", "count"),
    lower("runtime.checkpoint.encode_ms", "ms"),
    lower("runtime.checkpoint.decode_ms", "ms"),
    lower("runtime.checkpoint.write_ms", "ms"),
    lower("runtime.checkpoint.bytes", "bytes"),
    lower("runtime.runtime.step_self_us", "us"),
    lower("core.model.step_ms", "ms"),
    lower("core.model.withheld_steps", "count"),
    lower("core.augmentor.edge_logits_ms", "ms"),
    lower("core.augmentor.sample_view_ms", "ms"),
    lower("core.mixhop.encode_ms", "ms"),
    higher("tensor.matmul_gflops", "GFLOP/s"),
    higher("sparse.spmm_medges_per_s", "Medges/s"),
    lower("graph.sampler.batch_us", "us"),
    lower("eval.evaluate_ms", "ms"),
    higher("par.train_speedup", "ratio"),
    lower("loadgen.gen_late_p99_us", "us"),
    lower("loadgen.poll_wait_ms", "ms"),
    lower("trace.untraced_p50_us", "us"),
    lower("trace.outer_span_p50_us", "us"),
    lower("trace.overhead_share", "fraction"),
    lower("trace.layer_sum_us", "us"),
    lower("trace.layer_sum_gap_share", "fraction"),
    higher("trace.spans", "count"),
    higher("trace.requests_replayed", "count"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

/// The ISSUE-level name of what `workload` reports in `slot`.
pub fn alias(workload: &str, slot: &str) -> &'static str {
    SLOTS
        .iter()
        .find(|(w, s, _, _)| *w == workload && *s == slot)
        .map_or("", |(_, _, alias, _)| alias)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// `BENCHMARK.json` is what the driver reads and this module is what
    /// the binary emits; they must describe the same benchmark.
    #[test]
    fn benchmark_json_matches_this_module_and_the_contract() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let paths = doc.get("paths").unwrap().as_arr().unwrap();
        assert_eq!(paths, [Json::str("benchmark")]);
        let command: Vec<&str> = doc
            .get("command")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|c| c.as_str().unwrap())
            .collect();
        assert_eq!(command, ["bash", "benchmark/run.sh"]);
        let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

        let mut names = std::collections::HashSet::new();
        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(w.as_obj().unwrap().len(), 2);
            assert_eq!(w.get("name").unwrap().as_str(), Some(name));
            assert_eq!(w.get("why").unwrap().as_str(), Some(why));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
            assert!(valid_name(name) && names.insert(name));
        }

        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, spec) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(m.as_obj().unwrap().len(), 4);
            assert_eq!(m.get("name").unwrap().as_str(), Some(spec.name));
            assert_eq!(m.get("unit").unwrap().as_str(), Some(spec.unit));
            let better = if spec.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(m.get("better").unwrap().as_str(), Some(better));
            assert_eq!(m.get("bound").unwrap().as_f64(), Some(spec.bound));
            assert!(spec.bound > 0.0 && spec.bound <= 0.25);
            assert!(valid_name(spec.name) && valid_unit(spec.unit) && names.insert(spec.name));
        }
        let setup = end_to_end("setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

        let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (m, spec) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(m.as_obj().unwrap().len(), 3);
            assert_eq!(m.get("name").unwrap().as_str(), Some(spec.name));
            assert_eq!(m.get("unit").unwrap().as_str(), Some(spec.unit));
            let better = if spec.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(m.get("better").unwrap().as_str(), Some(better));
            assert!(valid_name(spec.name) && valid_unit(spec.unit) && names.insert(spec.name));
        }
    }

    #[test]
    fn every_workload_fills_every_slot() {
        for (w, _) in WORKLOADS {
            for m in &END_TO_END {
                if m.name != "setup_s" && m.name != "peak_rss_mb" {
                    assert!(
                        !alias(w, m.name).is_empty(),
                        "{w} does not define {}",
                        m.name
                    );
                }
            }
        }
    }
}
