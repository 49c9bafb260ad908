//! Regenerates paper Figure 3: robustness to structural noise — relative
//! performance degradation of {GraphAug, NCL, LightGCN} as random fake
//! edges are injected at ratios {0.05 … 0.25} (Gowalla).

use std::process::ExitCode;

use graphaug_bench::{experiment, prepared_split, run_model, Arm};
use graphaug_data::Dataset;
use graphaug_graph::{inject_fake_edges, TrainTestSplit};

fn main() -> ExitCode {
    let header = "Model,Noise,Recall@20,NDCG@20,Rel Recall drop %,Rel NDCG drop %";
    let title = "Figure 3 — Performance degradation vs noise ratio (Gowalla)";
    experiment("fig3_noise", title, header, |sheet, epochs| {
        let clean_split = prepared_split(Dataset::Gowalla);
        for name in ["GraphAug", "NCL", "LightGCN"] {
            let arm = Arm::named(name)?.epochs(epochs);
            let mut base: Option<(f64, f64)> = None;
            for ratio in [0.0f64, 0.05, 0.10, 0.15, 0.20, 0.25] {
                // Corrupt only the *training* topology; the clean holdout
                // stays the evaluation target (as in the paper).
                let split = TrainTestSplit {
                    train: inject_fake_edges(&clean_split.train, ratio, 7 + (ratio * 100.0) as u64),
                    test: clean_split.test.clone(),
                };
                let r = run_model(&arm, &split).result;
                let (r, n) = (r.recall(20), r.ndcg(20));
                let (r0, n0) = *base.get_or_insert((r, n));
                sheet.row(vec![
                    name.to_string(),
                    format!("{ratio:.2}"),
                    format!("{r:.4}"),
                    format!("{n:.4}"),
                    format!("{:.1}", 100.0 * (r0 - r) / r0.max(1e-12)),
                    format!("{:.1}", 100.0 * (n0 - n) / n0.max(1e-12)),
                ]);
            }
        }
        Ok(())
    })
}
