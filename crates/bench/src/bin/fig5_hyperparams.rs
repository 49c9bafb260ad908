//! Regenerates paper Figure 5: hyperparameter sensitivity of GraphAug on
//! Gowalla — GIB strength β₁, InfoNCE temperature τ, and embedding
//! dimensionality d.

use std::process::ExitCode;

use graphaug_bench::{experiment, prepared_split, run_model, Arm};
use graphaug_core::GraphAugConfig;
use graphaug_data::Dataset;
use graphaug_eval::fmt4;

fn main() -> ExitCode {
    let title = "Figure 5 — Hyperparameter study of GraphAug (Gowalla)";
    let header = "Param,Value,Recall@20,NDCG@20";
    experiment("fig5_hyperparams", title, header, |sheet, epochs| {
        let base = GraphAugConfig::new().epochs(epochs);
        let mut sweep: Vec<(&str, String, GraphAugConfig)> = Vec::new();
        for beta in [1e-6f32, 1e-5, 1e-4, 1e-3] {
            sweep.push(("beta1", format!("{beta:.0e}"), base.clone().beta_gib(beta)));
        }
        for tau in [0.1f32, 0.3, 0.5, 0.7, 0.9] {
            sweep.push(("tau", format!("{tau:.1}"), base.clone().temperature(tau)));
        }
        for d in [8usize, 16, 32, 64] {
            sweep.push(("d", d.to_string(), base.clone().embed_dim(d)));
        }
        let split = prepared_split(Dataset::Gowalla);
        for (param, value, cfg) in sweep {
            let r = run_model(&Arm::GraphAug(cfg), &split).result;
            sheet.row(vec![
                param.into(),
                value,
                fmt4(r.recall(20)),
                fmt4(r.ndcg(20)),
            ]);
        }
        Ok(())
    })
}
