//! Regenerates paper Table IV: the graph-sampling-reparameterization
//! strength study — edge threshold ξ ∈ {0.0, 0.2, 0.4, 0.6, 0.8} on all
//! three datasets.

use std::process::ExitCode;

use graphaug_bench::{experiment, metric_cells, prepared_split, run_model, selected_datasets, Arm};
use graphaug_core::GraphAugConfig;

fn main() -> ExitCode {
    let title = "Table IV — Graph sampling reparameterization strength (ξ sweep)";
    let header = "Dataset,Aug ratio (ξ),Recall@20,Recall@40,NDCG@20,NDCG@40";
    experiment("table4_aug_strength", title, header, |sheet, epochs| {
        for ds in selected_datasets()? {
            let split = prepared_split(ds);
            for xi in [0.0f32, 0.2, 0.4, 0.6, 0.8] {
                let cfg = GraphAugConfig::new().epochs(epochs).edge_threshold(xi);
                let r = run_model(&Arm::GraphAug(cfg), &split).result;
                let mut row = vec![ds.name().to_string(), format!("{xi:.1}")];
                row.extend(metric_cells(&r));
                sheet.row(row);
            }
        }
        Ok(())
    })
}
