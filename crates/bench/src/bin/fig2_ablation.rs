//! Regenerates paper Figure 2: component-wise ablation — full GraphAug vs
//! "w/o Mixhop", "w/o GIB", "w/o CL" on all three datasets.

use std::process::ExitCode;

use graphaug_bench::{experiment, prepared_split, run_model, selected_datasets, Arm};
use graphaug_eval::fmt4;

fn main() -> ExitCode {
    let header = "Dataset,Variant,Recall@20,NDCG@20,Recall@40,NDCG@40";
    let title = "Figure 2 — Ablation study of sub-modules in GraphAug";
    experiment("fig2_ablation", title, header, |sheet, epochs| {
        let variants = [
            "GraphAug",
            "GraphAug w/o Mixhop",
            "GraphAug w/o GIB",
            "GraphAug w/o CL",
        ];
        for ds in selected_datasets()? {
            let split = prepared_split(ds);
            for v in variants {
                let r = run_model(&Arm::named(v)?.epochs(epochs), &split).result;
                sheet.row(vec![
                    ds.name().to_string(),
                    v.to_string(),
                    fmt4(r.recall(20)),
                    fmt4(r.ndcg(20)),
                    fmt4(r.recall(40)),
                    fmt4(r.ndcg(40)),
                ]);
            }
        }
        Ok(())
    })
}
