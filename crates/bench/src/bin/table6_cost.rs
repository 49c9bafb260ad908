//! Regenerates paper Table VI: training cost (wall-clock) vs accuracy of
//! the CL-based methods {DGCL, HCCF, NCL, GraphAug} on Gowalla.

use std::process::ExitCode;

use graphaug_bench::{experiment, prepared_split, run_model, Arm};
use graphaug_data::Dataset;
use graphaug_eval::fmt4;

fn main() -> ExitCode {
    let title = "Table VI — Cost time evaluation (Gowalla)";
    let header = "Model,Time (s),Recall@20,NDCG@20";
    experiment("table6_cost", title, header, |sheet, epochs| {
        let split = prepared_split(Dataset::Gowalla);
        for name in ["DGCL", "HCCF", "NCL", "GraphAug"] {
            let out = run_model(&Arm::named(name)?.epochs(epochs), &split);
            sheet.row(vec![
                name.to_string(),
                format!("{:.1}", out.train_time.as_secs_f64()),
                fmt4(out.result.recall(20)),
                fmt4(out.result.ndcg(20)),
            ]);
        }
        Ok(())
    })
}
