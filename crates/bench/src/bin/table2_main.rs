//! Regenerates paper Table II: overall recommendation performance of all
//! 18 baselines + GraphAug on the three datasets
//! (Recall@20/40, NDCG@20/40).

use std::process::ExitCode;

use graphaug_baselines::model_names;
use graphaug_bench::{
    experiment, metric_cells, prepared_split, run_model, selected_datasets, selected_models, Arm,
};

fn main() -> ExitCode {
    let title = "Table II — Recommendation performance of all compared methods";
    let header = "Dataset,Model,Recall@20,Recall@40,NDCG@20,NDCG@40,train s";
    experiment("table2_main", title, header, |sheet, epochs| {
        let mut names = model_names();
        names.push("GraphAug");
        let models = selected_models(&names)?;
        for ds in selected_datasets()? {
            let split = prepared_split(ds);
            for name in &models {
                let out = run_model(&Arm::named(name)?.epochs(epochs), &split);
                let mut row = vec![ds.name().to_string(), name.to_string()];
                row.extend(metric_cells(&out.result));
                row.push(format!("{:.1}", out.train_time.as_secs_f64()));
                sheet.row(row);
            }
        }
        Ok(())
    })
}
