//! Regenerates paper Table I: dataset statistics.

use std::process::ExitCode;

use graphaug_bench::{experiment, load_preset};
use graphaug_data::{Dataset, DatasetStats};

fn main() -> ExitCode {
    let title = "Table I — Experimental Data Statistics (1/64-scale presets)";
    let header = "Dataset,User #,Item #,Interaction #,Density,Mean user deg,Item Gini";
    experiment("table1_stats", title, header, |sheet, _| {
        for ds in Dataset::ALL {
            let s = DatasetStats::of(ds.name(), &load_preset(ds));
            sheet.row(vec![
                s.name.clone(),
                s.users.to_string(),
                s.items.to_string(),
                s.interactions.to_string(),
                format!("{:.1e}", s.density),
                format!("{:.1}", s.mean_user_degree),
                format!("{:.2}", s.item_gini),
            ]);
        }
        Ok(())
    })
}
