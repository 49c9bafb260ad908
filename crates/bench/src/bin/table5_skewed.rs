//! Regenerates paper Table V: performance against skewed (long-tail) data
//! distributions — Recall@40 / NDCG@40 per user-degree bucket (and per
//! item-popularity bucket) for {LightGCN, DGCL, NCL, GraphAug} on two
//! datasets.

use std::process::ExitCode;

use graphaug_bench::{experiment, prepared_split, run_model, Arm, Sheet};
use graphaug_data::Dataset;
use graphaug_eval::{evaluate_item_group, evaluate_users, fmt4, EvalResult};
use graphaug_graph::{paper_degree_groups, paper_item_degree_groups};

fn main() -> ExitCode {
    let title = "Table V — Performance against skewed data distribution";
    let header = "Dataset,Model,Metric,0-10,10-20,20-30,30-40,40-50";
    experiment("table5_skewed", title, header, |sheet, epochs| {
        for ds in [Dataset::Gowalla, Dataset::RetailRocket] {
            let split = prepared_split(ds);
            let user_groups = paper_degree_groups(&split.train);
            let item_groups = paper_item_degree_groups(&split.train);
            for name in ["LightGCN", "DGCL", "NCL", "GraphAug"] {
                let model = run_model(&Arm::named(name)?.epochs(epochs), &split).model;
                let m = model.as_ref();
                // User buckets evaluate their users; item buckets (the
                // paper's second block) count only their items as relevant.
                let users = user_groups.iter().map(|g| {
                    (!g.users.is_empty()).then(|| evaluate_users(m, &split, &g.users, &[40]))
                });
                let items = item_groups.iter().map(|g| {
                    (!g.users.is_empty()).then(|| evaluate_item_group(m, &split, &g.users, &[40]))
                });
                bucket_rows(sheet, [ds.name(), name, "user"], &users.collect::<Vec<_>>());
                bucket_rows(sheet, [ds.name(), name, "item"], &items.collect::<Vec<_>>());
            }
        }
        Ok(())
    })
}

/// The `<side> Recall@40` and `<side> NDCG@40` rows of one model over one
/// set of buckets; `-` marks an empty bucket.
fn bucket_rows(sheet: &mut Sheet, [ds, model, side]: [&str; 3], buckets: &[Option<EvalResult>]) {
    for (metric, ndcg) in [("Recall@40", false), ("NDCG@40", true)] {
        let mut row = vec![
            ds.to_string(),
            model.to_string(),
            format!("{side} {metric}"),
        ];
        row.extend(buckets.iter().map(|r| match r {
            Some(r) if ndcg => fmt4(r.ndcg(40)),
            Some(r) => fmt4(r.recall(40)),
            None => "-".to_string(),
        }));
        sheet.row(row);
    }
}
