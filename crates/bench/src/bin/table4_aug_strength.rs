//! Regenerates paper Table IV: the graph-sampling-reparameterization
//! strength study — edge threshold ξ ∈ {0.0, 0.2, 0.4, 0.6, 0.8} on all
//! three datasets.

use graphaug_bench::{
    banner, epoch_budget, graphaug_config, prepared_split, selected_datasets, write_csv, KS,
};
use graphaug_core::{GraphAug, Trainable};
use graphaug_eval::{evaluate, fmt4, TextTable};

fn main() {
    banner("Table IV — Graph sampling reparameterization strength (ξ sweep)");
    let _ = epoch_budget();
    let mut table = TextTable::new(&[
        "Dataset",
        "Aug ratio (ξ)",
        "Recall@20",
        "Recall@40",
        "NDCG@20",
        "NDCG@40",
    ]);
    for ds in selected_datasets() {
        let split = prepared_split(ds);
        println!("\n--- {} ---", ds.name());
        for xi in [0.0f32, 0.2, 0.4, 0.6, 0.8] {
            let mut m = GraphAug::new(graphaug_config().edge_threshold(xi), &split.train);
            m.fit();
            let r = evaluate(&m, &split, &KS);
            println!(
                "xi {:.1}: R@20 {:.4}  R@40 {:.4}  N@20 {:.4}  N@40 {:.4}",
                xi,
                r.recall(20),
                r.recall(40),
                r.ndcg(20),
                r.ndcg(40)
            );
            table.row(&[
                ds.name().to_string(),
                format!("{xi:.1}"),
                fmt4(r.recall(20)),
                fmt4(r.recall(40)),
                fmt4(r.ndcg(20)),
                fmt4(r.ndcg(40)),
            ]);
        }
    }
    println!("\n{}", table.render());
    let p = write_csv("table4_aug_strength", &table);
    println!("written: {}", p.display());
}
