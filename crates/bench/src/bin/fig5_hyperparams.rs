//! Regenerates paper Figure 5: hyperparameter sensitivity of GraphAug on
//! Gowalla — GIB strength β₁, InfoNCE temperature τ, and embedding
//! dimensionality d.

use graphaug_bench::{banner, graphaug_config, prepared_split, write_csv, KS};
use graphaug_core::{GraphAug, Trainable};
use graphaug_data::Dataset;
use graphaug_eval::{evaluate, fmt4, TextTable};

fn main() {
    banner("Figure 5 — Hyperparameter study of GraphAug (Gowalla)");
    let split = prepared_split(Dataset::Gowalla);
    let mut table = TextTable::new(&["Param", "Value", "Recall@20", "NDCG@20"]);

    println!("\n-- GIB strength beta1 --");
    for beta in [1e-6f32, 1e-5, 1e-4, 1e-3] {
        let mut m = GraphAug::new(graphaug_config().beta_gib(beta), &split.train);
        m.fit();
        let r = evaluate(&m, &split, &KS);
        println!(
            "beta1 {beta:.0e}: R@20 {:.4}  N@20 {:.4}",
            r.recall(20),
            r.ndcg(20)
        );
        table.row(&[
            "beta1".into(),
            format!("{beta:.0e}"),
            fmt4(r.recall(20)),
            fmt4(r.ndcg(20)),
        ]);
    }

    println!("\n-- temperature tau --");
    for tau in [0.1f32, 0.3, 0.5, 0.7, 0.9] {
        let mut m = GraphAug::new(graphaug_config().temperature(tau), &split.train);
        m.fit();
        let r = evaluate(&m, &split, &KS);
        println!(
            "tau {tau:.1}: R@20 {:.4}  N@20 {:.4}",
            r.recall(20),
            r.ndcg(20)
        );
        table.row(&[
            "tau".into(),
            format!("{tau:.1}"),
            fmt4(r.recall(20)),
            fmt4(r.ndcg(20)),
        ]);
    }

    println!("\n-- embedding dim d --");
    for d in [8usize, 16, 32, 64] {
        let mut m = GraphAug::new(graphaug_config().embed_dim(d), &split.train);
        m.fit();
        let r = evaluate(&m, &split, &KS);
        println!("d {d}: R@20 {:.4}  N@20 {:.4}", r.recall(20), r.ndcg(20));
        table.row(&[
            "d".into(),
            d.to_string(),
            fmt4(r.recall(20)),
            fmt4(r.ndcg(20)),
        ]);
    }

    println!("\n{}", table.render());
    let p = write_csv("fig5_hyperparams", &table);
    println!("written: {}", p.display());
}
