//! Regenerates paper Figure 7: embedding-distribution analysis — 2-D PCA
//! projections plus Wang–Isola uniformity and MAD for {LightGCN, NCL,
//! GraphAug} on Gowalla. The PCA scatter coordinates are written to CSV for
//! external plotting (the paper uses UMAP; see DESIGN.md for the
//! substitution rationale).

use std::process::ExitCode;

use graphaug_bench::{experiment, prepared_split, results_dir, run_model, Arm};
use graphaug_data::Dataset;
use graphaug_eval::{mad, pca_2d, uniformity};

fn main() -> ExitCode {
    let title = "Figure 7 — Embedding distribution (Gowalla)";
    let header = "Model,Uniformity (lower=more uniform),MAD";
    experiment("fig7_distribution", title, header, |sheet, epochs| {
        let split = prepared_split(Dataset::Gowalla);
        for name in ["LightGCN", "NCL", "GraphAug"] {
            let out = run_model(&Arm::named(name)?.epochs(epochs), &split);
            let emb = out.model.all_node_embeddings().expect("embedding models");
            let (uni, m) = (uniformity(&emb, 20_000, 11), mad(&emb));
            sheet.row(vec![
                name.to_string(),
                format!("{uni:.4}"),
                format!("{m:.4}"),
            ]);

            // User-embedding scatter for plotting.
            let (ue, _) = out.model.embeddings().expect("embedding models");
            let proj = pca_2d(ue, 5);
            let mut csv = String::from("x,y\n");
            for r in 0..proj.rows() {
                csv.push_str(&format!("{},{}\n", proj.get(r, 0), proj.get(r, 1)));
            }
            let file = format!("fig7_scatter_{}.csv", name.to_lowercase());
            std::fs::write(results_dir().join(file), csv).expect("write scatter");
        }
        Ok(())
    })
}
