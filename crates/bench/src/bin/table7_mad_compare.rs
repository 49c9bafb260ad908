//! Regenerates paper Table VII: MAD (oversmoothing probe) of GraphAug, NCL,
//! and LightGCN on Gowalla, alongside their accuracy.

use std::process::ExitCode;

use graphaug_bench::{experiment, mad_row, prepared_split, Arm};
use graphaug_data::Dataset;

fn main() -> ExitCode {
    let title = "Table VII — MAD of several methods (Gowalla)";
    let header = "Model,MAD,Recall@20,NDCG@20";
    experiment("table7_mad_compare", title, header, |sheet, epochs| {
        let split = prepared_split(Dataset::Gowalla);
        for name in ["GraphAug", "NCL", "LightGCN"] {
            mad_row(sheet, name, &Arm::named(name)?.epochs(epochs), &split);
        }
        Ok(())
    })
}
