//! Regenerates paper Table III: MAD ablation of the mixhop encoder on
//! Gowalla (w/ vs w/o mixhop; higher MAD = less oversmoothing).

use std::process::ExitCode;

use graphaug_bench::{experiment, mad_row, prepared_split, Arm};
use graphaug_data::Dataset;

fn main() -> ExitCode {
    let title = "Table III — Ablation study of Mixhop w.r.t. MAD (Gowalla)";
    let header = "Variant,MAD,Recall@20,NDCG@20";
    experiment("table3_mixhop_mad", title, header, |sheet, epochs| {
        let split = prepared_split(Dataset::Gowalla);
        for (label, name) in [
            ("w Mixhop", "GraphAug"),
            ("w/o Mixhop", "GraphAug w/o Mixhop"),
        ] {
            mad_row(sheet, label, &Arm::named(name)?.epochs(epochs), &split);
        }
        Ok(())
    })
}
