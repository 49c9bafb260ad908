//! Regenerates paper Figure 4: convergence curves (per-epoch Recall@20 /
//! NDCG@20) of the CL methods on Gowalla.

use std::process::ExitCode;

use graphaug_bench::{experiment, prepared_split, run_model_with_curve, Arm};
use graphaug_data::Dataset;

fn main() -> ExitCode {
    let title = "Figure 4 — Model convergence on Gowalla";
    let header = "Model,Epoch,Recall@20";
    experiment("fig4_convergence", title, header, |sheet, epochs| {
        let split = prepared_split(Dataset::Gowalla);
        for name in ["GraphAug", "NCL", "HCCF", "DGCL", "LightGCN"] {
            let out = run_model_with_curve(&Arm::named(name)?.epochs(epochs), &split);
            let (best_epoch, best) = out.curve.best().unwrap_or((0, 0.0));
            let to90 = out.curve.epochs_to_fraction_of_best(0.9);
            println!("{name}: best R@20 {best:.4} at epoch {best_epoch}; 90% of best at {to90:?}");
            for &(epoch, v) in out.curve.points() {
                sheet.row(vec![name.to_string(), epoch.to_string(), format!("{v:.4}")]);
            }
        }
        Ok(())
    })
}
