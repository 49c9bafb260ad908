//! `graphaug` — command-line interface for training and serving the models
//! in this workspace on plain-text interaction data.
//!
//! Subcommands and flags: [`USAGE`]. `train` and `compare` hold out 20% per
//! user and report Recall/NDCG; `recommend` and `export` train on the full
//! data; `serve` ranks from an exported embedding file without training.
//!
//! The edge-list format is one `user item` pair per line (whitespace
//! separated, `#` comments allowed); ids are arbitrary tokens.

use std::process::ExitCode;

use graphaug_bench::{epoch_budget, metric_cells, run_model, Arm, Sheet};
use graphaug_data::{load_edge_list, DatasetStats};
use graphaug_eval::{export_embeddings, import_embeddings, topk_indices, Recommender};
use graphaug_graph::{InteractionGraph, TrainTestSplit};
use graphaug_ingest::args::{self, ArgError, Args, Fail};

/// The flags every subcommand shares.
struct Opts {
    model: String,
    models: Vec<String>,
    epochs: Option<usize>,
    seed: u64,
    top: usize,
}

impl Opts {
    /// The arm `name` denotes (an unknown one is a usage error of `flag`),
    /// trained for `--epochs`, else the experiments' budget.
    fn arm(&self, flag: &'static str, name: &str) -> Result<Arm, ArgError> {
        let arm = Arm::named(name).map_err(|e| ArgError::invalid(flag, e.to_string()))?;
        let epochs = match self.epochs {
            Some(e) => e,
            None => epoch_budget().map_err(|e| ArgError::invalid("--epochs", e))?,
        };
        Ok(arm.epochs(epochs))
    }
}

/// Parses the flags once the subcommand has taken its positionals.
fn parse_opts(mut args: Args) -> Result<Opts, ArgError> {
    let models: String = args.value("--models", "BiasMF,LightGCN,SGL,NCL,GraphAug".into())?;
    let opts = Opts {
        model: args.value("--model", "GraphAug".into())?,
        models: models.split(',').map(|s| s.trim().to_string()).collect(),
        epochs: args.opt("--epochs")?,
        seed: args.value("--seed", 7)?,
        top: args.value("--top", 10)?,
    };
    args.finish()?;
    Ok(opts)
}

fn load(path: &str) -> Result<InteractionGraph, String> {
    let g = load_edge_list(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    if g.n_interactions() == 0 {
        return Err("edge list is empty".into());
    }
    Ok(g)
}

/// Rejects a dense user index past the last row the data or model holds.
fn check_user(user: usize, n_users: usize) -> Result<(), Fail> {
    if user >= n_users {
        return Err(format!("user {user} out of range (dataset has {n_users} users)").into());
    }
    Ok(())
}

fn cmd_train(mut args: Args) -> Result<(), Fail> {
    let path: String = args.positional("<edges.tsv>")?;
    let opts = parse_opts(args)?;
    let arm = opts.arm("--model", &opts.model)?;
    run_arms(&path, &[arm], opts.seed)
}

fn cmd_compare(mut args: Args) -> Result<(), Fail> {
    let path: String = args.positional("<edges.tsv>")?;
    let opts = parse_opts(args)?;
    let arms = opts.models.iter().map(|name| opts.arm("--models", name));
    run_arms(&path, &arms.collect::<Result<Vec<_>, _>>()?, opts.seed)
}

/// `train` and `compare`: each arm through `run_model` on a per-user
/// 80/20 split of the edge list, one row per arm.
fn run_arms(path: &str, arms: &[Arm], seed: u64) -> Result<(), Fail> {
    let g = load(path)?;
    let (users, items, n) = (g.n_users(), g.n_items(), g.n_interactions());
    println!("{users} users / {items} items / {n} interactions");
    let split = TrainTestSplit::per_user(&g, 0.2, seed);
    let mut sheet = Sheet::new("Model,Recall@20,Recall@40,NDCG@20,NDCG@40,train s");
    for arm in arms {
        let out = run_model(arm, &split);
        let mut row = vec![arm.label().to_string()];
        row.extend(metric_cells(&out.result));
        row.push(format!("{:.1}", out.train_time.as_secs_f64()));
        sheet.row(row);
    }
    println!("\n{}", sheet.render());
    Ok(())
}

fn cmd_recommend(mut args: Args) -> Result<(), Fail> {
    let path: String = args.positional("<edges.tsv>")?;
    // A dense integer index, not the raw token from the file.
    let user: usize = args.positional("<user>")?;
    let opts = parse_opts(args)?;
    let arm = opts.arm("--model", &opts.model)?;
    let g = load(&path)?;
    check_user(user, g.n_users())?;
    let model = arm.train(&g, |_, _| {});
    let mut scores = model.score_items(user);
    for &v in g.items_of(user) {
        scores[v as usize] = f32::NEG_INFINITY;
    }
    println!(
        "user {user} has {} observed interactions",
        g.items_of(user).len()
    );
    println!("top-{} recommendations ({}):", opts.top, arm.label());
    print_top(&scores, opts.top);
    Ok(())
}

fn cmd_export(mut args: Args) -> Result<(), Fail> {
    let path: String = args.positional("<edges.tsv>")?;
    let out_path: String = args.positional("<out.emb>")?;
    let opts = parse_opts(args)?;
    let arm = opts.arm("--model", &opts.model)?;
    let g = load(&path)?;
    let model = arm.train(&g, |_, _| {});
    if model.embeddings().is_none() {
        return Err(format!("{} is not an embedding model; cannot export", arm.label()).into());
    }
    std::fs::write(&out_path, export_embeddings(model.as_ref())).map_err(|e| e.to_string())?;
    println!("trained {} and wrote embeddings to {out_path}", arm.label());
    Ok(())
}

/// Prints the `top` highest-scoring items, best first.
fn print_top(scores: &[f32], top: usize) {
    for (rank, v) in topk_indices(scores, top).iter().enumerate() {
        println!(
            "  {:>2}. item {:>6}  score {:.4}",
            rank + 1,
            v,
            scores[*v as usize]
        );
    }
}

fn cmd_serve(mut args: Args) -> Result<(), Fail> {
    let emb_path: String = args.positional("<model.emb>")?;
    let user: usize = args.positional("<user>")?;
    let opts = parse_opts(args)?;
    let text = std::fs::read_to_string(&emb_path).map_err(|e| e.to_string())?;
    let snap = import_embeddings(&text).map_err(|e| e.to_string())?;
    check_user(user, snap.user_emb.rows())?;
    println!("top-{} for user {user} (from {emb_path}):", opts.top);
    print_top(&snap.score_items(user), opts.top);
    Ok(())
}

fn cmd_stats(mut args: Args) -> Result<(), Fail> {
    let path: String = args.positional("<edges.tsv>")?;
    parse_opts(args)?;
    let g = load(&path)?;
    let s = DatasetStats::of(&path, &g);
    println!("{}", DatasetStats::markdown_header());
    println!("{}", s.markdown_row());
    Ok(())
}

const USAGE: &str = "usage: graphaug <train|recommend|compare|stats|export|serve> …
  train     <edges.tsv> [--model NAME] [--epochs N] [--seed S]
  recommend <edges.tsv> <user> [--top N] [--model NAME] [--epochs N]
  compare   <edges.tsv> [--models A,B,C] [--epochs N] [--seed S]
  stats     <edges.tsv>
  export    <edges.tsv> <out.emb> [--model NAME] [--epochs N]
  serve     <model.emb> <user> [--top N]
models: the Table II names and 'GraphAug w/o Mixhop|GIB|CL' (an unknown one lists them)";

fn main() -> ExitCode {
    args::run("graphaug", USAGE, |mut args| {
        let cmd: String = args.positional("<command>")?;
        match cmd.as_str() {
            "train" => cmd_train(args),
            "recommend" => cmd_recommend(args),
            "compare" => cmd_compare(args),
            "stats" => cmd_stats(args),
            "export" => cmd_export(args),
            "serve" => cmd_serve(args),
            other => {
                Err(ArgError::invalid("<command>", format!("unknown command {other:?}")).into())
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_exactly_the_flags_the_parser_takes() {
        args::assert_usage_matches(USAGE, &[], parse_opts);
    }

    #[test]
    fn flags_parse_into_their_types_after_the_positionals() {
        let mut args = Args::new("edges.tsv 3 --top 5 --epochs 5 --models A,B".split(' '));
        assert_eq!(
            args.positional::<String>("<edges.tsv>").unwrap(),
            "edges.tsv"
        );
        assert_eq!(args.positional::<usize>("<user>").unwrap(), 3);
        let opts = parse_opts(args).unwrap();
        assert_eq!((opts.top, opts.epochs, opts.seed), (5, Some(5), 7));
        assert_eq!(opts.model, "GraphAug");
        assert_eq!(opts.models, ["A", "B"]);
    }

    #[test]
    fn serve_rejects_a_user_past_the_embedding_file() {
        let snap = graphaug_eval::EmbeddingSnapshot {
            user_emb: graphaug_tensor::Mat::filled(1, 2, 0.5),
            item_emb: graphaug_tensor::Mat::filled(3, 2, 0.25),
        };
        let path = std::env::temp_dir().join(format!("graphaug-serve-{}.emb", std::process::id()));
        std::fs::write(&path, export_embeddings(&snap)).unwrap();
        let result = cmd_serve(Args::new([path.to_string_lossy().into_owned(), "5".into()]));
        std::fs::remove_file(&path).ok();
        match result {
            Err(Fail::Run(e)) => assert_eq!(e, "user 5 out of range (dataset has 1 users)"),
            _ => panic!("serve must refuse user 5 of a 1-user file"),
        }
    }
}
