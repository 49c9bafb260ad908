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

use graphaug_bench::build_any;
use graphaug_data::{load_edge_list, DatasetStats};
use graphaug_eval::{
    evaluate, export_embeddings, import_embeddings, topk_indices, Recommender, TextTable,
};
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

fn set_epochs(epochs: Option<usize>) {
    if let Some(e) = epochs {
        std::env::set_var("GRAPHAUG_EPOCHS", e.to_string());
    }
}

fn cmd_train(mut args: Args) -> Result<(), Fail> {
    let path: String = args.positional("<edges.tsv>")?;
    let opts = parse_opts(args)?;
    let g = load(&path)?;
    set_epochs(opts.epochs);
    let split = TrainTestSplit::per_user(&g, 0.2, opts.seed);
    println!(
        "training {} on {} users / {} items / {} interactions…",
        opts.model,
        g.n_users(),
        g.n_items(),
        g.n_interactions()
    );
    let mut model = build_any(&opts.model, &split.train);
    let start = std::time::Instant::now();
    model.fit();
    let res = evaluate(model.as_ref(), &split, &[20, 40]);
    println!(
        "{}: Recall@20 {:.4}  Recall@40 {:.4}  NDCG@20 {:.4}  NDCG@40 {:.4}  ({:.1}s, {} users)",
        opts.model,
        res.recall(20),
        res.recall(40),
        res.ndcg(20),
        res.ndcg(40),
        start.elapsed().as_secs_f64(),
        res.n_users
    );
    Ok(())
}

fn cmd_recommend(mut args: Args) -> Result<(), Fail> {
    let path: String = args.positional("<edges.tsv>")?;
    // A dense integer index, not the raw token from the file.
    let user: usize = args.positional("<user>")?;
    let opts = parse_opts(args)?;
    let g = load(&path)?;
    check_user(user, g.n_users())?;
    set_epochs(opts.epochs);
    let mut model = build_any(&opts.model, &g);
    model.fit();
    let mut scores = model.score_items(user);
    for &v in g.items_of(user) {
        scores[v as usize] = f32::NEG_INFINITY;
    }
    let top = topk_indices(&scores, opts.top);
    println!(
        "user {user} has {} observed interactions",
        g.items_of(user).len()
    );
    println!("top-{} recommendations ({}):", opts.top, opts.model);
    for (rank, v) in top.iter().enumerate() {
        println!(
            "  {:>2}. item {:>6}  score {:.4}",
            rank + 1,
            v,
            scores[*v as usize]
        );
    }
    Ok(())
}

fn cmd_compare(mut args: Args) -> Result<(), Fail> {
    let path: String = args.positional("<edges.tsv>")?;
    let opts = parse_opts(args)?;
    let g = load(&path)?;
    set_epochs(opts.epochs);
    let split = TrainTestSplit::per_user(&g, 0.2, opts.seed);
    let mut table = TextTable::new(&["Model", "Recall@20", "NDCG@20", "train s"]);
    for name in &opts.models {
        let mut model = build_any(name, &split.train);
        let start = std::time::Instant::now();
        model.fit();
        let res = evaluate(model.as_ref(), &split, &[20]);
        table.row(&[
            name.clone(),
            format!("{:.4}", res.recall(20)),
            format!("{:.4}", res.ndcg(20)),
            format!("{:.1}", start.elapsed().as_secs_f64()),
        ]);
        println!("{name} done");
    }
    println!("\n{}", table.render());
    Ok(())
}

fn cmd_export(mut args: Args) -> Result<(), Fail> {
    let path: String = args.positional("<edges.tsv>")?;
    let out_path: String = args.positional("<out.emb>")?;
    let opts = parse_opts(args)?;
    let g = load(&path)?;
    set_epochs(opts.epochs);
    let mut model = build_any(&opts.model, &g);
    model.fit();
    if model.embeddings().is_none() {
        return Err(format!("{} is not an embedding model; cannot export", opts.model).into());
    }
    std::fs::write(&out_path, export_embeddings(model.as_ref())).map_err(|e| e.to_string())?;
    println!("trained {} and wrote embeddings to {out_path}", opts.model);
    Ok(())
}

fn cmd_serve(mut args: Args) -> Result<(), Fail> {
    let emb_path: String = args.positional("<model.emb>")?;
    let user: usize = args.positional("<user>")?;
    let opts = parse_opts(args)?;
    let text = std::fs::read_to_string(&emb_path).map_err(|e| e.to_string())?;
    let snap = import_embeddings(&text).map_err(|e| e.to_string())?;
    check_user(user, snap.user_emb.rows())?;
    let scores = snap.score_items(user);
    let top = topk_indices(&scores, opts.top);
    println!("top-{} for user {user} (from {emb_path}):", opts.top);
    for (rank, v) in top.iter().enumerate() {
        println!(
            "  {:>2}. item {:>6}  score {:.4}",
            rank + 1,
            v,
            scores[*v as usize]
        );
    }
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
models: BiasMF NCF AutoR GCMC PinSage NGCF LightGCN GCCF DisenGCN DGCF MHCN
        STGCN SLRec SGL DGCL HCCF CGI NCL GraphAug (+ 'GraphAug w/o …' ablations)";

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
