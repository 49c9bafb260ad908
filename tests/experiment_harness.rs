//! Integration tests of the experiment-harness plumbing that the
//! table/figure binaries rely on.

use std::process::{Command, Output};

use graphaug_bench::{
    prepared_split, results_dir, run_model, run_model_with_curve, selected_datasets, split_graph,
    write_csv, Arm, UnknownModel, KS, SPLIT_SEED, TEST_FRACTION,
};
use graphaug_core::{GraphAug, GraphAugConfig, Trainable};
use graphaug_data::{generate, load_edge_list, Dataset, SyntheticConfig};
use graphaug_eval::{evaluate, evaluate_users, fmt4, TextTable};
use graphaug_graph::{inject_fake_edges, paper_degree_groups, TrainTestSplit};

fn arm(name: &str) -> Arm {
    Arm::named(name).expect("a known model")
}

#[test]
fn prepared_splits_are_deterministic_and_disjoint() {
    // Mini variant keeps this fast regardless of GRAPHAUG_FAST.
    let g = Dataset::RetailRocket.load_mini();
    let a = split_graph(&g);
    let b = split_graph(&g);
    assert_eq!(a.test.edges(), b.test.edges());
    for &(u, v) in a.test.edges() {
        assert!(!a.train.has_edge(u, v));
    }
    assert!((TEST_FRACTION - 0.2).abs() < 1e-12);
    assert_eq!(SPLIT_SEED, 2024);
}

#[test]
fn run_model_produces_complete_outcome() {
    let g = generate(&SyntheticConfig::new(50, 60, 500).seed(4));
    let split = split_graph(&g);
    let out = run_model(&arm("LightGCN"), &split);
    assert!(out.train_time.as_nanos() > 0);
    for &k in &KS {
        assert!(out.result.recall(k) >= 0.0);
    }
    assert_eq!(out.model.name(), "LightGCN");
}

#[test]
fn convergence_curves_have_one_point_per_epoch() {
    let g = generate(&SyntheticConfig::new(50, 60, 500).seed(4));
    let split = split_graph(&g);
    let out = run_model_with_curve(&arm("LightGCN").epochs(4), &split);
    assert_eq!(out.curve.points().len(), 4);
    // Epochs are recorded in order.
    let epochs: Vec<usize> = out.curve.points().iter().map(|&(e, _)| e).collect();
    assert_eq!(epochs, vec![0, 1, 2, 3]);
    // Golden bits of each epoch's Recall@20: evaluating the model after an
    // epoch must score exactly what a copy of its tables scored.
    let bits: Vec<u64> = out
        .curve
        .points()
        .iter()
        .map(|&(_, r)| r.to_bits())
        .collect();
    let want = [
        0x3fdf_b1fb_1fb1_fb1f,
        0x3fdd_41d4_1d41_d41c,
        0x3fe3_dc3d_c3dc_3dc4,
        0x3fe2_b7ab_7ab7_ab7a,
    ];
    assert_eq!(bits, want, "per-epoch Recall@20 bits moved");
}

#[test]
fn degree_groups_cover_the_table5_population() {
    let split = prepared_split(Dataset::Gowalla);
    let groups = paper_degree_groups(&split.train);
    assert_eq!(groups.len(), 5);
    let covered: usize = groups.iter().map(|g| g.users.len()).sum();
    assert!(
        covered > 0,
        "at least some users fall into the paper buckets"
    );
    // Per-group evaluation runs on the harness path used by table5_skewed.
    let out = run_model(&arm("BiasMF"), &split);
    for grp in &groups {
        if grp.users.is_empty() {
            continue;
        }
        let r = evaluate_users(out.model.as_ref(), &split, &grp.users, &[40]);
        assert!(r.recall(40).is_finite());
    }
}

#[test]
fn noise_injection_series_is_monotone_in_edges() {
    let g = generate(&SyntheticConfig::new(80, 60, 900).seed(6));
    let mut last = g.n_interactions();
    for ratio in [0.05f64, 0.10, 0.15, 0.20, 0.25] {
        let noisy = inject_fake_edges(&g, ratio, 1);
        assert!(noisy.n_interactions() > last);
        last = noisy.n_interactions();
    }
}

#[test]
fn csv_emission_round_trips() {
    let mut t = TextTable::new(&["Model", "Recall@20"]);
    t.row(&["GraphAug".into(), "0.2025".into()]);
    let p = write_csv("harness_integration_selftest", &t);
    let text = std::fs::read_to_string(&p).expect("read back");
    assert!(text.contains("GraphAug"));
    std::fs::remove_file(p).ok();
}

#[test]
fn dataset_selection_defaults_to_all_three() {
    if std::env::var("GRAPHAUG_DATASETS").is_err() {
        let ds = selected_datasets().unwrap();
        assert_eq!(ds.len(), 3);
    }
}

#[test]
fn build_any_rejects_unknown_names() {
    let err = Arm::named("DefinitelyNotAModel").unwrap_err();
    assert_eq!(err, UnknownModel("DefinitelyNotAModel".into()));
    let message = err.to_string();
    assert!(
        message.contains("LightGCN") && message.contains("GraphAug w/o CL"),
        "{message}"
    );
}

#[test]
fn export_import_serves_identical_rankings() {
    use graphaug_eval::{export_embeddings, import_embeddings, topk_indices, Recommender};
    let g = generate(&SyntheticConfig::new(40, 50, 400).seed(2));
    let split = split_graph(&g);
    let out = run_model(&arm("LightGCN"), &split);
    let dump = export_embeddings(out.model.as_ref());
    let snap = import_embeddings(&dump).expect("round trip");
    for user in [0usize, 7, 33] {
        let a = topk_indices(&out.model.score_items(user), 10);
        let b = topk_indices(&snap.score_items(user), 10);
        assert_eq!(a, b, "user {user} rankings must survive export/import");
    }
}

/// The direct build → fit → evaluate path the sweeps used before they
/// went through `run_model`.
fn direct_bitline(cfg: GraphAugConfig, split: &TrainTestSplit) -> String {
    let mut m = GraphAug::new(cfg, &split.train);
    m.fit();
    evaluate(&m, split, &KS).bitline()
}

#[test]
fn run_model_matches_the_direct_sweep_path_bit_for_bit() {
    let g = generate(&SyntheticConfig::new(60, 50, 600).seed(9));
    let split = split_graph(&g);
    let base = GraphAugConfig::new().epochs(2);
    // One Fig. 5 point (τ) and one Table IV point (ξ).
    for cfg in [base.clone().temperature(0.3), base.edge_threshold(0.6)] {
        let via_runner = run_model(&Arm::GraphAug(cfg.clone()), &split)
            .result
            .bitline();
        assert_eq!(via_runner, direct_bitline(cfg, &split));
    }
}

fn graphaug_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_graphaug"))
        .args(args)
        .env_remove("GRAPHAUG_EPOCHS")
        .output()
        .expect("run graphaug")
}

#[test]
fn a_graphaug_compare_row_is_the_run_model_row() {
    let g = generate(&SyntheticConfig::new(40, 50, 400).seed(3));
    let path = std::env::temp_dir().join(format!("graphaug-compare-{}.tsv", std::process::id()));
    let edges: String = g
        .edges()
        .iter()
        .map(|(u, v)| format!("u{u} i{v}\n"))
        .collect();
    std::fs::write(&path, edges).unwrap();
    let path_arg = path.to_str().unwrap();
    let out = graphaug_cli(&["compare", path_arg, "--models", "LightGCN", "--epochs", "2"]);
    let loaded = load_edge_list(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let split = TrainTestSplit::per_user(&loaded, 0.2, 7);
    let r = run_model(&arm("LightGCN").epochs(2), &split).result;
    let [r20, r40, n20, n40] = [r.recall(20), r.recall(40), r.ndcg(20), r.ndcg(40)].map(fmt4);
    let want = format!(
        "Model=LightGCN  Recall@20={r20}  Recall@40={r40}  NDCG@20={n20}  NDCG@40={n40}  train s="
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().any(|l| l.starts_with(&want)),
        "{want:?} not in\n{stdout}"
    );
}

#[test]
fn an_unknown_cli_model_is_a_usage_error_before_the_file_is_read() {
    let out = graphaug_cli(&["train", "no/such/edges.tsv", "--model", "NoSuchModel"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown model \"NoSuchModel\"; valid names: BiasMF"),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
}

/// Runs `table2_main` with one bad setting on top of fast mode and checks
/// it refuses with a message naming `var` and leaves its CSV untouched.
fn table2_refuses(var: &str, value: &str) {
    let csv = results_dir().join("table2_main.csv");
    let before = std::fs::read(&csv).ok();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table2_main"));
    for knob in ["GRAPHAUG_EPOCHS", "GRAPHAUG_DATASETS", "GRAPHAUG_MODELS"] {
        cmd.env_remove(knob);
    }
    let out = cmd
        .env("GRAPHAUG_FAST", "1")
        .env(var, value)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{var}={value}: {stderr}");
    assert!(
        stderr.starts_with(&format!("table2_main: {var}")),
        "{stderr}"
    );
    assert!(!String::from_utf8_lossy(&out.stdout).contains("written:"));
    assert_eq!(
        std::fs::read(&csv).ok(),
        before,
        "{var}={value} touched {csv:?}"
    );
}

#[test]
fn a_dataset_filter_matching_nothing_fails_without_writing() {
    table2_refuses("GRAPHAUG_DATASETS", "nosuch");
}

#[test]
fn an_unknown_model_in_the_filter_fails_without_writing() {
    table2_refuses("GRAPHAUG_MODELS", "LightGCN,NoSuchModel");
}

#[test]
fn an_epoch_budget_that_does_not_parse_fails_without_writing() {
    table2_refuses("GRAPHAUG_EPOCHS", "25x");
}
