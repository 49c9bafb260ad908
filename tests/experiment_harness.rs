//! Integration tests of the experiment-harness plumbing that the
//! table/figure binaries rely on.

use graphaug_bench::{
    build_any, prepared_split, run_model, run_model_with_curve, selected_datasets, split_graph,
    write_csv, KS, SPLIT_SEED, TEST_FRACTION,
};
use graphaug_data::{generate, Dataset, SyntheticConfig};
use graphaug_eval::{evaluate_users, TextTable};
use graphaug_graph::{inject_fake_edges, paper_degree_groups};

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
    let out = run_model("LightGCN", &split);
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
    std::env::set_var("GRAPHAUG_EPOCHS", "4");
    let out = run_model_with_curve("LightGCN", &split);
    std::env::remove_var("GRAPHAUG_EPOCHS");
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
    let out = run_model("BiasMF", &split);
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
        let ds = selected_datasets();
        assert_eq!(ds.len(), 3);
    }
}

#[test]
fn build_any_rejects_unknown_names() {
    let g = generate(&SyntheticConfig::new(20, 20, 80).seed(1));
    let result = std::panic::catch_unwind(|| build_any("DefinitelyNotAModel", &g));
    assert!(result.is_err());
}

#[test]
fn export_import_serves_identical_rankings() {
    use graphaug_eval::{export_embeddings, import_embeddings, topk_indices, Recommender};
    let g = generate(&SyntheticConfig::new(40, 50, 400).seed(2));
    let split = split_graph(&g);
    let out = run_model("LightGCN", &split);
    let dump = export_embeddings(out.model.as_ref());
    let snap = import_embeddings(&dump).expect("round trip");
    for user in [0usize, 7, 33] {
        let a = topk_indices(&out.model.score_items(user), 10);
        let b = topk_indices(&snap.score_items(user), 10);
        assert_eq!(a, b, "user {user} rankings must survive export/import");
    }
}
