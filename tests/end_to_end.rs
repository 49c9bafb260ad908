//! End-to-end integration tests: the full data → split → train → evaluate
//! pipeline across crates, exercising GraphAug and its ablations exactly the
//! way the experiment binaries do.

use graphaug_bench::{build_any, split_graph, KS};
use graphaug_core::{EncoderKind, GraphAug, GraphAugConfig, Trainable};
use graphaug_data::{generate, SyntheticConfig};
use graphaug_eval::{evaluate, mad, Recommender};
use graphaug_graph::{inject_fake_edges, TrainTestSplit};

fn medium_split() -> TrainTestSplit {
    let g = generate(&SyntheticConfig::new(120, 100, 1_800).clusters(6).seed(42));
    split_graph(&g)
}

#[test]
fn graphaug_end_to_end_beats_random_ranking() {
    let split = medium_split();
    let mut m = GraphAug::new(GraphAugConfig::fast_test().epochs(15), &split.train);
    m.fit();
    let res = evaluate(&m, &split, &KS);
    // A uniform-random ranker achieves Recall@20 ≈ 20 / ~85 unseen items ≈
    // 0.24 here; trained GraphAug must do meaningfully better.
    assert!(res.recall(20) > 0.35, "recall@20 {}", res.recall(20));
    assert!(res.ndcg(20) > 0.1, "ndcg@20 {}", res.ndcg(20));
    assert!(
        res.recall(40) >= res.recall(20),
        "recall must be monotone in k"
    );
}

#[test]
fn full_model_beats_each_ablation_or_ties_closely() {
    // The ablations still train; the claim tested here is not strict
    // dominance on a tiny dataset but that the full model is competitive
    // and every variant produces sane metrics (Fig. 2's setup).
    let split = medium_split();
    let mut results = Vec::new();
    for (name, cfg) in [
        ("full", GraphAugConfig::fast_test().epochs(12)),
        (
            "w/o mixhop",
            GraphAugConfig::fast_test()
                .epochs(12)
                .encoder(EncoderKind::Vanilla),
        ),
        ("w/o gib", GraphAugConfig::fast_test().epochs(12).gib(false)),
        ("w/o cl", GraphAugConfig::fast_test().epochs(12).cl(false)),
    ] {
        let mut m = GraphAug::new(cfg, &split.train);
        m.fit();
        let r = evaluate(&m, &split, &[20]).recall(20);
        assert!(r.is_finite() && r > 0.0, "{name} produced recall {r}");
        results.push((name, r));
    }
    let full = results[0].1;
    for &(name, r) in &results[1..] {
        assert!(
            full > r * 0.75,
            "full model ({full:.4}) collapsed against {name} ({r:.4})"
        );
    }
}

#[test]
fn graphaug_trained_on_noise_still_ranks_clean_holdout() {
    // Fig. 3's protocol: corrupt train topology, evaluate on clean holdout.
    let clean = medium_split();
    let noisy = TrainTestSplit {
        train: inject_fake_edges(&clean.train, 0.25, 3),
        test: clean.test.clone(),
    };
    let mut m = GraphAug::new(GraphAugConfig::fast_test().epochs(15), &noisy.train);
    m.fit();
    let res = evaluate(&m, &noisy, &[20]);
    assert!(
        res.recall(20) > 0.25,
        "noisy-train recall {}",
        res.recall(20)
    );
}

#[test]
fn mixhop_keeps_mad_higher_than_vanilla() {
    // Table III's oversmoothing claim, end to end.
    let split = medium_split();
    let mut full = GraphAug::new(GraphAugConfig::fast_test().epochs(12), &split.train);
    full.fit();
    let mut vanilla = GraphAug::new(
        GraphAugConfig::fast_test()
            .epochs(12)
            .encoder(EncoderKind::Vanilla),
        &split.train,
    );
    vanilla.fit();
    let mad_full = mad(&full.all_node_embeddings().expect("embeddings"));
    let mad_vanilla = mad(&vanilla.all_node_embeddings().expect("embeddings"));
    assert!(
        mad_full > mad_vanilla * 0.8,
        "mixhop MAD {mad_full:.4} should not collapse below vanilla {mad_vanilla:.4}"
    );
}

#[test]
fn harness_builds_and_runs_graphaug_by_name() {
    // Keep the harness default (40 epochs) from dominating test time.
    std::env::set_var("GRAPHAUG_EPOCHS", "4");
    let split = medium_split();
    let mut m = build_any("GraphAug w/o CL", &split.train);
    m.fit();
    assert_eq!(m.name(), "GraphAug w/o CL");
    let res = evaluate(m.as_ref(), &split, &[20]);
    assert!(res.n_users > 0);
}

#[test]
fn training_is_deterministic_for_a_fixed_seed() {
    let split = medium_split();
    let run = || {
        let mut m = GraphAug::new(GraphAugConfig::fast_test().epochs(5).seed(99), &split.train);
        m.fit();
        evaluate(&m, &split, &[20]).recall(20)
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "same seed must reproduce identical results");
}
