//! The `Recommender` scoring contract, checked on every arm: the 18 Table
//! II baselines from the registry and the four GraphAug variants.
//!
//! An arm whose `embeddings()` is `Some` must score through the default
//! `score_items` — every item's score the bits of the ascending `.sum()`
//! chain over its table row — because the serving tier exports those tables
//! and scores them itself. Only the arms that override `score_items` (NCF's
//! MLP head, AutoRec's decoder) may return `None`.

use graphaug_baselines::{build_model, model_names, BaselineOpts, Trainable};
use graphaug_core::{EncoderKind, GraphAug, GraphAugConfig};
use graphaug_data::{generate, SyntheticConfig};

/// A score's bits, with every NaN folded to one.
fn score_bits(s: f32) -> u32 {
    if s.is_nan() {
        u32::MAX
    } else {
        s.to_bits()
    }
}

#[test]
fn every_arm_with_tables_scores_the_ascending_chain() {
    let train = generate(&SyntheticConfig::new(40, 37, 400).clusters(4).seed(5));
    let cfg = || GraphAugConfig::fast_test().epochs(1);
    let graphaug =
        |cfg: GraphAugConfig| -> Box<dyn Trainable> { Box::new(GraphAug::new(cfg, &train)) };
    let mut arms: Vec<(&str, Box<dyn Trainable>)> = vec![
        ("GraphAug", graphaug(cfg())),
        (
            "GraphAug w/o Mixhop",
            graphaug(cfg().encoder(EncoderKind::Vanilla)),
        ),
        ("GraphAug w/o GIB", graphaug(cfg().gib(false))),
        ("GraphAug w/o CL", graphaug(cfg().cl(false))),
    ];
    let opts = BaselineOpts::fast_test().epochs(1);
    arms.extend(
        model_names()
            .into_iter()
            .map(|name| (name, build_model(name, opts.clone(), &train))),
    );
    assert_eq!(arms.len(), 22);

    let mut tableless = Vec::new();
    for (name, mut model) in arms {
        model.fit();
        let Some((users, items)) = model.embeddings() else {
            tableless.push(name);
            continue;
        };
        for user in 0..users.rows() {
            let got: Vec<u32> = model
                .score_items(user)
                .into_iter()
                .map(score_bits)
                .collect();
            let want: Vec<u32> = (0..items.rows())
                .map(|v| {
                    let chain: f32 = items
                        .row(v)
                        .iter()
                        .zip(users.row(user))
                        .map(|(a, b)| a * b)
                        .sum();
                    score_bits(chain)
                })
                .collect();
            assert_eq!(got, want, "{name}: user {user}");
        }
    }
    assert_eq!(
        tableless,
        ["NCF", "AutoR"],
        "only score_items overrides lack tables"
    );
}
