//! Quickstart: generate a dataset, train GraphAug, evaluate, and print
//! top-5 recommendations for one user.
//!
//! ```text
//! cargo run --release -p graphaug-bench --example quickstart
//! ```

use graphaug_core::{fit_with, GraphAug, GraphAugConfig};
use graphaug_data::{generate, SyntheticConfig};
use graphaug_eval::{evaluate, topk_indices, Recommender};
use graphaug_graph::TrainTestSplit;

fn main() {
    // 1. Data: a synthetic implicit-feedback dataset with cluster structure,
    //    power-law popularity, and 10% behavioural noise.
    let data = generate(&SyntheticConfig::new(300, 250, 5_000).clusters(8).seed(42));
    println!(
        "dataset: {} users, {} items, {} interactions (density {:.2e})",
        data.n_users(),
        data.n_items(),
        data.n_interactions(),
        data.density()
    );

    // 2. Split: hold out 20% of each user's interactions.
    let split = TrainTestSplit::per_user(&data, 0.2, 7);

    // 3. Train GraphAug with paper-default hyperparameters (scaled epochs).
    let cfg = GraphAugConfig::new().epochs(20).seed(7);
    let mut model = GraphAug::new(cfg, &split.train);
    println!("training GraphAug ({} parameters)…", model.n_parameters());
    // The callback receives the model itself after every epoch.
    fit_with(&mut model, |epoch, m| {
        if epoch % 5 == 4 {
            let r20 = evaluate(m, &split, &[20]).recall(20);
            println!("  epoch {} done, Recall@20 {r20:.4}", epoch + 1);
        }
    });

    // 4. Evaluate with the paper's protocol (full ranking, train masked).
    let result = evaluate(&model, &split, &[20, 40]);
    println!(
        "Recall@20 {:.4}  Recall@40 {:.4}  NDCG@20 {:.4}  NDCG@40 {:.4}  ({} users)",
        result.recall(20),
        result.recall(40),
        result.ndcg(20),
        result.ndcg(40),
        result.n_users
    );

    // 5. Recommend: top-5 unseen items for user 0.
    let user = 0usize;
    let mut scores = model.score_items(user);
    for &v in split.train.items_of(user) {
        scores[v as usize] = f32::NEG_INFINITY;
    }
    let top = topk_indices(&scores, 5);
    println!("top-5 recommendations for user {user}: {top:?}");
    println!(
        "held-out ground truth:             {:?}",
        split.test.items_of(user)
    );
}
