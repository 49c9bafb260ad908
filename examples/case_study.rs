//! Case study (the paper's Fig. 6 analysis): after training, inspect the
//! augmentor's learned edge-keep probabilities to see (i) which observed
//! interactions GraphAug treats as noise, and (ii) which item pairs acquire
//! implicit dependencies (close embeddings) without any category labels.
//!
//! ```text
//! cargo run --release -p graphaug-bench --example case_study
//! ```

use graphaug_core::{GraphAug, GraphAugConfig, Trainable};
use graphaug_data::{generate, SyntheticConfig};
use graphaug_eval::Recommender;
use graphaug_graph::TrainTestSplit;

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    dot / (na * nb).max(1e-12)
}

fn main() {
    // An "Amazon-like" sparse dataset with noticeable noise, so the
    // denoising behaviour has something to find.
    let data = generate(
        &SyntheticConfig::new(200, 160, 2_400)
            .clusters(6)
            .noise(0.2)
            .seed(21),
    );
    let split = TrainTestSplit::per_user(&data, 0.2, 21);
    let mut model = GraphAug::new(GraphAugConfig::new().epochs(25).seed(21), &split.train);
    model.fit();

    // (ii) Denoising: per-edge keep probabilities from the trained
    // augmentor. Low-probability edges are the ones GraphAug prunes from
    // the contrastive views — candidate noise.
    let probs = model.edge_keep_probabilities();
    let edges = model.train_edges().to_vec();
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_by(|&a, &b| probs[a].partial_cmp(&probs[b]).expect("finite probs"));

    println!("=== Edges the augmentor most wants to DROP (candidate noise) ===");
    for &i in order.iter().take(8) {
        let (u, v) = edges[i];
        println!("  user {u:>4} — item {v:>4}   keep prob {:.3}", probs[i]);
    }
    println!("\n=== Edges the augmentor most wants to KEEP ===");
    for &i in order.iter().rev().take(8) {
        let (u, v) = edges[i];
        println!("  user {u:>4} — item {v:>4}   keep prob {:.3}", probs[i]);
    }

    // (i) Implicit item dependencies: co-interacted items whose embeddings
    // became close — GraphAug discovered their relatedness without labels.
    let (_, items) = model.embeddings().expect("GraphAug exposes embeddings");
    println!("\n=== Implicit item dependencies for user 0 ===");
    let user_items = split.train.items_of(0);
    for (a_pos, &a) in user_items.iter().enumerate() {
        for &b in &user_items[a_pos + 1..] {
            let sim = cosine(items.row(a as usize), items.row(b as usize));
            if sim > 0.8 {
                println!("  items {a:>4} <-> {b:>4}   cosine {sim:.3}  (implicitly related)");
            }
        }
    }

    // Summary statistics mirroring the paper's discussion.
    let mean_prob: f32 = probs.iter().sum::<f32>() / probs.len() as f32;
    let dropped = probs.iter().filter(|&&p| p < 0.5).count();
    println!(
        "\nmean keep prob {:.3}; {} of {} edges scored below 0.5",
        mean_prob,
        dropped,
        probs.len()
    );
}
