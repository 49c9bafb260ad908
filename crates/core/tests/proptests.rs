//! Property tests for the learnable augmentor's edge scorer (Eq. 4).
//!
//! `edge_logits` evaluates the MLP's first layer per node — each node's
//! embedding projected through the two halves of `W1`, the projections
//! gathered per edge — instead of multiplying the `E × 2d` matrix of
//! concatenated endpoint features. That is exact algebra, so it must agree
//! with the per-edge definition `[h̃_u ‖ h̃_v]·W1 + b1 → leaky → ·w2 + b2`
//! up to f32 rounding, and so must its gradients. The reference below is
//! that definition, evaluated per edge in f64.
//!
//! Runs on the in-repo property runner (`graphaug_rng::prop`).

use graphaug_core::augmentor::{edge_logits, AugmentorNodes, AugmentorSettings, EdgeIndex};
use graphaug_graph::InteractionGraph;
use graphaug_rng::prop::{check, Gen, DEFAULT_CASES};
use graphaug_rng::{prop_assert, prop_assume};
use graphaug_tensor::init::seeded_rng;
use graphaug_tensor::{Graph, Mat};

const SLOPE: f32 = 0.2;

/// Random bipartite graph with at least one edge.
fn random_graph(g: &mut Gen) -> InteractionGraph {
    let n_users = g.len_in(1, 7);
    let n_items = g.len_in(1, 7);
    let mut edges = vec![(
        g.random_range(0..n_users as u32),
        g.random_range(0..n_items as u32),
    )];
    for u in 0..n_users as u32 {
        for v in 0..n_items as u32 {
            if g.random_range(0u32..3) == 0 {
                edges.push((u, v));
            }
        }
    }
    InteractionGraph::new(n_users, n_items, edges)
}

fn random_mat(g: &mut Gen, rows: usize, cols: usize) -> Mat {
    Mat::from_vec(
        rows,
        cols,
        g.vec_of(rows * cols, |g| g.random_range(-1.0f32..1.0)),
    )
}

/// The per-edge reference in f64: logits, `∂L/∂h̄`, `∂L/∂W1` for the loss
/// `L = Σ_e k_e · logit_e`, each paired with the sum of the absolute values
/// of its terms (the scale f32 rounding is relative to). `None` when a
/// hidden pre-activation sits so close to the LeakyReLU kink that f32 and
/// f64 could take different branches.
#[allow(clippy::type_complexity)]
fn reference(
    idx: &EdgeIndex,
    h: &Mat,
    w1: &Mat,
    b1: &Mat,
    w2: &Mat,
    b2: f32,
    k: &[f32],
) -> Option<(Vec<(f64, f64)>, Vec<(f64, f64)>, Vec<(f64, f64)>)> {
    let (n, d) = h.shape();
    let hid = w1.cols();
    let mut logits = Vec::new();
    let mut dh = vec![(0f64, 0f64); n * d];
    let mut dw1 = vec![(0f64, 0f64); 2 * d * hid];
    for (e, &ke) in k.iter().enumerate() {
        let ends = [idx.edge_users[e] as usize, idx.edge_items[e] as usize];
        // x = [h̃_u ‖ h̃_v]: feature i of the concatenation.
        let x = |i: usize| h.get(ends[i / d], i % d) as f64;
        let (mut logit, mut logit_mag) = (b2 as f64, (b2 as f64).abs());
        let mut dz = vec![0f64; hid];
        for (j, dz_j) in dz.iter_mut().enumerate() {
            let (mut z, mut z_mag) = (b1.get(0, j) as f64, (b1.get(0, j) as f64).abs());
            for i in 0..2 * d {
                z += x(i) * w1.get(i, j) as f64;
                z_mag += (x(i) * w1.get(i, j) as f64).abs();
            }
            if z.abs() < 1e-4 * z_mag.max(1.0) {
                return None;
            }
            let slope = if z > 0.0 { 1.0 } else { SLOPE as f64 };
            let wj = w2.get(j, 0) as f64;
            logit += slope * z * wj;
            logit_mag += (slope * z_mag * wj).abs();
            *dz_j = ke as f64 * wj * slope;
        }
        logits.push((logit, logit_mag));
        for i in 0..2 * d {
            for j in 0..hid {
                let t = x(i) * dz[j];
                dw1[i * hid + j].0 += t;
                dw1[i * hid + j].1 += t.abs();
                let t = dz[j] * w1.get(i, j) as f64;
                let slot = &mut dh[ends[i / d] * d + i % d];
                slot.0 += t;
                slot.1 += t.abs();
            }
        }
    }
    Some((logits, dh, dw1))
}

fn close(what: &str, got: &[f32], want: &[(f64, f64)]) -> Result<(), String> {
    prop_assert!(got.len() == want.len(), "{what}: length");
    for (i, (&g, &(w, mag))) in got.iter().zip(want).enumerate() {
        prop_assert!(
            (g as f64 - w).abs() <= 1e-5 * mag.max(1.0),
            "{what}[{i}]: per-node {g:e} vs per-edge {w:e} (term scale {mag:e})"
        );
    }
    Ok(())
}

/// The per-node scorer equals the per-edge definition within 1e-5 of the
/// magnitude of the terms it sums — logits and the gradients w.r.t. `h̄`
/// and `W1` — over random graphs, widths with and without a whole number
/// of 8-lanes (`d` from 1 to 19), and hidden sizes 1 to 8.
#[test]
fn per_node_edge_scorer_matches_the_per_edge_definition() {
    check(
        "per_node_edge_scorer_matches_the_per_edge_definition",
        DEFAULT_CASES,
        |gen| {
            let train = random_graph(gen);
            let idx = EdgeIndex::build(&train);
            let d = gen.len_in(1, 20);
            let hid = gen.len_in(1, 9);
            let h = random_mat(gen, train.n_nodes(), d);
            let w1 = random_mat(gen, 2 * d, hid);
            let b1 = random_mat(gen, 1, hid);
            let w2 = random_mat(gen, hid, 1);
            let b2 = gen.random_range(-1.0f32..1.0);
            let k = gen.vec_of(idx.n_edges(), |g| g.random_range(-1.0f32..1.0));
            let want = reference(&idx, &h, &w1, &b1, &w2, b2, &k);
            prop_assume!(want.is_some());
            let (want_logits, want_dh, want_dw1) = want.unwrap();

            let mut g = Graph::new();
            let h_bar = g.constant(h);
            let mlp = AugmentorNodes {
                w1: g.constant(w1),
                b1: g.constant(b1),
                w2: g.constant(w2),
                b2: g.constant(Mat::scalar(b2)),
            };
            // No mask and no noise: h̃ = h̄, as in `edge_keep_probabilities`.
            let settings = AugmentorSettings {
                gumbel_temperature: 0.5,
                edge_threshold: 0.2,
                feature_keep_prob: 1.0,
                feature_noise_std: 0.0,
                leaky_slope: SLOPE,
            };
            let logits = edge_logits(&mut g, h_bar, &idx, &mlp, &settings, &mut seeded_rng(1));
            let weighted = g.mul_const(logits, std::sync::Arc::new(Mat::from_vec(k.len(), 1, k)));
            let loss = g.sum_all(weighted);
            g.backward(loss);

            close("logits", g.value(logits).as_slice(), &want_logits)?;
            close("dL/dh̄", g.grad(h_bar).unwrap().as_slice(), &want_dh)?;
            close("dL/dW1", g.grad(mlp.w1).unwrap().as_slice(), &want_dw1)?;
            Ok(())
        },
    );
}
