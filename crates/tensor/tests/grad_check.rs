//! Finite-difference gradient checks for every tape operation.
//!
//! Each test builds a scalar loss from one or more input matrices, runs the
//! analytic backward pass, and compares against central differences computed
//! by re-running the forward pass with perturbed inputs. f32 arithmetic
//! limits precision, so inputs are kept well-scaled and the tolerance is
//! `abs 2e-2 + rel 5%`.

use std::sync::Arc;

use graphaug_sparse::Csr;
use graphaug_tensor::{Graph, Mat, NodeId, SpPair};

type LossFn = dyn Fn(&mut Graph, &[NodeId]) -> NodeId;

fn run_loss(inputs: &[Mat], f: &LossFn) -> f32 {
    let mut g = Graph::new();
    let ids: Vec<NodeId> = inputs.iter().map(|m| g.constant(m.clone())).collect();
    let loss = f(&mut g, &ids);
    g.value(loss).item()
}

fn grad_check(inputs: &[Mat], f: &LossFn) {
    let mut g = Graph::new();
    let ids: Vec<NodeId> = inputs.iter().map(|m| g.constant(m.clone())).collect();
    let loss = f(&mut g, &ids);
    g.backward(loss);
    let analytic: Vec<Mat> = ids
        .iter()
        .zip(inputs)
        .map(|(&id, m)| {
            g.grad(id)
                .cloned()
                .unwrap_or_else(|| Mat::zeros(m.rows(), m.cols()))
        })
        .collect();

    let eps = 1e-2f32;
    for (i, input) in inputs.iter().enumerate() {
        for j in 0..input.len() {
            let mut plus = inputs.to_vec();
            plus[i].as_mut_slice()[j] += eps;
            let mut minus = inputs.to_vec();
            minus[i].as_mut_slice()[j] -= eps;
            let num = (run_loss(&plus, f) - run_loss(&minus, f)) / (2.0 * eps);
            let ana = analytic[i].as_slice()[j];
            let tol = 2e-2 + 0.05 * num.abs().max(ana.abs());
            assert!(
                (num - ana).abs() <= tol,
                "input {i} elem {j}: numeric {num} vs analytic {ana}"
            );
        }
    }
}

fn mat_a() -> Mat {
    Mat::from_fn(3, 4, |r, c| ((r * 4 + c) as f32) * 0.17 - 0.9)
}

fn mat_b() -> Mat {
    Mat::from_fn(3, 4, |r, c| ((r as f32) - (c as f32)) * 0.23 + 0.4)
}

#[test]
fn grad_add_sub_mul() {
    let f: Box<LossFn> = Box::new(|g, ids| {
        let s = g.add(ids[0], ids[1]);
        let d = g.sub(s, ids[1]);
        let m = g.mul(d, ids[1]);
        g.sum_all(m)
    });
    grad_check(&[mat_a(), mat_b()], &f);
}

#[test]
fn grad_scale_and_add_scalar() {
    let f: Box<LossFn> = Box::new(|g, ids| {
        let s = g.scale(ids[0], -1.7);
        let t = g.add_scalar(s, 0.3);
        let sq = g.square(t);
        g.mean_all(sq)
    });
    grad_check(&[mat_a()], &f);
}

#[test]
fn grad_mul_add_const() {
    let mask = Arc::new(Mat::from_fn(3, 4, |r, c| ((r + c) % 2) as f32));
    let shift = Arc::new(Mat::filled(3, 4, 0.25));
    let f: Box<LossFn> = Box::new(move |g, ids| {
        let m = g.mul_const(ids[0], Arc::clone(&mask));
        let a = g.add_const(m, Arc::clone(&shift));
        let sq = g.square(a);
        g.sum_all(sq)
    });
    grad_check(&[mat_a()], &f);
}

#[test]
fn grad_matmul() {
    let a = Mat::from_fn(3, 2, |r, c| (r as f32 + 1.0) * 0.3 - c as f32 * 0.2);
    let b = Mat::from_fn(2, 4, |r, c| (c as f32 - r as f32) * 0.25);
    let f: Box<LossFn> = Box::new(|g, ids| {
        let y = g.matmul(ids[0], ids[1]);
        let sq = g.square(y);
        g.sum_all(sq)
    });
    grad_check(&[a, b], &f);
}

#[test]
fn grad_matmul_nt() {
    let a = Mat::from_fn(3, 4, |r, c| r as f32 * 0.2 - c as f32 * 0.15);
    let b = Mat::from_fn(5, 4, |r, c| ((r + c) as f32 * 0.1) - 0.3);
    let f: Box<LossFn> = Box::new(|g, ids| {
        let y = g.matmul_nt(ids[0], ids[1]);
        let t = g.tanh(y);
        g.mean_all(t)
    });
    grad_check(&[a, b], &f);
}

#[test]
fn grad_add_row_broadcast() {
    let x = mat_a();
    let bias = Mat::from_fn(1, 4, |_, c| c as f32 * 0.2 - 0.3);
    let f: Box<LossFn> = Box::new(|g, ids| {
        let y = g.add_row_broadcast(ids[0], ids[1]);
        let s = g.sigmoid(y);
        g.sum_all(s)
    });
    grad_check(&[x, bias], &f);
}

#[test]
fn grad_spmm() {
    let csr = Csr::from_coo(
        4,
        3,
        vec![
            (0, 0, 0.5),
            (0, 2, -1.0),
            (1, 1, 2.0),
            (3, 0, 1.5),
            (3, 2, 0.25),
        ],
    );
    let sp = SpPair::new(csr);
    let h = Mat::from_fn(3, 2, |r, c| (r as f32 - c as f32) * 0.4 + 0.1);
    let f: Box<LossFn> = Box::new(move |g, ids| {
        let y = g.spmm(&sp, ids[0]);
        let sq = g.square(y);
        g.sum_all(sq)
    });
    grad_check(&[h], &f);
}

#[test]
fn grad_spmm_ew_both_operands() {
    let pattern = Arc::new(Csr::from_coo(
        4,
        3,
        vec![
            (0, 0, 1.0),
            (0, 2, 1.0),
            (1, 1, 1.0),
            (2, 0, 1.0),
            (3, 2, 1.0),
        ],
    ));
    let w = Mat::from_fn(5, 1, |r, _| 0.2 + r as f32 * 0.1);
    let h = Mat::from_fn(3, 2, |r, c| (r as f32 * 0.3) - (c as f32 * 0.2) + 0.1);
    let p = Arc::clone(&pattern);
    let f: Box<LossFn> = Box::new(move |g, ids| {
        let y = g.spmm_ew(Arc::clone(&p), ids[0], ids[1]);
        let t = g.tanh(y);
        let sq = g.square(t);
        g.sum_all(sq)
    });
    grad_check(&[w, h], &f);
}

#[test]
fn grad_gather_rows() {
    let idx = Arc::new(vec![2u32, 0, 2, 1]);
    let src = mat_a();
    let f: Box<LossFn> = Box::new(move |g, ids| {
        let y = g.gather_rows(ids[0], Arc::clone(&idx));
        let sq = g.square(y);
        g.sum_all(sq)
    });
    grad_check(&[src], &f);
}

#[test]
fn grad_concat_and_slice() {
    let a = Mat::from_fn(3, 2, |r, c| (r + c) as f32 * 0.2);
    let b = Mat::from_fn(3, 3, |r, c| (r as f32 - c as f32) * 0.3);
    let f: Box<LossFn> = Box::new(|g, ids| {
        let cat = g.concat_cols(ids[0], ids[1]);
        let sl = g.slice_cols(cat, 1, 4);
        let sq = g.square(sl);
        g.sum_all(sq)
    });
    grad_check(&[a, b], &f);
}

/// Two overlapping row slices of one input plus a disjoint one: the
/// gradient adds into the right rows, accumulates where slices overlap and
/// stays zero on rows no slice reads (row 4).
#[test]
fn grad_slice_rows() {
    let x = Mat::from_fn(5, 3, |r, c| (r as f32 * 0.3 - c as f32 * 0.2) + 0.1);
    let w = Mat::from_fn(3, 2, |r, c| (r + c) as f32 * 0.25 - 0.3);
    let f: Box<LossFn> = Box::new(|g, ids| {
        let top = g.slice_rows(ids[0], 0, 3);
        let mid = g.slice_rows(ids[0], 1, 4);
        let s = g.add(top, mid);
        let y = g.matmul(s, ids[1]);
        let t = g.tanh(y);
        let first = g.slice_rows(ids[0], 0, 1);
        let sq = g.square(first);
        let a = g.sum_all(t);
        let b = g.sum_all(sq);
        g.add(a, b)
    });
    grad_check(&[x, w], &f);
}

#[test]
fn grad_unary_activations() {
    for which in 0..6 {
        let x = Mat::from_fn(2, 3, |r, c| (r as f32 * 0.7 - c as f32 * 0.5) + 0.2);
        let f: Box<LossFn> = Box::new(move |g, ids| {
            let y = match which {
                0 => g.sigmoid(ids[0]),
                1 => g.leaky_relu(ids[0], 0.5),
                2 => g.tanh(ids[0]),
                3 => g.exp(ids[0]),
                4 => g.square(ids[0]),
                _ => g.softplus(ids[0]),
            };
            g.sum_all(y)
        });
        grad_check(&[x], &f);
    }
}

#[test]
fn grad_ln_positive_domain() {
    let x = Mat::from_fn(2, 3, |r, c| 0.5 + (r * 3 + c) as f32 * 0.3);
    let f: Box<LossFn> = Box::new(|g, ids| {
        let y = g.ln(ids[0]);
        g.sum_all(y)
    });
    grad_check(&[x], &f);
}

#[test]
fn grad_l2_normalize_rows() {
    let x = Mat::from_fn(3, 4, |r, c| (r as f32 + 1.0) * 0.4 - c as f32 * 0.3 + 0.2);
    let w = Mat::from_fn(3, 4, |r, c| ((r * c) as f32).cos());
    let f: Box<LossFn> = Box::new(|g, ids| {
        let y = g.l2_normalize_rows(ids[0]);
        let m = g.mul(y, ids[1]);
        g.sum_all(m)
    });
    grad_check(&[x, w], &f);
}

#[test]
fn grad_rowwise_dot() {
    let f: Box<LossFn> = Box::new(|g, ids| {
        let d = g.rowwise_dot(ids[0], ids[1]);
        let s = g.sigmoid(d);
        g.sum_all(s)
    });
    grad_check(&[mat_a(), mat_b()], &f);
}

#[test]
fn grad_logsumexp_rows() {
    let x = Mat::from_fn(3, 5, |r, c| (r as f32 - c as f32) * 0.6);
    let f: Box<LossFn> = Box::new(|g, ids| {
        let y = g.logsumexp_rows(ids[0]);
        g.sum_all(y)
    });
    grad_check(&[x], &f);
}

#[test]
fn grad_diag_nn() {
    let x = Mat::from_fn(4, 4, |r, c| (r as f32 * 0.3) - (c as f32 * 0.2));
    let f: Box<LossFn> = Box::new(|g, ids| {
        let d = g.diag_nn(ids[0]);
        let sq = g.square(d);
        g.sum_all(sq)
    });
    grad_check(&[x], &f);
}

/// InfoNCE-shaped composite: normalized embeddings from two views, similarity
/// matrix, logsumexp minus diagonal — the exact loss structure of Eq. 14.
#[test]
fn grad_infonce_composite() {
    let a = Mat::from_fn(4, 3, |r, c| ((r * 3 + c) as f32 * 0.21).sin());
    let b = Mat::from_fn(4, 3, |r, c| ((r as f32) - (c as f32) * 0.7).cos() * 0.5);
    let f: Box<LossFn> = Box::new(|g, ids| {
        let na = g.l2_normalize_rows(ids[0]);
        let nb = g.l2_normalize_rows(ids[1]);
        let sim = g.matmul_nt(na, nb);
        let scaled = g.scale(sim, 1.0 / 0.7);
        let lse = g.logsumexp_rows(scaled);
        let pos = g.diag_nn(scaled);
        let diff = g.sub(lse, pos);
        g.mean_all(diff)
    });
    grad_check(&[a, b], &f);
}

/// BPR-shaped composite: -log σ(pos - neg) via softplus(neg - pos).
#[test]
fn grad_bpr_composite() {
    let u = Mat::from_fn(5, 3, |r, c| (r as f32 * 0.2 - c as f32 * 0.1) + 0.05);
    let p = Mat::from_fn(5, 3, |r, c| ((r + c) as f32 * 0.15) - 0.2);
    let n = Mat::from_fn(5, 3, |r, c| ((r * c) as f32 * 0.1) - 0.1);
    let f: Box<LossFn> = Box::new(|g, ids| {
        let pos = g.rowwise_dot(ids[0], ids[1]);
        let neg = g.rowwise_dot(ids[0], ids[2]);
        let margin = g.sub(neg, pos);
        let sp = g.softplus(margin);
        g.mean_all(sp)
    });
    grad_check(&[u, p, n], &f);
}

/// Gradient accumulation: a node consumed twice receives the sum of both
/// path gradients.
#[test]
fn grad_accumulates_over_fanout() {
    let x = Mat::scalar(0.8);
    let f: Box<LossFn> = Box::new(|g, ids| {
        let sq = g.square(ids[0]);
        let s = g.add(sq, ids[0]);
        g.sum_all(s)
    });
    // d(x² + x)/dx = 2x + 1 = 2.6 — grad_check validates it numerically.
    grad_check(&[x], &f);
}

#[test]
fn grad_scale_by_scalar() {
    let x = mat_a();
    let s = Mat::scalar(0.7);
    let f: Box<LossFn> = Box::new(|g, ids| {
        let y = g.scale_by_scalar(ids[0], ids[1]);
        let sq = g.square(y);
        g.sum_all(sq)
    });
    grad_check(&[x, s], &f);
}
