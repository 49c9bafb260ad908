//! Property-based tests for the tensor engine: algebraic identities of the
//! dense kernels and randomized gradient checks over composed op chains.
//!
//! Runs on the in-repo property runner (`graphaug_rng::prop`) — seeded case
//! generation, shrink-by-halving, replayable failure seeds — instead of the
//! external `proptest` crate, so the suite works fully offline.

use std::sync::Arc;

use graphaug_rng::prop::{check, Gen, DEFAULT_CASES};
use graphaug_rng::prop_assert;
use graphaug_tensor::{Graph, Mat, NodeId};

/// Generator: a `rows × cols` matrix with entries in `(-2, 2)`.
fn small_mat(g: &mut Gen, rows: usize, cols: usize) -> Mat {
    let v = g.vec_of(rows * cols, |g| g.random_range(-2.0f32..2.0));
    Mat::from_vec(rows, cols, v)
}

#[test]
fn matmul_is_associative() {
    check("matmul_is_associative", DEFAULT_CASES, |g| {
        let a = small_mat(g, 3, 4);
        let b = small_mat(g, 4, 2);
        let c = small_mat(g, 2, 5);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
        Ok(())
    });
}

#[test]
fn matmul_distributes_over_addition() {
    check("matmul_distributes_over_addition", DEFAULT_CASES, |g| {
        let a = small_mat(g, 3, 4);
        let b = small_mat(g, 4, 2);
        let c = small_mat(g, 4, 2);
        let sum = b.zip_map(&c, |x, y| x + y);
        let lhs = a.matmul(&sum);
        let ab = a.matmul(&b);
        let ac = a.matmul(&c);
        for i in 0..lhs.len() {
            prop_assert!((lhs.as_slice()[i] - (ab.as_slice()[i] + ac.as_slice()[i])).abs() < 1e-3);
        }
        Ok(())
    });
}

#[test]
fn transpose_respects_matmul() {
    check("transpose_respects_matmul", DEFAULT_CASES, |g| {
        // (AB)ᵀ = BᵀAᵀ
        let a = small_mat(g, 3, 4);
        let b = small_mat(g, 4, 2);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
        Ok(())
    });
}

#[test]
fn l2_normalized_rows_are_unit_or_zero() {
    check(
        "l2_normalized_rows_are_unit_or_zero",
        DEFAULT_CASES,
        |gen| {
            let a = small_mat(gen, 5, 3);
            let mut g = Graph::new();
            let x = g.constant(a);
            let y = g.l2_normalize_rows(x);
            for r in 0..5 {
                let n: f32 = g.value(y).row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
                prop_assert!(n < 1.0 + 1e-4);
                prop_assert!(
                    !(1e-3..=0.99).contains(&n),
                    "row norm {} neither unit nor zero",
                    n
                );
            }
            Ok(())
        },
    );
}

#[test]
fn logsumexp_bounds_hold() {
    check("logsumexp_bounds_hold", DEFAULT_CASES, |gen| {
        // max(x) <= lse(x) <= max(x) + ln(n)
        let a = small_mat(gen, 4, 6);
        let mut g = Graph::new();
        let x = g.constant(a.clone());
        let y = g.logsumexp_rows(x);
        for r in 0..4 {
            let m = a
                .row(r)
                .iter()
                .fold(f32::NEG_INFINITY, |acc, &v| acc.max(v));
            let lse = g.value(y).get(r, 0);
            prop_assert!(lse >= m - 1e-5);
            prop_assert!(lse <= m + (6f32).ln() + 1e-5);
        }
        Ok(())
    });
}

/// Randomized gradient check over a composed chain: sigmoid ∘ matmul ∘
/// tanh ∘ (x + y). Verifies accumulation and chaining beyond the per-op
/// unit checks.
#[test]
fn random_chain_gradients_match_finite_differences() {
    fn forward(g: &mut Graph, x: Mat, y: Mat, w: Mat) -> (NodeId, NodeId, NodeId, NodeId) {
        let xn = g.constant(x);
        let yn = g.constant(y);
        let wn = g.constant(w);
        let s = g.add(xn, yn);
        let t = g.tanh(s);
        let m = g.matmul(t, wn);
        let sg = g.sigmoid(m);
        let loss = g.mean_all(sg);
        (loss, xn, yn, wn)
    }
    check(
        "random_chain_gradients_match_finite_differences",
        32,
        |gen| {
            let x = small_mat(gen, 3, 3);
            let y = small_mat(gen, 3, 3);
            let w = small_mat(gen, 3, 2);
            let mut g = Graph::new();
            let (loss, xn, _, wn) = forward(&mut g, x.clone(), y.clone(), w.clone());
            g.backward(loss);
            let gx = g.grad(xn).unwrap().clone();
            let gw = g.grad(wn).unwrap().clone();

            let eps = 1e-2f32;
            // Spot-check a few coordinates of each gradient.
            for &i in &[0usize, 4, 8] {
                let mut xp = x.clone();
                xp.as_mut_slice()[i] += eps;
                let mut xm = x.clone();
                xm.as_mut_slice()[i] -= eps;
                let mut g1 = Graph::new();
                let (l1, ..) = forward(&mut g1, xp, y.clone(), w.clone());
                let mut g2 = Graph::new();
                let (l2, ..) = forward(&mut g2, xm, y.clone(), w.clone());
                let num = (g1.value(l1).item() - g2.value(l2).item()) / (2.0 * eps);
                let ana = gx.as_slice()[i];
                prop_assert!(
                    (num - ana).abs() < 2e-2 + 0.1 * num.abs().max(ana.abs()),
                    "x[{}]: numeric {} analytic {}",
                    i,
                    num,
                    ana
                );
            }
            for &i in &[0usize, 3, 5] {
                let mut wp = w.clone();
                wp.as_mut_slice()[i] += eps;
                let mut wm = w.clone();
                wm.as_mut_slice()[i] -= eps;
                let mut g1 = Graph::new();
                let (l1, ..) = forward(&mut g1, x.clone(), y.clone(), wp);
                let mut g2 = Graph::new();
                let (l2, ..) = forward(&mut g2, x.clone(), y.clone(), wm);
                let num = (g1.value(l1).item() - g2.value(l2).item()) / (2.0 * eps);
                let ana = gw.as_slice()[i];
                prop_assert!(
                    (num - ana).abs() < 2e-2 + 0.1 * num.abs().max(ana.abs()),
                    "w[{}]: numeric {} analytic {}",
                    i,
                    num,
                    ana
                );
            }
            Ok(())
        },
    );
}

#[test]
fn backward_leaves_untouched_inputs_without_gradients() {
    check(
        "backward_leaves_untouched_inputs_without_gradients",
        DEFAULT_CASES,
        |gen| {
            let a = small_mat(gen, 2, 2);
            let b = small_mat(gen, 2, 2);
            let mut g = Graph::new();
            let xa = g.constant(a);
            let xb = g.constant(b); // never consumed
            let sq = g.square(xa);
            let loss = g.sum_all(sq);
            g.backward(loss);
            prop_assert!(g.grad(xa).is_some());
            prop_assert!(g.grad(xb).is_none());
            Ok(())
        },
    );
}

/// Serial triple-loop reference for the parallel matmul family.
fn naive_matmul(a: &Mat, b: &Mat) -> Vec<f32> {
    let (n, k, m) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0f32; n * m];
    for i in 0..n {
        for j in 0..m {
            let mut acc = 0f64;
            for kk in 0..k {
                acc += a.get(i, kk) as f64 * b.get(kk, j) as f64;
            }
            out[i * m + j] = acc as f32;
        }
    }
    out
}

#[test]
fn matmul_family_matches_serial_reference() {
    check(
        "matmul_family_matches_serial_reference",
        DEFAULT_CASES,
        |g| {
            let n = g.len_in(1, 9);
            let k = g.len_in(1, 11);
            let m = g.len_in(1, 8);
            let a = small_mat(g, n, k);
            let b = small_mat(g, k, m);
            let want = naive_matmul(&a, &b);
            for (x, y) in a.matmul(&b).as_slice().iter().zip(&want) {
                prop_assert!((x - y).abs() < 1e-3);
            }
            // a × (bᵀ)ᵀ = a × b, via the nt kernel.
            for (x, y) in a.matmul_nt(&b.transpose()).as_slice().iter().zip(&want) {
                prop_assert!((x - y).abs() < 1e-3);
            }
            // (aᵀ)ᵀ × b = a × b, via the tn kernel.
            let at = a.transpose();
            for (x, y) in at.matmul_tn(&b).as_slice().iter().zip(&want) {
                prop_assert!((x - y).abs() < 1e-3);
            }
            Ok(())
        },
    );
}

/// A `rows × cols` matrix of [`Gen::signed_zero_f32s`].
fn signed_zero_mat(g: &mut Gen, rows: usize, cols: usize) -> Mat {
    Mat::from_vec(rows, cols, g.signed_zero_f32s(rows * cols))
}

/// `matmul_nt` is specified as `matmul` over the transposed right operand:
/// every element accumulates in ascending `k`, bit for bit. `k` and `m`
/// walk every width class of `matmul` (the `dot8` column, the lane widths,
/// the generic fallback) with and without a tail, and 70 rows span two
/// parallel chunks.
#[test]
fn matmul_nt_is_matmul_of_transpose_bit_for_bit() {
    check("matmul_nt_is_matmul_of_transpose_bit_for_bit", 3, |g| {
        for k in [1usize, 7, 8, 9, 16, 17, 32, 64, 300] {
            for m in [1usize, 7, 8, 16, 32, 61, 64, 256] {
                let n = if k == 16 && m == 64 { 70 } else { 3 };
                let a = signed_zero_mat(g, n, k);
                let b = signed_zero_mat(g, m, k);
                let got = a.matmul_nt(&b);
                let want = a.matmul(&b.transpose());
                for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                    prop_assert!(
                        x.to_bits() == y.to_bits(),
                        "k={} m={} element {}: {:e} vs {:e}",
                        k,
                        m,
                        i,
                        x,
                        y
                    );
                }
            }
        }
        Ok(())
    });
}

/// `ScaleByScalar`'s factor gradient is `dot8(g, a)` bit for bit: the loss
/// `Σ k ⊙ (s · a)` hands the op `g = k` exactly, at lengths with and
/// without whole 8- and 16-blocks.
#[test]
fn scale_by_scalar_factor_gradient_is_dot8_bit_for_bit() {
    check(
        "scale_by_scalar_factor_gradient_is_dot8_bit_for_bit",
        DEFAULT_CASES,
        |gen| {
            let rows = gen.len_in(1, 40);
            let cols = gen.len_in(1, 9);
            let a = signed_zero_mat(gen, rows, cols);
            let k = signed_zero_mat(gen, rows, cols);
            let want = graphaug_tensor::dot8(k.as_slice(), a.as_slice());
            let mut g = Graph::new();
            let an = g.constant(a);
            let s = g.constant(Mat::scalar(gen.random_range(-2.0f32..2.0)));
            let y = g.scale_by_scalar(an, s);
            let ky = g.mul_const(y, Arc::new(k));
            let loss = g.sum_all(ky);
            g.backward(loss);
            let got = g.grad(s).unwrap().item();
            prop_assert!(
                got.to_bits() == want.to_bits(),
                "{rows}x{cols}: tape {got:e} vs dot8 {want:e}"
            );
            Ok(())
        },
    );
}

/// The ops whose backward adds `c·g` into an operand's gradient in place
/// reproduce clone-then-add bit for bit: for each, a leaf takes its first
/// gradient from a later consumer (`x ⊙ k2`, so the slot is populated) and
/// then the op's `c·g` with `g = k1`; the expected bits are the old
/// `k2 + 1.0·(g.map(c·x))`. A second leaf reached only through the op
/// checks the empty-slot path (`g.map(c·x)` itself).
#[test]
fn in_place_gradient_accumulation_matches_clone_then_add_bit_for_bit() {
    check(
        "in_place_gradient_accumulation_matches_clone_then_add_bit_for_bit",
        DEFAULT_CASES,
        |gen| {
            let (rows, cols) = (gen.len_in(1, 12), gen.len_in(1, 12));
            let x = signed_zero_mat(gen, rows, cols);
            let other = signed_zero_mat(gen, rows, cols);
            let bias = signed_zero_mat(gen, 1, cols);
            let k1 = Arc::new(signed_zero_mat(gen, rows, cols));
            let k2 = Arc::new(signed_zero_mat(gen, rows, cols));
            let c = gen.random_range(-2.0f32..2.0);
            let sv = gen.random_range(-2.0f32..2.0);
            for op in 0..8 {
                let mut g = Graph::new();
                let xn = g.constant(x.clone());
                let on = g.constant(other.clone());
                // (output, factor on x's gradient, factor on `on`'s, if any)
                let (y, cx, co) = match op {
                    0 => (g.add(xn, on), 1.0, Some(1.0)),
                    1 => (g.sub(xn, on), 1.0, Some(-1.0)),
                    2 => (g.sub(on, xn), -1.0, Some(1.0)),
                    3 => (g.scale(xn, c), c, None),
                    4 => (g.add_scalar(xn, c), 1.0, None),
                    5 => (g.add_const(xn, Arc::new(other.clone())), 1.0, None),
                    6 => {
                        let s = g.constant(Mat::scalar(sv));
                        (g.scale_by_scalar(xn, s), sv, None)
                    }
                    _ => {
                        let b = g.constant(bias.clone());
                        (g.add_row_broadcast(xn, b), 1.0, None)
                    }
                };
                let ky = g.mul_const(y, Arc::clone(&k1));
                let l1 = g.sum_all(ky);
                let kx = g.mul_const(xn, Arc::clone(&k2));
                let l2 = g.sum_all(kx);
                let loss = g.add(l1, l2);
                g.backward(loss);

                let mut want = (*k2).clone();
                want.add_assign_scaled(&k1.map(|v| cx * v), 1.0);
                prop_assert!(
                    bits(g.grad(xn).unwrap()) == bits(&want),
                    "op {op}: populated slot"
                );
                if let Some(co) = co {
                    prop_assert!(
                        bits(g.grad(on).unwrap()) == bits(&k1.map(|v| co * v)),
                        "op {op}: empty slot"
                    );
                }
            }
            Ok(())
        },
    );
}

fn bits(m: &Mat) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `matmul_tn` below eight output columns: every element is the serial
/// ascending-k `f32` sum started at `0.0`, bit for bit — across the 256-step
/// k-blocking too.
#[test]
fn narrow_matmul_tn_is_the_serial_ascending_k_sum_bit_for_bit() {
    check(
        "narrow_matmul_tn_is_the_serial_ascending_k_sum_bit_for_bit",
        3,
        |g| {
            for m in [1usize, 3] {
                for k in [1usize, 5, 256, 257, 300, 1000] {
                    for n in [1usize, 7, 16, 70] {
                        let a = signed_zero_mat(g, k, n);
                        let b = signed_zero_mat(g, k, m);
                        let got = a.matmul_tn(&b);
                        for i in 0..n {
                            for j in 0..m {
                                let mut want = 0f32;
                                for kk in 0..k {
                                    want += a.get(kk, i) * b.get(kk, j);
                                }
                                prop_assert!(
                                    got.get(i, j).to_bits() == want.to_bits(),
                                    "k={} n={} m={} [{},{}]: kernel {:e} vs serial {:e}",
                                    k,
                                    n,
                                    m,
                                    i,
                                    j,
                                    got.get(i, j),
                                    want
                                );
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
}
