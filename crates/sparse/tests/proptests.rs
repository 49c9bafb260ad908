//! Property-based tests for the CSR invariants and algebra.
//!
//! Runs on the in-repo property runner (`graphaug_rng::prop`) — seeded case
//! generation, shrink-by-halving, replayable failure seeds.

use graphaug_rng::prop::{check, Gen, DEFAULT_CASES};
use graphaug_rng::{prop_assert, prop_assert_eq};
use graphaug_sparse::{bipartite_adjacency, sym_norm, Csr};

/// Generator: a random COO triplet list within an `r × c` bound, values
/// clamped to `[-10, 10]`.
fn coo(g: &mut Gen, max_r: usize, max_c: usize, max_len: usize) -> Vec<(u32, u32, f32)> {
    let n = g.len_in(0, max_len);
    g.vec_of(n, |g| {
        (
            g.random_range(0..max_r as u32),
            g.random_range(0..max_c as u32),
            g.random_range(-10.0f32..10.0),
        )
    })
}

/// Generator: a random `(user, item)` edge list.
fn edge_list(g: &mut Gen, max_u: u32, max_v: u32, lo: usize, hi: usize) -> Vec<(u32, u32)> {
    let n = g.len_in(lo, hi);
    g.vec_of(n, |g| (g.random_range(0..max_u), g.random_range(0..max_v)))
}

#[test]
fn from_coo_always_satisfies_invariants() {
    check("from_coo_always_satisfies_invariants", DEFAULT_CASES, |g| {
        let t = coo(g, 8, 9, 60);
        let m = Csr::from_coo(8, 9, t);
        prop_assert!(m.check_invariants().is_ok());
        Ok(())
    });
}

#[test]
fn transpose_is_involutive() {
    check("transpose_is_involutive", DEFAULT_CASES, |g| {
        let t = coo(g, 7, 5, 60);
        let m = Csr::from_coo(7, 5, t);
        let tt = m.transpose().transpose();
        prop_assert_eq!(m, tt);
        Ok(())
    });
}

#[test]
fn nnz_bounded_by_triplet_count() {
    check("nnz_bounded_by_triplet_count", DEFAULT_CASES, |g| {
        let t = coo(g, 6, 6, 60);
        let n = t.len();
        let m = Csr::from_coo(6, 6, t);
        prop_assert!(m.nnz() <= n);
        Ok(())
    });
}

#[test]
fn spmm_matches_dense_reference() {
    check("spmm_matches_dense_reference", DEFAULT_CASES, |g| {
        let t = coo(g, 5, 4, 60);
        let dense = g.vec_of(4 * 3, |g| g.random_range(-5.0f32..5.0));
        let m = Csr::from_coo(5, 4, t);
        let got = m.spmm(&dense, 3);
        let dm = m.to_dense();
        for r in 0..5 {
            for k in 0..3 {
                let want: f32 = (0..4).map(|c| dm[r * 4 + c] * dense[c * 3 + k]).sum();
                prop_assert!((got[r * 3 + k] - want).abs() < 1e-3);
            }
        }
        Ok(())
    });
}

#[test]
fn spmm_is_linear() {
    check("spmm_is_linear", DEFAULT_CASES, |g| {
        let t = coo(g, 5, 4, 60);
        let x = g.vec_of(4, |g| g.random_range(-3.0f32..3.0));
        let y = g.vec_of(4, |g| g.random_range(-3.0f32..3.0));
        let m = Csr::from_coo(5, 4, t);
        let sum: Vec<f32> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let lhs = m.spmv(&sum);
        let (mx, my) = (m.spmv(&x), m.spmv(&y));
        for i in 0..5 {
            prop_assert!((lhs[i] - (mx[i] + my[i])).abs() < 1e-3);
        }
        Ok(())
    });
}

#[test]
fn sym_norm_is_symmetric() {
    check("sym_norm_is_symmetric", DEFAULT_CASES, |g| {
        let edges = edge_list(g, 5, 6, 1, 30);
        let adj = bipartite_adjacency(5, 6, &edges);
        let n = sym_norm(&adj, true);
        let d = n.to_dense();
        let dim = 11;
        for r in 0..dim {
            for c in 0..dim {
                prop_assert!((d[r * dim + c] - d[c * dim + r]).abs() < 1e-6);
            }
        }
        Ok(())
    });
}

#[test]
fn bipartite_adjacency_degree_matches_edge_multiset() {
    check(
        "bipartite_adjacency_degree_matches_edge_multiset",
        DEFAULT_CASES,
        |g| {
            use std::collections::HashSet;
            let edges = edge_list(g, 4, 4, 0, 20);
            let uniq: HashSet<_> = edges.iter().copied().collect();
            let adj = bipartite_adjacency(4, 4, &edges);
            // Each unique undirected edge contributes 2 stored entries.
            prop_assert_eq!(adj.nnz(), uniq.len() * 2);
            Ok(())
        },
    );
}

#[test]
fn spmm_ew_matches_with_data_spmm() {
    check("spmm_ew_matches_with_data_spmm", DEFAULT_CASES, |g| {
        let t = coo(g, 6, 5, 60);
        let m = Csr::from_coo(6, 5, t);
        let d = g.len_in(1, 9);
        let w = g.vec_of(m.nnz(), |g| g.random_range(-2.0f32..2.0));
        let dense = g.vec_of(5 * d, |g| g.random_range(-3.0f32..3.0));
        let mut got = vec![0f32; 6 * d];
        m.spmm_ew_into(&w, &dense, d, &mut got);
        let want = m.with_data(w).spmm(&dense, d);
        for (a, b) in got.iter().zip(&want) {
            prop_assert!((a - b).abs() < 1e-4);
        }
        Ok(())
    });
}

#[test]
fn spmm_ew_gradients_match_dense_reference() {
    check(
        "spmm_ew_gradients_match_dense_reference",
        DEFAULT_CASES,
        |g| {
            let t = coo(g, 6, 5, 40);
            let m = Csr::from_coo(6, 5, t);
            let d = g.len_in(1, 9);
            let w = g.vec_of(m.nnz(), |g| g.random_range(-2.0f32..2.0));
            let h = g.vec_of(5 * d, |g| g.random_range(-2.0f32..2.0));
            let dy = g.vec_of(6 * d, |g| g.random_range(-2.0f32..2.0));

            let mut dw = vec![0f32; m.nnz()];
            m.spmm_ew_dw_into(&h, &dy, d, &mut dw);
            let mut dh = vec![0f32; 5 * d];
            m.spmm_ew_dh_acc_into(&w, &dy, d, &mut dh);

            // Serial references straight from the definitions.
            let coo_entries = m.to_coo();
            for (e, (r, c, _)) in coo_entries.iter().enumerate() {
                let want: f32 = (0..d)
                    .map(|j| dy[*r as usize * d + j] * h[*c as usize * d + j])
                    .sum();
                prop_assert!((dw[e] - want).abs() < 1e-3, "dw[{}]", e);
            }
            let mut want_dh = vec![0f32; 5 * d];
            for (e, (r, c, _)) in coo_entries.iter().enumerate() {
                for j in 0..d {
                    want_dh[*c as usize * d + j] += w[e] * dy[*r as usize * d + j];
                }
            }
            for (a, b) in dh.iter().zip(&want_dh) {
                prop_assert!((a - b).abs() < 1e-3);
            }
            Ok(())
        },
    );
}

#[test]
fn spmm_wide_operands_match_dense_reference() {
    // Exercises both the width-specialized (8/16/32/64) and generic kernels
    // against the dense definition on random shapes.
    check("spmm_wide_operands_match_dense_reference", 32, |g| {
        let rows = g.len_in(1, 12);
        let cols = g.len_in(1, 10);
        let t = coo(g, rows, cols, 50);
        let m = Csr::from_coo(rows, cols, t);
        for d in [3usize, 8, 16, 32, 64] {
            let dense = g.vec_of(cols * d, |g| g.random_range(-2.0f32..2.0));
            let got = m.spmm(&dense, d);
            let dm = m.to_dense();
            for r in 0..rows {
                for k in 0..d {
                    let want: f32 = (0..cols).map(|c| dm[r * cols + c] * dense[c * d + k]).sum();
                    prop_assert!((got[r * d + k] - want).abs() < 1e-3);
                }
            }
        }
        Ok(())
    });
}

/// The definition of the `spmm_ew` weight gradient, kept only here: one
/// `dot8(dY[row], H[col])` per stored entry. The kernel takes a row's
/// entries eight at a time at the lane widths; this fails if that ever
/// changes a multiply, an add or their association. Row lengths cover no
/// entries, leftovers only (1, 7), exactly one eight, eights plus leftovers
/// (9, 17) and several eights (40); the inputs are
/// `Gen::signed_zero_f32s`.
#[test]
fn spmm_ew_dw_is_dot8_per_entry_bit_for_bit() {
    check("spmm_ew_dw_is_dot8_per_entry_bit_for_bit", 6, |g| {
        let row_lens = [0usize, 1, 7, 8, 9, 17, 40];
        let n_cols = 53usize;
        // 70 rows span two parallel chunks; lengths cycle through the list.
        let n_rows = 70usize;
        let mut triplets = Vec::new();
        for r in 0..n_rows {
            let len = row_lens[r % row_lens.len()];
            let stride = 1 + g.random_range(0..(n_cols / len.max(1)).max(1) as u32);
            let first = g.random_range(0..n_cols as u32);
            for t in 0..len as u32 {
                triplets.push((r as u32, (first + t * stride) % n_cols as u32, 1.0));
            }
        }
        let m = Csr::from_coo(n_rows, n_cols, triplets);
        for r in 0..n_rows {
            prop_assert_eq!(m.row(r).0.len(), row_lens[r % row_lens.len()]);
        }
        for d in [7usize, 8, 16, 32, 64] {
            let h = g.signed_zero_f32s(n_cols * d);
            let dy = g.signed_zero_f32s(n_rows * d);
            let mut dw = vec![f32::NAN; m.nnz()];
            m.spmm_ew_dw_into(&h, &dy, d, &mut dw);
            for (e, (r, c, _)) in m.to_coo().iter().enumerate() {
                let (r, c) = (*r as usize, *c as usize);
                let want = graphaug_par::dot8(&dy[r * d..(r + 1) * d], &h[c * d..(c + 1) * d]);
                prop_assert!(
                    dw[e].to_bits() == want.to_bits(),
                    "d={} entry {} ({},{}) of a {}-entry row: kernel {:e} vs dot8 {:e}",
                    d,
                    e,
                    r,
                    c,
                    m.row(r).0.len(),
                    dw[e],
                    want
                );
            }
        }
        Ok(())
    });
}
