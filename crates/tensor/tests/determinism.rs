//! Thread-count and SIMD determinism suite.
//!
//! The parallel runtime's contract is that results are **bit-identical**
//! under any `GRAPHAUG_THREADS` *and* under either kernel build: chunking is
//! a function of the problem shape only, every output element is owned by
//! one chunk, and reduction orders are fixed inside the kernels — the AVX2
//! lane build and the scalar fallback execute the same fixed-order
//! arithmetic (explicit `F32x8` ops, no FMA). These tests run each rewritten
//! kernel — and a full forward + backward pass over the tape — at 1, 3, and
//! 4 workers and with SIMD force-disabled, comparing outputs and gradients
//! with exact equality.

use std::sync::Arc;
use std::sync::{Mutex, MutexGuard};

use graphaug_sparse::Csr;
use graphaug_tensor::{Graph, Mat, SpPair};

/// `set_thread_count`/`set_simd_enabled` are process-global; serialize the
/// tests that flip them. (The determinism contract makes concurrent flips
/// harmless for results, but serializing keeps each assertion about a
/// specific configuration honest.)
static THREAD_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn assert_same(name: &str, what: &str, base: &[Vec<f32>], got: &[Vec<f32>]) {
    assert_eq!(base.len(), got.len());
    for (i, (s, p)) in base.iter().zip(got).enumerate() {
        let same = s.len() == p.len() && s.iter().zip(p).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{name}: buffer {i} differs {what}");
    }
}

/// Runs `f` at 1, 3, and 4 workers and with the SIMD build force-disabled,
/// asserting every returned buffer is bitwise identical to the 1-worker
/// baseline in all configurations.
fn assert_config_invariant(name: &str, f: impl Fn() -> Vec<Vec<f32>>) {
    graphaug_par::set_thread_count(1);
    let baseline = f();
    for threads in [3usize, 4] {
        graphaug_par::set_thread_count(threads);
        assert_same(
            name,
            &format!("between 1 and {threads} threads"),
            &baseline,
            &f(),
        );
    }
    // Scalar fallback (SIMD off) at both serial and parallel thread counts.
    let was_on = graphaug_par::simd_enabled();
    graphaug_par::set_simd_enabled(false);
    assert_same(name, "between SIMD and scalar (4 threads)", &baseline, &f());
    graphaug_par::set_thread_count(1);
    assert_same(name, "between SIMD and scalar (1 thread)", &baseline, &f());
    graphaug_par::set_simd_enabled(was_on);
}

/// Deterministic pseudo-random fill (no RNG dependency needed).
fn fill(n: usize, scale: f32) -> Vec<f32> {
    (0..n)
        .map(|i| (i as f32 * 0.7311 + 0.137).sin() * scale)
        .collect()
}

/// A moderately irregular sparse pattern: ~6 entries per row.
fn test_csr(n_rows: usize, n_cols: usize) -> Csr {
    let mut triplets = Vec::new();
    for r in 0..n_rows as u32 {
        for k in 0..6u32 {
            let c = (r * 7 + k * 13 + (r % 5)) % n_cols as u32;
            triplets.push((r, c, ((r + k) as f32 * 0.31).cos()));
        }
    }
    Csr::from_coo(n_rows, n_cols, triplets)
}

/// A denser pattern whose row lengths cycle through 0, 3, 8, 13, 21 and 40
/// entries, so `spmm_ew_dw`'s eight-entries-at-a-time passes run — once,
/// several times, with and without leftover entries — which the ~6-entry
/// rows of [`test_csr`] never reach.
fn dense_rows_csr(n_rows: usize, n_cols: usize) -> Csr {
    assert!(n_cols > 40, "rows of 40 distinct columns");
    let mut triplets = Vec::new();
    for r in 0..n_rows as u32 {
        let len = [0u32, 3, 8, 13, 21, 40][r as usize % 6];
        for k in 0..len {
            let c = (r * 11 + k * (n_cols as u32 / len)) % n_cols as u32;
            triplets.push((r, c, ((r + 3 * k) as f32 * 0.17).sin()));
        }
    }
    Csr::from_coo(n_rows, n_cols, triplets)
}

/// Every output width class of the dense kernels: the dot8 column (m = 1),
/// each lane-specialized width (8/16/32/64), and the generic fallback (61);
/// `m = 1` is also `matmul_tn`'s narrow path. The inner dimensions are the
/// ones training uses — 1 and 16 (the edge MLP's output layer and its
/// hidden width), 32 (the embedding width) — plus 24 (an odd count of
/// 8-blocks) and `k = 300 > 256`, which also exercises `matmul_tn`'s
/// kk-blocking.
#[test]
fn matmul_family_is_config_invariant() {
    let _g = lock();
    let n = 193usize;
    for k in [1usize, 16, 24, 32, 300] {
        let a = Mat::from_vec(n, k, fill(n * k, 1.3));
        let tall = Mat::from_vec(k, n, fill(k * n, 0.7));
        for m in [1usize, 8, 16, 32, 64, 61] {
            let b = Mat::from_vec(k, m, fill(k * m, 0.9));
            let bt = Mat::from_vec(m, k, fill(m * k, 1.1));
            assert_config_invariant(&format!("matmul k={k} m={m}"), || {
                vec![a.matmul(&b).into_vec()]
            });
            assert_config_invariant(&format!("matmul_nt k={k} m={m}"), || {
                vec![a.matmul_nt(&bt).into_vec()]
            });
            assert_config_invariant(&format!("matmul_tn k={k} m={m}"), || {
                vec![tall.matmul_tn(&b).into_vec()]
            });
        }
    }
}

#[test]
fn spmm_kernels_are_config_invariant() {
    let _g = lock();
    for (pattern, m) in [
        ("~6 a row", test_csr(517, 301)),
        ("0..40 a row", dense_rows_csr(517, 301)),
    ] {
        // d = 8/16/32/64 exercise the width-specialized kernels, d = 7 the
        // generic one.
        for d in [8usize, 16, 32, 64, 7] {
            let dense = fill(301 * d, 1.7);
            let w = fill(m.nnz(), 0.8);
            let dy = fill(517 * d, 1.2);
            assert_config_invariant(&format!("spmm_into d={d}, {pattern}"), || {
                let mut out = vec![0f32; 517 * d];
                m.spmm_into(&dense, d, &mut out);
                let mut acc = out.clone();
                m.spmm_acc_into(&dense, d, &mut acc);
                vec![out, acc]
            });
            assert_config_invariant(&format!("spmm_ew_into d={d}, {pattern}"), || {
                let mut out = vec![0f32; 517 * d];
                m.spmm_ew_into(&w, &dense, d, &mut out);
                vec![out]
            });
            assert_config_invariant(&format!("spmm_ew_grads d={d}, {pattern}"), || {
                let mut dw = vec![0f32; m.nnz()];
                m.spmm_ew_dw_into(&dense, &dy, d, &mut dw);
                let mut dh = vec![0f32; 301 * d];
                m.spmm_ew_dh_acc_into(&w, &dy, d, &mut dh);
                vec![dw, dh]
            });
        }
    }
}

/// The edge scorer's first layer: both halves of a `2d × h` weight sliced
/// off by rows, every node projected through each, the projections
/// gathered per edge and summed — forward values and every gradient,
/// including the scatter-adds of `gather_rows` and the in-place adds of
/// `slice_rows`. `d = 16` gives whole 8-lanes, `d = 10` does not.
#[test]
fn slice_rows_and_gather_rows_are_config_invariant() {
    let _g = lock();
    let n_src = 400usize;
    let left: Arc<Vec<u32>> = Arc::new((0..900).map(|e| (e * 17) % n_src as u32).collect());
    let right: Arc<Vec<u32>> = Arc::new((0..900).map(|e| (e * 29 + 3) % n_src as u32).collect());
    for d in [16usize, 10] {
        let src = fill(n_src * d, 1.0);
        let w = fill(2 * d * 16, 0.6);
        assert_config_invariant(&format!("slice_rows + gather_rows d={d}"), || {
            let mut g = Graph::new();
            let x = g.constant(Mat::from_vec(n_src, d, src.clone()));
            let w1 = g.constant(Mat::from_vec(2 * d, 16, w.clone()));
            let top = g.slice_rows(w1, 0, d);
            let bottom = g.slice_rows(w1, d, 2 * d);
            let p = g.matmul(x, top);
            let q = g.matmul(x, bottom);
            let pl = g.gather_rows(p, Arc::clone(&left));
            let qr = g.gather_rows(q, Arc::clone(&right));
            let z = g.add(pl, qr);
            let sq = g.square(z);
            let loss = g.mean_all(sq);
            g.backward(loss);
            vec![
                g.value(z).as_slice().to_vec(),
                g.grad(x).expect("x grad").as_slice().to_vec(),
                g.grad(w1).expect("w1 grad").as_slice().to_vec(),
            ]
        });
    }
}

/// End-to-end: a tape mixing dense matmuls, constant and edge-weighted SpMM,
/// and the edge scorer's per-node projections and per-edge gathers must
/// produce bit-identical forward values *and* gradients under every thread
/// count and kernel build.
#[test]
fn tape_forward_and_backward_are_config_invariant() {
    let _g = lock();
    let n = 180usize;
    let d = 32usize;
    let m = test_csr(n, n);
    let sp = SpPair::new(m.clone());
    let pattern = Arc::new(m);
    let left: Arc<Vec<u32>> = Arc::new((0..300).map(|e| (e * 7) % n as u32).collect());
    let right: Arc<Vec<u32>> = Arc::new((0..300).map(|e| (e * 11 + 5) % n as u32).collect());

    let run = || {
        let mut g = Graph::new();
        let h = g.constant(Mat::from_vec(n, d, fill(n * d, 1.0)));
        let w_mlp = g.constant(Mat::from_vec(d, d, fill(d * d, 0.4)));
        let ew = g.constant(Mat::from_vec(pattern.nnz(), 1, fill(pattern.nnz(), 0.5)));
        let w1 = g.constant(Mat::from_vec(2 * d, 16, fill(2 * d * 16, 0.3)));
        let w2 = g.constant(Mat::from_vec(16, 1, fill(16, 0.7)));

        let prop = g.spmm(&sp, h);
        let mixed = g.spmm_ew(Arc::clone(&pattern), ew, prop);
        let dense = g.matmul(mixed, w_mlp);
        let w1_user = g.slice_rows(w1, 0, d);
        let w1_item = g.slice_rows(w1, d, 2 * d);
        let p = g.matmul(dense, w1_user);
        let q = g.matmul(dense, w1_item);
        let pl = g.gather_rows(p, Arc::clone(&left));
        let qr = g.gather_rows(q, Arc::clone(&right));
        let z1 = g.add(pl, qr);
        let hidden = g.leaky_relu(z1, 0.2);
        let logits = g.matmul(hidden, w2);
        let sq = g.square(logits);
        let loss = g.mean_all(sq);
        g.backward(loss);

        vec![
            g.value(dense).as_slice().to_vec(),
            g.value(logits).as_slice().to_vec(),
            g.grad(h).expect("h grad").as_slice().to_vec(),
            g.grad(ew).expect("ew grad").as_slice().to_vec(),
            g.grad(w_mlp).expect("w grad").as_slice().to_vec(),
            g.grad(w1).expect("w1 grad").as_slice().to_vec(),
            g.grad(w2).expect("w2 grad").as_slice().to_vec(),
        ]
    };
    assert_config_invariant("tape_end_to_end", run);
}

/// The tape can be rewound and re-recorded: the suffix after `truncate` is
/// dropped and recording the same ops again reproduces identical values.
#[test]
fn tape_truncate_rewinds_cleanly() {
    let mut g = Graph::new();
    let a = g.constant(Mat::from_vec(5, 8, fill(40, 1.0)));
    let w = g.constant(Mat::from_vec(8, 8, fill(64, 0.5)));
    let base_len = g.len();

    let y1 = g.matmul(a, w);
    let first = g.value(y1).clone();
    g.truncate(base_len);
    assert_eq!(g.len(), base_len);

    let y2 = g.matmul(a, w);
    assert_eq!(&first, g.value(y2));
}
