//! Dense row-major `f32` matrices.
//!
//! `Mat` is the single dense container used by the autodiff tape, the
//! optimizers, and every model in the workspace. It is deliberately simple —
//! a shape plus a `Vec<f32>` — with the handful of BLAS-like kernels the
//! GNN training loop needs (`matmul`, `matmul_nt`, `matmul_tn`).
//!
//! The matmul family runs on the `graphaug-par` runtime: output rows are
//! split into fixed chunks (a function of the shape only, never the thread
//! count) and each chunk is computed by one worker into its disjoint output
//! slice, with the k-reduction order fixed inside the kernel — so results
//! are bit-identical under any `GRAPHAUG_THREADS`. Each span kernel is
//! compiled twice from one fixed-order body — an AVX2 lane build and a
//! scalar fallback — and dispatched at runtime (`graphaug_par::simd`). The
//! bodies are either explicit [`F32x8`] arithmetic with fixed reduction
//! trees, or plain loops over contiguous slices that the compiler
//! vectorises across *outputs*; there is no FMA and no fast-math flag, so
//! nothing may be fused or reassociated and the two builds are
//! bit-identical too.
//!
//! Per-element orders: `matmul` (widths > 1) accumulates in ascending k, and
//! so does `matmul_tn` (its lane widths per 256-step block — see
//! `matmul_tn_span`). The width-1 `matmul` column is [`graphaug_par::dot8`].
//! `matmul_nt` is `matmul` over a transposed copy of its right operand, so
//! it has exactly `matmul`'s orders.

use graphaug_par::{dot8, simd_dispatch, F32x8};

/// A dense `rows × cols` matrix stored in row-major order.
///
/// Backing buffers of tape-sized matrices are recycled through a bounded
/// thread-local pool ([`crate::pool`]): dropping a `Mat` offers its buffer
/// back, and every constructor takes (and fully initializes) a pooled buffer
/// before allocating fresh memory.
#[derive(Debug, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Mat {
    fn clone(&self) -> Self {
        let mut data = crate::pool::take(self.data.len());
        data.extend_from_slice(&self.data);
        Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Drop for Mat {
    fn drop(&mut self) {
        crate::pool::put(std::mem::take(&mut self.data));
    }
}

impl Mat {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let n = rows * cols;
        let mut data = crate::pool::take(n);
        data.resize(n, 0.0);
        Mat { rows, cols, data }
    }

    /// All-`v` matrix.
    pub fn filled(rows: usize, cols: usize, v: f32) -> Self {
        let n = rows * cols;
        let mut data = crate::pool::take(n);
        data.resize(n, v);
        Mat { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Mat { rows, cols, data }
    }

    /// Builds a matrix element-wise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = crate::pool::take(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Mat { rows, cols, data }
    }

    /// A 1×1 matrix holding a scalar.
    pub fn scalar(v: f32) -> Self {
        Mat::from_vec(1, 1, vec![v])
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the backing buffer.
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Single scalar value of a 1×1 matrix.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 matrix");
        self.data[0]
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Mat {
        let mut data = crate::pool::take(self.data.len());
        data.extend(self.data.iter().map(|&v| f(v)));
        Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise combination of two equal-shaped matrices.
    pub fn zip_map(&self, other: &Mat, f: impl Fn(f32, f32) -> f32) -> Mat {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        let mut data = crate::pool::take(self.data.len());
        data.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// `self += alpha * other` in place.
    pub fn add_assign_scaled(&mut self, other: &Mat, alpha: f32) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_assign_scaled shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Dense matmul `self × other`, parallel over fixed chunks of output
    /// rows. Within a row, four k-steps are folded into each pass over the
    /// output row; the per-element summation order depends only on k.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = Mat::zeros(n, m);
        if m > 0 {
            graphaug_par::parallel_rows(out.as_mut_slice(), m, |row0, rows| {
                matmul_span(&self.data, &other.data, k, m, row0, rows);
            });
        }
        out
    }

    /// `self × otherᵀ`: [`Mat::matmul`] over `other` transposed once per call
    /// (at most 32 KB at every training shape), so it has `matmul`'s
    /// per-element orders — bit for bit `self.matmul(&other.transpose())`.
    pub fn matmul_nt(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.cols, "matmul_nt inner dimension mismatch");
        self.matmul(&other.transpose())
    }

    /// `selfᵀ × other` without materializing the transpose, parallel over
    /// fixed chunks of output rows (columns of `self`). The k-reduction for
    /// every output element runs in ascending-k order inside one chunk, so
    /// no cross-thread merging is needed.
    pub fn matmul_tn(&self, other: &Mat) -> Mat {
        assert_eq!(self.rows, other.rows, "matmul_tn inner dimension mismatch");
        let (k, n, m) = (self.rows, self.cols, other.cols);
        let mut out = Mat::zeros(n, m);
        if m > 0 {
            graphaug_par::parallel_rows(out.as_mut_slice(), m, |row0, rows| {
                matmul_tn_span(&self.data, &other.data, k, n, m, row0, rows);
            });
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Squared Frobenius norm.
    pub fn frob_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Maximum absolute element (0 for empty matrices).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0f32, |m, v| m.max(v.abs()))
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

simd_dispatch! {
    /// Span kernel of `A × B`: rows `row0..` of the output, each computed by
    /// a width-specialized lane kernel (8/16/32/64 columns — the embedding
    /// widths the workspace uses) or the 4-step axpy fallback. Per output
    /// element the summation order is ascending k in every variant except
    /// `m == 1` (which reduces through `dot8`'s fixed lane tree); each
    /// width's order is still fixed, so results are bit-identical across
    /// thread counts and the lane/scalar builds.
    fn matmul_span(a: &[f32], b: &[f32], k: usize, m: usize, row0: usize, rows: &mut [f32]) {
        for (i, orow) in rows.chunks_exact_mut(m).enumerate() {
            let arow = &a[(row0 + i) * k..(row0 + i) * k + k];
            match m {
                // m == 1: `b` is one contiguous column, so the row is a
                // plain dot product. Reduced through `dot8`'s lane tree —
                // the one matmul width whose summation order is *not*
                // ascending-k (a serial chain would cost k add-latencies
                // per row; the MLP output layer hits this shape hard).
                1 => orow[0] = dot8(arow, b),
                8 => matmul_row_lanes::<1, 4>(arow, b, k, orow),
                16 => matmul_row_lanes::<2, 4>(arow, b, k, orow),
                32 => matmul_row_lanes::<4, 2>(arow, b, k, orow),
                64 => matmul_row_lanes::<8, 1>(arow, b, k, orow),
                _ => matmul_row_axpy4(arow, b, k, m, orow),
            }
        }
    }
}

simd_dispatch! {
    /// Span kernel of `Aᵀ × B`. `matmul_tn`'s workloads are tall-`k` with
    /// tiny outputs (weight gradients), so the kernel blocks the reduction
    /// dimension: for each kk-block, row groups of the output accumulate in
    /// registers across the whole block (see [`matmul_tn_rows_lanes`]) and
    /// flush to memory once, keeping both operand streams cache-resident and
    /// the output traffic negligible.
    ///
    /// Three paths by output width `m`, every output row on exactly one of
    /// them as a function of the shape alone (the chunking never depends on
    /// the thread count), so results are bit-identical across thread counts
    /// and the lane/scalar builds:
    ///
    /// * 8/16/32/64 columns — the lane kernel, for the whole row groups of
    ///   the span: per element, each kk-block is summed from `0.0` in
    ///   ascending k and the block sums are added to the output in
    ///   ascending block order.
    /// * below 8 columns — [`matmul_tn_narrow`]: there is no 8-wide lane
    ///   along so short a row, so the lanes run down the span's output rows
    ///   instead; per element one ascending-k chain from the zeroed output.
    /// * every other width, and the rows a lane width's row grouping leaves
    ///   over — the scalar row-at-a-time loop at the bottom, the same
    ///   ascending-k chain into the output.
    ///
    /// Up to `k = 256` (one block) the three orders are one and the same: a
    /// lane element is `0.0 + (its chain from 0.0)`, and such a chain is
    /// never `-0.0`, the only value `0.0 +` would change. Longer `k` gives
    /// the lane rows per-block partial sums, the other two one chain.
    fn matmul_tn_span(a: &[f32], b: &[f32], k: usize, n: usize, m: usize, row0: usize, rows: &mut [f32]) {
        let span = rows.len() / m;
        // 256 k-steps × span columns of `A` stay L1/L2-resident across the
        // row-group passes of one block.
        let mut kkb = 0usize;
        while kkb < k {
            let kb = (k - kkb).min(256);
            // First output row of the span not yet covered for this block.
            let mut i0 = 0usize;
            match m {
                8 => {
                    while i0 + 8 <= span {
                        matmul_tn_rows_lanes::<1, 8>(a, b, n, row0 + i0, kkb, kb, rows, i0);
                        i0 += 8;
                    }
                }
                16 => {
                    while i0 + 4 <= span {
                        matmul_tn_rows_lanes::<2, 4>(a, b, n, row0 + i0, kkb, kb, rows, i0);
                        i0 += 4;
                    }
                }
                32 => {
                    while i0 + 2 <= span {
                        matmul_tn_rows_lanes::<4, 2>(a, b, n, row0 + i0, kkb, kb, rows, i0);
                        i0 += 2;
                    }
                }
                64 => {
                    while i0 < span {
                        matmul_tn_rows_lanes::<8, 1>(a, b, n, row0 + i0, kkb, kb, rows, i0);
                        i0 += 1;
                    }
                }
                1..=7 => {
                    matmul_tn_narrow(a, b, n, m, row0, kkb, kb, rows);
                    i0 = span;
                }
                // No lane kernel at this width: every row goes below.
                _ => {}
            }
            for ii in i0..span {
                let orow = &mut rows[ii * m..ii * m + m];
                for kk in kkb..kkb + kb {
                    let x = a[kk * n + row0 + ii];
                    let brow = &b[kk * m..kk * m + m];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += x * bv;
                    }
                }
            }
            kkb += kb;
        }
    }
}

/// One kk-block of `Aᵀ × B` for fewer than eight output columns (the edge
/// MLP's output layer is `hiddenᵀ × g` with one). The k-loop is outermost
/// and each step sweeps the span's output rows, which read one contiguous
/// stretch of `A`'s row `kk` — scaled by the single `b[kk]` when `m == 1`,
/// where the sweep is a plain `axpy` down the output column. Every element
/// still receives its terms one at a time in ascending k.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn matmul_tn_narrow(
    a: &[f32],
    b: &[f32],
    n: usize,
    m: usize,
    col0: usize,
    kk0: usize,
    kb: usize,
    rows: &mut [f32],
) {
    let span = rows.len() / m;
    for kk in kk0..kk0 + kb {
        let arow = &a[kk * n + col0..kk * n + col0 + span];
        let brow = &b[kk * m..kk * m + m];
        if m == 1 {
            let bv = brow[0];
            for (o, &x) in rows.iter_mut().zip(arow) {
                *o += x * bv;
            }
        } else {
            for (orow, &x) in rows.chunks_exact_mut(m).zip(arow) {
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += x * bv;
                }
            }
        }
    }
}

/// One kk-block of `Aᵀ × B` for `RB` output rows of `NL` 8-wide lanes:
/// the `RB × NL` accumulator file lives in registers for the whole block
/// (`RB·NL ≤ 8` by construction), each k-step broadcasting `RB` elements of
/// the `A` column span against one contiguous `B` row, and the file is
/// added into the output once at block end. Accumulation per element is a
/// single chain in ascending k, so the overall order is plain sequential-k.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn matmul_tn_rows_lanes<const NL: usize, const RB: usize>(
    a: &[f32],
    b: &[f32],
    n: usize,
    col0: usize,
    kk0: usize,
    kb: usize,
    rows: &mut [f32],
    i0: usize,
) {
    let m = NL * 8;
    let mut accs = [[F32x8::zero(); NL]; RB];
    for kk in kk0..kk0 + kb {
        let arow = &a[kk * n + col0..kk * n + col0 + RB];
        let brow = &b[kk * m..kk * m + m];
        for (r, acc) in accs.iter_mut().enumerate() {
            let x = F32x8::splat(arow[r]);
            for (l, lane) in acc.iter_mut().enumerate() {
                *lane = lane.mul_acc(x, F32x8::load(&brow[l * 8..]));
            }
        }
    }
    for (r, acc) in accs.iter().enumerate() {
        let orow = &mut rows[(i0 + r) * m..(i0 + r) * m + m];
        for (l, lane) in acc.iter().enumerate() {
            F32x8::load(&orow[l * 8..])
                .add(*lane)
                .store(&mut orow[l * 8..]);
        }
    }
}

/// One output row of `A × B` for a width of `NL` 8-wide lanes known at
/// compile time: the output row lives in `U` `[F32x8; NL]` accumulator
/// files across the whole k-loop (so B streams through once with no
/// intermediate stores), with file `u` taking the k-steps `≡ u (mod U)`,
/// remainder steps folded into file 0, and the files merged in ascending
/// file order. `U` is picked per width so `NL·U ≤ 8` accumulator registers
/// break the addition latency chain without spilling. The reduction order
/// is a fixed function of `(k, U)` — identical across thread counts and
/// between the lane and scalar builds.
#[inline(always)]
fn matmul_row_lanes<const NL: usize, const U: usize>(
    arow: &[f32],
    b: &[f32],
    k: usize,
    orow: &mut [f32],
) {
    let m = NL * 8;
    let mut files = [[F32x8::zero(); NL]; U];
    let mut kk = 0usize;
    while kk + U <= k {
        for (u, file) in files.iter_mut().enumerate() {
            let av = F32x8::splat(arow[kk + u]);
            let brow = &b[(kk + u) * m..(kk + u) * m + m];
            for (l, lane) in file.iter_mut().enumerate() {
                *lane = lane.mul_acc(av, F32x8::load(&brow[l * 8..]));
            }
        }
        kk += U;
    }
    while kk < k {
        let av = F32x8::splat(arow[kk]);
        let brow = &b[kk * m..kk * m + m];
        for (l, lane) in files[0].iter_mut().enumerate() {
            *lane = lane.mul_acc(av, F32x8::load(&brow[l * 8..]));
        }
        kk += 1;
    }
    for l in 0..NL {
        let mut acc = files[0][l];
        for file in files.iter().skip(1) {
            acc = acc.add(file[l]);
        }
        acc.store(&mut orow[l * 8..]);
    }
}

/// One output row of `A × B`: `orow = arow × B`, folding four k-steps into
/// each pass over `orow` in 8-wide lanes. The summation order for every
/// output element is ascending k regardless of how rows were chunked.
#[inline(always)]
fn matmul_row_axpy4(arow: &[f32], b: &[f32], k: usize, m: usize, orow: &mut [f32]) {
    let mut kk = 0usize;
    while kk + 4 <= k {
        let (a0, a1, a2, a3) = (arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3]);
        let b0 = &b[kk * m..kk * m + m];
        let b1 = &b[(kk + 1) * m..(kk + 1) * m + m];
        let b2 = &b[(kk + 2) * m..(kk + 2) * m + m];
        let b3 = &b[(kk + 3) * m..(kk + 3) * m + m];
        let (v0, v1, v2, v3) = (
            F32x8::splat(a0),
            F32x8::splat(a1),
            F32x8::splat(a2),
            F32x8::splat(a3),
        );
        let mut j = 0usize;
        while j + 8 <= m {
            let t = v0
                .mul(F32x8::load(&b0[j..]))
                .add(v1.mul(F32x8::load(&b1[j..])))
                .add(v2.mul(F32x8::load(&b2[j..])))
                .add(v3.mul(F32x8::load(&b3[j..])));
            F32x8::load(&orow[j..]).add(t).store(&mut orow[j..]);
            j += 8;
        }
        while j < m {
            orow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            j += 1;
        }
        kk += 4;
    }
    while kk < k {
        let a = arow[kk];
        let brow = &b[kk * m..kk * m + m];
        for (o, &x) in orow.iter_mut().zip(brow) {
            *o += a * x;
        }
        kk += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let m = Mat::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
        assert_eq!(Mat::scalar(7.0).item(), 7.0);
    }

    #[test]
    fn matmul_small_known_result() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Mat::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_nt_equals_matmul_of_transpose() {
        let a = Mat::from_fn(3, 4, |r, c| (r + c) as f32 * 0.3 - 1.0);
        let b = Mat::from_fn(2, 4, |r, c| (r * c) as f32 * 0.1 + 0.5);
        let got = a.matmul_nt(&b);
        let want = a.matmul(&b.transpose());
        for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_tn_equals_transpose_matmul() {
        let a = Mat::from_fn(4, 3, |r, c| (r as f32 - c as f32) * 0.25);
        let b = Mat::from_fn(4, 2, |r, c| (r + 2 * c) as f32 * 0.5);
        let got = a.matmul_tn(&b);
        let want = a.transpose().matmul(&b);
        for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_round_trips() {
        let m = Mat::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn add_assign_scaled_accumulates() {
        let mut a = Mat::filled(2, 2, 1.0);
        let b = Mat::filled(2, 2, 2.0);
        a.add_assign_scaled(&b, 0.5);
        assert_eq!(a.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn frob_sq_and_max_abs() {
        let m = Mat::from_vec(1, 3, vec![3.0, -4.0, 0.0]);
        assert_eq!(m.frob_sq(), 25.0);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        Mat::zeros(2, 3).matmul(&Mat::zeros(2, 3));
    }
}
