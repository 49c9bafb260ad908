//! Compressed sparse row matrices.
//!
//! The SpMM family (`spmm_into`, `spmm_ew_into`, and the `spmm_ew` gradient
//! kernels) runs on the `graphaug-par` runtime: output rows are partitioned
//! into fixed chunks, each chunk owns a disjoint slice of the output, and
//! every output element is accumulated in the same (ascending-entry) order
//! regardless of the thread count — so results are bit-identical under any
//! `GRAPHAUG_THREADS`. The inner loops run on explicit [`F32x8`] lanes for
//! the embedding widths the workspace actually uses (8/16/32/64 columns),
//! compiled through `simd_dispatch!` into an AVX2 build and a scalar build
//! of the same fixed-order source — the two are bit-identical, so
//! `GRAPHAUG_SIMD` is purely a performance knob. The `spmm_ew` weight
//! gradient is one [`dot8`] per stored entry, but at those widths it is not
//! evaluated one entry at a time: a row's entries go eight per pass, `dot8`'s
//! pair tree applied across the eight lane vectors instead of collapsing each
//! on its own — same bits, no horizontal reduction (see `spmm_dw_span`).

use graphaug_par::{dot8, simd_dispatch, F32x8};
use std::sync::OnceLock;

/// An immutable sparse matrix in CSR layout over `f32` values.
///
/// Invariants (checked by `debug_assert!` and property tests):
/// * `indptr.len() == n_rows + 1`, `indptr[0] == 0`, `indptr` is
///   non-decreasing and `indptr[n_rows] == indices.len() == data.len()`;
/// * column indices within each row are strictly increasing (no duplicates);
/// * every column index is `< n_cols`.
#[derive(Clone, Debug)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    data: Vec<f32>,
    /// Lazily-built transposed traversal plan for the edge-weighted SpMM
    /// backward pass (see [`TransposePlan`]). Excluded from equality; shared
    /// by clones via [`Csr::with_data`]/[`Csr::map_data`], which preserve
    /// the pattern.
    tplan: OnceLock<TransposePlan>,
}

impl PartialEq for Csr {
    fn eq(&self, other: &Self) -> bool {
        self.n_rows == other.n_rows
            && self.n_cols == other.n_cols
            && self.indptr == other.indptr
            && self.indices == other.indices
            && self.data == other.data
    }
}

/// A transposed traversal order over a [`Csr`] pattern: for every *column*
/// `c`, the original rows that store an entry in `c` and each entry's index
/// into the CSR value array.
///
/// This is what makes the `spmm_ew` dense-gradient reduction deterministic
/// and lock-free: `dH[c] = Σ_e w[entry(e)] · dY[src_row(e)]` walks entries
/// of column `c` only, so each `dH` row is owned by exactly one parallel
/// chunk and its accumulation order is fixed by the plan, not by the
/// scheduler.
#[derive(Clone, Debug)]
pub struct TransposePlan {
    /// Per column: span into `src_row`/`entry` (`len == n_cols + 1`).
    indptr: Vec<usize>,
    /// Original row of each transposed entry, grouped by column.
    src_row: Vec<u32>,
    /// Index of the entry in the original CSR `data`/`indices` arrays.
    entry: Vec<u32>,
}

impl Csr {
    /// Builds a CSR matrix from unsorted COO triplets `(row, col, value)`.
    ///
    /// Duplicate coordinates are combined by summing their values. Zeros are
    /// kept (the pattern may be meaningful even at value zero, e.g. a masked
    /// edge in a sampled view).
    pub fn from_coo(n_rows: usize, n_cols: usize, mut triplets: Vec<(u32, u32, f32)>) -> Self {
        for &(r, c, _) in &triplets {
            assert!(
                (r as usize) < n_rows && (c as usize) < n_cols,
                "triplet ({r},{c}) out of bounds for {n_rows}x{n_cols}"
            );
        }
        triplets.sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);

        let mut indptr = vec![0usize; n_rows + 1];
        let mut indices = Vec::with_capacity(triplets.len());
        let mut data: Vec<f32> = Vec::with_capacity(triplets.len());
        for (r, c, v) in triplets {
            if let (Some(&last_c), true) = (indices.last(), indptr[r as usize + 1] > 0) {
                // Same row as the previous entry and same column: merge.
                if last_c == c && indptr[r as usize + 1] == indices.len() {
                    *data.last_mut().expect("data parallel to indices") += v;
                    continue;
                }
            }
            indices.push(c);
            data.push(v);
            indptr[r as usize + 1] = indices.len();
        }
        // Forward-fill indptr for empty rows.
        for i in 1..=n_rows {
            if indptr[i] < indptr[i - 1] {
                indptr[i] = indptr[i - 1];
            }
        }
        Csr {
            n_rows,
            n_cols,
            indptr,
            indices,
            data,
            tplan: OnceLock::new(),
        }
    }

    /// Builds an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Csr {
            n_rows: n,
            n_cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            data: vec![1.0; n],
            tplan: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Column indices and values of row `i`.
    pub fn row(&self, i: usize) -> (&[u32], &[f32]) {
        let (s, e) = (self.indptr[i], self.indptr[i + 1]);
        (&self.indices[s..e], &self.data[s..e])
    }

    /// The raw row-pointer array.
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The raw column-index array.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The raw value array.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns a matrix with the same sparsity pattern but new values.
    ///
    /// This is the backbone of differentiable edge sampling: the augmentor
    /// produces one weight per stored edge and the encoder rebuilds the view
    /// adjacency around the fixed pattern.
    pub fn with_data(&self, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), self.nnz(), "value vector must match nnz");
        Csr {
            data,
            ..self.clone()
        }
    }

    /// Applies `f` to every stored value, returning a new matrix.
    pub fn map_data(&self, f: impl Fn(f32) -> f32) -> Self {
        self.with_data(self.data.iter().map(|&v| f(v)).collect())
    }

    /// Row of `(row, col, value)` triplets in row-major order.
    pub fn to_coo(&self) -> Vec<(u32, u32, f32)> {
        let mut out = Vec::with_capacity(self.nnz());
        for r in 0..self.n_rows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                out.push((r as u32, *c, *v));
            }
        }
        out
    }

    /// Out-degree (stored-entry count) of every row.
    pub fn row_degrees(&self) -> Vec<usize> {
        (0..self.n_rows)
            .map(|i| self.indptr[i + 1] - self.indptr[i])
            .collect()
    }

    /// Sum of stored values per row (weighted degree).
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.n_rows)
            .map(|i| self.row(i).1.iter().sum())
            .collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.n_cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 1..=self.n_cols {
            counts[i] += counts[i - 1];
        }
        let indptr = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0u32; self.nnz()];
        let mut data = vec![0f32; self.nnz()];
        for r in 0..self.n_rows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                let slot = cursor[*c as usize];
                indices[slot] = r as u32;
                data[slot] = *v;
                cursor[*c as usize] += 1;
            }
        }
        Csr {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            indptr,
            indices,
            data,
            tplan: OnceLock::new(),
        }
    }

    /// The transposed traversal plan of this pattern, built on first use and
    /// cached for the lifetime of the matrix (patterns are shared via `Arc`
    /// across training steps, so the counting sort is paid once, not per
    /// backward pass).
    pub fn transpose_plan(&self) -> &TransposePlan {
        self.tplan.get_or_init(|| {
            assert!(self.nnz() <= u32::MAX as usize, "pattern too large");
            let mut counts = vec![0usize; self.n_cols + 1];
            for &c in &self.indices {
                counts[c as usize + 1] += 1;
            }
            for i in 1..=self.n_cols {
                counts[i] += counts[i - 1];
            }
            let indptr = counts.clone();
            let mut cursor = counts;
            let mut src_row = vec![0u32; self.nnz()];
            let mut entry = vec![0u32; self.nnz()];
            for r in 0..self.n_rows {
                for e in self.indptr[r]..self.indptr[r + 1] {
                    let c = self.indices[e] as usize;
                    let slot = cursor[c];
                    src_row[slot] = r as u32;
                    entry[slot] = e as u32;
                    cursor[c] += 1;
                }
            }
            TransposePlan {
                indptr,
                src_row,
                entry,
            }
        })
    }

    /// Sparse × dense product: `out = self * dense`, where `dense` is a
    /// row-major `n_cols × d` buffer and `out` a row-major `n_rows × d`
    /// buffer. `out` is overwritten. Parallel over fixed row chunks.
    pub fn spmm_into(&self, dense: &[f32], d: usize, out: &mut [f32]) {
        assert_eq!(dense.len(), self.n_cols * d, "dense operand shape mismatch");
        assert_eq!(out.len(), self.n_rows * d, "output shape mismatch");
        graphaug_par::parallel_rows(out, d.max(1), |row0, rows| {
            spmm_span(
                &self.indptr,
                &self.indices,
                &self.data,
                dense,
                d,
                false,
                row0,
                rows,
            );
        });
    }

    /// Like [`Csr::spmm_into`] but accumulates (`out += self * dense`)
    /// instead of overwriting — the gradient-accumulation path of the tape.
    pub fn spmm_acc_into(&self, dense: &[f32], d: usize, out: &mut [f32]) {
        assert_eq!(dense.len(), self.n_cols * d, "dense operand shape mismatch");
        assert_eq!(out.len(), self.n_rows * d, "output shape mismatch");
        graphaug_par::parallel_rows(out, d.max(1), |row0, rows| {
            spmm_span(
                &self.indptr,
                &self.indices,
                &self.data,
                dense,
                d,
                true,
                row0,
                rows,
            );
        });
    }

    /// Edge-weighted sparse × dense product: the stored values are replaced
    /// by `w` (one weight per stored entry, CSR order). `out` is
    /// overwritten.
    pub fn spmm_ew_into(&self, w: &[f32], dense: &[f32], d: usize, out: &mut [f32]) {
        assert_eq!(w.len(), self.nnz(), "one weight per stored entry");
        assert_eq!(dense.len(), self.n_cols * d, "dense operand shape mismatch");
        assert_eq!(out.len(), self.n_rows * d, "output shape mismatch");
        graphaug_par::parallel_rows(out, d.max(1), |row0, rows| {
            spmm_span(&self.indptr, &self.indices, w, dense, d, false, row0, rows);
        });
    }

    /// Edge-weight gradient of the edge-weighted product:
    /// `dw[e] = dY[row(e)] · H[col(e)]` for every stored entry `e`.
    /// Entries are partitioned by output row, so each chunk writes a
    /// disjoint `dw` span and no merging is needed.
    pub fn spmm_ew_dw_into(&self, h: &[f32], dy: &[f32], d: usize, dw: &mut [f32]) {
        assert_eq!(h.len(), self.n_cols * d, "dense operand shape mismatch");
        assert_eq!(
            dy.len(),
            self.n_rows * d,
            "upstream gradient shape mismatch"
        );
        assert_eq!(dw.len(), self.nnz(), "one gradient per stored entry");
        let base = graphaug_par::SendMutPtr::new(dw);
        graphaug_par::parallel_spans(self.n_rows, |_, rr| {
            let (s, e) = (self.indptr[rr.start], self.indptr[rr.end]);
            // Safety: row spans are disjoint, so entry spans are disjoint.
            let dws = unsafe { base.slice_mut(s, e - s) };
            spmm_dw_span(&self.indptr, &self.indices, h, dy, d, rr.start, rr.end, dws);
        });
    }

    /// Dense-operand gradient of the edge-weighted product, accumulated:
    /// `dh[c] += Σ_{e : col(e) = c} w[e] · dY[row(e)]`.
    ///
    /// Uses the cached [`TransposePlan`] so each `dh` row is owned by one
    /// chunk and accumulated in plan order — deterministic for any thread
    /// count, with no per-thread scratch buffers to merge.
    pub fn spmm_ew_dh_acc_into(&self, w: &[f32], dy: &[f32], d: usize, dh: &mut [f32]) {
        assert_eq!(w.len(), self.nnz(), "one weight per stored entry");
        assert_eq!(
            dy.len(),
            self.n_rows * d,
            "upstream gradient shape mismatch"
        );
        assert_eq!(dh.len(), self.n_cols * d, "dense gradient shape mismatch");
        let plan = self.transpose_plan();
        graphaug_par::parallel_rows(dh, d.max(1), |row0, rows| {
            dh_span(
                &plan.indptr,
                &plan.src_row,
                &plan.entry,
                w,
                dy,
                d,
                row0,
                rows,
            );
        });
    }

    /// Sparse × dense product returning a fresh buffer.
    pub fn spmm(&self, dense: &[f32], d: usize) -> Vec<f32> {
        let mut out = vec![0f32; self.n_rows * d];
        self.spmm_into(dense, d, &mut out);
        out
    }

    /// Sparse × vector product.
    pub fn spmv(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.n_cols);
        (0..self.n_rows)
            .map(|r| {
                let (cols, vals) = self.row(r);
                cols.iter().zip(vals).map(|(c, v)| v * x[*c as usize]).sum()
            })
            .collect()
    }

    /// Densifies into a row-major buffer (testing helper; avoid in hot code).
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0f32; self.n_rows * self.n_cols];
        for r in 0..self.n_rows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                out[r * self.n_cols + *c as usize] = *v;
            }
        }
        out
    }

    /// Checks the structural invariants; used by tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.indptr.len() != self.n_rows + 1 {
            return Err("indptr length".into());
        }
        if self.indptr[0] != 0 || *self.indptr.last().unwrap() != self.indices.len() {
            return Err("indptr endpoints".into());
        }
        if self.indices.len() != self.data.len() {
            return Err("indices/data length mismatch".into());
        }
        for i in 0..self.n_rows {
            if self.indptr[i] > self.indptr[i + 1] {
                return Err(format!("indptr decreasing at row {i}"));
            }
            let (cols, _) = self.row(i);
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {i} columns not strictly increasing"));
                }
            }
            if let Some(&last) = cols.last() {
                if last as usize >= self.n_cols {
                    return Err(format!("row {i} column out of range"));
                }
            }
        }
        Ok(())
    }
}

simd_dispatch! {
    /// Span kernel of sparse × dense, reading entry values from `vals`
    /// (either the CSR's own data or an external per-entry weight vector).
    /// `acc` selects accumulate-into vs overwrite semantics at the final
    /// write-out only; the reduction itself is unaffected.
    #[allow(clippy::too_many_arguments)]
    fn spmm_span(indptr: &[usize], indices: &[u32], vals: &[f32], dense: &[f32], d: usize, acc: bool, row0: usize, rows: &mut [f32]) {
        match d {
            8 => spmm_span_lanes::<1>(indptr, indices, vals, dense, acc, row0, rows),
            16 => spmm_span_lanes::<2>(indptr, indices, vals, dense, acc, row0, rows),
            32 => spmm_span_lanes::<4>(indptr, indices, vals, dense, acc, row0, rows),
            64 => spmm_span_lanes::<8>(indptr, indices, vals, dense, acc, row0, rows),
            _ => spmm_span_generic(indptr, indices, vals, dense, d, acc, row0, rows),
        }
    }
}

/// Width-specialized SpMM row kernel over `NL` 8-wide lanes: the output row
/// lives in two `[F32x8; NL]` accumulator files (even/odd entries) across
/// all nonzeros, merged even-file + odd-file at the end. That is exactly
/// the scalar even/odd semantics the kernel has always had, so per output
/// element the value is a fixed function of the row — thread-invariant and
/// identical between the lane and scalar builds.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn spmm_span_lanes<const NL: usize>(
    indptr: &[usize],
    indices: &[u32],
    vals: &[f32],
    dense: &[f32],
    accumulate: bool,
    row0: usize,
    rows: &mut [f32],
) {
    let m = NL * 8;
    for (i, orow) in rows.chunks_exact_mut(m).enumerate() {
        let r = row0 + i;
        let (s, e) = (indptr[r], indptr[r + 1]);
        let mut acc = [F32x8::zero(); NL];
        let mut acc2 = [F32x8::zero(); NL];
        let (cols, vs) = (&indices[s..e], &vals[s..e]);
        let mut t = 0usize;
        // Safety (all gathers): every stored column index is < n_cols
        // (structural invariant enforced by `from_coo`) and the public
        // entry points assert `dense.len() == n_cols * d`.
        while t + 2 <= cols.len() {
            let (c0, c1) = (cols[t] as usize, cols[t + 1] as usize);
            let (v0, v1) = (F32x8::splat(vs[t]), F32x8::splat(vs[t + 1]));
            let d0 = unsafe { dense.get_unchecked(c0 * m..c0 * m + m) };
            let d1 = unsafe { dense.get_unchecked(c1 * m..c1 * m + m) };
            for l in 0..NL {
                acc[l] = acc[l].mul_acc(v0, F32x8::load(&d0[l * 8..]));
                acc2[l] = acc2[l].mul_acc(v1, F32x8::load(&d1[l * 8..]));
            }
            t += 2;
        }
        if t < cols.len() {
            let c0 = cols[t] as usize;
            let v0 = F32x8::splat(vs[t]);
            let d0 = unsafe { dense.get_unchecked(c0 * m..c0 * m + m) };
            for l in 0..NL {
                acc[l] = acc[l].mul_acc(v0, F32x8::load(&d0[l * 8..]));
            }
        }
        for (l, a) in acc.iter().enumerate() {
            let merged = a.add(acc2[l]);
            if accumulate {
                F32x8::load(&orow[l * 8..])
                    .add(merged)
                    .store(&mut orow[l * 8..]);
            } else {
                merged.store(&mut orow[l * 8..]);
            }
        }
    }
}

/// Generic-width SpMM row kernel: walks the row's nonzeros once per 64-lane
/// column block with a stack accumulator, preserving ascending entry order
/// per output element.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn spmm_span_generic(
    indptr: &[usize],
    indices: &[u32],
    vals: &[f32],
    dense: &[f32],
    d: usize,
    accumulate: bool,
    row0: usize,
    rows: &mut [f32],
) {
    if d == 0 {
        return;
    }
    for (i, orow) in rows.chunks_exact_mut(d).enumerate() {
        let r = row0 + i;
        let (s, e) = (indptr[r], indptr[r + 1]);
        let mut j0 = 0usize;
        while j0 < d {
            let w = (d - j0).min(64);
            let mut acc = [0f32; 64];
            for (c, &v) in indices[s..e].iter().zip(&vals[s..e]) {
                let drow = &dense[*c as usize * d + j0..*c as usize * d + j0 + w];
                for (a, x) in acc[..w].iter_mut().zip(drow) {
                    *a += v * x;
                }
            }
            if accumulate {
                for (o, a) in orow[j0..j0 + w].iter_mut().zip(&acc[..w]) {
                    *o += a;
                }
            } else {
                orow[j0..j0 + w].copy_from_slice(&acc[..w]);
            }
            j0 += w;
        }
    }
}

simd_dispatch! {
    /// Span kernel of the `spmm_ew` weight gradient: `dw[e] = dot8(dY[r],
    /// H[col(e)])`, bit for bit, for every stored entry of the rows
    /// `rr_start..rr_end`, written to the chunk's disjoint `dw` span. The
    /// embedding widths the workspace uses take a row's entries eight at a
    /// time ([`spmm_dw_row_lanes`]); leftover entries and every other
    /// width call `dot8` per entry ([`spmm_dw_entries`]).
    #[allow(clippy::too_many_arguments)]
    fn spmm_dw_span(indptr: &[usize], indices: &[u32], h: &[f32], dy: &[f32], d: usize, rr_start: usize, rr_end: usize, dws: &mut [f32]) {
        let base = indptr[rr_start];
        for r in rr_start..rr_end {
            let (s, e) = (indptr[r], indptr[r + 1]);
            let (cols, out) = (&indices[s..e], &mut dws[s - base..e - base]);
            let grow = &dy[r * d..r * d + d];
            match d {
                8 => spmm_dw_row_lanes::<1>(cols, h, grow, out),
                16 => spmm_dw_row_lanes::<2>(cols, h, grow, out),
                32 => spmm_dw_row_lanes::<4>(cols, h, grow, out),
                64 => spmm_dw_row_lanes::<8>(cols, h, grow, out),
                _ => spmm_dw_entries(cols, h, grow, out),
            }
        }
    }
}

/// The per-entry form of the weight gradient: one [`dot8`] for each of
/// `cols` against the upstream-gradient row `grow`.
#[inline(always)]
fn spmm_dw_entries(cols: &[u32], h: &[f32], grow: &[f32], out: &mut [f32]) {
    let d = grow.len();
    for (o, &c) in out.iter_mut().zip(cols) {
        *o = dot8(grow, &h[c as usize * d..c as usize * d + d]);
    }
}

/// One row of the weight gradient at a width of `NL` 8-wide lanes, eight
/// entries per pass. The `dY[r]` lanes are loaded once per row; each entry
/// then forms `dot8`'s `acc0 + acc1` lane vector ([`dot8_lanes`]), and
/// [`F32x8::hsum`]'s pair tree is applied across the 8 × 8 block — lane
/// position by lane position over eight entries — instead of collapsing
/// each vector on its own. Per entry the multiplies, adds and association
/// are `dot8`'s (a width of whole 8-blocks has no scalar tail, so its
/// `+ tail` is `+ 0.0`); entries past the last full eight call `dot8`.
#[inline(always)]
fn spmm_dw_row_lanes<const NL: usize>(cols: &[u32], h: &[f32], grow: &[f32], out: &mut [f32]) {
    let d = NL * 8;
    let mut g = [F32x8::zero(); NL];
    for (l, g) in g.iter_mut().enumerate() {
        *g = F32x8::load(&grow[l * 8..]);
    }
    let full = cols.len() - cols.len() % 8;
    for (cols, out) in cols[..full]
        .chunks_exact(8)
        .zip(out[..full].chunks_exact_mut(8))
    {
        let mut v = [F32x8::zero(); 8];
        for (v, &c) in v.iter_mut().zip(cols) {
            *v = dot8_lanes(&g, &h[c as usize * d..c as usize * d + d]);
        }
        // s[l] holds lane `l` of the eight entries' vectors.
        let mut s = [F32x8::zero(); 8];
        for (l, s) in s.iter_mut().enumerate() {
            for (u, v) in v.iter().enumerate() {
                s.0[u] = v.0[l];
            }
        }
        let lo = s[0].add(s[1]).add(s[2].add(s[3]));
        let hi = s[4].add(s[5]).add(s[6].add(s[7]));
        lo.add(hi).add(F32x8::zero()).store(out);
    }
    spmm_dw_entries(&cols[full..], h, grow, &mut out[full..]);
}

/// [`dot8`]'s two accumulators over a row of `NL` whole 8-blocks, merged:
/// even blocks into `acc0`, odd blocks into `acc1`, each from `0.0` in
/// ascending order, then `acc0 + acc1` — everything `dot8` does before its
/// horizontal sum.
#[inline(always)]
fn dot8_lanes<const NL: usize>(g: &[F32x8; NL], hrow: &[f32]) -> F32x8 {
    let mut acc0 = F32x8::zero();
    let mut acc1 = F32x8::zero();
    let mut l = 0usize;
    while l + 2 <= NL {
        acc0 = acc0.mul_acc(g[l], F32x8::load(&hrow[l * 8..]));
        acc1 = acc1.mul_acc(g[l + 1], F32x8::load(&hrow[l * 8 + 8..]));
        l += 2;
    }
    if l < NL {
        acc0 = acc0.mul_acc(g[l], F32x8::load(&hrow[l * 8..]));
    }
    acc0.add(acc1)
}

simd_dispatch! {
    /// Span kernel of the `spmm_ew` dense gradient over the transposed
    /// traversal plan (see [`Csr::spmm_ew_dh_acc_into`]).
    #[allow(clippy::too_many_arguments)]
    fn dh_span(indptr: &[usize], src_row: &[u32], entry: &[u32], w: &[f32], dy: &[f32], d: usize, row0: usize, rows: &mut [f32]) {
        match d {
            8 => dh_span_lanes::<1>(indptr, src_row, entry, w, dy, row0, rows),
            16 => dh_span_lanes::<2>(indptr, src_row, entry, w, dy, row0, rows),
            32 => dh_span_lanes::<4>(indptr, src_row, entry, w, dy, row0, rows),
            64 => dh_span_lanes::<8>(indptr, src_row, entry, w, dy, row0, rows),
            _ => dh_span_generic(indptr, src_row, entry, w, dy, d, row0, rows),
        }
    }
}

/// Width-specialized `dh` row kernel over `NL` 8-wide lanes: one
/// accumulator file per row, ascending plan-entry order (unchanged from the
/// scalar kernel), added into the output once at row end.
#[inline(always)]
fn dh_span_lanes<const NL: usize>(
    indptr: &[usize],
    src_row: &[u32],
    entry: &[u32],
    w: &[f32],
    dy: &[f32],
    row0: usize,
    rows: &mut [f32],
) {
    let m = NL * 8;
    for (i, orow) in rows.chunks_exact_mut(m).enumerate() {
        let c = row0 + i;
        let (s, e) = (indptr[c], indptr[c + 1]);
        let mut acc = [F32x8::zero(); NL];
        for (sr, en) in src_row[s..e].iter().zip(&entry[s..e]) {
            let wgt = F32x8::splat(w[*en as usize]);
            let grow = &dy[*sr as usize * m..*sr as usize * m + m];
            for (l, lane) in acc.iter_mut().enumerate() {
                *lane = lane.mul_acc(wgt, F32x8::load(&grow[l * 8..]));
            }
        }
        for (l, a) in acc.iter().enumerate() {
            F32x8::load(&orow[l * 8..])
                .add(*a)
                .store(&mut orow[l * 8..]);
        }
    }
}

/// Generic-width `dh` row kernel.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dh_span_generic(
    indptr: &[usize],
    src_row: &[u32],
    entry: &[u32],
    w: &[f32],
    dy: &[f32],
    d: usize,
    row0: usize,
    rows: &mut [f32],
) {
    if d == 0 {
        return;
    }
    for (i, orow) in rows.chunks_exact_mut(d).enumerate() {
        let c = row0 + i;
        let (s, e) = (indptr[c], indptr[c + 1]);
        for (sr, en) in src_row[s..e].iter().zip(&entry[s..e]) {
            let wgt = w[*en as usize];
            let grow = &dy[*sr as usize * d..*sr as usize * d + d];
            for (o, x) in orow.iter_mut().zip(grow) {
                *o += wgt * x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        Csr::from_coo(
            3,
            4,
            vec![(0, 1, 2.0), (0, 3, 1.0), (2, 0, -1.0), (2, 2, 4.0)],
        )
    }

    #[test]
    fn from_coo_builds_sorted_rows() {
        let m = Csr::from_coo(2, 3, vec![(1, 2, 5.0), (0, 1, 1.0), (1, 0, 3.0)]);
        m.check_invariants().unwrap();
        assert_eq!(m.row(0), (&[1u32][..], &[1.0f32][..]));
        assert_eq!(m.row(1), (&[0u32, 2][..], &[3.0f32, 5.0][..]));
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let m = Csr::from_coo(1, 2, vec![(0, 1, 1.0), (0, 1, 2.5), (0, 0, 1.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row(0).1, &[1.0, 3.5]);
    }

    #[test]
    fn empty_rows_have_zero_span() {
        let m = sample();
        m.check_invariants().unwrap();
        assert_eq!(m.row(1).0.len(), 0);
        assert_eq!(m.row_degrees(), vec![2, 0, 2]);
    }

    #[test]
    fn identity_spmm_is_noop() {
        let id = Csr::identity(3);
        let dense: Vec<f32> = (0..6).map(|x| x as f32).collect();
        assert_eq!(id.spmm(&dense, 2), dense);
    }

    #[test]
    fn transpose_matches_dense() {
        let m = sample();
        let t = m.transpose();
        t.check_invariants().unwrap();
        let dm = m.to_dense();
        let dt = t.to_dense();
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(dm[r * 4 + c], dt[c * 3 + r]);
            }
        }
    }

    #[test]
    fn spmm_matches_dense_reference() {
        let m = sample();
        let d = 2usize;
        let dense: Vec<f32> = (0..8).map(|x| (x as f32) * 0.5 - 1.0).collect();
        let got = m.spmm(&dense, d);
        let dm = m.to_dense();
        for r in 0..3 {
            for k in 0..d {
                let want: f32 = (0..4).map(|c| dm[r * 4 + c] * dense[c * d + k]).sum();
                assert!((got[r * d + k] - want).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn spmm_acc_into_accumulates() {
        let m = sample();
        let dense: Vec<f32> = (0..8).map(|x| x as f32 * 0.25).collect();
        let once = m.spmm(&dense, 2);
        let mut acc = once.clone();
        m.spmm_acc_into(&dense, 2, &mut acc);
        for (a, o) in acc.iter().zip(&once) {
            assert!((a - 2.0 * o).abs() < 1e-6);
        }
    }

    #[test]
    fn spmm_ew_matches_with_data_spmm() {
        let m = sample();
        let w: Vec<f32> = (0..m.nnz()).map(|i| i as f32 * 0.5 - 1.0).collect();
        let dense: Vec<f32> = (0..8).map(|x| (x as f32) * 0.3 - 0.7).collect();
        let mut out = vec![0f32; 3 * 2];
        m.spmm_ew_into(&w, &dense, 2, &mut out);
        let want = m.with_data(w).spmm(&dense, 2);
        assert_eq!(out, want);
    }

    #[test]
    fn transpose_plan_covers_every_entry_once() {
        let m = sample();
        let p = m.transpose_plan();
        assert_eq!(p.indptr.len(), m.n_cols() + 1);
        let mut seen = vec![0usize; m.nnz()];
        for c in 0..m.n_cols() {
            for e in p.indptr[c]..p.indptr[c + 1] {
                let en = p.entry[e] as usize;
                seen[en] += 1;
                // The entry really lives in column c of row src_row.
                let r = p.src_row[e] as usize;
                let (cols, _) = m.row(r);
                assert!(cols.contains(&(c as u32)));
            }
        }
        assert!(seen.iter().all(|&s| s == 1));
    }

    #[test]
    fn spmm_ew_gradients_match_dense_reference() {
        let m = sample();
        let d = 2usize;
        let w: Vec<f32> = (0..m.nnz()).map(|i| 0.3 + i as f32 * 0.2).collect();
        let h: Vec<f32> = (0..m.n_cols() * d)
            .map(|x| (x as f32) * 0.1 - 0.3)
            .collect();
        let dy: Vec<f32> = (0..m.n_rows() * d).map(|x| 1.0 - x as f32 * 0.15).collect();

        let mut dw = vec![0f32; m.nnz()];
        m.spmm_ew_dw_into(&h, &dy, d, &mut dw);
        let mut dh = vec![0f32; m.n_cols() * d];
        m.spmm_ew_dh_acc_into(&w, &dy, d, &mut dh);

        // Dense reference: Y = (W ∘ P) H, dW_e = dY[r]·H[c], dH = (W∘P)ᵀ dY.
        let coo = m.to_coo();
        for (e, (r, c, _)) in coo.iter().enumerate() {
            let want: f32 = (0..d)
                .map(|j| dy[*r as usize * d + j] * h[*c as usize * d + j])
                .sum();
            assert!((dw[e] - want).abs() < 1e-5, "dw[{e}]");
        }
        let mut want_dh = vec![0f32; m.n_cols() * d];
        for (e, (r, c, _)) in coo.iter().enumerate() {
            for j in 0..d {
                want_dh[*c as usize * d + j] += w[e] * dy[*r as usize * d + j];
            }
        }
        for (a, b) in dh.iter().zip(&want_dh) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn spmv_matches_spmm_single_column() {
        let m = sample();
        let x = vec![1.0, -2.0, 0.5, 3.0];
        assert_eq!(m.spmv(&x), m.spmm(&x, 1));
    }

    #[test]
    fn with_data_keeps_pattern() {
        let m = sample();
        let new = m.with_data(vec![9.0; m.nnz()]);
        assert_eq!(new.indices(), m.indices());
        assert!(new.data().iter().all(|&v| v == 9.0));
    }

    #[test]
    #[should_panic(expected = "value vector must match nnz")]
    fn with_data_rejects_wrong_length() {
        sample().with_data(vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_coo_rejects_out_of_bounds() {
        Csr::from_coo(1, 1, vec![(0, 1, 1.0)]);
    }

    #[test]
    fn to_coo_round_trips() {
        let m = sample();
        let rebuilt = Csr::from_coo(3, 4, m.to_coo());
        assert_eq!(m, rebuilt);
    }

    #[test]
    fn row_sums_are_value_sums() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![3.0, 0.0, 3.0]);
    }
}
