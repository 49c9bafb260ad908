//! Int8-quantized embedding tables and the quantized IVF index.
//!
//! The f32 tables put a hard memory-bandwidth floor under the REC path:
//! PR 7's packed-row scan is already sequential, so the only way left to
//! move the ceiling is to move fewer bytes. This module freezes each
//! embedding matrix into [`QuantRows`] — one `i8` weight per f32 weight
//! plus one f32 scale per row (~4× smaller) — and scores with the exact
//! integer row kernel [`graphaug_par::score_rows_i8`].
//!
//! # Quantization scheme
//!
//! Symmetric per-row affine-free quantization: `scale = max|w| / 127`,
//! `q = round_half_even(w / scale)` clamped to `[-127, 127]`. Symmetric
//! (no zero point) keeps the dot product a pure integer sum:
//!
//! ```text
//! score(u, i) = dot8_i8(qu, qi) as f32 · (scale_u · scale_i)
//! ```
//!
//! Per-row scales matter because embedding norms spread over an order of
//! magnitude after training — a single tensor-wide scale would crush
//! low-norm rows to zero. Round-half-even is the IEEE default rounding and
//! kills the systematic upward bias of round-half-up on the exact .5
//! midpoints a deterministic pipeline *will* hit repeatedly. The
//! per-weight reconstruction error is bounded by `scale / 2`.
//!
//! # Determinism contract
//!
//! Quantization is pure scalar f32 arithmetic per row, parallelized with
//! one slot per row — same bytes for any `GRAPHAUG_THREADS`. Scoring
//! accumulates in `i32`, which is *exact*: lane/scalar builds and every
//! thread count agree bit-for-bit by construction, so any ranking drift
//! vs the f32 oracle is attributable to quantization alone. That drift is
//! what the serving-side gate (`crate::tables`) samples and bounds.

use std::borrow::Cow;

use graphaug_par::{parallel_spans, score_rows_i8, SendMutPtr};
use graphaug_tensor::Mat;

use crate::ann::{Fnv, Ivf, IvfRows};

/// Serving-side knobs for quantized tables: the drift gate and the online
/// self-audit. (Index geometry still comes from [`crate::ann::IvfParams`] —
/// the quantized index reuses the ANN coarse partition parameters.)
#[derive(Clone, Debug)]
pub struct QuantParams {
    /// Build-time drift gate: sampled recall@20 of the quantized ranking
    /// vs the f32 oracle must reach this floor or quantized serving stays
    /// disabled (requests fall back to the f32 path, loudly).
    pub drift_floor: f64,
    /// Online self-audit cadence: every `audit_every`-th quantized-served
    /// list is also ranked through the f32 oracle and folded into the
    /// running drift estimate. `0` disables the audit.
    pub audit_every: u64,
}

impl Default for QuantParams {
    fn default() -> Self {
        QuantParams {
            drift_floor: 0.9,
            audit_every: 64,
        }
    }
}

impl QuantParams {
    /// Default parameters.
    pub fn new() -> Self {
        QuantParams::default()
    }

    /// Sets the drift floor for the build-time gate.
    pub fn drift_floor(mut self, f: f64) -> Self {
        self.drift_floor = f;
        self
    }

    /// Sets the online self-audit cadence (`0` = off).
    pub fn audit_every(mut self, n: u64) -> Self {
        self.audit_every = n;
        self
    }
}

/// One embedding matrix frozen to int8: `rows × dim` quantized weights
/// plus one f32 scale per row. Immutable after construction, like every
/// serving table.
#[derive(Clone)]
pub struct QuantRows {
    rows: usize,
    dim: usize,
    q: Vec<i8>,
    scales: Vec<f32>,
}

/// `round_half_even(x / scale)` clamped to the int8 symmetric range.
#[inline]
fn quantize_weight(w: f32, inv_scale: f32) -> i8 {
    (w * inv_scale).round_ties_even().clamp(-127.0, 127.0) as i8
}

impl QuantRows {
    /// Quantizes `m` row by row: `scale = max|w| / 127`, weights rounded
    /// half-to-even and clamped to `[-127, 127]`. An all-zero row gets
    /// `scale = 0` and all-zero weights (reconstructs exactly).
    ///
    /// Parallel over rows with one output slot per row — bit-identical
    /// bytes for any thread count, and no SIMD dispatch on this path at
    /// all (plain scalar f32 per weight).
    pub fn quantize(m: &Mat) -> QuantRows {
        let (rows, dim) = (m.rows(), m.cols());
        let mut q = vec![0i8; rows * dim];
        let mut scales = vec![0f32; rows];
        {
            let qp = SendMutPtr::new(&mut q);
            let sp = SendMutPtr::new(&mut scales);
            parallel_spans(rows, |_, range| {
                // Safety: spans tile `0..rows` disjointly, so each row's
                // weight slots and scale slot have exactly one writer.
                let qs =
                    unsafe { qp.slice_mut(range.start * dim, (range.end - range.start) * dim) };
                let ss = unsafe { sp.slice_mut(range.start, range.end - range.start) };
                for (i, r) in range.clone().enumerate() {
                    let row = m.row(r);
                    let mut amax = 0f32;
                    for &w in row {
                        amax = amax.max(w.abs());
                    }
                    let (scale, inv) = if amax > 0.0 {
                        (amax / 127.0, 127.0 / amax)
                    } else {
                        (0.0, 0.0)
                    };
                    ss[i] = scale;
                    for (dst, &w) in qs[i * dim..(i + 1) * dim].iter_mut().zip(row) {
                        *dst = quantize_weight(w, inv);
                    }
                }
            });
        }
        QuantRows {
            rows,
            dim,
            q,
            scales,
        }
    }

    /// Number of quantized rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Weights per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The quantized weights of row `r`.
    pub fn row(&self, r: usize) -> &[i8] {
        &self.q[r * self.dim..(r + 1) * self.dim]
    }

    /// The dequantization scale of row `r`.
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// Reconstructs every row as `q · scale` — the f32 matrix the
    /// quantized scorer effectively serves. The quantized IVF trains its
    /// coarse quantizer over this (the index is built over the rows that
    /// will actually be scored, not the pre-quantization originals).
    pub fn dequantize(&self) -> Mat {
        Mat::from_fn(self.rows, self.dim, |r, c| {
            self.q[r * self.dim + c] as f32 * self.scales[r]
        })
    }

    /// Resident bytes of the quantized payload (weights + scales). For
    /// `dim = 32` this is 36 bytes/row vs 128 f32 — the ~4× shrink.
    pub fn table_bytes(&self) -> usize {
        self.q.len() + self.scales.len() * 4
    }

    /// A stable fingerprint of the quantized bytes and scale bit patterns,
    /// for byte-determinism assertions.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.eat(self.rows as u32);
        h.eat(self.dim as u32);
        for chunk in self.q.chunks(4) {
            let mut w = [0u8; 4];
            for (d, &b) in w.iter_mut().zip(chunk) {
                *d = b as u8;
            }
            h.eat(u32::from_le_bytes(w));
        }
        for &s in &self.scales {
            h.eat(s.to_bits());
        }
        h.0
    }
}

/// The quantized IVF-flat index: the one [`Ivf`] (f32 centroids trained on
/// the *dequantized* rows — what scoring actually serves — and probed with
/// the f32 user row) whose packed payload is a [`QuantRows`] in list
/// order. Compared to [`crate::ann::IvfIndex`] that is `dim + 4` bytes per
/// entry instead of `4·dim` — PR 7's sequential-scan win and the 4× shrink
/// compound.
pub type QuantIvf = Ivf<QuantRows>;

impl IvfRows for QuantRows {
    /// A user's int8 row and its scale.
    type Query<'a> = (&'a [i8], f32);

    fn served(&self) -> Cow<'_, Mat> {
        Cow::Owned(self.dequantize())
    }

    fn gather(&self, order: &[u32]) -> QuantRows {
        let mut q = Vec::with_capacity(order.len() * self.dim);
        let mut scales = Vec::with_capacity(order.len());
        for &r in order {
            q.extend_from_slice(self.row(r as usize));
            scales.push(self.scale(r as usize));
        }
        QuantRows {
            rows: order.len(),
            dim: self.dim,
            q,
            scales,
        }
    }

    /// Exact integer dot, then one f32 multiply by the combined scale —
    /// the one formula behind the full-catalog scan and the IVF candidate
    /// scan, so both produce bit-identical scores for the same item.
    fn scores_into<'a>(
        &'a self,
        lo: usize,
        hi: usize,
        (qu, su): (&'a [i8], f32),
        out: &mut Vec<f32>,
    ) {
        let rows = &self.q[lo * self.dim..hi * self.dim];
        score_rows_i8(rows, &self.scales[lo..hi], qu, su, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ann::{assert_packed_in_list_order, IvfParams};
    use graphaug_rng::seeded_rng;

    fn random_mat(rows: usize, dim: usize, seed: u64) -> Mat {
        let mut rng = seeded_rng(seed);
        Mat::from_fn(rows, dim, |_, _| rng.normal_f32() * 0.8)
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_scale() {
        let m = random_mat(40, 24, 7);
        let q = QuantRows::quantize(&m);
        for r in 0..m.rows() {
            let scale = q.scale(r) as f64;
            for (c, &w) in m.row(r).iter().enumerate() {
                let back = q.row(r)[c] as f64 * scale;
                assert!(
                    (w as f64 - back).abs() <= scale * 0.5 + 1e-9,
                    "row {r} col {c}: w={w} back={back} scale={scale}"
                );
            }
        }
    }

    #[test]
    fn all_zero_rows_reconstruct_exactly() {
        let m = Mat::from_fn(3, 16, |r, _| if r == 1 { 0.0 } else { 1.5 });
        let q = QuantRows::quantize(&m);
        assert_eq!(q.scale(1), 0.0);
        assert!(q.row(1).iter().all(|&v| v == 0));
        assert!(q.dequantize().row(1).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn round_half_even_is_unbiased_at_midpoints() {
        // inv_scale = 1: the weights are their own quantization grid, so
        // .5 midpoints hit the tie rule directly.
        assert_eq!(quantize_weight(0.5, 1.0), 0);
        assert_eq!(quantize_weight(1.5, 1.0), 2);
        assert_eq!(quantize_weight(2.5, 1.0), 2);
        assert_eq!(quantize_weight(-0.5, 1.0), 0);
        assert_eq!(quantize_weight(-1.5, 1.0), -2);
        assert_eq!(quantize_weight(200.0, 1.0), 127);
        assert_eq!(quantize_weight(-200.0, 1.0), -127);
    }

    #[test]
    fn single_outlier_row_keeps_outlier_at_127_and_bounds_the_rest() {
        let m = Mat::from_fn(1, 8, |_, c| if c == 3 { -12.7 } else { 0.05 });
        let q = QuantRows::quantize(&m);
        assert_eq!(q.row(0)[3], -127, "outlier pins the scale");
        let scale = q.scale(0) as f64;
        for (c, &w) in m.row(0).iter().enumerate() {
            let back = q.row(0)[c] as f64 * scale;
            assert!((w as f64 - back).abs() <= scale * 0.5 + 1e-9, "col {c}");
        }
    }

    #[test]
    fn quant_scores_match_f64_reference() {
        let m = random_mat(6, 32, 13);
        let q = QuantRows::quantize(&m);
        for a in 0..3 {
            let mut got = Vec::new();
            q.scores_into(3, 6, (q.row(a), q.scale(a)), &mut got);
            for b in 3..6 {
                let got = got[b - 3] as f64;
                let want: f64 = q
                    .row(a)
                    .iter()
                    .zip(q.row(b))
                    .map(|(&x, &y)| x as f64 * y as f64)
                    .sum::<f64>()
                    * (q.scale(a) * q.scale(b)) as f64;
                assert!((got - want).abs() < want.abs().max(1.0) * 1e-5);
            }
        }
    }

    #[test]
    fn quant_ivf_covers_catalog_and_packs_matching_rows() {
        let m = random_mat(300, 16, 21);
        let q = QuantRows::quantize(&m);
        let idx = QuantIvf::build(&q, &IvfParams::new().nlists(9));
        assert_eq!(idx.len(), 300);
        assert_packed_in_list_order(&q, &idx, |packed, s, source, r| {
            packed.row(s) == source.row(r) && packed.scale(s).to_bits() == source.scale(r).to_bits()
        });
    }
}
