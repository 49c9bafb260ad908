//! Explicit 8-lane `f32` SIMD support for the kernel crates.
//!
//! [`F32x8`] is a plain `[f32; 8]` wrapper whose per-lane operations are
//! written as fixed-order scalar Rust. That makes the semantics *identical*
//! in every build: inside an `#[target_feature(enable = "avx2")]` context
//! the compiler lowers each op to one 256-bit instruction, elsewhere to
//! SSE2/scalar code — and because per-lane IEEE arithmetic and the
//! [`F32x8::hsum`] reduction tree are fixed in source (no fused
//! multiply-add, no reassociation), the results are bit-identical between
//! the lane path and the scalar fallback. The kernel crates exploit this by
//! compiling each span kernel twice (once under AVX2, once under the
//! baseline target) from one `#[inline(always)]` body and dispatching at
//! runtime — see [`simd_dispatch!`](crate::simd_dispatch).
//!
//! The two row scorers and the centroid kernel are the exceptions: their
//! AVX2 builds are written with `std::arch` intrinsics. The int8 scorer,
//! [`score_rows_i8`], sums exact integers, so it needs no reduction-order
//! discipline, and no plain-Rust form came close to `vpmovsxbw` +
//! `vpmaddwd`. The f32 one, [`score_rows_f32`], keeps each row's ascending
//! `.sum()` chain in one lane of a register transposed from eight rows,
//! which plain `F32x8` code lowers to `vinsertps` gathers. The IVF k-means
//! assignment, [`CentroidBlocks::nearest`], keeps each centroid's [`l2sq8`]
//! in one lane of column-blocked centroids, where `l2sq8` itself vectorises
//! within one centroid. This file is the only place in the workspace that
//! names an intrinsic.
//!
//! # Configuration
//!
//! * `GRAPHAUG_SIMD=0` — force the scalar builds even when AVX2 is
//!   available (escape hatch / determinism-audit knob). Read once at first
//!   use.
//! * [`set_simd_enabled`] — runtime override, used by the determinism suite
//!   to compare the lane and scalar builds within one process.
//!
//! On non-x86_64 targets everything compiles to the portable scalar path
//! and [`simd_enabled`] is always `false`.

use std::sync::atomic::{AtomicU8, Ordering};

/// Lane width of [`F32x8`].
pub const LANES: usize = 8;

/// Eight `f32` lanes with fixed per-lane semantics (no FMA contraction, no
/// reassociation), aligned so the AVX2 builds can use aligned spills.
#[derive(Clone, Copy, Debug)]
#[repr(align(32))]
pub struct F32x8(pub [f32; 8]);

// `add`/`mul` shadow the `std::ops` trait names on purpose: kernels call
// them as explicit named lane ops (`acc.mul_acc(a, b)`, `x.add(y)`), and
// keeping them inherent (not trait impls) guarantees they inline into
// `#[target_feature]` clones without a trait-dispatch layer in MIR.
#[allow(clippy::should_implement_trait)]
impl F32x8 {
    /// All-zero lanes.
    #[inline(always)]
    pub fn zero() -> Self {
        F32x8([0.0; 8])
    }

    /// Broadcasts one value to every lane.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        F32x8([v; 8])
    }

    /// Loads the first 8 elements of `s`.
    #[inline(always)]
    pub fn load(s: &[f32]) -> Self {
        let mut out = [0f32; 8];
        out.copy_from_slice(&s[..8]);
        F32x8(out)
    }

    /// Stores the lanes into the first 8 elements of `out`.
    #[inline(always)]
    pub fn store(self, out: &mut [f32]) {
        out[..8].copy_from_slice(&self.0);
    }

    /// Lane-wise sum.
    #[inline(always)]
    pub fn add(self, o: Self) -> Self {
        let (a, b) = (self.0, o.0);
        F32x8([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
            a[5] + b[5],
            a[6] + b[6],
            a[7] + b[7],
        ])
    }

    /// Lane-wise difference.
    #[inline(always)]
    pub fn sub(self, o: Self) -> Self {
        let (a, b) = (self.0, o.0);
        F32x8([
            a[0] - b[0],
            a[1] - b[1],
            a[2] - b[2],
            a[3] - b[3],
            a[4] - b[4],
            a[5] - b[5],
            a[6] - b[6],
            a[7] - b[7],
        ])
    }

    /// Lane-wise product.
    #[inline(always)]
    pub fn mul(self, o: Self) -> Self {
        let (a, b) = (self.0, o.0);
        F32x8([
            a[0] * b[0],
            a[1] * b[1],
            a[2] * b[2],
            a[3] * b[3],
            a[4] * b[4],
            a[5] * b[5],
            a[6] * b[6],
            a[7] * b[7],
        ])
    }

    /// `self + a ⊙ b` lane-wise, as separate multiply and add (never fused,
    /// so lane and scalar builds agree bitwise).
    #[inline(always)]
    pub fn mul_acc(self, a: Self, b: Self) -> Self {
        self.add(a.mul(b))
    }

    /// Horizontal sum with a fixed reduction tree:
    /// `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))`.
    ///
    /// Every kernel that collapses lanes to a scalar uses this order, which
    /// is what makes dot-product results identical between the AVX2 and
    /// scalar builds.
    #[inline(always)]
    pub fn hsum(self) -> f32 {
        let l = self.0;
        ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
    }
}

/// Dot product over 8-wide lanes with two independent accumulator vectors
/// (even/odd 16-blocks) merged in a fixed order, then the [`F32x8::hsum`]
/// tree, then an ascending scalar tail — deterministic for any thread count
/// and identical between lane and scalar builds.
///
/// This is the reduction order of the one-column `matmul`, of the tape's
/// `ScaleByScalar` factor gradient, of the IVF probe and of the `spmm_ew`
/// weight gradient. That last kernel evaluates the same multiplies and
/// adds, in the same association per element, for eight entries at a time,
/// and its test holds it to this function bit for bit.
#[inline(always)]
pub fn dot8(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc0 = F32x8::zero();
    let mut acc1 = F32x8::zero();
    let mut i = 0usize;
    while i + 16 <= n {
        acc0 = acc0.mul_acc(F32x8::load(&a[i..]), F32x8::load(&b[i..]));
        acc1 = acc1.mul_acc(F32x8::load(&a[i + 8..]), F32x8::load(&b[i + 8..]));
        i += 16;
    }
    if i + 8 <= n {
        acc0 = acc0.mul_acc(F32x8::load(&a[i..]), F32x8::load(&b[i..]));
        i += 8;
    }
    let mut tail = 0f32;
    while i < n {
        tail += a[i] * b[i];
        i += 1;
    }
    acc0.add(acc1).hsum() + tail
}

/// Squared Euclidean distance `Σ (a[i] − b[i])²` with the same fixed
/// reduction shape as [`dot8`]: two independent 8-wide accumulators over
/// even/odd 16-blocks, one 8-wide block, the [`F32x8::hsum`] tree, then an
/// ascending scalar tail. The IVF coarse quantizer (`graphaug-serve`)
/// assigns points to the argmin of this through [`CentroidBlocks`], so
/// index builds are bit-identical between the lane and scalar builds and
/// for any thread count.
#[inline(always)]
pub fn l2sq8(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc0 = F32x8::zero();
    let mut acc1 = F32x8::zero();
    let mut i = 0usize;
    while i + 16 <= n {
        let d0 = F32x8::load(&a[i..]).sub(F32x8::load(&b[i..]));
        let d1 = F32x8::load(&a[i + 8..]).sub(F32x8::load(&b[i + 8..]));
        acc0 = acc0.mul_acc(d0, d0);
        acc1 = acc1.mul_acc(d1, d1);
        i += 16;
    }
    if i + 8 <= n {
        let d = F32x8::load(&a[i..]).sub(F32x8::load(&b[i..]));
        acc0 = acc0.mul_acc(d, d);
        i += 8;
    }
    let mut tail = 0f32;
    while i < n {
        let d = a[i] - b[i];
        tail += d * d;
        i += 1;
    }
    acc0.add(acc1).hsum() + tail
}

/// Int8 dot product with an exact `i32` accumulator, as one ascending
/// loop. This is [`score_rows_i8`]'s portable build and the reference its
/// AVX2 build is tested against: every intermediate is an integer, so any
/// evaluation order gives the same sum, and lane/scalar and thread-count
/// invariance hold *by construction* — the drift a quantized ranking can
/// show against the f32 oracle comes only from the quantization itself.
/// Callers must keep `min(a.len, b.len) · 128² ≤ i32::MAX` (any embedding
/// dimension up to 2¹⁷), which the serving stack's tables satisfy by orders
/// of magnitude.
#[inline(always)]
pub fn dot8_i8(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// Scores packed int8 rows against one user row: for each `user.len()`-wide
/// row of `rows`, with `scales[r]` the scale of row `r`, pushes
/// `dot8_i8(user, row) as f32 * (user_scale * scales[r])` onto `out`.
///
/// This is the quantized tables' one scorer (the full scan and the IVF
/// candidate loop both call it), so an item scores the same bits wherever
/// its row is packed. The build is chosen once per call: with
/// [`simd_enabled`], rows go four at a time, each 32-weight block
/// sign-extended to `i16` (`vpmovsxbw`) and multiply-added pairwise into
/// eight `i32` lanes (`vpmaddwd`), the rest of a row through [`dot8_i8`];
/// otherwise, and for the last one to three rows, each row runs
/// [`dot8_i8`]. Both
/// sums are exact and both builds convert and scale them with the same two
/// roundings, so both push identical bits.
pub fn score_rows_i8(
    rows: &[i8],
    scales: &[f32],
    user: &[i8],
    user_scale: f32,
    out: &mut Vec<f32>,
) {
    assert_eq!(rows.len(), scales.len() * user.len(), "one scale per row");
    let start = out.len();
    out.resize(start + scales.len(), 0.0);
    let out = &mut out[start..];
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: `simd_enabled` is true only when AVX2 was detected on the
        // running CPU.
        return unsafe { score_rows_i8_avx2(rows, scales, user, user_scale, out) };
    }
    score_rows_i8_scalar(rows, scales, user, user_scale, out);
}

/// The per-row formula of [`score_rows_i8`], one score per row into `out`.
#[inline(always)]
fn score_rows_i8_scalar(
    rows: &[i8],
    scales: &[f32],
    user: &[i8],
    user_scale: f32,
    out: &mut [f32],
) {
    let dim = user.len();
    for (r, (dst, &scale)) in out.iter_mut().zip(scales).enumerate() {
        *dst = dot8_i8(user, &rows[r * dim..(r + 1) * dim]) as f32 * (user_scale * scale);
    }
}

/// [`score_rows_i8`]'s AVX2 build, one score per row into `out`. Written
/// with intrinsics because the plain loop compiled under `avx2` measured
/// over twice as slow (DESIGN.md, "Lane kernels"). Groups of four rows
/// share each widened user block, one `vphaddd` reduction and one vector
/// convert-and-scale; the last one to three rows take the scalar formula.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn score_rows_i8_avx2(rows: &[i8], scales: &[f32], user: &[i8], user_scale: f32, out: &mut [f32]) {
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    #[inline]
    fn load32(s: &[i8]) -> __m256i {
        let s = &s[..32];
        // SAFETY: `s` is 32 bytes long, and `loadu` has no alignment
        // requirement.
        unsafe { _mm256_loadu_si256(s.as_ptr().cast()) }
    }

    let dim = user.len();
    let body = dim - dim % 32;
    let full = scales.len() - scales.len() % 4;
    let user_scale4 = _mm_set1_ps(user_scale);
    for (g, (scales, out)) in scales[..full]
        .chunks_exact(4)
        .zip(out.chunks_exact_mut(4))
        .enumerate()
    {
        let group = &rows[4 * g * dim..4 * (g + 1) * dim];
        let row = |i: usize| &group[i * dim..(i + 1) * dim];
        let mut acc = [_mm256_setzero_si256(); 4];
        for j in (0..body).step_by(32) {
            let u = load32(&user[j..]);
            let ulo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(u));
            let uhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(u));
            for (i, a) in acc.iter_mut().enumerate() {
                let x = load32(&row(i)[j..]);
                let lo = _mm256_madd_epi16(_mm256_cvtepi8_epi16(_mm256_castsi256_si128(x)), ulo);
                let hi =
                    _mm256_madd_epi16(_mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(x)), uhi);
                *a = _mm256_add_epi32(*a, _mm256_add_epi32(lo, hi));
            }
        }
        // Lane i of `dots` is row i's exact dot product.
        let t = _mm256_hadd_epi32(
            _mm256_hadd_epi32(acc[0], acc[1]),
            _mm256_hadd_epi32(acc[2], acc[3]),
        );
        let mut dots = _mm_add_epi32(_mm256_castsi256_si128(t), _mm256_extracti128_si256::<1>(t));
        if body < dim {
            let tail = |i: usize| dot8_i8(&user[body..], &row(i)[body..]);
            dots = _mm_add_epi32(dots, _mm_setr_epi32(tail(0), tail(1), tail(2), tail(3)));
        }
        // SAFETY: `scales` and `out` hold four `f32`s each, and `loadu` /
        // `storeu` have no alignment requirement.
        unsafe {
            let combined = _mm_mul_ps(user_scale4, _mm_loadu_ps(scales.as_ptr()));
            _mm_storeu_ps(
                out.as_mut_ptr(),
                _mm_mul_ps(_mm_cvtepi32_ps(dots), combined),
            );
        }
    }
    score_rows_i8_scalar(
        &rows[full * dim..],
        &scales[full..],
        user,
        user_scale,
        &mut out[full..],
    );
}

/// Scores f32 rows against one user row: for each `user.len()`-wide row of
/// `rows`, pushes `Σ row[d]·user[d]` onto `out`, summed as one chain in
/// ascending `d` from `-0.0` — the bits of
/// `row.iter().zip(user).map(|(a, b)| a * b).sum::<f32>()`, which is this
/// function's portable build.
///
/// This is the one scorer of every full-catalog scan: the
/// `Recommender::score_items` default (offline evaluation, the serving
/// tier's exact `top_k`, the parity oracles) and the f32 IVF lists both call
/// it, so an item scores the same bits wherever its row is scanned. The
/// build is chosen once per call: with [`simd_enabled`], rows go eight at a
/// time, each 8 × 4 block transposed in registers so that lane `i` carries
/// row `i`'s chain, one multiply and one add per dimension (never fused);
/// the last one to three dimensions continue the same chains, and
/// the last one to seven rows take the portable chain. Each score is one
/// chain of the same multiplies and adds in the same order in both builds,
/// so both push identical bits for any row count and width.
///
/// Panics unless `user` is non-empty and `rows` holds whole rows.
pub fn score_rows_f32(rows: &[f32], user: &[f32], out: &mut Vec<f32>) {
    let dim = user.len();
    assert!(
        dim > 0 && rows.len().is_multiple_of(dim),
        "{} weights are not whole rows of {dim}",
        rows.len()
    );
    let start = out.len();
    out.resize(start + rows.len() / dim, 0.0);
    let out = &mut out[start..];
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: `simd_enabled` is true only when AVX2 was detected on the
        // running CPU.
        return unsafe { score_rows_f32_avx2(rows, user, out) };
    }
    score_rows_f32_scalar(rows, user, out);
}

/// [`score_rows_f32`]'s portable build: one ascending `.sum()` chain per
/// row into `out`.
#[inline(always)]
fn score_rows_f32_scalar(rows: &[f32], user: &[f32], out: &mut [f32]) {
    for (dst, row) in out.iter_mut().zip(rows.chunks_exact(user.len())) {
        *dst = row.iter().zip(user).map(|(a, b)| a * b).sum();
    }
}

/// [`score_rows_f32`]'s AVX2 build, one score per row into `out`. Written
/// with intrinsics because plain `F32x8` code lowers the transpose to
/// `vinsertps` gathers (DESIGN.md, "Lane kernels"). Each group of eight rows
/// keeps one accumulator whose lane `i` is row `i`'s chain. A block of four
/// dimensions is loaded as four halves, row `i` in the low half and row
/// `i + 4` in the high one (`vinsertf128` from memory does the lane-crossing
/// step of the transpose), then `unpacklo/hi` and `shuffle` turn them into
/// four columns: dimension `k` of all eight rows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn score_rows_f32_avx2(rows: &[f32], user: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;

    /// Dimensions `k..k + 4` of row `i` in the low half, of row `i + 4` in
    /// the high half.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn halves(group: &[f32], dim: usize, i: usize, k: usize) -> __m256 {
        let (lo, hi) = (&group[i * dim + k..][..4], &group[(i + 4) * dim + k..][..4]);
        // SAFETY: `lo` and `hi` are four `f32`s each, and `loadu` has no
        // alignment requirement.
        unsafe {
            _mm256_insertf128_ps::<1>(
                _mm256_castps128_ps256(_mm_loadu_ps(lo.as_ptr())),
                _mm_loadu_ps(hi.as_ptr()),
            )
        }
    }

    let dim = user.len();
    let body = dim - dim % 4;
    let full = out.len() - out.len() % 8;
    for (group, out) in rows[..full * dim]
        .chunks_exact(8 * dim)
        .zip(out.chunks_exact_mut(8))
    {
        let mut acc = _mm256_set1_ps(-0.0);
        for k0 in (0..body).step_by(4) {
            let [r0, r1, r2, r3] = [0, 1, 2, 3].map(|i| halves(group, dim, i, k0));
            let (t0, t1) = (_mm256_unpacklo_ps(r0, r1), _mm256_unpackhi_ps(r0, r1));
            let (t2, t3) = (_mm256_unpacklo_ps(r2, r3), _mm256_unpackhi_ps(r2, r3));
            let columns = [
                _mm256_shuffle_ps::<0x44>(t0, t2),
                _mm256_shuffle_ps::<0xEE>(t0, t2),
                _mm256_shuffle_ps::<0x44>(t1, t3),
                _mm256_shuffle_ps::<0xEE>(t1, t3),
            ];
            for (column, &u) in columns.into_iter().zip(&user[k0..k0 + 4]) {
                acc = _mm256_add_ps(acc, _mm256_mul_ps(column, _mm256_set1_ps(u)));
            }
        }
        for (k, &u) in user.iter().enumerate().skip(body) {
            let column = [0, 1, 2, 3, 4, 5, 6, 7].map(|i| group[i * dim + k]);
            // SAFETY: `column` is eight `f32`s, and `loadu` has no alignment
            // requirement.
            let column = unsafe { _mm256_loadu_ps(column.as_ptr()) };
            acc = _mm256_add_ps(acc, _mm256_mul_ps(column, _mm256_set1_ps(u)));
        }
        // SAFETY: `out` holds eight `f32`s, and `storeu` has no alignment
        // requirement.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), acc) };
    }
    score_rows_f32_scalar(&rows[full * dim..], user, &mut out[full..]);
}

/// `n` row-major centroids of width `dim`, and — when the lane build is
/// enabled at [`CentroidBlocks::pack`] time — a copy packed in column
/// blocks of eight for [`CentroidBlocks::nearest`].
///
/// This is the IVF coarse quantizer's one assignment kernel: k-means in
/// `graphaug-serve` packs its centroids once per assignment pass and asks
/// for each point's nearest one. The answer is exactly the first index
/// reaching the smallest [`l2sq8`]`(point, centroid)` under `<` from `+∞`:
/// ties go to the lower index, a NaN distance never wins, and a point with
/// no distance below `+∞` gets centroid 0.
pub struct CentroidBlocks<'a> {
    rows: &'a [f32],
    dim: usize,
    /// Block `b` holds centroids `8b..8b + 8` column by column: entry
    /// `k * 8 + lane` is dimension `k` of centroid `8b + lane`, zero past
    /// the last centroid. `None` when the portable build runs.
    blocks: Option<Vec<f32>>,
}

impl<'a> CentroidBlocks<'a> {
    /// Borrows `rows` (whole rows of `dim`), packing the column blocks only
    /// if [`simd_enabled`] — the build is chosen here, once per pass.
    ///
    /// Panics unless `dim > 0` and `rows` holds whole rows.
    pub fn pack(rows: &'a [f32], dim: usize) -> CentroidBlocks<'a> {
        assert!(
            dim > 0 && rows.len().is_multiple_of(dim),
            "{} weights are not whole centroids of {dim}",
            rows.len()
        );
        let blocks = simd_enabled().then(|| {
            let mut blocks = vec![0f32; (rows.len() / dim).div_ceil(LANES) * LANES * dim];
            for (c, row) in rows.chunks_exact(dim).enumerate() {
                let block = &mut blocks[c / LANES * LANES * dim..];
                for (k, &x) in row.iter().enumerate() {
                    block[k * LANES + c % LANES] = x;
                }
            }
            blocks
        });
        CentroidBlocks { rows, dim, blocks }
    }

    /// The index of `point`'s nearest centroid (see the type's docs). With
    /// packed blocks, eight centroids are scored per step, lane `i` running
    /// [`l2sq8`]'s additions for centroid `8b + i` in its order; otherwise
    /// each centroid runs [`l2sq8`]. Both builds compare the same bits in
    /// ascending index order, so both return the same index.
    ///
    /// Panics unless `point` is `dim` wide.
    pub fn nearest(&self, point: &[f32]) -> u32 {
        assert_eq!(point.len(), self.dim, "point width");
        #[cfg(target_arch = "x86_64")]
        if let Some(blocks) = &self.blocks {
            // SAFETY: blocks are packed only when `simd_enabled` was true,
            // i.e. AVX2 was detected on the running CPU.
            return unsafe { nearest_centroid_avx2(point, blocks, self.rows.len() / self.dim) };
        }
        let mut best = (0u32, f32::INFINITY);
        for (c, centroid) in self.rows.chunks_exact(self.dim).enumerate() {
            let d = l2sq8(point, centroid);
            if d < best.1 {
                best = (c as u32, d);
            }
        }
        best.0
    }
}

/// [`CentroidBlocks::nearest`]'s AVX2 build over the first `n` centroids of
/// `blocks`. Written with intrinsics because [`l2sq8`] compiled under
/// `simd_dispatch!` vectorises *within* one centroid and left the pass as
/// slow as before (DESIGN.md, "Lane kernels"). Lane `i` of a block computes
/// centroid `8b + i`'s [`l2sq8`]: its `acc0[j]` / `acc1[j]` is the chain
/// over dimensions `j, j + 16, …` / `j + 8, j + 24, …` of the 16-blocks
/// from `+0.0`, `acc0[j]` then takes dimension `j` of the 8-block if there
/// is one; the eight sums `acc0[j] + acc1[j]` meet in the [`F32x8::hsum`]
/// tree, and the tail chain from `+0.0` is added last. Separate multiplies
/// and adds, never fused. Lanes past `n` are never compared.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn nearest_centroid_avx2(point: &[f32], blocks: &[f32], n: usize) -> u32 {
    use std::arch::x86_64::*;

    /// `(p − column)²` in each lane.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn square(p: f32, column: &[f32]) -> __m256 {
        let column = &column[..LANES];
        // SAFETY: `column` is eight `f32`s, and `loadu` has no alignment
        // requirement.
        let d = _mm256_sub_ps(_mm256_set1_ps(p), unsafe {
            _mm256_loadu_ps(column.as_ptr())
        });
        _mm256_mul_ps(d, d)
    }

    /// `(s[j0] + s[j0 + 1]) + (s[j0 + 2] + s[j0 + 3])` of the tree, where
    /// `s[j] = acc0[j] + acc1[j]`: four `acc0` and four `acc1` chains side
    /// by side over the 16-blocks, then the 8-block into `acc0`. Not a
    /// `target_feature` function, so that it can be `inline(always)`d
    /// (twice) into the AVX2 build; a call measured 20 % slower there.
    ///
    /// # Safety
    ///
    /// The running CPU must support AVX2; the AVX2 build is the only
    /// caller.
    #[inline(always)]
    unsafe fn quarter(
        j0: usize,
        wide: &[[f32; 16]],
        wide_columns: &[[f32; 16 * LANES]],
        (eight, eight_columns): (&[f32], &[f32]),
    ) -> __m256 {
        let mut acc0 = [_mm256_setzero_ps(); 4];
        let mut acc1 = [_mm256_setzero_ps(); 4];
        for (p, columns) in wide.iter().zip(wide_columns) {
            for i in 0..4 {
                let (k0, k1) = (j0 + i, j0 + i + 8);
                acc0[i] = _mm256_add_ps(acc0[i], square(p[k0], &columns[k0 * LANES..]));
                acc1[i] = _mm256_add_ps(acc1[i], square(p[k1], &columns[k1 * LANES..]));
            }
        }
        if !eight.is_empty() {
            for (i, acc) in acc0.iter_mut().enumerate() {
                let k = j0 + i;
                *acc = _mm256_add_ps(*acc, square(eight[k], &eight_columns[k * LANES..]));
            }
        }
        let s = [0, 1, 2, 3].map(|i| _mm256_add_ps(acc0[i], acc1[i]));
        _mm256_add_ps(_mm256_add_ps(s[0], s[1]), _mm256_add_ps(s[2], s[3]))
    }

    let (wide, rest) = point.as_chunks::<16>();
    let (eight, tail) = rest.split_at(if rest.len() >= LANES { LANES } else { 0 });
    let mut best = (0u32, f32::INFINITY);
    for (b, block) in blocks.chunks_exact(LANES * point.len()).enumerate() {
        let (wide_columns, rest_columns) = block.as_chunks::<{ 16 * LANES }>();
        let (eight_columns, tail_columns) = rest_columns.split_at(eight.len() * LANES);
        let eight = (eight, eight_columns);
        // SAFETY: this function runs only where AVX2 was detected.
        let tree = unsafe {
            _mm256_add_ps(
                quarter(0, wide, wide_columns, eight),
                quarter(4, wide, wide_columns, eight),
            )
        };
        let mut tail_sum = _mm256_setzero_ps();
        for (&p, column) in tail.iter().zip(tail_columns.chunks_exact(LANES)) {
            tail_sum = _mm256_add_ps(tail_sum, square(p, column));
        }
        let dist = _mm256_add_ps(tree, tail_sum);
        // Only a lane below the running best can move it: skip the block
        // unless one is (an ordered `<`, false on NaN like the scalar one).
        let valid = (n - b * LANES).min(LANES);
        let below = _mm256_cmp_ps::<_CMP_LT_OQ>(dist, _mm256_set1_ps(best.1));
        if _mm256_movemask_ps(below) & ((1 << valid) - 1) != 0 {
            let mut lanes = [0f32; LANES];
            // SAFETY: `lanes` holds eight `f32`s, and `storeu` has no
            // alignment requirement.
            unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), dist) };
            for (lane, &d) in lanes[..valid].iter().enumerate() {
                if d < best.1 {
                    best = ((b * LANES + lane) as u32, d);
                }
            }
        }
    }
    best.0
}

// ---------------------------------------------------------------------------
// Runtime dispatch control
// ---------------------------------------------------------------------------

/// 0 = uninitialized, 1 = lane builds active, 2 = scalar builds forced.
static SIMD: AtomicU8 = AtomicU8::new(0);

/// True when the running CPU supports the AVX2 lane builds.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn init_simd() -> bool {
    let env_on = std::env::var("GRAPHAUG_SIMD")
        .map(|v| v.trim() != "0")
        .unwrap_or(true);
    env_on && simd_available()
}

/// True when kernels should take their AVX2 lane build. Purely a
/// performance knob: the determinism contract guarantees results never
/// depend on it (the scalar builds execute the same fixed-order source).
pub fn simd_enabled() -> bool {
    match SIMD.load(Ordering::Relaxed) {
        0 => {
            let on = init_simd();
            SIMD.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
        1 => true,
        _ => false,
    }
}

/// Overrides the lane/scalar choice at runtime (clamped to hardware
/// availability). Returns the effective setting. The determinism suite uses
/// this to compare the two builds in-process.
pub fn set_simd_enabled(on: bool) -> bool {
    let effective = on && simd_available();
    SIMD.store(if effective { 1 } else { 2 }, Ordering::Relaxed);
    effective
}

/// Compiles a span kernel twice — once under `#[target_feature(enable =
/// "avx2")]` and once under the crate's baseline target — from a single
/// `#[inline(always)]` body, and dispatches on [`simd_enabled`] at runtime.
///
/// Because the body is ordinary fixed-order Rust (typically built on
/// [`F32x8`]/[`dot8`]), the two builds are bit-identical; the AVX2 one is
/// just faster. Use on the *span*-level entry points the parallel runtime
/// calls, so the dispatch branch is paid once per chunk, not per row.
#[macro_export]
macro_rules! simd_dispatch {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        $(#[$meta])*
        $vis fn $name($($arg: $ty),*) {
            #[inline(always)]
            fn body($($arg: $ty),*) $body
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn lanes($($arg: $ty),*) {
                    body($($arg),*)
                }
                if $crate::simd::simd_enabled() {
                    // Safety: `simd_enabled` is true only when AVX2 was
                    // detected on the running CPU.
                    return unsafe { lanes($($arg),*) };
                }
            }
            body($($arg),*)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hsum_uses_the_documented_tree() {
        let v = F32x8([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]);
        assert_eq!(v.hsum(), 255.0);
        // The tree order is part of the contract: spell it out.
        let l = v.0;
        let want = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
        assert_eq!(v.hsum().to_bits(), want.to_bits());
    }

    #[test]
    fn dot8_matches_reference_on_all_tail_lengths() {
        for n in 0..40usize {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).cos()).collect();
            let got = dot8(&a, &b);
            let want: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
            assert!((got as f64 - want).abs() < 1e-4, "n={n}");
        }
    }

    #[test]
    fn l2sq8_matches_reference_on_all_tail_lengths() {
        for n in 0..40usize {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).cos()).collect();
            let got = l2sq8(&a, &b);
            let want: f64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (x as f64 - y as f64) * (x as f64 - y as f64))
                .sum();
            assert!((got as f64 - want).abs() < 1e-4, "n={n}");
        }
    }

    #[test]
    fn l2sq8_is_identical_between_lane_and_scalar_builds() {
        let a: Vec<f32> = (0..137).map(|i| (i as f32 * 0.13).sin() * 1.3).collect();
        let b: Vec<f32> = (0..137).map(|i| (i as f32 * 0.31).cos() * 0.7).collect();
        let mut out = [0f32; 2];
        crate::simd_dispatch! {
            fn probe_l2(a: &[f32], b: &[f32], out: &mut [f32]) {
                out[0] = l2sq8(a, b);
            }
        }
        let was = simd_enabled();
        set_simd_enabled(true);
        probe_l2(&a, &b, std::slice::from_mut(&mut out[0]));
        set_simd_enabled(false);
        probe_l2(&a, &b, std::slice::from_mut(&mut out[1]));
        set_simd_enabled(was);
        assert_eq!(out[0].to_bits(), out[1].to_bits());
    }

    #[test]
    fn dot8_i8_matches_wide_reference_on_all_tail_lengths() {
        for n in 0..70usize {
            let a: Vec<i8> = (0..n).map(|i| ((i * 37 + 11) % 255) as i8).collect();
            let b: Vec<i8> = (0..n).map(|i| ((i * 71 + 5) % 255) as i8).collect();
            let got = dot8_i8(&a, &b) as i64;
            let want: i64 = a.iter().zip(&b).map(|(&x, &y)| x as i64 * y as i64).sum();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn dot8_i8_saturates_nowhere_at_extremes() {
        // 4096 pairs of ±127 is the worst realistic case; the i32
        // accumulator must hold it exactly.
        let a = vec![127i8; 4096];
        let b = vec![-127i8; 4096];
        assert_eq!(dot8_i8(&a, &b) as i64, -(127i64 * 127 * 4096));
    }

    #[test]
    fn dot8_i8_is_identical_between_lane_and_scalar_builds() {
        let a: Vec<i8> = (0..137).map(|i| ((i * 91 + 3) % 255) as i8).collect();
        let b: Vec<i8> = (0..137).map(|i| ((i * 57 + 29) % 255) as i8).collect();
        let mut out = [0i32; 2];
        crate::simd_dispatch! {
            fn probe_i8(a: &[i8], b: &[i8], out: &mut [i32]) {
                out[0] = dot8_i8(a, b);
            }
        }
        let was = simd_enabled();
        set_simd_enabled(true);
        probe_i8(&a, &b, std::slice::from_mut(&mut out[0]));
        set_simd_enabled(false);
        probe_i8(&a, &b, std::slice::from_mut(&mut out[1]));
        set_simd_enabled(was);
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn score_rows_i8_lane_build_matches_the_portable_one_bit_for_bit() {
        // Block boundaries and tails (1, 7, 31, 32, 33, 64, 100), row
        // counts around the group of four, the extremes ±127 and −128 (an
        // all −128 row against an all −128 user is the largest `vpmaddwd`
        // pair sum), against the per-row formula.
        let was = simd_enabled();
        for dim in [1usize, 7, 31, 32, 33, 64, 100] {
            for n in [0usize, 3, 4, 9] {
                let rows: Vec<i8> = (0..n * dim)
                    .map(|i| match (i / dim, i % 11) {
                        (0, _) => -128,
                        (1, _) => 127,
                        (_, 0) => -128,
                        (_, 1) => 127,
                        (_, 2) => -127,
                        _ => ((i * 37 + 11) % 255) as i8,
                    })
                    .collect();
                let mixed: Vec<i8> = (0..dim).map(|i| [-128i8, 127, -127][i % 3]).collect();
                let scales: Vec<f32> = (0..n).map(|r| 0.013 * (r as f32 + 0.5)).collect();
                for user in [mixed, vec![-128i8; dim]] {
                    let want: Vec<u32> = (0..n)
                        .map(|r| {
                            let row = &rows[r * dim..(r + 1) * dim];
                            (dot8_i8(&user, row) as f32 * (0.7 * scales[r])).to_bits()
                        })
                        .collect();
                    for simd in [true, false] {
                        set_simd_enabled(simd);
                        let mut out = vec![1.5];
                        score_rows_i8(&rows, &scales, &user, 0.7, &mut out);
                        assert_eq!(out[0], 1.5, "appends, never clears");
                        let got: Vec<u32> = out[1..].iter().map(|s| s.to_bits()).collect();
                        assert_eq!(got, want, "dim={dim} n={n} simd={simd}");
                    }
                }
            }
        }
        set_simd_enabled(was);
    }

    /// The chain [`score_rows_f32`] is specified as, one row at a time.
    fn sum_chain(row: &[f32], user: &[f32]) -> f32 {
        row.iter().zip(user).map(|(a, b)| a * b).sum()
    }

    /// A score's bits, with every NaN folded to one: NaN must stay NaN, but
    /// which operand's payload a NaN carries is not part of the contract.
    fn score_bits(s: f32) -> u32 {
        if s.is_nan() {
            u32::MAX
        } else {
            s.to_bits()
        }
    }

    /// `n` seeded draws (splitmix64 over `state`), salted with the values a
    /// chain treats specially: signed zeros, magnitudes whose products
    /// underflow to subnormals or zero, subnormals, and — when `wild` —
    /// infinities and NaN.
    fn salted(state: &mut u64, n: usize, wild: bool) -> Vec<f32> {
        let mut next = || {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|_| {
                let r = next();
                let sign = if r & 1 == 0 { 1.0f32 } else { -1.0 };
                let unit = (r >> 40) as f32 / (1u64 << 24) as f32;
                match (r >> 8) % 64 {
                    0..=4 => sign * 0.0,
                    5..=7 => sign * 1e-20 * (1.0 + unit),
                    8..=9 => sign * f32::MIN_POSITIVE * unit,
                    10 if wild => sign * f32::INFINITY,
                    11 if wild => f32::NAN,
                    _ => sign * 2.0 * unit,
                }
            })
            .collect()
    }

    #[test]
    fn score_rows_f32_is_the_ascending_sum_chain_bit_for_bit() {
        // Every row count up to 33 (each remainder mod 8, so every length
        // of the portable tail), widths around the 4-wide blocks, and rows
        // salted with ±0.0, subnormal products, ±inf and NaN. All-zero rows
        // score `-0.0` against any user whose products are all `-0.0`,
        // which a chain started from `+0.0` would not.
        let mut state = 17u64;
        for dim in [1usize, 7, 8, 15, 16, 31, 32, 33, 64] {
            for n in 0..=33usize {
                for wild in [false, true] {
                    let mut rows = salted(&mut state, n * dim, wild);
                    if n > 2 {
                        rows[2 * dim..3 * dim].fill(0.0);
                    }
                    let users = [salted(&mut state, dim, wild), vec![-0.5; dim]];
                    for user in users {
                        let mut out = vec![1.5];
                        score_rows_f32(&rows, &user, &mut out);
                        assert_eq!(out[0], 1.5, "appends, never clears");
                        let got: Vec<u32> = out[1..].iter().map(|&s| score_bits(s)).collect();
                        let want: Vec<u32> = rows
                            .chunks_exact(dim)
                            .map(|row| score_bits(sum_chain(row, &user)))
                            .collect();
                        assert_eq!(got, want, "dim={dim} n={n} wild={wild}");
                    }
                }
            }
        }
    }

    #[test]
    fn score_rows_f32_lane_build_matches_the_portable_one_bit_for_bit() {
        // Row counts around the group of eight and widths around the block
        // of four, against the portable build in the same process.
        let was = simd_enabled();
        let mut state = 29u64;
        for dim in [1usize, 3, 4, 5, 8, 32, 33, 100] {
            for n in [0usize, 7, 8, 9, 16, 23] {
                let rows = salted(&mut state, n * dim, true);
                let user = salted(&mut state, dim, true);
                let [lanes, portable] = [true, false].map(|simd| {
                    set_simd_enabled(simd);
                    let mut out = Vec::new();
                    score_rows_f32(&rows, &user, &mut out);
                    out.into_iter().map(score_bits).collect::<Vec<_>>()
                });
                assert_eq!(lanes, portable, "dim={dim} n={n}");
            }
        }
        set_simd_enabled(was);
    }

    #[test]
    #[should_panic(expected = "not whole rows")]
    fn score_rows_f32_refuses_a_partial_row() {
        score_rows_f32(&[1.0; 7], &[1.0; 2], &mut Vec::new());
    }

    /// The argmin [`CentroidBlocks::nearest`] is specified as: the first
    /// index reaching the smallest `l2sq8` under `<` from `+∞`.
    fn l2sq8_argmin(point: &[f32], centroids: &[f32]) -> u32 {
        let mut best = (0u32, f32::INFINITY);
        for (c, centroid) in centroids.chunks_exact(point.len()).enumerate() {
            let d = l2sq8(point, centroid);
            if d < best.1 {
                best = (c as u32, d);
            }
        }
        best.0
    }

    /// `nearest` in the lane build and in the portable one.
    fn nearest_both_builds(point: &[f32], centroids: &[f32]) -> [u32; 2] {
        let was = simd_enabled();
        let got = [true, false].map(|simd| {
            set_simd_enabled(simd);
            CentroidBlocks::pack(centroids, point.len()).nearest(point)
        });
        set_simd_enabled(was);
        got
    }

    #[test]
    fn nearest_centroid_is_the_l2sq8_argmin_in_both_builds() {
        // Every width through two 16-blocks, the optional 8-block and each
        // tail length, every count through two whole blocks of eight and
        // each partial one. Six point/centroid shapes per pair: seeded
        // draws; the point duplicated at two indices (the lower one wins);
        // differences of ~1e-19 whose squares are subnormal; ±inf and NaN
        // salted in; an all-NaN point (no distance is below +inf, so
        // centroid 0); and every centroid holding the same differences in
        // its own order, so that only the summation order tells them apart.
        let mut state = 41u64;
        for dim in 1..=40usize {
            for n in 1..=19usize {
                for shape in 0..6 {
                    let mut point = salted(&mut state, dim, shape == 3);
                    let mut centroids = salted(&mut state, n * dim, shape == 3);
                    match shape {
                        1 if n > 2 => {
                            for c in [n / 2, n - 1] {
                                centroids[c * dim..(c + 1) * dim].copy_from_slice(&point);
                            }
                        }
                        2 => {
                            let tiny = salted(&mut state, n * dim, false);
                            for (i, (x, t)) in centroids.iter_mut().zip(tiny).enumerate() {
                                *x = point[i % dim] + 1e-19 * t;
                            }
                        }
                        4 => point.fill(f32::NAN),
                        5 => {
                            point.fill(0.0);
                            let deltas = salted(&mut state, dim, false);
                            for centroid in centroids.chunks_exact_mut(dim) {
                                let keys = salted(&mut state, dim, false);
                                let mut order: Vec<usize> = (0..dim).collect();
                                order.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]));
                                for (x, &k) in centroid.iter_mut().zip(&order) {
                                    *x = -deltas[k];
                                }
                            }
                        }
                        _ => {}
                    }
                    let want = l2sq8_argmin(&point, &centroids);
                    if shape == 1 && n > 2 {
                        assert!(want <= (n / 2) as u32, "a zero distance at n/2");
                    }
                    if shape == 4 {
                        assert_eq!(want, 0);
                    }
                    let got = nearest_both_builds(&point, &centroids);
                    assert_eq!(got, [want; 2], "dim={dim} n={n} shape={shape}");
                }
            }
        }
    }

    #[test]
    fn nearest_centroid_never_picks_a_padding_lane() {
        // The zero padding past the last centroid sits at distance 0 from
        // the origin, nearer than every real centroid: a compared padding
        // lane would return an index past `n`.
        for dim in [1usize, 8, 17, 32] {
            for n in [1usize, 7, 9, 15] {
                let centroids: Vec<f32> = (0..n * dim).map(|i| 5.0 + (i / dim) as f32).collect();
                let got = nearest_both_builds(&vec![0.0; dim], &centroids);
                assert_eq!(got, [0, 0], "dim={dim} n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not whole centroids")]
    fn centroid_blocks_refuse_a_partial_centroid() {
        CentroidBlocks::pack(&[1.0; 7], 2);
    }

    #[test]
    fn set_simd_enabled_round_trips() {
        let was = simd_enabled();
        assert!(!set_simd_enabled(false));
        assert!(!simd_enabled());
        let on = set_simd_enabled(true);
        assert_eq!(on, simd_available());
        assert_eq!(simd_enabled(), on);
        set_simd_enabled(was);
    }

    #[test]
    fn dot8_is_identical_between_lane_and_scalar_builds() {
        let a: Vec<f32> = (0..137).map(|i| (i as f32 * 0.11).sin() * 1.7).collect();
        let b: Vec<f32> = (0..137).map(|i| (i as f32 * 0.23).cos() * 0.9).collect();
        let mut out = [0f32; 2];
        crate::simd_dispatch! {
            fn probe(a: &[f32], b: &[f32], out: &mut [f32]) {
                out[0] = dot8(a, b);
            }
        }
        let was = simd_enabled();
        set_simd_enabled(true);
        probe(&a, &b, std::slice::from_mut(&mut out[0]));
        set_simd_enabled(false);
        probe(&a, &b, std::slice::from_mut(&mut out[1]));
        set_simd_enabled(was);
        assert_eq!(out[0].to_bits(), out[1].to_bits());
    }
}
