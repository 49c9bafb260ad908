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
/// ascending scalar tail. The IVF coarse quantizer (`graphaug-serve`) runs
/// its k-means assignment through this, so index builds are bit-identical
/// between the lane and scalar builds and for any thread count.
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

/// Lane width of [`I8x32`].
pub const I8_LANES: usize = 32;

/// Thirty-two `i8` lanes for the quantized scoring kernels. One [`I8x32`]
/// block is the int8 analogue of four [`F32x8`] blocks: a single 256-bit
/// register holds 32 weights instead of 8, which is where the ~4× memory-
/// bandwidth win of int8 tables comes from.
///
/// Unlike the f32 lanes, the widening dot product accumulates in `i32`,
/// which is *exact*: integer addition is associative, so lane/scalar and
/// thread-count invariance hold for any evaluation order. The reduction
/// order below is still fixed in source (8 sublane accumulators, then the
/// same `((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7))` tree as [`F32x8::hsum`]) so
/// the kernel reads like its f32 siblings and the contract never rests on
/// an associativity argument alone.
#[derive(Clone, Copy, Debug)]
#[repr(align(32))]
pub struct I8x32(pub [i8; 32]);

impl I8x32 {
    /// All-zero lanes.
    #[inline(always)]
    pub fn zero() -> Self {
        I8x32([0; 32])
    }

    /// Loads the first 32 elements of `s`.
    #[inline(always)]
    pub fn load(s: &[i8]) -> Self {
        let mut out = [0i8; 32];
        out.copy_from_slice(&s[..32]);
        I8x32(out)
    }

    /// Widening dot product of all 32 lane pairs: each `i8×i8` product is
    /// computed in `i32` (max magnitude 127² = 16129, so 8 sublane
    /// accumulators never overflow below ~2¹⁷ blocks) and collapsed with
    /// the fixed [`F32x8::hsum`]-shaped tree.
    #[inline(always)]
    pub fn dot(self, o: Self) -> i32 {
        let (a, b) = (self.0, o.0);
        let mut s = [0i32; 8];
        let mut j = 0usize;
        while j < 32 {
            s[0] += a[j] as i32 * b[j] as i32;
            s[1] += a[j + 1] as i32 * b[j + 1] as i32;
            s[2] += a[j + 2] as i32 * b[j + 2] as i32;
            s[3] += a[j + 3] as i32 * b[j + 3] as i32;
            s[4] += a[j + 4] as i32 * b[j + 4] as i32;
            s[5] += a[j + 5] as i32 * b[j + 5] as i32;
            s[6] += a[j + 6] as i32 * b[j + 6] as i32;
            s[7] += a[j + 7] as i32 * b[j + 7] as i32;
            j += 8;
        }
        ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
    }
}

/// Int8 dot product over 32-wide blocks with an exact `i32` accumulator and
/// an ascending scalar tail. This is the quantized-table scoring kernel:
/// `score = dot8_i8(q_user, q_item) as f32 * (scale_user * scale_item)`.
///
/// Because every intermediate is an integer, the result is bit-identical
/// between the lane and scalar builds and for any thread count *by
/// construction* — the drift a quantized ranking can show against the f32
/// oracle comes only from the quantization itself, never from evaluation
/// order. Callers must keep `min(a.len, b.len) · 16129 < i32::MAX`
/// (any embedding dimension below ~133k), which the serving stack's
/// `dim ≤ 4096`-scale tables satisfy by orders of magnitude.
#[inline(always)]
pub fn dot8_i8(a: &[i8], b: &[i8]) -> i32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = 0i32;
    let mut i = 0usize;
    while i + 32 <= n {
        acc += I8x32::load(&a[i..]).dot(I8x32::load(&b[i..]));
        i += 32;
    }
    while i < n {
        acc += a[i] as i32 * b[i] as i32;
        i += 1;
    }
    acc
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
