//! Seeded weight initializers and parallel seeded buffer fills.
//!
//! The `par_fill_*` helpers split a buffer over the fixed chunk grid of
//! [`graphaug_par::fixed_chunks`] and seed one derived RNG stream per chunk
//! (`StdRng::stream(seed, chunk)`), so the result is a pure function of
//! `(seed, len)` — identical for every `GRAPHAUG_THREADS` setting.

pub use graphaug_rng::seeded_rng;
use graphaug_rng::StdRng;

use crate::mat::Mat;

/// Xavier/Glorot-uniform initialization: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut StdRng) -> Mat {
    let a = (6.0 / (rows + cols) as f32).sqrt();
    Mat::from_fn(rows, cols, |_, _| rng.random_range(-a..a))
}

/// Scaled normal initialization `N(0, std²)` (Box–Muller from the seeded rng).
pub fn normal(rows: usize, cols: usize, std: f32, rng: &mut StdRng) -> Mat {
    Mat::from_fn(rows, cols, |_, _| rng.normal_f32() * std)
}

/// Fills `out` with `N(0, std²)` draws (Marsaglia polar), one derived
/// stream per fixed-grid chunk. Thread-count invariant.
pub fn par_fill_normal(out: &mut [f32], std: f32, seed: u64) {
    let (chunk_len, _) = graphaug_par::fixed_chunks(out.len());
    graphaug_par::parallel_chunks(out, chunk_len, |ci, chunk| {
        StdRng::stream(seed, ci as u64).fill_normal_f32(chunk, std);
    });
}

/// Fills `out` with `1.0`-with-probability-`p` / `0.0` indicator draws, one
/// derived stream per fixed-grid chunk. Thread-count invariant.
pub fn par_fill_bernoulli(out: &mut [f32], p: f32, seed: u64) {
    let (chunk_len, _) = graphaug_par::fixed_chunks(out.len());
    graphaug_par::parallel_chunks(out, chunk_len, |ci, chunk| {
        StdRng::stream(seed, ci as u64).fill_bernoulli_f32(chunk, p);
    });
}

/// Fills `out` with standard logistic draws, one derived stream per
/// fixed-grid chunk. Thread-count invariant.
pub fn par_fill_logistic(out: &mut [f32], seed: u64) {
    let (chunk_len, _) = graphaug_par::fixed_chunks(out.len());
    graphaug_par::parallel_chunks(out, chunk_len, |ci, chunk| {
        StdRng::stream(seed, ci as u64).fill_logistic_f32(chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_respects_bound_and_seed() {
        let mut rng = seeded_rng(7);
        let m = xavier_uniform(10, 30, &mut rng);
        let a = (6.0 / 40.0f32).sqrt();
        assert!(m.as_slice().iter().all(|&v| v > -a && v < a));
        let mut rng2 = seeded_rng(7);
        assert_eq!(m, xavier_uniform(10, 30, &mut rng2));
    }

    #[test]
    fn normal_has_roughly_right_moments() {
        let mut rng = seeded_rng(11);
        let m = normal(100, 100, 0.5, &mut rng);
        let n = m.len() as f32;
        let mean: f32 = m.as_slice().iter().sum::<f32>() / n;
        let var: f32 = m
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / n;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    fn par_fills_are_thread_count_invariant() {
        let run = |threads: usize| {
            let prev = graphaug_par::thread_count();
            graphaug_par::set_thread_count(threads);
            let mut n = vec![0.0f32; 5003];
            let mut b = vec![0.0f32; 5003];
            let mut l = vec![0.0f32; 5003];
            par_fill_normal(&mut n, 0.3, 42);
            par_fill_bernoulli(&mut b, 0.8, 42);
            par_fill_logistic(&mut l, 42);
            graphaug_par::set_thread_count(prev);
            (n, b, l)
        };
        let base = run(1);
        for threads in [3, 4] {
            let got = run(threads);
            assert!(
                base.0
                    .iter()
                    .zip(&got.0)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "normal fill differs at {threads} threads"
            );
            assert_eq!(base.1, got.1, "bernoulli fill differs at {threads} threads");
            assert!(
                base.2
                    .iter()
                    .zip(&got.2)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "logistic fill differs at {threads} threads"
            );
        }
    }

    #[test]
    fn par_fill_statistics_are_sound() {
        let mut n = vec![0.0f32; 60_000];
        par_fill_normal(&mut n, 1.0, 7);
        let mean: f64 = n.iter().map(|&x| x as f64).sum::<f64>() / n.len() as f64;
        let var: f64 = n.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");

        let mut b = vec![0.0f32; 60_000];
        par_fill_bernoulli(&mut b, 0.9, 7);
        let rate = b.iter().sum::<f32>() as f64 / b.len() as f64;
        assert!((rate - 0.9).abs() < 0.01, "keep rate {rate}");
    }
}
