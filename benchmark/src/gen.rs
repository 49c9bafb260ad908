//! Seeded request generators. Everything the program under test receives
//! is produced here from `--seed`; the benchmark keeps its own PRNG so a
//! change to the repository's `graphaug-rng` can never move a workload.

use std::fmt::Write;

/// SplitMix64 — tiny, seedable, and fixed for good.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `label` under the same seed, so the
    /// request stream, the verify sample and the PUT order never share
    /// draws.
    pub fn stream(seed: u64, label: u64) -> Rng {
        let mut r = Rng(seed ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`); the modulo bias at these ranges is
    /// below 2⁻⁴⁰.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf(s) over ranks `0..n`: P(rank r) ∝ 1 / (r+1)^s.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let x = rng.unit();
        self.cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1)
    }

    /// Probability of rank `r`.
    #[cfg(test)]
    pub fn p(&self, r: usize) -> f64 {
        self.cdf[r] - if r == 0 { 0.0 } else { self.cdf[r - 1] }
    }

    /// Expected share of cache hits among `n` draws that follow `warm`
    /// earlier draws, for a cache large enough never to evict: a draw
    /// misses exactly when its rank was never drawn before. The check on
    /// the sampler: a simulated stream must land on this number.
    #[cfg(test)]
    pub fn predicted_hit_share(&self, warm: u64, n: u64) -> f64 {
        let first_touches: f64 = (0..self.cdf.len())
            .map(|r| {
                let q = 1.0 - self.p(r);
                q.powf(warm as f64) * (1.0 - q.powf(n as f64))
            })
            .sum();
        1.0 - first_touches / n as f64
    }
}

/// One `REC`/`RECX` request line, kept structured so replies can be
/// checked against it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecReq {
    pub users: Vec<u32>,
    pub k: usize,
    pub exact: bool,
}

impl RecReq {
    pub fn line_into(&self, out: &mut String) {
        out.clear();
        out.push_str(if self.exact { "RECX " } else { "REC " });
        for (i, u) in self.users.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{u}").expect("write to String");
        }
        write!(out, " {}", self.k).expect("write to String");
    }

    pub fn line(&self) -> String {
        let mut s = String::new();
        self.line_into(&mut s);
        s
    }
}

/// A seeded, endless request stream.
pub trait RecStream {
    fn next_req(&mut self) -> RecReq;
}

/// `rec_cold`: single-user lines, user uniform, `k` uniform in 1..=40, so
/// the (user, k, mode) key space is ~40× the 4096-entry response cache
/// and nearly every line is scored. Every 8th line is `RECX`.
pub struct ColdStream {
    rng: Rng,
    n_users: u32,
    i: u64,
}

pub const COLD_MAX_K: u64 = 40;

impl ColdStream {
    pub fn new(seed: u64, n_users: u32) -> ColdStream {
        ColdStream {
            rng: Rng::stream(seed, 1),
            n_users,
            i: 0,
        }
    }
}

impl RecStream for ColdStream {
    fn next_req(&mut self) -> RecReq {
        self.i += 1;
        RecReq {
            users: vec![self.rng.below(self.n_users as u64) as u32],
            k: 1 + self.rng.below(COLD_MAX_K) as usize,
            exact: self.i.is_multiple_of(8),
        }
    }
}

/// `rec_hot`: users zipf(1.1) over a seeded hot set, fixed `k`. Either
/// single-user lines only, or seven single-user lines then one 64-user
/// line, repeating.
pub struct HotStream {
    rng: Rng,
    zipf: Zipf,
    hot: Vec<u32>,
    batch_every: Option<u64>,
    i: u64,
}

pub const HOT_K: usize = 20;
pub const HOT_SET: usize = 1024;
pub const HOT_ZIPF_S: f64 = 1.1;
pub const BATCH_USERS: usize = 64;
/// In the mixed stream every 8th line asks for [`BATCH_USERS`] users.
pub const BATCH_EVERY: u64 = 8;

impl HotStream {
    fn new(seed: u64, n_users: u32, label: u64, batch_every: Option<u64>) -> HotStream {
        let mut all: Vec<u32> = (0..n_users).collect();
        Rng::stream(seed, 2).shuffle(&mut all);
        all.truncate(HOT_SET.min(n_users as usize));
        HotStream {
            rng: Rng::stream(seed, label),
            zipf: Zipf::new(all.len(), HOT_ZIPF_S),
            hot: all,
            batch_every,
            i: 0,
        }
    }

    /// Single-user lines only.
    pub fn singles(seed: u64, n_users: u32) -> HotStream {
        HotStream::new(seed, n_users, 3, None)
    }

    /// Seven single-user lines, then one 64-user line, repeating.
    pub fn mixed(seed: u64, n_users: u32) -> HotStream {
        HotStream::new(seed, n_users, 7, Some(BATCH_EVERY))
    }

    /// The hot set, most popular first; the same for both streams of a seed.
    pub fn hot_users(&self) -> &[u32] {
        &self.hot
    }

    fn user(&mut self) -> u32 {
        self.hot[self.zipf.draw(&mut self.rng)]
    }
}

impl RecStream for HotStream {
    fn next_req(&mut self) -> RecReq {
        self.i += 1;
        let batch = self
            .batch_every
            .is_some_and(|every| self.i.is_multiple_of(every));
        RecReq {
            users: (0..if batch { BATCH_USERS } else { 1 })
                .map(|_| self.user())
                .collect(),
            k: HOT_K,
            exact: false,
        }
    }
}

/// The `PUT` order for `online_loop`: a seeded shuffle of the pool of
/// held-back interactions, cycled when a long run outlasts the pool
/// (repeats are legal `PUT`s; the fine-tuner counts them as duplicates).
pub struct PutStream {
    pool: Vec<(u32, u32)>,
    i: usize,
}

impl PutStream {
    pub fn new(seed: u64, mut pool: Vec<(u32, u32)>) -> PutStream {
        assert!(!pool.is_empty(), "empty PUT pool");
        Rng::stream(seed, 4).shuffle(&mut pool);
        PutStream { pool, i: 0 }
    }

    pub fn next_put(&mut self) -> (u32, u32) {
        let e = self.pool[self.i % self.pool.len()];
        self.i += 1;
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_lines(stream: &mut dyn RecStream, n: usize) -> String {
        (0..n).map(|_| stream.next_req().line() + "\n").collect()
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let cold = |seed| first_lines(&mut ColdStream::new(seed, 2048), 500);
        let hot = |seed| {
            first_lines(&mut HotStream::mixed(seed, 2048), 500)
                + &first_lines(&mut HotStream::singles(seed, 2048), 500)
        };
        assert_eq!(cold(1), cold(1));
        assert_eq!(hot(1), hot(1));
        assert_ne!(cold(1), cold(2));
        assert_ne!(hot(1), hot(2));
        let pool: Vec<(u32, u32)> = (0..300).map(|i| (i, i * 7 % 50)).collect();
        let puts = |seed| {
            let mut s = PutStream::new(seed, pool.clone());
            (0..700).map(|_| s.next_put()).collect::<Vec<_>>()
        };
        assert_eq!(puts(1), puts(1));
        assert_ne!(puts(1), puts(2));
        // Cycling: the pool repeats in the same order.
        assert_eq!(puts(1)[0..300], puts(1)[300..600]);
    }

    #[test]
    fn cold_stream_has_the_stated_shape() {
        let mut s = ColdStream::new(3, 2048);
        let reqs: Vec<RecReq> = (0..8000).map(|_| s.next_req()).collect();
        assert_eq!(reqs.iter().filter(|r| r.exact).count(), 1000);
        assert!(reqs.iter().all(|r| r.users.len() == 1 && r.users[0] < 2048));
        assert!(reqs.iter().all(|r| (1..=40).contains(&r.k)));
        assert!(reqs.iter().any(|r| r.k == 1) && reqs.iter().any(|r| r.k == 40));
        assert_eq!(
            reqs[7].line(),
            format!("RECX {} {}", reqs[7].users[0], reqs[7].k)
        );
    }

    #[test]
    fn hot_stream_repeats_seven_singles_then_a_64_user_line() {
        let mut singles = HotStream::singles(5, 2048);
        assert!((0..100).all(|_| singles.next_req().users.len() == 1));
        let mut s = HotStream::mixed(5, 2048);
        assert_eq!(s.hot_users(), singles.hot_users());
        let hot: std::collections::HashSet<u32> = s.hot_users().iter().copied().collect();
        assert_eq!(hot.len(), HOT_SET);
        for i in 1..=64 {
            let r = s.next_req();
            assert_eq!(r.users.len(), if i % 8 == 0 { 64 } else { 1 });
            assert!(r.users.iter().all(|u| hot.contains(u)));
            assert_eq!((r.k, r.exact), (HOT_K, false));
        }
        let r = RecReq {
            users: vec![3, 1, 2],
            k: 20,
            exact: false,
        };
        assert_eq!(r.line(), "REC 3,1,2 20");
    }

    #[test]
    fn predicted_hit_share_matches_a_simulated_stream() {
        let zipf = Zipf::new(HOT_SET, HOT_ZIPF_S);
        let total: f64 = (0..HOT_SET).map(|r| zipf.p(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(zipf.p(0) > zipf.p(1) && zipf.p(1) > zipf.p(HOT_SET - 1));
        for (warm, n) in [(0u64, 2000u64), (3000, 20_000)] {
            let predicted = zipf.predicted_hit_share(warm, n);
            // Average a few simulated streams: one is too noisy to pin.
            let mut shares = Vec::new();
            for seed in 0..20 {
                let mut rng = Rng::stream(seed, 9);
                let mut seen = std::collections::HashSet::new();
                for _ in 0..warm {
                    seen.insert(zipf.draw(&mut rng));
                }
                let hits = (0..n).filter(|_| !seen.insert(zipf.draw(&mut rng))).count();
                shares.push(hits as f64 / n as f64);
            }
            let simulated = shares.iter().sum::<f64>() / shares.len() as f64;
            assert!(
                (predicted - simulated).abs() < 0.01,
                "warm={warm} n={n}: predicted {predicted:.4}, simulated {simulated:.4}"
            );
        }
        // A warmed zipf(1.1) stream over the hot set clears rec_hot's band.
        assert!(zipf.predicted_hit_share(3000, 20_000) > 0.95);
    }
}
