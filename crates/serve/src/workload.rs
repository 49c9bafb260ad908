//! Request-mix shaping for the load generators: which user does the next
//! request ask about?
//!
//! Serving a million users is not serving a uniform million users —
//! recommendation traffic is zipfian (a few heavy users dominate) and
//! occasionally pathological (a hot-key storm hammers a handful of ids,
//! e.g. after a push notification). A [`UserSampler`] makes those mixes a
//! first-class, *seeded* scenario ingredient: the same seed draws the same
//! request stream, so a chaos run that fails replays exactly.
//!
//! [`drive_load`] is the closed loop both `loadgen` and every
//! `chaos_loadgen` phase run over a sampler.

use std::time::{Duration, Instant};

use graphaug_rng::StdRng;

use crate::client::{LatencySummary, ServeClient};
use crate::proto::{parse_ok_line, Verb};

/// A seeded distribution over user ids `0..n_users`.
#[derive(Clone, Debug)]
pub enum UserSampler {
    /// Every user equally likely.
    Uniform {
        /// Number of users drawn from.
        n_users: u32,
    },
    /// Zipf-distributed ranks: user `r` drawn with probability ∝
    /// `(r+1)^-s`. Carries the precomputed CDF so draws are `O(log n)`.
    Zipf {
        /// Number of users drawn from.
        n_users: u32,
        /// Cumulative probabilities, ascending, last entry 1.0.
        cdf: Vec<f64>,
    },
    /// Hot-key storm: with probability `hot_frac` draw uniformly from the
    /// first `hot_users` ids, otherwise uniformly from the whole range.
    Hot {
        /// Number of users drawn from.
        n_users: u32,
        /// Size of the hot set (ids `0..hot_users`).
        hot_users: u32,
        /// Fraction of traffic aimed at the hot set.
        hot_frac: f64,
    },
}

impl UserSampler {
    /// Uniform traffic over `n_users`.
    pub fn uniform(n_users: u32) -> UserSampler {
        assert!(n_users > 0, "sampler needs at least one user");
        UserSampler::Uniform { n_users }
    }

    /// Zipfian traffic with exponent `s` (`s = 0` degenerates to uniform;
    /// `s ≈ 1` is the classic heavy head).
    pub fn zipf(n_users: u32, s: f64) -> UserSampler {
        assert!(n_users > 0, "sampler needs at least one user");
        assert!(s >= 0.0 && s.is_finite(), "zipf exponent must be finite");
        let mut cdf = Vec::with_capacity(n_users as usize);
        let mut total = 0.0f64;
        for r in 0..n_users {
            total += (r as f64 + 1.0).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        UserSampler::Zipf { n_users, cdf }
    }

    /// Hot-key storm: `hot_frac` of traffic on users `0..hot_users`.
    pub fn hot(n_users: u32, hot_users: u32, hot_frac: f64) -> UserSampler {
        assert!(n_users > 0, "sampler needs at least one user");
        assert!(
            (0.0..=1.0).contains(&hot_frac),
            "hot fraction must be in [0,1]"
        );
        UserSampler::Hot {
            n_users,
            hot_users: hot_users.clamp(1, n_users),
            hot_frac,
        }
    }

    /// Draws the next user id.
    pub fn draw(&self, rng: &mut StdRng) -> u32 {
        match self {
            UserSampler::Uniform { n_users } => rng.bounded_u64(*n_users as u64) as u32,
            UserSampler::Zipf { n_users, cdf } => {
                let u = rng.f64_unit();
                let rank = cdf.partition_point(|&c| c < u);
                (rank as u32).min(n_users - 1)
            }
            UserSampler::Hot {
                n_users,
                hot_users,
                hot_frac,
            } => {
                if rng.random_bool(*hot_frac) {
                    rng.bounded_u64(*hot_users as u64) as u32
                } else {
                    rng.bounded_u64(*n_users as u64) as u32
                }
            }
        }
    }
}

/// One closed-loop load phase: `conns` connections to `addr` splitting
/// `requests` between them, each asking `REC` (or `RECX` when `exact`) for
/// a sampled user at a cutoff drawn from `1..=kmax`.
pub struct LoadPhase<'a> {
    /// The server (or router) under load.
    pub addr: &'a str,
    /// Total requests, split evenly (rounded up) over the connections.
    pub requests: usize,
    /// Concurrent connections, one thread each.
    pub conns: usize,
    /// Largest cutoff drawn.
    pub kmax: usize,
    /// Drive the `RECX` exact-oracle verb instead of `REC`.
    pub exact: bool,
    /// Connection `c` draws from `StdRng::stream(seed, stream_base | c)`,
    /// so a run replays exactly from its seed.
    pub seed: u64,
    /// Distinguishes the phases of one scenario (`phase << 32`).
    pub stream_base: u64,
    /// Prefix of the stderr line reporting a bad response or a lost
    /// connection.
    pub who: &'a str,
}

/// How a response that is not the valid `OK` line for its request counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bad {
    /// Fails the phase (and is reported on stderr).
    Error,
    /// Tolerated: a shard the scenario expects to be down said `ERR`.
    Degraded,
}

/// What one [`LoadPhase`] measured.
pub struct LoadReport {
    /// Percentiles and throughput over every timed request.
    pub summary: LatencySummary,
    /// Wall-clock time from the first spawn to the last join.
    pub elapsed: Duration,
    /// Responses `classify` called [`Bad::Error`], plus one per connection
    /// that failed outright.
    pub errors: usize,
    /// Responses `classify` called [`Bad::Degraded`].
    pub degraded: usize,
}

/// Runs `phase` to completion. Every response is validated (user echo,
/// `k` echo, list length ≤ k, well-formed score bits); `classify(user,
/// line)` decides how a line that fails counts.
pub fn drive_load(
    phase: &LoadPhase,
    sampler: &UserSampler,
    classify: impl Fn(u32, &str) -> Bad + Sync,
) -> LoadReport {
    let who = phase.who;
    let verb = if phase.exact { Verb::RecX } else { Verb::Rec };
    let per_conn = phase.requests.div_ceil(phase.conns);
    let drive = |conn: usize| -> Result<(Vec<u64>, usize, usize), String> {
        let mut rng = StdRng::stream(phase.seed, phase.stream_base | conn as u64);
        let mut client =
            ServeClient::connect(phase.addr).map_err(|e| format!("connect {}: {e}", phase.addr))?;
        let mut latencies_us = Vec::with_capacity(per_conn);
        let (mut errors, mut degraded) = (0usize, 0usize);
        for _ in 0..per_conn {
            let user = sampler.draw(&mut rng);
            let k = 1 + rng.bounded_u64(phase.kmax as u64) as usize;
            let start = Instant::now();
            let line = client
                .rec_one_mode(user, k, phase.exact)
                .map_err(|e| e.to_string())?;
            latencies_us.push(start.elapsed().as_micros() as u64);
            let valid = parse_ok_line(&line)
                .is_some_and(|ok| ok.user == user && ok.k == k && ok.items.len() <= k);
            if valid {
                continue;
            }
            match classify(user, &line) {
                Bad::Degraded => degraded += 1,
                Bad::Error => {
                    errors += 1;
                    eprintln!("{who}: bad response for {verb} {user} {k}: {line}");
                }
            }
        }
        client.quit();
        Ok((latencies_us, errors, degraded))
    };

    let start = Instant::now();
    let mut latencies = Vec::new();
    let (mut errors, mut degraded) = (0usize, 0usize);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..phase.conns)
            .map(|conn| scope.spawn(move || drive(conn)))
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(Ok((lat, e, d))) => {
                    latencies.extend(lat);
                    errors += e;
                    degraded += d;
                }
                Ok(Err(e)) => {
                    eprintln!("{who}: connection failed: {e}");
                    errors += 1;
                }
                Err(_) => {
                    eprintln!("{who}: worker panicked");
                    errors += 1;
                }
            }
        }
    });
    let elapsed = start.elapsed();
    LoadReport {
        summary: LatencySummary::from_samples(latencies, elapsed),
        elapsed,
        errors,
        degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphaug_rng::seeded_rng;

    fn histogram(sampler: &UserSampler, n_users: usize, draws: usize) -> Vec<usize> {
        let mut rng = seeded_rng(7);
        let mut counts = vec![0usize; n_users];
        for _ in 0..draws {
            counts[sampler.draw(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn draws_are_seed_deterministic() {
        for sampler in [
            UserSampler::uniform(100),
            UserSampler::zipf(100, 1.1),
            UserSampler::hot(100, 4, 0.9),
        ] {
            let mut a = seeded_rng(3);
            let mut b = seeded_rng(3);
            let xs: Vec<u32> = (0..200).map(|_| sampler.draw(&mut a)).collect();
            let ys: Vec<u32> = (0..200).map(|_| sampler.draw(&mut b)).collect();
            assert_eq!(xs, ys);
        }
    }

    #[test]
    fn uniform_covers_the_range_evenly() {
        let counts = histogram(&UserSampler::uniform(10), 10, 10_000);
        for &c in &counts {
            assert!((700..1300).contains(&c), "uniform bucket way off: {c}");
        }
    }

    #[test]
    fn zipf_is_head_heavy_and_in_range() {
        let counts = histogram(&UserSampler::zipf(50, 1.2), 50, 10_000);
        assert!(
            counts[0] > counts[10] && counts[0] > counts[49],
            "rank 0 must dominate: {counts:?}"
        );
        assert_eq!(counts.iter().sum::<usize>(), 10_000);
        // s = 0 degenerates to uniform-ish: head must NOT dominate 10x.
        let flat = histogram(&UserSampler::zipf(50, 0.0), 50, 10_000);
        assert!(flat[0] < 10 * flat[49].max(1));
    }

    #[test]
    fn hot_storm_concentrates_on_the_hot_set() {
        let counts = histogram(&UserSampler::hot(100, 4, 0.9), 100, 10_000);
        let hot: usize = counts[..4].iter().sum();
        assert!(hot > 8_500, "hot set should absorb ~90%+ε: {hot}");
    }
    /// Every `(exact, user, k)` a fake replica was asked for.
    type Seen = std::sync::Arc<std::sync::Mutex<Vec<(bool, u32, usize)>>>;

    /// A fake replica: `STATS` reports `users` users, `REC` for an odd user
    /// answers `ERR`, for an even one a valid empty list. Every requested
    /// `(exact, user, k)` is recorded.
    fn fake_server(users: u32) -> (crate::net::ListenerHandle, Seen) {
        use crate::net::Reply;
        use crate::proto::{listen, Request, Stats, Verb};
        let seen = Seen::default();
        let log = seen.clone();
        const SERVES: &[Verb] = &[Verb::Rec, Verb::RecX, Verb::Stats];
        let handle = listen("127.0.0.1:0", "fake-replica", SERVES, move || {
            let log = log.clone();
            move |request: Request, reply: &mut Reply| match request {
                Request::Rec {
                    users: us,
                    k,
                    exact,
                } => {
                    for u in us {
                        log.lock().unwrap().push((exact, u, k));
                        if u % 2 == 1 {
                            reply.line("ERR down shard of an odd user");
                        } else {
                            reply.line(format_args!("OK gen=1 user={u} k={k} items= bits="));
                        }
                    }
                }
                _ => reply.line(
                    Stats::default()
                        .with("gen", 1)
                        .with("users", users)
                        .with("items", 120),
                ),
            }
        })
        .unwrap();
        (handle, seen)
    }

    #[test]
    fn drive_load_replays_from_its_seed_and_counts_by_the_classifier() {
        let (server, seen) = fake_server(40);
        let addr = server.addr().to_string();
        assert_eq!(ServeClient::probe_shape(&addr), Ok((40, 120)));
        let sampler = UserSampler::uniform(40);
        let phase = LoadPhase {
            addr: &addr,
            requests: 30,
            conns: 1,
            kmax: 5,
            exact: true,
            seed: 9,
            stream_base: 7 << 32,
            who: "test",
        };
        // The classifier sees only lines that are not a valid `OK`.
        let strict = drive_load(&phase, &sampler, |_, _| Bad::Error);
        let first: Vec<_> = std::mem::take(&mut *seen.lock().unwrap());
        let odd = first.iter().filter(|(_, u, _)| u % 2 == 1).count();
        assert!(odd > 0 && odd < 30, "the draw should mix both kinds: {odd}");
        assert_eq!(strict.summary.count, 30);
        assert_eq!((strict.errors, strict.degraded), (odd, 0));

        let lenient = drive_load(&phase, &sampler, |user, line| {
            assert!(user % 2 == 1 && line.starts_with("ERR "));
            Bad::Degraded
        });
        assert_eq!((lenient.errors, lenient.degraded), (0, odd));
        // Same seed and stream: the same requests, `RECX` as asked, k in range.
        assert_eq!(*seen.lock().unwrap(), first);
        assert!(first.iter().all(|&(x, _, k)| x && (1..=5).contains(&k)));
        // The draws are exactly connection 0's stream of that phase.
        let mut rng = StdRng::stream(9, 7 << 32);
        let want_user = sampler.draw(&mut rng);
        let want_k = 1 + rng.bounded_u64(5) as usize;
        assert_eq!(first[0], (true, want_user, want_k));
    }

    #[test]
    fn drive_load_splits_requests_over_connections_and_counts_a_lost_one() {
        let (server, seen) = fake_server(8);
        let addr = server.addr().to_string();
        let sampler = UserSampler::hot(8, 1, 1.0);
        let mut phase = LoadPhase {
            addr: &addr,
            requests: 10,
            conns: 4,
            kmax: 3,
            exact: false,
            seed: 1,
            stream_base: 0,
            who: "test",
        };
        // 10 over 4 rounds up to 3 each; user 0 is even, so all are valid.
        let report = drive_load(&phase, &sampler, |_, _| Bad::Error);
        assert_eq!((report.summary.count, report.errors), (12, 0));
        assert_eq!(seen.lock().unwrap().len(), 12);
        // Nobody listening: every connection is one error, nothing is timed.
        (phase.addr, phase.conns) = ("127.0.0.1:1", 2);
        let dead = drive_load(&phase, &sampler, |_, _| Bad::Degraded);
        assert_eq!((dead.summary.count, dead.errors, dead.degraded), (0, 2, 0));
        assert!(ServeClient::probe_shape("127.0.0.1:1").is_err());
    }
}
