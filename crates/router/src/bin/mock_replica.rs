//! A protocol-faithful stand-in replica for supervisor tests and benches.
//!
//! Arguments: [`USAGE`]. Binds an ephemeral loopback port, prints
//! `READY addr=<bound>` (the contract [`graphaug_router::spawn_ready`]
//! scans for), and answers the serving protocol with *deterministic
//! synthetic* content: a `REC` line
//! for user `u` is a pure function of `(gen, u, k)`, so two mock replicas
//! started with the same `--gen` answer byte-identically — the same
//! replica-set parity property a real checkpoint-sharing set has, at zero
//! training cost. `--die-ms` makes the process exit non-zero after a
//! delay, which is how supervisor tests get a replica that reliably
//! "crashes" without reaching for `kill`.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use graphaug_serve::args::{self, ArgError, Args};
use graphaug_serve::net::Reply;
use graphaug_serve::proto::{listen, ok_line, Request, Stats, Verb};
use graphaug_serve::{Recommendation, ScoredItem};

/// The verbs the mock serves besides `PING` and `QUIT`, as a replica does.
const SERVES: &[Verb] = &[Verb::Rec, Verb::RecX, Verb::Stats];

const USAGE: &str = "usage: mock_replica [--gen N] [--users N] [--die-ms N]";

struct Opts {
    gen: u64,
    users: u32,
    die_ms: Option<u64>,
}

fn parse(mut args: Args) -> Result<Opts, ArgError> {
    let out = Opts {
        gen: args.value("--gen", 1)?,
        users: args.at_least("--users", 100)?,
        die_ms: args.opt("--die-ms")?,
    };
    args.finish()?;
    Ok(out)
}

/// The deterministic `OK` line for `(gen, user, k)`: items walk up from
/// the user id, score bits come from a multiplicative hash — stable
/// across processes, so same-`--gen` mocks are byte-identical.
fn rec_line(gen: u64, user: u32, k: usize) -> String {
    let items = (0..k).map(|i| ScoredItem {
        item: ((user as usize + i) % 100_000) as u32,
        score: f32::from_bits(
            (user ^ gen as u32)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(i as u32),
        ),
    });
    ok_line(&Recommendation {
        user,
        k,
        generation: gen,
        items: Arc::new(items.collect()),
        from_cache: false,
    })
}

/// The mock's `STATS` line: the shape a real replica reports, with a
/// fixed catalog and no resident tables.
fn stats(gen: u64, users: u32, requests: u64) -> Stats {
    Stats::default()
        .with("gen", gen)
        .with("users", users)
        .with("items", 100_000)
        .with("table_bytes", 0)
        .with("requests", requests)
}

fn main() -> ExitCode {
    args::run("mock_replica", USAGE, |args| {
        let Opts { gen, users, die_ms } = parse(args)?;
        let requests = Arc::new(AtomicU64::new(0));
        let listener = listen("127.0.0.1:0", "mock-replica", SERVES, move || {
            let requests = requests.clone();
            move |request: Request, reply: &mut Reply| match request {
                Request::Rec { users: us, k, .. } => {
                    requests.fetch_add(us.len() as u64, Ordering::Relaxed);
                    for u in us {
                        reply.line(rec_line(gen, u, k));
                    }
                }
                Request::Stats => reply.line(stats(gen, users, requests.load(Ordering::Relaxed))),
                other => unreachable!("{} is not in SERVES", other.verb()),
            }
        })
        .map_err(|e| format!("bind: {e}"))?;
        println!("READY addr={} gen={gen}", listener.addr());

        match die_ms {
            Some(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                // A deliberate crash, distinguishable from a clean exit.
                std::process::exit(3)
            }
            None => loop {
                std::thread::park();
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rec_line_is_byte_identical_to_the_hand_formatted_one() {
        // The line the mock rendered with its own `format!` before it went
        // through `ok_line`.
        assert_eq!(rec_line(3, 7, 0), "OK gen=3 user=7 k=0 items= bits=");
        assert_eq!(
            rec_line(3, 99_998, 3),
            "OK gen=3 user=99998 k=3 items=99998,99999,0 bits=8b757c75,8b757c76,8b757c77"
        );
    }

    #[test]
    fn the_stats_line_is_byte_identical_to_the_hand_formatted_one() {
        // The line the mock rendered with one `format!` before the codec.
        assert_eq!(
            stats(3, 100, 17).to_string(),
            "STATS gen=3 users=100 items=100000 table_bytes=0 requests=17"
        );
    }

    #[test]
    fn usage_names_exactly_the_flags_the_parser_takes() {
        args::assert_usage_matches(USAGE, &[], parse);
    }

    #[test]
    fn a_user_count_beyond_u32_is_refused_not_wrapped() {
        let parse_str = |argv: &str| parse(Args::new(argv.split_whitespace()));
        assert!(matches!(
            parse_str("--users 4294967297").err(),
            Some(ArgError::Invalid {
                flag: "--users",
                ..
            })
        ));
        assert_eq!(
            parse_str("--users 0").err(),
            Some(ArgError::BelowMinimum("--users"))
        );
        let ok = parse_str("--die-ms 40 --gen 3").unwrap();
        assert_eq!((ok.gen, ok.users, ok.die_ms), (3, 100, Some(40)));
    }
}
