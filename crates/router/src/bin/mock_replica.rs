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
use graphaug_serve::net::{listen, Next, Reply};
use graphaug_serve::proto::{parse_request, Request};

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
    let mut items = String::new();
    let mut bits = String::new();
    for i in 0..k {
        if i > 0 {
            items.push(',');
            bits.push(',');
        }
        items.push_str(&((user as usize + i) % 100_000).to_string());
        let b = (user ^ gen as u32)
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(i as u32);
        bits.push_str(&format!("{b:08x}"));
    }
    format!("OK gen={gen} user={user} k={k} items={items} bits={bits}")
}

/// Appends the response line(s) for one request.
fn respond(line: &str, reply: &mut Reply, gen: u64, users: u32, requests: &AtomicU64) -> Next {
    match parse_request(line) {
        Ok(Request::Rec { users: us, k, .. }) => {
            requests.fetch_add(us.len() as u64, Ordering::Relaxed);
            for u in us {
                reply.line(rec_line(gen, u, k));
            }
        }
        Ok(Request::Stats) => reply.line(format_args!(
            "STATS gen={gen} users={users} items=100000 table_bytes=0 requests={}",
            requests.load(Ordering::Relaxed)
        )),
        Ok(Request::Ping) => reply.line("PONG"),
        Ok(Request::Quit) => {
            reply.line("BYE");
            return Next::Close;
        }
        Err(msg) => reply.line(format_args!("ERR {msg}")),
    }
    Next::Continue
}

fn main() -> ExitCode {
    args::run("mock_replica", USAGE, |args| {
        let Opts { gen, users, die_ms } = parse(args)?;
        let requests = Arc::new(AtomicU64::new(0));
        let listener = listen("127.0.0.1:0", "mock-replica", move || {
            let requests = requests.clone();
            move |line: &str, reply: &mut Reply| respond(line, reply, gen, users, &requests)
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
