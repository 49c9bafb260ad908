//! A protocol-faithful stand-in replica for supervisor tests and benches.
//!
//! ```text
//! mock_replica [--gen N] [--users N] [--die-ms N]
//! ```
//!
//! Binds an ephemeral loopback port, prints `READY addr=<bound>` (the
//! contract [`graphaug_router::spawn_ready`] scans for), and answers the
//! serving protocol with *deterministic synthetic* content: a `REC` line
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

use graphaug_serve::net::{listen, Next, Reply};
use graphaug_serve::proto::{parse_request, Request};

struct Args {
    gen: u64,
    users: u32,
    die_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut out = Args {
        gen: 1,
        users: 100,
        die_ms: None,
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or(format!("{name} needs a value"))
                .and_then(|v| v.parse::<u64>().map_err(|_| format!("bad {name} value")))
        };
        match flag.as_str() {
            "--gen" => out.gen = value("--gen")?,
            "--users" => out.users = value("--users")? as u32,
            "--die-ms" => out.die_ms = Some(value("--die-ms")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if out.users == 0 {
        return Err("--users must be at least 1".into());
    }
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
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mock_replica: {e}");
            eprintln!("usage: mock_replica [--gen N] [--users N] [--die-ms N]");
            return ExitCode::from(2);
        }
    };
    let requests = Arc::new(AtomicU64::new(0));
    let (gen, users) = (args.gen, args.users);
    let listener = listen("127.0.0.1:0", "mock-replica", move || {
        let requests = requests.clone();
        move |line: &str, reply: &mut Reply| respond(line, reply, gen, users, &requests)
    });
    let listener = match listener {
        Ok(l) => l,
        Err(e) => {
            eprintln!("mock_replica: bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("READY addr={} gen={gen}", listener.addr());

    match args.die_ms {
        Some(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            // A deliberate crash, distinguishable from a clean exit.
            std::process::exit(3)
        }
        None => loop {
            std::thread::park();
        },
    }
}
