//! A seeded closed-loop load generator for `serve_main` (and, since the
//! wire protocol is identical, for `router_main`); arguments: [`USAGE`].
//!
//! Opens `--conns` connections, each driving a deterministic request
//! stream (`StdRng::stream(seed, conn)`), and reports latency percentiles
//! and throughput:
//!
//! ```text
//! loadgen: requests=2000 conns=4 errors=0 elapsed_ms=312 qps=6410.3 p50_us=140 p95_us=309 p99_us=481
//! ```
//!
//! `--zipf 1.1` skews users zipfian (rank 0 hottest); `--hot 4:0.9` aims
//! 90% of traffic at users 0..4 (a hot-key storm). The default is uniform.
//! `--exact` drives the `RECX` exact-oracle verb instead of `REC`, so the
//! two scorer paths can be load-compared on one running server.
//!
//! `--quant-parity N` replaces the load phase with a parity sweep: `N`
//! seeded probes each issue the same `(user, k)` through `REC` (the
//! quant/ANN fast path) *and* `RECX` (the pinned f32 oracle) on one
//! connection, print the overlap@k per run, and summarize the min/mean
//! overlap at the end. On a server without an enabled fast path the two
//! verbs are byte-identical and every overlap is `k/k`.
//!
//! Three single-connection modes support the online-learning smoke:
//! `--put N` streams `N` seeded `PUT user item` interactions to an
//! **ingest** listener (`--users`/`--items` bound the draws; every record
//! must come back `OK off=…` durable), `--dump N` prints the raw `OK` line
//! for users `0..N` at `k = --kmax` (a deterministic snapshot of the
//! served rankings, byte-comparable between a live run and a replay), and
//! `--stats` prints the server's raw `STATS` line.
//!
//! Argument problems are **typed** ([`ArgError`]) and rejected before any
//! traffic is sent — `--kmax 0` at parse time, `--kmax` beyond the
//! server's catalog right after the `STATS` probe — instead of surfacing
//! later as per-request `ERR` noise mid-run.
//!
//! Every response is parsed and validated (user echo, list length ≤ k,
//! strictly valid hex score bits); any `ERR` or malformed line counts as
//! an error and fails the run (non-zero exit), so this doubles as a
//! protocol conformance check under concurrency.

use std::process::ExitCode;

use graphaug_eval::overlap_count;
use graphaug_rng::StdRng;
use graphaug_serve::args::{self, ArgError, Args, Fail};
use graphaug_serve::client::{resolve_addr, ServeClient};
use graphaug_serve::workload::{drive_load, Bad, LoadPhase};
use graphaug_serve::{parse_ok_line, Request, UserSampler, Verb};

const USAGE: &str = "usage: loadgen <addr> [--requests N] [--conns N] [--seed S] [--kmax K] \
     [--zipf S | --hot H:FRAC] [--exact] [--quant-parity N] \
     [--put N --users U --items I] [--dump N] [--stats]";

enum Skew {
    Uniform,
    Zipf(f64),
    Hot { hot_users: u32, hot_frac: f64 },
}

struct Opts {
    addr: String,
    requests: usize,
    conns: usize,
    seed: u64,
    kmax: usize,
    skew: Skew,
    exact: bool,
    quant_parity: usize,
    put: usize,
    put_users: u32,
    put_items: u32,
    dump: u32,
    stats: bool,
}

/// `--kmax` exceeds the serving catalog: every draw of `k` above the item
/// count is wasted work the server would silently clamp. Only known after
/// the `STATS` probe, but still a usage error (exit 2).
fn kmax_beyond_catalog(kmax: usize, items: usize) -> ArgError {
    ArgError::invalid(
        "--kmax",
        format!("{kmax} exceeds the server catalog of {items} items"),
    )
}

/// `--hot H:FRAC`.
fn parse_hot(v: &str) -> Result<Skew, String> {
    let (h, fr) = v.split_once(':').ok_or("wants H:FRAC, e.g. 4:0.9")?;
    let hot_users = h.parse::<u32>().map_err(|e| format!("user count: {e}"))?;
    let hot_frac = fr.parse::<f64>().map_err(|e| format!("fraction: {e}"))?;
    if hot_users == 0 || !(0.0..=1.0).contains(&hot_frac) {
        return Err("wants H >= 1 and FRAC in [0,1]".into());
    }
    Ok(Skew::Hot {
        hot_users,
        hot_frac,
    })
}

fn parse(mut args: Args) -> Result<Opts, ArgError> {
    let addr: String = args.positional("<addr>")?;
    resolve_addr(&addr).map_err(|e| ArgError::invalid("<addr>", e))?;
    let zipf: Option<f64> = args.opt("--zipf")?;
    let hot: Option<String> = args.opt("--hot")?;
    let skew = match (zipf, hot) {
        (Some(_), Some(_)) => return Err(ArgError::invalid("--hot", "incompatible with --zipf")),
        (Some(s), None) if s.is_finite() && s >= 0.0 => Skew::Zipf(s),
        (Some(_), None) => {
            return Err(ArgError::invalid(
                "--zipf",
                "exponent must be finite and >= 0",
            ))
        }
        (None, Some(v)) => parse_hot(&v).map_err(|e| ArgError::invalid("--hot", e))?,
        (None, None) => Skew::Uniform,
    };
    let out = Opts {
        addr,
        // Nothing to do / divide by zero / guaranteed-empty lists.
        requests: args.at_least("--requests", 2000)?,
        conns: args.at_least("--conns", 4)?,
        seed: args.value("--seed", 1)?,
        kmax: args.at_least("--kmax", 20)?,
        skew,
        exact: args.switch("--exact")?,
        // The four modes: off unless given, and then at least 1.
        quant_parity: args.at_least("--quant-parity", 0)?,
        put: args.at_least("--put", 0)?,
        put_users: args.value("--users", 0)?,
        put_items: args.value("--items", 0)?,
        dump: args.at_least("--dump", 0)?,
        stats: args.switch("--stats")?,
    };
    args.finish()?;
    if out.quant_parity > 0 && out.exact {
        return Err(ArgError::invalid(
            "--quant-parity",
            "incompatible with --exact (the sweep drives both verbs itself)",
        ));
    }
    if out.put > 0 && (out.put_users == 0 || out.put_items == 0) {
        // The ingest listener's STATS carries no catalog shape, so the
        // draw bounds must come from the caller.
        return Err(ArgError::invalid(
            "--put",
            "needs --users U and --items I draw bounds (both >= 1)",
        ));
    }
    let modes = [out.put > 0, out.dump > 0, out.stats, out.quant_parity > 0];
    if modes.iter().filter(|&&m| m).count() > 1 {
        return Err(ArgError::invalid(
            "--put",
            "--put/--dump/--stats/--quant-parity are mutually exclusive modes",
        ));
    }
    Ok(out)
}

/// Drives the `--quant-parity` sweep on one connection: each probe sends
/// the same `(user, k)` through both verbs and scores the fast path's
/// overlap@k against the pinned `RECX` oracle. Prints one line per probe
/// plus a min/mean summary; returns `Err` on any malformed response.
fn quant_parity_sweep(
    addr: &str,
    probes: usize,
    kmax: usize,
    n_users: u32,
    seed: u64,
) -> Result<(), String> {
    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut rng = StdRng::stream(seed, 0);
    let (mut min, mut sum) = (1.0f64, 0.0f64);
    for probe in 0..probes {
        let user = rng.bounded_u64(n_users as u64) as u32;
        let k = 1 + rng.bounded_u64(kmax as u64) as usize;
        let fast = client
            .rec_one_mode(user, k, false)
            .map_err(|e| e.to_string())?;
        let oracle = client
            .rec_one_mode(user, k, true)
            .map_err(|e| e.to_string())?;
        let parse = |line: &str, verb: Verb| {
            parse_ok_line(line)
                .filter(|ok| ok.user == user && ok.k == k && ok.items.len() <= k)
                .map(|ok| ok.items.iter().map(|s| s.item).collect::<Vec<u32>>())
                .ok_or_else(|| format!("bad response for {verb} {user} {k}: {line}"))
        };
        let fast_items = parse(&fast, Verb::Rec)?;
        let oracle_items = parse(&oracle, Verb::RecX)?;
        let hits = overlap_count(&fast_items, &oracle_items);
        let ratio = if oracle_items.is_empty() {
            1.0
        } else {
            hits as f64 / oracle_items.len() as f64
        };
        min = min.min(ratio);
        sum += ratio;
        println!(
            "quant-parity[{probe}]: user={user} k={k} overlap={hits}/{} ratio={ratio:.4}",
            oracle_items.len()
        );
    }
    client.quit();
    println!(
        "quant-parity: probes={probes} min_overlap={min:.4} mean_overlap={:.4}",
        sum / probes as f64
    );
    Ok(())
}

/// Streams `n` seeded `PUT` interactions to an ingest listener and
/// requires every one acknowledged durable (`OK off=…`); any refusal or
/// malformed reply fails the run. Prints the final log offset so scripts
/// can assert the whole stream landed.
fn put_stream(addr: &str, n: usize, users: u32, items: u32, seed: u64) -> Result<(), String> {
    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut rng = StdRng::stream(seed, 0);
    let mut last_off = 0u64;
    for i in 0..n {
        let (user, item) = (rng.bounded_u64(users as u64), rng.bounded_u64(items as u64));
        let request = Request::Put { user, item };
        let line = client
            .request_lines(&request, 1)
            .map_err(|e| e.to_string())?
            .pop()
            .expect("one reply per PUT");
        match line
            .strip_prefix("OK off=")
            .and_then(|v| v.parse::<u64>().ok())
        {
            Some(off) => last_off = off,
            None => return Err(format!("{request} (record {i}) refused: {line}")),
        }
    }
    client.quit();
    println!("put: sent={n} last_off={last_off}");
    Ok(())
}

/// Prints the raw `OK` line for users `0..n` at a fixed `k`: a
/// deterministic snapshot of the served rankings (ids and hex score bits
/// included), byte-comparable between a live run and a log replay.
fn dump_rankings(addr: &str, n: u32, k: usize) -> Result<(), String> {
    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    for user in 0..n {
        let line = client.rec_one(user, k).map_err(|e| e.to_string())?;
        parse_ok_line(&line)
            .filter(|ok| ok.user == user && ok.k == k && ok.items.len() <= k)
            .ok_or_else(|| format!("bad response for {} {user} {k}: {line}", Verb::Rec))?;
        println!("{line}");
    }
    client.quit();
    Ok(())
}

/// Prints the server's raw `STATS` line and exits.
fn print_stats(addr: &str) -> Result<(), String> {
    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let line = client.stats_line().map_err(|e| e.to_string())?;
    println!("{line}");
    client.quit();
    Ok(())
}

fn main() -> ExitCode {
    args::run("loadgen", USAGE, |args| drive(parse(args)?))
}

fn drive(o: Opts) -> Result<(), Fail> {
    // The single-connection modes that talk to servers whose STATS carries
    // no catalog shape (ingest listeners) — or that only echo it — run
    // before the shape probe.
    if o.put > 0 {
        return Ok(put_stream(
            &o.addr,
            o.put,
            o.put_users,
            o.put_items,
            o.seed,
        )?);
    }
    if o.stats {
        return Ok(print_stats(&o.addr)?);
    }

    let (n_users, n_items) = ServeClient::probe_shape(&o.addr)?;
    if o.kmax > n_items {
        // Typed refusal before the first request, not 2000 clamped lists.
        return Err(kmax_beyond_catalog(o.kmax, n_items).into());
    }
    if o.dump > 0 {
        return Ok(dump_rankings(&o.addr, o.dump.min(n_users), o.kmax)?);
    }
    if o.quant_parity > 0 {
        return Ok(quant_parity_sweep(
            &o.addr,
            o.quant_parity,
            o.kmax,
            n_users,
            o.seed,
        )?);
    }
    let sampler = match o.skew {
        Skew::Uniform => UserSampler::uniform(n_users),
        Skew::Zipf(s) => UserSampler::zipf(n_users, s),
        Skew::Hot {
            hot_users,
            hot_frac,
        } => UserSampler::hot(n_users, hot_users, hot_frac),
    };

    let phase = LoadPhase {
        addr: &o.addr,
        requests: o.requests,
        conns: o.conns,
        kmax: o.kmax,
        exact: o.exact,
        seed: o.seed,
        stream_base: 0,
        who: "loadgen",
    };
    // Any `ERR` or malformed line fails the run.
    let report = drive_load(&phase, &sampler, |_, _| Bad::Error);
    let s = &report.summary;
    println!(
        "loadgen: requests={} conns={} errors={} elapsed_ms={} qps={:.1} p50_us={} p95_us={} p99_us={}",
        s.count,
        o.conns,
        report.errors,
        report.elapsed.as_millis(),
        s.qps,
        s.p50_us,
        s.p95_us,
        s.p99_us,
    );
    match report.errors {
        0 => Ok(()),
        n => Err(format!("{n} errors").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Args {
        Args::new(s.split_whitespace())
    }

    #[test]
    fn usage_names_exactly_the_flags_the_parser_takes() {
        args::assert_usage_matches(USAGE, &["127.0.0.1:9"], parse);
    }

    #[test]
    fn narrowing_is_refused_not_wrapped() {
        // 2^32 + 1 used to be cast to 1.
        for flag in ["--dump", "--users", "--items"] {
            assert!(matches!(
                parse(argv(&format!("127.0.0.1:9 {flag} 4294967297"))).err(),
                Some(ArgError::Invalid { flag: f, .. }) if f == flag
            ));
        }
        // The last of `--zipf` / `--hot` used to win without a word.
        assert!(matches!(
            parse(argv("127.0.0.1:9 --zipf 1.1 --hot 4:0.9")).err(),
            Some(ArgError::Invalid { flag: "--hot", .. })
        ));
        assert!(matches!(
            parse(argv("127.0.0.1:9 --zipf -1")).err(),
            Some(ArgError::Invalid { flag: "--zipf", .. })
        ));
    }

    #[test]
    fn kmax_zero_is_a_typed_parse_error() {
        assert_eq!(
            parse(argv("127.0.0.1:9 --kmax 0")).err(),
            Some(ArgError::BelowMinimum("--kmax"))
        );
    }

    #[test]
    fn zero_requests_and_conns_are_rejected() {
        assert_eq!(
            parse(argv("127.0.0.1:9 --requests 0")).err(),
            Some(ArgError::BelowMinimum("--requests"))
        );
        assert_eq!(
            parse(argv("127.0.0.1:9 --conns 0")).err(),
            Some(ArgError::BelowMinimum("--conns"))
        );
    }

    #[test]
    fn valid_invocations_parse() {
        let a = parse(argv("127.0.0.1:9 --requests 10 --kmax 5 --exact")).unwrap();
        assert_eq!(a.requests, 10);
        assert_eq!(a.kmax, 5);
        assert!(a.exact);
        let plain = parse(argv("127.0.0.1:9")).unwrap();
        assert!(!plain.exact);
        assert_eq!(plain.kmax, 20);
    }

    #[test]
    fn missing_and_malformed_values_are_typed() {
        assert_eq!(parse(argv("")).err(), Some(ArgError::Missing("<addr>")));
        assert_eq!(
            parse(argv("--kmax 5")).err(),
            Some(ArgError::FlagForPositional {
                name: "<addr>",
                got: "--kmax".into()
            })
        );
        assert_eq!(
            parse(argv("127.0.0.1:9 --kmax")).err(),
            Some(ArgError::MissingValue("--kmax"))
        );
        assert!(matches!(
            parse(argv("127.0.0.1:9 --kmax nope")).err(),
            Some(ArgError::Invalid { flag: "--kmax", .. })
        ));
        assert_eq!(
            parse(argv("127.0.0.1:9 --frobnicate")).err(),
            Some(ArgError::Unknown("--frobnicate".into()))
        );
    }

    #[test]
    fn quant_parity_args_are_typed() {
        let a = parse(argv("127.0.0.1:9 --quant-parity 32")).unwrap();
        assert_eq!(a.quant_parity, 32);
        assert_eq!(
            parse(argv("127.0.0.1:9 --quant-parity 0")).err(),
            Some(ArgError::BelowMinimum("--quant-parity"))
        );
        assert_eq!(
            parse(argv("127.0.0.1:9 --quant-parity")).err(),
            Some(ArgError::MissingValue("--quant-parity"))
        );
        assert!(matches!(
            parse(argv("127.0.0.1:9 --quant-parity nope")).err(),
            Some(ArgError::Invalid {
                flag: "--quant-parity",
                ..
            })
        ));
        // The sweep pins both verbs itself; `--exact` contradicts it.
        assert!(matches!(
            parse(argv("127.0.0.1:9 --quant-parity 8 --exact")).err(),
            Some(ArgError::Invalid {
                flag: "--quant-parity",
                ..
            })
        ));
    }

    #[test]
    fn put_dump_stats_modes_are_typed() {
        let a = parse(argv("127.0.0.1:9 --put 64 --users 150 --items 120")).unwrap();
        assert_eq!((a.put, a.put_users, a.put_items), (64, 150, 120));
        // PUT draws need explicit bounds — the ingest STATS has none.
        assert!(matches!(
            parse(argv("127.0.0.1:9 --put 64")).err(),
            Some(ArgError::Invalid { flag: "--put", .. })
        ));
        assert_eq!(
            parse(argv("127.0.0.1:9 --put 0")).err(),
            Some(ArgError::BelowMinimum("--put"))
        );
        let d = parse(argv("127.0.0.1:9 --dump 16 --kmax 5")).unwrap();
        assert_eq!((d.dump, d.kmax), (16, 5));
        assert_eq!(
            parse(argv("127.0.0.1:9 --dump 0")).err(),
            Some(ArgError::BelowMinimum("--dump"))
        );
        assert!(parse(argv("127.0.0.1:9 --stats")).unwrap().stats);
        // One mode per invocation.
        assert!(matches!(
            parse(argv("127.0.0.1:9 --stats --dump 4")).err(),
            Some(ArgError::Invalid { .. })
        ));
    }

    #[test]
    fn catalog_bound_error_renders_both_numbers() {
        let msg = kmax_beyond_catalog(500, 120).to_string();
        assert!(msg.contains("500") && msg.contains("120"), "{msg}");
    }
}
