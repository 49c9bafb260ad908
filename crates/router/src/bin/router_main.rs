//! The shard-router process: hashes users across N replica sets.
//!
//! Arguments: [`USAGE`].
//!
//! Each `SET` is one shard's replica addresses, primary first, separated
//! by `|` (a plain address is a set of one): `p0|s0,p1|s1` is two shards
//! at replication factor 2. Speaks the serving protocol on the public
//! port; the admin verb `REPLACE <shard> [<replica>] <addr>` (re-point a
//! replica at a restarted process) is accepted only on the separate
//! loopback admin listener. Prints
//! `READY addr=<bound> admin=<bound> shards=<n> up=<k>` once listening —
//! replicas that are down at boot do not block startup; the prober marks
//! them up when they appear.

use std::process::ExitCode;
use std::time::Duration;

use graphaug_router::{parse_replica_sets, probe_once, start_with_admin, Router, RouterConfig};
use graphaug_serve::args::{self, ArgError, Args};

const USAGE: &str = "usage: router_main --replicas SET[,SET...] [--addr HOST:PORT] \
     [--admin-addr LOOPBACK:PORT] [--probe-ms N] [--budget-ms N]";

struct Opts {
    replica_sets: Vec<Vec<String>>,
    addr: String,
    admin_addr: String,
    probe_ms: u64,
    budget_ms: u64,
}

fn parse(mut args: Args) -> Result<Opts, ArgError> {
    let replicas = args
        .opt::<String>("--replicas")?
        .ok_or(ArgError::Missing("--replicas SET[,SET...]"))?;
    let out = Opts {
        replica_sets: parse_replica_sets(&replicas)
            .map_err(|e| ArgError::invalid("--replicas", e))?,
        addr: args.value("--addr", "127.0.0.1:0".into())?,
        admin_addr: args.value("--admin-addr", "127.0.0.1:0".into())?,
        probe_ms: args.at_least("--probe-ms", 25)?,
        budget_ms: args.at_least("--budget-ms", 5000)?,
    };
    args.finish()?;
    Ok(out)
}

fn main() -> ExitCode {
    args::run("router_main", USAGE, |args| {
        let opts = parse(args)?;
        let cfg = RouterConfig::from_sets(opts.replica_sets)
            .probe_period(Duration::from_millis(opts.probe_ms))
            .request_budget(Duration::from_millis(opts.budget_ms));
        let router = Router::new(cfg);

        // Two synchronous probe sweeps so the READY line reports real
        // state: a replica that is down at boot needs `down_after` (2)
        // consecutive failures to be marked down.
        for _ in 0..2 {
            for shard in 0..router.n_shards() {
                for replica in 0..router.health().n_replicas(shard) {
                    probe_once(router.health(), shard, replica, Duration::from_millis(500));
                }
            }
        }

        let (addr, admin_addr) = (&opts.addr, &opts.admin_addr);
        let handle = start_with_admin(router.clone(), addr, admin_addr)
            .map_err(|e| format!("cannot bind {addr} / admin {admin_addr}: {e}"))?;
        println!(
            "READY addr={} admin={} shards={} up={}",
            handle.addr(),
            handle.admin_addr(),
            router.n_shards(),
            router.health().up_count()
        );

        // Route until killed (the accept loops run on their own threads).
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_exactly_the_flags_the_parser_takes() {
        args::assert_usage_matches(USAGE, &["--replicas", "127.0.0.1:1"], parse);
    }

    #[test]
    fn replicas_are_required_and_periods_are_at_least_one() {
        let parse_str = |argv: &str| parse(Args::new(argv.split_whitespace()));
        assert_eq!(
            parse_str("--probe-ms 5").err(),
            Some(ArgError::Missing("--replicas SET[,SET...]"))
        );
        for flag in ["--probe-ms", "--budget-ms"] {
            assert_eq!(
                parse_str(&format!("--replicas 127.0.0.1:1 {flag} 0")).err(),
                Some(ArgError::BelowMinimum(flag))
            );
        }
        let ok = parse_str("--budget-ms 9 --replicas 127.0.0.1:1|127.0.0.1:2,127.0.0.1:3").unwrap();
        assert_eq!((ok.replica_sets.len(), ok.replica_sets[0].len()), (2, 2));
        assert_eq!((ok.probe_ms, ok.budget_ms), (25, 9));
    }
}
