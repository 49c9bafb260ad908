//! The one-command HA deployment: replicas + router + respawn loop.
//!
//! Arguments: [`USAGE`].
//!
//! Spawns `shards × replication` replica child processes (sequentially —
//! the first one trains/validates the checkpoint, the rest reuse it),
//! boots the shard router in-process over the resulting replica sets,
//! then supervises forever: a replica that exits or hangs is respawned
//! under seeded exponential backoff with a restart budget, and its new
//! ephemeral address is installed into the router via `REPLACE` on the
//! loopback admin listener — no operator, no router restart, and (with
//! replication ≥ 2) no user-visible errors while the respawn is in
//! flight, because the surviving replica serves the same bits.
//!
//! Output is line-oriented and scrapable: one `SPAWNED shard= replica=
//! pid= addr=` line per child, then `READY addr=<public> admin=<admin>
//! shards=N replication=R`, then lifecycle events
//! (`EXITED`/`HUNG`/`RESPAWN`/`RESPAWNED`/`REPLACED`/`ABANDONED`) as they
//! happen. `ci.sh` parses the pids for cleanup and asserts the
//! `RESPAWNED`+`REPLACED` pair appears after SIGKILLing a primary.

use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

use graphaug_router::{
    probe_once, start_with_admin, Router, RouterConfig, Supervisor, SupervisorConfig,
};
use graphaug_serve::args::{self, ArgError, Args};

const USAGE: &str = "usage: supervisord --shards N [--replication R] --cmd \"BIN ARGS...\" \
     [--addr HOST:PORT] [--admin-addr LOOPBACK:PORT] [--probe-ms N] [--budget-ms N] \
     [--backoff-ms N] [--backoff-cap-ms N] [--seed S]";

struct Opts {
    shards: usize,
    replication: usize,
    cmd: Vec<String>,
    addr: String,
    admin_addr: String,
    probe_ms: u64,
    budget_ms: u64,
    backoff_ms: u64,
    backoff_cap_ms: u64,
    seed: u64,
}

fn parse(mut args: Args) -> Result<Opts, ArgError> {
    let out = Opts {
        shards: args.at_least("--shards", 0)?,
        replication: args.at_least("--replication", 2)?,
        // One quoted token, split here: the replica's own `--flags` ride
        // inside it and are never mistaken for this program's.
        cmd: args
            .value("--cmd", String::new())?
            .split_whitespace()
            .map(str::to_string)
            .collect(),
        addr: args.value("--addr", "127.0.0.1:0".into())?,
        admin_addr: args.value("--admin-addr", "127.0.0.1:0".into())?,
        probe_ms: args.at_least("--probe-ms", 100)?,
        budget_ms: args.at_least("--budget-ms", 5000)?,
        backoff_ms: args.value("--backoff-ms", 50)?,
        backoff_cap_ms: args.value("--backoff-cap-ms", 5000)?,
        seed: args.value("--seed", 1)?,
    };
    args.finish()?;
    if out.shards == 0 {
        return Err(ArgError::Missing("--shards N"));
    }
    if out.cmd.is_empty() {
        return Err(ArgError::Missing(
            "--cmd \"BIN ARGS...\" (must print READY addr=...)",
        ));
    }
    Ok(out)
}

fn main() -> ExitCode {
    args::run("supervisord", USAGE, |args| {
        let opts = parse(args)?;
        // The READY timeout (120 s: the first child may train) and the
        // restart budget (5) are `SupervisorConfig`'s defaults.
        let mut sup_cfg = SupervisorConfig::new(opts.shards, opts.replication, opts.cmd);
        sup_cfg.probe_period = Duration::from_millis(opts.probe_ms);
        sup_cfg.backoff_base = Duration::from_millis(opts.backoff_ms);
        sup_cfg.backoff_cap = Duration::from_millis(opts.backoff_cap_ms);
        sup_cfg.seed = opts.seed;

        let mut log = |line: &str| println!("{line}");
        let mut supervisor = Supervisor::new(sup_cfg);
        let sets = supervisor
            .spawn_all(&mut log)
            .map_err(|e| format!("spawn failed: {e}"))?;

        let router_cfg = RouterConfig::from_sets(sets)
            .probe_period(Duration::from_millis(opts.probe_ms.min(50)))
            .request_budget(Duration::from_millis(opts.budget_ms));
        let router = Router::new(router_cfg);
        // One synchronous probe sweep so the READY line reports real state
        // (every replica just printed READY, so one success each suffices).
        for shard in 0..router.n_shards() {
            for replica in 0..router.health().n_replicas(shard) {
                probe_once(router.health(), shard, replica, Duration::from_millis(500));
            }
        }
        let (addr, admin_addr) = (&opts.addr, &opts.admin_addr);
        let handle = start_with_admin(router.clone(), addr, admin_addr)
            .map_err(|e| format!("cannot bind {addr} / admin {admin_addr}: {e}"))?;
        let admin = handle.admin_addr().to_string();
        println!(
            "READY addr={} admin={admin} shards={} replication={}",
            handle.addr(),
            opts.shards,
            opts.replication
        );

        // Supervise until killed. The router's accept loops and prober run
        // on their own threads; this thread owns the children.
        let stop = AtomicBool::new(false);
        supervisor.run(&admin, &stop, &mut log);
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(argv: &[&str]) -> Result<Opts, ArgError> {
        parse(Args::new(argv.iter().copied()))
    }

    #[test]
    fn usage_names_exactly_the_flags_the_parser_takes() {
        args::assert_usage_matches(USAGE, &[], parse);
        // `SupervisorConfig`'s constants since they lost their last caller.
        for gone in ["--ready-timeout-ms", "--restart-budget"] {
            assert_eq!(
                parse_str(&["--shards", "1", "--cmd", "x", gone, "5"]).err(),
                Some(ArgError::Unknown(gone.into()))
            );
        }
    }

    #[test]
    fn the_replica_command_is_one_token_whatever_flags_it_carries() {
        let cmd = "serve_main ck --quant --parity-users 2";
        let ok = parse_str(&["--cmd", cmd, "--shards", "2", "--probe-ms", "100"]).unwrap();
        assert_eq!(
            ok.cmd,
            ["serve_main", "ck", "--quant", "--parity-users", "2"]
        );
        assert_eq!((ok.shards, ok.replication, ok.probe_ms), (2, 2, 100));
    }

    #[test]
    fn shards_and_a_command_are_required_and_counts_are_at_least_one() {
        assert_eq!(
            parse_str(&["--cmd", "x"]).err(),
            Some(ArgError::Missing("--shards N"))
        );
        assert!(matches!(
            parse_str(&["--shards", "1"]).err(),
            Some(ArgError::Missing(_))
        ));
        for flag in ["--replication", "--probe-ms", "--budget-ms"] {
            assert_eq!(
                parse_str(&["--shards", "1", "--cmd", "x", flag, "0"]).err(),
                Some(ArgError::BelowMinimum(flag))
            );
        }
        assert_eq!(
            parse_str(&["--cmd", "x", "--shards", "0"]).err(),
            Some(ArgError::BelowMinimum("--shards"))
        );
    }
}
