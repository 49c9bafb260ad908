//! The chaos scenario driver: proves the router's tail behavior under
//! replica failure, end to end, against real processes.
//!
//! Arguments: [`USAGE`]. Each `SET` is one shard's replica addresses
//! (primary first, `|` separated — the syntax shared with `router_main`).
//! Runs a scripted timeline of load phases (the `FaultPlan` idiom from
//! `graphaug-runtime`: the schedule is data, keyed on phase index, so a
//! run replays exactly from its seed):
//!
//! 1. `uniform`   — uniform user traffic, zero errors tolerated;
//! 2. `zipf`      — zipfian skew (s = 1.1), zero errors tolerated;
//! 3. `hotstorm`  — 90% of traffic on 4 hot users, zero errors tolerated;
//! 4. *kill*      — SIGKILLs the victim shard's **primary**, then
//!    `failover`. In **manual** mode (replication 1, `--victim-respawn`)
//!    `ERR`s are allowed only for users the hash assigns to the victim
//!    shard — the documented failover window. In **supervised** mode
//!    (replication ≥ 2 under `supervisord`) the bar is the tentpole
//!    guarantee: **zero** user-visible errors — the secondary must cover
//!    the gap bit-identically while the supervisor respawns the primary;
//! 5. *recover*   — manual mode respawns the victim itself and installs
//!    the new address via `REPLACE` on the **admin** listener; supervised
//!    mode just waits for the supervisor's respawn+`REPLACE` to bring
//!    every replica back up (and asserts the router actually failed over
//!    in the meantime). Then `rejoined`: uniform, zero errors;
//! 6. *parity*    — for a sampled user set, asserts the routed response
//!    line equals a direct replica response **byte-for-byte** at several
//!    cutoffs. With replication ≥ 2 a pre-kill `SETPARITY` sweep also
//!    asserts every replica of a set answers byte-identically (the
//!    primary-vs-secondary hex parity that makes failover invisible).
//!
//! Per-phase output: `phase <name>: requests=N errors=N degraded=N
//! p50_us=… p95_us=… p99_us=… qps=…`. Any disallowed error, parity
//! mismatch, or timeline step failure exits non-zero.

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use graphaug_rng::StdRng;
use graphaug_router::{parse_replica_sets, shard_of, spawn_ready, ChildGuard};
use graphaug_serve::args::{self, ArgError, Args};
use graphaug_serve::client::{resolve_addr, stats_field, ServeClient};
use graphaug_serve::workload::{drive_load, Bad, LoadPhase, LoadReport};
use graphaug_serve::UserSampler;

const USAGE: &str = "usage: chaos_loadgen <router-addr> --replicas SET[,SET...] [--admin ADDR] \
     [--victim S --victim-pid PID (--victim-respawn \"CMD...\" | --supervised)] \
     [--requests-per-phase N] [--conns N] [--seed S] [--kmax K] [--parity-users N]";

struct Opts {
    router: String,
    replica_sets: Vec<Vec<String>>,
    admin: Option<String>,
    victim: Option<usize>,
    victim_pid: Option<u32>,
    victim_respawn: Option<String>,
    supervised: bool,
    requests_per_phase: usize,
    conns: usize,
    seed: u64,
    kmax: usize,
    parity_users: usize,
}

fn parse(mut args: Args) -> Result<Opts, ArgError> {
    let router: String = args.positional("<router-addr>")?;
    resolve_addr(&router).map_err(|e| ArgError::invalid("<router-addr>", e))?;
    let replicas = args
        .opt::<String>("--replicas")?
        .ok_or(ArgError::Missing("--replicas SET[,SET...]"))?;
    let out = Opts {
        router,
        replica_sets: parse_replica_sets(&replicas)
            .map_err(|e| ArgError::invalid("--replicas", e))?,
        admin: args.opt("--admin")?,
        victim: args.opt("--victim")?,
        victim_pid: args.opt("--victim-pid")?,
        victim_respawn: args.opt("--victim-respawn")?,
        supervised: args.switch("--supervised")?,
        requests_per_phase: args.at_least("--requests-per-phase", 400)?,
        conns: args.at_least("--conns", 4)?,
        seed: args.value("--seed", 1)?,
        kmax: args.at_least("--kmax", 20)?,
        parity_users: args.value("--parity-users", 16)?,
    };
    args.finish()?;
    if let Some(admin) = &out.admin {
        resolve_addr(admin).map_err(|e| ArgError::invalid("--admin", e))?;
    }
    if let Some(v) = out.victim {
        let shards = out.replica_sets.len();
        if v >= shards {
            let reason = format!("{v} out of range (have {shards} shards)");
            return Err(ArgError::invalid("--victim", reason));
        }
        if out.victim_pid.is_none() {
            return Err(ArgError::invalid("--victim", "needs --victim-pid"));
        }
        match (out.supervised, &out.victim_respawn) {
            (false, None) => {
                return Err(ArgError::invalid(
                    "--victim",
                    "needs --victim-respawn (or --supervised)",
                ))
            }
            (true, Some(_)) => {
                return Err(ArgError::invalid(
                    "--supervised",
                    "incompatible with --victim-respawn",
                ))
            }
            (false, Some(_)) if out.admin.is_none() => {
                return Err(ArgError::invalid(
                    "--victim-respawn",
                    "needs --admin (REPLACE is admin-only)",
                ))
            }
            _ => {}
        }
    }
    Ok(out)
}

/// One step of the scripted timeline (the `FaultPlan` idiom: schedule as
/// data, keyed on step index, fully replayable from the seed).
enum Step {
    /// Drive load shaped by the sampler; `expect_down` marks the manual
    /// failover window (ignored in supervised mode, where the bar is
    /// zero errors throughout).
    Load {
        name: &'static str,
        sampler_for: fn(u32) -> UserSampler,
        expect_down: bool,
    },
    /// SIGKILL the victim shard's primary.
    Kill,
    /// Manual mode: respawn the victim, `REPLACE` its address on the
    /// admin listener, wait for rejoin.
    Rejoin,
    /// Supervised mode: wait for the supervisor's respawn+`REPLACE` to
    /// bring every replica back up, and assert failovers happened.
    WaitRecover,
}

fn scenario(with_chaos: bool, supervised: bool) -> Vec<Step> {
    let mut steps = vec![
        Step::Load {
            name: "uniform",
            sampler_for: UserSampler::uniform,
            expect_down: false,
        },
        Step::Load {
            name: "zipf",
            sampler_for: |n| UserSampler::zipf(n, 1.1),
            expect_down: false,
        },
        Step::Load {
            name: "hotstorm",
            sampler_for: |n| UserSampler::hot(n, 4, 0.9),
            expect_down: false,
        },
    ];
    if with_chaos {
        steps.push(Step::Kill);
        steps.push(Step::Load {
            name: "failover",
            sampler_for: UserSampler::uniform,
            expect_down: true,
        });
        steps.push(if supervised {
            Step::WaitRecover
        } else {
            Step::Rejoin
        });
        steps.push(Step::Load {
            name: "rejoined",
            sampler_for: UserSampler::uniform,
            expect_down: false,
        });
    }
    steps
}

/// One load phase against the router. `expect_down` is the shard the
/// scenario just killed: its users' `ERR`s count as degraded, not errors.
fn run_phase(
    o: &Opts,
    phase_idx: usize,
    name: &str,
    sampler: &UserSampler,
    expect_down: Option<usize>,
) -> LoadReport {
    let n_shards = o.replica_sets.len();
    let who = format!("chaos_loadgen: phase {name}");
    let phase = LoadPhase {
        addr: &o.router,
        requests: o.requests_per_phase,
        conns: o.conns,
        kmax: o.kmax,
        exact: false,
        seed: o.seed,
        stream_base: (phase_idx as u64) << 32,
        who: &who,
    };
    let report = drive_load(&phase, sampler, |user, line| {
        if line.starts_with("ERR ") && expect_down == Some(shard_of(user, n_shards)) {
            Bad::Degraded
        } else {
            Bad::Error
        }
    });
    let s = &report.summary;
    println!(
        "phase {name}: requests={} errors={} degraded={} \
         p50_us={} p95_us={} p99_us={} qps={:.1}",
        s.count, report.errors, report.degraded, s.p50_us, s.p95_us, s.p99_us, s.qps
    );
    report
}

/// Waits until the router reports `shard` up (after a REPLACE).
fn wait_for_rejoin(router: &str, shard: usize, timeout: Duration) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    let mut client = ServeClient::connect(router).map_err(|e| format!("connect {router}: {e}"))?;
    let result = loop {
        let line = client.stats_line().map_err(|e| format!("STATS: {e}"))?;
        let up = stats_field(&line, "replicas=")
            .and_then(|v| v.split(',').nth(shard).map(|s| s == "up"))
            .unwrap_or(false);
        if up {
            break Ok(());
        }
        if Instant::now() >= deadline {
            break Err(format!("shard {shard} never rejoined: {line}"));
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    client.quit();
    result
}

/// Supervised recovery: waits until the router's `replica_states=` shows
/// every replica of every shard up again (the supervisor respawned and
/// `REPLACE`d the victim), and returns the router's failover counter.
fn wait_for_full_recovery(router: &str, timeout: Duration) -> Result<u64, String> {
    let deadline = Instant::now() + timeout;
    let mut client = ServeClient::connect(router).map_err(|e| format!("connect {router}: {e}"))?;
    let result = loop {
        let line = client.stats_line().map_err(|e| format!("STATS: {e}"))?;
        let all_up = stats_field(&line, "replica_states=")
            .map(|v| {
                !v.is_empty()
                    && v.split(',')
                        .flat_map(|set| set.split('|'))
                        .all(|s| s == "up")
            })
            .unwrap_or(false);
        if all_up {
            let failovers = stats_field(&line, "failovers=")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            break Ok(failovers);
        }
        if Instant::now() >= deadline {
            break Err(format!("replicas never fully recovered: {line}"));
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    client.quit();
    result
}

/// Hex-exact routed-vs-direct parity over a sampled user set: the routed
/// line must equal a live replica's direct line byte-for-byte. `direct`
/// holds one address per shard (a replica known to be alive).
fn parity_sweep(args: &Opts, direct_addrs: &[String], n_users: u32) -> Result<usize, String> {
    let mut routed = ServeClient::connect(&args.router).map_err(|e| e.to_string())?;
    let mut direct: Vec<ServeClient> = Vec::with_capacity(direct_addrs.len());
    for addr in direct_addrs {
        direct.push(ServeClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?);
    }
    let mut rng = StdRng::stream(args.seed, 0xFAC7);
    let mut compared = 0usize;
    for _ in 0..args.parity_users {
        let user = rng.bounded_u64(n_users as u64) as u32;
        let shard = shard_of(user, direct_addrs.len());
        for k in [1usize, 5, 20] {
            let via_router = routed.rec_one(user, k).map_err(|e| e.to_string())?;
            let via_replica = direct[shard].rec_one(user, k).map_err(|e| e.to_string())?;
            if via_router != via_replica {
                return Err(format!(
                    "parity mismatch for user {user} k {k} (shard {shard}):\n  routed: {via_router}\n  direct: {via_replica}"
                ));
            }
            if !via_router.starts_with("OK ") {
                return Err(format!(
                    "parity request failed for user {user}: {via_router}"
                ));
            }
            compared += 1;
        }
    }
    Ok(compared)
}

/// Primary-vs-secondary hex parity: every replica of a set must answer
/// byte-identically (same checkpoint, same bits), which is the property
/// that makes failover invisible. Run before any kill, while every
/// replica is alive. Returns the number of lines compared.
fn set_parity_sweep(args: &Opts, n_users: u32) -> Result<usize, String> {
    let mut rng = StdRng::stream(args.seed, 0x5E7B);
    let mut compared = 0usize;
    for (shard, set) in args.replica_sets.iter().enumerate() {
        if set.len() < 2 {
            continue;
        }
        let mut conns: Vec<ServeClient> = Vec::with_capacity(set.len());
        for addr in set {
            conns.push(ServeClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?);
        }
        for _ in 0..args.parity_users.max(1) {
            // Only users this shard owns — a replica would answer others
            // too, but the property we care about is the served path.
            let user = loop {
                let u = rng.bounded_u64(n_users as u64) as u32;
                if shard_of(u, args.replica_sets.len()) == shard {
                    break u;
                }
            };
            for k in [1usize, 5, 20] {
                let primary = conns[0].rec_one(user, k).map_err(|e| e.to_string())?;
                if !primary.starts_with("OK ") {
                    return Err(format!("set-parity request failed: {primary}"));
                }
                for (r, conn) in conns.iter_mut().enumerate().skip(1) {
                    let secondary = conn.rec_one(user, k).map_err(|e| e.to_string())?;
                    if primary != secondary {
                        return Err(format!(
                            "set-parity mismatch shard {shard} user {user} k {k}:\n  \
                             replica 0: {primary}\n  replica {r}: {secondary}"
                        ));
                    }
                    compared += 1;
                }
            }
        }
        for conn in conns {
            conn.quit();
        }
    }
    Ok(compared)
}

fn run(args: &Opts) -> Result<(), String> {
    let (n_users, _) = ServeClient::probe_shape(&args.router)?;
    let n_shards = args.replica_sets.len();
    let replication = args.replica_sets.iter().map(Vec::len).max().unwrap_or(1);
    println!(
        "chaos_loadgen: routing {} users over {n_shards} shards (replication {replication}) via {}",
        n_users, args.router
    );

    // Primary-vs-secondary bit parity, while everything is still alive.
    if replication > 1 {
        let pairs = set_parity_sweep(args, n_users)?;
        println!("SETPARITY ok lines={pairs} (replicas of a set answer byte-identically)");
    }

    // One known-alive direct address per shard for the final parity sweep:
    // the set's *last* replica — never a kill victim (victims are
    // primaries) — or the rejoined primary in manual replication-1 mode.
    let mut direct_addrs: Vec<String> = args
        .replica_sets
        .iter()
        .map(|set| set.last().expect("non-empty set").clone())
        .collect();
    let mut respawned: Option<ChildGuard> = None;
    let mut failures = 0usize;

    for (idx, step) in scenario(args.victim.is_some(), args.supervised)
        .iter()
        .enumerate()
    {
        match step {
            Step::Load {
                name,
                sampler_for,
                expect_down,
            } => {
                let sampler = sampler_for(n_users);
                // Supervised mode tolerates no errors anywhere: the
                // secondary must cover the killed primary bit-identically.
                let expect = if *expect_down && !args.supervised {
                    args.victim
                } else {
                    None
                };
                let report = run_phase(args, idx, name, &sampler, expect);
                if report.errors > 0 {
                    eprintln!(
                        "chaos_loadgen: phase {name}: {} disallowed errors",
                        report.errors
                    );
                    failures += report.errors;
                }
                if expect.is_none() && report.degraded > 0 {
                    // Cannot happen (degraded is only counted when a shard
                    // is expected down), but keep the invariant loud.
                    failures += report.degraded;
                }
            }
            Step::Kill => {
                let pid = args.victim_pid.expect("validated with --victim");
                let status = Command::new("kill")
                    .args(["-9", &pid.to_string()])
                    .status()
                    .map_err(|e| format!("kill -9 {pid}: {e}"))?;
                if !status.success() {
                    return Err(format!("kill -9 {pid} failed: {status}"));
                }
                println!(
                    "killed shard {} primary (pid {pid})",
                    args.victim.expect("set")
                );
            }
            Step::Rejoin => {
                let victim = args.victim.expect("validated");
                let cmdline = args.victim_respawn.as_deref().expect("validated");
                let argv: Vec<String> = cmdline.split_whitespace().map(str::to_string).collect();
                let (guard, new_addr) = spawn_ready(&argv, Duration::from_secs(120))?;
                println!("respawned shard {victim} primary at {new_addr}");
                let admin_addr = args.admin.as_deref().expect("validated");
                let mut admin = ServeClient::connect(admin_addr).map_err(|e| e.to_string())?;
                let reply = admin
                    .request_lines(&format!("REPLACE {victim} 0 {new_addr}"), 1)
                    .map_err(|e| format!("REPLACE: {e}"))?
                    .remove(0);
                admin.quit();
                if !reply.starts_with("OK ") {
                    return Err(format!("REPLACE rejected: {reply}"));
                }
                wait_for_rejoin(&args.router, victim, Duration::from_secs(30))?;
                println!("shard {victim} rejoined without router restart");
                if args.replica_sets[victim].len() == 1 {
                    direct_addrs[victim] = new_addr;
                }
                respawned = Some(guard);
            }
            Step::WaitRecover => {
                let failovers = wait_for_full_recovery(&args.router, Duration::from_secs(60))?;
                if failovers == 0 {
                    return Err(
                        "supervised recovery finished but the router never failed over \
                         (failovers=0 — was the victim really a serving primary?)"
                            .into(),
                    );
                }
                println!(
                    "supervisor recovered all replicas (router failovers={failovers}), \
                     no operator input"
                );
            }
        }
    }

    let compared = parity_sweep(args, &direct_addrs, n_users)?;
    println!(
        "PARITY ok routed-vs-direct lists={compared} users={} shards={n_shards}",
        args.parity_users
    );
    drop(respawned);

    if failures > 0 {
        Err(format!("{failures} disallowed errors across phases"))
    } else {
        Ok(())
    }
}

fn main() -> ExitCode {
    args::run("chaos_loadgen", USAGE, |args| {
        run(&parse(args)?).map_err(|e| format!("FAIL: {e}"))?;
        println!("chaos_loadgen: OK");
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(argv: &str) -> Result<Opts, ArgError> {
        parse(Args::new(argv.split_whitespace()))
    }

    #[test]
    fn usage_names_exactly_the_flags_the_parser_takes() {
        args::assert_usage_matches(USAGE, &["127.0.0.1:9", "--replicas", "127.0.0.1:1"], parse);
    }

    #[test]
    fn a_victim_pid_beyond_u32_is_refused_not_wrapped_to_pid_1() {
        let base = "127.0.0.1:9 --replicas 127.0.0.1:1,127.0.0.1:2 --supervised --victim 1";
        assert!(matches!(
            parse_str(&format!("{base} --victim-pid 4294967297")).err(),
            Some(ArgError::Invalid {
                flag: "--victim-pid",
                ..
            })
        ));
        let ok = parse_str(&format!("{base} --victim-pid 4242")).unwrap();
        assert_eq!((ok.victim, ok.victim_pid), (Some(1), Some(4242)));
        assert_eq!(ok.replica_sets.len(), 2);
    }

    #[test]
    fn the_scenario_flags_are_judged_together() {
        let sets = "--replicas 127.0.0.1:1,127.0.0.1:2";
        assert_eq!(
            parse_str("127.0.0.1:9").err(),
            Some(ArgError::Missing("--replicas SET[,SET...]"))
        );
        for (argv, flag) in [
            (
                format!("127.0.0.1:9 {sets} --victim 2 --victim-pid 7 --supervised"),
                "--victim",
            ),
            (
                format!("127.0.0.1:9 {sets} --victim 0 --supervised"),
                "--victim",
            ),
            (
                format!("127.0.0.1:9 {sets} --victim 0 --victim-pid 7"),
                "--victim",
            ),
            (
                format!("127.0.0.1:9 {sets} --victim 0 --victim-pid 7 --victim-respawn x"),
                "--victim-respawn",
            ),
            (format!("127.0.0.1:9 {sets} --conns 0"), "--conns"),
        ] {
            let err = parse_str(&argv).err();
            assert!(
                matches!(&err, Some(ArgError::Invalid { flag: f, .. } | ArgError::BelowMinimum(f)) if *f == flag),
                "{argv}: {err:?}"
            );
        }
    }
}
