//! Supervisor integration tests against real child processes — the
//! protocol-faithful `mock_replica` binary (Cargo builds it for us and
//! hands over the path via `CARGO_BIN_EXE_mock_replica`). These cover the
//! full auto-heal loop the ci.sh chaos smoke runs with real engines:
//! SIGKILL a primary, the secondary covers bit-identically with zero
//! user-visible errors, the supervisor respawns the child on a new port
//! and `REPLACE`s it into the router — all without an operator.

use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphaug_router::{start, Router, RouterConfig, Supervisor, SupervisorConfig};
use graphaug_serve::ServeClient;

fn mock_cmd(extra: &[&str]) -> Vec<String> {
    let mut argv = vec![env!("CARGO_BIN_EXE_mock_replica").to_string()];
    argv.extend(extra.iter().map(|s| s.to_string()));
    argv
}

fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The headline chaos scenario, in-process: 2 shards × 2 replicas of the
/// mock engine, SIGKILL shard 0's primary while traffic flows, and assert
/// (a) zero user-visible errors — the secondary answers every request,
/// (b) the supervisor respawns the child and `REPLACE`s its new address,
/// (c) the reborn primary rejoins the router's health board.
#[test]
fn supervisor_respawns_a_killed_primary_and_replaces_it() {
    let mut cfg = SupervisorConfig::new(2, 2, mock_cmd(&["--gen", "3"]));
    cfg.probe_period = Duration::from_millis(50);
    cfg.backoff_base = Duration::from_millis(10);
    cfg.backoff_cap = Duration::from_millis(100);
    cfg.ready_timeout = Duration::from_secs(30);
    let mut sup = Supervisor::new(cfg);
    let stats = sup.stats();
    let mut boot_log = Vec::new();
    let sets = sup
        .spawn_all(&mut |line: &str| boot_log.push(line.to_string()))
        .unwrap();
    assert_eq!(sets.len(), 2);
    assert!(sets.iter().all(|s| s.len() == 2), "{sets:?}");
    assert_eq!(
        boot_log
            .iter()
            .filter(|l| l.starts_with("SPAWNED "))
            .count(),
        4,
        "{boot_log:?}"
    );

    let router = Router::new(RouterConfig::from_sets(sets).probe_period(Duration::from_millis(10)));
    let handle = start(router.clone(), "127.0.0.1:0").unwrap();
    let admin = handle.admin_addr().to_string();
    let victim_pid = sup.pid(0, 0).expect("shard 0 primary has a pid");

    // Supervision loop on its own thread, like `supervisord` runs it.
    let stop = Arc::new(AtomicBool::new(false));
    let loop_stop = stop.clone();
    let loop_admin = admin.clone();
    let sup_thread = std::thread::spawn(move || {
        let mut log = |line: &str| println!("[supervisor] {line}");
        sup.run(&loop_admin, &loop_stop, &mut log);
        sup
    });

    // SIGKILL the primary out from under everything — exactly what the
    // ci.sh chaos smoke does from the outside.
    let killed = Command::new("kill")
        .args(["-9", &victim_pid.to_string()])
        .status()
        .expect("spawn kill");
    assert!(killed.success(), "kill -9 {victim_pid} failed");

    // Traffic must stay error-free for the entire recovery window: the
    // secondary serves (mock replicas of the same gen are byte-identical)
    // until the respawned primary is REPLACEd back in.
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut served = 0u64;
    while Instant::now() < deadline && stats.replaces.load(Ordering::Relaxed) == 0 {
        for user in 0..8u32 {
            let line = client.rec_one(user, 5).unwrap();
            assert!(
                line.starts_with("OK "),
                "zero user-visible errors during respawn, got {line:?}"
            );
            served += 1;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        stats.respawns.load(Ordering::Relaxed) >= 1,
        "supervisor must respawn the killed child"
    );
    assert!(
        stats.replaces.load(Ordering::Relaxed) >= 1,
        "supervisor must REPLACE the respawned address into the router"
    );
    assert!(served > 0, "the recovery window saw no traffic at all");
    assert!(
        router.failover_count() > 0,
        "the secondary must have served while the primary was dead"
    );

    // The replaced replica rejoins the router's board on its own (prober).
    wait_until(
        "replaced primary to rejoin the health board",
        Duration::from_secs(30),
        || router.health().is_up(0, 0),
    );
    let line = client.rec_one(0, 5).unwrap();
    assert!(line.starts_with("OK "), "after rejoin: {line:?}");

    stop.store(true, Ordering::Relaxed);
    let sup = sup_thread.join().unwrap();
    drop(sup);
    client.quit();
    handle.stop();
}

/// The restart budget: a replica that dies moments after every boot gets
/// exactly `restart_budget` respawns, then is abandoned (logged and
/// counted) instead of being restarted in a hot loop forever.
#[test]
fn restart_budget_abandons_a_crash_looping_replica() {
    let mut cfg = SupervisorConfig::new(1, 1, mock_cmd(&["--die-ms", "40"]));
    cfg.probe_period = Duration::from_millis(25);
    cfg.backoff_base = Duration::from_millis(5);
    cfg.backoff_cap = Duration::from_millis(20);
    cfg.ready_timeout = Duration::from_secs(30);
    cfg.restart_budget = 2;
    let mut sup = Supervisor::new(cfg);
    let stats = sup.stats();
    let mut log = Vec::new();
    let mut push = |line: &str| log.push(line.to_string());
    sup.spawn_all(&mut push).unwrap();

    // No router behind this admin address: REPLACE attempts fail fast and
    // are logged, which is fine — the budget math is what's under test.
    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(30);
    while stats.abandoned.load(Ordering::Relaxed) == 0 {
        assert!(
            Instant::now() < deadline,
            "supervisor never abandoned the crash-looper"
        );
        sup.sweep("127.0.0.1:1", &stop, &mut push);
        std::thread::sleep(Duration::from_millis(25));
    }

    // Abandoned slots stay abandoned: a further sweep is a no-op.
    sup.sweep("127.0.0.1:1", &stop, &mut push);
    assert_eq!(stats.abandoned.load(Ordering::Relaxed), 1);
    assert_eq!(
        stats.respawns.load(Ordering::Relaxed),
        2,
        "exactly the restart budget of respawns; log: {log:?}"
    );
    assert!(
        log.iter()
            .any(|l| l.starts_with("ABANDONED shard=0 replica=0")),
        "{log:?}"
    );
}

/// Deterministic backoff schedule: the RESPAWN log lines of a replayed
/// crash-loop carry exactly the delays `backoff_with_jitter` predicts for
/// the configured seed — the property that makes chaos runs replayable.
#[test]
fn respawn_backoff_follows_the_seeded_schedule() {
    let mut cfg = SupervisorConfig::new(1, 1, mock_cmd(&["--die-ms", "30"]));
    cfg.probe_period = Duration::from_millis(25);
    cfg.backoff_base = Duration::from_millis(8);
    cfg.backoff_cap = Duration::from_millis(64);
    cfg.ready_timeout = Duration::from_secs(30);
    cfg.restart_budget = 3;
    cfg.seed = 42;
    let expected: Vec<u128> = (0..3)
        .map(|attempt| {
            graphaug_router::backoff_with_jitter(
                cfg.backoff_base,
                cfg.backoff_cap,
                attempt,
                cfg.seed,
                0,
                0,
            )
            .as_millis()
        })
        .collect();

    let mut sup = Supervisor::new(cfg);
    let stats = sup.stats();
    let mut log = Vec::new();
    let mut push = |line: &str| log.push(line.to_string());
    sup.spawn_all(&mut push).unwrap();
    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(30);
    while stats.abandoned.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "crash-looper never abandoned");
        sup.sweep("127.0.0.1:1", &stop, &mut push);
        std::thread::sleep(Duration::from_millis(25));
    }

    let logged: Vec<u128> = log
        .iter()
        .filter(|l| l.starts_with("RESPAWN shard=0"))
        .filter_map(|l| graphaug_serve::field(l, "backoff_ms").and_then(|v| v.parse().ok()))
        .collect();
    assert_eq!(
        logged, expected,
        "logged backoff schedule must replay the seeded one; log: {log:?}"
    );
}
