//! Router integration tests against in-process replicas: three serving
//! engines over one trained checkpoint, a real router in front, and the
//! full failure lifecycle — parity, victim death, degraded window, rejoin
//! on a new port via `REPLACE` — all without leaving the test process.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use graphaug_core::GraphAugConfig;
use graphaug_data::{generate, SyntheticConfig};
use graphaug_graph::InteractionGraph;
use graphaug_ingest::{log_len, start_ingest, LogWriter};
use graphaug_router::{shard_of, spawn_ready, start, Router, RouterConfig};
use graphaug_runtime::{Runtime, RuntimeConfig};
use graphaug_serve::proto::{Unserved, VERBS};
use graphaug_serve::{err_kind, serve, Engine, IvfParams, ModelSource, Request, ServeClient, Verb};

/// A unique, self-cleaning directory per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("graphaug-router-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn toy_graph() -> InteractionGraph {
    generate(&SyntheticConfig::new(60, 45, 700).clusters(4).seed(21))
}

fn toy_model() -> GraphAugConfig {
    GraphAugConfig::fast_test()
        .seed(5)
        .epochs(4)
        .steps_per_epoch(3)
}

/// Trains the toy model to completion, leaving checkpoints under `dir`.
fn train_into(dir: &Path, graph: &InteractionGraph) {
    let mut rt = Runtime::new(RuntimeConfig::new(toy_model()).checkpoint_dir(dir), graph).unwrap();
    rt.run().unwrap();
}

/// Opens one replica engine over the shared checkpoint dir and serves it
/// on an ephemeral loopback port.
fn boot_replica(graph: &InteractionGraph, dir: &Path) -> graphaug_serve::ServerHandle {
    let engine = Arc::new(Engine::open(ModelSource::new(toy_model(), graph.clone(), dir)).unwrap());
    serve(engine, "127.0.0.1:0").unwrap()
}

/// Same, but with the IVF ANN fast path enabled on the replica.
fn boot_ann_replica(
    graph: &InteractionGraph,
    dir: &Path,
    params: IvfParams,
) -> graphaug_serve::ServerHandle {
    let source = ModelSource::new(toy_model(), graph.clone(), dir).ann(params);
    let engine = Arc::new(Engine::open(source).unwrap());
    assert!(
        engine.tables().ann().expect("index built").enabled(),
        "test replica's ANN gate must pass"
    );
    serve(engine, "127.0.0.1:0").unwrap()
}

fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The full lifecycle in one scripted scenario (mirrors what `ci.sh` runs
/// against real processes): parity, batch ordering, STATS merge, victim
/// death, degraded window scoped to the victim's users, rejoin on a new
/// port via REPLACE, and parity again.
#[test]
fn routed_responses_survive_kill_and_rejoin_bit_identically() {
    let graph = toy_graph();
    let n_users = graph.n_users() as u32;
    let dir = TempDir::new("lifecycle");
    train_into(dir.path(), &graph);

    // Three replicas over the same trained checkpoint directory.
    let mut replicas: Vec<_> = (0..3).map(|_| boot_replica(&graph, dir.path())).collect();
    let addrs: Vec<String> = replicas.iter().map(|h| h.addr().to_string()).collect();

    let router =
        Router::new(RouterConfig::new(addrs.clone()).probe_period(Duration::from_millis(10)));
    let handle = start(router.clone(), "127.0.0.1:0").unwrap();
    let router_addr = handle.addr().to_string();

    // Every shard must own at least one user or the failover assertions
    // below are vacuous (the balance property test guarantees this for
    // real populations; pin it for this toy one).
    let mut owned: Vec<Vec<u32>> = vec![Vec::new(); 3];
    for user in 0..n_users {
        owned[shard_of(user, 3)].push(user);
    }
    for (shard, users) in owned.iter().enumerate() {
        assert!(!users.is_empty(), "shard {shard} owns no toy users");
    }

    let mut via_router = ServeClient::connect(&router_addr).unwrap();
    let mut direct: Vec<ServeClient> = addrs
        .iter()
        .map(|a| ServeClient::connect(a).unwrap())
        .collect();

    // --- Parity: routed line == owning replica's line, byte for byte. ---
    for user in 0..n_users {
        let shard = shard_of(user, 3);
        for k in [1usize, 5, 20] {
            let routed = via_router.rec_one(user, k).unwrap();
            let expect = direct[shard].rec_one(user, k).unwrap();
            assert!(routed.starts_with("OK "), "user {user} k {k}: {routed}");
            assert_eq!(
                routed, expect,
                "user {user} k {k}: routed response must be bit-identical \
                 to shard {shard}'s direct response"
            );
        }
    }

    // --- Cross-shard batch: one REC spanning all shards answers in
    // request order. ---
    let batch: Vec<u32> = (0..n_users).rev().collect();
    let list = batch
        .iter()
        .map(|u| u.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let lines = via_router
        .request_lines(format!("REC {list} 7"), batch.len())
        .unwrap();
    for (&user, line) in batch.iter().zip(&lines) {
        let expect = direct[shard_of(user, 3)].rec_one(user, 7).unwrap();
        assert_eq!(line, &expect, "batch slot for user {user} out of order");
    }

    // --- STATS merges replica shape with router counters. ---
    let stats = via_router.stats_line().unwrap();
    for needle in [
        &format!("users={n_users}") as &str,
        "shards=3",
        "up=3",
        "replicas=up,up,up",
    ] {
        assert!(stats.contains(needle), "missing {needle:?} in {stats:?}");
    }
    // The merged line carries the replicas' resident table footprint (f32
    // tables here — no quantization — so it must still be present and
    // nonzero).
    let table_bytes: u64 = graphaug_serve::field(&stats, "table_bytes")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("missing table_bytes in {stats:?}"));
    assert!(table_bytes > 0, "table_bytes must be nonzero in {stats:?}");
    let shard_counts = router.shard_request_counts();
    let routed_lines = 3 * n_users as u64 + batch.len() as u64;
    assert_eq!(
        shard_counts.iter().sum::<u64>(),
        routed_lines,
        "per-shard counters must account for every routed user-line"
    );
    for (shard, &c) in shard_counts.iter().enumerate() {
        assert!(c > 0, "shard {shard} routed nothing");
    }

    // --- Kill the victim: only its users degrade. ---
    let victim = 1usize;
    replicas.remove(victim).stop();
    wait_until(
        "prober to mark the victim down",
        Duration::from_secs(10),
        || !router.health().is_up(victim, 0),
    );

    let victim_user = owned[victim][0];
    let survivor_user = owned[(victim + 1) % 3][0];
    let dead = via_router.rec_one(victim_user, 5).unwrap();
    assert!(
        dead.starts_with("ERR ") && dead.contains("down"),
        "victim-owned user must get a typed ERR, got {dead:?}"
    );
    let alive = via_router.rec_one(survivor_user, 5).unwrap();
    assert!(
        alive.starts_with("OK "),
        "surviving shards must be unaffected, got {alive:?}"
    );

    // A batch spanning dead and live shards still answers every slot, in
    // order, with ERRs confined to the victim's users.
    let mixed = [victim_user, survivor_user, owned[(victim + 2) % 3][0]];
    let list = mixed
        .iter()
        .map(|u| u.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let lines = via_router
        .request_lines(format!("REC {list} 3"), 3)
        .unwrap();
    assert!(lines[0].starts_with("ERR "));
    assert!(lines[1].starts_with("OK "));
    assert!(lines[2].starts_with("OK "));
    let stats = via_router.stats_line().unwrap();
    assert!(stats.contains("up=2"), "got {stats:?}");
    assert!(stats.contains("replicas=up,down,up"), "got {stats:?}");

    // --- Rejoin on a NEW port (the TIME_WAIT-realistic path): boot a
    // fresh replica over the same checkpoints, REPLACE, wait for up. ---
    let reborn = boot_replica(&graph, dir.path());
    let new_addr = reborn.addr().to_string();
    assert_ne!(new_addr, addrs[victim], "ephemeral rebind lands elsewhere");
    // REPLACE on the public port is refused with a typed ERR (the admin
    // surface can re-point shards; it lives on the loopback admin
    // listener only).
    let denied = via_router
        .request_lines(format!("REPLACE {victim} {new_addr}"), 1)
        .unwrap()
        .remove(0);
    assert_eq!(err_kind(&denied), Some("admin"), "got {denied:?}");
    let mut admin = ServeClient::connect(&handle.admin_addr().to_string()).unwrap();
    let reply = admin
        .request_lines(format!("REPLACE {victim} {new_addr}"), 1)
        .unwrap()
        .remove(0);
    assert_eq!(
        reply,
        format!("OK shard={victim} replica=0 addr={new_addr}")
    );
    admin.quit();
    wait_until(
        "replaced replica to rejoin",
        Duration::from_secs(10),
        || router.health().is_up(victim, 0),
    );

    // Same connection, no router restart: the victim's users are served
    // again, bit-identical to the reborn replica's direct answers.
    let mut direct_reborn = ServeClient::connect(&new_addr).unwrap();
    for &user in owned[victim].iter().take(8) {
        let routed = via_router.rec_one(user, 9).unwrap();
        let expect = direct_reborn.rec_one(user, 9).unwrap();
        assert!(routed.starts_with("OK "), "after rejoin: {routed}");
        assert_eq!(routed, expect, "post-rejoin parity for user {user}");
    }
    let stats = via_router.stats_line().unwrap();
    assert!(stats.contains("up=3"), "got {stats:?}");

    for d in direct {
        d.quit();
    }
    via_router.quit();
    handle.stop();
}

/// Routed-vs-direct parity across the scorer modes: with ANN-enabled
/// replicas behind the router, a routed `REC` must relay the replica's
/// fast-path line byte-for-byte, a routed `RECX` must relay the replica's
/// exact-oracle line (the router forwards the verb, it never downgrades
/// `RECX` to `REC`), and the `RECX` lines must match an index-free
/// replica's exact answers bit-for-bit.
#[test]
fn routed_verbs_preserve_ann_and_exact_paths_bit_identically() {
    let graph = toy_graph();
    let n_users = graph.n_users() as u32;
    let dir = TempDir::new("ann-parity");
    train_into(dir.path(), &graph);

    // Narrow probe so REC and RECX genuinely take different scorers; no
    // floor because this test pins routing, not index quality.
    let params = || IvfParams::new().nlists(9).nprobe(3).recall_floor(0.0);
    let replicas: Vec<_> = (0..2)
        .map(|_| boot_ann_replica(&graph, dir.path(), params()))
        .collect();
    let addrs: Vec<String> = replicas.iter().map(|h| h.addr().to_string()).collect();
    // An index-free engine is the exact-ranking oracle for RECX lines.
    let oracle = Engine::open(ModelSource::new(toy_model(), graph.clone(), dir.path())).unwrap();

    let router =
        Router::new(RouterConfig::new(addrs.clone()).probe_period(Duration::from_millis(10)));
    let handle = start(router, "127.0.0.1:0").unwrap();
    let mut via_router = ServeClient::connect(&handle.addr().to_string()).unwrap();
    let mut direct: Vec<ServeClient> = addrs
        .iter()
        .map(|a| ServeClient::connect(a).unwrap())
        .collect();

    for user in (0..n_users).step_by(5) {
        let shard = shard_of(user, 2);
        for k in [1usize, 7, 20] {
            for exact in [false, true] {
                let routed = via_router.rec_one_mode(user, k, exact).unwrap();
                let expect = direct[shard].rec_one_mode(user, k, exact).unwrap();
                assert!(routed.starts_with("OK "), "user {user} k {k}: {routed}");
                assert_eq!(
                    routed, expect,
                    "user {user} k {k} exact={exact}: routed response must \
                     be bit-identical to shard {shard}'s direct response"
                );
            }
            // The routed RECX line carries the exact ranking.
            let routed_exact = via_router.rec_one_mode(user, k, true).unwrap();
            let oracle_rec = oracle.recommend(user, k).unwrap();
            let oracle_hex = oracle_rec
                .items
                .iter()
                .map(|s| format!("{}:{:08x}", s.item, s.score.to_bits()))
                .collect::<Vec<_>>()
                .join(" ");
            let parsed = graphaug_serve::parse_ok_line(&routed_exact).expect("OK line");
            let routed_hex = parsed
                .items
                .iter()
                .map(|s| format!("{}:{:08x}", s.item, s.score.to_bits()))
                .collect::<Vec<_>>()
                .join(" ");
            assert_eq!(
                routed_hex, oracle_hex,
                "user {user} k {k}: routed RECX must carry the exact ranking"
            );
        }
    }

    // The replicas actually served through the index for REC traffic.
    for d in &mut direct {
        let stats = d.stats_line().unwrap();
        assert!(stats.contains(" ann=on "), "{stats}");
    }

    for d in direct {
        d.quit();
    }
    via_router.quit();
    handle.stop();
    for r in replicas {
        r.stop();
    }
}

#[test]
fn router_protocol_surface_is_typed_and_never_panics() {
    let graph = toy_graph();
    let dir = TempDir::new("surface");
    train_into(dir.path(), &graph);
    let replica = boot_replica(&graph, dir.path());

    let router = Router::new(
        RouterConfig::new(vec![replica.addr().to_string()]).probe_period(Duration::from_millis(10)),
    );
    let handle = start(router, "127.0.0.1:0").unwrap();
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();

    assert!(client.ping().unwrap(), "router answers PING locally");
    for (req, want_prefix) in [
        ("BOGUS", "ERR "),
        ("REC", "ERR "),
        ("REC notanumber 5", "ERR "),
        ("REC 1 notanumber", "ERR "),
    ] {
        let line = client.request_lines(req, 1).unwrap().remove(0);
        assert!(
            line.starts_with(want_prefix),
            "{req:?} should answer {want_prefix:?}.., got {line:?}"
        );
    }

    // Every REPLACE form — even a malformed one — answers the typed
    // `ERR admin` on the public port: the admin surface does not leak
    // argument validation to unprivileged clients.
    for req in [
        "REPLACE",
        "REPLACE 0 127.0.0.1:1",
        "REPLACE 7 127.0.0.1:1",
        "REPLACE 0 not-an-addr",
    ] {
        let line = client.request_lines(req, 1).unwrap().remove(0);
        assert_eq!(err_kind(&line), Some("admin"), "{req:?} got {line:?}");
    }

    // Out-of-range user: the replica's own typed ERR is relayed verbatim
    // (and carries no router kind token). Checked before the REPLACE
    // below re-points the only shard.
    let line = client.rec_one(999_999, 5).unwrap();
    assert!(line.starts_with("ERR "), "got {line:?}");
    assert_eq!(err_kind(&line), None, "relayed replica ERR, got {line:?}");

    // On the admin listener the verb is honored — with typed argument
    // validation (no kind token: these are ordinary protocol ERRs, not
    // routing failures).
    let mut admin = ServeClient::connect(&handle.admin_addr().to_string()).unwrap();
    assert!(admin.ping().unwrap(), "admin listener answers PING");
    for (req, want_ok) in [
        ("REPLACE", false),
        ("REPLACE 7 127.0.0.1:1", false),
        ("REPLACE 0 not-an-addr", false),
        ("REPLACE 0 9 127.0.0.1:1", false),
        ("REPLACE 0 127.0.0.1:1 too many args", false),
        ("REPLACE 0 127.0.0.1:1", true),
    ] {
        let line = admin.request_lines(req, 1).unwrap().remove(0);
        if want_ok {
            assert!(line.starts_with("OK "), "{req:?} got {line:?}");
        } else {
            assert!(line.starts_with("ERR "), "{req:?} got {line:?}");
            assert_eq!(err_kind(&line), None, "{req:?} got {line:?}");
        }
    }
    admin.quit();

    client.quit();
    handle.stop();
    replica.stop();
}

/// The admin listener matches `REPLACE` as a whole token: a verb that only
/// starts with it is an unknown verb and re-points nothing.
#[test]
fn a_verb_that_merely_starts_with_replace_re_points_nothing() {
    let router = Router::new(RouterConfig::from_sets(vec![vec![
        "127.0.0.1:1".to_string(),
        "127.0.0.1:2".to_string(),
    ]]));
    let handle = start(router.clone(), "127.0.0.1:0").unwrap();
    let addrs = || [router.health().addr(0, 0), router.health().addr(0, 1)];
    let before = addrs();
    let mut admin = ServeClient::connect(&handle.admin_addr().to_string()).unwrap();
    for req in [
        "REPLACE0 1 127.0.0.1:1",
        "REPLACEX 0 127.0.0.1:1",
        "REPLACE_ 0 1 127.0.0.1:1",
    ] {
        let line = admin.request_lines(req, 1).unwrap().remove(0);
        assert!(line.starts_with("ERR "), "{req:?} got {line:?}");
        assert_eq!(addrs(), before, "{req:?} moved a replica address");
    }
    admin.quit();
    handle.stop();
}

/// Every port answers its own verbs and refuses every other verb with the
/// one shared refusal; a refused `PUT` logs nothing and a refused
/// `REPLACE` re-points nothing.
#[test]
fn every_port_answers_its_own_verbs_and_refuses_the_rest_alike() {
    let graph = toy_graph();
    let dir = TempDir::new("matrix");
    train_into(dir.path(), &graph);
    let replica = boot_replica(&graph, dir.path());
    let router = Router::new(RouterConfig::new(vec![replica.addr().to_string()]));
    let routed = start(router.clone(), "127.0.0.1:0").unwrap();
    let log_dir = TempDir::new("matrix-log");
    let log = Arc::new(Mutex::new(LogWriter::open(log_dir.path(), 64).unwrap()));
    let ingest = start_ingest(log, 60, 45, "127.0.0.1:0").unwrap();
    let (_mock, mock_addr) = spawn_ready(
        &[env!("CARGO_BIN_EXE_mock_replica").to_string()],
        Duration::from_secs(30),
    )
    .unwrap();

    use Verb::*;
    let surfaces: [(&str, String, &[Verb]); 5] = [
        ("serve", replica.addr().to_string(), &[Rec, RecX, Stats]),
        (
            "router public",
            routed.addr().to_string(),
            &[Rec, RecX, Stats],
        ),
        (
            "router admin",
            routed.admin_addr().to_string(),
            &[Rec, RecX, Stats, Replace],
        ),
        ("ingest", ingest.addr().to_string(), &[Put, Stats]),
        ("mock_replica", mock_addr, &[Rec, RecX, Stats]),
    ];
    // One well-formed request per verb and the reply a port that serves it
    // starts with. The REPLACE names a shard the router does not have, so
    // even the admin port that serves it re-points nothing.
    let sample = |verb: Verb| match verb {
        Rec | RecX => (
            Request::Rec {
                users: vec![3],
                k: 5,
                exact: verb == RecX,
            },
            "OK ",
        ),
        Stats => (Request::Stats, "STATS "),
        Ping => (Request::Ping, "PONG"),
        Quit => (Request::Quit, "BYE"),
        Put => (Request::Put { user: 1, item: 2 }, "OK off="),
        Replace => (
            Request::Replace {
                shard: 7,
                replica: 0,
                addr: "127.0.0.1:1".into(),
            },
            "ERR unknown shard 7",
        ),
    };
    let replica_addr = || router.health().addr(0, 0);
    let before = replica_addr();
    for (name, addr, serves) in surfaces {
        let mut client = ServeClient::connect(&addr).unwrap();
        let log_before = log_len(log_dir.path()).unwrap();
        for (verb, _) in VERBS {
            let (request, served) = sample(verb);
            let line = client.request_lines(&request, 1).unwrap().remove(0);
            if serves.contains(&verb) || matches!(verb, Ping | Quit) {
                assert!(line.starts_with(served), "{name}: {request} got {line:?}");
            } else {
                assert_eq!(line, format!("ERR {}", Unserved(verb)), "{name}: {request}");
            }
            if verb == Quit {
                break;
            }
        }
        let logged = log_len(log_dir.path()).unwrap() - log_before;
        assert_eq!(logged, u64::from(serves.contains(&Put)), "{name}: PUT");
        assert_eq!(replica_addr(), before, "{name}: REPLACE moved the replica");
    }
    routed.stop();
    ingest.stop();
    replica.stop();
}

/// The tentpole guarantee, end to end: two shards at replication factor 2
/// over one checkpoint; the primary of shard 0 dies; **zero** user-visible
/// errors — the secondary answers bit-identically *within the request*
/// (no waiting for the prober), the failover counter moves, and a
/// `REPLACE`d fresh engine takes the primary slot back.
#[test]
fn failover_serves_the_secondary_bit_identically_with_zero_errors() {
    let graph = toy_graph();
    let n_users = graph.n_users() as u32;
    let dir = TempDir::new("failover");
    train_into(dir.path(), &graph);

    // Four replicas over the same checkpoint: sets [[p0,s0],[p1,s1]].
    let mut replicas: Vec<_> = (0..4).map(|_| boot_replica(&graph, dir.path())).collect();
    let addrs: Vec<String> = replicas.iter().map(|h| h.addr().to_string()).collect();
    let sets = vec![
        vec![addrs[0].clone(), addrs[1].clone()],
        vec![addrs[2].clone(), addrs[3].clone()],
    ];
    let router = Router::new(RouterConfig::from_sets(sets).probe_period(Duration::from_millis(10)));
    let handle = start(router.clone(), "127.0.0.1:0").unwrap();
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();
    let mut direct: Vec<ServeClient> = addrs
        .iter()
        .map(|a| ServeClient::connect(a).unwrap())
        .collect();

    // Primary-vs-secondary hex parity while everything is up: replicas of
    // a set answer byte-identically — the property that makes failover
    // invisible to the client.
    for user in (0..n_users).step_by(3) {
        let shard = shard_of(user, 2);
        let p = direct[2 * shard].rec_one(user, 9).unwrap();
        let s = direct[2 * shard + 1].rec_one(user, 9).unwrap();
        assert!(p.starts_with("OK "), "user {user}: {p}");
        assert_eq!(p, s, "replica-set parity for user {user}");
    }

    // Kill shard 0's primary. Deliberately NO wait for the prober: the
    // router must fail over within the first request that hits it.
    replicas.remove(0).stop();
    let shard0_user = (0..n_users)
        .find(|&u| shard_of(u, 2) == 0)
        .expect("some user maps to shard 0");
    let before = router.failover_count();
    for i in 0..5u32 {
        let line = client.rec_one(shard0_user, 9).unwrap();
        assert!(
            line.starts_with("OK "),
            "request {i}: zero user-visible errors during failover, got {line:?}"
        );
        let expect = direct[1].rec_one(shard0_user, 9).unwrap();
        assert_eq!(
            line, expect,
            "request {i}: failover answer must be bit-identical to the secondary"
        );
    }
    assert!(
        router.failover_count() > before,
        "the failover counter must account for secondary-served requests"
    );

    // Once the prober confirms, STATS shows shard 0 served by replica 1.
    wait_until(
        "prober to mark the dead primary down",
        Duration::from_secs(10),
        || !router.health().is_up(0, 0),
    );
    let stats = client.stats_line().unwrap();
    assert!(stats.contains("serving=1,0"), "got {stats:?}");
    assert!(
        graphaug_serve::field(&stats, "failovers")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
            > 0,
        "got {stats:?}"
    );
    assert!(
        stats.contains("replica_states=down|up,up|up"),
        "got {stats:?}"
    );

    // A fresh engine takes the primary slot back via the admin listener.
    let reborn = boot_replica(&graph, dir.path());
    let new_addr = reborn.addr().to_string();
    let mut admin = ServeClient::connect(&handle.admin_addr().to_string()).unwrap();
    let reply = admin
        .request_lines(format!("REPLACE 0 0 {new_addr}"), 1)
        .unwrap()
        .remove(0);
    assert_eq!(reply, format!("OK shard=0 replica=0 addr={new_addr}"));
    admin.quit();
    wait_until("reborn primary to rejoin", Duration::from_secs(10), || {
        router.health().is_up(0, 0)
    });
    let mut direct_reborn = ServeClient::connect(&new_addr).unwrap();
    let line = client.rec_one(shard0_user, 9).unwrap();
    let expect = direct_reborn.rec_one(shard0_user, 9).unwrap();
    assert_eq!(
        line, expect,
        "the reborn primary serves again, bit-identically"
    );

    for d in direct {
        d.quit();
    }
    direct_reborn.quit();
    client.quit();
    handle.stop();
    reborn.stop();
    for r in replicas {
        r.stop();
    }
}

/// Deadline budgets: a hung replica (connection accepted, never answered)
/// costs at most the request budget and yields a typed `ERR deadline`;
/// once the replica is marked down the same request answers a typed
/// `ERR down` with no budget burned at all. The two error kinds are the
/// wire-visible difference between "ran out of time" and "nothing to try".
#[test]
fn deadline_budget_is_enforced_with_typed_errors() {
    // A listener whose backlog accepts connections nobody ever reads:
    // connect succeeds, every read blocks until its socket timeout.
    let hung = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = hung.local_addr().unwrap().to_string();

    let mut cfg = RouterConfig::new(vec![addr])
        .probe_period(Duration::from_secs(3600))
        .request_budget(Duration::from_millis(120));
    // Keep the hung replica "up" for the whole test: the deadline path is
    // under test here, not the down-marking streak.
    cfg.down_after = 1000;
    let router = Router::new(cfg);
    let handle = start(router.clone(), "127.0.0.1:0").unwrap();
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();

    for attempt in 0..2u32 {
        let t0 = Instant::now();
        let line = client.rec_one(attempt, 5).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(
            graphaug_serve::err_kind(&line),
            Some("deadline"),
            "attempt {attempt}: got {line:?}"
        );
        assert!(
            elapsed >= Duration::from_millis(100),
            "attempt {attempt}: the budget was actually spent waiting ({elapsed:?})"
        );
        assert!(
            elapsed < Duration::from_secs(2),
            "attempt {attempt}: a request must never burn more than its \
             budget (+slack), took {elapsed:?}"
        );
    }
    assert_eq!(router.deadline_error_count(), 2);

    // Down shard: typed `ERR down`, answered with no network wait.
    router.health().force_down(0, 0);
    let t0 = Instant::now();
    let line = client.rec_one(7, 5).unwrap();
    assert_eq!(
        graphaug_serve::err_kind(&line),
        Some("down"),
        "got {line:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "fast-fail must not consult the deadline budget"
    );

    client.quit();
    handle.stop();
    drop(hung);
}

/// A replica dying mid-response must never surface a truncated line to
/// the client: the router treats the partial read as a transport error
/// and fails over to the secondary within the same request.
#[test]
fn mid_response_death_fails_over_instead_of_relaying_truncation() {
    let graph = toy_graph();
    let dir = TempDir::new("midresponse");
    train_into(dir.path(), &graph);
    let real = boot_replica(&graph, dir.path());
    let real_addr = real.addr().to_string();

    // The real replica's generation, so the fake primary can report the
    // same one (a lagging generation would get it marked degraded and
    // skipped — which would dodge the truncation path under test).
    let gen: u64 = {
        let mut c = ServeClient::connect(&real_addr).unwrap();
        let stats = c.stats_line().unwrap();
        c.quit();
        graphaug_serve::field(&stats, "gen")
            .and_then(|v| v.parse().ok())
            .expect("replica reports gen")
    };

    // A fake primary that keeps the prober happy (PING/STATS) but answers
    // every REC with a deliberately truncated OK line — no terminating
    // newline — and then slams the connection.
    let fake = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let fake_addr = fake.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        use std::io::{BufRead, BufReader, Write};
        for conn in fake.incoming() {
            let Ok(mut stream) = conn else { break };
            let stats = format!("STATS gen={gen} users=60 items=45 table_bytes=1\n");
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                    if line.starts_with("PING") {
                        let _ = stream.write_all(b"PONG\n");
                    } else if line.starts_with("STATS") {
                        let _ = stream.write_all(stats.as_bytes());
                    } else {
                        // Half an OK line, then die mid-response.
                        let _ = stream.write_all(b"OK gen=1 user=0 k=5 items=1,2");
                        let _ = stream.flush();
                        break;
                    }
                    line.clear();
                }
            });
        }
    });

    let sets = vec![vec![fake_addr, real_addr.clone()]];
    let router = Router::new(RouterConfig::from_sets(sets).probe_period(Duration::from_millis(10)));
    let handle = start(router.clone(), "127.0.0.1:0").unwrap();
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();
    let mut direct = ServeClient::connect(&real_addr).unwrap();

    for user in 0..6u32 {
        let line = client.rec_one(user, 5).unwrap();
        assert!(
            line.starts_with("OK ") && line.contains("bits="),
            "user {user}: truncated replica output must never reach the \
             client, got {line:?}"
        );
        let expect = direct.rec_one(user, 5).unwrap();
        assert_eq!(
            line, expect,
            "user {user}: the answer must be the secondary's, bit-identical"
        );
    }
    assert!(
        router.failover_count() > 0,
        "every one of those answers came from the secondary"
    );

    direct.quit();
    client.quit();
    handle.stop();
    real.stop();
}

#[test]
fn a_non_loopback_admin_address_is_refused() {
    let router = Router::new(RouterConfig::new(vec!["127.0.0.1:1".to_string()]));
    let err = graphaug_router::start_with_admin(router, "127.0.0.1:0", "0.0.0.0:0")
        .err()
        .expect("an admin listener on every interface must be refused");
    assert!(err.to_string().contains("loopback"), "{err}");
}
