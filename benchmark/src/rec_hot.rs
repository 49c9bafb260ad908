//! `rec_hot`: one closed-loop connection to `router::start` in front of
//! 2 shards × 2 replicas. A zipf hot set at fixed `k` hits the response
//! cache, so scoring does almost nothing and socket, `proto`, `LruCache`
//! and the router relay are the whole cost.
//!
//! One connection is busy at a time. For the first 70 % of the window,
//! single-user lines go back to back through the router for 0.5 s, then the
//! same stream straight to one replica for 0.2 s, and so on in turns: the
//! relay's cost is the difference, client-observed. The turns are short
//! because both paths have a slow mode on this box — 21 instead of 14.5 µs
//! routed, 10 instead of 6.9 µs direct, the same ~3.2 µs per server-side
//! thread hop — that comes and goes every few seconds when the paths take
//! turns, and sat on whole 7.5 s phases (three runs in ten) when each path
//! ran in one piece; an idle-priority spinner on the CPU did not remove it,
//! so it is not the vCPU halting. Each turn is a slice (`Summary::over`).
//! The last 30 % repeats seven single-user lines then one 64-user line
//! through the router: the same server and router code used differently
//! (multi-segment reply, per-shard regrouping). That phase is apart because
//! at this commit the 64-user line stalls for ~88 ms, and a single-user
//! line sent right after a stall measures the CPU waking up (20–25 µs,
//! ±20 % from run to run) rather than the relay.

use std::path::Path;
use std::time::{Duration, Instant};

use graphaug_router::shard_of;
use graphaug_serve::ServeClient;

use crate::common::{
    finish_trace, pin_single_cpu, print_latency, setup_median, timed_s, Decomposition, Opts, Report,
};
use crate::gen::{HotStream, RecReq, RecStream, BATCH_EVERY, HOT_K};
use crate::replay::{cache_pass, engine_pass, tcp_pass, typical_us};
use crate::serving::{
    drive, verify, Cluster, Load, Model, Stop, N_USERS, REPLICAS_PER_SHARD, SHARDS,
};
use crate::stats::{median, Summary, MEDIAN_ONLY};
use crate::trace::Trace;

const SINGLES_SHARE: f64 = 0.7;
const ROUTED_TURN: Duration = Duration::from_millis(500);
const DIRECT_TURN: Duration = Duration::from_millis(200);
/// Discarded warm-up after the hot set has been touched once.
const WARM_SINGLES: u64 = 2000;
const WARM_MIXED: u64 = 8;
/// Mixed lines (two of them 64-user lines) checked routed ≡ direct ≡
/// in-process after the window, on top of one line per hot user.
const VERIFY_MIXED: usize = 16;
/// The traced run replays this many single-user lines, then this many
/// cycles of the mixed stream.
const REPLAY_SINGLES: usize = 20_000;
const REPLAY_CYCLES: usize = 24;
/// The cache-hit band that makes this the socket/relay workload.
const MIN_HIT_SHARE: f64 = 0.95;
/// Printed, not gated: a hot routed `REC` has no tail mechanism of its
/// own, so its tail reads the box. The p99 (38–56 µs) spread 27 % across
/// ten runs; the p90 sat at 16.2 µs in one set of ten runs and at 20.6 µs
/// in the next, beside a median that moved 2 %.
const TAIL: f64 = 0.90;
/// The replica the direct turns, the routed ≡ direct check and the traced
/// direct pass talk to: shard 0's secondary, which routed traffic never reaches.
const DIRECT_REPLICA: usize = 1;

struct Fixture {
    model: Model,
    cluster: Cluster,
    client: ServeClient,
    /// Straight to [`DIRECT_REPLICA`], which holds every hot key too.
    direct: ServeClient,
}

fn single(user: u32) -> RecReq {
    RecReq {
        users: vec![user],
        k: HOT_K,
        exact: false,
    }
}

/// Sends one `REC` per hot user so every key the streams can draw is
/// cached before the window.
fn touch_hot_set(client: &mut ServeClient, hot: &[u32]) -> Result<(), String> {
    for &user in hot {
        let reply = client
            .rec_one(user, HOT_K)
            .map_err(|e| format!("touch user {user}: {e}"))?;
        if !reply.starts_with("OK ") {
            return Err(format!("touch user {user}: {reply}"));
        }
    }
    Ok(())
}

impl Fixture {
    fn boot(dir: &Path, seed: u64) -> Result<Fixture, String> {
        let model = Model::train(dir)?;
        let cluster = Cluster::boot(&model)?;
        let mut client = cluster.connect()?;
        let generation = cluster.replicas[0].engine.stats().generation;
        let mut singles = HotStream::singles(seed, N_USERS as u32);
        let mut mixed = HotStream::mixed(seed, N_USERS as u32);
        touch_hot_set(&mut client, singles.hot_users())?;
        let mut warm = Load::default();
        drive(
            &mut client,
            &mut mixed,
            generation,
            Stop::After(WARM_MIXED),
            &mut warm,
        )?;
        drive(
            &mut client,
            &mut singles,
            generation,
            Stop::After(WARM_SINGLES),
            &mut warm,
        )?;
        let mut direct = cluster.replicas[DIRECT_REPLICA].connect()?;
        touch_hot_set(&mut direct, singles.hot_users())?;
        if warm.failed > 0 {
            return Err(format!("{} warm-up replies were wrong", warm.failed));
        }
        Ok(Fixture {
            model,
            cluster,
            client,
            direct,
        })
    }

    fn stop(self) {
        self.client.quit();
        self.direct.quit();
        self.cluster.stop();
        self.model.remove();
    }

    /// `(lists served, cache hits)` summed over every replica.
    fn served_and_hits(&self) -> (u64, u64) {
        self.cluster.replicas.iter().fold((0, 0), |(r, h), rep| {
            let s = rep.engine.stats();
            (r + s.requests, h + s.cache_hits)
        })
    }
}

struct Window {
    /// Round trips of the single-user lines, one vector per turn.
    routed: Vec<Vec<u32>>,
    direct: Vec<Vec<u32>>,
    /// Seven single-user lines, then one 64-user line, routed.
    mixed: Load,
    lists: u64,
    failed: u64,
    seconds: f64,
    hit_share: f64,
}

/// The streams continue where the warm-up left them.
fn window_streams(seed: u64) -> (HotStream, HotStream) {
    let mut singles = HotStream::singles(seed, N_USERS as u32);
    let mut mixed = HotStream::mixed(seed, N_USERS as u32);
    for _ in 0..WARM_SINGLES {
        singles.next_req();
    }
    for _ in 0..WARM_MIXED {
        mixed.next_req();
    }
    (singles, mixed)
}

fn window(fx: &mut Fixture, seed: u64, seconds: f64) -> Result<Window, String> {
    let generation = fx.cluster.replicas[0].engine.stats().generation;
    let (served0, hits0) = fx.served_and_hits();
    let (mut single_stream, mut mixed_stream) = window_streams(seed);
    let started = Instant::now();
    let singles_until = started + Duration::from_secs_f64(seconds * SINGLES_SHARE);
    let (mut routed, mut direct) = (Vec::new(), Vec::new());
    let (mut lists, mut failed) = (0, 0);
    while Instant::now() < singles_until {
        for (client, turn, slices) in [
            (&mut fx.client, ROUTED_TURN, &mut routed),
            (&mut fx.direct, DIRECT_TURN, &mut direct),
        ] {
            let mut load = Load::default();
            let stop = Stop::At(singles_until.min(Instant::now() + turn));
            drive(client, &mut single_stream, generation, stop, &mut load)?;
            lists += load.lists;
            failed += load.failed;
            slices.push(load.single);
        }
    }
    // One mark per cycle of seven single-user lines and a 64-user line.
    let mut mixed = Load::marking_every(BATCH_EVERY);
    let mixed_until = started + Duration::from_secs_f64(seconds);
    drive(
        &mut fx.client,
        &mut mixed_stream,
        generation,
        Stop::At(mixed_until),
        &mut mixed,
    )?;
    let (served1, hits1) = fx.served_and_hits();
    Ok(Window {
        routed,
        direct,
        lists: lists + mixed.lists,
        failed: failed + mixed.failed,
        mixed,
        seconds: started.elapsed().as_secs_f64(),
        hit_share: (hits1 - hits0) as f64 / (served1 - served0).max(1) as f64,
    })
}

fn check_router_counters(fx: &Fixture, report: &mut Report) {
    let (failovers, deadline) = (
        fx.cluster.router.failover_count(),
        fx.cluster.router.deadline_error_count(),
    );
    report.check(
        &format!("router failovers {failovers} and deadline errors {deadline} are both 0"),
        failovers == 0 && deadline == 0,
    );
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    pin_single_cpu()?;
    let boot = |i: usize| Fixture::boot(&opts.work_dir.join(format!("setup{i}")), opts.seed);
    let (fx, first_setup_s) = timed_s(|| boot(0));
    let mut fx = fx?;
    let stats_line = fx.client.stats_line().map_err(|e| format!("STATS: {e}"))?;
    let all_up = vec![["up"; REPLICAS_PER_SHARD].join("|"); SHARDS].join(",");
    report.check(
        &format!("router STATS shows {SHARDS} shards up and replica_states={all_up}"),
        stats_line.contains(&format!(" shards={SHARDS} up={SHARDS} "))
            && stats_line.contains(&format!(" replica_states={all_up} ")),
    );
    let gates = fx.cluster.replicas.iter().all(|r| r.gates_clear().is_ok());
    report.check(
        "every replica serves with ann=on quant=on, gates clear of their floors",
        gates,
    );

    let mut w = window(&mut fx, opts.seed, opts.seconds)?;

    // Every hot user once, plus a few mixed lines, over the wire.
    let (_, mut mixed) = window_streams(opts.seed);
    let mut reqs: Vec<RecReq> = mixed.hot_users().iter().map(|&u| single(u)).collect();
    reqs.extend((0..VERIFY_MIXED).map(|_| mixed.next_req()));
    let tables = fx.cluster.replicas[0].engine.tables();
    let v = verify(&reqs, &mut fx.client, Some(&mut fx.direct), &tables)?;

    report.attempted = w.lists + v.lists;
    report.failed = w.failed + v.mismatched;
    report.check(
        &format!(
            "{} replies in the window echo their request on the serving generation",
            w.lists
        ),
        w.failed == 0,
    );
    report.check(
        &format!("{} sampled routed replies hex-identical to in-process top_k_quant and to the direct reply", v.lists),
        v.mismatched == 0,
    );
    report.check(
        &format!(
            "cache hit share {:.4} >= {MIN_HIT_SHARE} (socket/relay workload)",
            w.hit_share
        ),
        w.hit_share >= MIN_HIT_SHARE,
    );
    check_router_counters(&fx, report);

    let rec = Summary::over(&mut w.routed, TAIL).ok_or("no single-user line completed")?;
    let direct = Summary::over(&mut w.direct, TAIL).ok_or("no direct line completed")?;
    let batch =
        Summary::sliced(&mut w.mixed.batch, MEDIAN_ONLY).ok_or("no 64-user line completed")?;
    let between =
        Summary::sliced(&mut w.mixed.single, TAIL).ok_or("no mixed single-user line completed")?;
    let lists_per_s = w.mixed.lists_per_s()?;
    print_latency("rec (routed single-user REC)", &rec);
    print_latency("rec_direct (same, no router)", &direct);
    print_latency("batch64 (routed 64-user REC)", &batch);
    print_latency("rec between 64-user lines", &between);
    println!(
        "  lists_per_s {lists_per_s:.1} on the mixed stream (fast-decile cycle); {:.1} over the whole {:.2} s; served recall vs exact {:.4}",
        w.lists as f64 / w.seconds,
        w.seconds,
        v.served_recall()
    );
    report.metric("primary_p50_us", rec.p50_us());
    report.metric("primary_alt_us", direct.p50_us());
    report.metric("secondary_p50_us", batch.p50_us());
    report.metric("work_per_s", lists_per_s);
    report.metric("quality", v.served_recall());
    report.peak_rss();
    fx.stop();
    report.metric(
        "setup_s",
        setup_median(first_setup_s, opts.setup_repeats, boot, Fixture::stop)?,
    );
    Ok(())
}

/// [`typical_us`] of `values` whose request is (or is not) a 64-user line.
fn typical_by_kind(values: &[u64], reqs: &[RecReq], batch: bool) -> f64 {
    let picked = values
        .iter()
        .zip(reqs)
        .filter(|(_, r)| (r.users.len() > 1) == batch)
        .map(|(&v, _)| v)
        .collect();
    typical_us(picked)
}

pub fn run_traced(opts: &Opts, report: &mut Report) -> Result<(), String> {
    pin_single_cpu()?;
    let mut fx = Fixture::boot(&opts.work_dir.join("setup0"), opts.seed)?;

    let mut w = window(&mut fx, opts.seed, opts.seconds / 4.0)?;
    let untraced = Summary::over(&mut w.routed, TAIL).ok_or("no single-user line completed")?;
    report.attempted = w.lists;
    report.failed = w.failed;
    report.metric("serve.cache.hit_share", w.hit_share);

    // The prefix every depth replays: the window's single-user stream,
    // then whole cycles of its mixed stream.
    let (mut singles, mut mixed) = window_streams(opts.seed);
    let mut reqs: Vec<RecReq> = (0..REPLAY_SINGLES).map(|_| singles.next_req()).collect();
    // Whole cycles, in order: what a 64-user line costs depends on the
    // lines before it (sent back to back it stalled once routed, 44 ms;
    // after seven single-user lines, as in the window, twice).
    reqs.extend(
        std::iter::repeat_with(|| mixed.next_req()).take(REPLAY_CYCLES * BATCH_EVERY as usize),
    );
    report.attempted += reqs.len() as u64;
    let mut trace = Trace::new();
    let router_ids = tcp_pass(
        &mut trace,
        "router.router",
        &mut fx.client,
        &reqs,
        f64::INFINITY,
    )?;

    // Direct and in-process passes on one replica holding every hot key,
    // so each depth answers the same lines from the same (cached) state.
    let replica = &fx.cluster.replicas[DIRECT_REPLICA];
    let server_ids = tcp_pass(
        &mut trace,
        "serve.server",
        &mut fx.direct,
        &reqs,
        f64::INFINITY,
    )?;
    let ep = engine_pass(&mut trace, &replica.engine, &reqs)?;
    for i in 0..reqs.len() {
        for child in [ep.parse[i], ep.engine[i], ep.render[i]] {
            trace.link(child, server_ids[i]);
        }
        trace.link(server_ids[i], router_ids[i]);
    }
    let cache_get_ns = cache_pass(&mut trace, &reqs);

    // `shard_of` is a few ns: time it in blocks of 1024 users.
    let mut per_user = Vec::new();
    let users: Vec<u32> = reqs.iter().flat_map(|r| r.users.iter().copied()).collect();
    for (b, block) in users.chunks_exact(1024).enumerate() {
        let (_, id) = trace.span("router.hash", b as u32, || {
            for &u in block {
                std::hint::black_box(shard_of(std::hint::black_box(u), SHARDS));
            }
        });
        per_user.push(trace.dur_ns(id) as f64 / 1024.0);
    }

    let parse = trace.durations("serve.proto.parse");
    let render = trace.durations("serve.proto.render");
    let render_per_list: Vec<u64> = render
        .iter()
        .zip(&reqs)
        .map(|(d, r)| d / r.users.len() as u64)
        .collect();
    let server_self = trace.self_times("serve.server");
    let router_self = trace.self_times("router.router");
    let routed = trace.durations("router.router");
    let hit_us = typical_us(trace.durations("serve.engine.hit"));
    let parse_us = typical_by_kind(&parse, &reqs, false);
    let render_us = typical_by_kind(&render, &reqs, false);
    let server_single_us = typical_by_kind(&server_self, &reqs, false);
    let router_single_us = typical_by_kind(&router_self, &reqs, false);
    report.metric("serve.proto.parse_ns", parse_us * 1e3);
    report.metric(
        "serve.proto.render_ns_per_list",
        typical_us(render_per_list) * 1e3,
    );
    report.metric("serve.cache.get_ns", cache_get_ns);
    report.metric("serve.engine.hit_ns", hit_us * 1e3);
    report.metric("serve.server.single_self_us", server_single_us);
    report.metric(
        "serve.server.batch64_self_us",
        typical_by_kind(&server_self, &reqs, true),
    );
    report.metric("router.hash.shard_of_ns", median(&mut per_user));
    report.metric("router.router.single_self_us", router_single_us);
    report.metric(
        "router.router.batch64_self_us",
        typical_by_kind(&router_self, &reqs, true),
    );
    let counts = fx.cluster.router.shard_request_counts();
    let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    report.metric(
        "router.router.shard_skew",
        *counts.iter().max().expect("shards") as f64 / mean.max(1.0),
    );
    report.metric(
        "router.router.failovers",
        fx.cluster.router.failover_count() as f64,
    );
    report.metric(
        "router.router.deadline_errors",
        fx.cluster.router.deadline_error_count() as f64,
    );
    check_router_counters(&fx, report);
    println!(
        "  64-user line: routed {:.1} us = router self {:.1} + server self {:.1} + engine {:.1} + render {:.1} + parse {:.1}",
        typical_by_kind(&routed, &reqs, true),
        typical_by_kind(&router_self, &reqs, true),
        typical_by_kind(&server_self, &reqs, true),
        typical_us(trace.durations("serve.engine.batch64")),
        typical_by_kind(&render, &reqs, true),
        typical_by_kind(&parse, &reqs, true),
    );

    finish_trace(
        opts,
        report,
        &trace,
        &Decomposition {
            operation: "rec (a routed single-user REC that hits the cache)",
            untraced_us: untraced.p50_us(),
            outer_us: typical_by_kind(&routed, &reqs, false),
            layers: &[
                ("serve.proto.parse", parse_us),
                ("serve.engine (cache hit)", hit_us),
                ("serve.proto.render", render_us),
                ("serve.server (socket, self)", server_single_us),
                ("router.router (relay, self)", router_single_us),
            ],
            replayed: reqs.len(),
        },
    )?;
    fx.stop();
    Ok(())
}
