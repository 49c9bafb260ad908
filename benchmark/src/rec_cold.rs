//! `rec_cold`: one closed-loop connection straight to `serve::serve`.
//! Uniform users and `k` miss the 4096-entry response cache, so scoring —
//! the quantized IVF probe on `REC`, the exact scan on `RECX` and on every
//! 64th self-audited list — does most of the work. The router does nothing.

use std::path::Path;
use std::time::{Duration, Instant};

use graphaug_serve::{Engine, ServeClient};

use crate::common::{
    finish_trace, pin_single_cpu, print_latency, setup_median, timed_s, Decomposition, Opts, Report,
};
use crate::gen::{ColdStream, RecReq, RecStream};
use crate::replay::{ann_pass, cache_pass, engine_pass, tables_pass, tcp_pass, typical_us};
use crate::serving::{drive, verify, Load, Model, Replica, Stop, N_USERS};
use crate::stats::{Summary, MEDIAN_ONLY};
use crate::trace::Trace;

/// Discarded warm-up lines: more than the response cache holds, so the
/// window starts with the LRU full and evicting, its steady state.
const WARM_LINES: u64 = 5000;
const VERIFY_LINES: usize = 512;
/// The traced run replays at most this many lines per depth.
const REPLAY_LINES: usize = 20_000;
/// One list in 64 is self-audited with an exact scan, so the REC p99 is
/// the audit's cost.
const TAIL: f64 = 0.99;
/// `lists_per_s` is read over stretches of this many lines (~85 ms).
const MARK_LINES: u64 = 1024;
/// The cache-miss band that makes this the scoring workload.
const MAX_HIT_SHARE: f64 = 0.05;

fn warm_stream(seed: u64) -> ColdStream {
    ColdStream::new(seed ^ 0x7761_726d, N_USERS as u32)
}

/// A replica behind its listener, warmed over one connection: what the
/// window runs on, and what each traced replay pass gets a fresh one of.
fn warmed_replica(model: &Model, seed: u64) -> Result<(Replica, ServeClient), String> {
    let replica = Replica::boot(model)?;
    let mut client = replica.connect()?;
    let generation = replica.engine.stats().generation;
    let mut warm = Load::default();
    drive(
        &mut client,
        &mut warm_stream(seed),
        generation,
        Stop::After(WARM_LINES),
        &mut warm,
    )?;
    if warm.failed > 0 {
        return Err(format!("{} warm-up replies were wrong", warm.failed));
    }
    Ok((replica, client))
}

struct Fixture {
    model: Model,
    replica: Replica,
    client: ServeClient,
}

impl Fixture {
    fn boot(dir: &Path, seed: u64) -> Result<Fixture, String> {
        let model = Model::train(dir)?;
        let (replica, client) = warmed_replica(&model, seed)?;
        Ok(Fixture {
            model,
            replica,
            client,
        })
    }

    fn stop(self) {
        self.client.quit();
        self.replica.server.stop();
        self.model.remove();
    }
}

struct Window {
    load: Load,
    seconds: f64,
    hit_share: f64,
}

/// The timed closed-loop window on a warmed fixture.
fn window(fx: &mut Fixture, stream: &mut ColdStream, seconds: f64) -> Result<Window, String> {
    let before = fx.replica.engine.stats();
    let mut load = Load::marking_every(MARK_LINES);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let elapsed = drive(
        &mut fx.client,
        stream,
        before.generation,
        Stop::At(deadline),
        &mut load,
    )?;
    let after = fx.replica.engine.stats();
    let served = (after.requests - before.requests).max(1);
    Ok(Window {
        load,
        seconds: elapsed,
        hit_share: (after.cache_hits - before.cache_hits) as f64 / served as f64,
    })
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    pin_single_cpu()?;
    let boot = |i: usize| Fixture::boot(&opts.work_dir.join(format!("setup{i}")), opts.seed);
    let (fx, first_setup_s) = timed_s(|| boot(0));
    let mut fx = fx?;

    let stats_line = fx.client.stats_line().map_err(|e| format!("STATS: {e}"))?;
    report.check(
        "STATS shows ann=on quant=on before the window",
        stats_line.contains(" ann=on ") && stats_line.contains(" quant=on "),
    );
    match fx.replica.gates_clear() {
        Ok((recall, drift)) => report.check(
            &format!("ANN recall {recall:.3} and quant drift {drift:.3} clear their 0.9 floors by >= 0.03"),
            true,
        ),
        Err(e) => report.check(&e, false),
    }

    let mut stream = ColdStream::new(opts.seed, N_USERS as u32);
    let mut w = window(&mut fx, &mut stream, opts.seconds)?;
    let reqs: Vec<RecReq> = (0..VERIFY_LINES).map(|_| stream.next_req()).collect();
    let tables = fx.replica.engine.tables();
    let v = verify(&reqs, &mut fx.client, None, &tables)?;
    let audited = fx.replica.engine.stats().drift_sampled.is_some();

    report.attempted = w.load.lists + v.lists;
    report.failed = w.load.failed + v.mismatched;
    report.check(
        &format!(
            "{} replies in the window echo their request on the serving generation",
            w.load.lists
        ),
        w.load.failed == 0,
    );
    report.check(
        &format!(
            "{} sampled REC/RECX replies hex-identical to in-process top_k_quant/top_k",
            v.lists
        ),
        v.mismatched == 0,
    );
    report.check(
        &format!(
            "cache hit share {:.4} <= {MAX_HIT_SHARE} (scoring workload)",
            w.hit_share
        ),
        w.hit_share <= MAX_HIT_SHARE,
    );
    report.check("the every-64th self-audit ran", audited);

    let rec = Summary::sliced(&mut w.load.single, TAIL).ok_or("no REC line completed")?;
    let recx = Summary::sliced(&mut w.load.exact, MEDIAN_ONLY).ok_or("no RECX line completed")?;
    let lists_per_s = w.load.lists_per_s()?;
    print_latency("rec (single-user REC)", &rec);
    print_latency("recx (exact scan)", &recx);
    println!(
        "  lists_per_s {lists_per_s:.1} (fast-decile stretch of {MARK_LINES} lines; {:.1} over the whole {:.2} s); served recall vs exact {:.4}",
        w.load.lists as f64 / w.seconds,
        w.seconds,
        v.served_recall()
    );
    report.metric("primary_p50_us", rec.p50_us());
    report.metric("primary_alt_us", rec.tail_us());
    report.metric("secondary_p50_us", recx.p50_us());
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

pub fn run_traced(opts: &Opts, report: &mut Report) -> Result<(), String> {
    pin_single_cpu()?;
    let mut fx = Fixture::boot(&opts.work_dir.join("setup0"), opts.seed)?;

    // The untraced reference: a short window of the real workload.
    let mut stream = ColdStream::new(opts.seed, N_USERS as u32);
    let mut w = window(&mut fx, &mut stream, opts.seconds / 4.0)?;
    let untraced = Summary::sliced(&mut w.load.single, TAIL).ok_or("no REC line completed")?;
    report.attempted = w.load.lists;
    report.failed = w.load.failed;
    report.metric("serve.cache.hit_share", w.hit_share);

    // The same prefix of the seed's stream at every depth, outermost first
    // (its time budget fixes how long the prefix is).
    let mut stream = ColdStream::new(opts.seed, N_USERS as u32);
    let mut reqs: Vec<RecReq> = (0..REPLAY_LINES).map(|_| stream.next_req()).collect();
    let mut trace = Trace::new();

    let (replica, mut client) = warmed_replica(&fx.model, opts.seed)?;
    let server_ids = tcp_pass(
        &mut trace,
        "serve.server",
        &mut client,
        &reqs,
        opts.seconds / 4.0,
    )?;
    client.quit();
    replica.server.stop();
    reqs.truncate(server_ids.len());
    report.attempted += reqs.len() as u64;

    let (engine, open_ns) = crate::pace::timed(|| Engine::open(fx.model.source()));
    let engine = engine.map_err(|e| format!("engine: {e}"))?;
    let mut warm = warm_stream(opts.seed);
    for _ in 0..WARM_LINES {
        let r = warm.next_req();
        engine.recommend_batch_mode(&[(r.users[0], r.k)], r.exact);
    }
    let ep = engine_pass(&mut trace, &engine, &reqs)?;
    let tables = engine.tables();
    let (table_ids, quant) = tables_pass(&mut trace, &tables, &reqs, &ep.from_cache)?;
    for i in 0..reqs.len() {
        for child in [ep.parse[i], ep.engine[i], ep.render[i]] {
            trace.link(child, server_ids[i]);
        }
        if let Some(t) = table_ids[i] {
            trace.link(t, ep.engine[i]);
        }
    }
    let ann = ann_pass(&mut trace, &tables, &reqs)?;
    let cache_get_ns = cache_pass(&mut trace, &reqs);

    let parse_us = typical_us(trace.durations("serve.proto.parse"));
    let render_us = typical_us(trace.durations("serve.proto.render"));
    let quant_us = typical_us(trace.durations("serve.tables.quant"));
    let miss_self_us = typical_us(trace.self_times("serve.engine.miss"));
    let server_self_us = typical_us(trace.self_times("serve.server"));
    report.metric("serve.proto.parse_ns", parse_us * 1e3);
    report.metric("serve.proto.render_ns_per_list", render_us * 1e3);
    report.metric("serve.cache.get_ns", cache_get_ns);
    report.metric(
        "serve.engine.hit_ns",
        typical_us(trace.durations("serve.engine.hit")) * 1e3,
    );
    report.metric("serve.engine.miss_self_us", miss_self_us);
    report.metric(
        "serve.tables.exact_topk_us",
        typical_us(trace.durations("serve.tables.exact")),
    );
    report.metric(
        "serve.ann.topk_us",
        typical_us(trace.durations("serve.ann")),
    );
    report.metric("serve.ann.probes_per_query", ann.probes_per_query());
    report.metric("serve.ann.cands_per_query", ann.cands_per_query());
    report.metric("serve.quant.topk_us", quant_us);
    report.metric("serve.quant.cands_per_query", quant.cands_per_query());
    report.metric("serve.engine.open_ms", open_ns as f64 / 1e6);
    report.metric("serve.server.single_self_us", server_self_us);
    if let (Some(a), Some(q)) = (tables.ann(), tables.quant()) {
        report.metric("serve.ann.build_recall", a.build_recall());
        report.metric("serve.quant.build_drift", q.build_drift());
        report.metric("serve.quant.table_bytes", q.table_bytes() as f64);
    }

    // The primary operation is a REC that misses the cache; its outer span
    // is the direct round trip of the non-exact lines.
    let rec_rtts: Vec<u64> = reqs
        .iter()
        .zip(&server_ids)
        .filter(|(r, _)| !r.exact)
        .map(|(_, &id)| trace.dur_ns(id))
        .collect();
    finish_trace(
        opts,
        report,
        &trace,
        &Decomposition {
            operation: "rec (a REC that misses the cache)",
            untraced_us: untraced.p50_us(),
            outer_us: typical_us(rec_rtts),
            layers: &[
                ("serve.proto.parse", parse_us),
                ("serve.tables (top_k_quant)", quant_us),
                ("serve.engine (miss, self)", miss_self_us),
                ("serve.proto.render", render_us),
                ("serve.server (socket, self)", server_self_us),
            ],
            replayed: reqs.len(),
        },
    )?;
    fx.stop();
    Ok(())
}
