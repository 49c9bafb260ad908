//! `online_loop`: the PR 10 streaming loop, in-process and pinned to one
//! CPU — `start_ingest`, a `FineTuner` polled like `ingestd` polls it, and
//! an engine with a `log_dir` and a reload watcher, all live at once.
//!
//! Phase A (85 % of the window) is **open loop**: `PUT`s are due at a fixed
//! rate — about half of what one fine-tune round per window can absorb at
//! this commit, frozen — and each is timed from its due time, while a
//! probe connection sends one `REC` every 5 ms, which is how the run sees
//! generations change and what a reader pays beside the loop. Phase B
//! (15 %) is closed loop: `nproc` connections `PUT` back to back with the
//! tuner idle.
//!
//! What is gated is what the CPU decides: freshness (`put_to_served`), its
//! reload stage, the probe `REC` and the absorb rate. A `PUT` ack is an
//! `fsync` with a socket around it and follows the host's disk (see
//! [`TAIL`]); it is printed here and reported un-gated by the traced run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use graphaug_core::GraphAugConfig;
use graphaug_data::{generate, SyntheticConfig};
use graphaug_eval::evaluate;
use graphaug_graph::{InteractionGraph, TrainTestSplit};
use graphaug_ingest::{apply_deltas, log_len, read_range, start_ingest, IngestHandle, LogWriter};
use graphaug_runtime::{checkpoint, Checkpointer, FineTuner, Runtime, RuntimeConfig, TrainState};
use graphaug_serve::{
    serve, spawn_watcher, Engine, IvfParams, ModelSource, QuantParams, ServeClient, ServerHandle,
    Watcher,
};

use crate::common::{
    finish_trace, pin_single_cpu, print_latency, setup_median, timed_s, Decomposition, Opts, Report,
};
use crate::gen::{PutStream, Rng};
use crate::pace::{run_open_loop, timed, OpenLoopLog, Schedule};
use crate::replay::{typical_ms, typical_us};
use crate::stats::{self, ns32, Summary};
use crate::trace::Trace;

// A fixed catalog (see `serving.rs` for why it is not drawn from the
// seed), small enough that one fine-tune round takes ~0.2 s, so a 20 s run
// sees 42 paced windows. A fifth of every user's interactions is held out
// for `quality`; a pool of the rest — 56 windows, more than a 20 s run
// sends in phase A, so no paced window is all duplicates — is held back
// and arrives as the `PUT` stream, so the stream carries real signal
// rather than noise.
const N_USERS: usize = 1024;
const N_ITEMS: usize = 1024;
const INTERACTIONS: usize = 36_000;
const CLUSTERS: usize = 16;
const CATALOG_SEED: u64 = 2;
const POOL: usize = 14_336;
const BASE_STEPS: usize = 24;
/// `ingestd`'s defaults for the loop itself, except the window, which the
/// issue fixes at 256.
const ROUND_STEPS: usize = 4;
const WINDOW: u64 = 256;
const SEGMENT_RECORDS: u64 = 4096;
const POLL: Duration = Duration::from_millis(10);
const WATCH: Duration = Duration::from_millis(10);
const PROBE: Duration = Duration::from_millis(5);
/// One round per window absorbs ≈ 1280 PUT/s at this commit (0.2 s per
/// 256 records); phase A offers half of that. Frozen: a faster loop shows
/// as a shorter `put_to_served`, not as a different offered load.
const PUT_RATE: f64 = 640.0;
/// Phase A gets most of the window: every gated number comes from it, one
/// sample per fine-tune window. Phase B only has to show that `nproc`
/// connections are acked in order.
const PHASE_A_SHARE: f64 = 0.85;
/// p75, the upper body of the paced acks (p10 276, p50 372, p75 445 µs).
/// Above it the population changes: 5–10 % of a window's acks wait
/// milliseconds behind the checkpoint publish and the journal (p95 1.0–1.2,
/// p99 3–4 ms), and whether that share is under or over a tenth of a window
/// put the p90 at 500–650 µs or at 1–2 ms from one run to the next (spread
/// 38 % over ten seeds); one 50–60 ms journal stall moved the p99 20×.
///
/// Neither p50 nor p75 is gated: on the box the driver checked this
/// benchmark on, the same commit read p50 616 µs and p75 13.7 ms — a
/// quarter of every window's acks behind a journal commit — and ten runs
/// spread 16–26 % and 21–41 %. The ack follows the disk the checkout is on.
const TAIL: f64 = 0.75;
/// The probe `REC` beside the loop reports its median; p90 is printed.
const PROBE_TAIL: f64 = 0.90;
/// Phase B counts acks in buckets this long.
const BUCKET: Duration = Duration::from_millis(100);
/// More than one window waiting behind the one in progress means the loop
/// is over capacity and `put_to_served` would measure a growing queue.
const MAX_BACKLOG_WINDOWS: u64 = 2;

struct Data {
    base: InteractionGraph,
    pool: Vec<(u32, u32)>,
    test: InteractionGraph,
}

fn data() -> Data {
    let full = generate(
        &SyntheticConfig::new(N_USERS, N_ITEMS, INTERACTIONS)
            .clusters(CLUSTERS)
            .seed(CATALOG_SEED),
    );
    let split = TrainTestSplit::per_user(&full, 0.2, 7);
    let mut train = split.train.edges().to_vec();
    Rng::stream(CATALOG_SEED, 5).shuffle(&mut train);
    let pool = train.split_off(train.len() - POOL);
    Data {
        base: InteractionGraph::new(N_USERS, N_ITEMS, train),
        pool,
        test: split.test,
    }
}

/// One fine-tune round as the tuner thread saw it.
#[derive(Clone, Copy)]
struct Round {
    generation: u64,
    watermark: u64,
    poll_started: Instant,
    done: Instant,
}

#[derive(Default)]
struct TunerShared {
    stop: AtomicBool,
    paused: AtomicBool,
    watermark: AtomicU64,
    rounds: Mutex<Vec<Round>>,
    error: Mutex<Option<String>>,
}

/// Polls the fine-tuner the way `ingestd`'s live loop does.
fn tuner_loop(mut tuner: FineTuner, ckpt_dir: PathBuf, shared: Arc<TunerShared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        if shared.paused.load(Ordering::SeqCst) {
            std::thread::sleep(POLL);
            continue;
        }
        let poll_started = Instant::now();
        match tuner.poll_once() {
            Ok(Some(report)) => {
                let done = Instant::now();
                let generation = checkpoint::newest_generation(&ckpt_dir).unwrap_or(0);
                shared.rounds.lock().expect("rounds lock").push(Round {
                    generation,
                    watermark: report.watermark,
                    poll_started,
                    done,
                });
                shared.watermark.store(report.watermark, Ordering::SeqCst);
            }
            Ok(None) => std::thread::sleep(POLL),
            Err(e) => {
                *shared.error.lock().expect("error lock") = Some(e.to_string());
                return;
            }
        }
    }
}

/// What the probe connection saw: when each new generation first appeared
/// in a `REC` reply.
#[derive(Default)]
struct ProbeLog {
    first_seen: Vec<(u64, Instant)>,
    /// Every `REC` round trip, in send order (ns).
    latencies: Vec<u32>,
    sent: u64,
    failed: u64,
}

fn generation_of(reply: &str) -> Option<u64> {
    reply
        .strip_prefix("OK gen=")?
        .split(' ')
        .next()?
        .parse()
        .ok()
}

fn probe_loop(mut client: ServeClient, seed: u64, stop: Arc<AtomicBool>) -> ProbeLog {
    let mut rng = Rng::stream(seed, 6);
    let mut log = ProbeLog::default();
    let mut last = 0;
    while !stop.load(Ordering::SeqCst) {
        log.sent += 1;
        let (reply, ns) = timed(|| client.rec_one(rng.below(N_USERS as u64) as u32, 20));
        log.latencies.push(ns);
        match reply {
            Ok(reply) => match generation_of(&reply) {
                Some(g) if g > last => {
                    last = g;
                    log.first_seen.push((g, Instant::now()));
                }
                Some(_) => {}
                None => log.failed += 1,
            },
            Err(_) => log.failed += 1,
        }
        std::thread::sleep(PROBE);
    }
    client.quit();
    log
}

/// One acknowledged `PUT`: parses `OK off=<n>`.
fn put(client: &mut ServeClient, (user, item): (u32, u32)) -> Result<u64, String> {
    client
        .send_line(&format!("PUT {user} {item}"))
        .and_then(|_| client.read_line())
        .map_err(|e| format!("PUT {user} {item}: {e}"))
        .and_then(|reply| {
            reply
                .strip_prefix("OK off=")
                .and_then(|o| o.parse().ok())
                .ok_or(format!("PUT {user} {item}: {reply}"))
        })
}

struct Fixture {
    dir: PathBuf,
    data: Data,
    cfg: GraphAugConfig,
    ingest: IngestHandle,
    engine: Arc<Engine>,
    server: ServerHandle,
    watcher: Option<Watcher>,
    shared: Arc<TunerShared>,
    tuner: Option<std::thread::JoinHandle<()>>,
    put_client: ServeClient,
    puts: PutStream,
    /// Every `off=` acknowledged so far, in ack order per connection.
    acked: Vec<u64>,
}

impl Fixture {
    fn ckpt_dir(&self) -> PathBuf {
        self.dir.join("ckpt")
    }

    fn log_dir(&self) -> PathBuf {
        self.dir.join("log")
    }

    fn source(cfg: &GraphAugConfig, base: &InteractionGraph, dir: &Path) -> ModelSource {
        // Half the lists probed: the auto width (4 of 32) is tuned for
        // catalogs two orders larger and would fail the recall gate here.
        ModelSource::new(cfg.clone(), base.clone(), &dir.join("ckpt"))
            .ann(IvfParams::new().nprobe(16))
            .quant(QuantParams::new())
            .log_dir(&dir.join("log"))
    }

    fn tune_cfg(&self) -> RuntimeConfig {
        RuntimeConfig::new(self.cfg.clone().steps_per_epoch(ROUND_STEPS))
            .checkpoint_dir(&self.ckpt_dir())
    }

    fn boot(dir: &Path, seed: u64) -> Result<Fixture, String> {
        let data = data();
        let cfg = GraphAugConfig::new()
            .seed(CATALOG_SEED)
            .epochs(1)
            .steps_per_epoch(BASE_STEPS);
        let (ckpt_dir, log_dir) = (dir.join("ckpt"), dir.join("log"));
        Runtime::new(
            RuntimeConfig::new(cfg.clone()).checkpoint_dir(&ckpt_dir),
            &data.base,
        )
        .and_then(|mut rt| rt.run())
        .map_err(|e| format!("base training: {e}"))?;

        let log = LogWriter::open(&log_dir, SEGMENT_RECORDS).map_err(|e| format!("log: {e}"))?;
        let ingest = start_ingest(Arc::new(Mutex::new(log)), N_USERS, N_ITEMS, "127.0.0.1:0")
            .map_err(|e| format!("ingest: {e}"))?;
        let engine = Arc::new(
            Engine::open(Self::source(&cfg, &data.base, dir))
                .map_err(|e| format!("engine: {e}"))?,
        );
        let server = serve(engine.clone(), "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
        let watcher = spawn_watcher(engine.clone(), WATCH);
        let put_client = ServeClient::connect(&ingest.addr().to_string())
            .map_err(|e| format!("connect ingest: {e}"))?;
        let puts = PutStream::new(seed, data.pool.clone());
        let mut fx = Fixture {
            dir: dir.to_path_buf(),
            data,
            cfg,
            ingest,
            engine,
            server,
            watcher: Some(watcher),
            shared: Arc::new(TunerShared::default()),
            tuner: None,
            put_client,
            puts,
            acked: Vec::new(),
        };
        let tuner = FineTuner::open(fx.tune_cfg(), &fx.data.base, &log_dir, WINDOW)
            .map_err(|e| format!("fine-tuner: {e}"))?;
        let shared = fx.shared.clone();
        fx.tuner = Some(
            std::thread::Builder::new()
                .name("bench-tuner".into())
                .spawn(move || tuner_loop(tuner, ckpt_dir, shared))
                .map_err(|e| format!("spawn tuner: {e}"))?,
        );

        // Warm-up: one closed-loop window through the whole loop — append,
        // round, publish, reload — discarded.
        for _ in 0..WINDOW {
            let edge = fx.puts.next_put();
            let off = put(&mut fx.put_client, edge)?;
            fx.acked.push(off);
        }
        fx.wait_until_served(WINDOW)?;
        Ok(fx)
    }

    /// Blocks until the engine serves a generation covering `offset`.
    fn wait_until_served(&self, offset: u64) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.engine.stats().log_offset < offset {
            if let Some(e) = self.shared.error.lock().expect("error lock").clone() {
                return Err(format!("fine-tune round failed: {e}"));
            }
            if Instant::now() > deadline {
                return Err(format!("offset {offset} not served within 30 s"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }

    /// Stops the tuner thread and the reload watcher (idempotent).
    fn quiesce(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.tuner.take() {
            let _ = h.join();
        }
        if let Some(w) = self.watcher.take() {
            w.stop();
        }
    }

    fn stop(mut self) {
        self.quiesce();
        self.put_client.quit();
        self.ingest.stop();
        self.server.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What phase A measured.
struct PhaseA {
    log: OpenLoopLog,
    /// `(window end offset, when its last PUT was acknowledged)`.
    window_acks: Vec<(u64, Instant)>,
    backlog_windows_max: u64,
    probe: ProbeLog,
    failed: u64,
    first_error: Option<String>,
}

/// Open-loop `PUT`s at [`PUT_RATE`] for `seconds`, rounded down to whole
/// windows, beside a probing `REC` connection; returns once the last
/// window is served.
fn phase_a(fx: &mut Fixture, seed: u64, seconds: f64) -> Result<PhaseA, String> {
    let count = ((PUT_RATE * seconds) as u64 / WINDOW).max(1) * WINDOW;
    let stop_probe = Arc::new(AtomicBool::new(false));
    let probe_client = ServeClient::connect(&fx.server.addr().to_string())
        .map_err(|e| format!("connect probe: {e}"))?;
    let flag = stop_probe.clone();
    let probe = std::thread::Builder::new()
        .name("bench-probe".into())
        .spawn(move || probe_loop(probe_client, seed, flag))
        .map_err(|e| format!("spawn probe: {e}"))?;

    let mut out = PhaseA {
        log: OpenLoopLog::default(),
        window_acks: Vec::new(),
        backlog_windows_max: 0,
        probe: ProbeLog::default(),
        failed: 0,
        first_error: None,
    };
    let mut log = OpenLoopLog::default();
    let expected_first = fx.acked.len() as u64;
    {
        let Fixture {
            put_client,
            puts,
            acked,
            shared,
            ..
        } = fx;
        run_open_loop(
            Schedule::per_second(PUT_RATE),
            count,
            &mut log,
            |i| match put(put_client, puts.next_put()) {
                Ok(off) => {
                    acked.push(off);
                    if off != expected_first + i {
                        out.failed += 1;
                    }
                    let len = off + 1;
                    if len % WINDOW == 0 {
                        out.window_acks.push((len, Instant::now()));
                    }
                    let backlog =
                        len.saturating_sub(shared.watermark.load(Ordering::SeqCst)) / WINDOW;
                    out.backlog_windows_max = out.backlog_windows_max.max(backlog);
                }
                Err(e) => {
                    out.failed += 1;
                    out.first_error.get_or_insert(e);
                }
            },
        );
    }
    out.log = log;
    let served = fx.wait_until_served(expected_first + count);
    // One more probe period so the probe sees the last generation too.
    std::thread::sleep(PROBE * 4);
    stop_probe.store(true, Ordering::SeqCst);
    out.probe = probe.join().map_err(|_| "probe thread panicked")?;
    served?;
    if let Some(e) = &out.first_error {
        return Err(format!("a paced PUT failed: {e}"));
    }
    Ok(out)
}

/// The freshness path of each phase-A window, split where the benchmark
/// can see it: ack → poll start, the round itself, publish → first probe.
struct Freshness {
    put_to_served: Vec<u32>,
    poll_wait: Vec<u64>,
    round: Vec<u64>,
    publish_to_served: Vec<u64>,
}

fn freshness(a: &PhaseA, rounds: &[Round]) -> Freshness {
    let mut f = Freshness {
        put_to_served: Vec::new(),
        poll_wait: Vec::new(),
        round: Vec::new(),
        publish_to_served: Vec::new(),
    };
    for &(end, acked_at) in &a.window_acks {
        // The round that absorbed this window, and the first probe reply
        // on a generation at least as new as the one it published.
        let Some(round) = rounds.iter().find(|r| r.watermark >= end) else {
            continue;
        };
        let Some(&(_, seen_at)) = a
            .probe
            .first_seen
            .iter()
            .find(|(g, _)| *g >= round.generation)
        else {
            continue;
        };
        f.put_to_served
            .push(ns32(seen_at.saturating_duration_since(acked_at)));
        f.poll_wait.push(
            round
                .poll_started
                .saturating_duration_since(acked_at)
                .as_nanos() as u64,
        );
        f.round
            .push(round.done.duration_since(round.poll_started).as_nanos() as u64);
        f.publish_to_served
            .push(seen_at.saturating_duration_since(round.done).as_nanos() as u64);
    }
    f
}

/// The fast decile, in µs, of a quantity sampled once per paced window
/// (ns): every window is its own slice (see `Summary::sliced`).
fn window_decile_us(ns: impl Iterator<Item = f64>) -> Option<f64> {
    let ns: Vec<f64> = ns.collect();
    (!ns.is_empty()).then(|| stats::fast_decile(&ns, false) / 1e3)
}

/// Held-out Recall@20 of whatever the engine serves now.
fn served_recall20(fx: &Fixture) -> f64 {
    let tables = fx.engine.tables();
    let split = TrainTestSplit {
        train: tables.graph().clone(),
        test: fx.data.test.clone(),
    };
    evaluate(&*tables, &split, &[20]).recall(20)
}

/// What one phase-B connection saw: the offsets acked, each round trip,
/// and when (since the phase began) each ack arrived.
type ConnectionLog = (Vec<u64>, Vec<u32>, Vec<Duration>);

struct PhaseB {
    acks: u64,
    /// Fast decile over 100 ms buckets of the acks they saw, per second:
    /// one journal stall in a 3 s phase moves a total by several percent
    /// and the typical bucket not at all.
    put_per_s: f64,
    latencies: Vec<u32>,
    per_connection_increasing: bool,
    offsets: Vec<u64>,
}

/// Closed-loop `PUT`s from `nproc` connections for `seconds`, tuner idle.
fn phase_b(fx: &mut Fixture, seed: u64, seconds: f64) -> Result<PhaseB, String> {
    fx.shared.paused.store(true, Ordering::SeqCst);
    let addr = fx.ingest.addr().to_string();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let workers: Vec<_> = (0..stats::nproc())
        .map(|c| {
            let addr = addr.clone();
            let mut puts = PutStream::new(seed.wrapping_add(1 + c as u64), fx.data.pool.clone());
            std::thread::spawn(move || -> Result<ConnectionLog, String> {
                let mut client =
                    ServeClient::connect(&addr).map_err(|e| format!("connect ingest: {e}"))?;
                let (mut offs, mut lat, mut at) = (Vec::new(), Vec::new(), Vec::new());
                while Instant::now() < deadline {
                    let (off, ns) = timed(|| put(&mut client, puts.next_put()));
                    offs.push(off?);
                    lat.push(ns);
                    at.push(started.elapsed());
                }
                client.quit();
                Ok((offs, lat, at))
            })
        })
        .collect();
    let mut out = PhaseB {
        acks: 0,
        put_per_s: 0.0,
        latencies: Vec::new(),
        per_connection_increasing: true,
        offsets: Vec::new(),
    };
    let mut buckets = vec![0.0; (seconds / BUCKET.as_secs_f64()) as usize];
    for w in workers {
        let (offs, lat, at) = w.join().map_err(|_| "PUT connection thread panicked")??;
        out.per_connection_increasing &= offs.windows(2).all(|p| p[0] < p[1]);
        out.acks += offs.len() as u64;
        out.offsets.extend(offs);
        out.latencies.extend(lat);
        for t in at {
            if let Some(b) = buckets.get_mut((t.as_secs_f64() / BUCKET.as_secs_f64()) as usize) {
                *b += 1.0;
            }
        }
    }
    if buckets.is_empty() {
        return Err("phase B is shorter than one throughput bucket".into());
    }
    out.put_per_s = stats::fast_decile(&buckets, true) / BUCKET.as_secs_f64();
    Ok(out)
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    pin_single_cpu()?;
    let boot = |i: usize| Fixture::boot(&opts.work_dir.join(format!("setup{i}")), opts.seed);
    let (fx, first_setup_s) = timed_s(|| boot(0));
    let mut fx = fx?;
    let tables = fx.engine.tables();
    println!(
        "  serving {}x{} items, ann={} quant={}, window {WINDOW}, paced at {PUT_RATE} PUT/s",
        N_USERS,
        N_ITEMS,
        tables.ann().is_some_and(|a| a.enabled()),
        tables.quant().is_some_and(|q| q.enabled()),
    );
    drop(tables);

    let mut a = phase_a(&mut fx, opts.seed, opts.seconds * PHASE_A_SHARE)?;
    let rounds = fx.shared.rounds.lock().expect("rounds lock").clone();
    let mut fresh = freshness(&a, &rounds);
    let recall20 = served_recall20(&fx);
    let served = fx.engine.stats();
    let mut b = phase_b(&mut fx, opts.seed, opts.seconds * (1.0 - PHASE_A_SHARE))?;

    let paced = a.log.from_due.len() as u64;
    report.attempted = paced + a.probe.sent + b.acks;
    report.failed = a.failed + a.probe.failed;
    let mut all_offsets = fx.acked.clone();
    all_offsets.extend(&b.offsets);
    all_offsets.sort_unstable();
    let log_records = log_len(&fx.log_dir()).map_err(|e| format!("log_len: {e}"))?;
    report.check(
        &format!(
            "{} PUTs acked with offsets 0..n, increasing on every connection",
            all_offsets.len()
        ),
        all_offsets.iter().enumerate().all(|(i, &o)| o == i as u64)
            && b.per_connection_increasing
            && a.failed == 0,
    );
    report.check(
        &format!("final log_len {log_records} == acks {}", all_offsets.len()),
        log_records == all_offsets.len() as u64,
    );
    report.check(
        &format!(
            "served finetunes {} == rounds fired {}, watermark {} covers every paced window",
            served.finetunes,
            rounds.len(),
            served.log_offset
        ),
        served.finetunes == rounds.len() as u64 && served.log_offset == WINDOW + paced,
    );
    report.check(
        &format!(
            "{} reloads, {} reload errors, {} probe replies wrong",
            served.reloads, served.reload_errors, a.probe.failed
        ),
        served.reload_errors == 0 && a.probe.failed == 0,
    );
    report.check(
        &format!(
            "every paced window's freshness observed ({} of {})",
            fresh.put_to_served.len(),
            a.window_acks.len()
        ),
        fresh.put_to_served.len() == a.window_acks.len(),
    );
    report.check(
        &format!(
            "backlog stayed within {MAX_BACKLOG_WINDOWS} windows (max {})",
            a.backlog_windows_max
        ),
        a.backlog_windows_max <= MAX_BACKLOG_WINDOWS,
    );

    // One slice per fine-tune window: each holds one round's share of
    // PUTs acked beside the tuner and of PUTs acked on an idle CPU.
    let ack = Summary::chunked(&mut a.log.from_due, WINDOW as usize, TAIL)
        .ok_or("no paced PUT completed")?;
    let late = Summary::of(&mut a.log.late, 0.99).ok_or("no paced PUT completed")?;
    let put_to_served_us = window_decile_us(fresh.put_to_served.iter().map(|&ns| ns as f64))
        .ok_or("no window was served")?;
    let publish_to_served_us =
        window_decile_us(fresh.publish_to_served.iter().map(|&ns| ns as f64))
            .ok_or("no window was served")?;
    let round_us =
        window_decile_us(fresh.round.iter().map(|&ns| ns as f64)).ok_or("no round ran")?;
    let probe_rec =
        Summary::sliced(&mut a.probe.latencies, PROBE_TAIL).ok_or("no probe REC completed")?;
    let absorb_put_per_s = WINDOW as f64 / (round_us / 1e6);
    let served_lat = Summary::of(&mut fresh.put_to_served, 0.90).ok_or("no window was served")?;
    let back_to_back = Summary::of(&mut b.latencies, 0.90).ok_or("no closed-loop PUT completed")?;
    print_latency("put_ack (paced), not gated", &ack);
    print_latency("gen_late (generator lateness)", &late);
    print_latency("put_to_served (all windows)", &served_lat);
    print_latency("put_ack (closed loop, phase B)", &back_to_back);
    print_latency("rec_beside (probe REC)", &probe_rec);
    println!(
        "  put_to_served {:.1} ms, publish->served {:.1} ms and round {:.1} ms (fast decile of {} windows): the loop absorbs {absorb_put_per_s:.1} PUT/s",
        put_to_served_us / 1e3,
        publish_to_served_us / 1e3,
        round_us / 1e3,
        fresh.round.len()
    );
    println!(
        "  put_to_served = poll wait {:.1} ms + round {:.1} ms + publish->served {:.1} ms",
        typical_us(fresh.poll_wait) / 1e3,
        typical_us(fresh.round) / 1e3,
        typical_us(fresh.publish_to_served) / 1e3
    );
    println!(
        "  put_per_s {:.1} from {} connections ({} acks), not gated: it follows the disk; served recall20 {recall20:.4}; backlog max {} windows",
        b.put_per_s,
        stats::nproc(),
        b.acks,
        a.backlog_windows_max
    );
    report.metric("primary_p50_us", put_to_served_us);
    report.metric("primary_alt_us", publish_to_served_us);
    report.metric("secondary_p50_us", probe_rec.p50_us());
    report.metric("work_per_s", absorb_put_per_s);
    report.metric("quality", recall20);
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

    // The untraced reference: a short paced phase of the real loop.
    let mut a = phase_a(&mut fx, opts.seed, opts.seconds / 4.0)?;
    let rounds = fx.shared.rounds.lock().expect("rounds lock").clone();
    let fresh = freshness(&a, &rounds);
    let windows = a.window_acks.len();
    report.attempted = a.log.from_due.len() as u64 + a.probe.sent;
    report.failed = a.failed + a.probe.failed;
    let untraced_us = window_decile_us(fresh.put_to_served.iter().map(|&ns| ns as f64))
        .ok_or("no window was served")?;
    let untraced_ack = Summary::chunked(&mut a.log.from_due, WINDOW as usize, TAIL)
        .ok_or("no paced PUT completed")?;
    let late = Summary::of(&mut a.log.late, 0.99).ok_or("no paced PUT completed")?;
    let poll_wait_ms = typical_us(fresh.poll_wait) / 1e3;
    report.metric("ingest.server.put_ack_p50_us", untraced_ack.p50_us());
    report.metric("ingest.server.put_ack_p75_us", untraced_ack.tail_us());
    report.metric("loadgen.gen_late_p99_us", late.tail_us());
    report.metric("loadgen.poll_wait_ms", poll_wait_ms);
    report.metric("runtime.online.rounds", rounds.len() as f64);
    report.metric(
        "runtime.online.backlog_windows_max",
        a.backlog_windows_max as f64,
    );

    // Quiesce, then walk the same number of windows through the loop one
    // call at a time: PUT round trips, then exactly the steps
    // `FineTuner::poll_once` performs, then the reload the watcher would.
    fx.quiesce();
    let mut trace = Trace::new();
    let (ckpt_dir, log_dir) = (fx.ckpt_dir(), fx.log_dir());
    let mut watermark = fx.engine.stats().log_offset;
    let mut graph = apply_deltas(
        &fx.data.base,
        &read_range(&log_dir, 0, watermark).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?
    .graph;
    let mut rt = Runtime::resume(fx.tune_cfg(), &graph).map_err(|e| format!("resume: {e}"))?;
    let scratch_log = opts.work_dir.join("append-log");
    let mut writer = LogWriter::open(&scratch_log, SEGMENT_RECORDS).map_err(|e| e.to_string())?;
    let mut req = 0u32;
    for w in 0..windows as u32 {
        for _ in 0..WINDOW {
            let edge = fx.puts.next_put();
            let (off, server) = trace.span("ingest.server", req, || put(&mut fx.put_client, edge));
            fx.acked.push(off?);
            let (appended, append) =
                trace.span("ingest.log.append", req, || writer.append(edge.0, edge.1));
            appended.map_err(|e| e.to_string())?;
            trace.link(append, server);
            req += 1;
        }
        let (records, _) = trace.span("ingest.log.read_window", w, || {
            read_range(&log_dir, watermark, watermark + WINDOW)
        });
        let records = records.map_err(|e| e.to_string())?;
        let (delta, _) = trace.span("ingest.delta.apply_window", w, || {
            apply_deltas(&graph, &records)
        });
        graph = delta.map_err(|e| e.to_string())?.graph;
        watermark += WINDOW;
        let (absorbed, _) = trace.span("runtime.online.absorb", w, || {
            rt.absorb_deltas(&graph, watermark)
        });
        absorbed.map_err(|e| e.to_string())?;
        let (round, _) = trace.span("runtime.online.finetune_round", w, || rt.fine_tune_round());
        round.map_err(|e| e.to_string())?;
        let (reloaded, _) = trace.span("serve.engine.reload", w, || fx.engine.reload_if_newer());
        if reloaded.map_err(|e| e.to_string())?.is_none() {
            return Err("a published generation was not reloaded".into());
        }
    }
    report.attempted += req as u64;

    // The checkpoint codec and the engine open, on the serving model.
    let (_, state) = checkpoint::load_latest_valid(&ckpt_dir).ok_or("no checkpoint to time")?;
    let bytes = state.to_bytes();
    let mut scratch_ckpt =
        Checkpointer::new(&opts.work_dir.join("write-ckpt")).map_err(|e| e.to_string())?;
    report.metric(
        "runtime.checkpoint.encode_ms",
        typical_ms(5, || state.to_bytes().len()),
    );
    report.metric(
        "runtime.checkpoint.decode_ms",
        typical_ms(5, || TrainState::from_bytes(&bytes).map(|s| s.epoch)),
    );
    report.metric(
        "runtime.checkpoint.write_ms",
        typical_ms(5, || scratch_ckpt.write(&state).is_ok()),
    );
    report.metric("runtime.checkpoint.bytes", bytes.len() as f64);
    let source = Fixture::source(&fx.cfg, &fx.data.base, &fx.dir);
    report.metric(
        "serve.engine.open_ms",
        typical_ms(3, || Engine::open(source.clone()).is_ok()),
    );

    let ms = |name: &str| typical_us(trace.durations(name)) / 1e3;
    let (read_ms, apply_ms) = (
        ms("ingest.log.read_window"),
        ms("ingest.delta.apply_window"),
    );
    let (absorb_ms, round_ms, reload_ms) = (
        ms("runtime.online.absorb"),
        ms("runtime.online.finetune_round"),
        ms("serve.engine.reload"),
    );
    let append_us = typical_us(trace.durations("ingest.log.append"));
    let put_self_us = typical_us(trace.self_times("ingest.server"));
    report.metric("ingest.log.append_us", append_us);
    report.metric("ingest.server.put_self_us", put_self_us);
    report.metric("ingest.log.read_window_us", read_ms * 1e3);
    report.metric("ingest.delta.apply_window_us", apply_ms * 1e3);
    report.metric("runtime.online.absorb_ms", absorb_ms);
    report.metric("runtime.online.finetune_round_ms", round_ms);
    report.metric("serve.engine.reload_ms", reload_ms);
    // Closed-loop PUT throughput lives here, un-gated: it follows the
    // host's disk (6 700–9 700 PUT/s across twenty runs of one commit).
    let b = phase_b(&mut fx, opts.seed, opts.seconds / 4.0)?;
    report.attempted += b.acks;
    report.metric("ingest.server.put_per_s", b.put_per_s);
    println!(
        "  PUT ack: quiescent round trip {:.1} us = log append (fsync) {append_us:.1} + ingest.server self {put_self_us:.1}; paced ack p50 {:.1} us",
        typical_us(trace.durations("ingest.server")),
        untraced_ack.p50_us()
    );

    // put_to_served: the measured poll wait, the replayed steps, and the
    // expected halves of the watcher and probe periods.
    let half_ms = |d: Duration| d.as_secs_f64() * 1e3 / 2.0;
    let layers_ms = [
        ("loadgen (poll wait, measured)", poll_wait_ms),
        ("ingest.log.read_window", read_ms),
        ("ingest.delta.apply_window", apply_ms),
        ("runtime.online.absorb", absorb_ms),
        ("runtime.online.finetune_round", round_ms),
        ("serve.engine (watcher wait, expected)", half_ms(WATCH)),
        ("serve.engine.reload", reload_ms),
        ("loadgen (probe wait, expected)", half_ms(PROBE)),
    ];
    let layers_us: Vec<(&str, f64)> = layers_ms.iter().map(|&(l, v)| (l, v * 1e3)).collect();
    let replayed_ms: f64 = [read_ms, apply_ms, absorb_ms, round_ms, reload_ms]
        .iter()
        .sum();
    finish_trace(
        opts,
        report,
        &trace,
        &Decomposition {
            operation: "put_to_served",
            untraced_us,
            // The quiescent replay has no waits to trace: its outer span is
            // the replayed steps, and the overhead share compares like with
            // like by removing the waits from the untraced value.
            outer_us: replayed_ms * 1e3 + (poll_wait_ms + half_ms(WATCH) + half_ms(PROBE)) * 1e3,
            layers: &layers_us,
            replayed: windows,
        },
    )?;
    fx.stop();
    Ok(())
}
