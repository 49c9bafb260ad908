//! `train_gowalla`: the paper's own workload. `Runtime` trains GraphAug
//! (default configuration, all three losses) on the Gowalla preset for a
//! step count that is a frozen multiple of `--seconds`, then `evaluate`s
//! at K=20 — training speed and Recall@20 read off the same run. The only
//! workload where `tensor`, `sparse`, the augmentor, mixhop and the
//! sampler do the work.
//!
//! Pinned to one CPU with `GRAPHAUG_THREADS=1` like the other workloads:
//! at `nproc` threads, unpinned, step time on the 2-vCPU box spread ~20 %
//! from run to run for a 1.08× speed-up, which no 10 % bound can gate. The
//! `par` pool is measured by the traced run (`par.train_speedup`).

use graphaug_core::augmentor::{
    edge_logits, sample_view, AugmentorNodes, AugmentorSettings, EdgeIndex,
};
use graphaug_core::mixhop::{encode_mixhop, mixing_row_shape};
use graphaug_core::{GraphAug, GraphAugConfig};
use graphaug_data::Dataset;
use graphaug_eval::evaluate;
use graphaug_graph::{TrainTestSplit, TripletSampler};
use graphaug_runtime::{Runtime, RuntimeConfig};
use graphaug_tensor::init::{seeded_rng, xavier_uniform};
use graphaug_tensor::{Graph, Mat, SpPair};

use crate::common::{
    finish_trace, print_latency, setup_median, timed_s, Decomposition, Opts, Report,
};
use crate::pace::timed;
use crate::replay::{typical_ms, typical_us};
use crate::stats::{self, fast_rate, Summary, MEDIAN_ONLY};
use crate::trace::Trace;

/// Steps per second of `--seconds`: ≈ what one pinned thread sustains at this
/// commit, then frozen, so the step count — and with it `recall20` — is a
/// function of the arguments alone and a faster trainer finishes sooner.
const STEPS_PER_SECOND: f64 = 32.0;
const WARM_STEPS: u64 = 8;
/// One `evaluate` and one rate mark after this many steps (~0.5 s).
const EVAL_EVERY: u64 = 16;
const EVAL_REPEATS: usize = 15;
/// p75: every step does the same work, so a step's tail reads the box, and
/// the lower the percentile the more slices support it — a 15 s run is 480
/// steps, twelve slices of 40 at p75 against four of 120 at p90, whose
/// fastest spread 24 % over ten seeds where the median spread 14 %.
const TAIL: f64 = 0.75;
const SPLIT_SEED: u64 = 7;
/// Recall@20 this model reaches on the preset well before 60 steps
/// (0.42 at 60, 0.57 at 200); a trainer that falls below it is broken.
const RECALL_FLOOR: f64 = 0.25;
const RECALL_FLOOR_FROM_STEPS: u64 = 60;

fn config(seed: u64) -> GraphAugConfig {
    // The epoch total only bounds `run_steps`; it is never reached.
    GraphAugConfig::new().seed(seed).epochs(1_000_000)
}

struct Fixture {
    split: TrainTestSplit,
    rt: Runtime,
}

impl Fixture {
    fn boot(seed: u64) -> Result<Fixture, String> {
        let graph = Dataset::Gowalla
            .try_load()
            .map_err(|e| format!("preset: {e}"))?;
        let split = TrainTestSplit::per_user(&graph, 0.2, SPLIT_SEED);
        // Warm-up on a throwaway runtime: the pool spins up and the buffer
        // pools fill, and the measured model still starts from step 0.
        let mut warm = Runtime::new(RuntimeConfig::new(config(seed)), &split.train)
            .map_err(|e| e.to_string())?;
        warm.run_steps(WARM_STEPS)
            .map_err(|e| format!("warm-up: {e}"))?;
        let rt = Runtime::new(RuntimeConfig::new(config(seed)), &split.train)
            .map_err(|e| e.to_string())?;
        Ok(Fixture { split, rt })
    }
}

struct Trained {
    steps: Vec<u32>,
    evals: Vec<u32>,
    /// `(seconds spent in steps, steps done)` after every [`EVAL_EVERY`]
    /// steps: the stretches `train_steps_per_s` is the fast decile of.
    marks: Vec<(f64, u64)>,
    withheld: u64,
}

/// `n` training steps, one `run_steps(1)` call each, with one `evaluate`
/// after every [`EVAL_EVERY`] steps: spread over the window like the steps,
/// so one slow burst of the box cannot hit every evaluation (fifteen back
/// to back after the loop, 0.2 s in all, spread 25–55 % across ten runs).
/// `evaluate` only reads the model; the trajectory is the same without it.
fn train(fx: &mut Fixture, n: u64) -> Result<Trained, String> {
    let mut out = Trained {
        steps: Vec::new(),
        evals: Vec::new(),
        marks: vec![(0.0, 0)],
        withheld: 0,
    };
    let mut step_seconds = 0.0;
    for i in 1..=n {
        let (report, ns) = timed(|| fx.rt.run_steps(1));
        let report = report.map_err(|e| format!("training: {e}"))?;
        let healthy = report.step_losses.len() == 1
            && report.step_losses[0].is_finite()
            && report.recoveries.is_empty();
        out.withheld += u64::from(!healthy);
        out.steps.push(ns);
        step_seconds += ns as f64 / 1e9;
        if i % EVAL_EVERY == 0 {
            out.marks.push((step_seconds, i));
            let (_, ns) = timed(|| evaluate(fx.rt.model(), &fx.split, &[20]).n_users);
            out.evals.push(ns);
        }
    }
    Ok(out)
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    crate::common::pin_single_cpu()?;
    let (fx, first_setup_s) = timed_s(|| Fixture::boot(opts.seed));
    let mut fx = fx?;
    let n = (STEPS_PER_SECOND * opts.seconds) as u64;
    println!("  {n} steps, one evaluate every {EVAL_EVERY}");
    let mut t = train(&mut fx, n)?;
    let recall20 = evaluate(fx.rt.model(), &fx.split, &[20]).recall(20);

    report.attempted = n + t.evals.len() as u64;
    report.failed = t.withheld;
    report.check(
        &format!(
            "all {n} steps applied with a finite loss ({} withheld)",
            t.withheld
        ),
        t.withheld == 0,
    );
    let floor = if n >= RECALL_FLOOR_FROM_STEPS {
        RECALL_FLOOR
    } else {
        0.0
    };
    report.check(
        &format!("recall20 {recall20:.4} is finite and above its floor {floor}"),
        recall20.is_finite() && recall20 > floor,
    );

    let step = Summary::sliced(&mut t.steps, TAIL).ok_or("no step ran")?;
    let eval = Summary::sliced(&mut t.evals, MEDIAN_ONLY).ok_or("no evaluate ran")?;
    let steps_per_s = fast_rate(&t.marks).ok_or("fewer steps than one stretch")?;
    print_latency("train_step", &step);
    print_latency("evaluate (K=20)", &eval);
    println!(
        "  train_steps_per_s {steps_per_s:.2} (fast-decile stretch of {EVAL_EVERY} steps); recall20 {recall20:.4}"
    );
    report.metric("primary_p50_us", step.p50_us());
    report.metric("primary_alt_us", step.tail_us());
    report.metric("secondary_p50_us", eval.p50_us());
    report.metric("work_per_s", steps_per_s);
    report.metric("quality", recall20);
    report.peak_rss();
    drop(fx);
    report.metric(
        "setup_s",
        setup_median(
            first_setup_s,
            opts.setup_repeats,
            |_| Fixture::boot(opts.seed),
            drop,
        )?,
    );
    Ok(())
}

/// Steps per second of a fresh model at the current thread count.
fn steps_per_second(fx: &Fixture, seed: u64, steps: usize) -> f64 {
    let mut model = GraphAug::new(config(seed), &fx.split.train);
    let mut sampler = TripletSampler::new(&fx.split.train, seed.wrapping_add(101));
    for _ in 0..2 {
        model.train_step(&mut sampler);
    }
    let (_, ns) = timed(|| {
        for _ in 0..steps {
            std::hint::black_box(model.train_step(&mut sampler).loss);
        }
    });
    steps as f64 / (ns as f64 / 1e9)
}

pub fn run_traced(opts: &Opts, report: &mut Report) -> Result<(), String> {
    // The pool first, while the process may still use every CPU.
    let threads = stats::nproc();
    let probe = Fixture::boot(opts.seed)?;
    graphaug_par::set_thread_count(threads);
    let pooled = steps_per_second(&probe, opts.seed, 12);
    graphaug_par::set_thread_count(1);
    let serial = steps_per_second(&probe, opts.seed, 12);
    println!("  par: {pooled:.2} steps/s at {threads} threads vs {serial:.2} at 1, unpinned");
    report.metric("par.train_speedup", pooled / serial);
    drop(probe);

    crate::common::pin_single_cpu()?;
    let mut fx = Fixture::boot(opts.seed)?;
    let n = ((STEPS_PER_SECOND * opts.seconds / 4.0) as u64).max(8);
    let mut untraced = train(&mut fx, n)?;
    let untraced = Summary::sliced(&mut untraced.steps, TAIL).ok_or("no step ran")?;
    report.attempted = 2 * n;

    // The same trajectory twice: `GraphAug::train_step` called directly,
    // then `Runtime::run_steps(1)` around it. `Runtime::new` seeds its
    // sampler at `seed + 101`, so both walk identical batches.
    let train_graph = &fx.split.train;
    let mut trace = Trace::new();
    let mut model = GraphAug::new(config(opts.seed), train_graph);
    let mut sampler = TripletSampler::new(train_graph, opts.seed.wrapping_add(101));
    let mut withheld = 0u64;
    let mut model_ids = Vec::new();
    for i in 0..n {
        let (stats, id) = trace.span("core.model.step", i as u32, || {
            model.train_step(&mut sampler)
        });
        withheld += u64::from(!stats.update_applied());
        model_ids.push(id);
    }
    let mut rt = Runtime::new(RuntimeConfig::new(config(opts.seed)), train_graph)
        .map_err(|e| e.to_string())?;
    for (i, &model_id) in model_ids.iter().enumerate() {
        let (r, id) = trace.span("runtime.runtime.step", i as u32, || rt.run_steps(1));
        r.map_err(|e| format!("training: {e}"))?;
        trace.link(model_id, id);
    }
    report.failed = withheld;
    let step_us = typical_us(trace.durations("core.model.step"));
    let runtime_self_us = typical_us(trace.self_times("runtime.runtime.step"));
    report.metric("core.model.step_ms", step_us / 1e3);
    report.metric("core.model.withheld_steps", withheld as f64);
    report.metric("runtime.runtime.step_self_us", runtime_self_us);

    // The public pieces of one step, at the preset's node and edge counts.
    let cfg = config(opts.seed);
    let (d, hidden) = (cfg.embed_dim, 16);
    let idx = EdgeIndex::build(train_graph);
    let mut rng = seeded_rng(opts.seed);
    let h_bar = xavier_uniform(train_graph.n_nodes(), d, &mut rng);
    let w1 = xavier_uniform(2 * d, hidden, &mut rng);
    let w2 = xavier_uniform(hidden, 1, &mut rng);
    let settings = AugmentorSettings {
        gumbel_temperature: cfg.gumbel_temperature,
        edge_threshold: cfg.edge_threshold,
        feature_keep_prob: cfg.feature_keep_prob,
        feature_noise_std: cfg.feature_noise_std,
        leaky_slope: cfg.leaky_slope,
    };
    let mlp = |g: &mut Graph| AugmentorNodes {
        w1: g.constant(w1.clone()),
        b1: g.constant(Mat::zeros(1, hidden)),
        w2: g.constant(w2.clone()),
        b2: g.constant(Mat::zeros(1, 1)),
    };
    report.metric(
        "core.augmentor.edge_logits_ms",
        typical_ms(20, || {
            let mut g = Graph::new();
            let hb = g.constant(h_bar.clone());
            let nodes = mlp(&mut g);
            let logits = edge_logits(&mut g, hb, &idx, &nodes, &settings, &mut seeded_rng(3));
            g.value(logits).as_slice()[0]
        }),
    );
    let mut g = Graph::new();
    let hb = g.constant(h_bar.clone());
    let nodes = mlp(&mut g);
    let mut view_rng = seeded_rng(3);
    let logits = edge_logits(&mut g, hb, &idx, &nodes, &settings, &mut view_rng);
    let base_len = g.len();
    report.metric(
        "core.augmentor.sample_view_ms",
        typical_ms(20, || {
            // Rewind the tape each draw, or it grows by one view per call.
            g.truncate(base_len);
            sample_view(&mut g, logits, &idx, &settings, &mut view_rng).kept_fraction
        }),
    );
    let adj = train_graph.normalized_adjacency_plain();
    let pair = SpPair::symmetric(adj.clone());
    let (mr, mc) = mixing_row_shape(cfg.hops.len());
    let rows: Vec<Mat> = (0..cfg.n_layers)
        .map(|_| xavier_uniform(mr, mc, &mut rng))
        .collect();
    report.metric(
        "core.mixhop.encode_ms",
        typical_ms(20, || {
            let mut tape = Graph::new();
            let h0 = tape.constant(h_bar.clone());
            let ws: Vec<_> = rows.iter().map(|w| tape.constant(w.clone())).collect();
            let out = encode_mixhop(&mut tape, &pair, h0, &ws, &cfg.hops);
            tape.value(out).as_slice()[0]
        }),
    );

    // The kernels beneath: matmul at the augmentor MLP's edges × 2d × hidden
    // shape, SpMM over the preset adjacency, one BPR batch.
    let edges = train_graph.n_interactions();
    let a = xavier_uniform(edges, 2 * d, &mut rng);
    let flops = 2.0 * edges as f64 * (2 * d) as f64 * hidden as f64;
    let matmul_ms = typical_ms(20, || a.matmul(&w1).as_slice()[0]);
    report.metric("tensor.matmul_gflops", flops / (matmul_ms * 1e6));
    let dense: Vec<f32> = (0..adj.n_cols() * d)
        .map(|i| (i as f32 * 0.37).sin())
        .collect();
    let mut out = vec![0f32; adj.n_rows() * d];
    let spmm_ms = typical_ms(50, || {
        adj.spmm_into(&dense, d, &mut out);
        out[0]
    });
    report.metric(
        "sparse.spmm_medges_per_s",
        adj.nnz() as f64 / (spmm_ms * 1e3),
    );
    let mut batch_sampler = TripletSampler::new(train_graph, 7);
    report.metric(
        "graph.sampler.batch_us",
        typical_ms(50, || batch_sampler.sample_batch(cfg.bpr_batch).0.len()) * 1e3,
    );
    report.metric(
        "eval.evaluate_ms",
        typical_ms(EVAL_REPEATS, || evaluate(&model, &fx.split, &[20]).n_users),
    );

    finish_trace(
        opts,
        report,
        &trace,
        &Decomposition {
            operation: "train_step",
            untraced_us: untraced.p50_us(),
            outer_us: typical_us(trace.durations("runtime.runtime.step")),
            layers: &[
                ("core.model (train_step)", step_us),
                ("runtime.runtime (guards, self)", runtime_self_us),
            ],
            replayed: n as usize,
        },
    )
}
