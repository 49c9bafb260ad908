//! Kernel benchmark suites, recorded by `bench_baseline`, which picks them
//! by name from [`SUITES`].
//!
//! Only kernels and single in-process calls are timed here. Sockets,
//! engines, the router, the log and the fine-tune loop are timed end to end
//! and per layer by the stand-alone `benchmark/` package (`BENCHMARK.json`).

use std::hint::black_box;

use graphaug_core::augmentor::{
    edge_logits, sample_view, AugmentorNodes, AugmentorSettings, EdgeIndex,
};
use graphaug_core::mixhop::{encode_mixhop, mixing_row_shape};
use graphaug_core::nn::lightgcn_propagate;
use graphaug_core::{GraphAug, GraphAugConfig};
use graphaug_data::{generate, Dataset, SyntheticConfig};
use graphaug_eval::{evaluate, topk_indices, Recommender};
use graphaug_graph::TripletSampler;
use graphaug_runtime::{Checkpointer, RunCompat, ServedTables, TrainState};
use graphaug_serve::{IvfIndex, IvfParams, ModelTables, QuantIvf, QuantParams, QuantRows};
use graphaug_tensor::init::{seeded_rng, xavier_uniform};
use graphaug_tensor::{Graph, Mat, SpPair};

use crate::harness::Harness;
use crate::split_graph;

/// A suite: the name `bench_baseline` takes, and the function it runs.
pub type Suite = (&'static str, fn(&mut Harness));

/// Every suite, in recording order.
pub const SUITES: &[Suite] = &[
    ("spmm", spmm),
    ("matmul", matmul),
    ("mixhop_forward", mixhop_forward),
    ("sampling", sampling),
    ("autodiff_epoch", autodiff_epoch),
    ("topk_eval", topk_eval),
    ("augmentor", augmentor),
    ("checkpoint", checkpoint),
    ("ann", ann),
    ("quant", quant),
];

/// Sparse × dense kernels — the hot inner loop of every GNN
/// forward/backward pass in the workspace.
pub fn spmm(h: &mut Harness) {
    for (label, users, items, inter) in [
        ("small", 200usize, 150usize, 3000usize),
        ("gowalla_scale", 794, 898, 18300),
    ] {
        let g = generate(&SyntheticConfig::new(users, items, inter).seed(1));
        let adj = g.normalized_adjacency_plain();
        let d = 32;
        let dense: Vec<f32> = (0..adj.n_cols() * d)
            .map(|i| (i as f32 * 0.37).sin())
            .collect();
        let mut out = vec![0f32; adj.n_rows() * d];
        let edges = adj.nnz() as f64;
        h.bench_throughput(
            &format!("spmm/csr_x_dense_d32/{label}"),
            edges,
            "Medges/s",
            || {
                adj.spmm_into(black_box(&dense), d, &mut out);
                black_box(&out);
            },
        );

        // The two backward kernels of the edge-weighted product over the
        // same pattern (`Op::SpmmEw`): one dot product per stored entry,
        // and the transposed-plan accumulation into the dense gradient.
        let dy: Vec<f32> = (0..adj.n_rows() * d)
            .map(|i| (i as f32 * 0.53).cos())
            .collect();
        let mut dw = vec![0f32; adj.nnz()];
        h.bench_throughput(
            &format!("spmm_ew_dw/d32/{label}"),
            edges,
            "Medges/s",
            || {
                adj.spmm_ew_dw_into(black_box(&dense), black_box(&dy), d, &mut dw);
                black_box(&dw);
            },
        );
        let mut dh = vec![0f32; adj.n_cols() * d];
        h.bench_throughput(
            &format!("spmm_ew_dh/d32/{label}"),
            edges,
            "Medges/s",
            || {
                adj.spmm_ew_dh_acc_into(black_box(adj.data()), black_box(&dy), d, &mut dh);
                black_box(&dh);
            },
        );
    }
}

/// Dense matmul kernels at the embedding shapes the training loop uses —
/// throughput reported in GFLOP/s (2·n·k·m flops per product). The edge
/// scorer's first layer projects every node of the Gowalla preset (1 692)
/// through one `d × h` half of `W1`; `matmul_tn` at that shape is the
/// half's weight gradient.
pub fn matmul(h: &mut Harness) {
    let mut rng = seeded_rng(5);
    for (label, n, k, m) in [
        ("nodes_x_mixing_694x32x32", 694usize, 32usize, 32usize),
        ("nodes_x_mlp_half_1692x32x16", 1692, 32, 16),
    ] {
        let a = xavier_uniform(n, k, &mut rng);
        let b = xavier_uniform(k, m, &mut rng);
        let flops = 2.0 * n as f64 * k as f64 * m as f64;
        let c = a.matmul(&b);
        h.bench_throughput(&format!("matmul/{label}"), flops, "GFLOP/s", || {
            black_box(black_box(&a).matmul(black_box(&b)).as_slice()[0]);
        });
        h.bench_throughput(&format!("matmul_tn/{label}"), flops, "GFLOP/s", || {
            black_box(black_box(&a).matmul_tn(black_box(&c)).as_slice()[0]);
        });
    }

    // The backward shapes of the same step: `Op::MatMul`'s input gradient
    // `g × wᵀ` for the per-node projection and the per-edge output layer,
    // and the InfoNCE similarity block (`Op::MatMulNT` forward). Labels
    // read n×k×m for an n×k by (m×k)ᵀ product.
    for (label, n, k, m) in [
        ("mlp_half_grad_1692x16x32", 1692usize, 16usize, 32usize),
        ("mlp_out_grad_8000x1x16", 8000, 1, 16),
        ("infonce_256x32x256", 256, 32, 256),
    ] {
        let a = xavier_uniform(n, k, &mut rng);
        let b = xavier_uniform(m, k, &mut rng);
        let flops = 2.0 * n as f64 * k as f64 * m as f64;
        h.bench_throughput(&format!("matmul_nt/{label}"), flops, "GFLOP/s", || {
            black_box(black_box(&a).matmul_nt(black_box(&b)).as_slice()[0]);
        });
    }
    let hidden = xavier_uniform(8000, 16, &mut rng);
    let g = xavier_uniform(8000, 1, &mut rng);
    h.bench_throughput(
        "matmul_tn/mlp_out_8000x16x1",
        2.0 * 8000.0 * 16.0,
        "GFLOP/s",
        || {
            black_box(black_box(&hidden).matmul_tn(black_box(&g)).as_slice()[0]);
        },
    );
}

/// Mixhop encoder forward pass vs the vanilla-GCN ablation — the ablation
/// bench for the paper's central encoder design choice (Table III).
pub fn mixhop_forward(h: &mut Harness) {
    let g = generate(&SyntheticConfig::new(400, 300, 8000).seed(1));
    let adj = SpPair::symmetric(g.normalized_adjacency_plain());
    let n = g.n_nodes();
    let d = 32;
    let mut rng = seeded_rng(2);
    let h0 = xavier_uniform(n, d, &mut rng);
    let (mr, mc) = mixing_row_shape(3);
    let rows: Vec<_> = (0..2).map(|_| xavier_uniform(mr, mc, &mut rng)).collect();

    h.bench("mixhop_forward_L2_hops012", || {
        let mut tape = Graph::new();
        let hn = tape.constant(h0.clone());
        let ws: Vec<_> = rows.iter().map(|w| tape.constant(w.clone())).collect();
        let out = encode_mixhop(&mut tape, &adj, hn, &ws, &[0, 1, 2]);
        black_box(tape.value(out).as_slice()[0]);
    });
    h.bench("vanilla_forward_L2", || {
        let mut tape = Graph::new();
        let hn = tape.constant(h0.clone());
        let out = lightgcn_propagate(&mut tape, &adj, hn, 2);
        black_box(tape.value(out).as_slice()[0]);
    });
}

/// BPR triplet-sampling benchmarks — the per-step data path.
pub fn sampling(h: &mut Harness) {
    let g = generate(&SyntheticConfig::new(794, 898, 18300).seed(1));
    let mut s = TripletSampler::new(&g, 7);
    h.bench("bpr_batch_1024", || {
        black_box(s.sample_batch(1024).0.len());
    });
    let mut s = TripletSampler::new(&g, 7);
    h.bench("active_users_256", || {
        black_box(s.sample_active_users(256).len());
    });
}

/// Full GraphAug training-step benchmark: tape build + forward + backward +
/// Adam — the unit of cost behind the paper's Table VI timing comparison.
pub fn autodiff_epoch(h: &mut Harness) {
    let train = generate(&SyntheticConfig::new(300, 250, 6000).seed(1));
    let mut full = GraphAug::new(GraphAugConfig::new().seed(3), &train);
    let mut base = GraphAug::new(GraphAugConfig::new().gib(false).cl(false).seed(3), &train);
    let mut sampler = TripletSampler::new(&train, 5);
    h.bench("graphaug_train_step_full", || {
        black_box(full.train_step(&mut sampler).loss);
    });
    let mut sampler = TripletSampler::new(&train, 5);
    h.bench("graphaug_train_step_bpr_only", || {
        black_box(base.train_step(&mut sampler).loss);
    });

    // The step the end-to-end `train_gowalla` workload times: the Gowalla
    // preset's train split (~15k edges over ~1.7k nodes), where the
    // per-edge augmentor terms weigh what they do in the paper's setting —
    // the 6k-edge graph above under-weights every E-proportional term.
    let train = split_graph(&Dataset::Gowalla.load()).train;
    let mut model = GraphAug::new(GraphAugConfig::new().seed(3), &train);
    let mut sampler = TripletSampler::new(&train, 5);
    h.bench("graphaug_train_step_gowalla_preset", || {
        black_box(model.train_step(&mut sampler).loss);
    });
}

/// Top-K selection and full-ranking evaluation benchmarks — the
/// measurement side of every experiment.
pub fn topk_eval(h: &mut Harness) {
    let scores: Vec<f32> = (0..10_000)
        .map(|i| ((i * 2654435761u64 as usize) % 9973) as f32)
        .collect();
    h.bench("topk_40_of_10000", || {
        black_box(topk_indices(black_box(&scores), 40));
    });

    // The f32 row kernel every full-catalog scan scores through, at a cold
    // `RECX`'s shape (the benchmark's 16 384-item d32 catalog) and at the
    // Gowalla preset's evaluation shape (898 items).
    for n in [16_384usize, 898] {
        let dim = 32usize;
        let mut rows = vec![0f32; n * dim];
        seeded_rng(23).fill_normal_f32(&mut rows, 1.0);
        let user: Vec<f32> = rows[..dim].iter().map(|v| v * 0.5).collect();
        let mut out = Vec::with_capacity(n);
        h.bench(&format!("topk_eval/score_rows_f32_{n}x{dim}"), || {
            out.clear();
            graphaug_par::score_rows_f32(black_box(&rows), black_box(&user), &mut out);
            black_box(&out);
        });
    }

    let g = generate(&SyntheticConfig::new(300, 250, 5000).seed(1));
    let split = split_graph(&g);
    let model = GraphAug::new(GraphAugConfig::new().seed(1), &split.train);
    h.bench("full_ranking_eval_300users", || {
        black_box(evaluate(&model, &split, &[20, 40]).n_users);
    });
}

/// Checkpoint path benchmarks: full training-state encode, decode, and the
/// atomic on-disk write+prune cycle — the per-epoch overhead a
/// `graphaug-runtime` run pays for crash safety, at the same model scale as
/// the `autodiff_epoch` training-step bench so the two are directly
/// comparable.
pub fn checkpoint(h: &mut Harness) {
    let train = generate(&SyntheticConfig::new(300, 250, 6000).seed(1));
    let model = GraphAug::new(GraphAugConfig::new().seed(3), &train);
    let (user_emb, item_emb) = model.embeddings().expect("GraphAug has embeddings");
    let state = TrainState {
        compat: RunCompat {
            n_users: train.n_users() as u64,
            n_items: train.n_items() as u64,
            n_edges: train.n_interactions() as u64,
            seed: 3,
            embed_dim: 32,
        },
        epoch: 4,
        lr_scale: 1.0,
        consecutive_bad: 0,
        attempt: 24,
        step_in_epoch: 0,
        log_offset: 0,
        finetunes: 0,
        loss_window: vec![0.45; 8],
        model: model.training_state(),
        sampler: TripletSampler::new(&train, 7).state(),
        served: std::sync::Arc::new(ServedTables {
            user_emb: user_emb.clone(),
            item_emb: item_emb.clone(),
            graph: train.clone(),
        }),
    };

    let bytes = state.to_bytes();
    let mb = bytes.len() as f64 / 1e6;
    h.bench_throughput("checkpoint_encode_300x250_d32", mb, "MB/s", || {
        black_box(state.to_bytes().len());
    });
    h.bench_throughput("checkpoint_decode_300x250_d32", mb, "MB/s", || {
        black_box(TrainState::from_bytes(black_box(&bytes)).unwrap().epoch);
    });

    let dir = std::env::temp_dir().join(format!("graphaug-bench-ckpt-{}", std::process::id()));
    let mut ckpt = Checkpointer::new(&dir).expect("temp checkpoint dir");
    h.bench_throughput("checkpoint_atomic_write_300x250_d32", mb, "MB/s", || {
        black_box(ckpt.write(&state).unwrap());
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Learnable-augmentor benchmarks: edge scoring (MLP over all train edges)
/// and reparameterized view sampling — the cost GraphAug adds over plain
/// GCL, and the subject of the differentiable-sampling design choice in
/// DESIGN.md.
pub fn augmentor(h: &mut Harness) {
    let train = generate(&SyntheticConfig::new(400, 300, 8000).seed(1));
    let idx = EdgeIndex::build(&train);
    let d = 32;
    let hidden = 16;
    let mut rng = seeded_rng(2);
    let h_bar = xavier_uniform(train.n_nodes(), d, &mut rng);
    let w1 = xavier_uniform(2 * d, hidden, &mut rng);
    let w2 = xavier_uniform(hidden, 1, &mut rng);
    let settings = AugmentorSettings {
        gumbel_temperature: 0.5,
        edge_threshold: 0.2,
        feature_keep_prob: 0.9,
        feature_noise_std: 0.1,
        leaky_slope: 0.5,
    };

    // Records the scorer on a fresh tape: parameters, then Eq. 4's logits.
    let record = || {
        let mut g = Graph::new();
        let hb = g.constant(h_bar.clone());
        let mlp = AugmentorNodes {
            w1: g.constant(w1.clone()),
            b1: g.constant(Mat::zeros(1, hidden)),
            w2: g.constant(w2.clone()),
            b2: g.constant(Mat::zeros(1, 1)),
        };
        let mut r = seeded_rng(3);
        let logits = edge_logits(&mut g, hb, &idx, &mlp, &settings, &mut r);
        (g, mlp, logits, r)
    };

    h.bench("edge_logits_8k_edges", || {
        let (g, _, l, _) = record();
        black_box(g.value(l).as_slice()[0]);
    });

    // The same scorer with its reverse pass — the output layer's gradients
    // over every edge, the gathers' scatter-adds, and the per-node
    // projections' `matmul_nt` / `matmul_tn` — which a training step pays
    // on top of the forward above.
    h.bench("edge_mlp_forward_backward_8k_edges", || {
        let (mut g, mlp, l, _) = record();
        let loss = g.sum_all(l);
        g.backward(loss);
        black_box(g.grad(mlp.w1).expect("w1 is on the loss path").as_slice()[0]);
    });

    let (mut g, _, logits, mut r) = record();
    // Rewind the tape each draw — otherwise the warmup window alone grows
    // the tape by hundreds of live view buffers and the bench measures
    // allocator pressure instead of sampling cost.
    let base_len = g.len();
    h.bench("sample_view_8k_edges", || {
        g.truncate(base_len);
        let v = sample_view(&mut g, logits, &idx, &settings, &mut r);
        black_box(v.kept_fraction);
    });
}

/// IVF ANN benchmarks: index build (the cost a hot reload adds per
/// generation swap) and ANN vs exact uncached top-20 at 10k- and 100k-item
/// catalogs. The catalogs are clustered mixtures of Gaussians — the embedding geometry a
/// trained recommender produces — and the build-time recall@20 estimate of
/// each index is recorded as a `metric` line so the recorded point carries
/// the quality alongside the speedup.
pub fn ann(h: &mut Harness) {
    /// `n` points around `k` shared Gaussian centers in `dim` dims.
    fn clustered(n: usize, k: usize, dim: usize, seed: u64) -> Mat {
        let mut rng = seeded_rng(seed);
        let mut centers = vec![0f32; k * dim];
        rng.fill_normal_f32(&mut centers, 4.0);
        Mat::from_fn(n, dim, |r, c| {
            centers[(r % k) * dim + c] + rng.normal_f32() * 0.1
        })
    }

    let n_users = 256usize;
    let d = 32usize;
    // nprobe per scale: 100k keeps the auto choice (39 of 316 lists,
    // recall@20 = 0.97 on this catalog); 10k needs 25 of 100 lists to clear
    // the 0.9 floor (the auto 12 lands at 0.89 — small catalogs fragment
    // true clusters across proportionally more lists).
    for (label, n_items, centers, nprobe) in [
        ("10k", 10_000usize, 64usize, 25usize),
        ("100k", 100_000, 256, 0),
    ] {
        // Users and items share the center set (seed encodes the scale so
        // the 10k and 100k catalogs are independent draws), so each user's
        // true top-20 concentrates in a handful of lists — the geometry the
        // probe search exploits.
        let item_emb = clustered(n_items, centers, d, 11 + n_items as u64);
        let user_emb = clustered(n_users, centers, d, 13 + n_items as u64);
        let graph = generate(&SyntheticConfig::new(n_users, n_items, 4 * n_users).seed(1));
        let params = IvfParams::new().nprobe(nprobe);

        // Index build — this is the extra latency a checkpoint reload pays
        // before the table swap, so it reads against the benchmark's
        // `serve.engine.reload_ms`.
        h.bench(&format!("ann_build_{label}_d32"), || {
            black_box(IvfIndex::build(black_box(&item_emb), &params).len());
        });

        let tables = ModelTables::from_embeddings(
            user_emb.clone(),
            item_emb.clone(),
            graph.clone(),
            1,
            Some(&params),
            None,
        );
        let ann = tables.ann().expect("index built");
        assert!(
            ann.enabled(),
            "bench catalog {label} must clear the recall floor \
             (recall={})",
            ann.build_recall()
        );
        h.metric(&format!("ann_recall20_{label}"), ann.build_recall() as f64);

        // Uncached top-20, one list per call, cycling users: the ANN probe
        // path vs the exact full-catalog scorer on identical tables.
        let mut user = 0u32;
        h.bench(&format!("ann_topk20_uncached_{label}_d32"), || {
            black_box(tables.top_k_ann(user, 20).unwrap().0.len());
            user = (user + 1) % n_users as u32;
        });
        let exact = ModelTables::from_embeddings(user_emb, item_emb, graph, 1, None, None);
        let mut user = 0u32;
        h.bench(&format!("exact_topk20_uncached_{label}_d32"), || {
            black_box(exact.top_k(user, 20).unwrap().len());
            user = (user + 1) % n_users as u32;
        });
    }
}

/// Int8 quantization benchmarks: the scalar `dot8_i8` against its f32
/// counterpart, the int8 row kernel at a cold `REC`'s candidate count,
/// quantized-IVF build cost (what a hot reload adds on top of
/// the f32 index), and the quantized uncached top-20 at the same 100k-item
/// d32 catalog the `ann` suite measures — so `quant_rec_uncached_100k`
/// reads directly against `ann_topk20_uncached_100k_d32`. The resident
/// footprint of both table representations and the sampled drift
/// recall@20 are recorded as `metric` lines alongside the timings.
pub fn quant(h: &mut Harness) {
    /// Clustered mixture-of-Gaussians, same construction and seeds as the
    /// `ann` suite but with σ=1.0 intra-cluster spread instead of 0.1: the
    /// ann catalog packs items tighter than int8 resolution (adjacent
    /// scores differ by less than half a quantization step, so their order
    /// is undefined under any int8 scheme), while at σ=1.0 the top-20 is
    /// rank-stable and the drift gate measures the scheme rather than the
    /// catalog's ties. List sizes (and therefore probed-candidate counts
    /// and timings) are unchanged — items are center-assigned `r % k`
    /// either way — so `quant_rec_uncached_100k` still reads directly
    /// against `ann_topk20_uncached_100k_d32`.
    fn clustered(n: usize, k: usize, dim: usize, seed: u64) -> Mat {
        let mut rng = seeded_rng(seed);
        let mut centers = vec![0f32; k * dim];
        rng.fill_normal_f32(&mut centers, 4.0);
        Mat::from_fn(n, dim, |r, c| {
            centers[(r % k) * dim + c] + rng.normal_f32() * 1.0
        })
    }

    // One 4096-wide int8 dot through `dot8_i8`'s plain loop (the row
    // kernel's scalar reference) vs the f32 kernel on the same data,
    // dequantized.
    let n = 4096usize;
    let mut rng = seeded_rng(17);
    let mut fa = vec![0f32; n];
    let mut fb = vec![0f32; n];
    rng.fill_normal_f32(&mut fa, 1.0);
    rng.fill_normal_f32(&mut fb, 1.0);
    let qa: Vec<i8> = fa
        .iter()
        .map(|&v| (v * 40.0).clamp(-127.0, 127.0) as i8)
        .collect();
    let qb: Vec<i8> = fb
        .iter()
        .map(|&v| (v * 40.0).clamp(-127.0, 127.0) as i8)
        .collect();
    h.bench("quant_dot", || {
        black_box(graphaug_par::dot8_i8(black_box(&qa), black_box(&qb)));
    });
    h.bench("f32_dot_4096", || {
        black_box(graphaug_par::dot8(black_box(&fa), black_box(&fb)));
    });

    // The row kernel at a cold `REC`'s shape: one d32 user row against the
    // 3 158 packed candidates the benchmark's probed lists hold on average.
    let (cands, dim) = (3158usize, 32usize);
    let mut fr = vec![0f32; cands * dim];
    seeded_rng(19).fill_normal_f32(&mut fr, 1.0);
    let rows: Vec<i8> = fr
        .iter()
        .map(|&v| (v * 40.0).clamp(-127.0, 127.0) as i8)
        .collect();
    let scales: Vec<f32> = (0..cands).map(|r| 0.01 + r as f32 * 1e-6).collect();
    let mut scores = Vec::with_capacity(cands);
    h.bench("quant/score_rows_i8_3158x32", || {
        scores.clear();
        graphaug_par::score_rows_i8(
            black_box(&rows),
            black_box(&scales),
            black_box(&qa[..dim]),
            0.02,
            &mut scores,
        );
        black_box(&scores);
    });

    // 100k-item d32 catalog, identical to the `ann` suite's 100k scale.
    let n_users = 256usize;
    let (d, n_items, centers) = (32usize, 100_000usize, 256usize);
    let item_emb = clustered(n_items, centers, d, 11 + n_items as u64);
    let user_emb = clustered(n_users, centers, d, 13 + n_items as u64);
    let graph = generate(&SyntheticConfig::new(n_users, n_items, 4 * n_users).seed(1));
    let ivf_params = IvfParams::new();
    let quant_params = QuantParams::new();

    // Quantized index build — the incremental reload cost of the int8 path.
    let item_q = QuantRows::quantize(&item_emb);
    h.bench("quant_ivf_build", || {
        black_box(QuantIvf::build(black_box(&item_q), &ivf_params).nlists());
    });

    let tables = ModelTables::from_embeddings(
        user_emb,
        item_emb,
        graph,
        1,
        Some(&ivf_params),
        Some(&quant_params),
    );
    let qb = tables.quant().expect("quant tables built");
    assert!(
        qb.enabled(),
        "bench catalog must clear the drift floor (drift={})",
        qb.build_drift()
    );
    h.metric("quant_drift20_100k", qb.build_drift());
    h.metric("quant_table_bytes_100k", qb.table_bytes() as f64);
    h.metric("f32_table_bytes_100k", tables.table_bytes_f32() as f64);

    // Uncached quantized top-20, cycling users — the direct competitor of
    // `ann_topk20_uncached_100k_d32` on the identical catalog.
    let mut user = 0u32;
    h.bench("quant_rec_uncached_100k", || {
        black_box(tables.top_k_quant(user, 20).unwrap().0.len());
        user = (user + 1) % n_users as u32;
    });
}
