//! Golden bits for every model that propagates over the bipartite graph.
//!
//! GraphAug (mixhop and vanilla encoders), SGL, DGCL, CGI, DisenGCN, DGCF
//! and LightGCN are trained for two epochs on one fixed synthetic graph, and
//! an FNV-1a over the bits of the resulting user and item tables is pinned;
//! for GraphAug the bits of the first three `train_step` losses are pinned
//! too. A refactor of the propagation code that records the same tape ops in
//! the same order keeps every constant; anything else moves at least one.
//! The run is bit-deterministic, so the constants hold at any
//! `GRAPHAUG_THREADS` and with `GRAPHAUG_SIMD=0`.

use graphaug_baselines::{BaselineOpts, Cgi, DisenCf, EdgeClCf, GnnCf, Trainable};
use graphaug_core::{EncoderKind, GraphAug, GraphAugConfig};
use graphaug_data::{generate, SyntheticConfig};
use graphaug_graph::{InteractionGraph, TripletSampler};

fn graph() -> InteractionGraph {
    generate(&SyntheticConfig::new(80, 60, 900).clusters(4).seed(11))
}

fn graphaug(encoder: EncoderKind, train: &InteractionGraph) -> GraphAug {
    GraphAug::new(
        GraphAugConfig::fast_test().encoder(encoder).epochs(2),
        train,
    )
}

fn fnv1a(model: &dyn Trainable) -> u64 {
    let (users, items) = model.embeddings().expect("embedding model");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in users.as_slice().iter().chain(items.as_slice()) {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Asserts every `(name, got, want)` row at once, so a mismatch prints the
/// whole table rather than the first row that moved.
fn check(rows: &[(String, u64, u64)]) {
    let moved: Vec<String> = rows
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: got {got:#x}, want {want:#x}"))
        .collect();
    assert!(moved.is_empty(), "bits moved:\n{}", moved.join("\n"));
}

#[test]
fn trained_tables_keep_their_bits() {
    let train = graph();
    let opts = || BaselineOpts::fast_test().epochs(2);
    let models: Vec<(&str, Box<dyn Trainable>, u64)> = vec![
        (
            "GraphAug",
            Box::new(graphaug(EncoderKind::Mixhop, &train)),
            0x6cda_893e_81ec_297d,
        ),
        (
            "GraphAug w/o Mixhop",
            Box::new(graphaug(EncoderKind::Vanilla, &train)),
            0x7557_1840_201a_60e4,
        ),
        (
            "SGL",
            Box::new(EdgeClCf::sgl(opts(), &train)),
            0x8a84_184d_32f4_73d2,
        ),
        (
            "DGCL",
            Box::new(EdgeClCf::dgcl(opts(), &train)),
            0x63e6_1e40_c62d_d07a,
        ),
        (
            "CGI",
            Box::new(Cgi::new(opts(), &train)),
            0xdf6f_c9b2_6148_63f1,
        ),
        (
            "DisenGCN",
            Box::new(DisenCf::disengcn(opts(), &train)),
            0x17c5_8392_7c21_14ae,
        ),
        (
            "DGCF",
            Box::new(DisenCf::dgcf(opts(), &train)),
            0x5c8f_eef8_0280_ea3f,
        ),
        (
            "LightGCN",
            Box::new(GnnCf::lightgcn(opts(), &train)),
            0x3bd9_dfad_6bee_699c,
        ),
    ];
    let rows: Vec<(String, u64, u64)> = models
        .into_iter()
        .map(|(name, mut model, want)| {
            model.fit();
            (name.to_string(), fnv1a(model.as_ref()), want)
        })
        .collect();
    check(&rows);
}

#[test]
fn graphaug_step_losses_keep_their_bits() {
    let train = graph();
    let cases: [(EncoderKind, [u32; 3]); 2] = [
        (EncoderKind::Mixhop, [0x3f48_ad85, 0x3f4e_1403, 0x3f53_6610]),
        (
            EncoderKind::Vanilla,
            [0x3f48_79cd, 0x3f4d_d447, 0x3f53_150a],
        ),
    ];
    let mut rows = Vec::new();
    for (encoder, want) in cases {
        let mut model = graphaug(encoder, &train);
        let mut sampler = TripletSampler::new(&train, 5);
        for (step, want) in want.into_iter().enumerate() {
            let loss = model.train_step(&mut sampler).loss.to_bits();
            rows.push((format!("{encoder:?} step {step}"), loss.into(), want.into()));
        }
    }
    check(&rows);
}
