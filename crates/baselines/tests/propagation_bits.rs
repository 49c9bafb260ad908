//! Golden bits for every arm: the 18 Table II baselines and the four
//! GraphAug variants.
//!
//! Each arm is trained for two epochs on one fixed synthetic graph, and an
//! FNV-1a over the bits of the resulting user and item tables is pinned.
//! NCF and AutoRec have no tables, so for them the hash runs over
//! `score_items` for every user. For GraphAug the bits of the first three
//! `train_step` losses are pinned too. A refactor of the training or
//! propagation code that draws the same batches and records the same tape
//! ops in the same order keeps every constant; anything else moves at least
//! one. The run is bit-deterministic, so the constants hold at any
//! `GRAPHAUG_THREADS` and with `GRAPHAUG_SIMD=0`.

use graphaug_baselines::{build_model, BaselineOpts, Trainable};
use graphaug_core::{EncoderKind, GraphAug, GraphAugConfig};
use graphaug_data::{generate, SyntheticConfig};
use graphaug_graph::{InteractionGraph, TripletSampler};

fn graph() -> InteractionGraph {
    generate(&SyntheticConfig::new(80, 60, 900).clusters(4).seed(11))
}

fn graphaug(cfg: GraphAugConfig, train: &InteractionGraph) -> Box<dyn Trainable> {
    Box::new(GraphAug::new(cfg.epochs(2), train))
}

/// FNV-1a over the bits of the user and item tables, or over every user's
/// `score_items` for a model without tables.
fn fnv1a(model: &dyn Trainable, n_users: usize) -> u64 {
    let bits: Vec<f32> = match model.embeddings() {
        Some((users, items)) => users
            .as_slice()
            .iter()
            .chain(items.as_slice())
            .copied()
            .collect(),
        None => (0..n_users).flat_map(|u| model.score_items(u)).collect(),
    };
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in bits {
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
    let cfg = GraphAugConfig::fast_test;
    let mut models: Vec<(&str, Box<dyn Trainable>, u64)> = vec![
        ("GraphAug", graphaug(cfg(), &train), 0x6cda_893e_81ec_297d),
        (
            "GraphAug w/o Mixhop",
            graphaug(cfg().encoder(EncoderKind::Vanilla), &train),
            0x7557_1840_201a_60e4,
        ),
        (
            "GraphAug w/o GIB",
            graphaug(cfg().gib(false), &train),
            0x5c24_c8b0_5d1c_6c9c,
        ),
        (
            "GraphAug w/o CL",
            graphaug(cfg().cl(false), &train),
            0x9288_590f_d272_a25a,
        ),
    ];
    let baselines: [(&str, u64); 18] = [
        ("BiasMF", 0x6aed_eade_b2c2_764e),
        ("NCF", 0xe90e_50fa_3fd1_91bd),
        ("AutoR", 0xbf6d_00ec_c814_2d85),
        ("GCMC", 0xe2f3_9e04_21b6_255e),
        ("PinSage", 0xb997_0a40_e5ec_74e1),
        ("NGCF", 0x4ba5_9ad9_04f4_cc1e),
        ("LightGCN", 0x3bd9_dfad_6bee_699c),
        ("GCCF", 0x29a9_eb9f_b924_49a9),
        ("DisenGCN", 0x17c5_8392_7c21_14ae),
        ("DGCF", 0x5c8f_eef8_0280_ea3f),
        ("MHCN", 0xd9c9_b9ec_c8ea_ab7e),
        ("STGCN", 0x37cf_6f18_2f44_1d9f),
        ("SLRec", 0x781e_d695_0cce_2a7c),
        ("SGL", 0x8a84_184d_32f4_73d2),
        ("DGCL", 0x63e6_1e40_c62d_d07a),
        ("HCCF", 0x1a1e_b6fe_6ca5_2a12),
        ("CGI", 0xdf6f_c9b2_6148_63f1),
        ("NCL", 0x5d0e_8498_ad48_d36f),
    ];
    let opts = BaselineOpts::fast_test().epochs(2);
    models.extend(
        baselines
            .into_iter()
            .map(|(name, want)| (name, build_model(name, opts.clone(), &train), want)),
    );
    let rows: Vec<(String, u64, u64)> = models
        .into_iter()
        .map(|(name, mut model, want)| {
            model.fit();
            (
                name.to_string(),
                fnv1a(model.as_ref(), train.n_users()),
                want,
            )
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
        let mut model = GraphAug::new(GraphAugConfig::fast_test().encoder(encoder), &train);
        let mut sampler = TripletSampler::new(&train, 5);
        for (step, want) in want.into_iter().enumerate() {
            let loss = model.train_step(&mut sampler).loss.to_bits();
            rows.push((format!("{encoder:?} step {step}"), loss.into(), want.into()));
        }
    }
    check(&rows);
}
