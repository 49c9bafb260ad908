//! Online recommendation serving for the GraphAug reproduction.
//!
//! Every prior layer of the workspace stops at offline training and
//! evaluation; this crate answers the actual production question — *"what
//! should user `u` see right now?"* — on top of the `graphaug-runtime`
//! checkpoint store:
//!
//! 1. **Tables** ([`tables`]) — load the newest valid checkpoint and freeze
//!    the user/item embedding matrices and the seen-item lists its frame
//!    carries (the trainer's clean-graph forward at the checkpoint's
//!    watermark) into an immutable [`ModelTables`]; serving runs no model
//!    and replays no log. `ModelTables` implements the
//!    evaluation stack's `Recommender` trait, so a served ranking is
//!    *bit-identical* to the offline `graphaug-eval` ranking for the same
//!    checkpoint — the integration tests assert this with hex-exact
//!    comparisons.
//! 2. **ANN index** ([`ann`]) — an optional dependency-free IVF-flat index
//!    over the frozen item table: a seeded, bit-deterministic k-means
//!    coarse quantizer partitions the catalog into inverted lists so a
//!    query scores only its `nprobe` best-matching lists instead of every
//!    item. A build-time recall gate (and an online self-audit) keeps the
//!    approximation honest; probing all lists reproduces the exact ranking
//!    hex-identically.
//! 3. **Quantized tables** ([`quant`]) — optional int8 per-row-scaled
//!    copies of both embedding tables (~4× smaller resident state) scored
//!    with the exact-integer `score_rows_i8` kernel, plus a quantized IVF index
//!    packing int8 rows per inverted list. A build-time drift gate
//!    (sampled recall vs the f32 oracle) and an every-Nth self-audit keep
//!    quantization noise bounded; below the floor, serving falls back to
//!    f32 bits.
//! 4. **Engine** ([`engine`]) — top-K queries with seen-item filtering over
//!    the bounded-heap `topk_indices` (or the quant/ANN fast path when one
//!    is attached and enabled), batched requests fanned out over
//!    `graphaug-par`, an LRU response cache keyed by
//!    `(user, k, model generation, serve mode)`, and **hot reload**: a
//!    background watcher notices a newer checkpoint generation on disk,
//!    rebuilds the tables — and the index, re-running its recall gate — off
//!    the request path, and atomically swaps them in without dropping or
//!    tearing any in-flight request.
//! 5. **Server** ([`proto`], [`server`]) — a dependency-free blocking TCP
//!    server speaking the workspace's one line protocol
//!    (`graphaug_ingest::proto`; `REC` serves the fast path, `RECX` pins the
//!    exact-parity oracle), plus the
//!    `serve_main` and `loadgen` binaries (demo service and latency/QPS
//!    load generator).
//!
//! # Quickstart
//!
//! ```
//! use graphaug_core::GraphAugConfig;
//! use graphaug_data::{generate, SyntheticConfig};
//! use graphaug_runtime::{Runtime, RuntimeConfig};
//! use graphaug_serve::{Engine, ModelSource};
//!
//! // Train two epochs, checkpointing every epoch.
//! let graph = generate(&SyntheticConfig::new(40, 30, 400).seed(1));
//! let dir = std::env::temp_dir().join("graphaug-serve-quickstart");
//! let model = GraphAugConfig::fast_test().epochs(2);
//! let mut rt = Runtime::new(
//!     RuntimeConfig::new(model.clone()).checkpoint_dir(&dir),
//!     &graph,
//! )
//! .unwrap();
//! rt.run().unwrap();
//!
//! // Serve top-10 recommendations from the newest checkpoint.
//! let engine = Engine::open(ModelSource::new(model, graph, &dir)).unwrap();
//! let rec = engine.recommend(3, 10).unwrap();
//! assert_eq!(rec.items.len(), 10);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod ann;
pub mod cache;
pub mod client;
pub mod engine;
pub mod proto;
pub mod quant;
pub mod server;
pub mod tables;
pub mod workload;

/// The line-server scaffold [`serve`] runs on and the binaries' one `argv`
/// parser, re-exported for the crates above this one (the router's bins).
pub use graphaug_ingest::{args, net};

pub use ann::{IvfIndex, IvfParams};
pub use cache::LruCache;
pub use client::{percentile, resolve_addr, LatencySummary, ServeClient};
pub use engine::{
    spawn_watcher, Engine, EngineStats, Recommendation, Watcher, DEFAULT_CACHE_CAPACITY,
};
pub use proto::{
    err_kind, field, ok_line, parse_ok_line, parse_request, OkLine, Request, Stats, Verb, MAX_K,
    MAX_REC_USERS,
};
pub use quant::{QuantIvf, QuantParams, QuantRows};
pub use server::{serve, ServerHandle};
pub use tables::{
    AnnBuild, AnnQuery, ModelSource, ModelTables, QuantBuild, ScoredItem, ServeError,
};
pub use workload::UserSampler;
