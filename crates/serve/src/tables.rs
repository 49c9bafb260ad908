//! Immutable serving tables materialized from one training checkpoint.
//!
//! A [`ModelTables`] is everything a request needs, frozen at build time:
//! the final user/item embedding matrices (one inference forward pass over
//! the clean graph), the per-user seen-item lists for filtering, and the
//! checkpoint generation the tables came from. Instances are immutable
//! after construction and shared behind an `Arc`, which is what makes the
//! engine's hot swap safe: a request that started on generation N keeps
//! its `Arc<ModelTables>` alive until it finishes, no matter how many
//! swaps land meanwhile.

use std::path::{Path, PathBuf};

use graphaug_core::{GraphAug, GraphAugConfig};
use graphaug_eval::{overlap_count, topk_indices, Recommender};
use graphaug_graph::InteractionGraph;
use graphaug_ingest::{apply_deltas, read_range, IngestError};
use graphaug_rng::StdRng;
use graphaug_runtime::{RunCompat, SnapshotError, TrainState};
use graphaug_tensor::{Mat, RestoreError};

use crate::ann::{Ivf, IvfIndex, IvfParams, IvfRows};
use crate::quant::{QuantIvf, QuantParams, QuantRows};

/// Seeded probe users behind every build-time gate estimate.
const GATE_USERS: usize = 64;
/// Cutoff of every build-time gate estimate (the paper's K).
const GATE_K: usize = 20;
/// Seed of the drift gate's probe-user draw (the recall gate draws from
/// its index's [`IvfParams::seed`]).
const DRIFT_SEED: u64 = 0x9a17;

/// Why a serving operation failed.
#[derive(Debug)]
pub enum ServeError {
    /// No valid checkpoint exists under the source directory.
    NoCheckpoint(PathBuf),
    /// A checkpoint could not be read or decoded.
    Snapshot(SnapshotError),
    /// A decoded checkpoint did not fit the configured model shape.
    Restore(RestoreError),
    /// The requested user id is outside the model's user range.
    UnknownUser {
        /// The offending user id.
        user: u32,
        /// Number of users the model knows.
        n_users: usize,
    },
    /// The checkpoint was trained past the base graph (its watermark is
    /// nonzero) but the source carries no interaction-log directory to
    /// replay the deltas from.
    LogRequired {
        /// The checkpoint's watermark.
        log_offset: u64,
    },
    /// The interaction log could not be replayed up to the checkpoint's
    /// watermark (corrupt record, chain gap, out-of-range ids).
    Ingest(IngestError),
    /// Network/socket failure in the server layer.
    Io(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NoCheckpoint(dir) => {
                write!(f, "no valid checkpoint under {}", dir.display())
            }
            ServeError::Snapshot(e) => write!(f, "checkpoint error: {e}"),
            ServeError::Restore(e) => write!(f, "checkpoint does not fit this model: {e}"),
            ServeError::UnknownUser { user, n_users } => {
                write!(f, "unknown user {user} (model has users 0..{n_users})")
            }
            ServeError::LogRequired { log_offset } => write!(
                f,
                "checkpoint watermark is {log_offset} but the source has no log_dir to replay"
            ),
            ServeError::Ingest(e) => write!(f, "log replay error: {e}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

impl From<RestoreError> for ServeError {
    fn from(e: RestoreError) -> Self {
        ServeError::Restore(e)
    }
}

impl From<IngestError> for ServeError {
    fn from(e: IngestError) -> Self {
        ServeError::Ingest(e)
    }
}

/// One ranked item with its preference score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredItem {
    /// Item id.
    pub item: u32,
    /// Dot-product preference score (bit-identical to offline eval).
    pub score: f32,
}

/// How many of `exact`'s items `approx` also returned — the numerator of
/// every recall estimate (build-time gates and the engine's online audit).
pub(crate) fn overlap(approx: &[ScoredItem], exact: &[ScoredItem]) -> usize {
    let items = |list: &[ScoredItem]| list.iter().map(|s| s.item).collect::<Vec<u32>>();
    overlap_count(&items(approx), &items(exact))
}

/// Where serving tables come from: the model configuration and training
/// graph that define the run, plus the checkpoint directory a trainer
/// writes into. The config/graph pair must match the training run — the
/// checkpoint's [`RunCompat`] header is checked on every load, so serving
/// a checkpoint against the wrong graph fails loudly instead of returning
/// silent nonsense.
#[derive(Clone)]
pub struct ModelSource {
    /// Model hyperparameters of the training run.
    pub config: GraphAugConfig,
    /// The training interaction graph (defines embedding shapes and the
    /// seen-item lists used for filtering).
    pub graph: InteractionGraph,
    /// Directory the trainer checkpoints into.
    pub checkpoint_dir: PathBuf,
    /// When set, every table build also constructs an IVF item index with
    /// these parameters (and re-runs its recall gate), so the ANN fast path
    /// survives hot reloads automatically.
    pub ann: Option<IvfParams>,
    /// When set, every table build also freezes int8 quantized tables (and
    /// re-runs their drift gate), so quantized serving — like ANN —
    /// survives hot reloads automatically. Combined with [`Self::ann`], the
    /// quantized build packs an int8 IVF index with the ANN geometry.
    pub quant: Option<QuantParams>,
    /// When set, checkpoints trained past the base graph (nonzero
    /// `log_offset` watermark) are served by replaying this interaction
    /// log's records `[0, watermark)` onto `graph` — the online-learning
    /// handoff. Without it, only watermark-zero checkpoints build.
    pub log_dir: Option<PathBuf>,
}

impl ModelSource {
    /// Bundles a source description (exact serving only; see [`Self::ann`]).
    pub fn new(config: GraphAugConfig, graph: InteractionGraph, checkpoint_dir: &Path) -> Self {
        ModelSource {
            config,
            graph,
            checkpoint_dir: checkpoint_dir.to_path_buf(),
            ann: None,
            quant: None,
            log_dir: None,
        }
    }

    /// Enables the IVF ANN fast path for every table build from this source.
    pub fn ann(mut self, params: IvfParams) -> Self {
        self.ann = Some(params);
        self
    }

    /// Enables int8-quantized serving for every table build from this
    /// source.
    pub fn quant(mut self, params: QuantParams) -> Self {
        self.quant = Some(params);
        self
    }

    /// Attaches the interaction log the online trainer appends to, so
    /// table builds can resolve watermarked checkpoints (see
    /// [`Self::log_dir`]).
    pub fn log_dir(mut self, dir: &Path) -> Self {
        self.log_dir = Some(dir.to_path_buf());
        self
    }

    /// The [`RunCompat`] identity this source expects watermark-zero
    /// checkpoints to carry (see [`Self::compat_of`] for grown graphs).
    pub fn compat(&self) -> RunCompat {
        self.compat_of(&self.graph)
    }

    /// The [`RunCompat`] identity of a checkpoint trained over `graph`
    /// (the base graph or any watermark-resolved growth of it).
    pub fn compat_of(&self, graph: &InteractionGraph) -> RunCompat {
        RunCompat {
            n_users: graph.n_users() as u64,
            n_items: graph.n_items() as u64,
            n_edges: graph.n_interactions() as u64,
            seed: self.config.seed,
            embed_dim: self.config.embed_dim as u64,
        }
    }

    /// The graph a checkpoint with watermark `log_offset` was trained on:
    /// the base graph plus interaction-log records `[0, log_offset)`,
    /// checksum-verified and deduplicated exactly like the trainer applied
    /// them. Watermark zero needs no log at all.
    pub fn graph_at(&self, log_offset: u64) -> Result<InteractionGraph, ServeError> {
        if log_offset == 0 {
            return Ok(self.graph.clone());
        }
        let dir = self
            .log_dir
            .as_ref()
            .ok_or(ServeError::LogRequired { log_offset })?;
        let records = read_range(dir, 0, log_offset)?;
        Ok(apply_deltas(&self.graph, &records)?.graph)
    }
}

/// The audited quality of one approximate tier, frozen with the tables it
/// was measured on: the build-time sampled recall@20 vs the exact f32
/// oracle, whether it cleared the tier's floor, and the online audit
/// cadence that travels with it. A reload rebuilds the tier from scratch,
/// so the gate re-runs per generation.
#[derive(Clone, Copy)]
struct Gate {
    sampled: f64,
    enabled: bool,
    audit_every: u64,
}

impl Gate {
    /// Fails closed: the tier serves only when `sampled` reaches `floor`.
    fn new(sampled: f64, floor: f64, audit_every: u64) -> Gate {
        Gate {
            sampled,
            enabled: sampled >= floor,
            audit_every,
        }
    }
}

/// An IVF index attached to one generation of serving tables, together
/// with its [`Gate`]. Built alongside the tables at swap time (off the
/// request path) and frozen.
#[derive(Clone)]
pub struct AnnBuild {
    index: IvfIndex,
    nprobe: usize,
    gate: Gate,
}

impl AnnBuild {
    /// The coarse-quantized item index.
    pub fn index(&self) -> &IvfIndex {
        &self.index
    }

    /// Lists probed per query.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    /// Build-time sampled recall@20 vs the exact oracle.
    pub fn build_recall(&self) -> f64 {
        self.gate.sampled
    }

    /// Whether the build-time recall cleared the configured floor. When
    /// false the tables answer every request through the exact path.
    pub fn enabled(&self) -> bool {
        self.gate.enabled
    }

    /// Online self-audit cadence (every Nth ANN-served list is re-ranked
    /// exactly; `0` = off).
    pub fn audit_every(&self) -> u64 {
        self.gate.audit_every
    }
}

/// How one top-K request was actually answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnnQuery {
    /// True when the f32 IVF fast path produced the list; false means the
    /// exact scorer ran (no index, disabled index, or an explicit exact
    /// request) — or the quantized path did (see [`Self::used_quant`]).
    pub used_ann: bool,
    /// True when the int8 quantized scorer produced the list (full-catalog
    /// quant scan or quantized IVF). Mutually exclusive with `used_ann`.
    pub used_quant: bool,
    /// Inverted lists probed (0 on any full-catalog path).
    pub probes: u32,
    /// Candidate items scored (catalog size on a full-catalog path).
    pub cands: u32,
}

/// Int8 quantized tables attached to one generation of serving tables,
/// together with their [`Gate`] (the sampled recall here is the quantized
/// ranking's *drift* from the f32 oracle). Frozen at table-build time like
/// [`AnnBuild`].
#[derive(Clone)]
pub struct QuantBuild {
    user_q: QuantRows,
    item_q: QuantRows,
    ivf: Option<QuantIvf>,
    nprobe: usize,
    gate: Gate,
}

impl QuantBuild {
    /// The quantized user table.
    pub fn user_rows(&self) -> &QuantRows {
        &self.user_q
    }

    /// The int8 IVF index, when the source also carries [`IvfParams`].
    pub fn ivf(&self) -> Option<&QuantIvf> {
        self.ivf.as_ref()
    }

    /// Build-time sampled recall@20 of the quantized ranking vs the f32
    /// oracle.
    pub fn build_drift(&self) -> f64 {
        self.gate.sampled
    }

    /// Whether the build-time drift cleared the configured floor. When
    /// false the tables answer every request through the f32 path.
    pub fn enabled(&self) -> bool {
        self.gate.enabled
    }

    /// Online self-audit cadence (every Nth quantized-served list is
    /// re-ranked through the f32 oracle; `0` = off).
    pub fn audit_every(&self) -> u64 {
        self.gate.audit_every
    }

    /// Resident bytes of the quantized embedding tables (weights +
    /// scales, both tables; the IVF payload is counted separately, like
    /// the f32 index).
    pub fn table_bytes(&self) -> usize {
        self.user_q.table_bytes() + self.item_q.table_bytes()
    }
}

/// Immutable, checkpoint-pinned serving state: embedding tables plus
/// seen-item lists, and (optionally) the IVF index over the item table.
#[derive(Clone)]
pub struct ModelTables {
    generation: u64,
    epoch: u64,
    log_offset: u64,
    finetunes: u64,
    fingerprint: u64,
    user_emb: Mat,
    item_emb: Mat,
    graph: InteractionGraph,
    ann: Option<AnnBuild>,
    quant: Option<QuantBuild>,
}

impl ModelTables {
    /// Builds tables from a decoded checkpoint: verifies the [`RunCompat`]
    /// header against the source, restores the model state, and runs the
    /// encoder forward exactly once ([`GraphAug::for_inference`]). When the
    /// source carries [`IvfParams`], the IVF index is built and
    /// recall-gated here too — table build happens off the request path, so
    /// reload cost absorbs index cost.
    ///
    /// `fingerprint` is the checkpoint's frame checksum — a caller that
    /// read the checkpoint file gets it free from
    /// `checkpoint::load_latest_valid_with_fingerprint` (re-deriving it
    /// from `state` via [`TrainState::fingerprint`] works too, at the
    /// cost of a full re-encode).
    pub fn build(
        source: &ModelSource,
        generation: u64,
        state: &TrainState,
        fingerprint: u64,
    ) -> Result<ModelTables, ServeError> {
        // Resolve the graph the checkpoint was actually trained on — for a
        // watermarked checkpoint that is the base graph plus a replay of
        // the interaction log up to `state.log_offset` — then verify the
        // compat header against *that* graph, not the base.
        let graph = source.graph_at(state.log_offset)?;
        state.compat.check(&source.compat_of(&graph))?;
        let model = GraphAug::for_inference(source.config.clone(), &graph, &state.model)?;
        let (user_emb, item_emb) = model.embeddings().expect("GraphAug always has embeddings");
        Ok(ModelTables {
            generation,
            epoch: state.epoch,
            log_offset: state.log_offset,
            finetunes: state.finetunes,
            fingerprint,
            user_emb: user_emb.clone(),
            item_emb: item_emb.clone(),
            graph,
            ann: None,
            quant: None,
        }
        .with_ann(source.ann.as_ref())
        .with_quant(source.quant.as_ref(), source.ann.as_ref()))
    }

    /// Builds tables directly from frozen embedding matrices, skipping the
    /// checkpoint decode and encoder forward. This is how the bench suite
    /// and large-scale tests get 100k-item catalogs without training a
    /// 100k-node model; serving proper always goes through [`Self::build`].
    pub fn from_embeddings(
        user_emb: Mat,
        item_emb: Mat,
        graph: InteractionGraph,
        generation: u64,
        ann: Option<&IvfParams>,
        quant: Option<&QuantParams>,
    ) -> ModelTables {
        ModelTables {
            generation,
            epoch: 0,
            log_offset: 0,
            finetunes: 0,
            fingerprint: 0,
            user_emb,
            item_emb,
            graph,
            ann: None,
            quant: None,
        }
        .with_ann(ann)
        .with_quant(quant, ann)
    }

    /// A copy of these tables under a new generation number, everything
    /// else untouched. This is the reload fast path for a checkpoint whose
    /// [`TrainState::fingerprint`] matches the serving tables': the state
    /// bytes are identical, so the expensive rebuild (decode, log replay,
    /// encoder forward, quantization, recall/drift gates) is provably a
    /// no-op and the engine only rebadges the generation.
    pub fn rebadged(&self, generation: u64) -> ModelTables {
        ModelTables {
            generation,
            ..self.clone()
        }
    }

    /// The gate estimate both tiers share: recall@[`GATE_K`] of `approx`
    /// against the exact f32 oracle ([`Self::top_k`]) over [`GATE_USERS`]
    /// users drawn from `StdRng::stream(seed, stream)`. `approx` must rank
    /// through the path that would *actually serve* — index and all.
    fn sampled_recall(
        &self,
        seed: u64,
        stream: u64,
        approx: impl Fn(u32) -> Vec<ScoredItem>,
    ) -> f64 {
        let mut rng = StdRng::stream(seed, stream);
        let (mut hits, mut total) = (0usize, 0usize);
        if self.n_users() > 0 {
            for _ in 0..GATE_USERS {
                let user = rng.bounded_u64(self.n_users() as u64) as u32;
                let exact = self.top_k(user, GATE_K).expect("probe user in range");
                hits += overlap(&approx(user), &exact);
                total += exact.len();
            }
        }
        if total == 0 {
            1.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Attaches (or skips) the IVF index: builds the quantizer over the
    /// frozen item table, then gates it. Below the floor the index is kept
    /// but **disabled** — serving falls back to exact and the engine
    /// reports the refusal — so a bad quantization can never silently
    /// degrade ranking quality.
    fn with_ann(mut self, params: Option<&IvfParams>) -> ModelTables {
        let Some(params) = params else { return self };
        if self.n_items() == 0 {
            return self;
        }
        let index = IvfIndex::build(&self.item_emb, params);
        let nprobe = params.effective_nprobe(index.nlists());
        let recall = self.sampled_recall(params.seed, 1, |user| {
            let query = self.user_emb.row(user as usize);
            self.top_k_probed(&index, nprobe, user, query, GATE_K).0
        });
        self.ann = Some(AnnBuild {
            index,
            nprobe,
            gate: Gate::new(recall, params.recall_floor, params.audit_every),
        });
        self
    }

    /// Freezes (or skips) the int8 tables: quantizes both embedding
    /// matrices, optionally packs the quantized IVF index (when the source
    /// also carries ANN geometry), then gates the result. Below the drift
    /// floor the quantized tables are kept but **disabled** — serving falls
    /// back to the f32 path and the engine reports the refusal — so
    /// quantization noise can never silently degrade ranking quality.
    fn with_quant(
        mut self,
        params: Option<&QuantParams>,
        ivf_params: Option<&IvfParams>,
    ) -> ModelTables {
        let Some(params) = params else { return self };
        if self.n_items() == 0 {
            return self;
        }
        let user_q = QuantRows::quantize(&self.user_emb);
        let item_q = QuantRows::quantize(&self.item_emb);
        let ivf = ivf_params.map(|p| QuantIvf::build(&item_q, p));
        let nprobe = match (&ivf, ivf_params) {
            (Some(ix), Some(p)) => p.effective_nprobe(ix.nlists()),
            _ => 0,
        };
        let gate = |sampled| Gate::new(sampled, params.drift_floor, params.audit_every);
        // Gate against the *actually served* path: probe through the same
        // build (IVF and all) that enabled serving would use, then stamp
        // the estimate on it.
        let mut qb = QuantBuild {
            user_q,
            item_q,
            ivf,
            nprobe,
            gate: gate(0.0),
        };
        qb.gate = gate(self.sampled_recall(DRIFT_SEED, 2, |user| {
            self.top_k_quant_with(&qb, user, GATE_K).0
        }));
        self.quant = Some(qb);
        self
    }

    /// Checkpoint generation these tables were built from.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Training epochs completed when the source checkpoint was written.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The source checkpoint's watermark: these tables serve the base
    /// graph plus interaction-log records `[0, log_offset)`.
    pub fn log_offset(&self) -> u64 {
        self.log_offset
    }

    /// Fine-tune rounds the source checkpoint had absorbed.
    pub fn finetunes(&self) -> u64 {
        self.finetunes
    }

    /// The source checkpoint's frame checksum ([`TrainState::fingerprint`]);
    /// `0` for tables built via [`Self::from_embeddings`]. Equal
    /// fingerprints mean byte-identical checkpoint files, which is what
    /// licenses the engine's skip-rebuild reload path.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The graph these tables were resolved against (base plus replayed
    /// deltas up to [`Self::log_offset`]) — the one [`Self::seen`] masks
    /// from.
    pub fn graph(&self) -> &InteractionGraph {
        &self.graph
    }

    /// Number of users the tables cover.
    pub fn n_users(&self) -> usize {
        self.user_emb.rows()
    }

    /// Number of items the tables cover.
    pub fn n_items(&self) -> usize {
        self.item_emb.rows()
    }

    /// Rejects a user id outside the tables.
    fn check_user(&self, user: u32) -> Result<(), ServeError> {
        if (user as usize) < self.n_users() {
            return Ok(());
        }
        Err(ServeError::UnknownUser {
            user,
            n_users: self.n_users(),
        })
    }

    /// Items `user` already interacted with in the training graph (these
    /// are filtered out of every recommendation, mirroring the eval
    /// harness's train-item masking).
    pub fn seen(&self, user: u32) -> &[u32] {
        self.graph.items_of(user as usize)
    }

    /// Top-`k` unseen items for `user`, ranked by dot-product score with
    /// ties broken toward the lower item id.
    ///
    /// This is, step for step, the offline evaluation ranking: the scores
    /// come from the `Recommender::score_items` default implementation
    /// (the same summation order the eval harness uses), seen items are
    /// masked to `-inf` exactly like train-item masking, and the selection
    /// is the shared bounded-heap [`topk_indices`]. Served output is
    /// therefore bit-identical to `graphaug-eval` for the same checkpoint.
    pub fn top_k(&self, user: u32, k: usize) -> Result<Vec<ScoredItem>, ServeError> {
        self.check_user(user)?;
        Ok(self.rank_unseen(user, self.score_items(user as usize), k))
    }

    /// The full-scan selection every scorer shares: masks `user`'s seen
    /// items to `-inf` in the dense `scores` and keeps the top `k`.
    fn rank_unseen(&self, user: u32, mut scores: Vec<f32>, k: usize) -> Vec<ScoredItem> {
        for &v in self.seen(user) {
            scores[v as usize] = f32::NEG_INFINITY;
        }
        topk_indices(&scores, k)
            .into_iter()
            .map(|item| ScoredItem {
                item,
                score: scores[item as usize],
            })
            .collect()
    }

    /// Top-`k` for `user` through the IVF fast path when an enabled index
    /// is attached, else through the exact scorer. Also reports how the
    /// request was answered (for the engine's counters and self-audit).
    ///
    /// The fast path preserves the exact path's semantics item-for-item
    /// (see [`Ivf::search`]): candidates are scored in the `score_items`
    /// summation order, seen items stay *in* the candidate set masked to
    /// `-inf`, and the selection shares [`topk_indices`]'s tie-break. With
    /// `nprobe = nlists` every item is a candidate exactly once and the
    /// output is hex-identical to [`Self::top_k`].
    pub fn top_k_ann(
        &self,
        user: u32,
        k: usize,
    ) -> Result<(Vec<ScoredItem>, AnnQuery), ServeError> {
        self.check_user(user)?;
        match &self.ann {
            Some(ann) if ann.gate.enabled => {
                let query = self.user_emb.row(user as usize);
                let (top, cands) = self.top_k_probed(&ann.index, ann.nprobe, user, query, k);
                Ok((
                    top,
                    AnnQuery {
                        used_ann: true,
                        used_quant: false,
                        probes: ann.nprobe as u32,
                        cands,
                    },
                ))
            }
            _ => Ok((
                self.top_k(user, k)?,
                AnnQuery {
                    used_ann: false,
                    used_quant: false,
                    probes: 0,
                    cands: self.n_items() as u32,
                },
            )),
        }
    }

    /// Top-`k` over the items in `user`'s `nprobe` best inverted lists of
    /// `index` (probed with the f32 user row, scored against `query` — the
    /// same user in the index's representation), plus the candidate count.
    fn top_k_probed<'a, R: IvfRows>(
        &self,
        index: &'a Ivf<R>,
        nprobe: usize,
        user: u32,
        query: R::Query<'a>,
        k: usize,
    ) -> (Vec<ScoredItem>, u32) {
        let urow = self.user_emb.row(user as usize);
        let (top, cands) = index.search(urow, nprobe, query, self.seen(user), k);
        let top = top
            .into_iter()
            .map(|(item, score)| ScoredItem { item, score })
            .collect();
        (top, cands)
    }

    /// Top-`k` for `user` through the quantized path when enabled tables
    /// are attached, else through [`Self::top_k_ann`] (which itself falls
    /// back to exact). Also reports how the request was answered.
    ///
    /// The quantized path mirrors the f32 paths structurally: the full
    /// scan is [`QuantRows`]'s `scores_into` over the whole item table +
    /// seen-mask + [`topk_indices`]; the IVF scan is the same
    /// [`Ivf::search`] the f32 tier runs, over packed int8 rows. Both
    /// compute identical per-item scores, so quant-IVF at
    /// `nprobe = nlists` is hex-identical to the quant full scan — and a
    /// disabled gate serves f32 bits indistinguishable from `RECX`.
    pub fn top_k_quant(
        &self,
        user: u32,
        k: usize,
    ) -> Result<(Vec<ScoredItem>, AnnQuery), ServeError> {
        self.check_user(user)?;
        match &self.quant {
            Some(qb) if qb.gate.enabled => Ok(self.top_k_quant_with(qb, user, k)),
            _ => self.top_k_ann(user, k),
        }
    }

    /// The quantized ranking for `user` through an explicit [`QuantBuild`]
    /// (used both for live serving and for the build-time drift probe,
    /// where the build is not attached yet).
    fn top_k_quant_with(
        &self,
        qb: &QuantBuild,
        user: u32,
        k: usize,
    ) -> (Vec<ScoredItem>, AnnQuery) {
        let query = (qb.user_q.row(user as usize), qb.user_q.scale(user as usize));
        let (top, probes, cands) = match &qb.ivf {
            Some(ivf) => {
                let (top, cands) = self.top_k_probed(ivf, qb.nprobe, user, query, k);
                (top, qb.nprobe as u32, cands)
            }
            None => {
                let mut scores = Vec::new();
                qb.item_q.scores_into(0, self.n_items(), query, &mut scores);
                (self.rank_unseen(user, scores, k), 0, self.n_items() as u32)
            }
        };
        let how = AnnQuery {
            used_ann: false,
            used_quant: true,
            probes,
            cands,
        };
        (top, how)
    }

    /// The IVF index build attached to these tables, if the source asked
    /// for one (disabled builds are still reported — the engine surfaces
    /// the refusal in `STATS`).
    pub fn ann(&self) -> Option<&AnnBuild> {
        self.ann.as_ref()
    }

    /// The quantized table build attached to these tables, if the source
    /// asked for one (disabled builds are still reported — the engine
    /// surfaces the refusal in `STATS`).
    pub fn quant(&self) -> Option<&QuantBuild> {
        self.quant.as_ref()
    }

    /// Resident bytes of the f32 embedding tables (users + items, 4 bytes
    /// per weight; index payloads are counted separately).
    pub fn table_bytes_f32(&self) -> usize {
        (self.user_emb.rows() * self.user_emb.cols() + self.item_emb.rows() * self.item_emb.cols())
            * 4
    }

    /// Resident bytes of the embedding representation the default (`REC`)
    /// path scores from: the int8 tables when quantized serving is
    /// enabled, the f32 tables otherwise. This is the `table_bytes` that
    /// `STATS` reports — the observable for the ~4× quantization shrink.
    pub fn table_bytes(&self) -> usize {
        match &self.quant {
            Some(qb) if qb.gate.enabled => qb.table_bytes(),
            _ => self.table_bytes_f32(),
        }
    }
}

impl Recommender for ModelTables {
    fn name(&self) -> &str {
        "graphaug-serve"
    }

    fn embeddings(&self) -> Option<(&Mat, &Mat)> {
        Some((&self.user_emb, &self.item_emb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphaug_data::{generate, SyntheticConfig};
    use graphaug_graph::TripletSampler;

    fn source_with_state() -> (ModelSource, TrainState) {
        let graph = generate(&SyntheticConfig::new(50, 40, 500).clusters(3).seed(4));
        let cfg = GraphAugConfig::fast_test();
        let mut model = GraphAug::new(cfg.clone(), &graph);
        let mut sampler = TripletSampler::new(&graph, cfg.seed.wrapping_add(101));
        for _ in 0..4 {
            model.train_step(&mut sampler);
        }
        model.refresh_embeddings();
        let compat = ModelSource::new(cfg.clone(), graph.clone(), Path::new("/unused")).compat();
        let state = TrainState {
            compat,
            epoch: 1,
            lr_scale: 1.0,
            consecutive_bad: 0,
            attempt: 4,
            step_in_epoch: 0,
            log_offset: 0,
            finetunes: 0,
            loss_window: Vec::new(),
            model: model.training_state(),
            sampler: sampler.state(),
        };
        (ModelSource::new(cfg, graph, Path::new("/unused")), state)
    }

    #[test]
    fn build_verifies_compat() {
        let (source, state) = source_with_state();
        let tables = ModelTables::build(&source, 7, &state, state.fingerprint()).unwrap();
        assert_eq!(tables.generation(), 7);
        assert_eq!(tables.n_users(), 50);
        assert_eq!(tables.n_items(), 40);

        let mut wrong = source.clone();
        wrong.config.seed += 1;
        match ModelTables::build(&wrong, 7, &state, state.fingerprint()) {
            Err(ServeError::Snapshot(SnapshotError::Incompatible(_))) => {}
            Err(other) => panic!("expected Incompatible, got {other:?}"),
            Ok(_) => panic!("expected Incompatible, got Ok"),
        }
    }

    #[test]
    fn top_k_filters_seen_items_and_ranks_descending() {
        let (source, state) = source_with_state();
        let tables = ModelTables::build(&source, 0, &state, state.fingerprint()).unwrap();
        for user in [0u32, 7, 49] {
            let top = tables.top_k(user, 10).unwrap();
            assert_eq!(top.len(), 10);
            for w in top.windows(2) {
                assert!(w[0].score >= w[1].score, "ranked descending");
            }
            for s in &top {
                assert!(
                    tables.seen(user).binary_search(&s.item).is_err(),
                    "seen item {} served to user {user}",
                    s.item
                );
            }
        }
    }

    #[test]
    fn top_k_rejects_out_of_range_users() {
        let (source, state) = source_with_state();
        let tables = ModelTables::build(&source, 0, &state, state.fingerprint()).unwrap();
        assert!(matches!(
            tables.top_k(50, 5),
            Err(ServeError::UnknownUser { user: 50, .. })
        ));
    }

    #[test]
    fn full_probe_ann_is_hex_identical_to_exact() {
        let (mut source, state) = source_with_state();
        // nprobe = nlists: every item is a candidate exactly once, so the
        // IVF path must reproduce the dense ranking bit-for-bit — scores
        // and tie-breaks included.
        source.ann = Some(IvfParams::new().nlists(6).nprobe(6));
        let tables = ModelTables::build(&source, 0, &state, state.fingerprint()).unwrap();
        assert!(tables.ann().unwrap().enabled(), "full probe recall is 1.0");
        for user in [0u32, 13, 49] {
            for k in [1usize, 5, 20, 10_000] {
                let exact = tables.top_k(user, k).unwrap();
                let (approx, how) = tables.top_k_ann(user, k).unwrap();
                assert!(how.used_ann);
                assert_eq!(how.cands as usize, tables.n_items());
                assert_eq!(exact.len(), approx.len(), "user={user} k={k}");
                for (e, a) in exact.iter().zip(&approx) {
                    assert_eq!(e.item, a.item, "user={user} k={k}");
                    assert_eq!(
                        e.score.to_bits(),
                        a.score.to_bits(),
                        "user={user} k={k} item={}",
                        e.item
                    );
                }
            }
        }
    }

    #[test]
    fn narrow_probe_scores_fewer_candidates() {
        let (mut source, state) = source_with_state();
        source.ann = Some(IvfParams::new().nlists(8).nprobe(2).recall_floor(0.0));
        let tables = ModelTables::build(&source, 0, &state, state.fingerprint()).unwrap();
        let (_, how) = tables.top_k_ann(3, 5).unwrap();
        assert!(how.used_ann);
        assert_eq!(how.probes, 2);
        assert!(
            (how.cands as usize) < tables.n_items(),
            "2/8 lists probed must not cover the catalog ({} of {})",
            how.cands,
            tables.n_items()
        );
    }

    #[test]
    fn recall_gate_disables_ann_below_floor() {
        let (mut source, state) = source_with_state();
        // A floor above 1.0 is unsatisfiable: the build must keep the index
        // but refuse to serve through it.
        source.ann = Some(IvfParams::new().nlists(8).nprobe(1).recall_floor(1.1));
        let tables = ModelTables::build(&source, 0, &state, state.fingerprint()).unwrap();
        let ann = tables.ann().unwrap();
        assert!(!ann.enabled());
        assert!(ann.build_recall() <= 1.0);
        // Requests fall back to the exact path, loudly flagged as such.
        let (top, how) = tables.top_k_ann(7, 10).unwrap();
        assert!(!how.used_ann);
        assert_eq!(how.cands as usize, tables.n_items());
        assert_eq!(top, tables.top_k(7, 10).unwrap());
    }

    #[test]
    fn gate_enables_at_the_floor_and_never_above_one() {
        // `>=`: an estimate exactly at the floor serves.
        let at = Gate::new(0.9, 0.9, 7);
        assert!(at.enabled);
        assert_eq!(at.sampled, 0.9);
        assert_eq!(at.audit_every, 7, "cadence travels with the gate");
        assert!(!Gate::new(0.9 - f64::EPSILON, 0.9, 7).enabled);
        // No estimate reaches an unsatisfiable floor, a perfect one included
        // — and the refused tier keeps its cadence for `STATS`.
        let refused = Gate::new(1.0, 1.1, 7);
        assert!(!refused.enabled);
        assert_eq!(refused.audit_every, 7);

        // The same boundary through a build: a floor set to the measured
        // recall itself still serves.
        let (mut source, state) = source_with_state();
        let narrow = IvfParams::new().nlists(8).nprobe(1).audit_every(7);
        source.ann = Some(narrow.clone().recall_floor(0.0));
        let tables = ModelTables::build(&source, 0, &state, state.fingerprint()).unwrap();
        let recall = tables.ann().unwrap().build_recall();
        source.ann = Some(narrow.recall_floor(recall));
        let tables = ModelTables::build(&source, 0, &state, state.fingerprint()).unwrap();
        let ann = tables.ann().unwrap();
        assert_eq!(ann.build_recall().to_bits(), recall.to_bits());
        assert!(ann.enabled());
        assert_eq!(ann.audit_every(), 7);
    }

    #[test]
    fn from_embeddings_serves_without_a_checkpoint() {
        let (source, state) = source_with_state();
        let built = ModelTables::build(&source, 3, &state, state.fingerprint()).unwrap();
        let direct = ModelTables::from_embeddings(
            built.user_emb.clone(),
            built.item_emb.clone(),
            source.graph.clone(),
            3,
            Some(&IvfParams::new().nlists(6).nprobe(6)),
            None,
        );
        assert_eq!(direct.generation(), 3);
        for user in [0u32, 21] {
            let (a, _) = direct.top_k_ann(user, 10).unwrap();
            assert_eq!(a, built.top_k(user, 10).unwrap());
        }
    }

    #[test]
    fn top_k_clamps_k_to_unseen_catalog() {
        let (source, state) = source_with_state();
        let tables = ModelTables::build(&source, 0, &state, state.fingerprint()).unwrap();
        let top = tables.top_k(0, 10_000).unwrap();
        // All items come back, seen ones last (masked to -inf) — but never
        // more than the catalog.
        assert_eq!(top.len(), tables.n_items());
        assert!(tables.top_k(0, 0).unwrap().is_empty());
    }
}
