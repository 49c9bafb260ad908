//! Training-state serialization and the on-disk checkpoint store.
//!
//! A [`TrainState`] is everything needed to resume a [`crate::Runtime`] run
//! with a bit-identical loss trajectory: a compatibility header tying the
//! checkpoint to its run, the epoch cursor and recovery bookkeeping, the
//! model's [`ModelState`] (parameters + Adam moments + RNG stream + step
//! counter), and the triplet sampler's [`SamplerState`]. It also carries
//! what the generation *serves* ([`ServedTables`]): the final embedding
//! tables and the training graph at the watermark, so a reader needs
//! neither the model nor the interaction log to use it.
//!
//! The [`Checkpointer`] writes atomically (temp file + rename, never
//! overwriting in place), keeps the last two generations, and on load walks
//! generations newest-first, falling back past any corrupt file — a torn
//! write of generation N must never cost you generation N−1.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphaug_core::ModelState;
use graphaug_graph::{InteractionGraph, SamplerState};
use graphaug_tensor::{Mat, ParamState, ParamStoreState};

use crate::snapshot::{frame, unframe, ByteReader, ByteWriter, SnapshotError};

/// Identity of a training run. A checkpoint written for one run must not be
/// restored into another: the graph shape decides every parameter shape, and
/// the seed decides every RNG stream, so a mismatch can only produce silent
/// nonsense.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunCompat {
    /// Users in the training graph.
    pub n_users: u64,
    /// Items in the training graph.
    pub n_items: u64,
    /// Interactions in the training graph.
    pub n_edges: u64,
    /// The model's RNG seed.
    pub seed: u64,
    /// Embedding dimensionality.
    pub embed_dim: u64,
}

impl RunCompat {
    /// Checks this header against the run attempting to restore it.
    pub fn check(&self, other: &RunCompat) -> Result<(), SnapshotError> {
        if self == other {
            return Ok(());
        }
        Err(SnapshotError::Incompatible(format!(
            "checkpoint {self:?} vs run {other:?}"
        )))
    }
}

/// What one generation serves: `Ĥ = GE(G)` from the epoch-boundary
/// refresh that precedes every checkpoint write, split into user and item
/// tables, and the training graph at the checkpoint's watermark (the
/// seen-item lists a server masks, and the graph a fine-tuner resumes on).
#[derive(Clone, Debug)]
pub struct ServedTables {
    /// Final user embeddings, `n_users × embed_dim`.
    pub user_emb: Mat,
    /// Final item embeddings, `n_items × embed_dim`.
    pub item_emb: Mat,
    /// The training graph the tables were computed over.
    pub graph: InteractionGraph,
}

impl ServedTables {
    /// Encoded size of this section in a checkpoint payload.
    pub fn section_bytes(&self) -> usize {
        let table = |m: &Mat| 16 + 4 * m.as_slice().len();
        table(&self.user_emb) + table(&self.item_emb) + 8 + 8 * self.graph.n_interactions()
    }
}

/// Complete resumable state of a training run.
#[derive(Clone, Debug)]
pub struct TrainState {
    /// Which run this checkpoint belongs to.
    pub compat: RunCompat,
    /// Epochs fully completed (the next epoch to execute).
    pub epoch: u64,
    /// Current learning-rate multiplier (shrunk by rollback backoff).
    pub lr_scale: f32,
    /// Consecutive diverged steps seen so far (rollback trigger counter).
    pub consecutive_bad: u32,
    /// Monotonic step-attempt counter (drives fault injection; unlike the
    /// model's `steps_taken` it also counts withheld/rolled-back steps and
    /// never rewinds).
    pub attempt: u64,
    /// Steps already executed inside the *current* epoch — `0` at every
    /// epoch boundary. Non-zero only for checkpoints cut mid-epoch by a
    /// step-budgeted driver ([`crate::Runtime::run_steps`]), which resume
    /// at exactly this step with the saved sampler stream.
    pub step_in_epoch: u64,
    /// Interaction-log watermark: this model state was trained on the base
    /// graph plus log records `[0, log_offset)`. `0` for offline runs.
    pub log_offset: u64,
    /// Warm-start fine-tune rounds applied on top of the base run.
    pub finetunes: u64,
    /// Rolling window of recent finite losses (spike detection context).
    pub loss_window: Vec<f32>,
    /// Model parameters, Adam moments, RNG stream, step counter.
    pub model: ModelState,
    /// Triplet sampler stream state.
    pub sampler: SamplerState,
    /// What this generation serves. Shared, so a rollback copy of the
    /// state clones a pointer, not the tables.
    pub served: Arc<ServedTables>,
}

fn put_mat(w: &mut ByteWriter, m: &Mat) {
    w.put_u64(m.rows() as u64);
    w.put_u64(m.cols() as u64);
    w.put_f32s(m.as_slice());
}

/// Reads a matrix, refusing a shape other than `want` (when given) before
/// reading its data.
fn get_mat(r: &mut ByteReader<'_>, want: Option<(u64, u64)>) -> Result<Mat, SnapshotError> {
    let (rows, cols) = (r.get_u64()?, r.get_u64()?);
    if let Some((wr, wc)) = want.filter(|&w| w != (rows, cols)) {
        return Err(SnapshotError::Malformed(format!(
            "table is {rows}x{cols}, the header says {wr}x{wc}"
        )));
    }
    let n = (rows as usize)
        .checked_mul(cols as usize)
        .ok_or_else(|| SnapshotError::Malformed(format!("matrix shape {rows}x{cols} overflows")))?;
    Ok(Mat::from_vec(rows as usize, cols as usize, r.get_f32s(n)?))
}

fn put_served(w: &mut ByteWriter, served: &ServedTables) {
    put_mat(w, &served.user_emb);
    put_mat(w, &served.item_emb);
    let edges = served.graph.edges();
    w.put_u64(edges.len() as u64);
    for &(u, v) in edges {
        w.put_u32(u);
        w.put_u32(v);
    }
}

/// Reads the served section and ties it to the frame's own header: table
/// shapes are `n_users` / `n_items` × `embed_dim`, the edge list has
/// `n_edges` strictly ascending pairs with ids in range. Every violation is
/// [`SnapshotError::Malformed`], found before anything is allocated from
/// an unchecked length.
fn get_served(r: &mut ByteReader<'_>, compat: &RunCompat) -> Result<ServedTables, SnapshotError> {
    // A zero width would let a table of any row count take zero bytes, and
    // the graph allocates per user.
    if compat.embed_dim == 0 {
        return Err(SnapshotError::Malformed("embed_dim 0".into()));
    }
    let user_emb = get_mat(r, Some((compat.n_users, compat.embed_dim)))?;
    let item_emb = get_mat(r, Some((compat.n_items, compat.embed_dim)))?;
    let n_edges = r.get_u64()?;
    if n_edges > (r.remaining() / 8) as u64 {
        return Err(SnapshotError::Malformed(format!(
            "served graph claims {n_edges} edges but only {} bytes remain",
            r.remaining()
        )));
    }
    if n_edges != compat.n_edges {
        return Err(SnapshotError::Malformed(format!(
            "served graph has {n_edges} edges, the header says {}",
            compat.n_edges
        )));
    }
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n_edges as usize);
    for _ in 0..n_edges {
        let edge = (r.get_u32()?, r.get_u32()?);
        if edge.0 as u64 >= compat.n_users || edge.1 as u64 >= compat.n_items {
            return Err(SnapshotError::Malformed(format!(
                "served edge {edge:?} outside {} users x {} items",
                compat.n_users, compat.n_items
            )));
        }
        if edges.last().is_some_and(|&prev| prev >= edge) {
            return Err(SnapshotError::Malformed(format!(
                "served edges not strictly ascending at {edge:?}"
            )));
        }
        edges.push(edge);
    }
    let graph = InteractionGraph::new(compat.n_users as usize, compat.n_items as usize, edges);
    Ok(ServedTables {
        user_emb,
        item_emb,
        graph,
    })
}

impl TrainState {
    /// Encodes into a framed, checksummed snapshot (see [`crate::snapshot`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.compat.n_users);
        w.put_u64(self.compat.n_items);
        w.put_u64(self.compat.n_edges);
        w.put_u64(self.compat.seed);
        w.put_u64(self.compat.embed_dim);
        w.put_u64(self.epoch);
        w.put_f32(self.lr_scale);
        w.put_u32(self.consecutive_bad);
        w.put_u64(self.attempt);
        w.put_u64(self.step_in_epoch);
        w.put_u64(self.log_offset);
        w.put_u64(self.finetunes);
        w.put_f32_slice(&self.loss_window);
        // Model.
        w.put_u64(self.model.params.t);
        w.put_u64(self.model.params.slots.len() as u64);
        for slot in &self.model.params.slots {
            put_mat(&mut w, &slot.value);
            put_mat(&mut w, &slot.m);
            put_mat(&mut w, &slot.v);
        }
        w.put_rng(self.model.rng);
        w.put_u64(self.model.steps_taken);
        w.put_u8(self.model.trained as u8);
        // Sampler.
        w.put_u64(self.sampler.seed);
        w.put_u64(self.sampler.next_stream);
        w.put_rng(self.sampler.rng);
        put_served(&mut w, &self.served);
        frame(&w.into_bytes())
    }

    /// Decodes a framed snapshot, validating the checksum and structure.
    pub fn from_bytes(bytes: &[u8]) -> Result<TrainState, SnapshotError> {
        let payload = unframe(bytes)?;
        let mut r = ByteReader::new(payload);
        let compat = RunCompat {
            n_users: r.get_u64()?,
            n_items: r.get_u64()?,
            n_edges: r.get_u64()?,
            seed: r.get_u64()?,
            embed_dim: r.get_u64()?,
        };
        let epoch = r.get_u64()?;
        let lr_scale = r.get_f32()?;
        let consecutive_bad = r.get_u32()?;
        let attempt = r.get_u64()?;
        let step_in_epoch = r.get_u64()?;
        let log_offset = r.get_u64()?;
        let finetunes = r.get_u64()?;
        let loss_window = r.get_f32_vec()?;
        let t = r.get_u64()?;
        let n_slots = r.get_u64()? as usize;
        if n_slots > 1 << 20 {
            return Err(SnapshotError::Malformed(format!(
                "implausible slot count {n_slots}"
            )));
        }
        let mut slots = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            let value = get_mat(&mut r, None)?;
            let m = get_mat(&mut r, None)?;
            let v = get_mat(&mut r, None)?;
            slots.push(ParamState { value, m, v });
        }
        let model = ModelState {
            params: ParamStoreState { t, slots },
            rng: r.get_rng()?,
            steps_taken: r.get_u64()?,
            trained: r.get_u8()? != 0,
        };
        let sampler = SamplerState {
            seed: r.get_u64()?,
            next_stream: r.get_u64()?,
            rng: r.get_rng()?,
        };
        let served = Arc::new(get_served(&mut r, &compat)?);
        r.finish()?;
        Ok(TrainState {
            compat,
            epoch,
            lr_scale,
            consecutive_bad,
            attempt,
            step_in_epoch,
            log_offset,
            finetunes,
            loss_window,
            model,
            sampler,
            served,
        })
    }

    /// A content fingerprint: the FNV-1a-64 checksum the frame header
    /// would carry for this state — two states fingerprint equal iff
    /// their checkpoint files are byte-identical. The hot-reload watcher
    /// compares fingerprints to skip rebuilding (re-encoding,
    /// re-quantizing, re-gating) tables for a generation whose bytes did
    /// not change.
    ///
    /// This re-encodes the whole state to compute the checksum — O(state
    /// size). A caller holding the encoded frame (anything that just read
    /// a checkpoint file) should use [`frame_fingerprint`] or
    /// [`load_latest_valid_with_fingerprint`] instead, which read the
    /// same value straight off the header.
    pub fn fingerprint(&self) -> u64 {
        let framed = self.to_bytes();
        frame_fingerprint(&framed).expect("frame header")
    }
}

/// Reads the fingerprint (the frame checksum, bytes `[20..28]` of the
/// header) straight off an encoded snapshot without decoding — the cheap
/// counterpart of [`TrainState::fingerprint`]. Returns `None` for a slice
/// too short to carry a frame header. The value is only meaningful for
/// bytes that decode cleanly: a state decoded from these bytes
/// fingerprints equal to this header field by construction.
pub fn frame_fingerprint(bytes: &[u8]) -> Option<u64> {
    bytes
        .get(20..28)
        .map(|b| u64::from_le_bytes(b.try_into().expect("eight bytes")))
}

/// Generational checkpoint store over one directory.
///
/// Files are named `ckpt-<generation>.bin`; writes go through
/// `ckpt-<generation>.bin.tmp` and a rename so a crash mid-write leaves at
/// worst a stale `.tmp` (swept on the next startup) and never a truncated
/// live checkpoint under the real name.
pub struct Checkpointer {
    dir: PathBuf,
    next_gen: u64,
    /// How many generations to retain (at least 1; default 2 so one corrupt
    /// write can always fall back).
    keep: usize,
}

impl Checkpointer {
    /// Opens (creating if needed) a checkpoint directory, sweeps stray
    /// `.tmp` files from interrupted writes, and positions the next
    /// generation after the newest existing checkpoint.
    pub fn new(dir: &Path) -> Result<Checkpointer, SnapshotError> {
        fs::create_dir_all(dir).map_err(|e| SnapshotError::Io(e.to_string()))?;
        let mut max_gen = None;
        for entry in fs::read_dir(dir).map_err(|e| SnapshotError::Io(e.to_string()))? {
            let entry = entry.map_err(|e| SnapshotError::Io(e.to_string()))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tmp") {
                // Torn write from a killed process: unfinished by definition.
                let _ = fs::remove_file(entry.path());
                continue;
            }
            if let Some(g) = parse_generation(&name) {
                max_gen = Some(max_gen.map_or(g, |m: u64| m.max(g)));
            }
        }
        Ok(Checkpointer {
            dir: dir.to_path_buf(),
            next_gen: max_gen.map_or(0, |g| g + 1),
            keep: 2,
        })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of a specific generation's checkpoint file.
    pub fn path_for(&self, generation: u64) -> PathBuf {
        generation_path(&self.dir, generation)
    }

    /// Atomically writes a checkpoint as the next generation and prunes
    /// generations beyond the retention count. Returns the live path.
    pub fn write(&mut self, state: &TrainState) -> Result<PathBuf, SnapshotError> {
        let generation = self.next_gen;
        let live = self.path_for(generation);
        let tmp = live.with_extension("bin.tmp");
        fs::write(&tmp, state.to_bytes()).map_err(|e| SnapshotError::Io(e.to_string()))?;
        fs::rename(&tmp, &live).map_err(|e| SnapshotError::Io(e.to_string()))?;
        self.next_gen += 1;
        self.prune();
        Ok(live)
    }

    fn prune(&self) {
        let mut gens = self.generations();
        gens.sort_unstable_by(|a, b| b.cmp(a));
        for &g in gens.iter().skip(self.keep) {
            let _ = fs::remove_file(self.path_for(g));
        }
    }

    /// Existing checkpoint generations, sorted ascending.
    pub fn generations(&self) -> Vec<u64> {
        list_generations(&self.dir)
    }

    /// Loads the newest checkpoint that decodes cleanly, walking past any
    /// corrupt generations. Returns the generation alongside the state, or
    /// `None` when no valid checkpoint exists.
    pub fn latest_valid(&self) -> Option<(u64, TrainState)> {
        load_latest_valid(&self.dir)
    }

    /// Loads one checkpoint file strictly — every corruption mode surfaces
    /// as its typed [`SnapshotError`].
    pub fn load(path: &Path) -> Result<TrainState, SnapshotError> {
        let bytes = fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        TrainState::from_bytes(&bytes)
    }
}

fn parse_generation(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

// ---------------------------------------------------------------------------
// Read-only checkpoint access
// ---------------------------------------------------------------------------
//
// The [`Checkpointer`] is the *writer's* handle: opening one creates the
// directory and sweeps stray `.tmp` files — exactly wrong for a consumer
// (the serving engine, an inspector) watching a directory that a live
// trainer may be writing into at the same moment. These free functions
// never create, sweep, or delete anything.

/// Path of a specific generation's checkpoint file under `dir`.
pub fn generation_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("ckpt-{generation:08}.bin"))
}

/// Checkpoint generations present in `dir`, sorted ascending. Purely a
/// directory listing — no file contents are touched, so this is cheap
/// enough for a reload watcher to poll.
pub fn list_generations(dir: &Path) -> Vec<u64> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut gens: Vec<u64> = entries
        .flatten()
        .filter_map(|e| parse_generation(&e.file_name().to_string_lossy()))
        .collect();
    gens.sort_unstable();
    gens
}

/// Newest generation number present in `dir` (validity not checked) —
/// the cheap poll a hot-reload watcher uses to decide whether a full
/// decode is worth attempting.
pub fn newest_generation(dir: &Path) -> Option<u64> {
    list_generations(dir).into_iter().next_back()
}

/// Loads the newest checkpoint in `dir` that decodes cleanly, walking past
/// corrupt generations — the read-only counterpart of
/// [`Checkpointer::latest_valid`].
pub fn load_latest_valid(dir: &Path) -> Option<(u64, TrainState)> {
    load_latest_valid_with_fingerprint(dir).map(|(g, state, _)| (g, state))
}

/// [`load_latest_valid`], additionally returning the checkpoint's
/// fingerprint read off the validated frame header — free, where
/// [`TrainState::fingerprint`] would re-encode the whole state. This is
/// the loader for anything that compares or reports fingerprints (the
/// serving hot-reload watcher, `ingestd`'s `FINETUNE` lines).
pub fn load_latest_valid_with_fingerprint(dir: &Path) -> Option<(u64, TrainState, u64)> {
    for g in list_generations(dir).into_iter().rev() {
        if let Ok(bytes) = fs::read(generation_path(dir, g)) {
            if let Ok(state) = TrainState::from_bytes(&bytes) {
                let fingerprint = frame_fingerprint(&bytes).expect("decoded frame has a header");
                return Some((g, state, fingerprint));
            }
        }
    }
    None
}

/// Decoded header facts of one valid checkpoint (see [`inspect_dir`]).
#[derive(Clone, Debug)]
pub struct CheckpointSummary {
    /// Snapshot format version from the frame header.
    pub format_version: u32,
    /// Which run the checkpoint belongs to.
    pub compat: RunCompat,
    /// Epochs completed when it was written.
    pub epoch: u64,
    /// Optimization steps taken by the model when it was written.
    pub steps_taken: u64,
    /// What the generation serves.
    pub served: Arc<ServedTables>,
}

/// One checkpoint file's inspection record.
#[derive(Debug)]
pub struct CheckpointInfo {
    /// Generation parsed from the file name.
    pub generation: u64,
    /// Full path of the file.
    pub path: PathBuf,
    /// File size in bytes (0 when unreadable).
    pub bytes: u64,
    /// Decoded summary, or the typed error explaining why the file is
    /// unusable (bad magic, truncation, checksum mismatch, …).
    pub status: Result<CheckpointSummary, SnapshotError>,
}

/// Inspects every checkpoint generation in `dir`, newest first — the
/// debugging view behind the `ckpt_inspect` binary. Each file is fully
/// decoded, so checksum and structural problems surface as their typed
/// [`SnapshotError`] instead of being silently skipped.
pub fn inspect_dir(dir: &Path) -> Vec<CheckpointInfo> {
    let mut out = Vec::new();
    for g in list_generations(dir).into_iter().rev() {
        let path = generation_path(dir, g);
        let (bytes, status) = match fs::read(&path) {
            Ok(raw) => {
                let status = TrainState::from_bytes(&raw).map(|state| CheckpointSummary {
                    // `from_bytes` only accepts the current version, so the
                    // header bytes it validated are authoritative here.
                    format_version: u32::from_le_bytes(
                        raw[8..12].try_into().expect("frame validated"),
                    ),
                    compat: state.compat,
                    epoch: state.epoch,
                    steps_taken: state.model.steps_taken,
                    served: state.served,
                });
                (raw.len() as u64, status)
            }
            Err(e) => (0, Err(SnapshotError::Io(e.to_string()))),
        };
        out.push(CheckpointInfo {
            generation: g,
            path,
            bytes,
            status,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Runtime, RuntimeConfig};
    use crate::snapshot::FORMAT_VERSION;
    use graphaug_core::GraphAugConfig;
    use graphaug_data::{generate, SyntheticConfig};

    fn state() -> TrainState {
        let graph = generate(&SyntheticConfig::new(30, 20, 200).seed(3));
        let cfg = RuntimeConfig::new(GraphAugConfig::fast_test());
        Runtime::new(cfg, &graph).unwrap().current_state()
    }

    /// The payload of `state`'s frame and the offset its served section
    /// starts at.
    fn payload(state: &TrainState) -> (Vec<u8>, usize) {
        let payload = unframe(&state.to_bytes()).unwrap().to_vec();
        let start = payload.len() - state.served.section_bytes();
        (payload, start)
    }

    fn decode(payload: &[u8]) -> Result<TrainState, SnapshotError> {
        TrainState::from_bytes(&frame(payload))
    }

    fn assert_malformed(got: Result<TrainState, SnapshotError>, what: &str) {
        match got {
            Err(SnapshotError::Malformed(_)) => {}
            Err(e) => panic!("{what}: expected Malformed, got {e:?}"),
            Ok(_) => panic!("{what}: expected Malformed, got a state"),
        }
    }

    fn put_u64_at(payload: &mut [u8], at: usize, v: u64) {
        payload[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    #[test]
    fn the_served_section_round_trips_bit_exactly() {
        let state = state();
        let back = TrainState::from_bytes(&state.to_bytes()).unwrap();
        let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.served.user_emb), bits(&state.served.user_emb));
        assert_eq!(bits(&back.served.item_emb), bits(&state.served.item_emb));
        assert_eq!(back.served.graph.edges(), state.served.graph.edges());
        assert_eq!(back.to_bytes(), state.to_bytes());

        let mut w = ByteWriter::new();
        put_served(&mut w, &state.served);
        assert_eq!(w.into_bytes().len(), state.served.section_bytes());
    }

    #[test]
    fn a_rollback_copy_shares_the_served_section() {
        let state = state();
        let copy = state.clone();
        assert!(Arc::ptr_eq(&state.served, &copy.served));
    }

    #[test]
    fn a_version_2_frame_is_refused_by_version() {
        let mut bytes = state().to_bytes();
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            TrainState::from_bytes(&bytes).unwrap_err(),
            SnapshotError::BadVersion {
                found: 2,
                supported: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn a_truncated_served_table_is_malformed() {
        let state = state();
        let (payload, start) = payload(&state);
        // Cut inside the user table, inside the item table, and one byte
        // short of the last edge.
        let item_start = start + 16 + 4 * state.served.user_emb.as_slice().len();
        for cut in [start + 20, item_start + 21, payload.len() - 1] {
            assert_malformed(decode(&payload[..cut]), &format!("cut at {cut}"));
        }
    }

    #[test]
    fn served_tables_off_the_header_shape_are_malformed() {
        let state = state();
        let (nu, d) = state.served.user_emb.shape();
        let ni = state.served.item_emb.rows();
        for (user, item) in [
            ((nu + 1, d), (ni, d)),
            ((nu, d + 1), (ni, d)),
            ((nu, d), (ni - 1, d)),
            ((nu, d), (ni, d - 1)),
        ] {
            let mut bad = state.clone();
            bad.served = Arc::new(ServedTables {
                user_emb: Mat::zeros(user.0, user.1),
                item_emb: Mat::zeros(item.0, item.1),
                graph: state.served.graph.clone(),
            });
            assert_malformed(
                TrainState::from_bytes(&bad.to_bytes()),
                &format!("user {user:?} item {item:?}"),
            );
        }
    }

    #[test]
    fn an_edge_count_past_the_remaining_bytes_fails_before_allocating() {
        let state = state();
        let (mut payload, _) = payload(&state);
        let count_at = payload.len() - 8 * state.served.graph.n_interactions() - 8;
        // `u64::MAX` pairs would abort the process if anything allocated
        // them; a count one past the bytes is the smallest lie.
        for claim in [u64::MAX, state.compat.n_edges + 1] {
            put_u64_at(&mut payload, count_at, claim);
            assert_malformed(decode(&payload), &format!("{claim} edges"));
        }
    }

    #[test]
    fn an_edge_count_off_the_header_is_malformed() {
        let mut state = state();
        state.compat.n_edges -= 1;
        assert_malformed(TrainState::from_bytes(&state.to_bytes()), "n_edges - 1");
    }

    #[test]
    fn an_out_of_range_or_unsorted_edge_is_malformed() {
        let state = state();
        let (payload, _) = payload(&state);
        let last = payload.len() - 8;
        let (n_users, n_items) = (state.compat.n_users as u32, state.compat.n_items as u32);
        let cases: [(&str, usize, u32); 3] = [
            ("user id n_users", last, n_users),
            ("item id n_items", last + 4, n_items),
            // The last edge's user set to 0 sorts it before its neighbours.
            ("unsorted", last, 0),
        ];
        for (what, at, v) in cases {
            let mut bad = payload.clone();
            bad[at..at + 4].copy_from_slice(&v.to_le_bytes());
            assert_malformed(decode(&bad), what);
        }
    }

    #[test]
    fn a_zero_width_header_is_malformed() {
        let mut state = state();
        state.compat.embed_dim = 0;
        assert_malformed(TrainState::from_bytes(&state.to_bytes()), "embed_dim 0");
    }
}
