//! The serving engine: swap-in-place tables, request batching, response
//! cache, and hot checkpoint reload.
//!
//! # Swap protocol (hand-rolled arc-swap)
//!
//! The live tables sit behind `Mutex<Arc<ModelTables>>`. Readers take the
//! lock only long enough to clone the `Arc` (a refcount bump); a reload
//! builds the replacement tables entirely **outside** the lock (checkpoint
//! decode, then the index tiers and their gates — the expensive part) and
//! then swaps the `Arc` in one short critical section. Consequences:
//!
//! * a request observes exactly one generation end to end — it keeps its
//!   cloned `Arc` for its whole lifetime, so a swap can never hand it a
//!   half-old/half-new ("torn") table;
//! * no request is ever dropped or blocked behind a rebuild — the swap
//!   critical section is two pointer moves;
//! * the old tables are freed when the last in-flight request holding
//!   them finishes (standard `Arc` reclamation — no hazard pointers
//!   needed because the `Mutex` serializes the swap itself).
//!
//! # Cache keying
//!
//! Responses are cached in an [`LruCache`] keyed by
//! `(user, k, generation, mode)`. A hot swap bumps the generation, so
//! every old entry becomes unaddressable immediately — stale responses
//! cannot be served after a reload, without any explicit invalidation
//! pass. The mode bits keep the three scorers — exact (`RECX`), f32 ANN,
//! and int8 quantized — from ever sharing an entry: a cached approximate
//! list must not satisfy an exact request, a cached quantized list must
//! not satisfy an f32 one, nor any other cross-pairing.
//!
//! # Fast paths and self-audits
//!
//! When the [`ModelSource`] carries IVF parameters and the build-time
//! recall gate passed, non-exact requests go through
//! `ModelTables::top_k_ann`; probed-list and candidate counts accumulate
//! in the stats. Every `audit_every`-th ANN-*computed* list is re-ranked
//! through the exact scorer and the overlap folded into a running
//! recall estimate ([`EngineStats::recall_sampled`]) — a live quality
//! meter on real traffic, not just the build-time probe set.
//!
//! Quantized serving ([`ModelSource::quant`]) works the same way one
//! level up: non-exact requests go through `ModelTables::top_k_quant`
//! (int8 tables, quantized IVF when ANN geometry is also configured), and
//! every `audit_every`-th quantized-computed list feeds a separate running
//! drift estimate ([`EngineStats::drift_sampled`]) against the same f32
//! oracle the `RECX` verb pins. Both gates fail closed: a disabled build
//! serves f32 bits.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use graphaug_runtime::checkpoint;

use crate::cache::LruCache;
use crate::tables::{overlap, ModelSource, ModelTables, ScoredItem, ServeError};

/// Default response-cache capacity (entries).
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Which scorer a cached response came from. `Exact` is the `RECX`
/// oracle; `F32` is the default `REC` path without enabled quantized
/// tables (full scan or f32 ANN); `Quant` is the int8 path. Distinct
/// variants mean the three never share a cache entry — a quantized list
/// can never satisfy an f32 request even at the same
/// `(user, k, generation)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum ServeMode {
    Exact,
    F32,
    Quant,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    user: u32,
    k: u32,
    generation: u64,
    mode: ServeMode,
}

/// One served recommendation list.
#[derive(Clone, Debug)]
pub struct Recommendation {
    /// The user the list is for.
    pub user: u32,
    /// Requested cutoff.
    pub k: usize,
    /// Checkpoint generation of the tables that produced the list.
    pub generation: u64,
    /// Ranked items, best first (shared with the response cache).
    pub items: Arc<Vec<ScoredItem>>,
    /// True when the list came from the response cache.
    pub from_cache: bool,
}

/// Monotonic serving counters (all relaxed atomics — diagnostics, not
/// synchronization).
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Checkpoint generation currently serving.
    pub generation: u64,
    /// Total user-lists served (one batch of `n` users counts `n`).
    pub requests: u64,
    /// Lists answered from the response cache.
    pub cache_hits: u64,
    /// Lists computed from the tables.
    pub cache_misses: u64,
    /// Completed hot reloads that rebuilt the tables.
    pub reloads: u64,
    /// Reload attempts that failed (old tables kept serving).
    pub reload_errors: u64,
    /// Newer generations whose checkpoint fingerprint matched the serving
    /// tables': byte-identical state, so the rebuild (index builds,
    /// quantize, gates) was skipped and the generation merely rebadged.
    pub reload_skips: u64,
    /// True when the serving tables carry an *enabled* IVF index (built,
    /// and its build-time recall cleared the floor).
    pub ann_on: bool,
    /// Total inverted lists probed by index-served requests (the f32 IVF
    /// tier and the int8 IVF tier alike).
    pub ann_probes: u64,
    /// Total candidate items scored by ANN- or quantized-served requests.
    pub ann_cands: u64,
    /// Non-exact requests that were nevertheless answered by the exact
    /// scorer (no index configured, or the recall gate disabled it).
    pub exact_fallbacks: u64,
    /// Running recall of the online self-audit: of the exact top-K items,
    /// the fraction the sampled ANN lists also returned. `None` until the
    /// first audited request.
    pub recall_sampled: Option<f64>,
    /// True when the serving tables carry *enabled* int8 quantized tables
    /// (built, and their build-time drift cleared the floor).
    pub quant_on: bool,
    /// Resident bytes of the embedding representation the default (`REC`)
    /// path scores from — int8 tables (weights + scales) when quantized
    /// serving is on, f32 tables otherwise. The before/after observable
    /// for the ~4× quantization shrink.
    pub table_bytes: u64,
    /// Lists computed by the quantized scorer.
    pub quant_served: u64,
    /// Running drift recall of the quantized self-audit: of the f32-oracle
    /// top-K items, the fraction the sampled quantized lists also
    /// returned. `None` until the first audited request.
    pub drift_sampled: Option<f64>,
    /// Records currently in the interaction log the source watches
    /// (`0` without a [`ModelSource::log_dir`]) — the live stream's length,
    /// polled at stats time.
    pub ingested: u64,
    /// The serving checkpoint's watermark: log records `[0, log_offset)`
    /// are baked into the tables.
    pub log_offset: u64,
    /// Fine-tune rounds the serving checkpoint had absorbed.
    pub finetunes: u64,
}

/// One tier's online self-audit: every Nth approximately-computed list is
/// also ranked through the exact f32 scorer, and the top-K overlap feeds a
/// running recall estimate — a live quality meter on real traffic, not
/// just the build-time probe set. Relaxed atomics: the counters race
/// across workers but only feed diagnostics.
#[derive(Default)]
struct Audit {
    /// Ticks once per list the tier computed.
    ticker: AtomicU64,
    hits: AtomicU64,
    total: AtomicU64,
}

impl Audit {
    /// Counts one `approx` list for `(user, k)`; every `every`-th one
    /// (`0` = never) pays an exact scan and is folded into the estimate.
    fn sample(&self, tables: &ModelTables, every: u64, user: u32, k: usize, approx: &[ScoredItem]) {
        if every == 0 {
            return;
        }
        let tick = self.ticker.fetch_add(1, Ordering::Relaxed);
        if !tick.is_multiple_of(every) {
            return;
        }
        let Ok(exact) = tables.top_k(user, k) else {
            return;
        };
        self.hits
            .fetch_add(overlap(approx, &exact) as u64, Ordering::Relaxed);
        self.total.fetch_add(exact.len() as u64, Ordering::Relaxed);
    }

    /// Of the exact top-K items audited so far, the fraction the sampled
    /// lists also returned. `None` until the first audited request.
    fn estimate(&self) -> Option<f64> {
        let total = self.total.load(Ordering::Relaxed);
        (total > 0).then(|| self.hits.load(Ordering::Relaxed) as f64 / total as f64)
    }
}

/// The online serving engine. Cheap to share (`Arc<Engine>`); all methods
/// take `&self`.
pub struct Engine {
    source: ModelSource,
    current: Mutex<Arc<ModelTables>>,
    cache: Mutex<LruCache<CacheKey, Arc<Vec<ScoredItem>>>>,
    generation: AtomicU64,
    requests: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    reloads: AtomicU64,
    reload_errors: AtomicU64,
    reload_skips: AtomicU64,
    /// Fingerprint of the serving checkpoint ([`TrainState::fingerprint`]
    /// of the state the tables were built from) — the cheap hash a reload
    /// compares before paying for a rebuild.
    fingerprint: AtomicU64,
    ann_probes: AtomicU64,
    ann_cands: AtomicU64,
    exact_fallbacks: AtomicU64,
    quant_served: AtomicU64,
    /// ANN-computed lists vs exact: [`EngineStats::recall_sampled`].
    recall: Audit,
    /// Quantized-computed lists vs exact: [`EngineStats::drift_sampled`].
    drift: Audit,
    /// Serializes reloads so two watchers (or a watcher plus an explicit
    /// reload call) never build the same generation twice concurrently.
    reload_lock: Mutex<()>,
}

impl Engine {
    /// Opens an engine over `source`, building tables from the newest
    /// valid checkpoint in its directory. Fails with
    /// [`ServeError::NoCheckpoint`] when nothing decodes cleanly.
    pub fn open(source: ModelSource) -> Result<Engine, ServeError> {
        Engine::open_with_cache(source, DEFAULT_CACHE_CAPACITY)
    }

    /// [`Engine::open`] with an explicit response-cache capacity.
    pub fn open_with_cache(
        source: ModelSource,
        cache_capacity: usize,
    ) -> Result<Engine, ServeError> {
        let (generation, state, fingerprint) =
            checkpoint::load_latest_valid_with_fingerprint(&source.checkpoint_dir)
                .ok_or_else(|| ServeError::NoCheckpoint(source.checkpoint_dir.clone()))?;
        Engine::open_preloaded(source, generation, &state, fingerprint, cache_capacity)
    }

    /// Opens an engine over an already-decoded checkpoint. A caller that
    /// just probed the directory to decide whether training is needed
    /// (`serve_main`) hands the decoded state straight in instead of
    /// paying the decode twice. `fingerprint` is the checkpoint's frame
    /// checksum (see [`ModelTables::build`]).
    pub fn open_preloaded(
        source: ModelSource,
        generation: u64,
        state: &graphaug_runtime::TrainState,
        fingerprint: u64,
        cache_capacity: usize,
    ) -> Result<Engine, ServeError> {
        let tables = Arc::new(ModelTables::build(&source, generation, state, fingerprint)?);
        Ok(Engine {
            source,
            generation: AtomicU64::new(tables.generation()),
            fingerprint: AtomicU64::new(tables.fingerprint()),
            current: Mutex::new(tables),
            cache: Mutex::new(LruCache::new(cache_capacity)),
            requests: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            reload_errors: AtomicU64::new(0),
            reload_skips: AtomicU64::new(0),
            ann_probes: AtomicU64::new(0),
            ann_cands: AtomicU64::new(0),
            exact_fallbacks: AtomicU64::new(0),
            quant_served: AtomicU64::new(0),
            recall: Audit::default(),
            drift: Audit::default(),
            reload_lock: Mutex::new(()),
        })
    }

    /// The source this engine serves from.
    pub fn source(&self) -> &ModelSource {
        &self.source
    }

    /// Snapshots the live tables for one request (or one batch): a
    /// refcount bump under a momentary lock. The returned `Arc` pins the
    /// generation for as long as the caller holds it.
    pub fn tables(&self) -> Arc<ModelTables> {
        self.current.lock().expect("tables lock").clone()
    }

    /// Current serving counters.
    pub fn stats(&self) -> EngineStats {
        let tables = self.tables();
        EngineStats {
            generation: self.generation.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            reload_errors: self.reload_errors.load(Ordering::Relaxed),
            reload_skips: self.reload_skips.load(Ordering::Relaxed),
            ann_on: tables.ann().is_some_and(|a| a.enabled()),
            ann_probes: self.ann_probes.load(Ordering::Relaxed),
            ann_cands: self.ann_cands.load(Ordering::Relaxed),
            exact_fallbacks: self.exact_fallbacks.load(Ordering::Relaxed),
            recall_sampled: self.recall.estimate(),
            quant_on: tables.quant().is_some_and(|q| q.enabled()),
            table_bytes: tables.table_bytes() as u64,
            quant_served: self.quant_served.load(Ordering::Relaxed),
            drift_sampled: self.drift.estimate(),
            ingested: self
                .source
                .log_dir
                .as_ref()
                .map_or(0, |dir| graphaug_ingest::log_len(dir).unwrap_or(0)),
            log_offset: tables.log_offset(),
            finetunes: tables.finetunes(),
        }
    }

    /// Serves one user's top-`k` list through the default (ANN-when-
    /// available) path — see [`Engine::recommend_batch`].
    pub fn recommend(&self, user: u32, k: usize) -> Result<Recommendation, ServeError> {
        self.recommend_batch(&[(user, k)])
            .pop()
            .expect("one request in, one response out")
    }

    /// Serves one user's top-`k` list through the exact scorer
    /// unconditionally — the `RECX` parity oracle. Bit-identical to
    /// offline evaluation regardless of any attached index.
    pub fn recommend_exact(&self, user: u32, k: usize) -> Result<Recommendation, ServeError> {
        self.recommend_batch_mode(&[(user, k)], true)
            .pop()
            .expect("one request in, one response out")
    }

    /// [`Engine::recommend_batch_mode`] in the default (non-exact) mode:
    /// the IVF fast path when an enabled index is attached, the exact
    /// scorer otherwise.
    pub fn recommend_batch(
        &self,
        requests: &[(u32, usize)],
    ) -> Vec<Result<Recommendation, ServeError>> {
        self.recommend_batch_mode(requests, false)
    }

    /// Serves a batch of `(user, k)` requests against **one** table
    /// snapshot, so every response in the batch carries the same
    /// generation even if a hot swap lands mid-batch. `exact` selects the
    /// parity-oracle path (`RECX`): the full-catalog scorer runs even when
    /// an ANN index is live, and responses cache under the exact mode bit.
    ///
    /// The cache is probed serially up front (it is a mutex-guarded LRU —
    /// keeping it out of the parallel section keeps workers lock-free);
    /// misses fan out over `graphaug-par` spans, each worker writing its
    /// own disjoint slot; results are inserted back serially. Scoring is
    /// read-only over immutable tables, so the fan-out is trivially
    /// bit-deterministic for any thread count. (The self-audit counters do
    /// race across workers, but they only feed diagnostics — response
    /// bytes never depend on them.)
    pub fn recommend_batch_mode(
        &self,
        requests: &[(u32, usize)],
        exact: bool,
    ) -> Vec<Result<Recommendation, ServeError>> {
        let tables = self.tables();
        let generation = tables.generation();
        // The serving mode is a per-generation property of the tables:
        // within one snapshot every non-exact request goes through the same
        // scorer, so the mode bit is computed once per batch.
        let mode = if exact {
            ServeMode::Exact
        } else if tables.quant().is_some_and(|q| q.enabled()) {
            ServeMode::Quant
        } else {
            ServeMode::F32
        };
        self.requests
            .fetch_add(requests.len() as u64, Ordering::Relaxed);

        let mut out: Vec<Option<Result<Recommendation, ServeError>>> =
            (0..requests.len()).map(|_| None).collect();
        let mut misses: Vec<usize> = Vec::new();
        {
            let mut cache = self.cache.lock().expect("cache lock");
            for (i, &(user, k)) in requests.iter().enumerate() {
                let key = CacheKey {
                    user,
                    k: k.min(u32::MAX as usize) as u32,
                    generation,
                    mode,
                };
                if let Some(items) = cache.get(&key) {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    out[i] = Some(Ok(Recommendation {
                        user,
                        k,
                        generation,
                        items: items.clone(),
                        from_cache: true,
                    }));
                } else {
                    misses.push(i);
                }
            }
        }
        self.cache_misses
            .fetch_add(misses.len() as u64, Ordering::Relaxed);

        let ann_audit_every = tables.ann().map_or(0, |a| a.audit_every());
        let quant_audit_every = tables.quant().map_or(0, |q| q.audit_every());
        let mut computed: Vec<Option<Result<Vec<ScoredItem>, ServeError>>> =
            (0..misses.len()).map(|_| None).collect();
        {
            let tables = &tables;
            let misses = &misses;
            let base = graphaug_par::SendMutPtr::new(&mut computed);
            graphaug_par::parallel_spans(misses.len(), |_, range| {
                // Safety: spans tile `0..misses.len()` disjointly, so each
                // slot has exactly one writer.
                let slice = unsafe { base.slice_mut(range.start, range.end - range.start) };
                for (slot, &req_idx) in slice.iter_mut().zip(&misses[range]) {
                    let (user, k) = requests[req_idx];
                    *slot = Some(if exact {
                        tables.top_k(user, k)
                    } else {
                        // Falls through quant → ANN → exact, whichever is
                        // attached and enabled.
                        tables.top_k_quant(user, k).map(|(items, how)| {
                            let (audit, every) = if how.used_quant {
                                self.quant_served.fetch_add(1, Ordering::Relaxed);
                                (&self.drift, quant_audit_every)
                            } else if how.used_ann {
                                (&self.recall, ann_audit_every)
                            } else {
                                self.exact_fallbacks.fetch_add(1, Ordering::Relaxed);
                                return items;
                            };
                            self.ann_probes
                                .fetch_add(how.probes as u64, Ordering::Relaxed);
                            self.ann_cands
                                .fetch_add(how.cands as u64, Ordering::Relaxed);
                            audit.sample(tables, every, user, k, &items);
                            items
                        })
                    });
                }
            });
        }

        let mut cache = self.cache.lock().expect("cache lock");
        for (&req_idx, result) in misses.iter().zip(computed) {
            let (user, k) = requests[req_idx];
            let result = result.expect("every miss slot is filled");
            out[req_idx] = Some(match result {
                Ok(items) => {
                    let items = Arc::new(items);
                    cache.insert(
                        CacheKey {
                            user,
                            k: k.min(u32::MAX as usize) as u32,
                            generation,
                            mode,
                        },
                        items.clone(),
                    );
                    Ok(Recommendation {
                        user,
                        k,
                        generation,
                        items,
                        from_cache: false,
                    })
                }
                Err(e) => Err(e),
            });
        }
        out.into_iter()
            .map(|r| r.expect("every request slot is filled"))
            .collect()
    }

    /// Checks the checkpoint directory for a generation newer than the one
    /// serving; if found (and it decodes to a valid, compatible state),
    /// rebuilds the tables **off the request path** and swaps them in.
    /// Returns `Ok(Some(new_generation))` after a swap, `Ok(None)` when
    /// already current. On error the old tables keep serving untouched.
    ///
    /// Note the newest-*valid* semantics inherited from
    /// `checkpoint::load_latest_valid`: a torn newest file is walked past,
    /// and if the newest valid generation is not newer than the serving
    /// one, the reload is a no-op rather than a downgrade.
    pub fn reload_if_newer(&self) -> Result<Option<u64>, ServeError> {
        let serving = self.generation.load(Ordering::Relaxed);
        // Cheap poll: directory listing only.
        match checkpoint::newest_generation(&self.source.checkpoint_dir) {
            Some(newest) if newest > serving => {}
            _ => return Ok(None),
        }
        let _guard = self.reload_lock.lock().expect("reload lock");
        // Re-check under the reload lock — another reloader may have won.
        let serving = self.generation.load(Ordering::Relaxed);
        let Some((generation, state, fingerprint)) =
            checkpoint::load_latest_valid_with_fingerprint(&self.source.checkpoint_dir)
        else {
            return Ok(None);
        };
        if generation <= serving {
            return Ok(None);
        }
        // Cheap hash compare before the expensive rebuild: an equal
        // fingerprint (read straight off the frame header — no re-encode)
        // means the checkpoint frame is byte-identical to the one serving,
        // so index builds + quantize + gates would reproduce the live
        // tables bit-for-bit. Rebadge instead.
        if fingerprint == self.fingerprint.load(Ordering::Relaxed) {
            let rebadged = Arc::new(self.tables().rebadged(generation));
            *self.current.lock().expect("tables lock") = rebadged;
            self.generation.store(generation, Ordering::Relaxed);
            self.reload_skips.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(generation));
        }
        let built = ModelTables::build(&self.source, generation, &state, fingerprint);
        let tables = match built {
            Ok(t) => Arc::new(t),
            Err(e) => {
                self.reload_errors.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        // The swap itself: two pointer moves under a momentary lock.
        *self.current.lock().expect("tables lock") = tables;
        self.generation.store(generation, Ordering::Relaxed);
        self.fingerprint.store(fingerprint, Ordering::Relaxed);
        self.reloads.fetch_add(1, Ordering::Relaxed);
        Ok(Some(generation))
    }
}

/// Handle of a background reload watcher; stops (and joins) the thread on
/// [`Watcher::stop`] or drop.
pub struct Watcher {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watcher {
    /// Signals the watcher thread and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Watcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns a background thread that polls the checkpoint directory every
/// `period` and hot-swaps newer generations in. Reload errors are counted
/// in [`EngineStats::reload_errors`] and the previous tables keep serving
/// — a bad checkpoint must never take the service down.
pub fn spawn_watcher(engine: Arc<Engine>, period: Duration) -> Watcher {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let handle = std::thread::Builder::new()
        .name("graphaug-serve-watcher".into())
        .spawn(move || {
            let tick = Duration::from_millis(5).min(period);
            let mut elapsed = period; // fire one check immediately
            while !stop_flag.load(Ordering::Relaxed) {
                if elapsed >= period {
                    elapsed = Duration::ZERO;
                    let _ = engine.reload_if_newer();
                }
                std::thread::sleep(tick);
                elapsed += tick;
            }
        })
        .expect("spawn reload watcher");
    Watcher {
        stop,
        handle: Some(handle),
    }
}
