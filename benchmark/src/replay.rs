//! The traced run's replay passes for the serving workloads: the same
//! request prefix, one pass per depth, one span per request per pass.

use std::sync::Arc;

use graphaug_serve::{ok_line, parse_request, Engine, LruCache, ModelTables, ServeClient};

use crate::gen::RecReq;
use crate::pace::timed;
use crate::stats::{Summary, MEDIAN_ONLY};
use crate::trace::{SpanId, Trace};

/// One number, in µs, for time-ordered durations in ns: the fast decile
/// of slice medians, the reduction the end-to-end timings use (see
/// [`Summary::sliced`]), so a layer and the metric it should move are read
/// the same way and a slow burst of the box does not pass for a slow layer.
/// 0 when there are none.
pub fn typical_us(ns: Vec<u64>) -> f64 {
    let mut ns: Vec<u32> = ns
        .iter()
        .map(|&d| u32::try_from(d).unwrap_or(u32::MAX))
        .collect();
    Summary::sliced(&mut ns, MEDIAN_ONLY).map_or(0.0, |s| s.p50_us())
}

/// [`typical_us`] of `n` timed repetitions of `op`, in ms.
pub fn typical_ms<T>(n: usize, mut op: impl FnMut() -> T) -> f64 {
    let ns = (0..n)
        .map(|_| timed(|| std::hint::black_box(op())).1 as u64)
        .collect();
    typical_us(ns) / 1e3
}

/// Round trips over `client`, one `name` span per request. Stops early
/// once `budget_s` is spent, so a slow path (the 44 ms 64-user line)
/// cannot run past the time a traced run is allowed; the number of spans
/// returned is the prefix every other pass then replays.
pub fn tcp_pass(
    trace: &mut Trace,
    name: &'static str,
    client: &mut ServeClient,
    reqs: &[RecReq],
    budget_s: f64,
) -> Result<Vec<SpanId>, String> {
    let started = std::time::Instant::now();
    let mut ids = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        if started.elapsed().as_secs_f64() > budget_s {
            break;
        }
        let line = req.line();
        let (replies, id) = trace.span(name, i as u32, || {
            client.request_lines(&line, req.users.len())
        });
        let replies = replies.map_err(|e| format!("replay {line:?}: {e}"))?;
        if replies.iter().any(|r| !r.starts_with("OK ")) {
            return Err(format!("replay {line:?}: a reply is not OK"));
        }
        ids.push(id);
    }
    Ok(ids)
}

pub struct EnginePass {
    pub parse: Vec<SpanId>,
    pub engine: Vec<SpanId>,
    pub render: Vec<SpanId>,
    /// Whether the (single-user) request was answered from the cache.
    pub from_cache: Vec<bool>,
}

/// In-process replay of what the server does per line: `parse_request`,
/// the engine call, `ok_line` per list — three sibling spans per request.
/// The engine span is named for how it was answered.
pub fn engine_pass(
    trace: &mut Trace,
    engine: &Engine,
    reqs: &[RecReq],
) -> Result<EnginePass, String> {
    let mut pass = EnginePass {
        parse: Vec::new(),
        engine: Vec::new(),
        render: Vec::new(),
        from_cache: Vec::new(),
    };
    for (i, req) in reqs.iter().enumerate() {
        let i = i as u32;
        let line = req.line();
        let (parsed, parse_id) = trace.span("serve.proto.parse", i, || parse_request(&line));
        parsed.map_err(|e| format!("parse {line:?}: {e}"))?;
        let batch: Vec<(u32, usize)> = req.users.iter().map(|&u| (u, req.k)).collect();
        let start = trace.now_ns();
        let recs = engine.recommend_batch_mode(&batch, req.exact);
        let end = trace.now_ns();
        let recs = recs
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("engine {line:?}: {e}"))?;
        let all_cached = recs.iter().all(|r| r.from_cache);
        let name = match (req.users.len(), all_cached) {
            (1, true) => "serve.engine.hit",
            (1, false) => "serve.engine.miss",
            _ => "serve.engine.batch64",
        };
        let engine_id = trace.push(name, i, start, end);
        let (_, render_id) = trace.span("serve.proto.render", i, || {
            for rec in &recs {
                std::hint::black_box(ok_line(rec));
            }
        });
        pass.parse.push(parse_id);
        pass.engine.push(engine_id);
        pass.render.push(render_id);
        pass.from_cache.push(all_cached);
    }
    Ok(pass)
}

#[derive(Default)]
pub struct ScorerCounts {
    pub queries: u64,
    pub probes: u64,
    pub cands: u64,
}

impl ScorerCounts {
    pub fn probes_per_query(&self) -> f64 {
        self.probes as f64 / self.queries.max(1) as f64
    }

    pub fn cands_per_query(&self) -> f64 {
        self.cands as f64 / self.queries.max(1) as f64
    }
}

/// The scorer call beneath each engine miss: `top_k` for `RECX`,
/// `top_k_quant` for `REC`. Requests flagged in `skip` (cache hits) get no
/// span — no scorer ran for them.
pub fn tables_pass(
    trace: &mut Trace,
    tables: &ModelTables,
    reqs: &[RecReq],
    skip: &[bool],
) -> Result<(Vec<Option<SpanId>>, ScorerCounts), String> {
    let mut ids = Vec::new();
    let mut counts = ScorerCounts::default();
    for (i, (req, &skip)) in reqs.iter().zip(skip).enumerate() {
        if skip {
            ids.push(None);
            continue;
        }
        let user = req.users[0];
        let id = if req.exact {
            let (out, id) =
                trace.span("serve.tables.exact", i as u32, || tables.top_k(user, req.k));
            out.map_err(|e| e.to_string())?;
            id
        } else {
            let (out, id) = trace.span("serve.tables.quant", i as u32, || {
                tables.top_k_quant(user, req.k)
            });
            let (_, how) = out.map_err(|e| e.to_string())?;
            counts.queries += 1;
            counts.probes += how.probes as u64;
            counts.cands += how.cands as u64;
            id
        };
        ids.push(Some(id));
    }
    Ok((ids, counts))
}

/// `top_k_ann` on the `REC` lines — the f32 IVF path that would serve if
/// the quantized tables were ever retired. Stand-alone spans.
pub fn ann_pass(
    trace: &mut Trace,
    tables: &ModelTables,
    reqs: &[RecReq],
) -> Result<ScorerCounts, String> {
    let mut counts = ScorerCounts::default();
    for (i, req) in reqs.iter().enumerate().filter(|(_, r)| !r.exact) {
        let (out, _) = trace.span("serve.ann", i as u32, || {
            tables.top_k_ann(req.users[0], req.k)
        });
        let (_, how) = out.map_err(|e| e.to_string())?;
        counts.queries += 1;
        counts.probes += how.probes as u64;
        counts.cands += how.cands as u64;
    }
    Ok(counts)
}

/// `LruCache::get` (+ `insert` on a miss) in the stream's key order, on a
/// cache of the engine's default capacity. One lookup is a few tens of ns
/// — below what one clock read resolves — so spans cover blocks of 1024
/// keys; returns the median ns per key.
pub fn cache_pass(trace: &mut Trace, reqs: &[RecReq]) -> f64 {
    const BLOCK: usize = 1024;
    let keys: Vec<(u32, u32, bool)> = reqs
        .iter()
        .flat_map(|r| r.users.iter().map(|&u| (u, r.k as u32, r.exact)))
        .collect();
    let mut cache: LruCache<(u32, u32, bool), Arc<Vec<u32>>> =
        LruCache::new(graphaug_serve::DEFAULT_CACHE_CAPACITY);
    let value = Arc::new(Vec::new());
    let mut per_key = Vec::new();
    for (b, block) in keys.chunks(BLOCK).enumerate() {
        let (_, id) = trace.span("serve.cache", b as u32, || {
            for key in block {
                if cache.get(key).is_none() {
                    cache.insert(*key, value.clone());
                }
            }
        });
        if block.len() == BLOCK {
            per_key.push(trace.dur_ns(id) as f64 / BLOCK as f64);
        }
    }
    if per_key.is_empty() {
        return 0.0;
    }
    crate::stats::median(&mut per_key)
}
