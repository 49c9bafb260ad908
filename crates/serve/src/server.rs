//! The serving engine's TCP verbs — `REC`, `RECX` and `STATS` — on the
//! shared line-server scaffold ([`crate::net`]; DESIGN.md, "One line
//! server") and the one wire protocol's dispatcher ([`crate::proto::listen`]
//! answers `PING`, `QUIT`, parse errors and every other verb; DESIGN.md,
//! "One wire protocol"). Deliberately boring: the interesting guarantees
//! (atomic table swaps, batch consistency, cache correctness) live in the
//! [`crate::engine`] layer, and this layer only moves lines.
//!
//! A `REC` request with multiple users is served through
//! [`crate::Engine::recommend_batch`], so the whole batch is answered from
//! one table snapshot (one generation) and fans out over `graphaug-par`.

use std::sync::Arc;

use crate::engine::{Engine, EngineStats};
use crate::net::{ListenerHandle, Reply};
use crate::proto::{self, ok_line, Request, Stats, Verb};
use crate::tables::ServeError;

/// The verbs a replica serves besides `PING` and `QUIT`.
const SERVES: &[Verb] = &[Verb::Rec, Verb::RecX, Verb::Stats];

/// A running server; dropping (or calling `stop()`) shuts the accept loop
/// down. Already-open connections finish on their own threads.
pub type ServerHandle = ListenerHandle;

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serves
/// `engine` until the handle is stopped.
pub fn serve(engine: Arc<Engine>, addr: &str) -> Result<ServerHandle, ServeError> {
    proto::listen(addr, "graphaug-serve", SERVES, move || {
        let engine = engine.clone();
        move |request: Request, reply: &mut Reply| match request {
            Request::Rec { users, k, exact } => {
                let requests: Vec<(u32, usize)> = users.into_iter().map(|u| (u, k)).collect();
                for result in engine.recommend_batch_mode(&requests, exact) {
                    match result {
                        Ok(rec) => reply.line(ok_line(&rec)),
                        Err(e) => reply.line(format_args!("ERR {e}")),
                    }
                }
            }
            Request::Stats => {
                let tables = engine.tables();
                reply.line(stats(&engine.stats(), tables.n_users(), tables.n_items()));
            }
            other => unreachable!("{} is not in SERVES", other.verb()),
        }
    })
    .map_err(|e| ServeError::Io(e.to_string()))
}

/// The replica's `STATS` line: serving counters and table shape. A sampled
/// rate reads `-` until the self-audit has sampled anything, so the field
/// is always present and splittable.
fn stats(s: &EngineStats, users: usize, items: usize) -> Stats {
    let on_off = |on: bool| if on { "on" } else { "off" };
    let rate = |r: Option<f64>| r.map_or_else(|| "-".to_string(), |r| format!("{r:.4}"));
    Stats::default()
        .with("gen", s.generation)
        .with("users", users)
        .with("items", items)
        .with("requests", s.requests)
        .with("cache_hits", s.cache_hits)
        .with("cache_misses", s.cache_misses)
        .with("reloads", s.reloads)
        .with("reload_errors", s.reload_errors)
        .with("ann", on_off(s.ann_on))
        .with("ann_probes", s.ann_probes)
        .with("ann_cands", s.ann_cands)
        .with("exact_fallbacks", s.exact_fallbacks)
        .with("recall_sampled", rate(s.recall_sampled))
        .with("quant", on_off(s.quant_on))
        .with("table_bytes", s.table_bytes)
        .with("quant_served", s.quant_served)
        .with("drift_sampled", rate(s.drift_sampled))
        .with("reload_skips", s.reload_skips)
        .with("ingested", s.ingested)
        .with("log_offset", s.log_offset)
        .with("finetunes", s.finetunes)
}

#[cfg(test)]
mod tests {
    use super::stats;
    use crate::engine::EngineStats;
    use crate::net::MAX_LINE_BYTES;
    use crate::proto::{parse_request, Request, MAX_K, MAX_REC_USERS};

    #[test]
    fn the_longest_legal_request_fits_under_the_line_cap() {
        let line = Request::Rec {
            users: vec![u32::MAX; MAX_REC_USERS],
            k: MAX_K,
            exact: true,
        }
        .to_string();
        assert!(parse_request(&line).is_ok());
        assert!(line.len() < MAX_LINE_BYTES, "{} bytes", line.len());
    }

    #[test]
    fn the_stats_line_is_byte_identical_to_the_hand_formatted_one() {
        // Both lines as the replica rendered them with one `format!`
        // before the codec.
        assert_eq!(
            stats(&EngineStats::default(), 150, 120).to_string(),
            "STATS gen=0 users=150 items=120 requests=0 cache_hits=0 cache_misses=0 \
             reloads=0 reload_errors=0 ann=off ann_probes=0 ann_cands=0 exact_fallbacks=0 \
             recall_sampled=- quant=off table_bytes=0 quant_served=0 drift_sampled=- \
             reload_skips=0 ingested=0 log_offset=0 finetunes=0"
        );
        let warm = EngineStats {
            generation: 4,
            requests: 1000,
            cache_hits: 600,
            cache_misses: 400,
            reloads: 3,
            reload_errors: 1,
            reload_skips: 2,
            ann_on: true,
            ann_probes: 3200,
            ann_cands: 51234,
            exact_fallbacks: 7,
            recall_sampled: Some(0.971_25),
            quant_on: true,
            table_bytes: 40960,
            quant_served: 390,
            drift_sampled: Some(2.0 / 3.0),
            ingested: 77,
            log_offset: 64,
            finetunes: 5,
        };
        assert_eq!(
            stats(&warm, 60, 45).to_string(),
            "STATS gen=4 users=60 items=45 requests=1000 cache_hits=600 cache_misses=400 \
             reloads=3 reload_errors=1 ann=on ann_probes=3200 ann_cands=51234 exact_fallbacks=7 \
             recall_sampled=0.9712 quant=on table_bytes=40960 quant_served=390 \
             drift_sampled=0.6667 reload_skips=2 ingested=77 log_offset=64 finetunes=5"
        );
    }
}
