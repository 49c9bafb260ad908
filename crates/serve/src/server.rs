//! The serving engine's TCP verbs, on the shared line-server scaffold
//! ([`crate::net`]; DESIGN.md, "One line server"). Deliberately boring: the
//! interesting guarantees (atomic table swaps, batch consistency, cache
//! correctness) live in the [`crate::engine`] layer, and this layer only
//! moves lines.
//!
//! A `REC` request with multiple users is served through
//! [`crate::Engine::recommend_batch`], so the whole batch is answered from
//! one table snapshot (one generation) and fans out over `graphaug-par`.

use std::sync::Arc;

use crate::engine::Engine;
use crate::net::{listen, ListenerHandle, Next, Reply};
use crate::proto::{ok_line, parse_request, Request};
use crate::tables::ServeError;

/// A running server; dropping (or calling `stop()`) shuts the accept loop
/// down. Already-open connections finish on their own threads.
pub type ServerHandle = ListenerHandle;

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serves
/// `engine` until the handle is stopped.
pub fn serve(engine: Arc<Engine>, addr: &str) -> Result<ServerHandle, ServeError> {
    listen(addr, "graphaug-serve", move || {
        let engine = engine.clone();
        move |line: &str, reply: &mut Reply| respond(&engine, line, reply)
    })
    .map_err(|e| ServeError::Io(e.to_string()))
}

/// Appends the response line(s) for one request.
fn respond(engine: &Engine, line: &str, reply: &mut Reply) -> Next {
    match parse_request(line) {
        Ok(Request::Rec { users, k, exact }) => {
            let requests: Vec<(u32, usize)> = users.into_iter().map(|u| (u, k)).collect();
            for result in engine.recommend_batch_mode(&requests, exact) {
                match result {
                    Ok(rec) => reply.line(ok_line(&rec)),
                    Err(e) => reply.line(format_args!("ERR {e}")),
                }
            }
        }
        Ok(Request::Stats) => {
            let s = engine.stats();
            let tables = engine.tables();
            reply.line(format_args!(
                "STATS gen={} users={} items={} requests={} cache_hits={} \
                     cache_misses={} reloads={} reload_errors={} ann={} \
                     ann_probes={} ann_cands={} exact_fallbacks={} recall_sampled={} \
                     quant={} table_bytes={} quant_served={} drift_sampled={} \
                     reload_skips={} ingested={} log_offset={} finetunes={}",
                s.generation,
                tables.n_users(),
                tables.n_items(),
                s.requests,
                s.cache_hits,
                s.cache_misses,
                s.reloads,
                s.reload_errors,
                if s.ann_on { "on" } else { "off" },
                s.ann_probes,
                s.ann_cands,
                s.exact_fallbacks,
                // `-` until the self-audit has sampled anything, so the
                // field is always present and splittable.
                s.recall_sampled
                    .map_or_else(|| "-".to_string(), |r| format!("{r:.4}")),
                if s.quant_on { "on" } else { "off" },
                s.table_bytes,
                s.quant_served,
                s.drift_sampled
                    .map_or_else(|| "-".to_string(), |r| format!("{r:.4}")),
                s.reload_skips,
                s.ingested,
                s.log_offset,
                s.finetunes,
            ));
        }
        Ok(Request::Ping) => reply.line("PONG"),
        Ok(Request::Quit) => {
            reply.line("BYE");
            return Next::Close;
        }
        Err(msg) => reply.line(format_args!("ERR {msg}")),
    }
    Next::Continue
}

#[cfg(test)]
mod tests {
    use crate::net::MAX_LINE_BYTES;
    use crate::proto::{parse_request, MAX_K, MAX_REC_USERS};

    #[test]
    fn the_longest_legal_request_fits_under_the_line_cap() {
        let users = vec![u32::MAX.to_string(); MAX_REC_USERS].join(",");
        let line = format!("RECX {users} {MAX_K}");
        assert!(parse_request(&line).is_ok());
        assert!(line.len() < MAX_LINE_BYTES, "{} bytes", line.len());
    }
}
