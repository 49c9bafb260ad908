//! The TCP ingestion listener.
//!
//! Line-oriented, on the shared [`crate::net`] scaffold (DESIGN.md, "One
//! line server") and the one wire protocol [`crate::proto`] (DESIGN.md,
//! "One wire protocol"); this module is only the verbs the port serves:
//!
//! ```text
//! PUT <user> <item>   → OK off=<offset>      (durably logged before OK)
//! STATS               → STATS ingested=<n> log_offset=<len>
//! PING                → PONG
//! QUIT                → BYE                   (closes the connection)
//! REC, RECX, REPLACE  → ERR …                 (proto::Unserved: not served here)
//! ```
//!
//! `PUT` parsing is strict in the `parse_numeric_edge_list` sense: exactly
//! two integer fields after the verb ([`crate::proto::parse_request`]),
//! both below the declared bounds (checked here) — anything else is a
//! typed refusal rendered as `ERR ...`, and nothing reaches the log. The
//! log writer is shared behind a mutex with the fine-tuning loop, which
//! polls [`crate::log_len`] for fresh windows.

use std::sync::{Arc, Mutex};

use crate::error::IngestError;
use crate::log::LogWriter;
use crate::net::{ListenerHandle, Reply};
use crate::proto::{self, Request, Stats, Verb};

/// The verbs the ingest port serves besides `PING` and `QUIT`.
const SERVES: &[Verb] = &[Verb::Put, Verb::Stats];

/// A running ingestion listener; dropping (or `stop()`) shuts the accept
/// loop down.
pub type IngestHandle = ListenerHandle;

/// Binds `addr` and serves `PUT`s into `log`. Ids are validated against
/// `n_users`/`n_items` — the universe the downstream model was sized for.
pub fn start_ingest(
    log: Arc<Mutex<LogWriter>>,
    n_users: usize,
    n_items: usize,
    addr: &str,
) -> Result<IngestHandle, IngestError> {
    proto::listen(addr, "graphaug-ingest", SERVES, move || {
        let log = log.clone();
        move |request: Request, reply: &mut Reply| match request {
            Request::Put { user, item } => {
                let ids = in_range(user, n_users).and_then(|u| Ok((u, in_range(item, n_items)?)));
                let appended = match ids {
                    Ok((user, item)) => log.lock().expect("ingest log lock").append(user, item),
                    Err(refusal) => return reply.line(format_args!("ERR {refusal}")),
                };
                match appended {
                    Ok(offset) => reply.line(format_args!("OK off={offset}")),
                    Err(e) => reply.line(format_args!("ERR log append: {e}")),
                }
            }
            Request::Stats => reply.line(stats(&log.lock().expect("ingest log lock"))),
            other => unreachable!("{} is not in SERVES", other.verb()),
        }
    })
    .map_err(|e| IngestError::Io(e.to_string()))
}

/// The id, when it lies in the declared universe `[0, bound)`.
fn in_range(id: u64, bound: usize) -> Result<u32, String> {
    match u32::try_from(id) {
        Ok(id) if (id as usize) < bound => Ok(id),
        _ => Err(format!("id {id} out of range (bound {bound})")),
    }
}

/// The port's `STATS` line.
fn stats(log: &LogWriter) -> Stats {
    Stats::default()
        .with("ingested", log.appended())
        .with("log_offset", log.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    #[test]
    fn put_parsing_is_strict() {
        let put = |line: &str| match proto::parse_request(line) {
            Ok(Request::Put { user, item }) => {
                in_range(user, 10).and_then(|u| Ok((u, in_range(item, 10)?)))
            }
            Ok(other) => panic!("{line:?} parsed as {other:?}"),
            Err(e) => Err(e.to_string()),
        };
        assert_eq!(put("PUT 3 4"), Ok((3, 4)));
        assert_eq!(put("PUT   3   4  "), Ok((3, 4)));
        assert_eq!(put("PUT 3"), Err("usage: PUT <user> <item>".into()));
        assert_eq!(put("PUT 3 4 5"), Err("usage: PUT <user> <item>".into()));
        assert_eq!(put("PUT"), Err("usage: PUT <user> <item>".into()));
        assert_eq!(put("PUT alice 4"), Err("not an integer: \"alice\"".into()));
        assert_eq!(put("PUT -1 4"), Err("not an integer: \"-1\"".into()));
        assert_eq!(put("PUT 10 4"), Err("id 10 out of range (bound 10)".into()));
        assert_eq!(put("PUT 3 12"), Err("id 12 out of range (bound 10)".into()));
        assert_eq!(
            put("PUT 4294967296 1"),
            Err("id 4294967296 out of range (bound 10)".into())
        );
    }

    #[test]
    fn the_stats_line_is_byte_identical_to_the_hand_formatted_one() {
        let dir =
            std::env::temp_dir().join(format!("graphaug_ingest_stats_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut log = LogWriter::open(&dir, 4).unwrap();
        for i in 0..12 {
            log.append(i, i + 1).unwrap();
        }
        // The line the port rendered with one `format!` before the codec.
        assert_eq!(stats(&log).to_string(), "STATS ingested=12 log_offset=12");
        drop(log);
        let mut reopened = LogWriter::open(&dir, 4).unwrap();
        reopened.append(0, 0).unwrap();
        assert_eq!(
            stats(&reopened).to_string(),
            "STATS ingested=1 log_offset=13"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn end_to_end_put_over_tcp() {
        let dir = std::env::temp_dir().join(format!("graphaug_ingest_tcp_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let log = Arc::new(Mutex::new(LogWriter::open(&dir, 64).unwrap()));
        let handle = start_ingest(log.clone(), 8, 8, "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut send = |line: &str| {
            let mut s = stream.try_clone().unwrap();
            writeln!(s, "{line}").unwrap();
            let mut out = String::new();
            reader.read_line(&mut out).unwrap();
            out.trim_end().to_string()
        };
        assert_eq!(send("PING"), "PONG");
        assert_eq!(send("PUT 1 2"), "OK off=0");
        assert_eq!(send("PUT 3 4"), "OK off=1");
        assert_eq!(send("PUT 9 0"), "ERR id 9 out of range (bound 8)");
        assert_eq!(send("PUT a b"), "ERR not an integer: \"a\"");
        assert_eq!(send("PUT 1"), "ERR usage: PUT <user> <item>");
        assert_eq!(send("STATS"), "STATS ingested=2 log_offset=2");
        assert_eq!(send("QUIT"), "BYE");
        handle.stop();
        assert_eq!(
            crate::log::read_range(&dir, 0, 2).unwrap(),
            vec![(1, 2), (3, 4)]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
