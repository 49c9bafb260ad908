//! The TCP ingestion listener.
//!
//! Line-oriented, on the shared [`crate::net`] scaffold (DESIGN.md, "One
//! line server"); this module is only the verbs:
//!
//! ```text
//! PUT <user> <item>   → OK off=<offset>      (durably logged before OK)
//! STATS               → STATS ingested=<n> log_offset=<len>
//! PING                → PONG
//! QUIT                → BYE                   (closes the connection)
//! ```
//!
//! `PUT` parsing is strict in the `parse_numeric_edge_list` sense: exactly
//! two fields after the verb, both integers below the declared bounds —
//! anything else is a typed refusal rendered as `ERR ...`, and nothing
//! reaches the log. The log writer is shared behind a mutex with the
//! fine-tuning loop, which polls [`crate::log_len`] for fresh windows.

use std::sync::{Arc, Mutex};

use crate::error::IngestError;
use crate::log::LogWriter;
use crate::net::{listen, ListenerHandle, Next, Reply};

/// Why a `PUT` line was refused (nothing was logged).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PutRefusal {
    /// Wrong field count (wants exactly `PUT <user> <item>`).
    Malformed,
    /// A field is not an unsigned integer.
    NotAnInteger {
        /// The offending token.
        token: String,
    },
    /// An id is outside the declared user/item universe.
    OutOfRange {
        /// The offending token.
        token: String,
        /// The exclusive bound it violated.
        bound: u64,
    },
}

impl std::fmt::Display for PutRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PutRefusal::Malformed => write!(f, "usage: PUT <user> <item>"),
            PutRefusal::NotAnInteger { token } => write!(f, "not an integer: {token:?}"),
            PutRefusal::OutOfRange { token, bound } => {
                write!(f, "id {token} out of range (bound {bound})")
            }
        }
    }
}

/// Strictly parses the arguments of a `PUT` line (everything after the
/// verb): exactly two whitespace-separated integer ids below the bounds.
pub fn parse_put(rest: &str, n_users: usize, n_items: usize) -> Result<(u32, u32), PutRefusal> {
    let mut it = rest.split_whitespace();
    let (Some(u_tok), Some(v_tok), None) = (it.next(), it.next(), it.next()) else {
        return Err(PutRefusal::Malformed);
    };
    let bounded = |token: &str, bound: u64| -> Result<u32, PutRefusal> {
        let id: u64 = token.parse().map_err(|_| PutRefusal::NotAnInteger {
            token: token.to_string(),
        })?;
        if id >= bound {
            return Err(PutRefusal::OutOfRange {
                token: token.to_string(),
                bound,
            });
        }
        Ok(id as u32)
    };
    Ok((
        bounded(u_tok, n_users as u64)?,
        bounded(v_tok, n_items as u64)?,
    ))
}

/// A point-in-time snapshot of the ingestion counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestStats {
    /// Records appended through this process's writer.
    pub ingested: u64,
    /// Total records in the log (the next offset to be assigned).
    pub log_offset: u64,
}

/// Snapshot of the shared writer's counters.
pub fn stats(log: &Mutex<LogWriter>) -> IngestStats {
    let log = log.lock().expect("ingest log lock");
    IngestStats {
        ingested: log.appended(),
        log_offset: log.len(),
    }
}

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
    listen(addr, "graphaug-ingest", move || {
        let log = log.clone();
        move |line: &str, reply: &mut Reply| respond(&log, n_users, n_items, line, reply)
    })
    .map_err(|e| IngestError::Io(e.to_string()))
}

/// Appends the response for one request line.
fn respond(
    log: &Mutex<LogWriter>,
    n_users: usize,
    n_items: usize,
    line: &str,
    reply: &mut Reply,
) -> Next {
    let line = line.trim();
    let (verb, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    match verb {
        "PUT" => match parse_put(rest, n_users, n_items) {
            Ok((user, item)) => {
                let appended = log.lock().expect("ingest log lock").append(user, item);
                match appended {
                    Ok(offset) => reply.line(format_args!("OK off={offset}")),
                    Err(e) => reply.line(format_args!("ERR log append: {e}")),
                }
            }
            Err(refusal) => reply.line(format_args!("ERR {refusal}")),
        },
        "STATS" => {
            let s = stats(log);
            reply.line(format_args!(
                "STATS ingested={} log_offset={}",
                s.ingested, s.log_offset
            ));
        }
        "PING" => reply.line("PONG"),
        "QUIT" => {
            reply.line("BYE");
            return Next::Close;
        }
        _ => reply.line(format_args!("ERR unknown verb {verb:?}")),
    }
    Next::Continue
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    #[test]
    fn put_parsing_is_strict() {
        assert_eq!(parse_put("3 4", 10, 10), Ok((3, 4)));
        assert_eq!(parse_put("  3   4  ", 10, 10), Ok((3, 4)));
        assert_eq!(parse_put("3", 10, 10), Err(PutRefusal::Malformed));
        assert_eq!(parse_put("3 4 5", 10, 10), Err(PutRefusal::Malformed));
        assert_eq!(parse_put("", 10, 10), Err(PutRefusal::Malformed));
        assert_eq!(
            parse_put("alice 4", 10, 10),
            Err(PutRefusal::NotAnInteger {
                token: "alice".into()
            })
        );
        assert_eq!(
            parse_put("-1 4", 10, 10),
            Err(PutRefusal::NotAnInteger { token: "-1".into() })
        );
        assert_eq!(
            parse_put("10 4", 10, 10),
            Err(PutRefusal::OutOfRange {
                token: "10".into(),
                bound: 10
            })
        );
        assert_eq!(
            parse_put("3 12", 10, 10),
            Err(PutRefusal::OutOfRange {
                token: "12".into(),
                bound: 10
            })
        );
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
