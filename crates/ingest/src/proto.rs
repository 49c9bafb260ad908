//! The one wire protocol every listener and client in the workspace speaks:
//! one ASCII line per request, one or more per response (DESIGN.md, "One
//! wire protocol", has the verb × port × reply table).
//!
//! ```text
//! REC <user>[,<user>...] <k>          serve, router  → one OK line per user (fast path)
//! RECX <user>[,<user>...] <k>         serve, router  → one OK line per user (exact oracle)
//! STATS                               every port     → STATS <key>=<value> ...
//! PUT <user> <item>                   ingest         → OK off=<offset>
//! REPLACE <shard> [<replica>] <addr>  router admin   → OK shard=<s> replica=<r> addr=<a>
//! PING                                every port     → PONG
//! QUIT                                every port     → BYE, then close
//! ```
//!
//! [`parse_request`] reads verbs as whole tokens (`REPLACE0` is unknown) and
//! `Display for` [`Request`] spells them; [`listen`] answers `PING`, `QUIT`,
//! parse errors and, with the one refusal [`Unserved`], every verb a port
//! does not serve; [`Stats`] renders `STATS` lines and [`field`] reads any
//! `key=value` field. Checks that need a port's state stay with the port:
//! id bounds on ingest, shard and replica range on the router.

use std::fmt;
use std::io;

use crate::net::{self, ListenerHandle, Next, Reply};

/// Largest `k` a single `REC` may ask for. Anything above this is a typed
/// `ERR`, so a hostile `REC 0 99999999` can never turn into an oversized
/// allocation server-side.
pub const MAX_K: usize = 4096;

/// Largest user batch a single `REC` line may carry.
pub const MAX_REC_USERS: usize = 1024;

/// A verb of the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    Rec,
    RecX,
    Stats,
    Put,
    Replace,
    Ping,
    Quit,
}

/// Every verb with its one spelling, in [`Verb`] order (`QUIT` last).
pub const VERBS: [(Verb, &str); 7] = [
    (Verb::Rec, "REC"),
    (Verb::RecX, "RECX"),
    (Verb::Stats, "STATS"),
    (Verb::Put, "PUT"),
    (Verb::Replace, "REPLACE"),
    (Verb::Ping, "PING"),
    (Verb::Quit, "QUIT"),
];

impl fmt::Display for Verb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(VERBS[*self as usize].1)
    }
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Top-`k` lists for each listed user (at least one), in order; `exact`
    /// (`RECX`) forces the exact-parity scorer even when an ANN index is on.
    Rec {
        users: Vec<u32>,
        k: usize,
        exact: bool,
    },
    /// Counters.
    Stats,
    /// Log the interaction; the ingest port bounds the ids.
    Put { user: u64, item: u64 },
    /// Re-point `(shard, replica)` (`0`, the primary, when the line names
    /// none) at `addr`; the router checks the range and resolves `addr`.
    Replace {
        shard: usize,
        replica: usize,
        addr: String,
    },
    /// Liveness probe.
    Ping,
    /// Close the connection.
    Quit,
}

impl Request {
    /// The request's verb.
    pub fn verb(&self) -> Verb {
        match self {
            Request::Rec { exact: false, .. } => Verb::Rec,
            Request::Rec { exact: true, .. } => Verb::RecX,
            Request::Stats => Verb::Stats,
            Request::Put { .. } => Verb::Put,
            Request::Replace { .. } => Verb::Replace,
            Request::Ping => Verb::Ping,
            Request::Quit => Verb::Quit,
        }
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.verb())?;
        match self {
            Request::Rec { users, k, .. } => {
                for (i, user) in users.iter().enumerate() {
                    write!(f, "{}{user}", if i == 0 { ' ' } else { ',' })?;
                }
                write!(f, " {k}")
            }
            Request::Put { user, item } => write!(f, " {user} {item}"),
            Request::Replace {
                shard,
                replica,
                addr,
            } => write!(f, " {shard} {replica} {addr}"),
            Request::Stats | Request::Ping | Request::Quit => Ok(()),
        }
    }
}

/// Why a line is not a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// The verb the line named; `None` for a blank line or an unknown verb.
    pub verb: Option<Verb>,
    /// What an `ERR` line says about it.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Parses one request line; the only code that reads a verb.
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    let mut tokens = line.split_ascii_whitespace();
    let first = tokens.next().unwrap_or_default();
    let verb = VERBS.iter().find(|(_, spelling)| *spelling == first);
    let verb = verb.map(|&(verb, _)| verb);
    let fail = |message: String| ParseError { verb, message };
    let Some(verb) = verb else {
        return Err(fail(match first {
            "" => "empty request".into(),
            _ => format!("unknown command {first:?}"),
        }));
    };
    let bad_arg = |what: &str, token: &str| fail(format!("{what} {token:?}"));
    // No verb takes more than three arguments; a fourth is one too many.
    let args = [tokens.next(), tokens.next(), tokens.next(), tokens.next()];
    match (verb, args) {
        (Verb::Rec | Verb::RecX, [Some(users), Some(k), None, _]) => {
            let users = users
                .split(',')
                .map(|u| u.parse().map_err(|_| bad_arg("bad user id", u)))
                .collect::<Result<Vec<u32>, _>>()?;
            if users.len() > MAX_REC_USERS {
                let n = users.len();
                return Err(fail(format!(
                    "too many users in one {verb} ({n} > {MAX_REC_USERS})"
                )));
            }
            let k = k.parse().map_err(|_| bad_arg("bad k", k))?;
            if k > MAX_K {
                return Err(fail(format!("k too large ({k} > {MAX_K})")));
            }
            let exact = verb == Verb::RecX;
            Ok(Request::Rec { users, k, exact })
        }
        (Verb::Rec | Verb::RecX, [_, _, None, _]) => Err(fail(format!("{verb} needs <users> <k>"))),
        (Verb::Rec | Verb::RecX, _) => Err(fail(format!("{verb} takes exactly two arguments"))),
        (Verb::Put, [Some(user), Some(item), None, _]) => Ok(Request::Put {
            user: user.parse().map_err(|_| bad_arg("not an integer:", user))?,
            item: item.parse().map_err(|_| bad_arg("not an integer:", item))?,
        }),
        (Verb::Put, _) => Err(fail("usage: PUT <user> <item>".into())),
        (
            Verb::Replace,
            [Some(shard), replica @ Some(_), Some(addr), None]
            | [Some(shard), Some(addr), replica @ None, _],
        ) => Ok(Request::Replace {
            shard: shard.parse().map_err(|_| bad_arg("bad shard", shard))?,
            replica: match replica {
                Some(r) => r.parse().map_err(|_| bad_arg("bad replica", r))?,
                None => 0,
            },
            addr: addr.to_string(),
        }),
        (Verb::Replace, _) => Err(fail("REPLACE needs <shard> [<replica>] <addr>".into())),
        (Verb::Stats, _) => Ok(Request::Stats),
        (Verb::Ping, _) => Ok(Request::Ping),
        (Verb::Quit, _) => Ok(Request::Quit),
    }
}

/// The one refusal of a verb the port does not serve. `REPLACE` carries
/// the `admin` kind token ([`err_kind`]): only the router's loopback admin
/// listener serves it.
#[derive(Clone, Copy, Debug)]
pub struct Unserved(pub Verb);

impl fmt::Display for Unserved {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            verb @ Verb::Replace => write!(
                f,
                "admin {verb} is admin-only (connect to the admin listener)"
            ),
            verb => write!(f, "{verb} is not served on this port"),
        }
    }
}

/// The typed class of a router-originated `ERR` line, if any.
///
/// The router prefixes the errors *it* generates with a machine-readable
/// kind token — `ERR down …` (no serving-eligible replica for the owning
/// shard), `ERR deadline …` (the request's time budget was exhausted
/// across retry/failover), `ERR admin …` (an admin verb arrived on the
/// public port). Replica-produced `ERR` lines are relayed verbatim and
/// carry no kind token, so this returns `None` for them — which is
/// exactly how a client tells "the router gave up" apart from "the
/// replica answered with an application error".
pub fn err_kind(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("ERR ")?;
    let token = rest.split_ascii_whitespace().next()?;
    matches!(token, "down" | "deadline" | "admin").then_some(token)
}

/// One `STATS` line: `key=value` fields in the order they were added
/// (`Stats::default()` has none). Values are single tokens, so [`field`]
/// reads each one back.
#[derive(Debug, Default)]
pub struct Stats(Vec<(&'static str, String)>);

impl Stats {
    /// Appends `key=value`.
    pub fn with(mut self, key: &'static str, value: impl fmt::Display) -> Stats {
        self.0.push((key, value.to_string()));
        self
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("STATS")?;
        self.0
            .iter()
            .try_for_each(|(key, value)| write!(f, " {key}={value}"))
    }
}

/// The value of the first whitespace-separated `key=value` token of `line`
/// whose key is exactly `key` — the one reader of `STATS`, `OK` and
/// `READY` fields.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_ascii_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
}

/// Binds `addr` ([`net::listen`]) with the one dispatcher in front of the
/// per-connection handlers `make_handler` builds: it answers `PING`,
/// `QUIT` and unparsable lines itself, and any verb outside `serves` —
/// well-formed or not — with [`Unserved`]. The handler sees only requests
/// for verbs in `serves`.
pub fn listen<F, H>(
    addr: &str,
    thread_name: &str,
    serves: &'static [Verb],
    make_handler: F,
) -> io::Result<ListenerHandle>
where
    F: Fn() -> H + Send + 'static,
    H: FnMut(Request, &mut Reply) + Send + 'static,
{
    net::listen(addr, thread_name, move || {
        let mut handler = make_handler();
        move |line: &str, reply: &mut Reply| {
            let request = parse_request(line);
            let verb = request.as_ref().map_or_else(|e| e.verb, |r| Some(r.verb()));
            match (verb.filter(|v| !serves.contains(v)), request) {
                (_, Ok(Request::Ping)) => reply.line("PONG"),
                (_, Ok(Request::Quit)) => {
                    reply.line("BYE");
                    return Next::Close;
                }
                (Some(verb), _) => reply.line(format_args!("ERR {}", Unserved(verb))),
                (None, Ok(request)) => handler(request, reply),
                (None, Err(e)) => reply.line(format_args!("ERR {e}")),
            }
            Next::Continue
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphaug_rng::prop::Gen;

    fn rec(users: &[u32], k: usize, exact: bool) -> Request {
        Request::Rec {
            users: users.to_vec(),
            k,
            exact,
        }
    }

    #[test]
    fn verbs_are_spelled_in_enum_order() {
        for (i, (verb, _)) in VERBS.iter().enumerate() {
            assert_eq!(*verb as usize, i);
        }
    }

    #[test]
    fn request_parsing_round_trips() {
        assert_eq!(parse_request("REC 4 10"), Ok(rec(&[4], 10, false)));
        assert_eq!(
            parse_request("REC 1,2,3 20"),
            Ok(rec(&[1, 2, 3], 20, false))
        );
        assert_eq!(parse_request("RECX 1,2 5"), Ok(rec(&[1, 2], 5, true)));
        assert_eq!(parse_request("STATS"), Ok(Request::Stats));
        assert_eq!(parse_request("PING"), Ok(Request::Ping));
        assert_eq!(parse_request("QUIT"), Ok(Request::Quit));
        assert_eq!(
            parse_request("PUT 3 4"),
            Ok(Request::Put { user: 3, item: 4 })
        );
        let replace = |replica| Request::Replace {
            shard: 1,
            replica,
            addr: "127.0.0.1:9".into(),
        };
        assert_eq!(parse_request("REPLACE 1 127.0.0.1:9"), Ok(replace(0)));
        assert_eq!(parse_request("REPLACE 1 2 127.0.0.1:9"), Ok(replace(2)));
        assert!(parse_request("").is_err());
        assert!(parse_request("REC").is_err());
        assert!(parse_request("REC x 5").is_err());
        assert!(parse_request("REC 1 x").is_err());
        assert!(parse_request("REC 1 2 3").is_err());
        assert!(parse_request("NOPE 1 2").is_err());
        // RECX shares REC's validation, including its error surface.
        assert!(parse_request("RECX").is_err());
        assert!(parse_request("RECX x 5").is_err());
        // Verbs match whole tokens: a verb that merely starts with a known
        // one is unknown, whatever follows it.
        for line in [
            "RECXY 1 5",
            "REPLACE0 1 127.0.0.1:1",
            "REPLACEX 0 127.0.0.1:1",
            "REPLACE_ 0 1 127.0.0.1:1",
            "PUTS 1 2",
            "STATSX",
        ] {
            let verb = line.split(' ').next().unwrap();
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.verb, None, "{line}");
            assert_eq!(err.message, format!("unknown command {verb:?}"));
        }
    }

    #[test]
    fn error_texts_are_the_ones_the_ports_answered_before() {
        let err = |line: &str| parse_request(line).unwrap_err().to_string();
        assert_eq!(err("  "), "empty request");
        assert_eq!(err("NOPE 1"), "unknown command \"NOPE\"");
        assert_eq!(err("REC"), "REC needs <users> <k>");
        assert_eq!(err("RECX 1"), "RECX needs <users> <k>");
        assert_eq!(err("REC 1 2 3"), "REC takes exactly two arguments");
        assert_eq!(err("REC 1,x 5"), "bad user id \"x\"");
        assert_eq!(err("REC 1 five"), "bad k \"five\"");
        assert_eq!(err("REC 1 4097"), "k too large (4097 > 4096)");
        let users = vec!["1"; MAX_REC_USERS + 1].join(",");
        assert_eq!(
            err(&format!("RECX {users} 5")),
            "too many users in one RECX (1025 > 1024)"
        );
        assert_eq!(err("PUT 1"), "usage: PUT <user> <item>");
        assert_eq!(err("PUT 1 2 3"), "usage: PUT <user> <item>");
        assert_eq!(err("PUT a b"), "not an integer: \"a\"");
        assert_eq!(err("PUT 1 -2"), "not an integer: \"-2\"");
        assert_eq!(err("REPLACE"), "REPLACE needs <shard> [<replica>] <addr>");
        assert_eq!(
            err("REPLACE 0 1 a:1 extra"),
            "REPLACE needs <shard> [<replica>] <addr>"
        );
        assert_eq!(err("REPLACE x a:1"), "bad shard \"x\"");
        assert_eq!(err("REPLACE 0 y a:1"), "bad replica \"y\"");
    }

    #[test]
    fn truncated_and_malformed_requests_yield_typed_errors() {
        // Truncated lines at every prefix of a valid request.
        let full = "REC 1,2,3 20";
        for end in 0..full.len() {
            let _ = parse_request(&full[..end]); // must not panic
        }
        assert!(parse_request("REC").is_err());
        assert!(parse_request("REC 1,2,").is_err(), "trailing comma");
        assert!(parse_request("REC ,1 5").is_err(), "leading comma");
        assert!(parse_request("REC 1,,2 5").is_err(), "empty id");
        assert!(parse_request("REC -1 5").is_err(), "negative user");
        assert!(parse_request("REC 4294967296 5").is_err(), "user > u32");
        assert!(parse_request("REC 1 -5").is_err(), "negative k");
        assert!(parse_request("REC 1 5.0").is_err(), "non-integer k");
        assert!(
            parse_request("rec 1 5").is_err(),
            "verbs are case-sensitive"
        );
        assert!(parse_request("  \t ").is_err(), "whitespace only");
    }

    #[test]
    fn oversized_requests_are_rejected_not_allocated() {
        // k beyond the cap, and k beyond usize entirely.
        assert!(parse_request(&format!("REC 1 {}", MAX_K + 1)).is_err());
        assert!(parse_request("REC 1 99999999999999999999999999").is_err());
        assert_eq!(
            parse_request(&format!("REC 1 {MAX_K}")),
            Ok(rec(&[1], MAX_K, false))
        );
        // A user batch one past the cap fails; at the cap it parses.
        let ids = |n: usize| {
            (0..n as u32)
                .map(|u| u.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        assert!(parse_request(&format!("REC {} 5", ids(MAX_REC_USERS + 1))).is_err());
        assert!(parse_request(&format!("REC {} 5", ids(MAX_REC_USERS))).is_ok());
    }

    /// A random request of any variant, edge values included.
    fn any_request(g: &mut Gen) -> Request {
        let edge = |g: &mut Gen, max: u64| match g.bounded_u64(3) {
            0 => 0,
            1 => max,
            _ => g.bounded_u64(max),
        };
        match g.bounded_u64(7) {
            0 | 1 => {
                let n = g.len_in(1, 16);
                Request::Rec {
                    users: g.vec_of(n, |g| edge(g, u32::MAX as u64) as u32),
                    k: edge(g, MAX_K as u64) as usize,
                    exact: g.bounded_u64(2) == 1,
                }
            }
            2 => Request::Stats,
            3 => Request::Ping,
            4 => Request::Quit,
            5 => Request::Put {
                user: edge(g, u64::MAX),
                item: edge(g, u64::MAX),
            },
            _ => Request::Replace {
                shard: edge(g, usize::MAX as u64) as usize,
                replica: edge(g, usize::MAX as u64) as usize,
                addr: ["127.0.0.1:1", "[::1]:65535", "host.example:80", "0"]
                    [g.bounded_u64(4) as usize]
                    .into(),
            },
        }
    }

    #[test]
    fn every_request_round_trips_through_its_rendering() {
        graphaug_rng::prop::check("proto_request_round_trip", 512, |g| {
            let request = any_request(g);
            let line = request.to_string();
            graphaug_rng::prop_assert_eq!(parse_request(&line), Ok(request.clone()));
            graphaug_rng::prop_assert_eq!(
                Some(request.verb()),
                parse_request(&line).ok().map(|r| r.verb())
            );
            Ok(())
        });
    }

    #[test]
    fn mutated_valid_lines_yield_ok_or_a_typed_error_never_a_panic() {
        graphaug_rng::prop::check("proto_mutations_never_panic", 256, |g| {
            let line = any_request(g).to_string();
            // Truncation at every prefix (on char boundaries: the lines are
            // ASCII).
            for end in 0..=line.len() {
                let _ = parse_request(&line[..end]);
            }
            // Byte flips: every position, one random bit each.
            for pos in 0..line.len() {
                let mut bytes = line.clone().into_bytes();
                bytes[pos] ^= 1 << g.bounded_u64(7);
                let _ = parse_request(&String::from_utf8(bytes).expect("ASCII stays ASCII"));
            }
            // A duplicated and a dropped token.
            let tokens: Vec<&str> = line.split(' ').collect();
            let at = g.bounded_u64(tokens.len() as u64) as usize;
            let mut dup = tokens.clone();
            dup.insert(at, tokens[at]);
            let mut dropped = tokens.clone();
            dropped.remove(at);
            for mutated in [dup.join(" "), dropped.join(" ")] {
                // A typed error names the verb whenever the verb token
                // survived.
                if let Err(e) = parse_request(&mutated) {
                    let named = VERBS
                        .iter()
                        .any(|(_, s)| mutated.split(' ').next() == Some(*s));
                    graphaug_rng::prop_assert_eq!(e.verb.is_some(), named);
                }
            }
            Ok(())
        });
    }

    #[test]
    fn arbitrary_garbage_never_panics_the_parser() {
        graphaug_rng::prop::check("proto_parse_no_panic", 256, |g| {
            let len = g.len_in(0, 64);
            let line: String = (0..len)
                .map(|_| {
                    // Bias toward protocol-adjacent bytes so the fuzz hits
                    // the interesting branches, not just the unknown-verb
                    // arm.
                    let alphabet = b"REC STAQUIPNGXLU0123456789,.-: \t";
                    alphabet[g.bounded_u64(alphabet.len() as u64) as usize] as char
                })
                .collect();
            // The property is "returns, never panics"; both Ok and Err are
            // acceptable outcomes.
            let _ = parse_request(&line);
            Ok(())
        });
    }

    #[test]
    fn stats_fields_read_back_through_field() {
        const KEYS: [&str; 6] = ["gen", "users", "items", "s", "gen_x", "replica_states"];
        graphaug_rng::prop::check("proto_stats_round_trip", 256, |g| {
            let n = g.len_in(0, KEYS.len());
            let mut stats = Stats::default();
            let mut expect = Vec::new();
            for key in &KEYS[..n] {
                let value = match g.bounded_u64(3) {
                    0 => g.bounded_u64(u64::MAX).to_string(),
                    1 => "-".to_string(),
                    _ => "up|down,up=x".to_string(),
                };
                stats = stats.with(key, &value);
                expect.push((*key, value));
            }
            let line = stats.to_string();
            graphaug_rng::prop_assert!(line.starts_with("STATS"));
            for (key, value) in &expect {
                graphaug_rng::prop_assert_eq!(field(&line, key), Some(value.as_str()));
            }
            for key in &KEYS[n..] {
                graphaug_rng::prop_assert_eq!(field(&line, key), None);
            }
            Ok(())
        });
        assert_eq!(
            Stats::default().with("a", 1).with("b", "-").to_string(),
            "STATS a=1 b=-"
        );
        assert_eq!(Stats::default().to_string(), "STATS");
    }

    #[test]
    fn err_kinds_distinguish_router_errors_from_relayed_ones() {
        assert_eq!(err_kind("ERR down user 5: shard 1 down"), Some("down"));
        assert_eq!(
            err_kind("ERR deadline user 5: budget 50ms exhausted at shard 1"),
            Some("deadline")
        );
        assert_eq!(err_kind("ERR admin REPLACE is admin-only"), Some("admin"));
        assert_eq!(
            err_kind(&format!("ERR {}", Unserved(Verb::Replace))),
            Some("admin")
        );
        // Relayed replica errors carry no kind token, and neither does the
        // refusal of a non-admin verb.
        assert_eq!(err_kind("ERR unknown user 999999"), None);
        assert_eq!(err_kind("ERR k too large (9999 > 4096)"), None);
        assert_eq!(err_kind(&format!("ERR {}", Unserved(Verb::Put))), None);
        assert_eq!(err_kind("OK gen=1 user=2 k=3 items= bits="), None);
        assert_eq!(err_kind("ERR "), None);
    }
}
