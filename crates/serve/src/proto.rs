//! The serving wire protocol: one line per request, one line per response,
//! ASCII only, no external dependencies on either side.
//!
//! Requests:
//!
//! ```text
//! REC <user>[,<user>...] <k>    top-K lists (quant/IVF fast path when enabled)
//! RECX <user>[,<user>...] <k>   top-K through the exact-parity oracle
//! STATS                         serving counters + table shape
//! PING                          liveness probe
//! QUIT                          close the connection
//! ```
//!
//! `REC` and `RECX` answer with identical `OK` line shapes; the verbs
//! differ only in which scorer runs. On a replica without an (enabled)
//! ANN index the two are byte-identical — `RECX` exists so clients and
//! the parity harness can pin the exact ranking even while the fast path
//! serves production traffic.
//!
//! Responses (one line per requested user, in request order):
//!
//! ```text
//! OK gen=<g> user=<u> k=<k> items=<i1,i2,...> bits=<hex32,hex32,...>
//! ERR <message>
//! STATS gen=<g> users=<n> items=<n> requests=<n> cache_hits=<n> cache_misses=<n> reloads=<n> reload_errors=<n> ann=<on|off> ann_probes=<n> ann_cands=<n> exact_fallbacks=<n> recall_sampled=<r|-> quant=<on|off> table_bytes=<n> quant_served=<n> drift_sampled=<r|-> reload_skips=<n> ingested=<n> log_offset=<n> finetunes=<n>
//! PONG
//! BYE
//! ```
//!
//! `bits` carries each score's **f32 bit pattern** in hex — the same
//! bit-exact rendering idea as `EvalResult::bitline()` — so a client (or
//! the parity harness) can assert served scores equal offline scores
//! exactly, with no decimal round-trip in between.

use crate::engine::Recommendation;
use crate::tables::ScoredItem;

/// Largest `k` a single `REC` may ask for. Anything above this is a typed
/// `ERR`, so a hostile `REC 0 99999999` can never turn into an oversized
/// allocation server-side.
pub const MAX_K: usize = 4096;

/// Largest user batch a single `REC` line may carry.
pub const MAX_REC_USERS: usize = 1024;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Top-`k` lists for each listed user.
    Rec {
        /// Requested users, served in order.
        users: Vec<u32>,
        /// Cutoff shared by the batch.
        k: usize,
        /// True for `RECX`: force the exact-parity scorer even when an ANN
        /// index is enabled.
        exact: bool,
    },
    /// Serving counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Close the connection.
    Quit,
}

/// Parses one request line. Errors are human-readable fragments suitable
/// for an `ERR` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut parts = line.split_ascii_whitespace();
    match parts.next() {
        Some(verb @ ("REC" | "RECX")) => {
            let users_part = parts
                .next()
                .ok_or_else(|| format!("{verb} needs <users> <k>"))?;
            let k_part = parts
                .next()
                .ok_or_else(|| format!("{verb} needs <users> <k>"))?;
            if parts.next().is_some() {
                return Err(format!("{verb} takes exactly two arguments"));
            }
            let users = users_part
                .split(',')
                .map(|u| u.parse::<u32>().map_err(|_| format!("bad user id {u:?}")))
                .collect::<Result<Vec<u32>, String>>()?;
            if users.is_empty() {
                return Err(format!("{verb} needs at least one user"));
            }
            if users.len() > MAX_REC_USERS {
                return Err(format!(
                    "too many users in one {verb} ({} > {MAX_REC_USERS})",
                    users.len()
                ));
            }
            let k = k_part
                .parse::<usize>()
                .map_err(|_| format!("bad k {k_part:?}"))?;
            if k > MAX_K {
                return Err(format!("k too large ({k} > {MAX_K})"));
            }
            Ok(Request::Rec {
                users,
                k,
                exact: verb == "RECX",
            })
        }
        Some("STATS") => Ok(Request::Stats),
        Some("PING") => Ok(Request::Ping),
        Some("QUIT") => Ok(Request::Quit),
        Some(other) => Err(format!("unknown command {other:?}")),
        None => Err("empty request".into()),
    }
}

/// Renders a served recommendation as its `OK` line, written digit by
/// digit into one buffer sized up front (no per-item `String`).
pub fn ok_line(rec: &Recommendation) -> String {
    // 20 digits per `u64`, 10 per item id plus 8 hex digits and 2 commas.
    let mut line = String::with_capacity(32 + 3 * 20 + rec.items.len() * 20);
    line.push_str("OK gen=");
    push_decimal(&mut line, rec.generation);
    line.push_str(" user=");
    push_decimal(&mut line, rec.user as u64);
    line.push_str(" k=");
    push_decimal(&mut line, rec.k as u64);
    line.push_str(" items=");
    for (i, s) in rec.items.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        push_decimal(&mut line, s.item as u64);
    }
    line.push_str(" bits=");
    for (i, s) in rec.items.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let bits = s.score.to_bits();
        for shift in (0..32).step_by(4).rev() {
            line.push(HEX_DIGITS[(bits >> shift) as usize & 0xf] as char);
        }
    }
    line
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Appends `v` in decimal, as `{}` renders it.
fn push_decimal(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        out.push(d as char);
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

/// A parsed `OK` response line (client side: loadgen and the parity
/// harness).
#[derive(Clone, Debug, PartialEq)]
pub struct OkLine {
    /// Serving generation.
    pub gen: u64,
    /// User the list is for.
    pub user: u32,
    /// Requested cutoff.
    pub k: usize,
    /// Ranked items with scores reconstructed from their bit patterns.
    pub items: Vec<ScoredItem>,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_ascii_whitespace()
        .find_map(|tok| tok.strip_prefix(key))
}

/// Parses an `OK` line produced by [`ok_line`]. Returns `None` on any
/// malformed field (clients treat that as a protocol error).
pub fn parse_ok_line(line: &str) -> Option<OkLine> {
    if !line.starts_with("OK ") {
        return None;
    }
    let gen = field(line, "gen=")?.parse().ok()?;
    let user = field(line, "user=")?.parse().ok()?;
    let k = field(line, "k=")?.parse().ok()?;
    let items_s = field(line, "items=")?;
    let bits_s = field(line, "bits=")?;
    let mut items = Vec::new();
    if !items_s.is_empty() {
        let ids = items_s.split(',');
        let mut bits = bits_s.split(',');
        for id in ids {
            let item = id.parse().ok()?;
            let b = u32::from_str_radix(bits.next()?, 16).ok()?;
            items.push(ScoredItem {
                item,
                score: f32::from_bits(b),
            });
        }
        if bits.next().is_some() {
            return None; // more scores than items
        }
    } else if !bits_s.is_empty() {
        return None;
    }
    Some(OkLine {
        gen,
        user,
        k,
        items,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn request_parsing_round_trips() {
        assert_eq!(
            parse_request("REC 4 10"),
            Ok(Request::Rec {
                users: vec![4],
                k: 10,
                exact: false
            })
        );
        assert_eq!(
            parse_request("REC 1,2,3 20"),
            Ok(Request::Rec {
                users: vec![1, 2, 3],
                k: 20,
                exact: false
            })
        );
        assert_eq!(
            parse_request("RECX 1,2 5"),
            Ok(Request::Rec {
                users: vec![1, 2],
                k: 5,
                exact: true
            })
        );
        assert_eq!(parse_request("STATS"), Ok(Request::Stats));
        assert_eq!(parse_request("PING"), Ok(Request::Ping));
        assert_eq!(parse_request("QUIT"), Ok(Request::Quit));
        assert!(parse_request("").is_err());
        assert!(parse_request("REC").is_err());
        assert!(parse_request("REC x 5").is_err());
        assert!(parse_request("REC 1 x").is_err());
        assert!(parse_request("REC 1 2 3").is_err());
        assert!(parse_request("NOPE 1 2").is_err());
        // RECX shares REC's validation, including its error surface.
        assert!(parse_request("RECX").is_err());
        assert!(parse_request("RECX x 5").is_err());
        assert!(
            parse_request("RECXY 1 5").is_err(),
            "verb must match exactly"
        );
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
            Ok(Request::Rec {
                users: vec![1],
                k: MAX_K,
                exact: false
            })
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

    #[test]
    fn arbitrary_garbage_never_panics_the_parser() {
        graphaug_rng::prop::check("proto_parse_no_panic", 256, |g| {
            let len = g.len_in(0, 64);
            let line: String = (0..len)
                .map(|_| {
                    // Bias toward protocol-adjacent bytes so the fuzz hits
                    // the interesting branches, not just the unknown-verb
                    // arm.
                    let alphabet = b"REC STAQUIPNG0123456789,.- \t";
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
    fn ok_line_round_trips_bit_exactly() {
        let rec = Recommendation {
            user: 7,
            k: 3,
            generation: 42,
            items: Arc::new(vec![
                ScoredItem {
                    item: 5,
                    score: 1.25,
                },
                ScoredItem {
                    item: 0,
                    score: f32::from_bits(0x3f80_0001), // 1.0 + 1 ULP
                },
                ScoredItem {
                    item: 9,
                    score: -0.0,
                },
            ]),
            from_cache: false,
        };
        let line = ok_line(&rec);
        let parsed = parse_ok_line(&line).expect("parses");
        assert_eq!(parsed.gen, 42);
        assert_eq!(parsed.user, 7);
        assert_eq!(parsed.k, 3);
        assert_eq!(parsed.items.len(), 3);
        for (a, b) in parsed.items.iter().zip(rec.items.iter()) {
            assert_eq!(a.item, b.item);
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "bit-exact scores");
        }
    }

    #[test]
    fn ok_line_is_byte_identical_to_the_format_rendering() {
        fn formatted(rec: &Recommendation) -> String {
            let items: Vec<String> = rec.items.iter().map(|s| s.item.to_string()).collect();
            let bits: Vec<String> = rec
                .items
                .iter()
                .map(|s| format!("{:08x}", s.score.to_bits()))
                .collect();
            format!(
                "OK gen={} user={} k={} items={} bits={}",
                rec.generation,
                rec.user,
                rec.k,
                items.join(","),
                bits.join(",")
            )
        }
        // -inf, -0.0, 0.0, +inf, 1.0 — then random bit patterns.
        let special = [0xff80_0000u32, 0x8000_0000, 0, 0x7f80_0000, 0x3f80_0000];
        graphaug_rng::prop::check("proto_ok_line_bytes", 256, |g| {
            let n = g.len_in(0, 12);
            let items = g.vec_of(n, |g| ScoredItem {
                item: match g.bounded_u64(4) {
                    0 => u32::MAX,
                    1 => g.bounded_u64(10) as u32,
                    _ => g.bounded_u64(1 << 32) as u32,
                },
                score: f32::from_bits(match g.bounded_u64(2) {
                    0 => special[g.bounded_u64(special.len() as u64) as usize],
                    _ => g.bounded_u64(1 << 32) as u32,
                }),
            });
            let rec = Recommendation {
                user: [0, u32::MAX, g.bounded_u64(1 << 32) as u32][g.bounded_u64(3) as usize],
                k: [0, n, MAX_K][g.bounded_u64(3) as usize],
                generation: [0, u64::MAX, g.bounded_u64(1 << 40)][g.bounded_u64(3) as usize],
                items: Arc::new(items),
                from_cache: false,
            };
            graphaug_rng::prop_assert_eq!(ok_line(&rec), formatted(&rec));
            Ok(())
        });
    }

    #[test]
    fn empty_recommendation_round_trips() {
        let rec = Recommendation {
            user: 1,
            k: 0,
            generation: 0,
            items: Arc::new(Vec::new()),
            from_cache: false,
        };
        let parsed = parse_ok_line(&ok_line(&rec)).expect("parses");
        assert!(parsed.items.is_empty());
    }

    #[test]
    fn err_kinds_distinguish_router_errors_from_relayed_ones() {
        assert_eq!(err_kind("ERR down user 5: shard 1 down"), Some("down"));
        assert_eq!(
            err_kind("ERR deadline user 5: budget 50ms exhausted at shard 1"),
            Some("deadline")
        );
        assert_eq!(err_kind("ERR admin REPLACE is admin-only"), Some("admin"));
        // Relayed replica errors carry no kind token.
        assert_eq!(err_kind("ERR unknown user 999999"), None);
        assert_eq!(err_kind("ERR k too large (9999 > 4096)"), None);
        assert_eq!(err_kind("OK gen=1 user=2 k=3 items= bits="), None);
        assert_eq!(err_kind("ERR "), None);
    }

    #[test]
    fn malformed_ok_lines_are_rejected() {
        assert!(parse_ok_line("ERR nope").is_none());
        assert!(parse_ok_line("OK gen=1 user=2").is_none());
        assert!(parse_ok_line("OK gen=1 user=2 k=3 items=1,2 bits=3f800000").is_none());
        assert!(parse_ok_line("OK gen=1 user=2 k=3 items= bits=3f800000").is_none());
    }
}
