//! The serving half of the wire protocol: the `OK` line `REC` and `RECX`
//! answer with, one per requested user in request order. The rest — request
//! parser and renderer, dispatcher, `STATS` codec, field reader — is
//! [`graphaug_ingest::proto`] (DESIGN.md, "One wire protocol"), re-exported
//! here under the names clients have always used.
//!
//! ```text
//! OK gen=<g> user=<u> k=<k> items=<i1,i2,...> bits=<hex32,hex32,...>
//! ```
//!
//! `bits` carries each score's **f32 bit pattern** in hex — the same
//! bit-exact rendering idea as `EvalResult::bitline()` — so a client (or
//! the parity harness) can assert served scores equal offline scores
//! exactly, with no decimal round-trip in between. On a replica without an
//! (enabled) ANN index `REC` and `RECX` answer byte-identically.

pub use graphaug_ingest::proto::*;

use crate::engine::Recommendation;
use crate::tables::ScoredItem;

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

/// Parses an `OK` line produced by [`ok_line`]. Returns `None` on any
/// malformed field (clients treat that as a protocol error).
pub fn parse_ok_line(line: &str) -> Option<OkLine> {
    if !line.starts_with("OK ") {
        return None;
    }
    let gen = field(line, "gen")?.parse().ok()?;
    let user = field(line, "user")?.parse().ok()?;
    let k = field(line, "k")?.parse().ok()?;
    let items_s = field(line, "items")?;
    let bits_s = field(line, "bits")?;
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
    fn malformed_ok_lines_are_rejected() {
        assert!(parse_ok_line("ERR nope").is_none());
        assert!(parse_ok_line("OK gen=1 user=2").is_none());
        assert!(parse_ok_line("OK gen=1 user=2 k=3 items=1,2 bits=3f800000").is_none());
        assert!(parse_ok_line("OK gen=1 user=2 k=3 items= bits=3f800000").is_none());
    }
}
