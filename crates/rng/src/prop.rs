//! A small in-repo property-testing runner (the workspace's `proptest`
//! replacement).
//!
//! Design, in order of what mattered:
//!
//! 1. **Hermetic** — no external crates, so the tier-1 gate runs fully
//!    offline.
//! 2. **Reproducible** — each case's seed derives deterministically from a
//!    base seed (`GRAPHAUG_PROP_SEED` env override) and the case index; a
//!    failure report prints the exact environment line that replays it.
//! 3. **Shrinking by halving** — generators draw collection *lengths*
//!    through [`Gen::len_in`], and on failure the runner replays the same
//!    seed with the length budget halved repeatedly, reporting the smallest
//!    budget that still fails. This is deliberately cruder than proptest's
//!    per-value simplification but catches the common case (big random
//!    input → small counterexample) with ~50 lines instead of a crate.
//!
//! A property is a closure `Fn(&mut Gen) -> Result<(), String>`; the
//! `prop_assert!` / `prop_assert_eq!` / `prop_assume!` macros (exported at
//! the crate root) keep test bodies close to their proptest originals.

use crate::{splitmix64_mix, StdRng, Xoshiro256PlusPlus};

/// Outcome of one property evaluation.
pub type PropResult = Result<(), String>;

/// Default number of cases per property (overridable per call site and via
/// `GRAPHAUG_PROP_CASES`).
pub const DEFAULT_CASES: u64 = 64;

/// Maximum number of halvings attempted while shrinking.
const MAX_SHRINK_LEVEL: u32 = 10;

/// Case-input generator handed to properties: a seeded RNG plus a size
/// budget the shrinker can squeeze.
pub struct Gen {
    rng: StdRng,
    /// Number of times collection-length budgets are halved (0 = full size).
    shrink_level: u32,
}

impl Gen {
    fn new(seed: u64, shrink_level: u32) -> Self {
        Gen {
            rng: Xoshiro256PlusPlus::seed_from_u64(seed),
            shrink_level,
        }
    }

    /// Draws a collection length in `[lo, hi)`, scaled down by the current
    /// shrink level: level `k` halves the width `k` times (never below
    /// `lo`). Route every "how many elements" decision through this so
    /// failures shrink toward small inputs.
    pub fn len_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty length range");
        let width = (hi - lo) >> self.shrink_level;
        if width == 0 {
            lo
        } else {
            self.rng.random_range(lo..lo + width + 1).min(hi - 1)
        }
    }

    /// A vector of `n` draws from `f`.
    pub fn vec_of<T>(&mut self, n: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..n).map(|_| f(self)).collect()
    }

    /// `n` floats in `(-2, 2)` salted with `+0.0`, `-0.0` and exactly
    /// cancelling neighbours — the input of the bit-for-bit kernel specs:
    /// signed zeros and zero partial sums are where a changed association
    /// or a dropped `0.0 + x` step shows in the output bits without any
    /// rounding having to differ.
    pub fn signed_zero_f32s(&mut self, n: usize) -> Vec<f32> {
        let mut v = self.vec_of(n, |g| match g.random_range(0u32..8) {
            0 => 0.0,
            1 => -0.0,
            _ => g.random_range(-2.0f32..2.0),
        });
        for i in 1..n {
            if self.random_range(0u32..6) == 0 {
                v[i] = -v[i - 1];
            }
        }
        v
    }
}

// Value draws go straight through to the RNG (`g.random_range(-2.0..2.0)`),
// keeping property bodies as terse as the proptest strategies they replace.
impl std::ops::Deref for Gen {
    type Target = StdRng;
    fn deref(&self) -> &StdRng {
        &self.rng
    }
}
impl std::ops::DerefMut for Gen {
    fn deref_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

fn base_seed() -> u64 {
    match std::env::var("GRAPHAUG_PROP_SEED") {
        Ok(v) => {
            let v = v.trim();
            let parsed = if let Some(hex) = v.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
            } else {
                v.parse::<u64>()
            };
            parsed.unwrap_or_else(|_| panic!("unparsable GRAPHAUG_PROP_SEED: {v:?}"))
        }
        // "graphaug" in ASCII — an arbitrary but stable default.
        Err(_) => 0x6772_6170_6861_7567,
    }
}

fn case_count(requested: u64) -> u64 {
    std::env::var("GRAPHAUG_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(requested)
}

/// Runs `prop` over `cases` seeded inputs, shrinking and panicking with a
/// replay line on the first falsified case.
pub fn check(name: &str, cases: u64, prop: impl Fn(&mut Gen) -> PropResult) {
    let base = base_seed();
    let cases = case_count(cases);
    for case in 0..cases {
        let seed = splitmix64_mix(base ^ splitmix64_mix(case));
        if let Err(msg) = prop(&mut Gen::new(seed, 0)) {
            // Shrink: replay the identical stream with the length budget
            // halved until the property passes again.
            let mut level = 0;
            let mut smallest = msg;
            for candidate in 1..=MAX_SHRINK_LEVEL {
                match prop(&mut Gen::new(seed, candidate)) {
                    Err(m) => {
                        level = candidate;
                        smallest = m;
                    }
                    Ok(()) => break,
                }
            }
            panic!(
                "property `{name}` falsified at case {case}/{cases} \
                 (case seed {seed:#018x}, shrink level {level}): {smallest}\n\
                 replay with: GRAPHAUG_PROP_SEED={base:#x} cargo test --offline"
            );
        }
    }
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "why {x}")` — fail the
/// current property with context instead of panicking mid-case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {}: {} ({}:{})",
                stringify!($cond),
                format!($($fmt)+),
                file!(),
                line!()
            ));
        }
    };
}

/// `prop_assert_eq!(a, b)` — equality assertion with both sides in the
/// failure message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?}, {}:{})",
                stringify!($left),
                stringify!($right),
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
}

/// `prop_assume!(cond)` — silently skip inputs that don't satisfy a
/// precondition (counts as a pass, like proptest's rejection).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut ran = 0u64;
        let counter = std::cell::Cell::new(0u64);
        check("trivially_true", 16, |g| {
            counter.set(counter.get() + 1);
            let n = g.len_in(1, 50);
            prop_assert!((1..50).contains(&n), "n {n}");
            Ok(())
        });
        ran += counter.get();
        assert_eq!(ran, 16);
    }

    #[test]
    fn len_in_respects_bounds_at_every_shrink_level() {
        for level in 0..=MAX_SHRINK_LEVEL {
            let mut g = Gen::new(99, level);
            for _ in 0..200 {
                let n = g.len_in(3, 120);
                assert!((3..120).contains(&n), "level {level} gave {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "falsified")]
    fn failing_property_reports_and_panics() {
        check("always_false", 4, |g| {
            let n = g.len_in(1, 64);
            let v = g.vec_of(n, |g| g.random_range(0.0f32..1.0));
            prop_assert!(v.is_empty(), "vec had {} elements", v.len());
            Ok(())
        });
    }

    #[test]
    fn shrinking_reduces_reported_length() {
        // Capture the panic message and confirm the shrink level moved.
        let result = std::panic::catch_unwind(|| {
            check("too_long", 1, |g| {
                let n = g.len_in(1, 1024);
                prop_assert!(n == 0, "length was {n}"); // always fails
                Ok(())
            });
        });
        let err = result.expect_err("property must fail");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(msg.contains("shrink level"), "message: {msg}");
        assert!(msg.contains("GRAPHAUG_PROP_SEED"), "message: {msg}");
    }
}
