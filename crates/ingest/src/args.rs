//! The one front door every binary in the workspace parses `argv` through.
//!
//! [`run`] reads the process arguments, hands the body an [`Args`], and
//! turns what comes back into the exit code: a usage error ([`ArgError`])
//! prints `bin: <error>` plus the usage line and exits 2, any other
//! failure prints `bin: <error>` and exits 1. [`Args`] is pull-style: the
//! body asks for its leading positionals, then for each flag by name —
//! one line per flag, parsed straight into the field's type — and
//! [`Args::finish`] refuses whatever nobody asked for. DESIGN.md ("One
//! front door") has the contract and why this is not a declarative table.
//! It lives here, beside [`crate::net`], because this is the lowest crate
//! every flag-taking binary already depends on.

use std::fmt::{self, Display};
use std::process::ExitCode;
use std::str::FromStr;

/// Why the argument list was rejected. Typed so tests assert the
/// *category* of refusal rather than string-matching, and so every bad
/// invocation dies before the program does any work.
#[derive(Debug, PartialEq)]
pub enum ArgError {
    /// A required positional (or a flag the binary cannot run without) is
    /// absent; carries its spelling in the usage line.
    Missing(&'static str),
    /// A `--flag` stands where a positional was expected.
    FlagForPositional {
        /// The positional's name as the usage line spells it.
        name: &'static str,
        /// The flag found in its place.
        got: String,
    },
    /// A flag that wants a value hit end-of-argv or another `--flag`.
    MissingValue(&'static str),
    /// A value failed to parse into its field's type, or broke a rule only
    /// its binary knows (`--ann-nlists` without `--ann`).
    Invalid {
        /// Which flag (or `<positional>`).
        flag: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// An [`Args::at_least`] flag was given `0`.
    BelowMinimum(&'static str),
    /// A flag appears more than once.
    Repeated(&'static str),
    /// A token no positional or flag claimed.
    Unknown(String),
}

impl ArgError {
    /// An [`ArgError::Invalid`] for `flag` (or `<positional>`).
    pub fn invalid(flag: &'static str, reason: impl Into<String>) -> ArgError {
        let reason = reason.into();
        ArgError::Invalid { flag, reason }
    }
}

impl Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Missing(name) => write!(f, "missing {name}"),
            ArgError::FlagForPositional { name, got } => {
                write!(f, "expected {name}, got flag {got:?}")
            }
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::Invalid { flag, reason } => write!(f, "{flag}: {reason}"),
            ArgError::BelowMinimum(flag) => write!(f, "{flag} must be at least 1"),
            ArgError::Repeated(flag) => write!(f, "{flag} given more than once"),
            ArgError::Unknown(tok) if tok.starts_with("--") => write!(f, "unknown flag {tok:?}"),
            ArgError::Unknown(tok) => write!(f, "unexpected argument {tok:?}"),
        }
    }
}

/// Everything after `argv[0]`. A token starting with `--` is always a
/// flag, never a value (`-1` and a quoted `"serve_main ck --quant"` are
/// values), so the result does not depend on the order flags are given
/// in or asked for in.
pub struct Args {
    /// `None` marks a token already claimed; it still separates its
    /// neighbours, so a flag can never adopt a value across a gap.
    tokens: Vec<Option<String>>,
    /// Index of the next positional.
    cursor: usize,
}

impl Args {
    /// Wraps an argument list (tests drive this directly; binaries get
    /// theirs from [`run`]).
    pub fn new(tokens: impl IntoIterator<Item = impl Into<String>>) -> Args {
        Args {
            tokens: tokens.into_iter().map(|t| Some(t.into())).collect(),
            cursor: 0,
        }
    }

    /// The next leading positional, parsed into `T`. `name` is spelled as
    /// in the usage line (`"<addr>"`). A failure claims nothing, so an
    /// optional trailing positional is `positional(..).ok()`.
    pub fn positional<T: FromStr<Err: Display>>(
        &mut self,
        name: &'static str,
    ) -> Result<T, ArgError> {
        let tok = match self.tokens.get(self.cursor) {
            Some(Some(tok)) if tok.starts_with("--") => {
                let got = tok.clone();
                return Err(ArgError::FlagForPositional { name, got });
            }
            Some(Some(tok)) => tok,
            _ => return Err(ArgError::Missing(name)),
        };
        let value = parse(name, tok)?;
        self.tokens[self.cursor] = None;
        self.cursor += 1;
        Ok(value)
    }

    /// Claims `flag` wherever it stands; `Some(index)` if it was given.
    fn claim(&mut self, flag: &'static str) -> Result<Option<usize>, ArgError> {
        let mut hits = (0..self.tokens.len()).filter(|&i| self.tokens[i].as_deref() == Some(flag));
        let first = hits.next();
        if hits.next().is_some() {
            return Err(ArgError::Repeated(flag));
        }
        if let Some(i) = first {
            self.tokens[i] = None;
        }
        Ok(first)
    }

    /// A value-less flag: was it given?
    pub fn switch(&mut self, flag: &'static str) -> Result<bool, ArgError> {
        Ok(self.claim(flag)?.is_some())
    }

    /// `flag VALUE` parsed into `T`, or `None` when the flag is absent.
    pub fn opt<T: FromStr<Err: Display>>(
        &mut self,
        flag: &'static str,
    ) -> Result<Option<T>, ArgError> {
        let Some(i) = self.claim(flag)? else {
            return Ok(None);
        };
        let next = self.tokens.get_mut(i + 1);
        match next.and_then(|slot| slot.take_if(|v| !v.starts_with("--"))) {
            Some(tok) => parse(flag, &tok).map(Some),
            None => Err(ArgError::MissingValue(flag)),
        }
    }

    /// `flag VALUE`, or `default` when the flag is absent.
    pub fn value<T: FromStr<Err: Display>>(
        &mut self,
        flag: &'static str,
        default: T,
    ) -> Result<T, ArgError> {
        Ok(self.opt(flag)?.unwrap_or(default))
    }

    /// [`Args::value`] for a count that must be at least 1 when given (a
    /// period of zero spins, zero connections divide by zero). The
    /// default is not checked: `at_least("--put", 0)` reads "off unless
    /// given, and then at least 1".
    pub fn at_least<T: FromStr<Err: Display> + PartialOrd + From<u8>>(
        &mut self,
        flag: &'static str,
        default: T,
    ) -> Result<T, ArgError> {
        match self.opt::<T>(flag)? {
            Some(v) if v < T::from(1) => Err(ArgError::BelowMinimum(flag)),
            given => Ok(given.unwrap_or(default)),
        }
    }

    /// Refuses whatever no positional or flag claimed.
    pub fn finish(self) -> Result<(), ArgError> {
        match self.tokens.into_iter().flatten().next() {
            Some(tok) => Err(ArgError::Unknown(tok)),
            None => Ok(()),
        }
    }
}

fn parse<T: FromStr<Err: Display>>(flag: &'static str, tok: &str) -> Result<T, ArgError> {
    tok.parse()
        .map_err(|e: T::Err| ArgError::invalid(flag, format!("{tok:?}: {e}")))
}

/// Why a binary stops: its arguments were wrong, or the work failed.
#[derive(Debug)]
pub enum Fail {
    /// Exit 2, with the usage line.
    Usage(ArgError),
    /// Exit 1.
    Run(String),
}

impl From<ArgError> for Fail {
    fn from(e: ArgError) -> Fail {
        Fail::Usage(e)
    }
}

impl From<String> for Fail {
    fn from(e: String) -> Fail {
        Fail::Run(e)
    }
}

impl From<&str> for Fail {
    fn from(e: &str) -> Fail {
        Fail::Run(e.to_string())
    }
}

/// Runs a binary's `body` over the process arguments and maps its result
/// to the exit code: `Ok` → 0, [`Fail::Usage`] → `bin: <error>` + `usage`
/// on stderr and 2, [`Fail::Run`] → `bin: <error>` and 1.
pub fn run(bin: &str, usage: &str, body: impl FnOnce(Args) -> Result<(), Fail>) -> ExitCode {
    match body(Args::new(std::env::args().skip(1))) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Fail::Usage(e)) => {
            eprintln!("{bin}: {e}\n{usage}");
            ExitCode::from(2)
        }
        Err(Fail::Run(e)) => {
            eprintln!("{bin}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The check behind every binary's
/// `usage_names_exactly_the_flags_the_parser_takes` test: each `--flag`
/// token in `usage`, given after `lead` (the positionals, and any flag
/// the parser cannot do without) with a value to take if it wants one,
/// must be claimed by `parse`, and a flag the usage line does not name
/// must come back [`ArgError::Unknown`] — so `parse` has to call
/// [`Args::finish`] before it judges combinations.
pub fn assert_usage_matches<T>(
    usage: &str,
    lead: &[&str],
    parse: impl Fn(Args) -> Result<T, ArgError>,
) {
    let unknown = |flag: &str| {
        let argv = lead.iter().copied().chain([flag, "1"]);
        matches!(parse(Args::new(argv)), Err(ArgError::Unknown(tok)) if tok == flag)
    };
    let named = usage
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|tok| tok.starts_with("--"));
    for flag in named {
        assert!(!unknown(flag), "usage names {flag}, the parser refuses it");
    }
    assert!(unknown("--not-in-the-usage-line"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Demo {
        dir: String,
        seed: u64,
        zipf: Option<f64>,
        quant: bool,
    }

    fn demo(argv: &[&str]) -> Result<Demo, ArgError> {
        parse_demo(Args::new(argv.iter().copied()))
    }

    fn parse_demo(mut args: Args) -> Result<Demo, ArgError> {
        let out = Demo {
            dir: args.positional("<dir>")?,
            seed: args.value("--seed", 1)?,
            zipf: args.opt("--zipf")?,
            quant: args.switch("--quant")?,
        };
        args.finish()?;
        Ok(out)
    }

    #[test]
    fn every_refusal_is_typed() {
        let invalid = |flag| matches!(flag, Err(ArgError::Invalid { flag: "--seed", .. }));
        assert_eq!(demo(&[]).err(), Some(ArgError::Missing("<dir>")));
        assert_eq!(
            demo(&["--seed", "5"]).err(),
            Some(ArgError::FlagForPositional {
                name: "<dir>",
                got: "--seed".into()
            })
        );
        assert_eq!(
            demo(&["ck", "--seed"]).err(),
            Some(ArgError::MissingValue("--seed"))
        );
        // Another flag is never a value, in whichever order they are asked for.
        assert_eq!(
            demo(&["ck", "--seed", "--quant"]).err(),
            Some(ArgError::MissingValue("--seed"))
        );
        assert_eq!(
            demo(&["ck", "--zipf", "--seed", "3"]).err(),
            Some(ArgError::MissingValue("--zipf"))
        );
        assert!(invalid(demo(&["ck", "--seed", "nope"])));
        assert!(invalid(demo(&["ck", "--seed", "-1"])), "u64 flag");
        assert_eq!(
            demo(&["ck", "--seed", "1", "--seed", "2"]).err(),
            Some(ArgError::Repeated("--seed"))
        );
        assert_eq!(
            demo(&["ck", "--quant", "--quant"]).err(),
            Some(ArgError::Repeated("--quant"))
        );
        assert_eq!(
            demo(&["ck", "--frobnicate"]).err(),
            Some(ArgError::Unknown("--frobnicate".into()))
        );
        // A switch takes no value, and a second positional nobody asked for
        // is refused too.
        assert_eq!(
            demo(&["ck", "--quant", "yes"]).err(),
            Some(ArgError::Unknown("yes".into()))
        );
        assert_eq!(
            demo(&["ck", "extra"]).err(),
            Some(ArgError::Unknown("extra".into()))
        );
    }

    #[test]
    fn at_least_refuses_zero_but_not_its_default() {
        let conns = |argv: &[&str]| Args::new(argv.iter().copied()).at_least("--conns", 0usize);
        assert_eq!(conns(&[]), Ok(0), "the default is not checked");
        assert_eq!(conns(&["--conns", "3"]), Ok(3));
        assert_eq!(
            conns(&["--conns", "0"]),
            Err(ArgError::BelowMinimum("--conns"))
        );
    }

    #[test]
    fn a_value_parses_into_its_fields_type_or_not_at_all() {
        // 2^32 + 1 into a u32 field used to be parsed as u64 and cast to 1.
        let pid = |v: &str| Args::new(["--victim-pid", v]).opt::<u32>("--victim-pid");
        assert_eq!(pid("4294967295"), Ok(Some(u32::MAX)));
        assert!(matches!(
            pid("4294967297"),
            Err(ArgError::Invalid {
                flag: "--victim-pid",
                ..
            })
        ));
        // A typed positional is judged the same way, and a refusal claims
        // nothing: the token is still there for `finish` to name.
        let mut args = Args::new(["x7"]);
        assert!(matches!(
            args.positional::<usize>("<user>"),
            Err(ArgError::Invalid { flag: "<user>", .. })
        ));
        assert_eq!(args.finish(), Err(ArgError::Unknown("x7".into())));
    }

    #[test]
    fn a_negative_number_and_a_quoted_command_are_values_not_flags() {
        assert_eq!(demo(&["ck", "--zipf", "-1"]).unwrap().zipf, Some(-1.0));
        let cmd = Args::new(["--cmd", "serve_main ck --quant", "--quant"])
            .opt::<String>("--cmd")
            .unwrap();
        assert_eq!(cmd.as_deref(), Some("serve_main ck --quant"));
    }

    #[test]
    fn flag_order_does_not_matter() {
        let flags = [["--seed", "9"].as_slice(), &["--zipf", "1.5"], &["--quant"]];
        let want = Demo {
            dir: "ck".into(),
            seed: 9,
            zipf: Some(1.5),
            quant: true,
        };
        for a in 0..3 {
            for b in (0..3).filter(|&b| b != a) {
                let c = 3 - a - b;
                let argv = [&["ck"], flags[a], flags[b], flags[c]].concat();
                assert_eq!(demo(&argv).as_ref(), Ok(&want), "{argv:?}");
            }
        }
    }

    #[test]
    fn an_optional_trailing_positional_is_ok() {
        let mut args = Args::new(["pr20"]);
        assert_eq!(
            args.positional::<String>("[<suite>]").ok(),
            Some("pr20".into())
        );
        assert_eq!(args.positional::<String>("[<suite>]").ok(), None);
        assert_eq!(args.finish(), Ok(()));
    }

    #[test]
    fn errors_render_the_flag_and_the_reason() {
        for (err, want) in [
            (ArgError::Missing("<addr>"), "missing <addr>"),
            (ArgError::MissingValue("--kmax"), "--kmax needs a value"),
            (
                ArgError::BelowMinimum("--conns"),
                "--conns must be at least 1",
            ),
            (ArgError::Repeated("--seed"), "--seed given more than once"),
            (ArgError::Unknown("--x".into()), "unknown flag \"--x\""),
            (ArgError::Unknown("x".into()), "unexpected argument \"x\""),
        ] {
            assert_eq!(err.to_string(), want);
        }
        let bad = demo(&["ck", "--seed", "nope"]).unwrap_err().to_string();
        assert!(bad.starts_with("--seed: \"nope\": "), "{bad}");
        let got = demo(&["--quant"]).unwrap_err().to_string();
        assert_eq!(got, "expected <dir>, got flag \"--quant\"");
    }

    #[test]
    fn the_usage_check_refuses_a_usage_line_naming_a_flag_the_parser_does_not_take() {
        assert_usage_matches(
            "demo <dir> [--seed S] [--zipf S] [--quant]",
            &["ck"],
            parse_demo,
        );
        let stale = std::panic::catch_unwind(|| {
            assert_usage_matches("demo <dir> [--seed S] [--gone N]", &["ck"], parse_demo)
        });
        assert!(stale.is_err());
    }
}
