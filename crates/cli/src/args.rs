//! A small, dependency-free argument parser.
//!
//! The CLI's grammar is `gsketch <command> [positionals] [--flag value]*`.
//! This module parses that shape into a [`ParsedArgs`] bag with typed
//! accessors; unknown flags are an error so typos never silently become
//! defaults (criterion's `clap` is only a dev-dependency of the bench
//! crate, and the runtime CLI deliberately stays dependency-free).

use std::collections::BTreeMap;
use std::fmt;

/// A parsing or validation error, ready for display to the terminal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed command line: positionals in order plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    positionals: Vec<String>,
    options: BTreeMap<String, String>,
}

impl ParsedArgs {
    /// Parse raw arguments (without the program or command name) against
    /// a set of allowed option names.
    pub fn parse<I, S>(raw: I, allowed: &[&str]) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = Self::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(tok) = iter.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if !allowed.contains(&name) {
                    return Err(ArgError(format!(
                        "unknown option `--{name}` (expected one of: {})",
                        allowed
                            .iter()
                            .map(|a| format!("--{a}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )));
                }
                let value = iter
                    .next()
                    .ok_or_else(|| ArgError(format!("option `--{name}` needs a value")))?;
                if out.options.insert(name.to_owned(), value).is_some() {
                    return Err(ArgError(format!("option `--{name}` given twice")));
                }
            } else {
                out.positionals.push(tok);
            }
        }
        Ok(out)
    }

    /// Positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The `i`-th positional, required.
    pub fn positional(&self, i: usize, what: &str) -> Result<&str, ArgError> {
        self.positionals
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| ArgError(format!("missing required argument `{what}`")))
    }

    /// A raw option value, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A parsed option value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError>
    where
        T::Err: fmt::Display,
    {
        match self.options.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<T>()
                .map_err(|e| ArgError(format!("bad value for `--{name}`: {e}"))),
        }
    }

    /// A parsed, required option value.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError>
    where
        T::Err: fmt::Display,
    {
        let v = self
            .options
            .get(name)
            .ok_or_else(|| ArgError(format!("missing required option `--{name}`")))?;
        v.parse::<T>()
            .map_err(|e| ArgError(format!("bad value for `--{name}`: {e}")))
    }
}

/// Parse a byte-size literal: plain bytes, or `K`/`M`/`G` suffixed
/// (binary units, e.g. `512K`, `2M`).
pub fn parse_bytes(s: &str) -> Result<usize, ArgError> {
    let (digits, mult) = match s.chars().last() {
        Some('K' | 'k') => (&s[..s.len() - 1], 1usize << 10),
        Some('M' | 'm') => (&s[..s.len() - 1], 1 << 20),
        Some('G' | 'g') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    let n = digits
        .parse::<usize>()
        .map_err(|_| ArgError(format!("bad byte size `{s}` (use e.g. 65536, 512K, 2M)")))?;
    n.checked_mul(mult)
        .ok_or_else(|| ArgError(format!("byte size `{s}` exceeds {} bytes", usize::MAX)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positionals_and_options_parse() {
        let a = ParsedArgs::parse(
            ["stream.txt", "--memory", "2M", "--seed", "7"],
            &["memory", "seed"],
        )
        .unwrap();
        assert_eq!(a.positional(0, "file").unwrap(), "stream.txt");
        assert_eq!(a.get("memory"), Some("2M"));
        assert_eq!(a.get_or::<u64>("seed", 0).unwrap(), 7);
    }

    #[test]
    fn unknown_option_rejected() {
        let e = ParsedArgs::parse(["--bogus", "1"], &["memory"]).unwrap_err();
        assert!(e.to_string().contains("bogus"));
        assert!(e.to_string().contains("--memory"), "lists alternatives");
    }

    #[test]
    fn missing_value_rejected() {
        let e = ParsedArgs::parse(["--memory"], &["memory"]).unwrap_err();
        assert!(e.to_string().contains("needs a value"));
    }

    #[test]
    fn duplicate_option_rejected() {
        let e = ParsedArgs::parse(["--seed", "1", "--seed", "2"], &["seed"]).unwrap_err();
        assert!(e.to_string().contains("twice"));
    }

    #[test]
    fn missing_positional_reported() {
        let a = ParsedArgs::parse::<_, String>([], &[]).unwrap();
        assert!(a.positional(0, "file").is_err());
    }

    #[test]
    fn required_option() {
        let a = ParsedArgs::parse(["--k", "5"], &["k"]).unwrap();
        assert_eq!(a.require::<usize>("k").unwrap(), 5);
        assert!(a.require::<usize>("missing").is_err());
    }

    #[test]
    fn bad_typed_value_reported() {
        let a = ParsedArgs::parse(["--seed", "xyz"], &["seed"]).unwrap();
        assert!(a.get_or::<u64>("seed", 0).is_err());
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(parse_bytes("1024").unwrap(), 1024);
        assert_eq!(parse_bytes("512K").unwrap(), 512 << 10);
        assert_eq!(parse_bytes("2M").unwrap(), 2 << 20);
        assert_eq!(parse_bytes("1G").unwrap(), 1 << 30);
        assert!(parse_bytes("abc").is_err());
        assert!(parse_bytes("2X").is_err());
        // Sizes past `usize::MAX` are refused, not wrapped: 2^34 G is
        // 2^64 bytes, which would wrap to 0.
        let max_g = usize::MAX >> 30;
        assert_eq!(parse_bytes(&format!("{max_g}G")).unwrap(), max_g << 30);
        for s in [
            format!("{}G", max_g + 1),
            "17179869200G".into(),
            format!("{}K", usize::MAX),
        ] {
            let e = parse_bytes(&s).unwrap_err();
            assert!(e.to_string().contains("exceeds"), "{s}: {e}");
        }
    }
}
