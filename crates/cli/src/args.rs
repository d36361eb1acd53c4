//! Tiny dependency-free flag parser for the CLI.
//!
//! Grammar: `nncell <command> [--flag value]...`. Flags are long-form only;
//! unknown flags are hard errors so typos never silently fall back to
//! defaults. A flag followed by another flag (or by the end of the line) is
//! a bare boolean switch, e.g. `--checkpoint`.

use std::collections::BTreeMap;

/// A parsed command line: the subcommand and its `--flag value` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Parsed {
    /// The subcommand (first positional argument).
    pub command: String,
    flags: BTreeMap<String, String>,
}

/// Parse errors with a user-facing message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Parsed {
    /// Parses `args` (without the program name).
    pub fn parse<I, S>(args: I) -> Result<Parsed, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut it = args.into_iter().map(Into::into).peekable();
        let command = it
            .next()
            .ok_or_else(|| ArgError("missing command".into()))?;
        if command.starts_with("--") {
            return Err(ArgError(format!(
                "expected a command before flags, got {command}"
            )));
        }
        let mut flags = BTreeMap::new();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(ArgError(format!("unexpected positional argument {arg}")));
            };
            if name.is_empty() {
                return Err(ArgError("empty flag name".into()));
            }
            // A value never starts with `--`; without one the flag is a
            // bare boolean switch (stored as the empty string).
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().unwrap_or_default(),
                _ => String::new(),
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(ArgError(format!("flag --{name} given twice")));
            }
        }
        Ok(Parsed { command, flags })
    }

    /// Required string flag.
    pub fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| ArgError(format!("missing required flag --{name}")))
    }

    /// Optional string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Optional parsed flag with default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("flag --{name}: cannot parse {v:?}"))),
        }
    }

    /// Ensures only the listed flags were provided.
    pub fn allow_only(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for k in self.flags.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError(format!(
                    "unknown flag --{k} (allowed: {})",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_and_flags() {
        let p = Parsed::parse(["build", "--n", "100", "--dim", "8"]).unwrap();
        assert_eq!(p.command, "build");
        assert_eq!(p.require("n").unwrap(), "100");
        assert_eq!(p.get_or("dim", 0usize).unwrap(), 8);
        assert_eq!(p.get_or("seed", 7u64).unwrap(), 7);
        assert!(p.get("missing").is_none());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Parsed::parse(Vec::<String>::new()).is_err());
        assert!(Parsed::parse(["--n", "5"]).is_err(), "flag before command");
        assert!(Parsed::parse(["x", "stray"]).is_err(), "positional");
        assert!(Parsed::parse(["x", "--n", "1", "--n", "2"]).is_err(), "dup");
    }

    #[test]
    fn bare_flags_are_boolean_switches() {
        let p = Parsed::parse(["verify", "--repair", "--index", "f.idx"]).unwrap();
        assert_eq!(p.get("repair"), Some(""));
        assert_eq!(p.require("index").unwrap(), "f.idx");
        let p = Parsed::parse(["verify", "--repair"]).unwrap();
        assert!(p.get("repair").is_some());
    }

    #[test]
    fn unknown_flags_detected() {
        let p = Parsed::parse(["q", "--good", "1", "--bad", "2"]).unwrap();
        assert!(p.allow_only(&["good"]).is_err());
        assert!(p.allow_only(&["good", "bad"]).is_ok());
    }

    #[test]
    fn parse_errors_name_the_flag() {
        let p = Parsed::parse(["q", "--n", "xyz"]).unwrap();
        let err = p.get_or("n", 1usize).unwrap_err();
        assert!(err.0.contains("--n"));
    }
}
