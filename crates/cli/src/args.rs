//! A small `--flag value` argument parser (no external dependencies).

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: a subcommand plus `--key value` flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    command: Option<String>,
    flags: BTreeMap<String, String>,
}

/// Errors from argument parsing and lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgError {
    /// A positional argument appeared where a flag was expected.
    UnexpectedPositional(String),
    /// A required flag was absent.
    Required(String),
    /// A flag the command does not read.
    UnknownFlag {
        /// Flag name.
        flag: String,
        /// The command, or `None` without one.
        command: Option<String>,
    },
    /// A flag value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnexpectedPositional(arg) => {
                write!(f, "unexpected positional argument {arg:?}")
            }
            ArgError::Required(flag) => write!(f, "missing required flag --{flag}"),
            ArgError::UnknownFlag { flag, command } => {
                write!(f, "unknown flag --{flag}")?;
                if let Some(command) = command {
                    write!(f, " for `{command}`")?;
                }
                write!(f, "; run with no arguments for usage")
            }
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(f, "--{flag} {value:?}: expected {expected}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `argv` (without the program name): first token is the
    /// subcommand, the rest are `--flag value` pairs or bare `--flag`
    /// switches. A flag followed by another `--flag` (or by nothing)
    /// stores the empty string; [`Args::get_bool`] treats that as `true`.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut it = argv.into_iter().peekable();
        if let Some(first) = it.peek() {
            if !first.starts_with("--") {
                out.command = it.next();
            }
        }
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(ArgError::UnexpectedPositional(tok));
            };
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().expect("peeked"),
                _ => String::new(),
            };
            out.flags.insert(name.to_string(), value);
        }
        Ok(out)
    }

    /// The subcommand, if any.
    pub fn command(&self) -> Option<&str> {
        self.command.as_deref()
    }

    /// Fails on the first flag, in name order, that neither `global` nor
    /// `own` lists.
    pub fn check_flags(&self, global: &[&str], own: &[&str]) -> Result<(), ArgError> {
        let known = |flag: &str| global.contains(&flag) || own.contains(&flag);
        match self.flags.keys().find(|flag| !known(flag)) {
            Some(flag) => Err(ArgError::UnknownFlag {
                flag: flag.clone(),
                command: self.command.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Optional string flag.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// Required string flag.
    pub fn require(&self, flag: &str) -> Result<&str, ArgError> {
        self.get(flag)
            .ok_or_else(|| ArgError::Required(flag.into()))
    }

    /// Boolean switch: `true` for bare `--flag` and for the explicit
    /// truthy spellings; `false` when absent or set to anything else.
    pub fn get_bool(&self, flag: &str) -> bool {
        matches!(self.get(flag), Some("" | "true" | "1" | "yes" | "on"))
    }

    /// Optional `f64` flag with a default.
    pub fn get_f64(&self, flag: &str, default: f64) -> Result<f64, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::BadValue {
                flag: flag.into(),
                value: raw.into(),
                expected: "a number",
            }),
        }
    }

    /// Optional `u64` flag with a default.
    pub fn get_u64(&self, flag: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::BadValue {
                flag: flag.into(),
                value: raw.into(),
                expected: "a non-negative integer",
            }),
        }
    }

    /// Optional `usize` flag with a default.
    pub fn get_usize(&self, flag: &str, default: usize) -> Result<usize, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::BadValue {
                flag: flag.into(),
                value: raw.into(),
                expected: "a non-negative integer",
            }),
        }
    }

    /// Parses a `lo,hi,n` triple into an evenly spaced grid.
    pub fn get_grid(&self, flag: &str, default: (f64, f64, usize)) -> Result<Vec<f64>, ArgError> {
        let (lo, hi, n) = match self.get(flag) {
            None => default,
            Some(raw) => {
                let parts: Vec<&str> = raw.split(',').collect();
                let bad = || ArgError::BadValue {
                    flag: flag.into(),
                    value: raw.into(),
                    expected: "lo,hi,n",
                };
                if parts.len() != 3 {
                    return Err(bad());
                }
                (
                    parts[0].parse().map_err(|_| bad())?,
                    parts[1].parse().map_err(|_| bad())?,
                    parts[2].parse().map_err(|_| bad())?,
                )
            }
        };
        if !(lo > 0.0 && lo < hi && n >= 2) {
            return Err(ArgError::BadValue {
                flag: flag.into(),
                value: format!("{lo},{hi},{n}"),
                expected: "0 < lo < hi and n >= 2",
            });
        }
        Ok((0..n)
            .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(argv("price --csv data.csv --lambda 2.5")).unwrap();
        assert_eq!(a.command(), Some("price"));
        assert_eq!(a.require("csv").unwrap(), "data.csv");
        assert_eq!(a.get_f64("lambda", 0.0).unwrap(), 2.5);
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(argv("train")).unwrap();
        assert_eq!(a.get_f64("ridge", 1e-6).unwrap(), 1e-6);
        assert_eq!(a.get_u64("seed", 7).unwrap(), 7);
        assert!(a.get("csv").is_none());
    }

    #[test]
    fn errors_are_specific() {
        assert_eq!(
            Args::parse(argv("x stray")),
            Err(ArgError::UnexpectedPositional("stray".into()))
        );
        let a = Args::parse(argv("x --n nope")).unwrap();
        assert!(matches!(
            a.get_usize("n", 1),
            Err(ArgError::BadValue { .. })
        ));
        assert_eq!(
            a.require("missing"),
            Err(ArgError::Required("missing".into()))
        );
    }

    #[test]
    fn bare_flags_are_boolean_switches() {
        let a = Args::parse(argv("run --trace --seed 9 --verbose")).unwrap();
        assert!(a.get_bool("trace"));
        assert!(a.get_bool("verbose"));
        assert_eq!(a.get_u64("seed", 0).unwrap(), 9);
        assert!(!a.get_bool("absent"));
        let b = Args::parse(argv("run --trace yes --quiet false")).unwrap();
        assert!(b.get_bool("trace"));
        assert!(!b.get_bool("quiet"));
        // A trailing bare flag is fine too.
        let c = Args::parse(argv("run --trace")).unwrap();
        assert!(c.get_bool("trace"));
    }

    #[test]
    fn grid_parsing() {
        let a = Args::parse(argv("x --grid 10,100,10")).unwrap();
        let g = a.get_grid("grid", (1.0, 2.0, 2)).unwrap();
        assert_eq!(g.len(), 10);
        assert_eq!(g[0], 10.0);
        assert_eq!(g[9], 100.0);
        let d = Args::parse(argv("x")).unwrap();
        assert_eq!(
            d.get_grid("grid", (1.0, 3.0, 3)).unwrap(),
            vec![1.0, 2.0, 3.0]
        );
        let bad = Args::parse(argv("x --grid 5,1,3")).unwrap();
        assert!(bad.get_grid("grid", (1.0, 2.0, 2)).is_err());
    }

    #[test]
    fn threads_flag_parses_like_any_usize_flag() {
        let a = Args::parse(argv("serve --threads 4 --port 0")).unwrap();
        assert_eq!(a.get("threads"), Some("4"));
        assert_eq!(a.get_usize("threads", 1).unwrap(), 4);
        let b = Args::parse(argv("serve")).unwrap();
        assert!(b.get("threads").is_none());
    }

    #[test]
    fn no_command_is_ok() {
        let a = Args::parse(argv("--help x")).unwrap();
        assert_eq!(a.command(), None);
        assert_eq!(a.get("help"), Some("x"));
    }
}
