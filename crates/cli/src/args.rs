//! Minimal dependency-free argument parsing for the `sdtw` binary.
//!
//! Parsing is *spec-driven*: every subcommand declares which options take
//! a value and which are boolean flags, so a flag can never swallow the
//! positional argument that follows it (`sdtw dist --path a.txt b.txt`
//! parses identically to `sdtw dist a.txt b.txt --path`), values may be
//! attached with `--key=value`, a flag given a value is an error, and an
//! unknown option is reported instead of silently collected.

use std::collections::BTreeMap;

/// Which options a subcommand accepts.
#[derive(Debug, Clone, Copy)]
pub struct OptionSpec {
    /// Whether the shared engine options ([`ENGINE_VALUE_OPTS`]) are
    /// accepted — one switch per distance-computing subcommand, so a
    /// new engine option lands everywhere at once.
    pub engine: bool,
    /// Additional options that consume a value (`--key value` or
    /// `--key=value`).
    pub value: &'static [&'static str],
    /// Boolean flags (`--flag`; attaching a value is an error).
    pub flag: &'static [&'static str],
}

impl OptionSpec {
    const EMPTY: OptionSpec = OptionSpec {
        engine: false,
        value: &[],
        flag: &[],
    };

    /// Whether `key` is a value-consuming option under this spec.
    fn takes_value(&self, key: &str) -> bool {
        (self.engine && ENGINE_VALUE_OPTS.contains(&key)) || self.value.contains(&key)
    }
}

/// The engine options shared by every distance-computing subcommand
/// (accepted wherever [`OptionSpec::engine`] is set).
const ENGINE_VALUE_OPTS: [&str; 4] = ["policy", "width", "kernel", "penalty"];

/// Option spec of each `sdtw` (sub)command, keyed `"command"` or
/// `"command subcommand"` — two-level commands declare their options per
/// subcommand so `index query --radius 0.2` (a build-only option) is an
/// error rather than a silently ignored token. `None` for commands the
/// binary does not know.
pub fn spec_for(key: &str) -> Option<OptionSpec> {
    let spec = match key {
        "dist" => OptionSpec {
            engine: true,
            value: &["trace"],
            flag: &["path", "trace-stdout"],
        },
        "features" => OptionSpec {
            engine: false,
            value: &["bins"],
            flag: &["json"],
        },
        "retrieve" => OptionSpec {
            engine: true,
            value: &["k"],
            flag: &[],
        },
        "distmat" => OptionSpec {
            engine: true,
            value: &["queries", "out", "trace"],
            flag: &["serial", "trace-stdout"],
        },
        "index build" => OptionSpec {
            engine: true,
            value: &["radius", "paa"],
            flag: &["znorm"],
        },
        "index query" => OptionSpec {
            engine: false,
            value: &["k", "trace"],
            flag: &["serial", "json", "trace-stdout"],
        },
        "stream find" => OptionSpec {
            engine: true,
            value: &[
                "radius",
                "exclusion",
                "k",
                "tau",
                "series",
                "query",
                "queries",
                "shards",
                "paa",
                "trace",
            ],
            flag: &["raw", "monitor", "json", "parallel", "trace-stdout"],
        },
        "generate" => OptionSpec {
            engine: false,
            value: &["seed"],
            flag: &[],
        },
        "serve" => OptionSpec {
            engine: false,
            value: &["index", "socket", "k", "shards", "batch", "trace"],
            flag: &["pipe"],
        },
        "client emit" => OptionSpec {
            engine: false,
            value: &["k", "tau"],
            flag: &["trace"],
        },
        "client print" => OptionSpec::EMPTY,
        "client send" => OptionSpec {
            engine: false,
            value: &["k", "tau"],
            flag: &["trace", "json", "shutdown"],
        },
        "report" => OptionSpec::EMPTY,
        _ => return None,
    };
    Some(spec)
}

/// Parsed command line: a subcommand, positional arguments, and
/// `--key value` / `--flag` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (the first argument).
    pub command: String,
    /// Remaining positional arguments in order.
    pub positional: Vec<String>,
    /// `--key value` options (flags map to an empty string).
    pub options: BTreeMap<String, String>,
}

impl Args {
    /// Parses an iterator of arguments (without the program name) against
    /// the subcommand's [`OptionSpec`]. The first token must be the
    /// command; for two-level commands (`index`, `stream`) the second
    /// token selects the subcommand's spec, so each subcommand only
    /// accepts its own options. Unknown commands get the empty spec —
    /// their positionals still parse, so `main` can report the unknown
    /// command with usage.
    ///
    /// # Errors
    ///
    /// Missing subcommand, unknown options, a value option without a
    /// value, or a flag given a `--flag=value` value.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
        let mut iter = argv.into_iter().peekable();
        let command = match iter.next() {
            None => return Err("missing subcommand".into()),
            Some(tok) if tok.starts_with("--") => {
                return Err(format!(
                    "missing subcommand (options like `{tok}` come after it)"
                ))
            }
            Some(tok) => tok,
        };
        // two-level commands resolve their spec from the next token
        // (which must come before any options, as in `sdtw index build`)
        let spec = match iter.peek() {
            Some(sub) if !sub.starts_with("--") => spec_for(&format!("{command} {sub}")),
            _ => None,
        }
        .or_else(|| spec_for(&command))
        .unwrap_or(OptionSpec::EMPTY);
        let mut positional = Vec::new();
        let mut options = BTreeMap::new();
        while let Some(tok) = iter.next() {
            let Some(key) = tok.strip_prefix("--") else {
                positional.push(tok);
                continue;
            };
            if key.is_empty() {
                return Err("empty option name `--`".into());
            }
            let (key, attached) = match key.split_once('=') {
                Some((k, v)) => (k, Some(v.to_string())),
                None => (key, None),
            };
            if spec.takes_value(key) {
                let value = match attached {
                    Some(v) if !v.is_empty() => v,
                    Some(_) => return Err(format!("option --{key}: empty value")),
                    None => match iter.peek() {
                        // a following option token is not a value — values
                        // may start with a single dash (negative numbers)
                        // but never with `--`
                        Some(next) if !next.starts_with("--") => {
                            iter.next().expect("peeked a token")
                        }
                        _ => return Err(format!("option --{key} requires a value")),
                    },
                };
                options.insert(key.to_string(), value);
            } else if spec.flag.contains(&key) {
                if attached.is_some() {
                    return Err(format!("flag --{key} does not take a value"));
                }
                options.insert(key.to_string(), String::new());
            } else {
                return Err(format!("unknown option `--{key}` for command `{command}`"));
            }
        }
        Ok(Args {
            command,
            positional,
            options,
        })
    }

    /// Option value parsed as `T`, with a default when absent.
    ///
    /// # Errors
    ///
    /// A present-but-valueless option (possible only for keys outside the
    /// command's value set, i.e. boolean flags probed as options), or a
    /// value that does not parse as `T` — the two cases are reported
    /// distinctly.
    pub fn opt_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) if raw.is_empty() => Err(format!(
                "option --{key} is present but has no value (is it a boolean flag?)"
            )),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("option --{key}: cannot parse `{raw}`")),
        }
    }

    /// Whether a boolean flag is present.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_positionals_and_options() {
        let a = parse(&["dist", "a.txt", "0", "1", "--policy", "ac2aw", "--path"]).unwrap();
        assert_eq!(a.command, "dist");
        assert_eq!(a.positional, vec!["a.txt", "0", "1"]);
        assert_eq!(a.options.get("policy").map(String::as_str), Some("ac2aw"));
        assert!(a.flag("path"));
        assert!(!a.flag("nope"));
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--policy", "full"]).is_err());
    }

    #[test]
    fn flag_before_positionals_does_not_swallow_them() {
        // the regression this parser exists for: a boolean flag followed
        // by positionals must leave them positional
        let a = parse(&["dist", "--path", "a.txt", "0", "1"]).unwrap();
        assert!(a.flag("path"));
        assert_eq!(a.positional, vec!["a.txt", "0", "1"]);
        // and both orderings parse identically
        let b = parse(&["dist", "a.txt", "0", "1", "--path"]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn flag_between_positionals_parses_identically_too() {
        let a = parse(&["index", "build", "--znorm", "c.txt", "out.json"]).unwrap();
        let b = parse(&["index", "build", "c.txt", "out.json", "--znorm"]).unwrap();
        let c = parse(&["index", "build", "c.txt", "--znorm", "out.json"]).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.positional, vec!["build", "c.txt", "out.json"]);
    }

    #[test]
    fn key_equals_value_binds_and_flags_reject_values() {
        let a = parse(&["dist", "a.txt", "0", "1", "--policy=sakoe", "--width=0.2"]).unwrap();
        assert_eq!(a.options.get("policy").map(String::as_str), Some("sakoe"));
        assert_eq!(a.opt_parse("width", 0.0).unwrap(), 0.2);
        let err = parse(&["dist", "--path=yes"]).unwrap_err();
        assert!(err.contains("does not take a value"), "{err}");
        let err = parse(&["dist", "--policy="]).unwrap_err();
        assert!(err.contains("empty value"), "{err}");
    }

    #[test]
    fn value_option_missing_its_value_is_an_error() {
        let err = parse(&["retrieve", "c.txt", "0", "--k"]).unwrap_err();
        assert!(err.contains("--k requires a value"), "{err}");
        // a following `--option` is not a value either
        let err = parse(&["distmat", "c.txt", "--queries", "--serial"]).unwrap_err();
        assert!(err.contains("--queries requires a value"), "{err}");
        // but a negative number is a value
        let a = parse(&["dist", "a.txt", "0", "1", "--penalty", "-1"]).unwrap();
        assert_eq!(a.options.get("penalty").map(String::as_str), Some("-1"));
    }

    #[test]
    fn unknown_options_are_rejected() {
        let err = parse(&["dist", "a.txt", "--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown option"), "{err}");
        let err = parse(&["generate", "gun", "o.txt", "--json"]).unwrap_err();
        assert!(err.contains("unknown option"), "{err}");
    }

    #[test]
    fn two_level_commands_reject_their_siblings_options() {
        // `--policy`/`--radius`/`--znorm` parameterise `index build`; on
        // `index query` they would be silently ignored — error instead
        let err = parse(&["index", "query", "i.json", "q.txt", "--policy", "sakoe"]).unwrap_err();
        assert!(err.contains("unknown option"), "{err}");
        let err = parse(&["index", "query", "i.json", "q.txt", "--znorm"]).unwrap_err();
        assert!(err.contains("unknown option"), "{err}");
        // and query-only options are rejected on build
        let err = parse(&["index", "build", "c.txt", "o.json", "--serial"]).unwrap_err();
        assert!(err.contains("unknown option"), "{err}");
        // each subcommand's own options still parse
        assert!(
            parse(&["index", "build", "c.txt", "o.json", "--znorm", "--radius", "0.2"]).is_ok()
        );
        assert!(parse(&["index", "query", "i.json", "q.txt", "--k", "3", "--serial"]).is_ok());
        assert!(parse(&[
            "stream",
            "find",
            "h.txt",
            "q.txt",
            "--tau",
            "2.5",
            "--monitor"
        ])
        .is_ok());
    }

    #[test]
    fn opt_parse_distinguishes_missing_value_from_parse_failure() {
        let a = parse(&["retrieve", "c.txt", "0", "--k", "ten"]).unwrap();
        let err = a.opt_parse::<usize>("k", 1).unwrap_err();
        assert!(err.contains("cannot parse `ten`"), "{err}");
        assert_eq!(a.opt_parse("missing", 7usize).unwrap(), 7);
        // probing a boolean flag as a value option names the real problem
        let a = parse(&["distmat", "c.txt", "--serial"]).unwrap();
        let err = a.opt_parse::<usize>("serial", 0).unwrap_err();
        assert!(err.contains("has no value"), "{err}");
        assert!(!err.contains("cannot parse"), "{err}");
    }

    #[test]
    fn rejects_bare_double_dash() {
        assert!(parse(&["dist", "--"]).is_err());
    }

    #[test]
    fn unknown_commands_still_parse_their_positionals() {
        let a = parse(&["bogus", "x", "y"]).unwrap();
        assert_eq!(a.command, "bogus");
        assert_eq!(a.positional, vec!["x", "y"]);
        assert!(parse(&["bogus", "--anything"]).is_err());
    }
}
