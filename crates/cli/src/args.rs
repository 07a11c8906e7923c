//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: the subcommand, any positional operands that
/// follow it, plus its `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedArgs {
    /// The subcommand (first positional argument).
    pub command: String,
    /// Positional operands between the subcommand and the first `--key`
    /// (e.g. `arch show tb-stc` → `["show", "tb-stc"]`). Commands that
    /// take none reject stray operands at dispatch.
    pub positionals: Vec<String>,
    /// `--key value` pairs; a flag without a value maps to `"true"`.
    pub options: BTreeMap<String, String>,
}

/// Error produced by argument parsing or option lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl ParsedArgs {
    /// Parses an iterator of arguments (excluding the binary name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when no subcommand is given, an option lacks
    /// the `--` prefix, or a `--key` appears twice.
    pub fn parse<I, S>(args: I) -> Result<ParsedArgs, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut it = args.into_iter().map(Into::into).peekable();
        let command = it
            .next()
            .ok_or_else(|| ArgError("missing subcommand".into()))?;
        if command.starts_with("--") {
            return Err(ArgError(format!(
                "expected a subcommand, got option {command}"
            )));
        }
        let mut positionals = Vec::new();
        while let Some(next) = it.peek() {
            if next.starts_with("--") {
                break;
            }
            positionals.push(it.next().unwrap_or_default());
        }
        let mut options = BTreeMap::new();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| ArgError(format!("expected --option, got {arg}")))?
                .to_string();
            if key.is_empty() {
                return Err(ArgError("empty option name".into()));
            }
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    it.next().unwrap_or_else(|| "true".to_string())
                }
                _ => "true".to_string(),
            };
            if options.insert(key.clone(), value).is_some() {
                return Err(ArgError(format!("--{key} given twice")));
            }
        }
        Ok(ParsedArgs {
            command,
            positionals,
            options,
        })
    }

    /// A string option with a default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when the value does not parse.
    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key} expects a number, got {v}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_and_options() {
        let a = ParsedArgs::parse(["prune", "--sparsity", "0.75", "--seed", "7"]).unwrap();
        assert_eq!(a.command, "prune");
        assert_eq!(a.str_or("sparsity", "0"), "0.75");
        assert_eq!(a.num_or("seed", 0u64).unwrap(), 7);
    }

    #[test]
    fn defaults_apply() {
        let a = ParsedArgs::parse(["simulate"]).unwrap();
        assert_eq!(a.num_or("sparsity", 0.5f64).unwrap(), 0.5);
        assert_eq!(a.str_or("arch", "tb-stc"), "tb-stc");
    }

    #[test]
    fn bare_flags_become_true() {
        let a = ParsedArgs::parse(["prune", "--verbose"]).unwrap();
        assert_eq!(a.str_or("verbose", "false"), "true");
    }

    #[test]
    fn rejects_missing_command() {
        assert!(ParsedArgs::parse(Vec::<String>::new()).is_err());
        assert!(ParsedArgs::parse(["--sparsity", "0.5"]).is_err());
    }

    #[test]
    fn rejects_duplicate_options() {
        assert!(ParsedArgs::parse(["x", "--a", "1", "--a", "2"]).is_err());
    }

    #[test]
    fn rejects_bad_numbers() {
        let a = ParsedArgs::parse(["x", "--n", "abc"]).unwrap();
        assert!(a.num_or("n", 1u32).is_err());
    }

    #[test]
    fn collects_positionals_before_options() {
        let a = ParsedArgs::parse(["arch", "show", "tb-stc", "--json"]).unwrap();
        assert_eq!(a.command, "arch");
        assert_eq!(a.positionals, vec!["show", "tb-stc"]);
        assert_eq!(a.str_or("json", "false"), "true");
        // A bare token after an option is that option's value, not a
        // positional.
        let b = ParsedArgs::parse(["simulate", "--arch", "tc"]).unwrap();
        assert!(b.positionals.is_empty());
        assert_eq!(b.str_or("arch", ""), "tc");
    }
}
