//! Shared command-line parsing for the bench binaries.
//!
//! The flag *vocabulary* lives here, parsed with uniform error messages,
//! so a bad value fails the same way in every tool. The binaries keep
//! their own flag *loops* — which flags a tool accepts is its business.

use concord_runtime::Target;
use concord_workloads::Scale;
use std::fmt;

/// A bad flag or flag value, with the message shown to the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parse a `--scale` value.
///
/// # Errors
///
/// Names the bad value and the accepted set.
pub fn parse_scale(s: &str) -> Result<Scale, ArgError> {
    match s {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "medium" => Ok(Scale::Medium),
        _ => Err(ArgError(format!("unknown scale `{s}` (expected tiny|small|medium)"))),
    }
}

/// Parse a `--target` value.
///
/// # Errors
///
/// Names the bad value and the accepted set.
pub fn parse_target(s: &str) -> Result<Target, ArgError> {
    Target::parse(s).ok_or_else(|| {
        ArgError(format!(
            "unknown target `{s}` (expected cpu|gpu|auto|native|hybrid|hybrid:<fraction>)"
        ))
    })
}

/// The value following `flag` in `args`. `Ok(None)` when the flag is
/// absent.
///
/// # Errors
///
/// The flag is present but the value is missing.
pub fn value_of<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, ArgError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.as_str())),
            None => Err(ArgError(format!("flag `{flag}` needs a value"))),
        },
    }
}

/// Whether a boolean flag is present.
#[must_use]
pub fn flag_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parse-or-exit adaptor for binaries: prints the diagnostic to stderr and
/// exits 2 (the conventional usage-error status) on failure.
pub fn or_usage<T>(result: Result<T, ArgError>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn scale_values_parse() {
        assert_eq!(parse_scale("tiny").unwrap(), Scale::Tiny);
        assert_eq!(parse_scale("small").unwrap(), Scale::Small);
        assert_eq!(parse_scale("medium").unwrap(), Scale::Medium);
    }

    #[test]
    fn bad_scale_is_diagnosed() {
        let e = parse_scale("huge").unwrap_err();
        assert_eq!(e.0, "unknown scale `huge` (expected tiny|small|medium)");
    }

    #[test]
    fn target_values_parse() {
        assert_eq!(parse_target("cpu").unwrap(), Target::Cpu);
        assert_eq!(parse_target("gpu").unwrap(), Target::Gpu);
        assert_eq!(parse_target("auto").unwrap(), Target::Auto);
        assert_eq!(parse_target("native").unwrap(), Target::Native);
        assert!(matches!(
            parse_target("hybrid:0.25").unwrap(),
            Target::Hybrid { gpu_fraction } if (gpu_fraction - 0.25).abs() < 1e-12
        ));
    }

    #[test]
    fn bad_target_is_diagnosed() {
        let e = parse_target("warp9").unwrap_err();
        assert!(e.0.contains("unknown target `warp9`"), "got: {e}");
        assert!(e.0.contains("cpu|gpu|auto|native|hybrid"), "message lists the accepted set");
        // A malformed hybrid fraction is a bad value too, not a panic.
        assert!(parse_target("hybrid:fast").is_err());
    }

    #[test]
    fn value_of_finds_values_and_missing_values() {
        let a = args(&["--target", "gpu", "--json", "out.json"]);
        assert_eq!(value_of(&a, "--target").unwrap(), Some("gpu"));
        assert_eq!(value_of(&a, "--json").unwrap(), Some("out.json"));
        assert_eq!(value_of(&a, "--scale").unwrap(), None);
        let e = value_of(&args(&["--target"]), "--target").unwrap_err();
        assert_eq!(e.0, "flag `--target` needs a value");
    }

    #[test]
    fn flag_presence() {
        let a = args(&["--tiny", "--json", "x"]);
        assert!(flag_present(&a, "--tiny"));
        assert!(!flag_present(&a, "--medium"));
    }
}
