//! Strict flag parsing shared by the four binaries (`tms`, `tmsd`,
//! `tms-verify`, `sched-throughput`).
//!
//! Each binary keeps its own `match` over its flag names and its own
//! defaults; this module only owns how a flag's value is taken and
//! checked, so a missing value, a malformed value and an unknown flag
//! read the same everywhere and are never replaced by a default.
//!
//! Exit-code contract of every binary: 0 success, 1 a check failed
//! (verification violations, a perf gate, a soak invariant), 2 a usage,
//! input or I/O error — every `Err` produced here ends in exit 2.
//!
//! Help is handled here too, once for every binary and subcommand:
//! [`help`] runs before any parsing, so `--help` never reaches a flag
//! `match` as an unknown option.

use std::path::PathBuf;
use std::process::ExitCode;
use tms_core::par::Parallelism;

/// A cursor over the remaining command-line arguments. Iterating yields
/// the next flag (or positional argument); the methods take that flag's
/// value.
pub struct Args {
    rest: std::vec::IntoIter<String>,
}

impl Args {
    /// Cursor over `args` (the program name already stripped).
    pub fn new(args: Vec<String>) -> Self {
        Args {
            rest: args.into_iter(),
        }
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.rest
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value following `flag`, parsed as `T`.
    pub fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| format!("{flag}: invalid value {v:?}"))
    }

    /// A seed following `flag`: hex (`0x...`) or decimal.
    pub fn seed(&mut self, flag: &str) -> Result<u64, String> {
        let v = self.value(flag)?;
        match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => v.parse(),
        }
        .map_err(|_| format!("{flag}: invalid seed {v:?} (hex 0x... or decimal)"))
    }

    /// A worker count following `flag`, through [`Parallelism::parse_jobs`]
    /// (0 = every available core).
    pub fn jobs(&mut self, flag: &str) -> Result<Parallelism, String> {
        Parallelism::parse_jobs(&self.value(flag)?).map_err(|e| format!("{flag}: {e}"))
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.rest.next()
    }
}

/// Whether `args` (the program name already stripped) ask for help:
/// `--help` or `-h` anywhere, or `help` as the first word.
pub fn wants_help(args: &[String]) -> bool {
    args.first().is_some_and(|a| a == "help") || args.iter().any(|a| a == "--help" || a == "-h")
}

/// If `args` ask for help ([`wants_help`]), print `usage` to standard
/// output and return exit 0; the caller returns that code at once.
pub fn help(args: &[String], usage: &str) -> Option<ExitCode> {
    wants_help(args).then(|| {
        println!("{usage}");
        ExitCode::SUCCESS
    })
}

/// The error for a flag the binary does not know.
pub fn unknown(flag: &str) -> String {
    format!("unknown option {flag:?}")
}

/// Expand merge inputs: each argument is a literal path or a filename
/// glob (see [`crate::glob`]). Shells pass an unmatched pattern through
/// verbatim, so a pattern matching nothing is an error, and so is an
/// empty input list — a merge never silently writes an empty result.
pub fn expand_inputs(args: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for arg in args {
        let matched = crate::glob::expand(arg)?;
        if matched.is_empty() {
            return Err(format!("pattern '{arg}' matched no files"));
        }
        files.extend(matched);
    }
    if files.is_empty() {
        return Err("no input files — nothing to merge".to_string());
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::new(v.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn values_are_taken_and_checked_strictly() {
        let mut a = args(&["--n", "7", "--n", "x", "--n"]);
        assert_eq!(a.next().as_deref(), Some("--n"));
        assert_eq!(a.parsed::<u32>("--n"), Ok(7));
        a.next();
        assert_eq!(
            a.parsed::<u32>("--n"),
            Err("--n: invalid value \"x\"".to_string())
        );
        a.next();
        assert_eq!(a.value("--n"), Err("--n needs a value".to_string()));
        assert_eq!(unknown("--bogus"), "unknown option \"--bogus\"");
    }

    #[test]
    fn help_is_asked_anywhere_on_the_line() {
        let v = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(wants_help(&v(&["--help"])));
        assert!(wants_help(&v(&["help"])));
        assert!(wants_help(&v(&["schedule", "figure1", "--help"])));
        assert!(wants_help(&v(&["serve", "-h"])));
        assert!(!wants_help(&v(&[])));
        assert!(!wants_help(&v(&["schedule", "help"])));
        assert!(!wants_help(&v(&["--helpful"])));
        assert!(help(&v(&["soak"]), "usage").is_none());
    }

    #[test]
    fn seeds_take_hex_or_decimal_and_jobs_go_through_parse_jobs() {
        let mut a = args(&["0xC0FFEE", "0X10", "42", "0xZZ", "-1", "3", "x"]);
        assert_eq!(a.seed("--s"), Ok(0xC0FFEE));
        assert_eq!(a.seed("--s"), Ok(16));
        assert_eq!(a.seed("--s"), Ok(42));
        assert!(a.seed("--s").unwrap_err().contains("invalid seed \"0xZZ\""));
        assert!(a.seed("--s").is_err());
        assert_eq!(a.jobs("--jobs"), Ok(Parallelism::from_jobs(3)));
        assert!(a.jobs("--jobs").unwrap_err().starts_with("--jobs: "));
    }

    #[test]
    fn expand_inputs_rejects_empty_and_unmatched_inputs() {
        assert!(expand_inputs(&[]).unwrap_err().contains("no input files"));
        let dir = std::env::temp_dir().join("tms_verify_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.json"), "{}").unwrap();
        let pattern = format!("{}/*.ndjson", dir.display());
        let err = expand_inputs(std::slice::from_ref(&pattern)).unwrap_err();
        assert_eq!(err, format!("pattern '{pattern}' matched no files"));
        let got = expand_inputs(&[format!("{}/*.json", dir.display()), "lit".into()]).unwrap();
        assert_eq!(got, vec![dir.join("a.json"), PathBuf::from("lit")]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
