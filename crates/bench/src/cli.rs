//! Command-line parsing shared by the `figures` and `perfdump` binaries.
//!
//! Both binaries take the experiment flags `--input-kb N`, `--seed S`,
//! `--chunks N` and `--device rtx3090|a100`, which
//! [`Args::experiment_flag`] applies to an [`ExperimentConfig`]. A missing
//! or bad value is a [`CliError`]: the binary prints its one line and
//! exits with status 2, never a panic. So is an output file that cannot be
//! written ([`write_file`]).

use std::fmt;
use std::iter::Peekable;
use std::str::FromStr;

use gspecpal_gpu::DeviceSpec;

use crate::ExperimentConfig;

/// A command-line mistake, worded as the one line a binary prints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl CliError {
    /// Prints the message to stderr and exits with status 2.
    pub fn exit(&self) -> ! {
        eprintln!("{self}");
        std::process::exit(2)
    }
}

/// The arguments after the program name, consumed front to back.
pub struct Args(Peekable<std::vec::IntoIter<String>>);

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

impl Args {
    /// Wraps an argument list (without the program name).
    pub fn new(args: Vec<String>) -> Self {
        Args(args.into_iter().peekable())
    }

    /// This process's arguments.
    pub fn from_env() -> Self {
        Args::new(std::env::args().skip(1).collect())
    }

    /// The value following `flag`.
    pub fn operand(&mut self, flag: &str) -> Result<String, CliError> {
        self.0.next().ok_or_else(|| CliError(format!("{flag} needs a value")))
    }

    /// The numeric value following `flag`, which must be at least `min`.
    pub fn number<T: FromStr + PartialOrd + fmt::Display>(
        &mut self,
        flag: &str,
        min: T,
    ) -> Result<T, CliError> {
        let raw = self.operand(flag)?;
        match raw.parse::<T>() {
            Ok(n) if n >= min => Ok(n),
            _ => Err(CliError(format!("{flag} takes a number of at least {min}, got '{raw}'"))),
        }
    }

    /// The next argument if it parses as a `T`; otherwise nothing is
    /// consumed (an optional operand).
    pub fn optional<T: FromStr>(&mut self) -> Option<T> {
        let value = self.0.peek()?.parse().ok()?;
        self.0.next();
        Some(value)
    }

    /// Applies `flag` to `cfg` if it is one of the shared experiment flags
    /// (`--input-kb`, `--seed`, `--chunks`, `--device`), consuming its
    /// value; `Ok(false)` for any other argument.
    pub fn experiment_flag(
        &mut self,
        flag: &str,
        cfg: &mut ExperimentConfig,
    ) -> Result<bool, CliError> {
        match flag {
            "--input-kb" => {
                let kb: usize = self.number(flag, 1)?;
                cfg.input_len = kb
                    .checked_mul(1024)
                    .ok_or_else(|| CliError(format!("{flag} {kb} is too large")))?;
            }
            "--seed" => cfg.seed = self.number(flag, 0)?,
            "--chunks" => cfg.n_chunks = self.number(flag, 1)?,
            "--device" => {
                cfg.device = match self.operand(flag)?.as_str() {
                    "rtx3090" => DeviceSpec::rtx3090(),
                    "a100" => DeviceSpec::a100(),
                    other => {
                        return Err(CliError(format!("unknown device {other} (try rtx3090, a100)")))
                    }
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Writes `contents` to `dir/file`, creating `dir` first. Returns the path
/// written, or the one line a binary prints when the write fails.
pub fn write_file(dir: &str, file: &str, contents: &str) -> Result<String, CliError> {
    let path = format!("{dir}/{file}");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, contents))
        .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Applies every argument as a shared experiment flag.
    fn parse(args: &[&str]) -> Result<ExperimentConfig, CliError> {
        let mut args = Args::new(args.iter().map(|a| a.to_string()).collect());
        let mut cfg = ExperimentConfig::default();
        while let Some(flag) = args.next() {
            assert!(args.experiment_flag(&flag, &mut cfg)?, "{flag} is a shared flag");
        }
        Ok(cfg)
    }

    #[test]
    fn shared_flags_set_the_config() {
        let cfg = parse(&["--input-kb", "8", "--seed", "9", "--chunks", "16", "--device", "a100"])
            .unwrap();
        assert_eq!(cfg.input_len, 8 * 1024);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.n_chunks, 16);
        assert_eq!(cfg.device.name, DeviceSpec::a100().name);
    }

    #[test]
    fn bad_values_are_one_line_errors() {
        let err = |args: &[&str]| parse(args).unwrap_err().0;
        assert_eq!(err(&["--chunks", "0"]), "--chunks takes a number of at least 1, got '0'");
        assert_eq!(err(&["--input-kb", "0"]), "--input-kb takes a number of at least 1, got '0'");
        assert_eq!(err(&["--seed", "x"]), "--seed takes a number of at least 0, got 'x'");
        assert_eq!(err(&["--chunks", "-3"]), "--chunks takes a number of at least 1, got '-3'");
        assert_eq!(err(&["--seed"]), "--seed needs a value");
        assert_eq!(err(&["--device", "bogus"]), "unknown device bogus (try rtx3090, a100)");
        let huge = (usize::MAX / 1024 + 1).to_string();
        assert_eq!(err(&["--input-kb", &huge]), format!("--input-kb {huge} is too large"));
    }

    #[test]
    fn other_arguments_are_left_to_the_binary() {
        let mut args = Args::new(vec!["--csv".to_string(), "dir".to_string()]);
        let mut cfg = ExperimentConfig::default();
        let flag = args.next().unwrap();
        assert!(!args.experiment_flag(&flag, &mut cfg).unwrap());
        assert_eq!(args.operand(&flag).unwrap(), "dir");
        assert_eq!(args.operand(&flag), Err(CliError("--csv needs a value".into())));
    }

    #[test]
    fn optional_operands_consume_only_what_parses() {
        let mut args = Args::new(vec!["12".to_string(), "--out".to_string()]);
        assert_eq!(args.optional::<usize>(), Some(12));
        assert_eq!(args.optional::<usize>(), None);
        assert_eq!(args.next().as_deref(), Some("--out"));
    }

    #[test]
    fn unwritable_output_is_a_one_line_error() {
        // A directory cannot be created under a regular file.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/out");
        let err = write_file(dir, "x.csv", "a\n").unwrap_err().0;
        assert!(err.starts_with(&format!("cannot write {dir}/x.csv: ")), "{err}");
        assert!(!err.contains('\n'), "{err}");
    }
}
