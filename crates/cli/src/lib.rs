#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Scenario-driven command-line front end for the `pmor` stack.
//!
//! The DATE 2005 paper's value proposition is an end-to-end flow —
//! assemble a varying interconnect system, reduce it **once**, then
//! evaluate thousands of parameter/frequency points cheaply. This crate
//! packages that flow behind one binary, `pmor`, driven by declarative
//! TOML **scenario files** (see [`scenario`] and the ready-made files
//! under `scenarios/`):
//!
//! ```text
//! pmor run    <scenario.toml>   # reduce + analyze + BENCH_*.json [+ ROMs]
//! pmor reduce <scenario.toml>   # reduce only, persist every method's ROM
//! pmor eval   <model.rom> …     # frequency sweep on a persisted ROM
//! pmor mc     <model.rom> …     # |λ₁| statistics and yield on a persisted ROM
//! pmor info   <model.rom>       # describe a persisted ROM
//! pmor list                     # registered generators, methods, analyses
//! ```
//!
//! Scenarios reuse the rest of the workspace unchanged: generators from
//! `pmor-circuits`, methods through `pmor::reducer_by_name` over one
//! shared [`pmor::ReductionContext`], analyses from `pmor-variation`,
//! and `BENCH_*.json` records from `pmor-bench`. ROM persistence is
//! `pmor::rom::save`/`load` — reloaded models evaluate bit-for-bit
//! identically to the originals. `pmor eval` and `pmor mc` are the
//! registry's `frequency_sweep` and `yield` analyses run on a persisted
//! ROM alone.

/// `println!` for the `pmor` binary: every stdout line goes through
/// [`write_line`].
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_line(format_args!($($arg)*))
    };
}

/// `eprintln!` for the `pmor` binary: every stderr line goes through
/// [`write_err_line`].
#[macro_export]
macro_rules! errln {
    ($($arg:tt)*) => {
        $crate::write_err_line(format_args!($($arg)*))
    };
}

pub mod bench_cmd;
pub mod cache;
pub mod exec;
pub mod lint_cmd;
pub mod scenario;
pub mod serve_cmd;
pub mod vet_cmd;
pub use pmor_bench::toml;

pub use exec::{reduce_scenario, run_scenario, ExecReport};
pub use pmor_variation::analysis::{AnalysisConfig, AnalysisKind, ErrorMetric};
pub use scenario::{AnalysisSpec, OutputSpec, Scenario, SystemSpec};

use std::fmt;
use std::io::{self, Write};
use std::path::Path;

/// Writes `line` and a newline to stdout. `println!` panics once the
/// reader has gone (`pmor eval x.rom | head -1`); here a closed pipe ends
/// the process with status 0, as for any Unix filter, and any other write
/// error ends it with status 1.
pub fn write_line(line: fmt::Arguments<'_>) {
    if let Err(e) = writeln!(io::stdout().lock(), "{line}") {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        errln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// Writes `line` and a newline to stderr. `eprintln!` panics when stderr
/// is a closed pipe (`pmor … 2>&1 | head -c 10`); here a failed write is
/// dropped, since there is nowhere left to report it, and the exit status
/// still says how the command ended.
pub fn write_err_line(line: fmt::Arguments<'_>) {
    let _ = writeln!(io::stderr().lock(), "{line}");
}

/// Top-level CLI error: every failure the binary reports.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// Filesystem failure (reading scenarios, writing outputs).
    Io(String),
    /// Invalid input: a scenario, suite or flag value the command cannot
    /// act on.
    Invalid(String),
    /// A check that ran and failed: a lint or vet verdict, a report
    /// validator, or a bench gate.
    Check(String),
    /// A reduction/analysis kernel failed.
    Pmor(String),
    /// Command-line usage error (unknown subcommand, bad flag).
    Usage(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Io(msg) => write!(f, "i/o error: {msg}"),
            CliError::Invalid(msg) => write!(f, "invalid input: {msg}"),
            CliError::Check(msg) => write!(f, "check failed: {msg}"),
            CliError::Pmor(msg) => write!(f, "computation failed: {msg}"),
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// `--flag value` pairs: the one flag parser of every `pmor` subcommand
/// that takes `--flag value` options.
#[derive(Debug)]
pub struct Flags(Vec<(String, String)>);

impl Flags {
    /// Parses `args`, refusing (as a usage error) a bare argument, a flag
    /// without a value and any flag not in `known`.
    pub fn parse(args: &[String], known: &[&str]) -> Result<Flags, CliError> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(CliError::Usage(format!("unexpected argument {flag:?}")));
            };
            if !known.contains(&name) {
                return Err(CliError::Usage(format!("unknown flag --{name}")));
            }
            let Some(value) = it.next() else {
                return Err(CliError::Usage(format!("--{name} needs a value")));
            };
            flags.push((name.to_string(), value.clone()));
        }
        Ok(Flags(flags))
    }

    /// The value given to `--name`, if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value given to `--name` as a `T` that `ok` accepts, if any;
    /// any other value is a usage error naming the flag and `what` it
    /// takes.
    pub fn value<T: std::str::FromStr>(
        &self,
        name: &str,
        what: &str,
        ok: fn(&T) -> bool,
    ) -> Result<Option<T>, CliError> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .ok()
                    .filter(ok)
                    .ok_or_else(|| CliError::Usage(format!("--{name}: invalid {what} {v:?}")))
            })
            .transpose()
    }
}

/// An analysis the registry refuses to build, as `[analysis] …`. A knob
/// value it rejects (`PmorError::Invalid`) is given by its message alone,
/// since the error that carries this text is labelled already.
pub(crate) fn analysis_build_error(e: &pmor::PmorError) -> String {
    match e {
        pmor::PmorError::Invalid(msg) => format!("[analysis] {msg}"),
        other => format!("[analysis] {other}"),
    }
}

impl From<crate::toml::TomlError> for CliError {
    fn from(e: crate::toml::TomlError) -> Self {
        CliError::Invalid(e.to_string())
    }
}

/// Reads a `.rom` file: the one ROM loader of `pmor eval`, `mc`, `info`
/// and `serve --roms`. A file in another format version is refused with
/// its own message: the file, its version and how to rebuild it.
///
/// # Errors
///
/// Fails when the file cannot be read or is not a valid `.rom`.
pub fn load_rom(path: &Path) -> Result<pmor::ParametricRom, CliError> {
    use pmor::rom::{format_version, from_bytes, ROM_FORMAT_VERSION};
    let name = path.display();
    let bytes = std::fs::read(path).map_err(|e| CliError::Io(format!("{name}: {e}")))?;
    match format_version(&bytes) {
        Some(version) if version != ROM_FORMAT_VERSION => Err(CliError::Invalid(format!(
            "{name} is a .rom file of format version {version}, which this build \
             cannot read (it reads version {ROM_FORMAT_VERSION}); rebuild it with \
             `pmor reduce` on its scenario"
        ))),
        _ => from_bytes(&bytes).map_err(|e| CliError::Pmor(format!("{name}: {e}"))),
    }
}
