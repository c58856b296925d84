//! `benchmark`: the campaign ledger.
//!
//! ```text
//! benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace 0|1] [--out <dir>]
//! benchmark --all [--seed <u64>] [--seconds <n>] [--traced] [--out <dir>]
//! benchmark --compare <base_dir> <head_dir>
//! ```
//!
//! A workload run prints its metrics and, as the last line of standard
//! output, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics of `BENCHMARK.json` untraced, or
//! its per-layer metrics with `--trace 1` (`--traced`). See README.md.

mod catalogue;
mod compare;
mod decompose;
mod replica;
mod run;
mod spans;
mod stats;
mod sys;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::Workload;

const USAGE: &str = "usage:
  benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace 0|1] [--out <dir>]
  benchmark --all [--seed <u64>] [--seconds <n>] [--traced] [--out <dir>]
  benchmark --compare <base_dir> <head_dir>
workloads: e1_paper, e2_journaled, fleet_paper";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// One workload to run, or `None` with `--all`.
    pub workload: Option<Workload>,
    /// Input seed.
    pub seed: u64,
    /// Target seconds of timed reps (sets the rep count).
    pub seconds: u64,
    /// Per-layer (traced) run instead of end-to-end.
    pub traced: bool,
    /// Root of every file the run writes.
    pub out: PathBuf,
}

enum Mode {
    Run(Args),
    All(Args),
    Compare(PathBuf, PathBuf),
}

fn parse_seed(text: &str) -> Result<u64, String> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    }
    .map_err(|e| format!("--seed `{text}`: {e}"))
}

fn parse(argv: &[String]) -> Result<Mode, String> {
    let mut args = Args {
        workload: None,
        seed: workload::DEFAULT_SEED,
        seconds: run::DEFAULT_SECONDS,
        traced: false,
        out: PathBuf::from("target/benchmark"),
    };
    let mut all = false;
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = parse_seed(&value()?)?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--traced" => args.traced = true,
            "--out" => args.out = PathBuf::from(value()?),
            "--all" => all = true,
            "--compare" => {
                let base = PathBuf::from(value()?);
                let head = PathBuf::from(value()?);
                return Ok(Mode::Compare(base, head));
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    match (all, args.workload) {
        (true, None) => Ok(Mode::All(args)),
        (false, Some(_)) => Ok(Mode::Run(args)),
        (true, Some(_)) => Err("--all runs every workload; drop --workload".to_owned()),
        (false, None) => Err("name a --workload, or pass --all".to_owned()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(Mode::Run(args)) => run::workload(&args),
        Ok(Mode::All(args)) => run::all(&args),
        Ok(Mode::Compare(base, head)) => compare::main(&base, &head),
        Err(message) => {
            eprintln!("benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
