//! The one command-line parser of every `fic` binary.
//!
//! Each binary declares the command line it reads as a [`Cli`]: its
//! name, its positional operands and its flags ([`ALL`] lists the
//! eleven). [`Cli::parse`] is the one flag loop. A flag the binary
//! does not declare, a flag without its value, a missing or surplus
//! operand and a value that does not parse are all errors of one
//! shape — `` unknown flag `--x` ``, `--x needs a value`,
//! `--x: <why>` — and [`Cli::from_env`] prints the error and the
//! binary's own usage line, then exits 2. No binary silently ignores a
//! flag. A flag may repeat: the last value counts, except where a
//! binary reads every value ([`Args::values`], `fleet_server
//! --campaign`).
//!
//! `--scale`, `--observation` and `--workers` become a [`Protocol`] in
//! one place, [`protocol`], and every binary that reads `--scale`
//! refuses a 0 × 0 grid ([`Args::scale`]).
//!
//! `full_campaign`'s flags fill [`CliOptions`]:
//!
//! * `--scale <n>` — use an `n × n` test-case grid instead of the
//!   paper's 5 × 5 (`n ≥ 1`);
//! * `--observation <ms>` — shorten the 40 s observation window;
//! * `--workers <n>` — worker threads (default: all cores);
//! * `--out <dir>` — artefact directory (default `results/`);
//! * `--journal <file>` — stream every completed trial to a crash-safe
//!   JSONL journal;
//! * `--resume` — replay the journal named by `--journal` and run only
//!   the missing trials;
//! * `--from-journal <file>` — rebuild the reports from a journal
//!   instead of running any trials;
//! * `--repro-dir <dir>` — where the reproducer bundle
//!   (`fic::trace::ReproBundle`) of the offending case of a golden-run
//!   failure goes (default `results/repro`); every such failure writes
//!   one.
//!
//! No flag compares a run with the committed tables: `results/` is
//! their one reference, and `tests/paper_campaign.rs` requires a live
//! paper campaign to rewrite it byte for byte.
//!
//! The README has one flag table per binary, and this module's tests
//! hold those tables equal to the declarations here.
//!
//! A campaign is spread over hosts by the fleet (`fleet_server` and
//! `fleet_worker`), not by a flag of `full_campaign`.
//!
//! There is one execution path: every live run forks cached fault-free
//! prefixes, steps lockstep batches with the analytic stops on and
//! prunes statically inert errors (`fic::campaign`). Replaying every
//! trial from t = 0 (`fic::run_trial`) is the oracle the differential
//! test suites compare it against, not a flag.
//!
//! The observers need no flag. Every live run ([`runner`]) records
//! telemetry (with the live progress line) and the per-EA cost
//! profile, and folds attribution with its reports; every run, live or
//! `--from-journal`, ends in [`crate::results::write_artefacts`], which
//! writes the tables and every report. No observer changes a result
//! bit.

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;

use crate::campaign::CampaignRunner;
use crate::profile;
use crate::protocol::Protocol;
use crate::telemetry;

/// One binary's command line, declared by its synopsis: the binary's
/// name, its `<operand>`s (all required), then `[--switch]` and
/// `[--flag operand]` for every flag it reads. The usage line is the
/// synopsis itself.
#[derive(Debug)]
pub struct Cli(pub &'static str);

/// `full_campaign`: the paper's whole evaluation ([`CliOptions`]).
pub const FULL_CAMPAIGN: Cli = Cli(
    "full_campaign [--scale n] [--observation ms] [--workers n] [--out dir] \
     [--journal file] [--resume] [--from-journal file] [--repro-dir dir]",
);
/// `figures`: Figures 1–3 and 5/6.
pub const FIGURES: Cli = Cli("figures [--out dir]");
/// `calibrate`: the rate-bound calibration sweep.
pub const CALIBRATE: Cli = Cli("calibrate [--scale n] [--observation ms] [--out dir]");
/// `ablation_recovery`: recovery write-back against detection only.
pub const ABLATION_RECOVERY: Cli =
    Cli("ablation_recovery [--scale n] [--observation ms] [--out dir]");
/// `trace_diff`: the determinism gate and divergence analysis.
pub const TRACE_DIFF: Cli = Cli(
    "trace_diff [--scale n] [--observation ms] [--case idx] [--error S<k>] [--e2 n] \
     [--out dir] [--repro-dir dir]",
);
/// `attribution_report`: the attribution report of a journal.
pub const ATTRIBUTION_REPORT: Cli = Cli(
    "attribution_report <journal.jsonl> [--out dir] [--label name] [--oracle n] \
     [--save-oracle]",
);
/// `telemetry_check`: the report validators.
pub const TELEMETRY_CHECK: Cli = Cli(
    "telemetry_check [--report file] [--journal file] [--attribution file] \
     [--convergence file]",
);
/// `detox_report`: the coverage-per-cost league table.
pub const DETOX_REPORT: Cli = Cli("detox_report <journal> [--profile file] [--out dir]");
/// `fleet_server` ([`crate::fleet::ServerOptions`]).
pub const FLEET_SERVER: Cli = Cli(
    "fleet_server [--listen host:port] [--campaign name]... [--once] [--scale n] \
     [--observation ms] [--e1-limit n] [--e2-limit n] [--lease-ms ms] [--out dir] \
     [--journal-dir dir] [--flight-recorder]",
);
/// `fleet_worker` ([`crate::fleet::WorkerOptions`]).
pub const FLEET_WORKER: Cli = Cli(
    "fleet_worker [--connect host:port] [--name label] [--threads n] \
     [--connect-timeout-ms ms] [--die-after-leases n]",
);
/// `trace_export`: a flight log to a Chrome trace.
pub const TRACE_EXPORT: Cli = Cli("trace_export <flight_log.json> <out.json>");

/// Every binary's command line.
pub const ALL: [&Cli; 11] = [
    &FULL_CAMPAIGN,
    &FIGURES,
    &CALIBRATE,
    &ABLATION_RECOVERY,
    &TRACE_DIFF,
    &ATTRIBUTION_REPORT,
    &TELEMETRY_CHECK,
    &DETOX_REPORT,
    &FLEET_SERVER,
    &FLEET_WORKER,
    &TRACE_EXPORT,
];

impl Cli {
    /// The binary's name.
    pub fn bin(&self) -> &'static str {
        self.0.split(' ').next().unwrap_or_default()
    }

    /// The usage line.
    pub fn usage(&self) -> String {
        format!("usage: {}", self.0)
    }

    /// Every flag the synopsis declares, and whether it takes a value.
    pub fn flags(&self) -> impl Iterator<Item = (&'static str, bool)> {
        self.0.split_whitespace().filter_map(|token| {
            let flag = token.strip_prefix('[').filter(|f| f.starts_with("--"))?;
            Some(
                flag.strip_suffix(']')
                    .map_or((flag, true), |switch| (switch, false)),
            )
        })
    }

    /// The positional operands the synopsis declares.
    fn operands(&self) -> impl Iterator<Item = &'static str> {
        self.0
            .split_whitespace()
            .filter(|token| token.starts_with('<') && token.ends_with('>'))
    }

    /// Splits an argument list into operands and declared flags.
    ///
    /// # Errors
    ///
    /// An undeclared flag, a flag without its value, or too few or too
    /// many operands, as a message naming it.
    pub fn parse(&self, argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut iter = argv.iter();
        while let Some(arg) = iter.next() {
            if !arg.starts_with("--") {
                args.operands.push(arg.clone());
                continue;
            }
            let Some((flag, takes_value)) = self.flags().find(|(flag, _)| flag == arg) else {
                return Err(format!("unknown flag `{arg}`"));
            };
            let value = if takes_value {
                iter.next().ok_or_else(|| format!("{flag} needs a value"))?
            } else {
                ""
            };
            args.flags.push((flag, value.to_owned()));
        }
        let declared = self.operands().count();
        if let Some(extra) = args.operands.get(declared) {
            return Err(format!("unexpected argument `{extra}`"));
        }
        if let Some(missing) = self.operands().nth(args.operands.len()) {
            return Err(format!("missing operand {missing}"));
        }
        Ok(args)
    }

    /// Parses this process's arguments and builds the binary's options
    /// from them; on any error, prints it and the usage line and exits 2.
    pub fn from_env<T>(&self, build: impl FnOnce(&Args) -> Result<T, String>) -> T {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match self.parse(&argv).and_then(|args| build(&args)) {
            Ok(options) => options,
            Err(message) => {
                eprintln!("{message}");
                eprintln!("{}", self.usage());
                std::process::exit(2);
            }
        }
    }
}

/// A parsed command line: its operands and every flag occurrence, in
/// order.
#[derive(Debug, Default)]
pub struct Args {
    operands: Vec<String>,
    flags: Vec<(&'static str, String)>,
}

impl Args {
    /// The positional operands, as many as the [`Cli`] declares.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.values(flag).next().is_some()
    }

    /// Every value given to `flag`, in order.
    pub fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.flags
            .iter()
            .filter(move |(name, _)| *name == flag)
            .map(|(_, value)| value.as_str())
    }

    /// The last value given to `flag`, parsed (`None` when absent).
    ///
    /// # Errors
    ///
    /// `--flag: <why>` when the value does not parse.
    pub fn value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.values(flag)
            .last()
            .map(|value| value.parse().map_err(|e| format!("{flag}: {e}")))
            .transpose()
    }

    /// `--scale`, which must be at least 1: a 0 × 0 grid has no test
    /// cases, so every table cell would read `-`.
    ///
    /// # Errors
    ///
    /// `--scale: …` for a value that does not parse or is 0.
    pub fn scale(&self) -> Result<Option<usize>, String> {
        match self.value("--scale")? {
            Some(0) => Err("--scale: the grid needs at least one test case, got 0".to_owned()),
            scale => Ok(scale),
        }
    }
}

/// The protocol of an `n × n` grid (`None` = the paper's 5 × 5), an
/// observation window (`None` = 40 s) and a worker count (`None` = all
/// cores): the one place a command line becomes a [`Protocol`].
pub fn protocol(
    scale: Option<usize>,
    observation_ms: Option<u64>,
    workers: Option<usize>,
) -> Protocol {
    let mut protocol = match scale {
        Some(n) => Protocol::scaled(n, simenv::spec::OBSERVATION_MS),
        None => Protocol::paper(),
    };
    if let Some(ms) = observation_ms {
        protocol.observation_ms = ms;
    }
    if let Some(w) = workers {
        protocol.workers = w;
    }
    protocol
}

/// A campaign runner for `protocol` with every observer attached: a
/// fresh metrics registry with the live progress line and the cost
/// profile recorder. Attribution is folded by [`CampaignRunner::run`]
/// and [`CampaignRunner::resume`] themselves.
pub fn runner(protocol: Protocol) -> CampaignRunner {
    CampaignRunner::new(protocol)
        .with_telemetry(Arc::new(telemetry::Registry::new()))
        .with_progress()
        .with_profile(Arc::new(profile::ProfileRecorder::new()))
}

/// `full_campaign`'s options.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Grid scale override (`n × n`).
    pub scale: Option<usize>,
    /// Observation-window override, ms.
    pub observation_ms: Option<u64>,
    /// Worker-thread override.
    pub workers: Option<usize>,
    /// Artefact output directory.
    pub out_dir: PathBuf,
    /// Stream completed trials to this journal file.
    pub journal: Option<PathBuf>,
    /// Replay the `--journal` file and run only missing trials.
    pub resume: bool,
    /// Rebuild reports from a completed journal; no trials run.
    pub from_journal: Option<PathBuf>,
    /// Where reproducer bundles are written on a golden-run failure.
    pub repro_dir: PathBuf,
}

impl CliOptions {
    /// Parses a `full_campaign` argument list.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending flag or value.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        Self::from_args(&FULL_CAMPAIGN.parse(argv)?)
    }

    /// Builds the options from parsed [`FULL_CAMPAIGN`] arguments.
    ///
    /// # Errors
    ///
    /// A value that does not parse, or journal flags that contradict
    /// each other.
    pub fn from_args(args: &Args) -> Result<Self, String> {
        let options = CliOptions {
            scale: args.scale()?,
            observation_ms: args.value("--observation")?,
            workers: args.value("--workers")?,
            out_dir: args.value("--out")?.unwrap_or_else(|| "results".into()),
            journal: args.value("--journal")?,
            resume: args.has("--resume"),
            from_journal: args.value("--from-journal")?,
            repro_dir: args
                .value("--repro-dir")?
                .unwrap_or_else(|| "results/repro".into()),
        };
        if options.resume && options.journal.is_none() {
            return Err("--resume needs --journal <file>".to_owned());
        }
        if options.from_journal.is_some() && (options.journal.is_some() || options.resume) {
            return Err("--from-journal replays a finished journal; it cannot be \
                 combined with --journal/--resume"
                .to_owned());
        }
        Ok(options)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn defaults_to_paper_protocol() {
        let options = CliOptions::parse(&[]).unwrap();
        let protocol = protocol(options.scale, options.observation_ms, options.workers);
        assert_eq!(protocol, Protocol::paper());
        assert_eq!(protocol.cases_per_error(), 25);
        assert_eq!(protocol.observation_ms, 40_000);
        assert_eq!(options.out_dir, PathBuf::from("results"));
        assert!(!options.resume);
        assert!(options.journal.is_none() && options.from_journal.is_none());
        assert_eq!(options.repro_dir, PathBuf::from("results/repro"));
        let runner = runner(protocol);
        assert!(runner.telemetry().is_some() && runner.profile().is_some());
    }

    #[test]
    fn parses_repro_dir() {
        let options = CliOptions::parse(&args(&["--repro-dir", "/tmp/repro"])).unwrap();
        assert_eq!(options.repro_dir, PathBuf::from("/tmp/repro"));
        assert!(CliOptions::parse(&args(&["--repro-dir"])).is_err());
        assert!(CliOptions::parse(&args(&["--trace"])).is_err());
    }

    /// The README's `#### `bin`` sections and the flags each one's
    /// table documents (rows that start with `` | `--``).
    fn readme_flag_tables() -> BTreeMap<String, BTreeSet<String>> {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md at the repo root");
        let mut tables = BTreeMap::new();
        let mut section: Option<String> = None;
        for line in readme.lines() {
            if line.starts_with('#') {
                section = line
                    .strip_prefix("#### `")
                    .and_then(|rest| rest.strip_suffix('`'))
                    .map(str::to_owned);
                if let Some(bin) = &section {
                    tables.insert(bin.clone(), BTreeSet::new());
                }
            } else if let (Some(bin), Some(rest)) = (&section, line.strip_prefix("| `--")) {
                let flag: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '-')
                    .collect();
                tables
                    .get_mut(bin)
                    .expect("section inserted")
                    .insert(format!("--{flag}"));
            }
        }
        tables
    }

    /// Every flag a binary's README table documents is one that binary
    /// declares, and every README section names a binary.
    #[test]
    fn readme_documents_only_known_flags() {
        let tables = readme_flag_tables();
        let mut checked = 0;
        for (bin, flags) in &tables {
            let cli = ALL
                .iter()
                .find(|cli| cli.bin() == bin)
                .unwrap_or_else(|| panic!("README has a flag section for `{bin}`, no binary"));
            for flag in flags {
                assert!(
                    cli.flags().any(|(name, _)| name == flag),
                    "README documents `{flag}` for {bin}, which does not read it"
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 48, "README flag tables went missing");
    }

    /// The reverse direction: every binary has a README section, and
    /// every flag it declares has a row there, so a flag cannot land
    /// without one.
    #[test]
    fn readme_documents_every_parser_flag() {
        let tables = readme_flag_tables();
        for cli in ALL {
            let documented = tables
                .get(cli.bin())
                .unwrap_or_else(|| panic!("README has no flag section for `{}`", cli.bin()));
            for (flag, _) in cli.flags() {
                assert!(
                    documented.contains(flag),
                    "{} reads `{flag}` but its README table does not document it",
                    cli.bin()
                );
            }
        }
    }

    #[test]
    fn every_binary_declares_each_flag_once() {
        let mut total = 0;
        for cli in ALL {
            let names: BTreeSet<&str> = cli.flags().map(|(name, _)| name).collect();
            assert_eq!(names.len(), cli.flags().count(), "{}", cli.bin());
            total += names.len();
        }
        assert_eq!(total, 48);
        let server: Vec<_> = FLEET_SERVER.flags().take(3).collect();
        assert_eq!(
            server,
            [("--listen", true), ("--campaign", true), ("--once", false)]
        );
        assert_eq!(TRACE_EXPORT.flags().count(), 0);
        assert_eq!(ATTRIBUTION_REPORT.bin(), "attribution_report");
    }

    #[test]
    fn the_usage_line_is_the_synopsis() {
        assert_eq!(
            DETOX_REPORT.usage(),
            "usage: detox_report <journal> [--profile file] [--out dir]"
        );
        assert!(FULL_CAMPAIGN
            .usage()
            .contains(" [--out dir] [--journal file] [--resume] "));
    }

    #[test]
    fn the_loop_names_a_missing_value_or_an_unknown_flag() {
        assert_eq!(
            CALIBRATE.parse(&args(&["--out"])).unwrap_err(),
            "--out needs a value"
        );
        assert_eq!(
            CALIBRATE.parse(&args(&["--workers", "2"])).unwrap_err(),
            "unknown flag `--workers`"
        );
        for cli in [&FIGURES, &ATTRIBUTION_REPORT] {
            assert_eq!(
                cli.parse(&args(&["j.jsonl", "--resume"])).unwrap_err(),
                "unknown flag `--resume`"
            );
        }
        assert_eq!(
            ATTRIBUTION_REPORT
                .parse(&args(&["j.jsonl", "--repro-dir", "r"]))
                .unwrap_err(),
            "unknown flag `--repro-dir`"
        );
        // A value is taken as given, even when it looks like a flag.
        let parsed = FIGURES.parse(&args(&["--out", "--scale"])).unwrap();
        assert_eq!(
            parsed.value::<PathBuf>("--out").unwrap(),
            Some("--scale".into())
        );
    }

    #[test]
    fn a_bad_number_names_its_flag() {
        let parsed = TRACE_DIFF
            .parse(&args(&["--observation", "soon", "--case", "-1"]))
            .unwrap();
        let err = parsed.value::<u64>("--observation").unwrap_err();
        assert!(err.starts_with("--observation: "), "{err}");
        let err = parsed.value::<usize>("--case").unwrap_err();
        assert!(err.starts_with("--case: "), "{err}");
        let zero = TRACE_DIFF
            .parse(&args(&["--scale", "0", "--scale", "x"]))
            .unwrap();
        assert!(zero
            .scale()
            .unwrap_err()
            .starts_with("--scale: invalid digit"));
        let zero = TRACE_DIFF.parse(&args(&["--scale", "0"])).unwrap();
        assert!(zero.scale().unwrap_err().starts_with("--scale: the grid"));
    }

    #[test]
    fn operands_are_counted_wherever_they_stand() {
        let parsed = ATTRIBUTION_REPORT
            .parse(&args(&["--out", "o", "j.jsonl", "--save-oracle"]))
            .unwrap();
        assert_eq!(parsed.operands(), ["j.jsonl"]);
        assert!(parsed.has("--save-oracle") && !parsed.has("--oracle"));
        assert_eq!(
            ATTRIBUTION_REPORT
                .parse(&args(&["--out", "o"]))
                .unwrap_err(),
            "missing operand <journal.jsonl>"
        );
        assert_eq!(
            ATTRIBUTION_REPORT
                .parse(&args(&["a.jsonl", "b.jsonl"]))
                .unwrap_err(),
            "unexpected argument `b.jsonl`"
        );
        assert_eq!(
            TRACE_EXPORT.parse(&args(&["log.json"])).unwrap_err(),
            "missing operand <out.json>"
        );
        assert_eq!(
            FULL_CAMPAIGN.parse(&args(&["stray"])).unwrap_err(),
            "unexpected argument `stray`"
        );
    }

    #[test]
    fn a_repeated_flag_keeps_every_value_and_reads_the_last() {
        let parsed = FLEET_SERVER
            .parse(&args(&[
                "--campaign",
                "a",
                "--scale",
                "3",
                "--campaign",
                "b",
                "--scale",
                "2",
            ]))
            .unwrap();
        assert_eq!(parsed.values("--campaign").collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(parsed.scale().unwrap(), Some(2));
        assert!(parsed.values("--listen").next().is_none());
    }

    #[test]
    fn parses_overrides() {
        let options = CliOptions::parse(&args(&[
            "--scale",
            "2",
            "--observation",
            "5000",
            "--workers",
            "3",
            "--out",
            "/tmp/x",
        ]))
        .unwrap();
        let protocol = protocol(options.scale, options.observation_ms, options.workers);
        assert_eq!(protocol.cases_per_error(), 4);
        assert_eq!(protocol.observation_ms, 5_000);
        assert_eq!(protocol.workers, 3);
        assert_eq!(options.out_dir, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn parses_journal_flags() {
        let options =
            CliOptions::parse(&args(&["--journal", "results/campaign.jsonl", "--resume"])).unwrap();
        assert_eq!(
            options.journal,
            Some(PathBuf::from("results/campaign.jsonl"))
        );
        assert!(options.resume);

        let options = CliOptions::parse(&args(&["--from-journal", "x.jsonl"])).unwrap();
        assert_eq!(options.from_journal, Some(PathBuf::from("x.jsonl")));
    }

    #[test]
    fn rejects_the_removed_flags() {
        for flag in [
            "--load",
            "--convergence-jsonl",
            "--precision-report",
            "--attribution",
            "--profile",
            "--no-telemetry",
            "--telemetry-jsonl",
            "--metrics-file",
            "--no-checkpoint",
            "--shard",
        ] {
            for list in [args(&[flag]), args(&[flag, "x"])] {
                let err = CliOptions::parse(&list).unwrap_err();
                assert_eq!(err, format!("unknown flag `{flag}`"));
            }
        }
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(CliOptions::parse(&args(&["--bogus"])).is_err());
        assert!(CliOptions::parse(&args(&["--scale"])).is_err());
        assert!(CliOptions::parse(&args(&["--scale", "two"])).is_err());
    }

    #[test]
    fn rejects_an_empty_grid() {
        let err = CliOptions::parse(&args(&["--scale", "0"])).unwrap_err();
        assert!(err.starts_with("--scale:"), "{err}");
        assert_eq!(
            CliOptions::parse(&args(&["--scale", "1"])).unwrap().scale,
            Some(1)
        );
    }

    #[test]
    fn rejects_inconsistent_journal_flags() {
        assert!(CliOptions::parse(&args(&["--resume"])).is_err());
        assert!(CliOptions::parse(&args(&[
            "--from-journal",
            "a.jsonl",
            "--journal",
            "b.jsonl"
        ]))
        .is_err());
        assert!(CliOptions::parse(&args(&["--from-journal", "a.jsonl", "--resume"])).is_err());
    }
}
