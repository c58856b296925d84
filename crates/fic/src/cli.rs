//! Minimal shared argument parsing for `full_campaign` and the
//! figure/calibration binaries.
//!
//! Flags understood by every binary:
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
//! * `--check-golden` — after the campaign, compare the reports against
//!   the committed goldens (exit 1 on divergence);
//! * `--refresh-golden` — write the campaign's artefacts into the
//!   golden directory;
//! * `--golden-dir <dir>` — golden directory (default `results/golden`);
//! * `--trace` — enable the differential trace oracle: on a golden-run
//!   or golden-table failure, dump a minimal reproducer bundle
//!   (`fic::trace::ReproBundle`) for the offending ⟨error, case⟩;
//! * `--repro-dir <dir>` — where reproducer bundles go (default
//!   `results/repro`).
//!
//! A campaign is spread over hosts by the fleet (`fleet_server` and
//! `fleet_worker`), not by a flag of these binaries.
//!
//! There is one execution path: every live run forks cached fault-free
//! prefixes, steps lockstep batches with the analytic stops on and
//! prunes statically inert errors (`fic::campaign`). Replaying every
//! trial from t = 0 (`fic::run_trial`) is the oracle the differential
//! test suites compare it against, not a flag.
//!
//! The observers need no flag. Every live run ([`CliOptions::runner`])
//! records telemetry (with the live progress line), attribution and the
//! per-EA cost profile, and the `emit_*` methods write their reports
//! under `<out>/{telemetry,attribution,profile}/`;
//! [`CliOptions::emit_convergence`] derives the coverage-convergence
//! report (`fic::convergence`) from the final reports of every run. No
//! observer changes a result bit. A report that cannot be written is an
//! error the `emit_*` methods return, naming the directory, so the run
//! fails instead of finishing without it.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::attribution::{self, AttributionAggregate};
use crate::campaign::CampaignRunner;
use crate::convergence::{self, ConvergenceAggregate};
use crate::profile;
use crate::protocol::Protocol;
use crate::results::{E1Report, E2Report};
use crate::telemetry::{self, RunMetadata};

/// Parsed command-line options.
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
    /// Compare the results against the committed goldens.
    pub check_golden: bool,
    /// Overwrite the committed goldens with the current results.
    pub refresh_golden: bool,
    /// Where the golden artefacts live.
    pub golden_dir: PathBuf,
    /// Dump differential-oracle reproducer bundles on failure.
    pub trace: bool,
    /// Where reproducer bundles are written.
    pub repro_dir: PathBuf,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            scale: None,
            observation_ms: None,
            workers: None,
            out_dir: PathBuf::from("results"),
            journal: None,
            resume: false,
            from_journal: None,
            check_golden: false,
            refresh_golden: false,
            golden_dir: PathBuf::from("results/golden"),
            trace: false,
            repro_dir: PathBuf::from("results/repro"),
        }
    }
}

impl CliOptions {
    /// Parses `std::env::args`; exits with a usage message on bad input.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse(&args) {
            Ok(options) => options,
            Err(message) => {
                eprintln!("{message}");
                eprintln!(
                    "usage: [--scale n] [--observation ms] [--workers n] [--out dir] \
                     [--journal file] [--resume] [--from-journal file] \
                     [--check-golden] [--refresh-golden] [--golden-dir dir] \
                     [--trace] [--repro-dir dir]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses an argument list.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending flag or value.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut options = CliOptions::default();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut value = |name: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--scale" => options.scale = Some(parse_scale(&value("--scale")?)?),
                "--observation" => {
                    options.observation_ms = Some(
                        value("--observation")?
                            .parse()
                            .map_err(|e| format!("--observation: {e}"))?,
                    );
                }
                "--workers" => {
                    options.workers = Some(
                        value("--workers")?
                            .parse()
                            .map_err(|e| format!("--workers: {e}"))?,
                    );
                }
                "--out" => options.out_dir = PathBuf::from(value("--out")?),
                "--journal" => options.journal = Some(PathBuf::from(value("--journal")?)),
                "--resume" => options.resume = true,
                "--from-journal" => {
                    options.from_journal = Some(PathBuf::from(value("--from-journal")?));
                }
                "--check-golden" => options.check_golden = true,
                "--refresh-golden" => options.refresh_golden = true,
                "--golden-dir" => options.golden_dir = PathBuf::from(value("--golden-dir")?),
                "--trace" => options.trace = true,
                "--repro-dir" => options.repro_dir = PathBuf::from(value("--repro-dir")?),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
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

    /// Builds the protocol these options describe.
    pub fn protocol(&self) -> Protocol {
        let mut protocol = match self.scale {
            Some(n) => Protocol::scaled(n, simenv::spec::OBSERVATION_MS),
            None => Protocol::paper(),
        };
        if let Some(ms) = self.observation_ms {
            protocol.observation_ms = ms;
        }
        if let Some(w) = self.workers {
            protocol.workers = w;
        }
        protocol
    }

    /// A campaign runner configured from these options' protocol with
    /// every observer attached: a fresh metrics registry with the live
    /// progress line, attribution and the cost profile recorder.
    pub fn runner(&self) -> CampaignRunner {
        CampaignRunner::new(self.protocol())
            .with_telemetry(Arc::new(telemetry::Registry::new()))
            .with_progress()
            .with_attribution(true)
            .with_profile(Arc::new(profile::ProfileRecorder::new()))
    }

    /// Writes one `kind` of report under `<out>/<kind>/` and names the
    /// file on stderr, or returns the error naming the directory.
    fn save_report(
        &self,
        kind: &str,
        write: impl FnOnce(&Path) -> io::Result<PathBuf>,
    ) -> io::Result<()> {
        let dir = self.out_dir.join(kind);
        let path = write(&dir).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!(
                    "cannot write the {kind} report under {}: {e}",
                    dir.display()
                ),
            )
        })?;
        eprintln!("{kind} report written to {}", path.display());
        Ok(())
    }

    /// End-of-campaign telemetry emission: prints the human summary on
    /// stderr and writes the schema-versioned report under
    /// `<out>/telemetry/`.
    ///
    /// # Errors
    ///
    /// The report could not be written; the error names the directory.
    pub fn emit_telemetry(
        &self,
        producer: &str,
        protocol: &Protocol,
        registry: &telemetry::Registry,
    ) -> io::Result<()> {
        let snapshot = registry.snapshot();
        eprint!("{}", telemetry::render_summary(&snapshot));
        let run = RunMetadata::for_run(protocol, true, None);
        let report = telemetry::TelemetryReport::assemble(producer, run, snapshot);
        self.save_report("telemetry", |dir| {
            telemetry::write_report(dir, producer, &report)
        })
    }

    /// End-of-campaign attribution emission: prints the league table
    /// and coverage decomposition on stderr and writes the
    /// schema-versioned report under `<out>/attribution/`.
    ///
    /// # Errors
    ///
    /// The report could not be written; the error names the directory.
    pub fn emit_attribution(
        &self,
        producer: &str,
        protocol: &Protocol,
        aggregate: AttributionAggregate,
    ) -> io::Result<()> {
        eprint!("{}", attribution::render_league(&aggregate));
        let run = RunMetadata::for_run(protocol, true, None);
        let report = attribution::AttributionReport::assemble(producer, run, aggregate);
        eprint!(
            "{}",
            attribution::render_decomposition(&report.decomposition)
        );
        self.save_report("attribution", |dir| {
            attribution::write_report(dir, producer, &report)
        })
    }

    /// End-of-campaign profile emission: samples per-check wall clock,
    /// prints the cost league table on stderr and writes the
    /// schema-versioned report under `<out>/profile/`. A run that
    /// executed no trial (a resume with nothing left to run) recorded
    /// nothing, so it writes no report.
    ///
    /// # Errors
    ///
    /// The report could not be written; the error names the directory.
    pub fn emit_profile(
        &self,
        producer: &str,
        protocol: &Protocol,
        recorder: &profile::ProfileRecorder,
    ) -> io::Result<()> {
        if recorder.trials() + recorder.pruned_trials() == 0 {
            eprintln!("no trial ran; no profile written");
            return Ok(());
        }
        let wall = profile::sample_wall_ns();
        let run = RunMetadata::for_run(protocol, true, None);
        let report = profile::ProfileReport::assemble(producer, run, recorder, Some(wall));
        eprint!("{}", profile::render_league(&report));
        self.save_report("profile", |dir| {
            profile::write_report(dir, producer, &report)
        })
    }

    /// End-of-campaign convergence emission, on every run: derives the
    /// per-cell coverage estimates from the final reports, prints the
    /// precision forecast on stderr and writes the schema-versioned
    /// report under `<out>/convergence/`. A `--from-journal` replay
    /// names the report after the journal's file stem.
    ///
    /// # Errors
    ///
    /// The report could not be written; the error names the directory.
    pub fn emit_convergence(
        &self,
        producer: &str,
        protocol: &Protocol,
        e1: &E1Report,
        e2: &E2Report,
    ) -> io::Result<()> {
        let aggregate = ConvergenceAggregate::from_reports(e1, e2);
        let delta = convergence::DEFAULT_DELTA;
        eprint!(
            "{}",
            convergence::render_coverage(&aggregate.coverage(producer, delta))
        );
        let label = match self.from_journal.as_deref().and_then(Path::file_stem) {
            Some(stem) => stem.to_string_lossy().into_owned(),
            None => producer.to_owned(),
        };
        let run = RunMetadata::for_run(protocol, true, None);
        let report = convergence::ConvergenceReport::assemble(producer, run, aggregate, delta);
        self.save_report("convergence", |dir| {
            convergence::write_report(dir, &label, &report)
        })
    }
}

/// Parses a `--scale` grid side, which must be at least 1: a 0 × 0
/// grid has no test cases, so every table cell would read `-`. The
/// fleet server's parser shares it.
pub(crate) fn parse_scale(value: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(0) => Err("--scale: the grid needs at least one test case, got 0".to_owned()),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("--scale: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn defaults_to_paper_protocol() {
        let options = CliOptions::parse(&[]).unwrap();
        let protocol = options.protocol();
        assert_eq!(protocol.cases_per_error(), 25);
        assert_eq!(protocol.observation_ms, 40_000);
        assert_eq!(options.out_dir, PathBuf::from("results"));
        assert_eq!(options.golden_dir, PathBuf::from("results/golden"));
        assert!(!options.resume && !options.check_golden && !options.refresh_golden);
        assert!(options.journal.is_none() && options.from_journal.is_none());
        assert!(!options.trace);
        assert_eq!(options.repro_dir, PathBuf::from("results/repro"));
        let runner = options.runner();
        assert!(runner.telemetry().is_some());
        assert!(runner.attribution().is_some() && runner.profile().is_some());
    }

    #[test]
    fn parses_trace_flags() {
        let options = CliOptions::parse(&args(&["--trace", "--repro-dir", "/tmp/repro"])).unwrap();
        assert!(options.trace);
        assert_eq!(options.repro_dir, PathBuf::from("/tmp/repro"));
        assert!(CliOptions::parse(&args(&["--repro-dir"])).is_err());
    }

    /// Every flag documented in the README's flag tables must be one
    /// that *some* parser knows — `fic::cli` for the campaign/figure
    /// binaries, or the fleet server/worker parsers for theirs — so
    /// the README and the parsers cannot drift apart.
    #[test]
    fn readme_documents_only_known_flags() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md at the repo root");
        // A parser "knows" a flag unless it rejects both the
        // with-value and the bare form as an unknown flag.
        fn unknown<T>(r: &Result<T, String>) -> bool {
            r.as_ref().err().is_some_and(|e| e.contains("unknown flag"))
        }
        let mut checked = 0;
        for line in readme.lines() {
            let Some(rest) = line.strip_prefix("| `--") else {
                continue;
            };
            let flag: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '-')
                .collect();
            let flag = format!("--{flag}");
            // A plausible value for flags that take one; harmless
            // trailing junk is an "unknown flag" error for those that
            // don't, so probe both shapes.
            let with_value = args(&[&flag, "1"]);
            let bare = args(&[&flag]);
            let cli_knows =
                !(unknown(&CliOptions::parse(&with_value)) && unknown(&CliOptions::parse(&bare)));
            let server_knows = !(unknown(&crate::fleet::ServerOptions::parse(&with_value))
                && unknown(&crate::fleet::ServerOptions::parse(&bare)));
            let worker_knows = !(unknown(&crate::fleet::WorkerOptions::parse(&with_value))
                && unknown(&crate::fleet::WorkerOptions::parse(&bare)));
            assert!(
                cli_knows || server_knows || worker_knows,
                "README documents `{flag}`, which no fic parser accepts"
            );
            checked += 1;
        }
        assert!(checked >= 20, "README flag table went missing ({checked})");
    }

    /// The reverse direction: every flag literal one of the parsers
    /// matches on must be documented (backticked) in the README, so a
    /// new flag cannot land without a row in a flag table. Flag
    /// literals are extracted from the parser sources up to their
    /// `#[cfg(test)]` modules — tests probe deliberately-unknown flags.
    #[test]
    fn readme_documents_every_parser_flag() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md at the repo root");
        // Flags the README documents: every `` `--name `` occurrence,
        // captured until the first non-flag character (rows write
        // operands as `` `--scale <n>` ``).
        let documented: std::collections::BTreeSet<String> = readme
            .match_indices("`--")
            .map(|(at, _)| {
                readme[at + 1..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '-')
                    .collect()
            })
            .collect();
        // Flags the parsers accept: every string literal of the shape
        // `"--name"` before the test module. The opener is assembled at
        // runtime so this test's own source text never matches itself.
        let opener = format!("{}--", '"');
        let sources = [
            ("cli.rs", include_str!("cli.rs")),
            ("fleet/server.rs", include_str!("fleet/server.rs")),
            ("fleet/worker.rs", include_str!("fleet/worker.rs")),
        ];
        let mut accepted = 0;
        for (file, source) in sources {
            let parser = source.split("#[cfg(test)]").next().unwrap();
            for (at, _) in parser.match_indices(&opener) {
                let name: String = parser[at + opener.len()..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '-')
                    .collect();
                if name.is_empty() || !parser[at + opener.len() + name.len()..].starts_with('"') {
                    continue;
                }
                let flag = format!("--{name}");
                assert!(
                    documented.contains(&flag),
                    "{file} accepts `{flag}` but the README does not document it"
                );
                accepted += 1;
            }
        }
        assert!(accepted >= 30, "flag extraction went missing ({accepted})");
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
        let protocol = options.protocol();
        assert_eq!(protocol.cases_per_error(), 4);
        assert_eq!(protocol.observation_ms, 5_000);
        assert_eq!(protocol.workers, 3);
        assert_eq!(options.out_dir, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn parses_journal_and_golden_flags() {
        let options = CliOptions::parse(&args(&[
            "--journal",
            "results/campaign.jsonl",
            "--resume",
            "--check-golden",
            "--golden-dir",
            "results/golden-alt",
        ]))
        .unwrap();
        assert_eq!(
            options.journal,
            Some(PathBuf::from("results/campaign.jsonl"))
        );
        assert!(options.resume);
        assert!(options.check_golden);
        assert_eq!(options.golden_dir, PathBuf::from("results/golden-alt"));

        let options =
            CliOptions::parse(&args(&["--from-journal", "x.jsonl", "--refresh-golden"])).unwrap();
        assert_eq!(options.from_journal, Some(PathBuf::from("x.jsonl")));
        assert!(options.refresh_golden);
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

    /// A report directory that cannot be created is an error the
    /// caller sees (and `full_campaign` exits on), naming the
    /// directory — not a line on stderr and a run that exits 0.
    #[test]
    fn an_unwritable_report_directory_is_an_error() {
        let out = std::env::temp_dir().join(format!("fic-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&out).unwrap();
        std::fs::write(out.join("telemetry"), "a file, not a directory").unwrap();
        let options = CliOptions::parse(&args(&["--out", out.to_str().unwrap()])).unwrap();
        let registry = telemetry::Registry::new();
        let err = options
            .emit_telemetry("cli-test", &options.protocol(), &registry)
            .unwrap_err();
        let message = err.to_string();
        std::fs::remove_dir_all(&out).unwrap();
        assert!(
            message.contains(&out.join("telemetry").display().to_string()),
            "{message}"
        );
    }
}
