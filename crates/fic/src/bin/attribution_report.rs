//! Rebuilds the assertion-level attribution report from a trial
//! journal: the per-assertion firing/latency league table, the Section
//! 2.4 coverage analysis of the journal's fold
//! ([`fic::coverage_report::render`]), and the algebra cross-check
//! (`Pdetect = (Pen·Pprop + Pem)·Pds` recomposed against the measured
//! E2 RAM proportion's Wilson interval, [`attribution::check_algebra`]).
//!
//! Events are a pure function of the journaled trials, so any journal —
//! including ones written before attribution existed, like the
//! committed `results/campaign.jsonl` — is attributed after the fact.
//! The journal's attribution lines hold the differential-oracle
//! verdicts of earlier `--oracle … --save-oracle` passes; they overlay
//! the derived events (un-enriched lines that older campaigns wrote
//! per trial are skipped).
//!
//! ```text
//! attribution_report <journal.jsonl> [--out dir] [--label name]
//!     [--oracle n] [--save-oracle]
//! ```
//!
//! * `--out dir` — artefact directory (default `results`; the report
//!   goes to `<out>/attribution/<label>.json`);
//! * `--label name` — report file stem (default: the journal's);
//! * `--oracle n` — run the differential oracle over the first `n`
//!   not-yet-enriched unmonitored-RAM E2 events (deterministic key
//!   order): each is re-run traced and diffed against the fault-free
//!   reference, yielding a masked/silent/reached verdict and an
//!   empirical `Pprop` sample. Expensive — each enrichment is a full
//!   traced observation window;
//! * `--save-oracle` — append the freshly enriched events to the
//!   journal so the verdicts survive `--resume` and `--from-journal`.
//!
//! The journal's tables are checked against the goldens by
//! `full_campaign --from-journal <journal> --check-golden`.
//!
//! Exits 0 when the report validates and the algebra check passes, 1
//! otherwise.

use std::path::PathBuf;
use std::process::ExitCode;

use fic::attribution::{self, AttributionAggregate, AttributionReport};
use fic::cli::{self, Args};
use fic::coverage_report;
use fic::error_set;
use fic::journal::{Journal, JournalWriter};
use fic::results::CampaignFold;
use fic::telemetry::RunMetadata;
use fic::trace::ReferenceCache;

struct Options {
    journal_path: PathBuf,
    out_dir: PathBuf,
    label: Option<String>,
    oracle: usize,
    save_oracle: bool,
}

fn options(args: &Args) -> Result<Options, String> {
    Ok(Options {
        journal_path: PathBuf::from(&args.operands()[0]),
        out_dir: args.value("--out")?.unwrap_or_else(|| "results".into()),
        label: args.value("--label")?,
        oracle: args.value("--oracle")?.unwrap_or(0),
        save_oracle: args.has("--save-oracle"),
    })
}

fn main() -> ExitCode {
    let options = cli::ATTRIBUTION_REPORT.from_env(options);
    let journal = Journal::load(&options.journal_path).unwrap_or_else(|e| {
        eprintln!("cannot load {}: {e}", options.journal_path.display());
        std::process::exit(1);
    });
    if journal.truncated_tail {
        eprintln!("note: journal has a torn final line (crash evidence); dropped");
    }
    let fold = CampaignFold::from_journal(&journal).unwrap_or_else(|e| {
        eprintln!("journal does not match the paper error sets: {e}");
        std::process::exit(1);
    });
    let mut aggregate = fold.attribution.clone();
    eprintln!(
        "{} events derived from {} journaled trials ({} carrying oracle verdicts)",
        aggregate.e1_trials + aggregate.e2_trials,
        journal.records.len(),
        aggregate.oracle.enriched
    );

    if options.oracle > 0 {
        aggregate = run_oracle(
            &journal,
            options.oracle,
            options.save_oracle,
            &options.journal_path,
        );
    }

    let run = RunMetadata::for_run(&journal.header.protocol, true, None);
    let report = AttributionReport::assemble("attribution_report", run, aggregate);

    print!("{}", attribution::render_league(&report.aggregate));
    if let Some(analysis) = coverage_report::analyse(&fold.e1, &fold.e2) {
        println!();
        print!("{}", coverage_report::render(&analysis));
    }

    let mut failures = 0usize;
    match report.validate() {
        Ok(()) => println!("report structure: ok"),
        Err(e) => {
            eprintln!("report structure: INVALID: {e}");
            failures += 1;
        }
    }
    match attribution::check_algebra(&report.aggregate) {
        Ok(()) => println!("coverage algebra: recomposed Pdetect within the measured interval"),
        Err(e) => {
            eprintln!("coverage algebra: FAILED: {e}");
            failures += 1;
        }
    }

    let stem = options.label.unwrap_or_else(|| {
        options.journal_path.file_stem().map_or_else(
            || "campaign".to_owned(),
            |s| s.to_string_lossy().into_owned(),
        )
    });
    match attribution::write_report(&options.out_dir.join("attribution"), &stem, &report) {
        Ok(path) => eprintln!("attribution report written to {}", path.display()),
        Err(e) => {
            eprintln!("failed to write attribution report: {e}");
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("{failures} attribution check(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Enriches up to `budget` unmonitored-RAM E2 events with differential
/// oracle verdicts (deterministic key order), optionally persisting
/// them back into the journal, and folds the enriched event stream.
fn run_oracle(
    journal: &Journal,
    budget: usize,
    save: bool,
    journal_path: &std::path::Path,
) -> AttributionAggregate {
    let mut events =
        attribution::events_from_journal(journal).expect("the journal folded, so it resolves");
    let e2_errors = error_set::e2();
    let reference = ReferenceCache::new(journal.header.protocol.clone());
    let mut candidates: Vec<usize> = (0..events.len())
        .filter(|&i| {
            let e = &events[i];
            e.campaign == fic::CampaignKind::E2
                && e.region == attribution::REGION_APP_RAM
                && e.target_ea.is_none()
                && e.propagation.is_none()
        })
        .collect();
    // All candidates are E2 events, so ⟨error, case⟩ orders them fully.
    candidates.sort_by_key(|&i| (events[i].error_number, events[i].case_index));
    candidates.truncate(budget);
    eprintln!(
        "oracle: enriching {} unmonitored-RAM E2 event(s) (traced re-runs)...",
        candidates.len()
    );
    let mut enriched = Vec::new();
    for i in candidates {
        let number = events[i].error_number;
        let Some(error) = e2_errors.iter().find(|e| e.number == number) else {
            continue;
        };
        if attribution::enrich_event(&mut events[i], error.flip, &reference) {
            enriched.push(events[i].clone());
        }
    }
    eprintln!("oracle: {} event(s) enriched", enriched.len());
    if save && !enriched.is_empty() {
        let result = JournalWriter::append_to(journal_path, &journal.header.protocol).and_then(
            |mut writer| {
                for event in &enriched {
                    writer.append_attribution(event)?;
                }
                writer.finish()
            },
        );
        match result {
            Ok(()) => eprintln!(
                "oracle: {} verdict(s) appended to {}",
                enriched.len(),
                journal_path.display()
            ),
            Err(e) => eprintln!("oracle: failed to persist verdicts: {e}"),
        }
    }
    let mut aggregate = AttributionAggregate::new();
    for event in &events {
        aggregate.record(event);
    }
    aggregate
}
