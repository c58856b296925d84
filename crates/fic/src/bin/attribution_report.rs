//! Rebuilds the assertion-level attribution report from a trial
//! journal: the per-assertion firing/latency league table, the
//! per-signal `Pen`/`Pprop`/`Pem`/`Pds` coverage decomposition, and the
//! algebra cross-check (`Pdetect = (Pen·Pprop + Pem)·Pds` recomposed
//! against the measured E2 RAM proportion's Wilson interval).
//!
//! Events are a pure function of the journaled trials, so any journal —
//! including ones written before attribution existed, like the
//! committed `results/campaign.jsonl` — decomposes after the fact.
//! The journal's attribution lines hold the differential-oracle
//! verdicts of earlier `--oracle … --save-oracle` passes; they overlay
//! the derived events (un-enriched lines that older campaigns wrote
//! per trial are skipped).
//!
//! ```text
//! attribution_report <journal.jsonl> [--out dir] [--label name]
//!     [--check-golden] [--golden-dir dir] [--oracle n] [--save-oracle]
//! ```
//!
//! * `--out dir` — artefact directory (default `results`; the report
//!   goes to `<out>/attribution/<label>.json`);
//! * `--label name` — report file stem (default: the journal's);
//! * `--check-golden` — cross-check every proportion against the golden
//!   `e1.json`/`e2.json` within Wilson-CI tolerance (exit 1 on
//!   divergence);
//! * `--golden-dir dir` — golden directory (default `results/golden`);
//! * `--oracle n` — run the differential oracle over the first `n`
//!   not-yet-enriched unmonitored-RAM E2 events (deterministic key
//!   order): each is re-run traced and diffed against the fault-free
//!   reference, yielding a masked/silent/reached verdict and an
//!   empirical `Pprop` sample. Expensive — each enrichment is a full
//!   traced observation window;
//! * `--save-oracle` — append the freshly enriched events to the
//!   journal so the verdicts survive `--resume` and `merge_journals`.
//!
//! Exits 0 when the report validates (and, when requested, matches the
//! goldens), 1 otherwise.

use std::path::PathBuf;
use std::process::ExitCode;

use fic::attribution::{self, AttributionReport};
use fic::journal::{Journal, JournalWriter};
use fic::telemetry::RunMetadata;
use fic::trace::ReferenceCache;
use fic::{error_set, E1Report, E2Report};

fn usage() -> ! {
    eprintln!(
        "usage: attribution_report <journal.jsonl> [--out dir] [--label name] \
         [--check-golden] [--golden-dir dir] [--oracle n] [--save-oracle]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut journal_path: Option<PathBuf> = None;
    let mut out_dir = PathBuf::from("results");
    let mut golden_dir = PathBuf::from("results/golden");
    let mut label: Option<String> = None;
    let mut check_golden = false;
    let mut oracle = 0usize;
    let mut save_oracle = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--out" => out_dir = PathBuf::from(value("--out")),
            "--golden-dir" => golden_dir = PathBuf::from(value("--golden-dir")),
            "--label" => label = Some(value("--label")),
            "--check-golden" => check_golden = true,
            "--save-oracle" => save_oracle = true,
            "--oracle" => {
                oracle = value("--oracle").parse().unwrap_or_else(|e| {
                    eprintln!("--oracle: {e}");
                    usage();
                });
            }
            other if other.starts_with("--") => usage(),
            other if journal_path.is_none() => journal_path = Some(PathBuf::from(other)),
            _ => usage(),
        }
    }
    let Some(journal_path) = journal_path else {
        usage();
    };

    let journal = Journal::load(&journal_path).unwrap_or_else(|e| {
        eprintln!("cannot load {}: {e}", journal_path.display());
        std::process::exit(1);
    });
    if journal.truncated_tail {
        eprintln!("note: journal has a torn final line (crash evidence); dropped");
    }
    let mut events = attribution::events_from_journal(&journal).unwrap_or_else(|e| {
        eprintln!("journal does not match the paper error sets: {e}");
        std::process::exit(1);
    });
    let enriched_before = events.iter().filter(|e| e.propagation.is_some()).count();
    eprintln!(
        "{} events derived from {} journaled trials ({enriched_before} carrying oracle verdicts)",
        events.len(),
        journal.records.len()
    );

    if oracle > 0 {
        run_oracle(&journal, &mut events, oracle, save_oracle, &journal_path);
    }

    let mut aggregate = attribution::AttributionAggregate::new();
    for event in &events {
        aggregate.record(event);
    }

    let shard = journal.header.shard.map(|s| (s.index, s.count));
    let run = RunMetadata::for_run(&journal.header.protocol, true, shard);
    let report = AttributionReport::assemble("attribution_report", run, aggregate);

    print!("{}", attribution::render_league(&report.aggregate));
    println!();
    print!(
        "{}",
        attribution::render_decomposition(&report.decomposition)
    );

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

    if check_golden {
        let golden_e1: E1Report = load_json(&golden_dir.join("e1.json"));
        let golden_e2: E2Report = load_json(&golden_dir.join("e2.json"));
        let divergences =
            attribution::check_against_golden(&report.aggregate, &golden_e1, &golden_e2);
        if divergences.is_empty() {
            println!("golden check: every proportion Wilson-equivalent to Tables 7-9");
        } else {
            eprintln!("golden check FAILED: {} divergence(s)", divergences.len());
            for divergence in &divergences {
                eprintln!("  {divergence}");
            }
            failures += divergences.len();
        }
    }

    let stem = label.unwrap_or_else(|| {
        journal_path.file_stem().map_or_else(
            || "campaign".to_owned(),
            |s| s.to_string_lossy().into_owned(),
        )
    });
    match attribution::write_report(&out_dir.join("attribution"), &stem, &report) {
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

fn load_json<T: serde::Deserialize>(path: &std::path::Path) -> T {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        std::process::exit(1);
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("{} does not parse: {e}", path.display());
        std::process::exit(1);
    })
}

/// Enriches up to `budget` unmonitored-RAM E2 events with differential
/// oracle verdicts (deterministic key order), optionally persisting
/// them back into the journal.
fn run_oracle(
    journal: &Journal,
    events: &mut [attribution::AttributionEvent],
    budget: usize,
    save: bool,
    journal_path: &std::path::Path,
) {
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
}
