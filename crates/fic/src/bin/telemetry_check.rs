//! Validates telemetry artefacts — the CI smoke gate for the
//! observability layer:
//!
//! * `--report <file>` — parse a `results/telemetry/*.json` report and
//!   run the structural schema checks ([`fic::telemetry::TelemetryReport::validate`]);
//! * `--jsonl <file>` — parse a `--telemetry-jsonl` progress stream:
//!   every line must be a well-formed progress event of the pinned
//!   schema version, with `trials_done` monotone (and bounded by
//!   `trials_total`) within each phase;
//! * `--journal <file>` — cross-check the report's checkpoint-cache
//!   counters against ground truth derivable from the trial journal of
//!   the *same fresh run*: per campaign, the cache misses once per
//!   distinct test case and hits on every further trial, so
//!   `misses = Σ distinct cases` and `hits = records − misses`. (A
//!   resumed run re-misses already-journaled cases; this check is for
//!   fresh runs, which is what CI produces.) The `campaign.prune.*`
//!   counters are cross-checked the same way: the journal's error
//!   numbers reconstruct each trial's flip, [`fic::InertMap`] says
//!   which were prunable, and the counters must agree exactly (all-zero
//!   counters against a journal holding prunable trials are a
//!   mismatch: checkpointed campaigns always prune). Each record is
//!   first resolved to its paper error ([`fic::journal::PaperErrors`]);
//!   an unknown error number fails the check with a message naming it;
//! * `--shards <n>` — the report (and journal) came from `n` shard
//!   runs merged together (`merge_telemetry` / `merge_journals`). Each
//!   shard execution had its own checkpoint cache, so the ground truth
//!   becomes `misses = Σ over shards of distinct cases in that shard's
//!   slice`, recomputed from the canonical pair index
//!   `(error − 1) · cases + case`.
//! * `--attribution <file>` — parse a `results/attribution/*.json`
//!   report, run its structural validation
//!   ([`fic::attribution::AttributionReport::validate`]) and the
//!   coverage-algebra cross-check
//!   ([`fic::attribution::check_algebra`]); with `--journal`, also
//!   verify the report's aggregate is exactly what the journal
//!   re-derives (attribution must be a pure function of the trials);
//! * `--convergence <file>` — parse a `results/convergence/*.json`
//!   report, run its structural validation
//!   ([`fic::convergence::ConvergenceReport::validate`]: cell
//!   conservation, Wilson intervals and forecasts re-derive exactly
//!   from the aggregate); with `--journal`, also verify the report's
//!   aggregate is exactly what the journal re-derives (convergence is
//!   a pure function of the journaled trials);
//! * `--metrics <file>` — parse a Prometheus text exposition written
//!   by `--metrics-file` (or fetched from the fleet `/metrics`
//!   endpoint), re-render it, and require the round-trip to be exact
//!   ([`fic::telemetry::TelemetrySnapshot::from_prometheus`] ∘
//!   `to_prometheus` must be the identity on its image); with
//!   `--report`, also require the exposition to carry exactly the
//!   report's snapshot.
//!
//! Exits 0 when every requested check passes, 1 otherwise.

use std::collections::HashSet;
use std::path::PathBuf;
use std::process::ExitCode;

use fic::attribution::{self, AttributionReport};
use fic::convergence::{ConvergenceAggregate, ConvergenceReport};
use fic::journal::{Journal, PaperError, PaperErrors};
use fic::telemetry::{ProgressEvent, TelemetryReport, SCHEMA_VERSION};
use fic::{InertMap, PruneClass};
use memsim::BitFlip;

fn usage() -> ! {
    eprintln!(
        "usage: telemetry_check [--report file] [--jsonl file] [--journal file] \
         [--shards n] [--attribution file] [--convergence file] [--metrics file]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut report_path: Option<PathBuf> = None;
    let mut jsonl_path: Option<PathBuf> = None;
    let mut journal_path: Option<PathBuf> = None;
    let mut attribution_path: Option<PathBuf> = None;
    let mut convergence_path: Option<PathBuf> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut shards = 1usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage();
            })
        };
        match flag.as_str() {
            "--report" => report_path = Some(PathBuf::from(value("--report"))),
            "--jsonl" => jsonl_path = Some(PathBuf::from(value("--jsonl"))),
            "--journal" => journal_path = Some(PathBuf::from(value("--journal"))),
            "--attribution" => attribution_path = Some(PathBuf::from(value("--attribution"))),
            "--convergence" => convergence_path = Some(PathBuf::from(value("--convergence"))),
            "--metrics" => metrics_path = Some(PathBuf::from(value("--metrics"))),
            "--shards" => {
                shards = value("--shards").parse().unwrap_or_else(|e| {
                    eprintln!("--shards: {e}");
                    usage();
                });
                if shards == 0 {
                    eprintln!("--shards must be at least 1");
                    usage();
                }
            }
            _ => usage(),
        }
    }
    if report_path.is_none()
        && jsonl_path.is_none()
        && attribution_path.is_none()
        && convergence_path.is_none()
        && metrics_path.is_none()
    {
        usage();
    }
    if journal_path.is_some()
        && report_path.is_none()
        && attribution_path.is_none()
        && convergence_path.is_none()
    {
        eprintln!(
            "--journal cross-checks a report; it needs --report, --attribution or --convergence"
        );
        return ExitCode::from(2);
    }

    let mut failures = 0usize;

    let report = report_path.as_ref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(1);
        });
        let report: TelemetryReport = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!(
                "{} does not parse as a telemetry report: {e}",
                path.display()
            );
            std::process::exit(1);
        });
        report
    });
    if let (Some(report), Some(path)) = (&report, &report_path) {
        match report.validate() {
            Ok(()) => println!("report {}: schema ok", path.display()),
            Err(e) => {
                eprintln!("report {}: INVALID: {e}", path.display());
                failures += 1;
            }
        }
    }

    if let Some(path) = &jsonl_path {
        match check_jsonl(path) {
            Ok(events) => println!("stream {}: {events} event(s), monotone", path.display()),
            Err(e) => {
                eprintln!("stream {}: INVALID: {e}", path.display());
                failures += 1;
            }
        }
    }

    if let (Some(report), Some(path)) = (&report, &journal_path) {
        match load_flips(path) {
            Ok((journal, flips)) => {
                match check_cache_counters(report, &journal, shards) {
                    Ok((hits, misses)) => println!(
                        "journal {}: cache counters match ({hits} hits, {misses} misses, {shards} shard(s))",
                        path.display()
                    ),
                    Err(e) => {
                        eprintln!("journal {}: MISMATCH: {e}", path.display());
                        failures += 1;
                    }
                }
                match check_prune_counters(report, &journal, &flips, shards) {
                    Ok((pruned, references)) => println!(
                        "journal {}: prune counters match ({pruned} pruned, {references} reference(s))",
                        path.display()
                    ),
                    Err(e) => {
                        eprintln!("journal {}: PRUNE MISMATCH: {e}", path.display());
                        failures += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("journal {}: INVALID: {e}", path.display());
                failures += 1;
            }
        }
    }

    if let Some(path) = &attribution_path {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(1);
        });
        let report: AttributionReport = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!(
                "{} does not parse as an attribution report: {e}",
                path.display()
            );
            std::process::exit(1);
        });
        match report.validate() {
            Ok(()) => println!("attribution {}: schema ok", path.display()),
            Err(e) => {
                eprintln!("attribution {}: INVALID: {e}", path.display());
                failures += 1;
            }
        }
        match attribution::check_algebra(&report.aggregate) {
            Ok(()) => println!(
                "attribution {}: recomposed Pdetect within the measured interval",
                path.display()
            ),
            Err(e) => {
                eprintln!("attribution {}: ALGEBRA FAILED: {e}", path.display());
                failures += 1;
            }
        }
        if let Some(journal_path) = &journal_path {
            match check_attribution_against_journal(&report, journal_path) {
                Ok(events) => println!(
                    "attribution {}: aggregate re-derives exactly from {} journaled event(s)",
                    path.display(),
                    events
                ),
                Err(e) => {
                    eprintln!("attribution {}: JOURNAL MISMATCH: {e}", path.display());
                    failures += 1;
                }
            }
        }
    }

    if let Some(path) = &convergence_path {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(1);
        });
        let report: ConvergenceReport = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!(
                "{} does not parse as a convergence report: {e}",
                path.display()
            );
            std::process::exit(1);
        });
        match report.validate() {
            Ok(()) => println!("convergence {}: schema ok", path.display()),
            Err(e) => {
                eprintln!("convergence {}: INVALID: {e}", path.display());
                failures += 1;
            }
        }
        if let Some(journal_path) = &journal_path {
            match check_convergence_against_journal(&report, journal_path) {
                Ok(trials) => println!(
                    "convergence {}: aggregate re-derives exactly from {} journaled trial(s)",
                    path.display(),
                    trials
                ),
                Err(e) => {
                    eprintln!("convergence {}: JOURNAL MISMATCH: {e}", path.display());
                    failures += 1;
                }
            }
        }
    }

    if let Some(path) = &metrics_path {
        match check_metrics(path, report.as_ref()) {
            Ok(series) => println!(
                "metrics {}: {series} series round-trip exactly",
                path.display()
            ),
            Err(e) => {
                eprintln!("metrics {}: INVALID: {e}", path.display());
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("{failures} telemetry check(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The exposition parses, re-renders byte-identically (parse ∘ render
/// is the identity on rendered expositions), and — when the
/// schema-versioned JSON report is also given — carries exactly the
/// report's snapshot, so the two artefact formats cannot drift apart.
fn check_metrics(
    path: &std::path::Path,
    report: Option<&TelemetryReport>,
) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let snapshot = fic::telemetry::TelemetrySnapshot::from_prometheus(&text)?;
    let rendered = snapshot.to_prometheus();
    let reparsed = fic::telemetry::TelemetrySnapshot::from_prometheus(&rendered)?;
    if reparsed != snapshot {
        return Err("exposition does not round-trip through parse/render".to_owned());
    }
    if let Some(report) = report {
        if snapshot != report.snapshot {
            return Err("exposition disagrees with the --report snapshot".to_owned());
        }
    }
    Ok(snapshot.counters.len() + snapshot.gauges.len() + snapshot.histograms.len())
}

/// Every line parses, carries the pinned schema version, and is
/// monotone in `trials_done` (bounded by `trials_total`) per phase.
fn check_jsonl(path: &std::path::Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut last_done: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    let mut events = 0usize;
    for (k, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event: ProgressEvent =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", k + 1))?;
        if event.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "line {}: schema_version {} (this build reads {})",
                k + 1,
                event.schema_version,
                SCHEMA_VERSION
            ));
        }
        if event.event != "progress" {
            return Err(format!(
                "line {}: unexpected event `{}`",
                k + 1,
                event.event
            ));
        }
        if event.trials_done > event.trials_total {
            return Err(format!(
                "line {}: trials_done {} exceeds total {}",
                k + 1,
                event.trials_done,
                event.trials_total
            ));
        }
        let last = last_done.entry(event.phase.clone()).or_insert(0);
        if event.trials_done < *last {
            return Err(format!(
                "line {}: trials_done regressed {} -> {} in phase {}",
                k + 1,
                *last,
                event.trials_done,
                event.phase
            ));
        }
        *last = event.trials_done;
        events += 1;
    }
    if events == 0 {
        return Err("stream holds no events".to_owned());
    }
    Ok(events)
}

/// Loads a journal and resolves every record, duplicates included, to
/// the flip of the paper error it names, so the counter checks below
/// can index by error number safely.
fn load_flips(path: &std::path::Path) -> Result<(Journal, Vec<BitFlip>), String> {
    let journal = Journal::load(path).map_err(|e| e.to_string())?;
    let errors = PaperErrors::new();
    let flips = journal
        .records
        .iter()
        .map(|record| errors.resolve(record).map(PaperError::flip))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    Ok((journal, flips))
}

/// The report's checkpoint-cache hit/miss counters equal the values a
/// fresh run's journal implies. With `shards > 1` the journal is a
/// merge of that many shard runs, each with its own cache: misses
/// accumulate per ⟨campaign, shard⟩ slice of the records, recomputed
/// from the canonical pair index `(error − 1) · cases + case` (the
/// same formula `CampaignRunner::with_shard` slices by).
fn check_cache_counters(
    report: &TelemetryReport,
    journal: &Journal,
    shards: usize,
) -> Result<(u64, u64), String> {
    let cases_per_error = journal.header.protocol.cases_per_error();
    let mut expected_misses = 0u64;
    for kind in [fic::CampaignKind::E1, fic::CampaignKind::E2] {
        for shard in 0..shards {
            let cases: HashSet<usize> = journal
                .records
                .iter()
                .filter(|r| r.campaign == kind)
                .filter(|r| {
                    let pair = (r.error_number - 1) * cases_per_error + r.case_index;
                    pair % shards == shard
                })
                .map(|r| r.case_index)
                .collect();
            expected_misses += cases.len() as u64;
        }
    }
    let expected_hits = journal.records.len() as u64 - expected_misses;
    let hits = report.snapshot.counter("campaign.checkpoint.cache.hits");
    let misses = report.snapshot.counter("campaign.checkpoint.cache.misses");
    if (hits, misses) != (expected_hits, expected_misses) {
        return Err(format!(
            "report says {hits} hits / {misses} misses; journal implies \
             {expected_hits} / {expected_misses}"
        ));
    }
    Ok((hits, misses))
}

/// The report's `campaign.prune.*` counters equal the values the
/// journal implies. The inert coordinates are a pure function of the
/// target's memory maps ([`InertMap`]), so each record's flip —
/// `flips[k]` for `journal.records[k]`, from [`load_flips`] —
/// classifies here exactly as it did inside the runner:
/// `prune.trials` (split by class) counts the classifying records, and
/// `prune.references` counts one shared reference execution per
/// ⟨campaign, shard, test case⟩ holding at least one of them (each
/// shard execution has its own [`fic::PruneCache`], mirroring the
/// checkpoint-cache model above). Returns the pruned-trial and
/// reference counts.
fn check_prune_counters(
    report: &TelemetryReport,
    journal: &Journal,
    flips: &[BitFlip],
    shards: usize,
) -> Result<(u64, u64), String> {
    let cases_per_error = journal.header.protocol.cases_per_error();
    let map = InertMap::new();
    let (mut dead_stack, mut unread_ram, mut references) = (0u64, 0u64, 0u64);
    for kind in [fic::CampaignKind::E1, fic::CampaignKind::E2] {
        for shard in 0..shards {
            let mut cases = HashSet::new();
            for (record, &flip) in journal
                .records
                .iter()
                .zip(flips)
                .filter(|(r, _)| r.campaign == kind)
                .filter(|(r, _)| {
                    let pair = (r.error_number - 1) * cases_per_error + r.case_index;
                    pair % shards == shard
                })
            {
                match map.classify(flip) {
                    Some(PruneClass::DeadStack) => dead_stack += 1,
                    Some(PruneClass::UnreadRam) => unread_ram += 1,
                    None => continue,
                }
                cases.insert(record.case_index);
            }
            references += cases.len() as u64;
        }
    }
    let expected_pruned = dead_stack + unread_ram;
    let counters = [
        ("campaign.prune.trials", expected_pruned),
        ("campaign.prune.dead_stack", dead_stack),
        ("campaign.prune.unread_ram", unread_ram),
        ("campaign.prune.references", references),
    ];
    for (name, expected) in counters {
        let got = report.snapshot.counter(name);
        if got != expected {
            return Err(format!(
                "report says {name} = {got}; journal implies {expected}"
            ));
        }
    }
    Ok((expected_pruned, references))
}

/// The convergence report's aggregate equals what the journal's trial
/// records re-derive — the estimator is a pure function of the trials,
/// so any difference means the report and journal are not from the
/// same campaign (or one of them was tampered with). The journal's
/// aggregate is derived from its replayed reports, as every producer
/// derives it.
fn check_convergence_against_journal(
    report: &ConvergenceReport,
    path: &std::path::Path,
) -> Result<u64, String> {
    let journal = Journal::load(path).map_err(|e| e.to_string())?;
    let (e1, e2) = journal.replay().map_err(|e| e.to_string())?;
    let derived = ConvergenceAggregate::from_reports(&e1, &e2);
    if derived != report.aggregate {
        return Err(format!(
            "journal re-derives {} E1 + {} E2 trials but the report aggregates \
             {} + {}; the aggregates differ",
            derived.e1_trials(),
            derived.e2_trials(),
            report.aggregate.e1_trials(),
            report.aggregate.e2_trials()
        ));
    }
    Ok(derived.trials())
}

/// The attribution report's aggregate equals what the journal's trial
/// records re-derive — attribution events are a pure function of the
/// trials, so any difference means the report and journal are not from
/// the same campaign (or one of them was tampered with). Oracle
/// verdicts persisted in the journal overlay the derived events, so an
/// enriched journal still matches a report produced alongside it only
/// if the report saw the same enrichment; CI pairs fresh artefacts.
fn check_attribution_against_journal(
    report: &AttributionReport,
    path: &std::path::Path,
) -> Result<usize, String> {
    let journal = Journal::load(path).map_err(|e| e.to_string())?;
    let derived = attribution::aggregate_journal(&journal).map_err(|e| e.to_string())?;
    if derived != report.aggregate {
        return Err(format!(
            "journal re-derives {} E1 + {} E2 events but the report aggregates \
             {} + {}; the aggregates differ",
            derived.e1_trials,
            derived.e2_trials,
            report.aggregate.e1_trials,
            report.aggregate.e2_trials
        ));
    }
    Ok((derived.e1_trials + derived.e2_trials) as usize)
}
