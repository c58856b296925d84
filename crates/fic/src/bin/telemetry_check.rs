//! Validates telemetry artefacts — the CI smoke gate for the
//! observability layer:
//!
//! * `--report <file>` — parse a `results/telemetry/*.json` report and
//!   run the structural schema checks ([`fic::telemetry::TelemetryReport::validate`])
//!   and the trial-accounting equations: every settled trial carries
//!   exactly one stop label (`campaign.trials.settled` = Σ
//!   `campaign.settle.proof.*` + `campaign.settle.record_final.stops` +
//!   `campaign.settle.command_final.stops`),
//!   and every trial is pruned, settled or run to the horizon
//!   (`trials.settled` + `trials.full_window` = `campaign.trials` −
//!   `campaign.prune.trials`);
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
//!   mismatch: checkpointed campaigns always prune). So is the
//!   `campaign.lockstep.lanes` histogram: a fresh run cuts each test
//!   case's live trials into batches of `DEFAULT_BATCH_SIZE`
//!   ([`fic::campaign::lockstep_items`]), so its count is
//!   `Σ ⌈live / 8⌉` over ⟨campaign, case⟩ and its sum is the
//!   live trials. Each record is
//!   first resolved to its paper error ([`fic::journal::PaperErrors`]);
//!   an unknown error number fails the check with a message naming it.
//!   A fleet journal passes too: the fleet runs one slice per
//!   ⟨campaign, case⟩, so its caches see what one process's would;
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
//!   a pure function of the journaled trials).
//!
//! Exits 0 when every requested check passes, 1 otherwise.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::process::ExitCode;

use fic::attribution::{self, AttributionReport};
use fic::campaign::DEFAULT_BATCH_SIZE;
use fic::cli;
use fic::convergence::{ConvergenceAggregate, ConvergenceReport};
use fic::journal::{Journal, PaperError, PaperErrors};
use fic::results::CampaignFold;
use fic::telemetry::TelemetryReport;
use fic::{InertMap, PruneClass};
use memsim::BitFlip;

fn main() -> ExitCode {
    let (report_path, journal_path, attribution_path, convergence_path) = cli::TELEMETRY_CHECK
        .from_env(|args| {
            let report: Option<PathBuf> = args.value("--report")?;
            let journal: Option<PathBuf> = args.value("--journal")?;
            let attribution: Option<PathBuf> = args.value("--attribution")?;
            let convergence: Option<PathBuf> = args.value("--convergence")?;
            if report.is_none() && attribution.is_none() && convergence.is_none() {
                let needs = "--report, --attribution or --convergence";
                return Err(match journal {
                    Some(_) => format!("--journal cross-checks a report; it needs {needs}"),
                    None => format!("nothing to check: give {needs}"),
                });
            }
            Ok((report, journal, attribution, convergence))
        });

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
        match check_trial_accounting(report) {
            Ok((settled, trials)) => println!(
                "report {}: trial accounting balances ({settled} settled of {trials} trials)",
                path.display()
            ),
            Err(e) => {
                eprintln!("report {}: ACCOUNTING MISMATCH: {e}", path.display());
                failures += 1;
            }
        }
    }

    // The journal, loaded once for every cross-check that reads it.
    let journal = journal_path
        .as_ref()
        .map(|path| (path, Journal::load(path).map_err(|e| e.to_string())));

    if let (Some(report), Some((path, journal))) = (&report, &journal) {
        let resolved = journal.as_ref().map_err(Clone::clone).and_then(|journal| {
            let flips = resolve_flips(journal)?;
            Ok((journal, flips))
        });
        match resolved {
            Ok((journal, flips)) => {
                let executions = executions(journal);
                match check_cache_counters(report, journal, &executions) {
                    Ok((hits, misses)) => println!(
                        "journal {}: cache counters match ({hits} hits, {misses} misses)",
                        path.display()
                    ),
                    Err(e) => {
                        eprintln!("journal {}: MISMATCH: {e}", path.display());
                        failures += 1;
                    }
                }
                match check_lockstep_lanes(report, journal, &flips, &executions) {
                    Ok((batches, lanes)) => println!(
                        "journal {}: lockstep lanes match ({batches} batches, {lanes} live lanes)",
                        path.display()
                    ),
                    Err(e) => {
                        eprintln!("journal {}: LANES MISMATCH: {e}", path.display());
                        failures += 1;
                    }
                }
                match check_prune_counters(report, journal, &flips, &executions) {
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

    // The journal folded once, as every producer folds it, for both the
    // attribution and the convergence cross-check.
    let fold = journal
        .as_ref()
        .filter(|_| attribution_path.is_some() || convergence_path.is_some())
        .map(|(_, journal)| {
            let journal = journal.as_ref().map_err(Clone::clone)?;
            CampaignFold::from_journal(journal).map_err(|e| e.to_string())
        });

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
        if let Some(fold) = &fold {
            match check_attribution_against_journal(&report, fold) {
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
        if let Some(fold) = &fold {
            match check_convergence_against_journal(&report, fold) {
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

    if failures > 0 {
        eprintln!("{failures} telemetry check(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Resolves every journal record, duplicates included, to the flip of
/// the paper error it names, so the counter checks below can index by
/// error number safely.
fn resolve_flips(journal: &Journal) -> Result<Vec<BitFlip>, String> {
    let errors = PaperErrors::new();
    journal
        .records
        .iter()
        .map(|record| errors.resolve(record).map(PaperError::flip))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())
}

/// The journal's record indices grouped by the execution that produced
/// them: one group per campaign, each run with its own checkpoint and
/// prune caches.
fn executions(journal: &Journal) -> Vec<Vec<usize>> {
    let mut groups = vec![Vec::new(); 2];
    for (k, r) in journal.records.iter().enumerate() {
        groups[usize::from(r.campaign == fic::CampaignKind::E2)].push(k);
    }
    groups
}

/// The stop proofs of a report's settled trials, one counter per
/// label: four state proofs, the analytic band, and the record-final
/// and command-final stops that carry no state proof.
const STOP_LABELS: [&str; 7] = [
    "campaign.settle.proof.exact",
    "campaign.settle.proof.translated",
    "campaign.settle.proof.retired_clock",
    "campaign.settle.proof.frozen_hung",
    "campaign.settle.proof.analytic_band",
    "campaign.settle.record_final.stops",
    "campaign.settle.command_final.stops",
];

/// The report's trial counters balance: each settled trial carries
/// exactly one stop label, and each trial was pruned, settled or run to
/// its horizon. Both equations are sums of per-trial increments, so
/// they hold for merged fleet reports too. Returns the
/// settled and total trial counts.
fn check_trial_accounting(report: &TelemetryReport) -> Result<(u64, u64), String> {
    let counter = |name: &str| report.snapshot.counter(name);
    let settled = counter("campaign.trials.settled");
    let labelled: u64 = STOP_LABELS.iter().map(|name| counter(name)).sum();
    if settled != labelled {
        return Err(format!(
            "campaign.trials.settled = {settled} but the stop labels sum to {labelled}"
        ));
    }
    let trials = counter("campaign.trials");
    let pruned = counter("campaign.prune.trials");
    let full_window = counter("campaign.trials.full_window");
    if settled + full_window + pruned != trials {
        return Err(format!(
            "settled {settled} + full_window {full_window} + pruned {pruned} != \
             campaign.trials {trials}"
        ));
    }
    Ok((settled, trials))
}

/// The report's checkpoint-cache hit/miss counters equal the values a
/// fresh run's journal implies: each execution misses once per
/// distinct test case and hits on every further trial.
fn check_cache_counters(
    report: &TelemetryReport,
    journal: &Journal,
    executions: &[Vec<usize>],
) -> Result<(u64, u64), String> {
    let expected_misses: u64 = executions
        .iter()
        .map(|records| {
            let cases: HashSet<usize> = records
                .iter()
                .map(|&k| journal.records[k].case_index)
                .collect();
            cases.len() as u64
        })
        .sum();
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

/// The report's `campaign.lockstep.lanes` histogram equals what a
/// fresh run's journal implies. Each execution cuts one test case's
/// trials into work items of at most `DEFAULT_BATCH_SIZE` live lanes
/// ([`fic::campaign::lockstep_items`]), every item but the last full,
/// and runs one batch per item holding a live lane. So per
/// ⟨campaign, case⟩ the batches are `⌈live / 8⌉`, where "live"
/// means the records [`InertMap`] does not classify, and the lanes sum
/// to the live trials. Returns the batch and lane counts.
fn check_lockstep_lanes(
    report: &TelemetryReport,
    journal: &Journal,
    flips: &[BitFlip],
    executions: &[Vec<usize>],
) -> Result<(u64, u64), String> {
    let map = InertMap::new();
    let (mut batches, mut lanes) = (0u64, 0u64);
    for records in executions {
        let mut live: HashMap<usize, u64> = HashMap::new();
        for &k in records {
            if map.classify(flips[k]).is_none() {
                *live.entry(journal.records[k].case_index).or_default() += 1;
            }
        }
        lanes += live.values().sum::<u64>();
        batches += live
            .values()
            .map(|n| n.div_ceil(DEFAULT_BATCH_SIZE as u64))
            .sum::<u64>();
    }
    let (count, sum) = report
        .snapshot
        .histograms
        .get("campaign.lockstep.lanes")
        .map_or((0, 0), |h| (h.count, h.sum));
    if (count, sum) != (batches, lanes) {
        return Err(format!(
            "report says campaign.lockstep.lanes count {count} / sum {sum}; \
             journal implies {batches} / {lanes}"
        ));
    }
    Ok((batches, lanes))
}

/// The report's `campaign.prune.*` counters equal the values the
/// journal implies. The inert coordinates are a pure function of the
/// target's memory maps ([`InertMap`]), so each record's flip —
/// `flips[k]` for `journal.records[k]`, from [`resolve_flips`] —
/// classifies here exactly as it did inside the runner:
/// `prune.trials` (split by class) counts the classifying records, and
/// `prune.references` counts one shared reference execution per
/// ⟨campaign, test case⟩ holding at least one of them (each
/// execution has its own [`fic::PruneCache`], mirroring the
/// checkpoint-cache model above). Returns the pruned-trial and
/// reference counts.
fn check_prune_counters(
    report: &TelemetryReport,
    journal: &Journal,
    flips: &[BitFlip],
    executions: &[Vec<usize>],
) -> Result<(u64, u64), String> {
    let map = InertMap::new();
    let (mut dead_stack, mut unread_ram, mut references) = (0u64, 0u64, 0u64);
    for records in executions {
        let mut cases = HashSet::new();
        for &k in records {
            match map.classify(flips[k]) {
                Some(PruneClass::DeadStack) => dead_stack += 1,
                Some(PruneClass::UnreadRam) => unread_ram += 1,
                None => continue,
            }
            cases.insert(journal.records[k].case_index);
        }
        references += cases.len() as u64;
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
/// aggregate is derived from its folded reports, as every producer
/// derives it.
fn check_convergence_against_journal(
    report: &ConvergenceReport,
    fold: &Result<CampaignFold, String>,
) -> Result<u64, String> {
    let fold = fold.as_ref()?;
    let derived = ConvergenceAggregate::from_reports(&fold.e1, &fold.e2);
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
    fold: &Result<CampaignFold, String>,
) -> Result<usize, String> {
    let derived = &fold.as_ref()?.attribution;
    if *derived != report.aggregate {
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
