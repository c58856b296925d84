//! The one reference for the paper's tables: `results/`.
//!
//! The campaign is deterministic, so the committed artefacts are not a
//! band to fall inside but the exact output of the §3.4 protocol (25
//! test cases per error, 2 800 E1 and 5 000 E2 trials of 40 s). Two
//! gates hold them, side by side:
//!
//! * live run → journal: [`a_live_paper_campaign_rewrites_results`]
//!   runs `Protocol::paper()` through `fic::cli::runner`, journaled by
//!   `CampaignRunner::resume` into a fresh file. Its header and every
//!   trial line must equal `results/campaign.jsonl`'s, compared as a
//!   set keyed by ⟨campaign, error, case⟩ so that any worker count
//!   passes; the committed journal's oracle `attribution` lines are not
//!   trials and are skipped. `fic::results::write_artefacts` must then
//!   write `table6.txt`–`table9.txt`, `e1.json`, `e2.json` and
//!   `coverage_analysis.json` byte-equal to `results/`. On a mismatch
//!   the failure names the first differing key with both lines, every
//!   differing artefact, and a repro bundle of that pair written by
//!   `tests/common`'s divergence writer;
//! * journal → artefacts: [`committed_artifacts_rederive_from_the_journal`]
//!   folds the committed journal and requires the same seven files,
//!   the committed attribution and convergence reports' aggregates and
//!   the coverage algebra.
//!
//! An intentional table change regenerates `results/` and explains
//! itself in EXPERIMENTS.md ("The table gate").

#[allow(dead_code)] // only the divergence writer of the oracle is used here
mod common;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use common::{write_divergence_bundle, Slice};
use fic::attribution::{self, AttributionReport};
use fic::convergence::{ConvergenceAggregate, ConvergenceReport};
use fic::journal::Journal;
use fic::results::{self, CampaignFold};
use fic::{cli, error_set, CampaignKind, Protocol, TrialRecord};

/// The artefacts `write_artefacts` writes that `results/` commits.
const ARTEFACTS: [&str; 7] = [
    "table6.txt",
    "table7.txt",
    "table8.txt",
    "table9.txt",
    "e1.json",
    "e2.json",
    "coverage_analysis.json",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ea-repro-paper-campaign-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `fold`'s artefacts under `out` and names every one of
/// [`ARTEFACTS`] that differs from its committed copy in `results/`.
/// None of them reads the telemetry or the profile, so neither is
/// passed.
fn differing_artefacts(out: &Path, protocol: &Protocol, fold: &CampaignFold) -> Vec<&'static str> {
    results::write_artefacts(
        out,
        "full_campaign",
        "full_campaign",
        protocol,
        &error_set::e1(),
        fold,
        None,
        None,
    )
    .unwrap();
    ARTEFACTS
        .into_iter()
        .filter(|name| {
            std::fs::read(out.join(name)).ok()
                != std::fs::read(root().join("results").join(name)).ok()
        })
        .collect()
}

/// A journal's trial lines, each with its parsed record, keyed by
/// ⟨campaign, error, case⟩.
type TrialLines = BTreeMap<(&'static str, usize, usize), (String, TrialRecord)>;

/// A journal's header line and its trial lines; attribution lines are
/// skipped.
fn journal_lines(path: &Path) -> (String, TrialLines) {
    let text = std::fs::read_to_string(path).unwrap();
    let mut lines = text.lines();
    let header = lines
        .next()
        .expect("a journal starts with its header")
        .to_owned();
    let trials = lines
        .filter(|line| !line.starts_with("{\"attribution\""))
        .map(|line| {
            let record: TrialRecord = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("{}: `{line}`: {e}", path.display()));
            let key = (
                record.campaign.label(),
                record.error_number,
                record.case_index,
            );
            (key, (line.to_owned(), record))
        })
        .collect();
    (header, trials)
}

/// Names the first line at which the live journal departs from the
/// committed one, with both lines and the repro bundle of that pair.
fn journal_mismatch(protocol: &Protocol, live: &Path, committed: &Path) -> Option<String> {
    let (live_header, live) = journal_lines(live);
    let (committed_header, committed) = journal_lines(committed);
    if live_header != committed_header {
        return Some(format!(
            "journal headers differ:\n  live:      {live_header}\n  committed: {committed_header}"
        ));
    }
    let key = live
        .keys()
        .chain(committed.keys())
        .filter(|key| live.get(key).map(|l| &l.0) != committed.get(key).map(|c| &c.0))
        .min()?;
    let (ours, theirs) = (live.get(key), committed.get(key));
    let record = &ours.or(theirs).expect("the key comes from one side").1;
    let slice = match record.campaign {
        CampaignKind::E1 => Slice::E1(error_set::e1()),
        CampaignKind::E2 => Slice::E2(error_set::e2()),
    };
    let bundle = write_divergence_bundle(
        protocol,
        &slice,
        record,
        "live paper campaign departs from results/campaign.jsonl",
    );
    fn line(side: Option<&(String, TrialRecord)>) -> &str {
        side.map_or("<absent>", |s| s.0.as_str())
    }
    Some(format!(
        "first differing trial line, key {key:?}:\n  live:      {}\n  committed: {}\n\
         repro bundle: {}",
        line(ours),
        line(theirs),
        bundle.display()
    ))
}

/// Live run → journal → artefacts, equal to `results/` byte for byte.
#[test]
fn a_live_paper_campaign_rewrites_results() {
    let dir = temp_dir("live");
    let protocol = Protocol::paper();
    let runner = cli::runner(protocol.clone());
    let journal = dir.join("campaign.jsonl");
    let fold = runner
        .resume(&error_set::e1(), &error_set::e2(), &journal)
        .unwrap();

    let mut failures = Vec::new();
    failures.extend(journal_mismatch(
        &protocol,
        &journal,
        &root().join("results/campaign.jsonl"),
    ));
    let differing = differing_artefacts(&dir.join("out"), &protocol, &fold);
    if !differing.is_empty() {
        failures.push(format!(
            "artefacts that differ from results/: {}",
            differing.join(", ")
        ));
    }
    assert!(
        failures.is_empty(),
        "the live paper campaign no longer reproduces results/ (kept in {}):\n{}",
        dir.display(),
        failures.join("\n")
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Journal → artefacts: the committed journal folds to every committed
/// artefact — the seven `write_artefacts` files byte for byte, the
/// attribution and convergence reports by their aggregates — and the
/// coverage algebra holds on it.
#[test]
fn committed_artifacts_rederive_from_the_journal() {
    let journal = Journal::load(&root().join("results/campaign.jsonl")).unwrap();
    let fold = CampaignFold::from_journal(&journal).unwrap();
    let dir = temp_dir("replay");
    let differing = differing_artefacts(&dir, &journal.header.protocol, &fold);
    assert!(
        differing.is_empty(),
        "the committed journal's fold differs from results/ in {}",
        differing.join(", ")
    );
    std::fs::remove_dir_all(&dir).unwrap();

    let load = |path: &str| std::fs::read_to_string(root().join(path)).unwrap();
    attribution::check_algebra(&fold.attribution)
        .expect("recomposed Pdetect inside the Wilson interval");
    let report: AttributionReport =
        serde_json::from_str(&load("results/attribution/campaign.json")).unwrap();
    report
        .validate()
        .expect("committed attribution report must validate");
    assert_eq!(
        report.aggregate, fold.attribution,
        "committed attribution report must equal the journal's re-derivation"
    );

    let report: ConvergenceReport =
        serde_json::from_str(&load("results/convergence/campaign.json")).unwrap();
    report
        .validate()
        .expect("committed convergence report must validate");
    assert_eq!(
        report.aggregate,
        ConvergenceAggregate::from_reports(&fold.e1, &fold.e2),
        "committed convergence report must equal the journal's re-derivation"
    );
}
