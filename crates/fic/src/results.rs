//! Aggregation of trial outcomes into the paper's result tables, and
//! the one fold and one writer every producer shares.
//!
//! [`CampaignFold`] turns trials into the E1/E2 reports and the
//! attribution aggregate; [`write_artefacts`] turns a fold into
//! `e1.json`, `e2.json`, `table6.txt`–`table9.txt`,
//! `coverage_analysis.json` and the observer reports, each through
//! [`write_report`]. `full_campaign` (live, `--resume` or
//! `--from-journal`) and the fleet server both end in them, so a
//! journal replays to the artefacts its campaign wrote.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};

use arrestor::{EaId, EaSet};
use ea_core::stats::{LatencyStats, Proportion};
use memsim::Region;
use serde::{Deserialize, Serialize};

use crate::attribution::{
    self, AttributionAggregate, AttributionEvent, MonitoredMap, OracleVerdicts,
};
use crate::convergence::{self, ConvergenceAggregate};
use crate::error_set::{E1Error, E2Error};
use crate::experiment::Trial;
use crate::journal::{CampaignKind, Journal, JournalError, PaperError, TrialRecord};
use crate::profile::{self, ProfileRecorder};
use crate::protocol::Protocol;
use crate::telemetry::{self, RunMetadata, TelemetrySnapshot};
use crate::{coverage_report, tables};

/// The eight software versions of the evaluation, column order of
/// Tables 7 and 8: EA1..EA7 alone, then all seven.
pub fn versions() -> [EaSet; 8] {
    EaSet::paper_versions()
}

/// Column labels of Tables 7 and 8.
pub const VERSION_LABELS: [&str; 8] = ["EA1", "EA2", "EA3", "EA4", "EA5", "EA6", "EA7", "All"];

/// One measurement cell: detections split by run outcome, plus latency
/// aggregations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// All runs: `P(d)` numerator/denominator.
    pub all: Proportion,
    /// Failing runs only: `P(d|fail)`.
    pub fail: Proportion,
    /// Non-failing runs only: `P(d|no fail)`.
    pub no_fail: Proportion,
    /// Latencies over all detected runs (Table 8 cells).
    pub latency: LatencyStats,
    /// Latencies over detected runs that failed (Table 9 split).
    pub latency_fail: LatencyStats,
}

impl Cell {
    /// Feeds one trial into the cell for the given version.
    pub fn record(&mut self, trial: &Trial, version: EaSet) {
        let detected = trial.detected(version);
        self.all.record(detected);
        if trial.failed {
            self.fail.record(detected);
        } else {
            self.no_fail.record(detected);
        }
        if let Some(latency) = trial.latency_ms(version) {
            self.latency.record(latency);
            if trial.failed {
                self.latency_fail.record(latency);
            }
        }
    }
}

/// One Table 7/8 row: a monitored signal across the eight versions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SignalRow {
    /// Cells in version order (EA1..EA7, All).
    pub cells: [Cell; 8],
}

/// The results of the E1 campaign (Tables 7 and 8).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct E1Report {
    /// One row per monitored signal, Table 6 order.
    pub rows: [SignalRow; 7],
    /// The Total row.
    pub totals: SignalRow,
    trials: usize,
}

impl E1Report {
    /// An empty report.
    pub fn new() -> Self {
        E1Report::default()
    }

    /// Accumulates one trial of error `error`.
    pub fn record(&mut self, error: &E1Error, trial: &Trial) {
        self.trials += 1;
        let row = error.ea.index();
        for (v, version) in versions().iter().enumerate() {
            self.rows[row].cells[v].record(trial, *version);
            self.totals.cells[v].record(trial, *version);
        }
    }

    /// Number of trials recorded.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Row label for row index `k` (the signal's name).
    pub fn row_label(k: usize) -> &'static str {
        EaId::from_index(k).map_or("?", EaId::signal_name)
    }

    /// The paper's headline `Pds` estimate: `P(d)` of the All column,
    /// Total row.
    pub fn p_ds(&self) -> Option<f64> {
        self.totals.cells[7].all.estimate()
    }
}

/// The results of the E2 campaign (Table 9), all-mechanisms version.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct E2Report {
    /// Errors injected into application RAM.
    pub ram: Cell,
    /// Errors injected into the stack.
    pub stack: Cell,
    /// All E2 errors.
    pub total: Cell,
    trials: usize,
}

impl E2Report {
    /// An empty report.
    pub fn new() -> Self {
        E2Report::default()
    }

    /// Accumulates one trial of error `error` (All version).
    pub fn record(&mut self, error: &E2Error, trial: &Trial) {
        self.trials += 1;
        let cell = match error.flip.region {
            Region::AppRam => &mut self.ram,
            Region::Stack => &mut self.stack,
        };
        cell.record(trial, EaSet::ALL);
        self.total.record(trial, EaSet::ALL);
    }

    /// Number of trials recorded.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// The paper's headline `Pdetect` estimate: total `P(d)`.
    pub fn p_detect(&self) -> Option<f64> {
        self.total.all.estimate()
    }
}

/// Everything a campaign's trials fold into: both reports, the
/// attribution aggregate and the keys of the trials folded so far.
/// Trials fold first-wins by ⟨campaign, error, case⟩ key, and the
/// oracle verdicts a journal persists overlay their trials' events.
#[derive(Debug, Default)]
pub struct CampaignFold {
    /// The E1 report (Tables 7 and 8).
    pub e1: E1Report,
    /// The E2 report (Table 9).
    pub e2: E2Report,
    /// The attribution aggregate.
    pub attribution: AttributionAggregate,
    recorded: HashSet<(CampaignKind, usize, usize)>,
    verdicts: OracleVerdicts,
    monitored: MonitoredMap,
}

impl CampaignFold {
    /// An empty fold.
    pub fn new() -> Self {
        CampaignFold::default()
    }

    /// Folds every distinct trial of `journal` ([`Journal::walk`]),
    /// overlaying the oracle verdicts it persists; later
    /// [`record`](Self::record)s get the same overlay.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Journal::walk`].
    pub fn from_journal(journal: &Journal) -> Result<Self, JournalError> {
        let mut fold = CampaignFold {
            verdicts: OracleVerdicts::from_journal(journal),
            ..CampaignFold::default()
        };
        journal.walk(|record, error| {
            fold.record(record, error);
        })?;
        Ok(fold)
    }

    /// Folds one trial of the paper error `error` into the reports and
    /// the attribution aggregate, unless a trial with the same key is
    /// already folded. Returns whether it was folded.
    pub fn record(&mut self, record: &TrialRecord, error: PaperError<'_>) -> bool {
        if !self.recorded.insert(record.key()) {
            return false;
        }
        let (case, trial) = (record.case_index, &record.trial);
        let mut event = match error {
            PaperError::E1(error) => {
                self.e1.record(error, trial);
                AttributionEvent::for_e1(error, case, trial)
            }
            PaperError::E2(error) => {
                self.e2.record(error, trial);
                AttributionEvent::for_e2(error, case, trial, &self.monitored)
            }
        };
        self.verdicts.overlay(&mut event);
        self.attribution.record(&event);
        true
    }

    /// Whether the trial keyed ⟨campaign, error number, case index⟩ is
    /// folded.
    pub fn is_recorded(&self, key: (CampaignKind, usize, usize)) -> bool {
        self.recorded.contains(&key)
    }
}

/// Writes a campaign's artefacts under `out`: `e1.json`, `e2.json`,
/// `table6.txt`–`table9.txt` (Table 6 lists `e1_errors`),
/// `coverage_analysis.json` (when both campaigns have trials), and the
/// observer reports under `<out>/{telemetry,attribution,profile,
/// convergence}/`, each named after `producer` except the convergence
/// report, which is named `label`. The telemetry report is written when
/// a snapshot is given; the profile when a recorder is given that
/// counted a trial. The observer summaries are printed on stderr.
///
/// # Errors
///
/// The first file or report that could not be written, naming it.
#[allow(clippy::too_many_arguments)]
pub fn write_artefacts(
    out: &Path,
    producer: &str,
    label: &str,
    protocol: &Protocol,
    e1_errors: &[E1Error],
    fold: &CampaignFold,
    telemetry: Option<&TelemetrySnapshot>,
    profile: Option<&ProfileRecorder>,
) -> io::Result<()> {
    let named = |what: String| {
        move |e: io::Error| io::Error::new(e.kind(), format!("cannot write {what}: {e}"))
    };
    std::fs::create_dir_all(out).map_err(named(out.display().to_string()))?;
    fn json(value: &impl Serialize) -> String {
        serde_json::to_string_pretty(value).expect("reports serialise")
    }
    let mut files = vec![
        ("e1.json", json(&fold.e1)),
        ("e2.json", json(&fold.e2)),
        (
            "table6.txt",
            tables::render_table6(e1_errors, protocol.cases_per_error()),
        ),
        ("table7.txt", tables::render_table7(&fold.e1)),
        ("table8.txt", tables::render_table8(&fold.e1)),
        ("table9.txt", tables::render_table9(&fold.e2)),
    ];
    if let Some(analysis) = coverage_report::analyse(&fold.e1, &fold.e2) {
        files.push(("coverage_analysis.json", json(&analysis)));
    }
    for (name, text) in files {
        let path = out.join(name);
        std::fs::write(&path, text).map_err(named(path.display().to_string()))?;
    }

    // Each report goes to `<out>/<kind>/`, named on stderr.
    let save = |kind: &str, write: &dyn Fn(&Path) -> io::Result<PathBuf>| {
        let dir = out.join(kind);
        let path =
            write(&dir).map_err(named(format!("the {kind} report under {}", dir.display())))?;
        eprintln!("{kind} report written to {}", path.display());
        io::Result::Ok(())
    };
    let run = RunMetadata::for_run(protocol, true, None);
    if let Some(snapshot) = telemetry {
        eprint!("{}", telemetry::render_summary(snapshot));
        let report = telemetry::TelemetryReport::assemble(producer, run.clone(), snapshot.clone());
        save("telemetry", &|dir| write_report(dir, producer, &report))?;
    }
    eprint!("{}", attribution::render_league(&fold.attribution));
    let report =
        attribution::AttributionReport::assemble(producer, run.clone(), fold.attribution.clone());
    save("attribution", &|dir| write_report(dir, producer, &report))?;
    if let Some(recorder) = profile {
        if recorder.trials() + recorder.pruned_trials() == 0 {
            eprintln!("no trial ran; no profile written");
        } else {
            let wall = profile::sample_wall_ns();
            let report =
                profile::ProfileReport::assemble(producer, run.clone(), recorder, Some(wall));
            eprint!("{}", profile::render_league(&report));
            save("profile", &|dir| write_report(dir, producer, &report))?;
        }
    }
    let aggregate = ConvergenceAggregate::from_reports(&fold.e1, &fold.e2);
    let delta = convergence::DEFAULT_DELTA;
    eprint!(
        "{}",
        convergence::render_coverage(&aggregate.coverage(producer, delta))
    );
    let report = convergence::ConvergenceReport::assemble(producer, run, aggregate, delta);
    save("convergence", &|dir| write_report(dir, label, &report))
}

/// Writes a report as pretty JSON to `dir/<label>.json`, creating the
/// directory: the one writer of the telemetry, attribution, profile and
/// convergence reports (re-exported as each module's `write_report`).
///
/// # Errors
///
/// Any filesystem failure.
pub fn write_report<T: Serialize>(dir: &Path, label: &str, report: &T) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{label}.json"));
    let json = serde_json::to_string_pretty(report).expect("report serialises");
    std::fs::write(&path, format!("{json}\n"))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::BitFlip;

    fn trial(detected_ea: Option<EaId>, failed: bool, at: u64) -> Trial {
        let mut per_ea_first_ms = [None; 7];
        if let Some(ea) = detected_ea {
            per_ea_first_ms[ea.index()] = Some(at);
        }
        Trial {
            failed,
            per_ea_first_ms,
            first_injection_ms: 20,
            final_distance_m: 100.0,
        }
    }

    fn e1_error(ea: EaId) -> E1Error {
        E1Error {
            number: 1,
            ea,
            signal_bit: 0,
            flip: BitFlip::new(Region::AppRam, 0, 0),
        }
    }

    #[test]
    fn e1_report_routes_to_signal_row_and_version_columns() {
        let mut report = E1Report::new();
        report.record(&e1_error(EaId::Ea6), &trial(Some(EaId::Ea6), true, 120));
        report.record(&e1_error(EaId::Ea6), &trial(None, false, 0));

        let row = &report.rows[EaId::Ea6.index()];
        // EA6 column: 1 of 2 detected.
        assert_eq!(row.cells[5].all.detected(), 1);
        assert_eq!(row.cells[5].all.total(), 2);
        // EA1 column: nothing detected.
        assert_eq!(row.cells[0].all.detected(), 0);
        // All column: same single detection.
        assert_eq!(row.cells[7].all.detected(), 1);
        // Conditioned splits.
        assert_eq!(row.cells[7].fail.total(), 1);
        assert_eq!(row.cells[7].fail.detected(), 1);
        assert_eq!(row.cells[7].no_fail.total(), 1);
        assert_eq!(row.cells[7].no_fail.detected(), 0);
        // Latency: 120 - 20 = 100 ms.
        assert_eq!(row.cells[5].latency.min(), Some(100));
        assert_eq!(report.trials(), 2);
        // Totals row sees both.
        assert_eq!(report.totals.cells[7].all.total(), 2);
    }

    #[test]
    fn e2_report_splits_regions() {
        let mut report = E2Report::new();
        let ram_err = E2Error {
            number: 1,
            flip: BitFlip::new(Region::AppRam, 5, 1),
        };
        let stack_err = E2Error {
            number: 2,
            flip: BitFlip::new(Region::Stack, 5, 1),
        };
        report.record(&ram_err, &trial(Some(EaId::Ea1), true, 220));
        report.record(&stack_err, &trial(None, true, 0));
        assert_eq!(report.ram.all.detected(), 1);
        assert_eq!(report.stack.all.detected(), 0);
        assert_eq!(report.total.all.total(), 2);
        assert_eq!(report.ram.latency_fail.min(), Some(200));
        assert_eq!(report.p_detect(), Some(0.5));
    }

    #[test]
    fn p_ds_reads_total_all_column() {
        let mut report = E1Report::new();
        report.record(&e1_error(EaId::Ea2), &trial(Some(EaId::Ea2), false, 30));
        assert_eq!(report.p_ds(), Some(1.0));
    }

    /// An artefact that cannot be written is an error naming it — the
    /// file for the tables and JSON reports, the directory for the
    /// observer reports — not a panic or a run that exits 0.
    #[test]
    fn an_unwritable_artefact_is_an_error_naming_it() {
        let root = std::env::temp_dir().join(format!("fic-results-test-{}", std::process::id()));
        let mut fold = CampaignFold::new();
        fold.e1
            .record(&e1_error(EaId::Ea1), &trial(Some(EaId::Ea1), false, 50));
        let protocol = Protocol::scaled(1, 1_000);
        for (blocked, is_dir) in [("e1.json", true), ("telemetry", false)] {
            let out = root.join(blocked);
            std::fs::create_dir_all(&out).unwrap();
            let path = out.join(blocked);
            if is_dir {
                std::fs::create_dir_all(&path).unwrap();
            } else {
                std::fs::write(&path, "a file, not a directory").unwrap();
            }
            let snapshot = TelemetrySnapshot::new();
            let err = write_artefacts(
                &out,
                "test",
                "test",
                &protocol,
                &[],
                &fold,
                Some(&snapshot),
                None,
            )
            .unwrap_err();
            let message = err.to_string();
            assert!(message.contains(&path.display().to_string()), "{message}");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn row_labels_match_signals() {
        assert_eq!(E1Report::row_label(0), "SetValue");
        assert_eq!(E1Report::row_label(6), "OutValue");
    }
}
