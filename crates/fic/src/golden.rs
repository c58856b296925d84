//! Golden-run validation and golden-table regression checking.
//!
//! Two distinct "goldens" live here:
//!
//! * **Golden runs** ([`validate_fault_free`]): the paper requires that
//!   every test case, executed without injections, triggers **no**
//!   detection and **no** failure ("All test cases are such that if
//!   they are run on the target system without error injection, none of
//!   the error detection mechanisms report detection", Section 3.4).
//!   Each case runs as the campaign's own fault-free reference trial
//!   ([`crate::experiment::run_reference_trial_with`]): forked from the
//!   case's fault-free prefix and stopped at the settle proof
//!   (`docs/PROOFS.md`), not simulated to the end of the window. The
//!   cases fan out over [`Protocol::effective_workers`] threads, and the
//!   violation reported is always the lowest-index one, whatever the
//!   worker count. `tests/golden_equivalence.rs` pins every
//!   proof-stopped verdict against a full-window run.
//! * **Golden tables** ([`check_dir`] / [`refresh_dir`]): committed
//!   reference campaign results under `results/golden/`. A fresh
//!   campaign (or a journal replay) is compared cell by cell against
//!   the goldens with tolerances derived from Powell-style confidence
//!   intervals — proportions must have overlapping Wilson intervals
//!   ([`ea_core::stats::Proportion::equivalent`]), latency cells must
//!   have overlapping observed ranges. A silently disabled detector
//!   collapses its column to zero, far outside the golden intervals,
//!   and fails the check.

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ea_core::stats::Z_95;
use simenv::TestCase;

use crate::error_set::{self, E1Error};
use crate::experiment::{fault_free_prefix, run_reference_trial_with};
use crate::protocol::Protocol;
use crate::results::{Cell, E1Report, E2Report, VERSION_LABELS};
use crate::tables;

/// A violation of the golden-run requirement.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenViolation {
    /// The offending test case.
    pub case: TestCase,
    /// Whether a detection was (wrongly) raised.
    pub spurious_detection: bool,
    /// Whether the arrestment (wrongly) failed.
    pub failed: bool,
}

impl fmt::Display for GoldenViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "golden run violated at m = {} kg, v = {} m/s (spurious detection: {}, failure: {})",
            self.case.mass_kg, self.case.velocity_ms, self.spurious_detection, self.failed
        )
    }
}

impl std::error::Error for GoldenViolation {}

/// Runs every grid case without injections; errors on the lowest-index
/// case that detects or fails.
///
/// Each case is the campaign's fault-free reference trial, stopped at
/// the settle proof, and the cases are spread over
/// [`Protocol::effective_workers`] threads. The result does not depend
/// on the worker count.
///
/// # Errors
///
/// The [`GoldenViolation`] of the first grid case that violates the
/// requirement, if any.
pub fn validate_fault_free(protocol: &Protocol) -> Result<(), GoldenViolation> {
    let cases = protocol.grid.cases();
    let workers = protocol.effective_workers().min(cases.len());
    let next = AtomicUsize::new(0);
    let violations = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let ci = next.fetch_add(1, Ordering::Relaxed);
                if ci >= cases.len() {
                    break;
                }
                if let Some(violation) = check_case(protocol, cases[ci]) {
                    violations
                        .lock()
                        .expect("no panics while holding lock")
                        .push((ci, violation));
                }
            });
        }
    });
    violations
        .into_inner()
        .expect("no panics while holding lock")
        .into_iter()
        .min_by_key(|&(ci, _)| ci)
        .map_or(Ok(()), |(_, violation)| Err(violation))
}

/// One golden run: the fault-free reference trial of `case`.
fn check_case(protocol: &Protocol, case: TestCase) -> Option<GoldenViolation> {
    let prefix = fault_free_prefix(protocol, case);
    let trial = run_reference_trial_with(protocol, case, &prefix, true);
    let spurious_detection = trial.per_ea_first_ms.iter().any(Option::is_some);
    (spurious_detection || trial.failed).then_some(GoldenViolation {
        case,
        spurious_detection,
        failed: trial.failed,
    })
}

/// One golden-table cell whose current value falls outside the golden
/// tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Which paper table the cell belongs to.
    pub table: &'static str,
    /// Human-readable cell coordinates (row, column, measure).
    pub location: String,
    /// The committed golden value, paper-formatted.
    pub golden: String,
    /// The freshly computed value, paper-formatted.
    pub current: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}, {}: golden {} vs current {}",
            self.table, self.location, self.golden, self.current
        )
    }
}

/// Errors while loading or writing golden-table artefacts.
#[derive(Debug)]
pub enum GoldenError {
    /// Filesystem failure (path included in the message).
    Io(String),
    /// A golden artefact does not parse.
    Parse(String),
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoldenError::Io(m) => write!(f, "golden artefact I/O error: {m}"),
            GoldenError::Parse(m) => write!(f, "golden artefact parse error: {m}"),
        }
    }
}

impl std::error::Error for GoldenError {}

fn compare_cell(
    divergences: &mut Vec<Divergence>,
    prob_table: &'static str,
    latency_table: &'static str,
    row: &str,
    column: &str,
    golden: &Cell,
    current: &Cell,
) {
    for (measure, pick) in [("P(d)", 0usize), ("P(d|fail)", 1), ("P(d|no fail)", 2)] {
        let (g, c) = match pick {
            0 => (&golden.all, &current.all),
            1 => (&golden.fail, &current.fail),
            _ => (&golden.no_fail, &current.no_fail),
        };
        if !g.equivalent(c, Z_95) {
            divergences.push(Divergence {
                table: prob_table,
                location: format!("{row} row, {column} column, {measure}"),
                golden: g.paper_cell(),
                current: c.paper_cell(),
            });
        }
    }
    for (measure, golden_latency, current_latency) in [
        ("latency", &golden.latency, &current.latency),
        ("latency|fail", &golden.latency_fail, &current.latency_fail),
    ] {
        if !golden_latency.consistent_with(current_latency) {
            divergences.push(Divergence {
                table: latency_table,
                location: format!("{row} row, {column} column, {measure}"),
                golden: golden_latency.paper_cell(),
                current: current_latency.paper_cell(),
            });
        }
    }
}

/// Compares an E1 report cell by cell against a golden report
/// (Tables 7 and 8). Returns every divergent cell; empty means the
/// reports are statistically equivalent.
pub fn compare_e1(golden: &E1Report, current: &E1Report) -> Vec<Divergence> {
    let mut divergences = Vec::new();
    for (k, (golden_row, current_row)) in golden.rows.iter().zip(&current.rows).enumerate() {
        for (v, (g, c)) in golden_row.cells.iter().zip(&current_row.cells).enumerate() {
            compare_cell(
                &mut divergences,
                "Table 7",
                "Table 8",
                E1Report::row_label(k),
                VERSION_LABELS[v],
                g,
                c,
            );
        }
    }
    for (v, (g, c)) in golden
        .totals
        .cells
        .iter()
        .zip(&current.totals.cells)
        .enumerate()
    {
        compare_cell(
            &mut divergences,
            "Table 7",
            "Table 8",
            "Total",
            VERSION_LABELS[v],
            g,
            c,
        );
    }
    divergences
}

/// Compares an E2 report against a golden report (Table 9).
pub fn compare_e2(golden: &E2Report, current: &E2Report) -> Vec<Divergence> {
    let mut divergences = Vec::new();
    for (area, g, c) in [
        ("RAM", &golden.ram, &current.ram),
        ("Stack", &golden.stack, &current.stack),
        ("Total", &golden.total, &current.total),
    ] {
        compare_cell(&mut divergences, "Table 9", "Table 9", area, "-", g, c);
    }
    divergences
}

fn read_golden<T: serde::Deserialize>(dir: &Path, name: &str) -> Result<T, GoldenError> {
    let path = dir.join(name);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| GoldenError::Io(format!("{}: {e}", path.display())))?;
    serde_json::from_str(&text).map_err(|e| GoldenError::Parse(format!("{name}: {e}")))
}

/// Checks fresh campaign reports against the committed goldens in
/// `golden_dir` (`e1.json` + `e2.json`, as written by [`refresh_dir`]).
/// Also re-renders Table 6 from the current error set and diffs it
/// exactly against `table6.txt` (Table 6 is protocol-determined, so it
/// admits no statistical tolerance).
///
/// # Errors
///
/// Missing or unparseable golden artefacts.
pub fn check_dir(
    golden_dir: &Path,
    e1_errors: &[E1Error],
    cases_per_error: usize,
    e1: &E1Report,
    e2: &E2Report,
) -> Result<Vec<Divergence>, GoldenError> {
    let golden_e1: E1Report = read_golden(golden_dir, "e1.json")?;
    let golden_e2: E2Report = read_golden(golden_dir, "e2.json")?;
    let mut divergences = compare_e1(&golden_e1, e1);
    divergences.extend(compare_e2(&golden_e2, e2));

    let table6_path = golden_dir.join("table6.txt");
    let golden_table6 = std::fs::read_to_string(&table6_path)
        .map_err(|e| GoldenError::Io(format!("{}: {e}", table6_path.display())))?;
    let current_table6 = tables::render_table6(e1_errors, cases_per_error);
    if golden_table6 != current_table6 {
        divergences.push(Divergence {
            table: "Table 6",
            location: "whole table".to_owned(),
            golden: format!("{} bytes", golden_table6.len()),
            current: format!("{} bytes (text differs)", current_table6.len()),
        });
    }
    Ok(divergences)
}

/// Writes the golden artefacts for the given campaign results into
/// `golden_dir`: `e1.json`, `e2.json` and the rendered `table6.txt` …
/// `table9.txt`. Only a whole campaign may become a golden: E1 must
/// hold `|e1_errors| × cases_per_error` trials and E2 one per paper E2
/// error and case. Reports of a partial run (a crashed campaign's
/// journal) are refused before anything is written.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] naming the expected and actual
/// trial counts of a partial report, or any filesystem failure.
pub fn refresh_dir(
    golden_dir: &Path,
    e1_errors: &[E1Error],
    cases_per_error: usize,
    e1: &E1Report,
    e2: &E2Report,
) -> io::Result<()> {
    let e2_errors = error_set::E2_RAM_ERRORS + error_set::E2_STACK_ERRORS;
    for (name, expected, actual) in [
        ("E1", e1_errors.len() * cases_per_error, e1.trials()),
        ("E2", e2_errors * cases_per_error, e2.trials()),
    ] {
        if actual != expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "refusing to refresh goldens from a partial campaign: \
                     {name} holds {actual} trials, a whole one {expected}"
                ),
            ));
        }
    }
    std::fs::create_dir_all(golden_dir)?;
    std::fs::write(
        golden_dir.join("e1.json"),
        serde_json::to_string_pretty(e1).expect("report serialises"),
    )?;
    std::fs::write(
        golden_dir.join("e2.json"),
        serde_json::to_string_pretty(e2).expect("report serialises"),
    )?;
    for (name, text) in [
        (
            "table6.txt",
            tables::render_table6(e1_errors, cases_per_error),
        ),
        ("table7.txt", tables::render_table7(e1)),
        ("table8.txt", tables::render_table8(e1)),
        ("table9.txt", tables::render_table9(e2)),
    ] {
        std::fs::write(golden_dir.join(name), text)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_set;
    use crate::experiment::Trial;
    use arrestor::EaId;

    #[test]
    fn coarse_grid_is_golden() {
        // A 3 × 3 grid including all envelope corners, full window.
        let protocol = Protocol::scaled(3, 40_000);
        validate_fault_free(&protocol).expect("fault-free runs must be silent and safe");
    }

    fn synthetic_e1(detect_every: usize, latency: u64) -> E1Report {
        let mut report = E1Report::new();
        for (k, error) in error_set::e1().iter().enumerate() {
            let mut per_ea_first_ms = [None; 7];
            if k % detect_every == 0 {
                per_ea_first_ms[error.ea.index()] = Some(latency + 20);
            }
            report.record(
                error,
                &Trial {
                    failed: k % 3 == 0,
                    per_ea_first_ms,
                    first_injection_ms: 20,
                    final_distance_m: 200.0,
                },
            );
        }
        report
    }

    fn synthetic_e2(detected: bool) -> E2Report {
        let mut report = E2Report::new();
        for error in &error_set::e2() {
            let mut per_ea_first_ms = [None; 7];
            if detected {
                per_ea_first_ms[EaId::Ea1.index()] = Some(300);
            }
            report.record(
                error,
                &Trial {
                    failed: false,
                    per_ea_first_ms,
                    first_injection_ms: 20,
                    final_distance_m: 200.0,
                },
            );
        }
        report
    }

    #[test]
    fn identical_reports_are_equivalent() {
        let e1 = synthetic_e1(2, 100);
        assert!(compare_e1(&e1, &e1).is_empty());
        let e2 = synthetic_e2(true);
        assert!(compare_e2(&e2, &e2).is_empty());
    }

    fn synthetic_e2_with_rate(extra: bool) -> E2Report {
        // Detects every second error, plus (when `extra`) every fifth:
        // 100/200 vs ~120/200 — Wilson intervals overlap comfortably.
        let mut report = E2Report::new();
        for error in &error_set::e2() {
            let hit = error.number % 2 == 0 || (extra && error.number % 5 == 0);
            let mut per_ea_first_ms = [None; 7];
            if hit {
                per_ea_first_ms[EaId::Ea1.index()] = Some(300);
            }
            report.record(
                error,
                &Trial {
                    failed: false,
                    per_ea_first_ms,
                    first_injection_ms: 20,
                    final_distance_m: 200.0,
                },
            );
        }
        report
    }

    #[test]
    fn small_fluctuations_stay_within_tolerance() {
        let golden = synthetic_e2_with_rate(false);
        let rerun = synthetic_e2_with_rate(true);
        let divergences = compare_e2(&golden, &rerun);
        assert!(divergences.is_empty(), "unexpected: {divergences:?}");
    }

    #[test]
    fn disabled_detector_diverges() {
        // Golden: every second error detected. Current: nothing ever
        // detected (as if the assertions were compiled out).
        let golden = synthetic_e1(2, 100);
        let disabled = synthetic_e1(usize::MAX, 100);
        let divergences = compare_e1(&golden, &disabled);
        assert!(!divergences.is_empty());
        assert!(divergences.iter().any(|d| d.table == "Table 7"));

        let e2_golden = synthetic_e2(true);
        let e2_disabled = synthetic_e2(false);
        assert!(!compare_e2(&e2_golden, &e2_disabled).is_empty());
    }

    #[test]
    fn check_and_refresh_round_trip() {
        let dir = std::env::temp_dir().join(format!("fic-golden-test-{}", std::process::id()));
        let errors = error_set::e1();
        let e1 = synthetic_e1(2, 100);
        let e2 = synthetic_e2(true);
        // The synthetic reports hold one trial per error: a whole
        // campaign on a one-case grid.
        refresh_dir(&dir, &errors, 1, &e1, &e2).unwrap();
        for name in [
            "e1.json",
            "e2.json",
            "table6.txt",
            "table7.txt",
            "table8.txt",
            "table9.txt",
        ] {
            assert!(dir.join(name).exists(), "{name} missing");
        }
        // Same results check clean...
        let divergences = check_dir(&dir, &errors, 1, &e1, &e2).unwrap();
        assert!(divergences.is_empty(), "unexpected: {divergences:?}");
        // ...a disabled detector does not.
        let broken = synthetic_e1(usize::MAX, 100);
        let divergences = check_dir(&dir, &errors, 1, &broken, &e2).unwrap();
        assert!(!divergences.is_empty());
        // ...and a different protocol breaks the exact Table 6 diff.
        let divergences = check_dir(&dir, &errors, 4, &e1, &e2).unwrap();
        assert!(divergences.iter().any(|d| d.table == "Table 6"));
    }

    #[test]
    fn missing_goldens_error_cleanly() {
        let dir = std::env::temp_dir().join("fic-golden-test-definitely-missing");
        let errors = error_set::e1();
        let e1 = synthetic_e1(2, 100);
        let e2 = synthetic_e2(true);
        assert!(matches!(
            check_dir(&dir, &errors, 25, &e1, &e2),
            Err(GoldenError::Io(_))
        ));
    }
}
