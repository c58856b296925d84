//! Coverage-convergence estimation: how statistically settled are
//! Tables 7–9?
//!
//! The paper's headline artefacts are binomial coverage estimates, but
//! the tables alone do not say how tight the Wilson intervals around
//! `Pds` and `Pdetect` are, or how many more trials it would take to
//! pin a cell to a target precision. This module reads the campaign
//! reports as a [`ConvergenceAggregate`]: one [`Proportion`] per E1
//! signal cell (the All-version column of
//! Table 7), the E1 total, and the two E2 region cells of Table 9 —
//! plus the recomposed §2.4 `Pdetect` and a per-cell precision
//! forecast ("trials remaining to reach a ±δ half-width").
//!
//! Every producer derives the aggregate from the final campaign
//! reports ([`ConvergenceAggregate::from_reports`]): `full_campaign`
//! (live, resumed or `--from-journal`) and the fleet server. A
//! journal's aggregate is therefore
//! `from_reports(&journal.replay()?)` — the artefact is a pure function
//! of the journaled trials and cannot drift from the tables. The
//! aggregate's `merge` is associative, commutative and
//! permutation-invariant (`crates/fic/tests/prop_convergence.rs`).

use std::io;
use std::path::{Path, PathBuf};

use ea_core::stats::{Proportion, Z_95};
use memsim::Region;
use serde::{Deserialize, Serialize};

use crate::results::{E1Report, E2Report};
use crate::telemetry::RunMetadata;

/// Version stamp of [`ConvergenceReport`] and the `/coverage` payload.
pub const SCHEMA_VERSION: u32 = 1;

/// The report's `kind` discriminator.
pub const REPORT_KIND: &str = "coverage-convergence";

/// Default half-width target δ for the precision forecast (±5 points,
/// the resolution at which the paper's own tables are quoted).
pub const DEFAULT_DELTA: f64 = 0.05;

/// Which table cell a trial lands in, as exposed by the error kinds
/// (`InjectableError::convergence_key`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKey {
    /// An E1 trial targeting the `k`-th monitored signal (Table 6
    /// row order, `EaId::index`).
    Signal(usize),
    /// An E2 trial flipping a bit in the given region.
    Region(Region),
}

/// The incremental per-cell coverage estimator. Detection criterion is
/// the All-mechanisms version ([`arrestor::EaSet::ALL`]) — the same
/// cells the paper's headline `Pds` and `Pdetect` come from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceAggregate {
    /// Per-signal All-version detection, Table 6 row order.
    pub per_signal: [Proportion; 7],
    /// The E1 Total row's All-version cell (the paper's `Pds`).
    pub e1_total: Proportion,
    /// E2 application-RAM flips (the paper's `Pdetect`).
    pub e2_ram: Proportion,
    /// E2 stack flips.
    pub e2_stack: Proportion,
}

impl ConvergenceAggregate {
    /// An empty aggregate (the identity of [`merge`](Self::merge)).
    pub fn new() -> Self {
        ConvergenceAggregate::default()
    }

    /// Folds one trial into the cell named by `key`.
    pub fn record(&mut self, key: CellKey, detected: bool) {
        match key {
            CellKey::Signal(k) => {
                self.per_signal[k % 7].record(detected);
                self.e1_total.record(detected);
            }
            CellKey::Region(Region::AppRam) => self.e2_ram.record(detected),
            CellKey::Region(Region::Stack) => self.e2_stack.record(detected),
        }
    }

    /// Merges another aggregate. The
    /// operation is associative, commutative and permutation-invariant.
    pub fn merge(&mut self, other: &ConvergenceAggregate) {
        for (mine, theirs) in self.per_signal.iter_mut().zip(&other.per_signal) {
            mine.merge(*theirs);
        }
        self.e1_total.merge(other.e1_total);
        self.e2_ram.merge(other.e2_ram);
        self.e2_stack.merge(other.e2_stack);
    }

    /// Derives the aggregate from already-folded campaign reports — the
    /// fleet server's path: its per-campaign [`E1Report`]/[`E2Report`]
    /// hold exactly these cells, so no second fold state is needed and
    /// the estimator cannot drift from the tables.
    pub fn from_reports(e1: &E1Report, e2: &E2Report) -> Self {
        let mut per_signal = [Proportion::default(); 7];
        for (k, slot) in per_signal.iter_mut().enumerate() {
            *slot = e1.rows[k].cells[7].all;
        }
        ConvergenceAggregate {
            per_signal,
            e1_total: e1.totals.cells[7].all,
            e2_ram: e2.ram.all,
            e2_stack: e2.stack.all,
        }
    }

    /// The combined E2 cell (RAM ∪ stack, Table 9's Total row).
    pub fn e2_total(&self) -> Proportion {
        let mut total = self.e2_ram;
        total.merge(self.e2_stack);
        total
    }

    /// E1 trials folded so far.
    pub fn e1_trials(&self) -> u64 {
        self.e1_total.total()
    }

    /// E2 trials folded so far.
    pub fn e2_trials(&self) -> u64 {
        self.e2_ram.total() + self.e2_stack.total()
    }

    /// Total trials folded so far.
    pub fn trials(&self) -> u64 {
        self.e1_trials() + self.e2_trials()
    }

    /// Whether nothing has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.trials() == 0
    }

    /// The named per-cell estimates (detections, Wilson CI, forecast)
    /// in render order: seven signal rows, the E1 total, the two E2
    /// regions and the E2 total.
    pub fn cells(&self, delta: f64) -> Vec<CellEstimate> {
        let mut cells = Vec::with_capacity(11);
        for (k, cell) in self.per_signal.iter().enumerate() {
            cells.push(CellEstimate::from_proportion(
                E1Report::row_label(k),
                cell,
                delta,
            ));
        }
        cells.push(CellEstimate::from_proportion(
            "E1 total",
            &self.e1_total,
            delta,
        ));
        cells.push(CellEstimate::from_proportion("E2 RAM", &self.e2_ram, delta));
        cells.push(CellEstimate::from_proportion(
            "E2 stack",
            &self.e2_stack,
            delta,
        ));
        cells.push(CellEstimate::from_proportion(
            "E2 total",
            &self.e2_total(),
            delta,
        ));
        cells
    }

    /// One self-describing coverage view (the `/coverage` payload per
    /// campaign and the end-of-run summary share this shape).
    pub fn coverage(&self, name: &str, delta: f64) -> CampaignCoverage {
        CampaignCoverage {
            name: name.to_owned(),
            delta,
            e1_trials: self.e1_trials(),
            e2_trials: self.e2_trials(),
            cells: self.cells(delta),
            recomposition: Recomposition::from_aggregate(self),
        }
    }
}

/// Projects how many further trials a cell needs before its Wilson 95 %
/// half-width drops to ±`delta`.
///
/// CI width scales as `1/√n` at fixed `p̂`, so the projection from the
/// current width `w` over `n` trials is `n·(w/δ)² − n`. An empty cell
/// has no `p̂` yet and is forecast at the worst case `p = ½` through
/// the normal approximation, `⌈z²/(4δ²)⌉`. Returns 0 once the target
/// is met; `delta` must be positive (enforced by callers).
pub fn trials_to_half_width(cell: &Proportion, delta: f64) -> u64 {
    debug_assert!(delta > 0.0);
    let Some((low, high)) = cell.interval_wilson(Z_95) else {
        return ((Z_95 * Z_95) / (4.0 * delta * delta)).ceil() as u64;
    };
    let width = (high - low) / 2.0;
    if width <= delta {
        return 0;
    }
    let n = cell.total() as f64;
    let required = n * (width / delta) * (width / delta);
    (required.ceil() as u64).saturating_sub(cell.total())
}

/// One table cell's current estimate, interval and precision forecast.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellEstimate {
    /// Cell name (`CLOCK` … `PRES_B`, `E1 total`, `E2 RAM`, …).
    pub label: String,
    /// Detected trials.
    pub detected: u64,
    /// Total trials.
    pub trials: u64,
    /// Point estimate `detected / trials` (absent while empty).
    pub estimate: Option<f64>,
    /// Wilson 95 % lower bound.
    pub wilson_low: Option<f64>,
    /// Wilson 95 % upper bound.
    pub wilson_high: Option<f64>,
    /// Half of the Wilson interval's width.
    pub half_width: Option<f64>,
    /// Projected further trials until the half-width reaches ±δ.
    pub trials_remaining: u64,
}

impl CellEstimate {
    /// Snapshots one proportion under the forecast target `delta`.
    pub fn from_proportion(label: &str, cell: &Proportion, delta: f64) -> Self {
        let interval = cell.interval_wilson(Z_95);
        CellEstimate {
            label: label.to_owned(),
            detected: cell.detected(),
            trials: cell.total(),
            estimate: cell.estimate(),
            wilson_low: interval.map(|(low, _)| low),
            wilson_high: interval.map(|(_, high)| high),
            half_width: interval.map(|(low, high)| (high - low) / 2.0),
            trials_remaining: trials_to_half_width(cell, delta),
        }
    }
}

/// The §2.4 coverage algebra recomposed from the live cells, the same
/// clamped inversion `attribution::Decomposition` uses: `Pem` is exact
/// from the memory map, `Pds` comes from the E1 total, `Pprop` is
/// inverted from the E2 RAM measurement (clamped into `[0, 1]` against
/// sampling noise), and `Pdetect = (Pen·Pprop + Pem)·Pds`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Recomposition {
    /// Monitored fraction of application RAM (exact, from the map).
    pub p_em: f64,
    /// `1 − Pem`.
    pub p_en: f64,
    /// The E1 total detection estimate.
    pub p_ds: f64,
    /// The measured E2 RAM detection estimate.
    pub p_detect_ram: f64,
    /// Propagation probability inverted from the algebra, clamped.
    pub p_prop: f64,
    /// `(Pen·Pprop + Pem)·Pds`.
    pub p_detect_recomposed: f64,
}

impl Recomposition {
    /// Recomposes from an aggregate; `None` until both the E1 total
    /// and the E2 RAM cell have trials.
    pub fn from_aggregate(aggregate: &ConvergenceAggregate) -> Option<Self> {
        let p_ds = aggregate.e1_total.estimate()?;
        let p_detect_ram = aggregate.e2_ram.estimate()?;
        let p_em = crate::coverage_report::p_em_from_map();
        let p_en = 1.0 - p_em;
        let p_prop = if p_ds > 0.0 && p_en > 0.0 {
            ((p_detect_ram / p_ds - p_em) / p_en).clamp(0.0, 1.0)
        } else {
            0.0
        };
        Some(Recomposition {
            p_em,
            p_en,
            p_ds,
            p_detect_ram,
            p_prop,
            p_detect_recomposed: (p_en * p_prop + p_em) * p_ds,
        })
    }
}

/// One campaign's coverage view: the `/coverage` payload carries one
/// of these per queued campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignCoverage {
    /// Campaign (or producer) name.
    pub name: String,
    /// The forecast's half-width target δ.
    pub delta: f64,
    /// E1 trials folded.
    pub e1_trials: u64,
    /// E2 trials folded.
    pub e2_trials: u64,
    /// Per-cell estimates in render order.
    pub cells: Vec<CellEstimate>,
    /// The recomposed coverage algebra, once both campaigns have data.
    pub recomposition: Option<Recomposition>,
}

/// The `/coverage` endpoint's whole payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageSnapshot {
    /// [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Always [`REPORT_KIND`] — lets pollers of `/coverage`
    /// sanity-check the URL.
    pub kind: String,
    /// One entry per campaign.
    pub campaigns: Vec<CampaignCoverage>,
}

impl CoverageSnapshot {
    /// Wraps per-campaign views into the versioned payload.
    pub fn new(campaigns: Vec<CampaignCoverage>) -> Self {
        CoverageSnapshot {
            schema_version: SCHEMA_VERSION,
            kind: REPORT_KIND.to_owned(),
            campaigns,
        }
    }
}

/// The persisted convergence artefact (`results/convergence/*.json`):
/// a pure function of the journaled trials, schema-versioned like the
/// telemetry/attribution/profile reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceReport {
    /// [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Artefact discriminator, always [`REPORT_KIND`].
    pub kind: String,
    /// Which binary produced the report.
    pub producer: String,
    /// Run attribution (same metadata as telemetry reports).
    pub run: RunMetadata,
    /// The forecast's half-width target δ.
    pub delta: f64,
    /// The folded estimator state.
    pub aggregate: ConvergenceAggregate,
    /// Per-cell estimates derived from the aggregate.
    pub cells: Vec<CellEstimate>,
    /// The recomposed coverage algebra derived from the aggregate.
    pub recomposition: Option<Recomposition>,
}

impl ConvergenceReport {
    /// Assembles a report (cells and recomposition are derived on the
    /// spot, so they can never disagree with the aggregate).
    pub fn assemble(
        producer: &str,
        run: RunMetadata,
        aggregate: ConvergenceAggregate,
        delta: f64,
    ) -> Self {
        ConvergenceReport {
            schema_version: SCHEMA_VERSION,
            kind: REPORT_KIND.to_owned(),
            producer: producer.to_owned(),
            run,
            delta,
            cells: aggregate.cells(delta),
            recomposition: Recomposition::from_aggregate(&aggregate),
            aggregate,
        }
    }

    /// Structural validation: version, discriminator, conservation
    /// laws, and that the derived cells and recomposition re-derive
    /// from the aggregate (used by `telemetry_check --convergence`).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} (this build reads {})",
                self.schema_version, SCHEMA_VERSION
            ));
        }
        if self.kind != REPORT_KIND {
            return Err(format!("unexpected kind `{}`", self.kind));
        }
        if self.delta <= 0.0 || self.delta.is_nan() {
            return Err(format!("delta {} is not positive", self.delta));
        }
        let agg = &self.aggregate;
        let signal_total: u64 = agg.per_signal.iter().map(Proportion::total).sum();
        if signal_total != agg.e1_total.total() {
            return Err(format!(
                "per-signal totals sum to {} but the E1 total holds {}",
                signal_total,
                agg.e1_total.total()
            ));
        }
        let signal_detected: u64 = agg.per_signal.iter().map(Proportion::detected).sum();
        if signal_detected != agg.e1_total.detected() {
            return Err(format!(
                "per-signal detections sum to {} but the E1 total holds {}",
                signal_detected,
                agg.e1_total.detected()
            ));
        }
        let expected_cells = agg.cells(self.delta);
        if self.cells != expected_cells {
            return Err("cells do not re-derive from the aggregate".to_owned());
        }
        let expected = Recomposition::from_aggregate(agg);
        match (&self.recomposition, &expected) {
            (None, None) => {}
            (Some(mine), Some(theirs)) => {
                let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
                if !(close(mine.p_em, theirs.p_em)
                    && close(mine.p_en, theirs.p_en)
                    && close(mine.p_ds, theirs.p_ds)
                    && close(mine.p_detect_ram, theirs.p_detect_ram)
                    && close(mine.p_prop, theirs.p_prop)
                    && close(mine.p_detect_recomposed, theirs.p_detect_recomposed))
                {
                    return Err("recomposition does not follow from the aggregate".to_owned());
                }
            }
            _ => return Err("recomposition presence disagrees with the aggregate".to_owned()),
        }
        Ok(())
    }
}

/// Writes a report as `<dir>/<label>.json` (pretty-printed).
///
/// # Errors
///
/// Directory creation or write failures.
pub fn write_report(dir: &Path, label: &str, report: &ConvergenceReport) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{label}.json"));
    let json = serde_json::to_string_pretty(report).expect("report serialises");
    std::fs::write(&path, format!("{json}\n"))?;
    Ok(path)
}

/// Renders one coverage view as a fixed-width TTY table: cell name,
/// detections, point estimate, Wilson interval, half-width and the
/// forecast — the summary `full_campaign` prints at the end of every
/// run.
pub fn render_coverage(coverage: &CampaignCoverage) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "[{}] convergence  e1 {} trials  e2 {} trials  (target ±{:.3})\n",
        coverage.name, coverage.e1_trials, coverage.e2_trials, coverage.delta
    ));
    out.push_str(&format!(
        "{:<10} {:>6}/{:<6} {:>7} {:>17} {:>7} {:>10}\n",
        "cell", "det", "trials", "p", "wilson 95%", "±", "need"
    ));
    for cell in &coverage.cells {
        let (p, interval, half) = match (cell.estimate, cell.wilson_low, cell.half_width) {
            (Some(p), Some(low), Some(half)) => {
                let high = cell.wilson_high.unwrap_or(low);
                (
                    format!("{p:.3}"),
                    format!("[{low:.3}, {high:.3}]"),
                    format!("{half:.3}"),
                )
            }
            _ => ("-".to_owned(), "-".to_owned(), "-".to_owned()),
        };
        let need = if cell.trials_remaining == 0 && cell.trials > 0 {
            "ok".to_owned()
        } else {
            format!("+{}", cell.trials_remaining)
        };
        out.push_str(&format!(
            "{:<10} {:>6}/{:<6} {:>7} {:>17} {:>7} {:>10}\n",
            cell.label, cell.detected, cell.trials, p, interval, half, need
        ));
    }
    if let Some(r) = &coverage.recomposition {
        out.push_str(&format!(
            "Pdetect = (Pen·Pprop + Pem)·Pds = ({:.4}·{:.4} + {:.4})·{:.4} = {:.4}  (measured RAM {:.4})\n",
            r.p_en, r.p_prop, r.p_em, r.p_ds, r.p_detect_recomposed, r.p_detect_ram
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::InjectableError;
    use crate::error_set;
    use crate::experiment::Trial;
    use arrestor::EaSet;

    fn trial(detections: &[(usize, u64)], failed: bool) -> Trial {
        let mut per_ea = [None; 7];
        for &(ea, ms) in detections {
            per_ea[ea % 7] = Some(ms);
        }
        Trial {
            failed,
            per_ea_first_ms: per_ea,
            first_injection_ms: 20,
            final_distance_m: 200.0,
        }
    }

    fn sample_aggregate() -> ConvergenceAggregate {
        let e1 = error_set::e1();
        let e2 = error_set::e2();
        let mut aggregate = ConvergenceAggregate::new();
        aggregate.record(e1[0].convergence_key(), true);
        aggregate.record(e1[30].convergence_key(), false);
        aggregate.record(e2[0].convergence_key(), true);
        aggregate.record(e2[1].convergence_key(), false);
        aggregate
    }

    #[test]
    fn schema_version_is_pinned() {
        assert_eq!(SCHEMA_VERSION, 1);
        assert_eq!(REPORT_KIND, "coverage-convergence");
    }

    #[test]
    fn recording_routes_to_the_named_cell() {
        let aggregate = sample_aggregate();
        assert_eq!(aggregate.e1_trials(), 2);
        assert_eq!(aggregate.e2_trials(), 2);
        assert_eq!(aggregate.e1_total.detected(), 1);
        let signal_total: u64 = aggregate.per_signal.iter().map(Proportion::total).sum();
        assert_eq!(signal_total, 2);
        assert_eq!(aggregate.e2_total().total(), 2);
    }

    #[test]
    fn from_reports_matches_the_incremental_fold() {
        let e1_errors = error_set::e1();
        let e2_errors = error_set::e2();
        let mut e1 = E1Report::new();
        let mut e2 = E2Report::new();
        let mut aggregate = ConvergenceAggregate::new();
        for (k, error) in e1_errors.iter().take(12).enumerate() {
            let t = trial(&[(k % 7, 40 + k as u64)], k % 3 == 0);
            e1.record(error, &t);
            aggregate.record(error.convergence_key(), t.detected(EaSet::ALL));
        }
        for (k, error) in e2_errors.iter().take(8).enumerate() {
            let t = trial(if k % 2 == 0 { &[(1, 80)] } else { &[] }, k % 2 == 0);
            e2.record(error, &t);
            aggregate.record(error.convergence_key(), t.detected(EaSet::ALL));
        }
        assert_eq!(ConvergenceAggregate::from_reports(&e1, &e2), aggregate);
    }

    #[test]
    fn forecast_is_zero_once_the_target_is_met() {
        let wide = Proportion::new(1, 4);
        assert!(trials_to_half_width(&wide, 0.05) > 0);
        let tight = Proportion::new(5_000, 10_000);
        assert_eq!(trials_to_half_width(&tight, 0.05), 0);
        let empty = Proportion::default();
        let worst = ((Z_95 * Z_95) / (4.0 * 0.05 * 0.05)).ceil() as u64;
        assert_eq!(trials_to_half_width(&empty, 0.05), worst);
    }

    #[test]
    fn report_assembles_and_validates() {
        let aggregate = sample_aggregate();
        let run = RunMetadata::for_run(&crate::Protocol::paper(), true, None);
        let report = ConvergenceReport::assemble("test", run, aggregate, DEFAULT_DELTA);
        report.validate().unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ConvergenceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        back.validate().unwrap();
    }

    #[test]
    fn validate_rejects_tampered_reports() {
        let run = RunMetadata::for_run(&crate::Protocol::paper(), true, None);
        let good = ConvergenceReport::assemble("test", run, sample_aggregate(), DEFAULT_DELTA);

        let mut wrong_version = good.clone();
        wrong_version.schema_version = 99;
        assert!(wrong_version.validate().is_err());

        let mut wrong_kind = good.clone();
        wrong_kind.kind = "telemetry".to_owned();
        assert!(wrong_kind.validate().is_err());

        let mut torn_total = good.clone();
        torn_total.aggregate.e1_total.record(true);
        assert!(torn_total.validate().is_err());

        let mut stale_cells = good.clone();
        stale_cells.cells[0].detected += 1;
        assert!(stale_cells.validate().is_err());

        let mut bad_recomposition = good;
        if let Some(r) = &mut bad_recomposition.recomposition {
            r.p_detect_recomposed += 0.5;
        }
        assert!(bad_recomposition.validate().is_err());
    }

    #[test]
    fn render_names_every_cell() {
        let coverage = sample_aggregate().coverage("unit", DEFAULT_DELTA);
        let rendered = render_coverage(&coverage);
        for label in ["E1 total", "E2 RAM", "E2 stack", "E2 total"] {
            assert!(rendered.contains(label), "missing {label}:\n{rendered}");
        }
        assert!(rendered.contains("Pdetect"));
    }
}
