//! Assertion-level attribution: a per-trial event stream that
//! empirically decomposes the Section 2.4 coverage algebra
//! `Pdetect = (Pen·Pprop + Pem)·Pds`.
//!
//! Every completed ⟨error, test case⟩ trial yields one
//! [`AttributionEvent`] — the full detection story: which assertion
//! fired first, the Table 4 signal class and node of the directly
//! responsible assertion, detection time versus (optionally) the
//! differential oracle's first-divergence time, and for undetected
//! trials a masked/silent/reached propagation verdict. Events fold
//! into an [`AttributionAggregate`] whose merge is associative and
//! permutation-invariant — the same algebra as
//! [`crate::telemetry::TelemetrySnapshot`] — so worker completion
//! order, `--resume`, and the fleet's worker fan-in cannot change the
//! result.
//!
//! Attribution is observation-only and zero-cost when disabled: the
//! cheap event fields are a *pure function* of ⟨error, case, trial⟩,
//! derived by the campaign collector after the trial has already been
//! recorded. The same purity means
//! [`aggregate_journal`] can rebuild the whole aggregate from any
//! trial journal after the fact; only the oracle enrichment
//! ([`enrich_event`]) adds information, and that is persisted as
//! attribution lines in the journal so it survives `--resume`.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

use arrestor::{EaId, SignalMap};
use ea_core::coverage::CoverageModel;
use ea_core::stats::{LatencyStats, Proportion, Z_95};
use memsim::{BitFlip, Region};
use serde::{Deserialize, Serialize};

use crate::error_set::{E1Error, E2Error};
use crate::experiment::Trial;
use crate::journal::{CampaignKind, Journal, JournalError, PaperError};
use crate::results::{E1Report, E2Report};
use crate::telemetry::RunMetadata;

/// Schema version written into every attribution report.
pub const SCHEMA_VERSION: u32 = 1;

/// Artefact discriminator of [`AttributionReport::kind`].
pub const REPORT_KIND: &str = "assertion-attribution";

/// [`AttributionEvent::region`] value for application-RAM flips.
pub const REGION_APP_RAM: &str = "app-ram";
/// [`AttributionEvent::region`] value for stack flips.
pub const REGION_STACK: &str = "stack";

/// Oracle verdict: the error never left its flip site (no divergence).
pub const PROPAGATION_MASKED: &str = "masked";
/// Oracle verdict: the error diverged the system without ever touching
/// a monitored signal.
pub const PROPAGATION_SILENT: &str = "silent";
/// Oracle verdict: the error propagated into a monitored signal.
pub const PROPAGATION_REACHED: &str = "reached";

/// The Table 4 class abbreviation of the signal monitored by `ea`,
/// read off the live assertion parameters (e.g. `Co/Ra` for EA1).
pub fn class_label(ea: EaId) -> String {
    use arrestor::instrument as params;
    match ea {
        EaId::Ea1 => params::ea1_set_value().classify().to_string(),
        EaId::Ea2 => params::ea2_is_value().classify().to_string(),
        EaId::Ea3 => params::ea3_checkpoint().classify().to_string(),
        EaId::Ea4 => params::ea4_pulscnt().classify().to_string(),
        EaId::Ea5 => params::ea5_slot().classify().to_string(),
        EaId::Ea6 => params::ea6_mscnt().classify().to_string(),
        EaId::Ea7 => params::ea7_out_value().classify().to_string(),
    }
}

/// Maps flip addresses onto the monitored signals, for classifying E2
/// errors as monitored-signal hits (`Pem` events) versus unmonitored
/// RAM (`Pen·Pprop` events). Built once per campaign from the live
/// memory map, exactly like [`crate::error_set::e1`] reads it.
#[derive(Debug, Clone)]
pub struct MonitoredMap {
    addrs: [usize; 7],
}

impl Default for MonitoredMap {
    fn default() -> Self {
        Self::new()
    }
}

impl MonitoredMap {
    /// Reads the monitored-signal addresses off the target's RAM map.
    pub fn new() -> Self {
        let monitored = SignalMap::allocate()
            .expect("the image fits the paper RAM")
            .monitored();
        MonitoredMap {
            addrs: monitored.map(|(_, addr)| addr),
        }
    }

    /// The assertion directly monitoring the flipped location, when the
    /// flip lands inside one of the seven 16-bit monitored signals.
    pub fn monitored_ea(&self, flip: BitFlip) -> Option<EaId> {
        if flip.region != Region::AppRam {
            return None;
        }
        self.addrs
            .iter()
            .position(|&addr| (addr..addr + 2).contains(&flip.addr))
            .and_then(EaId::from_index)
    }
}

/// The first-firing assertion: index and absolute firing time, ties
/// broken towards the lowest EA index (deterministic).
fn first_firing(per_ea_first_ms: &[Option<u64>; 7]) -> Option<(usize, u64)> {
    let mut best: Option<(usize, u64)> = None;
    for (k, t) in per_ea_first_ms.iter().enumerate() {
        if let Some(t) = *t {
            if best.is_none_or(|(_, bt)| t < bt) {
                best = Some((k, t));
            }
        }
    }
    best
}

/// One trial's full detection story.
///
/// All fields except the two oracle ones are a pure function of
/// ⟨error, case index, trial⟩, so the event can always be re-derived
/// from a [`crate::journal::TrialRecord`]. The oracle fields are only
/// filled by [`enrich_event`] (a traced re-run) and travel in the
/// journal as attribution lines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributionEvent {
    /// Which campaign the trial belongs to.
    pub campaign: CampaignKind,
    /// The paper's 1-based error number.
    pub error_number: usize,
    /// Index into the protocol's test-case grid.
    pub case_index: usize,
    /// Index (0-based) of the assertion directly monitoring the
    /// corrupted location: always present for E1, present for E2 only
    /// when the flip lands inside a monitored signal's two bytes.
    pub target_ea: Option<usize>,
    /// The corrupted monitored signal's name, when [`Self::target_ea`]
    /// is set.
    pub signal: Option<String>,
    /// Table 4 class abbreviation of that signal (`Co/Ra`, …).
    pub class: Option<String>,
    /// Node/test location of the directly responsible assertion.
    pub node: Option<String>,
    /// Memory region of the flip ([`REGION_APP_RAM`]/[`REGION_STACK`]).
    pub region: String,
    /// First firing time of every assertion, ms (the trial's log).
    pub per_ea_first_ms: [Option<u64>; 7],
    /// Index of the first-firing assertion, ties to the lowest index.
    pub first_firing_ea: Option<usize>,
    /// Absolute time of the first detection, ms.
    pub detection_ms: Option<u64>,
    /// Absolute time of the first injection, ms.
    pub first_injection_ms: u64,
    /// Whether the arrestment failed.
    pub failed: bool,
    /// Oracle: first divergence from the fault-free reference, ms.
    pub first_divergence_ms: Option<u64>,
    /// Oracle verdict ([`PROPAGATION_MASKED`]/[`PROPAGATION_SILENT`]/
    /// [`PROPAGATION_REACHED`]); `None` until enriched.
    pub propagation: Option<String>,
}

impl AttributionEvent {
    /// The event for one completed E1 trial.
    pub fn for_e1(error: &E1Error, case_index: usize, trial: &Trial) -> Self {
        Self::build(
            CampaignKind::E1,
            error.number,
            case_index,
            Some(error.ea),
            REGION_APP_RAM,
            trial,
        )
    }

    /// The event for one completed E2 trial.
    pub fn for_e2(error: &E2Error, case_index: usize, trial: &Trial, map: &MonitoredMap) -> Self {
        let region = match error.flip.region {
            Region::AppRam => REGION_APP_RAM,
            Region::Stack => REGION_STACK,
        };
        Self::build(
            CampaignKind::E2,
            error.number,
            case_index,
            map.monitored_ea(error.flip),
            region,
            trial,
        )
    }

    fn build(
        campaign: CampaignKind,
        error_number: usize,
        case_index: usize,
        target: Option<EaId>,
        region: &str,
        trial: &Trial,
    ) -> Self {
        let first = first_firing(&trial.per_ea_first_ms);
        AttributionEvent {
            campaign,
            error_number,
            case_index,
            target_ea: target.map(EaId::index),
            signal: target.map(|ea| ea.signal_name().to_owned()),
            class: target.map(class_label),
            node: target.map(|ea| ea.test_location().to_owned()),
            region: region.to_owned(),
            per_ea_first_ms: trial.per_ea_first_ms,
            first_firing_ea: first.map(|(k, _)| k),
            detection_ms: first.map(|(_, t)| t),
            first_injection_ms: trial.first_injection_ms,
            failed: trial.failed,
            first_divergence_ms: None,
            propagation: None,
        }
    }

    /// The deduplication key — same key space as trial records.
    pub fn key(&self) -> (CampaignKind, usize, usize) {
        (self.campaign, self.error_number, self.case_index)
    }

    /// Whether the differential oracle has filled either oracle field.
    /// Only enriched events carry information a journal's trials do not.
    pub fn enriched(&self) -> bool {
        self.propagation.is_some() || self.first_divergence_ms.is_some()
    }

    /// Whether any assertion fired.
    pub fn detected(&self) -> bool {
        self.first_firing_ea.is_some()
    }

    /// First injection → first detection, ms.
    pub fn latency_ms(&self) -> Option<u64> {
        self.detection_ms
            .map(|t| t.saturating_sub(self.first_injection_ms))
    }
}

/// Per-assertion league-table entry across every attributed trial.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AssertionStats {
    /// Trials in which this assertion fired at least once.
    pub firings: u64,
    /// Trials in which it fired *first* (ties to the lowest EA index).
    pub first_firings: u64,
    /// First-fire latency (injection → this assertion's first firing)
    /// over every trial where it fired.
    pub latency: LatencyStats,
}

impl AssertionStats {
    fn merge(&mut self, other: &AssertionStats) {
        self.firings += other.firings;
        self.first_firings += other.first_firings;
        self.latency.merge(other.latency);
    }
}

/// Per-signal `Pds` evidence: E1 errors placed in this signal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SignalAttribution {
    /// Detection proportion (all mechanisms) — the signal's `Pds`.
    pub detected: Proportion,
    /// Detection latency over this signal's detected trials.
    pub latency: LatencyStats,
}

impl SignalAttribution {
    fn merge(&mut self, other: &SignalAttribution) {
        self.detected.merge(other.detected);
        self.latency.merge(other.latency);
    }
}

/// Differential-oracle evidence folded out of enriched events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OracleStats {
    /// Events carrying an oracle verdict.
    pub enriched: u64,
    /// Undetected trials whose error never diverged the system.
    pub masked: u64,
    /// Undetected trials that diverged without touching a monitored
    /// signal (silent propagation).
    pub silent: u64,
    /// Undetected trials whose divergence reached a monitored signal.
    pub reached_undetected: u64,
    /// First divergence → first detection over enriched detected trials.
    pub divergence_to_detection: LatencyStats,
    /// Empirical `Pprop`: of the enriched unmonitored-RAM E2 trials,
    /// the fraction whose error propagated into a monitored signal.
    pub p_prop: Proportion,
}

impl OracleStats {
    fn merge(&mut self, other: &OracleStats) {
        self.enriched += other.enriched;
        self.masked += other.masked;
        self.silent += other.silent;
        self.reached_undetected += other.reached_undetected;
        self.divergence_to_detection
            .merge(other.divergence_to_detection);
        self.p_prop.merge(other.p_prop);
    }
}

/// The event stream folded down: every counter adds, every proportion
/// and latency merges — associative, commutative, and therefore
/// invariant under worker count, completion order, resume points and
/// fleet slices (pinned by `prop_attribution`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AttributionAggregate {
    /// E1 events folded in.
    pub e1_trials: u64,
    /// E2 events folded in.
    pub e2_trials: u64,
    /// Per-signal `Pds` evidence, Table 6 row order.
    pub per_signal: [SignalAttribution; 7],
    /// Per-assertion league table (both campaigns).
    pub assertions: [AssertionStats; 7],
    /// E2 flips that landed inside a monitored signal (`Pem` events).
    pub e2_monitored: Proportion,
    /// E2 flips elsewhere in application RAM (`Pen·Pprop` events).
    pub e2_unmonitored_ram: Proportion,
    /// E2 stack flips (outside the RAM algebra).
    pub e2_stack: Proportion,
    /// Differential-oracle enrichment totals.
    pub oracle: OracleStats,
}

impl AttributionAggregate {
    /// An empty aggregate (the merge identity).
    pub fn new() -> Self {
        AttributionAggregate::default()
    }

    /// Folds one event in.
    pub fn record(&mut self, event: &AttributionEvent) {
        match event.campaign {
            CampaignKind::E1 => {
                self.e1_trials += 1;
                if let Some(k) = event.target_ea {
                    let row = &mut self.per_signal[k];
                    row.detected.record(event.detected());
                    if let Some(latency) = event.latency_ms() {
                        row.latency.record(latency);
                    }
                }
            }
            CampaignKind::E2 => {
                self.e2_trials += 1;
                let cell = if event.region == REGION_STACK {
                    &mut self.e2_stack
                } else if event.target_ea.is_some() {
                    &mut self.e2_monitored
                } else {
                    &mut self.e2_unmonitored_ram
                };
                cell.record(event.detected());
            }
        }
        for (k, t) in event.per_ea_first_ms.iter().enumerate() {
            if let Some(t) = *t {
                let stats = &mut self.assertions[k];
                stats.firings += 1;
                stats
                    .latency
                    .record(t.saturating_sub(event.first_injection_ms));
            }
        }
        if let Some(k) = event.first_firing_ea {
            self.assertions[k].first_firings += 1;
        }
        if let Some(verdict) = event.propagation.as_deref() {
            self.oracle.enriched += 1;
            if !event.detected() {
                match verdict {
                    PROPAGATION_MASKED => self.oracle.masked += 1,
                    PROPAGATION_SILENT => self.oracle.silent += 1,
                    _ => self.oracle.reached_undetected += 1,
                }
            }
            if event.campaign == CampaignKind::E2
                && event.region == REGION_APP_RAM
                && event.target_ea.is_none()
            {
                self.oracle
                    .p_prop
                    .record(event.detected() || verdict == PROPAGATION_REACHED);
            }
        }
        if let (Some(diverged), Some(detected)) = (event.first_divergence_ms, event.detection_ms) {
            self.oracle
                .divergence_to_detection
                .record(detected.saturating_sub(diverged));
        }
    }

    /// Merges another aggregate.
    pub fn merge(&mut self, other: &AttributionAggregate) {
        self.e1_trials += other.e1_trials;
        self.e2_trials += other.e2_trials;
        for (mine, theirs) in self.per_signal.iter_mut().zip(&other.per_signal) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.assertions.iter_mut().zip(&other.assertions) {
            mine.merge(theirs);
        }
        self.e2_monitored.merge(other.e2_monitored);
        self.e2_unmonitored_ram.merge(other.e2_unmonitored_ram);
        self.e2_stack.merge(other.e2_stack);
        self.oracle.merge(&other.oracle);
    }

    /// The E1 Total-row proportion (all signals merged) — `Pds`.
    pub fn e1_totals(&self) -> Proportion {
        let mut total = Proportion::default();
        for row in &self.per_signal {
            total.merge(row.detected);
        }
        total
    }

    /// The E2 application-RAM proportion (monitored + unmonitored) —
    /// the measured `Pdetect`.
    pub fn e2_ram(&self) -> Proportion {
        let mut ram = self.e2_monitored;
        ram.merge(self.e2_unmonitored_ram);
        ram
    }

    /// All E2 trials (RAM + stack).
    pub fn e2_total(&self) -> Proportion {
        let mut total = self.e2_ram();
        total.merge(self.e2_stack);
        total
    }
}

/// The Section 2.4 quantities estimated from an aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decomposition {
    /// `Pem`: exact, from the memory map (monitored bytes / app RAM).
    pub p_em: f64,
    /// `Pen = 1 − Pem`.
    pub p_en: f64,
    /// Per-signal `Pds` estimates, Table 6 row order.
    pub p_ds_per_signal: [Option<f64>; 7],
    /// `Pds`: E1 total detection proportion.
    pub p_ds: Option<f64>,
    /// Measured `Pdetect` over E2's application-RAM portion.
    pub p_detect_ram: Option<f64>,
    /// Measured detection proportion over E2's stack portion.
    pub p_detect_stack: Option<f64>,
    /// `Pprop` solved from the algebra (`None` when the measurements
    /// are inconsistent with it).
    pub p_prop_inferred: Option<f64>,
    /// `Pprop` measured directly by the differential oracle over
    /// enriched unmonitored-RAM trials (`None` without enrichment).
    pub p_prop_empirical: Option<f64>,
    /// `(Pen·Pprop + Pem)·Pds` with the empirical `Pprop` when
    /// available, the inferred one otherwise; when the inversion has no
    /// solution in `[0, 1]`, the clamped endpoint (the closest
    /// attainable recomposition) is used.
    pub p_detect_recomposed: Option<f64>,
}

impl Decomposition {
    /// Computes every estimable quantity from `aggregate`.
    pub fn from_aggregate(aggregate: &AttributionAggregate) -> Self {
        let p_em = crate::coverage_report::p_em_from_map();
        let p_en = 1.0 - p_em;
        let mut p_ds_per_signal = [None; 7];
        for (slot, row) in aggregate.per_signal.iter().enumerate() {
            p_ds_per_signal[slot] = row.detected.estimate();
        }
        let p_ds = aggregate.e1_totals().estimate();
        let p_detect_ram = aggregate.e2_ram().estimate();
        let p_detect_stack = aggregate.e2_stack.estimate();
        let p_prop_inferred = match (p_ds, p_detect_ram) {
            // Pprop = 0.5 is a dummy for the inversion call, exactly as
            // in `coverage_report::analyse`.
            (Some(ds), Some(pd)) => CoverageModel::new(p_em, 0.5, ds)
                .ok()
                .and_then(|model| model.infer_p_prop(pd)),
            _ => None,
        };
        let p_prop_empirical = aggregate.oracle.p_prop.estimate();
        // Recomposition uses, in order: the oracle's empirical Pprop,
        // the exact inferred solution, or — when the inversion lands
        // outside [0, 1] (sampling noise around a true Pprop of 0 or
        // 1) — the clamped endpoint. Recomposed Pdetect is monotone in
        // Pprop, so the clamped endpoint is the closest attainable
        // recomposition and `check_algebra` still tests something real:
        // whether even that point stays inside the measured interval.
        let p_prop_clamped = match (p_ds, p_detect_ram) {
            (Some(ds), Some(pd)) if ds > 0.0 && p_en > 0.0 => {
                Some(((pd / ds - p_em) / p_en).clamp(0.0, 1.0))
            }
            _ => None,
        };
        let p_prop = p_prop_empirical.or(p_prop_inferred).or(p_prop_clamped);
        let p_detect_recomposed = match (p_ds, p_prop) {
            (Some(ds), Some(prop)) => Some((p_en * prop + p_em) * ds),
            _ => None,
        };
        Decomposition {
            p_em,
            p_en,
            p_ds_per_signal,
            p_ds,
            p_detect_ram,
            p_detect_stack,
            p_prop_inferred,
            p_prop_empirical,
            p_detect_recomposed,
        }
    }
}

/// The schema-versioned attribution artefact
/// (`results/attribution/*.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributionReport {
    /// [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Artefact discriminator, always [`REPORT_KIND`].
    pub kind: String,
    /// Which binary produced the report.
    pub producer: String,
    /// Run attribution (same metadata as telemetry reports).
    pub run: RunMetadata,
    /// The folded event stream.
    pub aggregate: AttributionAggregate,
    /// The coverage algebra estimated from the aggregate.
    pub decomposition: Decomposition,
}

impl AttributionReport {
    /// Assembles a report (the decomposition is derived on the spot).
    pub fn assemble(producer: &str, run: RunMetadata, aggregate: AttributionAggregate) -> Self {
        let decomposition = Decomposition::from_aggregate(&aggregate);
        AttributionReport {
            schema_version: SCHEMA_VERSION,
            kind: REPORT_KIND.to_owned(),
            producer: producer.to_owned(),
            run,
            aggregate,
            decomposition,
        }
    }

    /// Structural validation: version, discriminator, count
    /// conservation laws, and decomposition consistency (used by
    /// `telemetry_check --attribution` and CI).
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
        let agg = &self.aggregate;
        let e1_totals = agg.e1_totals();
        if e1_totals.total() != agg.e1_trials {
            return Err(format!(
                "per-signal totals sum to {} but e1_trials = {}",
                e1_totals.total(),
                agg.e1_trials
            ));
        }
        let e2_totals = agg.e2_total();
        if e2_totals.total() != agg.e2_trials {
            return Err(format!(
                "E2 region totals sum to {} but e2_trials = {}",
                e2_totals.total(),
                agg.e2_trials
            ));
        }
        let detected = e1_totals.detected() + e2_totals.detected();
        let first_firings: u64 = agg.assertions.iter().map(|a| a.first_firings).sum();
        if first_firings != detected {
            return Err(format!(
                "{first_firings} first firings for {detected} detected trials"
            ));
        }
        for (k, stats) in agg.assertions.iter().enumerate() {
            if stats.first_firings > stats.firings {
                return Err(format!(
                    "EA{}: {} first firings exceed {} firings",
                    k + 1,
                    stats.first_firings,
                    stats.firings
                ));
            }
            if stats.latency.count() != stats.firings {
                return Err(format!(
                    "EA{}: {} latencies for {} firings",
                    k + 1,
                    stats.latency.count(),
                    stats.firings
                ));
            }
        }
        let oracle = &agg.oracle;
        if oracle.masked + oracle.silent + oracle.reached_undetected > oracle.enriched {
            return Err("oracle verdict counts exceed enriched events".to_owned());
        }
        if oracle.p_prop.total() > oracle.enriched {
            return Err("Pprop sample larger than enriched event count".to_owned());
        }
        let expected = Decomposition::from_aggregate(agg);
        let close = |a: Option<f64>, b: Option<f64>| match (a, b) {
            (None, None) => true,
            (Some(x), Some(y)) => (x - y).abs() <= 1e-9,
            _ => false,
        };
        let d = &self.decomposition;
        if !close(Some(d.p_em), Some(expected.p_em))
            || !close(Some(d.p_en), Some(expected.p_en))
            || !close(d.p_ds, expected.p_ds)
            || !close(d.p_detect_ram, expected.p_detect_ram)
            || !close(d.p_detect_stack, expected.p_detect_stack)
            || !close(d.p_prop_inferred, expected.p_prop_inferred)
            || !close(d.p_prop_empirical, expected.p_prop_empirical)
            || !close(d.p_detect_recomposed, expected.p_detect_recomposed)
            || d.p_ds_per_signal
                .iter()
                .zip(&expected.p_ds_per_signal)
                .any(|(a, b)| !close(*a, *b))
        {
            return Err("decomposition does not follow from the aggregate".to_owned());
        }
        Ok(())
    }
}

/// Writes `report` as pretty JSON to `dir/<label>.json`, creating the
/// directory.
///
/// # Errors
///
/// Any filesystem failure.
pub fn write_report(dir: &Path, label: &str, report: &AttributionReport) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{label}.json"));
    let json = serde_json::to_string_pretty(report).expect("report serialises");
    std::fs::write(&path, format!("{json}\n"))?;
    Ok(path)
}

/// Cross-checks the recomposed `Pdetect` against the measured E2 RAM
/// proportion: the recomposition must land inside the measurement's
/// Wilson 95 % interval. With the *inferred* `Pprop` the two agree by
/// construction; with a *clamped* `Pprop` (inversion outside `[0, 1]`)
/// this tests whether any valid `Pprop` recomposes into the interval;
/// with the *empirical* `Pprop` it genuinely tests the algebra against
/// independent oracle evidence.
///
/// # Errors
///
/// A description of the violation (unidentifiable `Pprop`, or a
/// recomposition outside the interval).
pub fn check_algebra(aggregate: &AttributionAggregate) -> Result<(), String> {
    let decomposition = Decomposition::from_aggregate(aggregate);
    let ram = aggregate.e2_ram();
    if ram.is_empty() || decomposition.p_ds.is_none() {
        return Ok(()); // nothing to cross-check yet
    }
    let Some(recomposed) = decomposition.p_detect_recomposed else {
        return Err(
            "Pprop is unidentifiable (Pds or Pen is zero); nothing to recompose".to_owned(),
        );
    };
    let (lo, hi) = ram.interval_wilson(Z_95).expect("non-empty proportion");
    if recomposed < lo - 1e-12 || recomposed > hi + 1e-12 {
        return Err(format!(
            "recomposed Pdetect {recomposed:.4} outside the measured E2 RAM \
             Wilson interval [{lo:.4}, {hi:.4}]"
        ));
    }
    Ok(())
}

/// Cross-checks the aggregate against golden Tables 7–9 reports: every
/// per-signal `Pds`, the E1 total, and the E2 region proportions must
/// be Wilson-equivalent to the goldens, and the recomposed `Pdetect`
/// must land inside the golden E2 RAM interval. Returns every failure
/// (empty = pass).
pub fn check_against_golden(
    aggregate: &AttributionAggregate,
    golden_e1: &E1Report,
    golden_e2: &E2Report,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut check = |label: &str, mine: Proportion, golden: Proportion| {
        if !mine.equivalent(&golden, Z_95) {
            failures.push(format!(
                "{label}: {}/{} vs golden {}/{} (Wilson 95% intervals disjoint)",
                mine.detected(),
                mine.total(),
                golden.detected(),
                golden.total()
            ));
        }
    };
    for (k, row) in aggregate.per_signal.iter().enumerate() {
        check(
            &format!("Table 7 `{}` Pds", E1Report::row_label(k)),
            row.detected,
            golden_e1.rows[k].cells[7].all,
        );
    }
    check(
        "Table 7 total Pds",
        aggregate.e1_totals(),
        golden_e1.totals.cells[7].all,
    );
    check("Table 9 RAM Pdetect", aggregate.e2_ram(), golden_e2.ram.all);
    check(
        "Table 9 stack P(d)",
        aggregate.e2_stack,
        golden_e2.stack.all,
    );
    check(
        "Table 9 total Pdetect",
        aggregate.e2_total(),
        golden_e2.total.all,
    );
    let decomposition = Decomposition::from_aggregate(aggregate);
    if let (Some(recomposed), Some((lo, hi))) = (
        decomposition.p_detect_recomposed,
        golden_e2.ram.all.interval_wilson(Z_95),
    ) {
        if recomposed < lo - 1e-12 || recomposed > hi + 1e-12 {
            failures.push(format!(
                "recomposed Pdetect {recomposed:.4} outside the golden E2 RAM \
                 Wilson interval [{lo:.4}, {hi:.4}]"
            ));
        }
    }
    failures
}

/// The differential-oracle verdicts persisted in a journal's
/// attribution lines, by trial key. The first *enriched* line per key
/// wins; un-enriched lines (which older campaigns journaled for every
/// trial) carry nothing the trials do not, so they are skipped.
#[derive(Debug, Default)]
pub struct OracleVerdicts {
    by_key: HashMap<(CampaignKind, usize, usize), AttributionEvent>,
}

impl OracleVerdicts {
    /// Collects the verdicts of `journal`'s attribution lines.
    pub fn from_journal(journal: &Journal) -> Self {
        let mut by_key = HashMap::new();
        for event in journal.attribution.iter().filter(|e| e.enriched()) {
            by_key.entry(event.key()).or_insert_with(|| event.clone());
        }
        OracleVerdicts { by_key }
    }

    /// Copies the persisted verdict for `event`'s key, if any, onto it.
    pub fn overlay(&self, event: &mut AttributionEvent) {
        if let Some(verdict) = self.by_key.get(&event.key()) {
            event.first_divergence_ms = verdict.first_divergence_ms;
            event.propagation.clone_from(&verdict.propagation);
        }
    }
}

/// Re-derives the deduplicated event stream from a journal: the cheap
/// fields from the trials of [`Journal::walk`], the oracle fields
/// overlaid from its persisted verdicts ([`OracleVerdicts`]).
///
/// # Errors
///
/// Same conditions as [`Journal::walk`].
pub fn events_from_journal(journal: &Journal) -> Result<Vec<AttributionEvent>, JournalError> {
    let map = MonitoredMap::new();
    let verdicts = OracleVerdicts::from_journal(journal);
    let mut events = Vec::new();
    journal.walk(|record, error| {
        let mut event = match error {
            PaperError::E1(error) => {
                AttributionEvent::for_e1(error, record.case_index, &record.trial)
            }
            PaperError::E2(error) => {
                AttributionEvent::for_e2(error, record.case_index, &record.trial, &map)
            }
        };
        verdicts.overlay(&mut event);
        events.push(event);
    })?;
    Ok(events)
}

/// Rebuilds the full aggregate from a journal — the entry point of
/// `attribution_report` and of `full_campaign --from-journal`.
///
/// # Errors
///
/// Same conditions as [`events_from_journal`].
pub fn aggregate_journal(journal: &Journal) -> Result<AttributionAggregate, JournalError> {
    let mut aggregate = AttributionAggregate::new();
    for event in events_from_journal(journal)? {
        aggregate.record(&event);
    }
    Ok(aggregate)
}

/// Runs the differential oracle for one event's trial: re-executes the
/// trial traced, diffs it against the cached fault-free reference, and
/// fills [`AttributionEvent::first_divergence_ms`] and
/// [`AttributionEvent::propagation`]. Expensive (a full traced window)
/// — callers sample.
pub fn enrich_event(
    event: &mut AttributionEvent,
    flip: BitFlip,
    reference: &crate::trace::ReferenceCache,
) -> bool {
    let protocol = reference.protocol().clone();
    let cases = protocol.grid.cases();
    let Some(case) = cases.get(event.case_index).copied() else {
        return false;
    };
    let (_, trace) = crate::experiment::run_trial_traced(&protocol, flip, case);
    let diff = crate::trace::diff(&reference.get(case), &trace);
    event.first_divergence_ms = diff.first_divergence_ms();
    let reached = event.detected()
        || (0..7)
            .filter_map(EaId::from_index)
            .any(|ea| diff.reaches(ea.signal_name()));
    event.propagation = Some(
        if !diff.diverged() {
            PROPAGATION_MASKED
        } else if reached {
            PROPAGATION_REACHED
        } else {
            PROPAGATION_SILENT
        }
        .to_owned(),
    );
    true
}

/// Renders the per-assertion firing/latency league table.
pub fn render_league(aggregate: &AttributionAggregate) -> String {
    let mut out = String::from("assertion attribution league (first-firing order)\n");
    out.push_str(&format!(
        "{:<4} {:<12} {:<9} {:<7} {:>7} {:>7}  latency ms (min/avg/max)\n",
        "EA", "signal", "class", "node", "fired", "first"
    ));
    let mut order: Vec<usize> = (0..7).collect();
    order.sort_by_key(|&k| std::cmp::Reverse(aggregate.assertions[k].first_firings));
    for k in order {
        let ea = EaId::from_index(k).expect("seven assertions");
        let stats = &aggregate.assertions[k];
        let latency = match (
            stats.latency.min(),
            stats.latency.average(),
            stats.latency.max(),
        ) {
            (Some(min), Some(avg), Some(max)) => format!("{min}/{avg:.1}/{max}"),
            _ => "-".to_owned(),
        };
        out.push_str(&format!(
            "{:<4} {:<12} {:<9} {:<7} {:>7} {:>7}  {latency}\n",
            ea.to_string(),
            ea.signal_name(),
            class_label(ea),
            ea.test_location(),
            stats.firings,
            stats.first_firings,
        ));
    }
    out
}

/// Renders the coverage decomposition as explanatory text.
pub fn render_decomposition(decomposition: &Decomposition) -> String {
    let fmt = |v: Option<f64>| v.map_or_else(|| "n/a".to_owned(), |p| format!("{p:.4}"));
    let mut out = String::from("coverage decomposition: Pdetect = (Pen*Pprop + Pem)*Pds\n");
    out.push_str(&format!(
        "  Pem = {:.4}  Pen = {:.4}  (exact, from the memory map)\n",
        decomposition.p_em, decomposition.p_en
    ));
    for (k, p_ds) in decomposition.p_ds_per_signal.iter().enumerate() {
        out.push_str(&format!(
            "  Pds[{:<12}] = {}\n",
            E1Report::row_label(k),
            fmt(*p_ds)
        ));
    }
    out.push_str(&format!(
        "  Pds (total)        = {}\n",
        fmt(decomposition.p_ds)
    ));
    out.push_str(&format!(
        "  Pdetect (E2 RAM)   = {}   Pdetect (stack) = {}\n",
        fmt(decomposition.p_detect_ram),
        fmt(decomposition.p_detect_stack)
    ));
    out.push_str(&format!(
        "  Pprop inferred     = {}   Pprop empirical = {}\n",
        fmt(decomposition.p_prop_inferred),
        fmt(decomposition.p_prop_empirical)
    ));
    out.push_str(&format!(
        "  Pdetect recomposed = {}\n",
        fmt(decomposition.p_detect_recomposed)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_set;

    fn trial(per_ea: [Option<u64>; 7], failed: bool) -> Trial {
        Trial {
            failed,
            per_ea_first_ms: per_ea,
            first_injection_ms: 20,
            final_distance_m: 200.0,
        }
    }

    #[test]
    fn e1_event_carries_signal_class_and_node() {
        let errors = error_set::e1();
        let mscnt = &errors[80]; // S81: mscnt bit 0 (EA6)
        let mut per_ea = [None; 7];
        per_ea[5] = Some(140);
        let event = AttributionEvent::for_e1(mscnt, 3, &trial(per_ea, false));
        assert_eq!(event.campaign, CampaignKind::E1);
        assert_eq!(event.target_ea, Some(5));
        assert_eq!(event.signal.as_deref(), Some("mscnt"));
        assert_eq!(event.node.as_deref(), Some("CLOCK"));
        assert_eq!(
            event.class.as_deref(),
            Some(class_label(EaId::Ea6).as_str())
        );
        assert_eq!(event.first_firing_ea, Some(5));
        assert_eq!(event.detection_ms, Some(140));
        assert_eq!(event.latency_ms(), Some(120));
        assert_eq!(event.region, REGION_APP_RAM);
    }

    #[test]
    fn first_firing_breaks_ties_towards_lowest_index() {
        let per_ea = [None, Some(80), None, Some(80), None, None, Some(50)];
        assert_eq!(first_firing(&per_ea), Some((6, 50)));
        let tie = [None, Some(80), None, Some(80), None, None, None];
        assert_eq!(first_firing(&tie), Some((1, 80)));
        assert_eq!(first_firing(&[None; 7]), None);
    }

    #[test]
    fn monitored_map_classifies_e2_flips() {
        let map = MonitoredMap::new();
        let errors = error_set::e1();
        // Every E1 flip is by construction inside a monitored signal.
        for error in &errors {
            assert_eq!(
                map.monitored_ea(error.flip),
                Some(error.ea),
                "S{}",
                error.number
            );
        }
        // A stack flip never is.
        assert_eq!(map.monitored_ea(BitFlip::new(Region::Stack, 0, 0)), None);
    }

    #[test]
    fn aggregate_merge_equals_combined_fold() {
        let errors = error_set::e1();
        let e2_errors = error_set::e2();
        let map = MonitoredMap::new();
        let mut detected = [None; 7];
        detected[0] = Some(60);
        let events = vec![
            AttributionEvent::for_e1(&errors[0], 0, &trial(detected, false)),
            AttributionEvent::for_e1(&errors[20], 1, &trial([None; 7], true)),
            AttributionEvent::for_e2(&e2_errors[0], 0, &trial([None; 7], false), &map),
            AttributionEvent::for_e2(&e2_errors[199], 2, &trial(detected, true), &map),
        ];
        let mut whole = AttributionAggregate::new();
        for e in &events {
            whole.record(e);
        }
        let mut left = AttributionAggregate::new();
        left.record(&events[0]);
        left.record(&events[1]);
        let mut right = AttributionAggregate::new();
        right.record(&events[2]);
        right.record(&events[3]);
        let mut merged = AttributionAggregate::new();
        merged.merge(&left);
        merged.merge(&right);
        assert_eq!(merged, whole);
        assert_eq!(whole.e1_trials, 2);
        assert_eq!(whole.e2_trials, 2);
        assert_eq!(whole.e2_stack.total(), 1);
    }

    #[test]
    fn oracle_enrichment_routes_verdicts() {
        let e2_errors = error_set::e2();
        let map = MonitoredMap::new();
        // An unmonitored-RAM error (pick one that misses every signal).
        let unmonitored = e2_errors
            .iter()
            .find(|e| e.flip.region == Region::AppRam && map.monitored_ea(e.flip).is_none())
            .expect("most of RAM is unmonitored");
        let mut event = AttributionEvent::for_e2(unmonitored, 0, &trial([None; 7], false), &map);
        event.propagation = Some(PROPAGATION_SILENT.to_owned());
        event.first_divergence_ms = Some(40);
        let mut agg = AttributionAggregate::new();
        agg.record(&event);
        assert_eq!(agg.oracle.enriched, 1);
        assert_eq!(agg.oracle.silent, 1);
        assert_eq!(agg.oracle.p_prop.total(), 1);
        assert_eq!(agg.oracle.p_prop.detected(), 0);
    }

    #[test]
    fn report_validates_and_rejects_tampering() {
        let errors = error_set::e1();
        let mut detected = [None; 7];
        detected[0] = Some(60);
        let mut aggregate = AttributionAggregate::new();
        aggregate.record(&AttributionEvent::for_e1(
            &errors[0],
            0,
            &trial(detected, false),
        ));
        let run = RunMetadata::for_run(&crate::Protocol::scaled(1, 1_000), true, None);
        let report = AttributionReport::assemble("test", run, aggregate);
        report.validate().expect("fresh report is valid");

        let mut tampered = report.clone();
        tampered.aggregate.e1_trials += 1;
        assert!(tampered.validate().is_err());

        let mut wrong_kind = report.clone();
        wrong_kind.kind = "telemetry".to_owned();
        assert!(wrong_kind.validate().is_err());

        let mut wrong_decomposition = report;
        wrong_decomposition.decomposition.p_ds = Some(0.123);
        assert!(wrong_decomposition.validate().is_err());
    }

    #[test]
    fn algebra_check_accepts_inferred_recomposition() {
        let errors = error_set::e1();
        let e2_errors = error_set::e2();
        let map = MonitoredMap::new();
        let mut detected = [None; 7];
        detected[2] = Some(90);
        let mut aggregate = AttributionAggregate::new();
        for error in errors.iter().take(14) {
            aggregate.record(&AttributionEvent::for_e1(error, 0, &trial(detected, false)));
        }
        for (k, error) in e2_errors.iter().take(8).enumerate() {
            let outcome = if k % 2 == 0 { detected } else { [None; 7] };
            aggregate.record(&AttributionEvent::for_e2(
                error,
                0,
                &trial(outcome, false),
                &map,
            ));
        }
        check_algebra(&aggregate).expect("inferred recomposition is inside its own interval");
    }

    #[test]
    fn algebra_check_clamps_an_out_of_range_inversion() {
        // All E1 trials detected (Pds = 1) but no E2 RAM detections at
        // all: the exact inversion gives Pprop < 0, so recomposition
        // clamps to Pprop = 0 and must still land inside the measured
        // Wilson interval (it does for a small sample around zero).
        let errors = error_set::e1();
        let e2_errors = error_set::e2();
        let map = MonitoredMap::new();
        let mut detected = [None; 7];
        detected[2] = Some(90);
        let mut aggregate = AttributionAggregate::new();
        for error in errors.iter().take(14) {
            aggregate.record(&AttributionEvent::for_e1(error, 0, &trial(detected, false)));
        }
        for error in e2_errors.iter().take(8) {
            aggregate.record(&AttributionEvent::for_e2(
                error,
                0,
                &trial([None; 7], false),
                &map,
            ));
        }
        let decomposition = Decomposition::from_aggregate(&aggregate);
        assert_eq!(decomposition.p_prop_inferred, None);
        let recomposed = decomposition
            .p_detect_recomposed
            .expect("clamped recomposition exists");
        assert!((recomposed - decomposition.p_em).abs() < 1e-12);
        check_algebra(&aggregate).expect("clamped recomposition is inside the interval");
    }

    #[test]
    fn league_table_lists_all_assertions() {
        let rendered = render_league(&AttributionAggregate::new());
        for k in 0..7 {
            let ea = EaId::from_index(k).unwrap();
            assert!(rendered.contains(ea.signal_name()), "{}", ea.signal_name());
        }
    }
}
