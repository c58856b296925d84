//! Per-assertion cost profiling: what each executable assertion costs.
//!
//! The paper reports *coverage* per mechanism (Tables 7–9) but is
//! silent about *cost* — yet the placement process of §2.3 explicitly
//! trades detection probability against CPU overhead. This module
//! closes that gap with a cost league table per campaign, combining:
//!
//! * **measured check counts** — every [`ea_core::SignalMonitor`]
//!   tallies its executions; [`TrialExecution::ea_checks`] carries the
//!   per-trial tally out of the worker and a [`ProfileRecorder`] folds
//!   it across the campaign (lock-free atomics, same zero-cost
//!   `Option`-handle contract as [`crate::telemetry`]);
//! * **a deterministic op model** — [`ea_core::cost`] charges each
//!   mechanism the comparisons and mask probes one steady-state check
//!   performs, so the league table is stable across hosts;
//! * **an optional wall-clock view** — [`sample_wall_ns`] drives each
//!   mechanism alone with a legal steady-state signal and batch-times
//!   thousands of checks per [`std::time::Instant`] pair. Sampling
//!   happens once at report time, never in the campaign hot loop.
//!
//! The artefact is a schema-versioned [`ProfileReport`] under
//! `results/profile/`, keyed by the same EA identity that
//! [`crate::attribution`] uses — the direct input to `detox_report`,
//! which joins cost × attribution into a Pareto table of assertion
//! subsets.
//!
//! Determinism contract: profiling observes monitors that already ran;
//! it never changes what a trial executes. The differential suite
//! (`tests/profile_equivalence.rs`) pins journals, tables and
//! attribution byte-identical with profiling on and off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use arrestor::{build_detectors, EaId, EaSet};
use ea_core::Params;
use serde::{Deserialize, Serialize};

use crate::experiment::TrialExecution;
pub use crate::results::write_report;
use crate::telemetry::RunMetadata;

/// Schema version stamped into every profile report. Bump on any
/// breaking change to [`ProfileReport`] or [`EaCostRow`].
pub const PROFILE_SCHEMA_VERSION: u32 = 1;

/// Artefact discriminator of a profile report.
pub const PROFILE_KIND: &str = "assertion-cost-profile";

/// Campaign-wide accumulator for per-mechanism check counts.
///
/// Shared by `Arc` between the campaign driver and its workers, like
/// the telemetry [`crate::telemetry::Registry`]. All methods are
/// lock-free; recording order does not matter (pure sums).
#[derive(Debug, Default)]
pub struct ProfileRecorder {
    ea_checks: [AtomicU64; 7],
    trials: AtomicU64,
    pruned: AtomicU64,
}

impl ProfileRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        ProfileRecorder::default()
    }

    /// Folds one executed trial's per-mechanism check counts.
    pub fn record_execution(&self, execution: &TrialExecution) {
        for (slot, &n) in self.ea_checks.iter().zip(execution.ea_checks.iter()) {
            slot.fetch_add(n, Ordering::Relaxed);
        }
        self.trials.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a trial answered from the prune cache: it never executed,
    /// so it contributes no checks — the league table reflects what the
    /// campaign actually ran.
    pub fn record_prune(&self) {
        self.pruned.fetch_add(1, Ordering::Relaxed);
    }

    /// Accumulated per-mechanism check counts in EA1..EA7 order.
    pub fn checks(&self) -> [u64; 7] {
        let mut out = [0u64; 7];
        for (slot, n) in out.iter_mut().zip(self.ea_checks.iter()) {
            *slot = n.load(Ordering::Relaxed);
        }
        out
    }

    /// Executed (non-pruned) trials folded so far.
    pub fn trials(&self) -> u64 {
        self.trials.load(Ordering::Relaxed)
    }

    /// Pruned trials observed so far.
    pub fn pruned_trials(&self) -> u64 {
        self.pruned.load(Ordering::Relaxed)
    }
}

/// One mechanism's row in the cost league table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EaCostRow {
    /// Mechanism name, `EA1`..`EA7` — the same identity attribution
    /// reports use.
    pub ea: String,
    /// The monitored signal (Table 6 pairing).
    pub signal: String,
    /// The module the assertion executes in (Table 4).
    pub location: String,
    /// Checks executed across the campaign.
    pub checks: u64,
    /// Deterministic comparisons per steady-state check.
    pub comparisons_per_check: u32,
    /// Deterministic mask probes per steady-state check.
    pub mask_probes_per_check: u32,
    /// `comparisons_per_check + mask_probes_per_check`.
    pub ops_per_check: u32,
    /// `checks × ops_per_check` — the league-table sort key.
    pub total_ops: u64,
    /// Sampled wall-clock nanoseconds per check, when a wall view was
    /// taken (host-dependent; never part of the deterministic model).
    pub wall_ns_per_check: Option<f64>,
}

/// The end-of-campaign profile artefact (`results/profile/*.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// [`PROFILE_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Always [`PROFILE_KIND`].
    pub kind: String,
    /// Which binary produced the report.
    pub producer: String,
    /// Run attribution (same shape as telemetry reports).
    pub run: RunMetadata,
    /// Executed (non-pruned) trials folded into the counts.
    pub trials: u64,
    /// Trials answered from the prune cache (zero checks contributed).
    pub pruned_trials: u64,
    /// One row per mechanism, EA1..EA7 order.
    pub per_ea: Vec<EaCostRow>,
}

impl ProfileReport {
    /// Assembles a report from a recorder, attaching the deterministic
    /// op model and an optional wall-clock sample.
    pub fn assemble(
        producer: &str,
        run: RunMetadata,
        recorder: &ProfileRecorder,
        wall_ns: Option<[f64; 7]>,
    ) -> Self {
        let checks = recorder.checks();
        let costs = build_detectors(EaSet::ALL).check_costs();
        let per_ea = EaId::ALL
            .iter()
            .map(|&ea| {
                let k = ea.index();
                let cost = costs[k];
                EaCostRow {
                    ea: ea.to_string(),
                    signal: ea.signal_name().to_owned(),
                    location: ea.test_location().to_owned(),
                    checks: checks[k],
                    comparisons_per_check: cost.comparisons,
                    mask_probes_per_check: cost.mask_probes,
                    ops_per_check: cost.total_ops(),
                    total_ops: checks[k] * u64::from(cost.total_ops()),
                    wall_ns_per_check: wall_ns.map(|w| w[k]),
                }
            })
            .collect();
        ProfileReport {
            schema_version: PROFILE_SCHEMA_VERSION,
            kind: PROFILE_KIND.to_owned(),
            producer: producer.to_owned(),
            run,
            trials: recorder.trials(),
            pruned_trials: recorder.pruned_trials(),
            per_ea,
        }
    }

    /// Structural schema validation (used by `detox_report` before
    /// joining and by tests): version, discriminator, the seven rows in
    /// EA order, and the arithmetic invariants of each row.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != PROFILE_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} (this build reads {})",
                self.schema_version, PROFILE_SCHEMA_VERSION
            ));
        }
        if self.kind != PROFILE_KIND {
            return Err(format!("unexpected kind `{}`", self.kind));
        }
        if self.per_ea.len() != 7 {
            return Err(format!("{} rows (want the seven EAs)", self.per_ea.len()));
        }
        for (k, row) in self.per_ea.iter().enumerate() {
            let ea = EaId::from_index(k).expect("k < 7");
            if row.ea != ea.to_string() {
                return Err(format!("row {k} names `{}` (want `{ea}`)", row.ea));
            }
            if row.signal != ea.signal_name() {
                return Err(format!("{ea}: signal `{}`", row.signal));
            }
            if row.ops_per_check != row.comparisons_per_check + row.mask_probes_per_check {
                return Err(format!("{ea}: ops_per_check is not comparisons + probes"));
            }
            if row.total_ops != row.checks * u64::from(row.ops_per_check) {
                return Err(format!("{ea}: total_ops != checks × ops_per_check"));
            }
            if row
                .wall_ns_per_check
                .is_some_and(|w| !w.is_finite() || w < 0.0)
            {
                return Err(format!("{ea}: wall_ns_per_check not a finite non-negative"));
            }
        }
        Ok(())
    }
}

/// Renders the cost league table, most expensive mechanism first.
pub fn render_league(report: &ProfileReport) -> String {
    let mut rows: Vec<&EaCostRow> = report.per_ea.iter().collect();
    rows.sort_by(|a, b| b.total_ops.cmp(&a.total_ops).then(a.ea.cmp(&b.ea)));
    let grand_total: u64 = rows.iter().map(|r| r.total_ops).sum();
    let mut out = String::new();
    out.push_str("assertion cost league table\n");
    out.push_str("---------------------------\n");
    out.push_str(
        "EA   signal       location  checks      ops/check  total ops     share  wall ns/check\n",
    );
    for row in rows {
        let share = if grand_total == 0 {
            0.0
        } else {
            100.0 * row.total_ops as f64 / grand_total as f64
        };
        let wall = row
            .wall_ns_per_check
            .map_or_else(|| "-".to_owned(), |w| format!("{w:.1}"));
        out.push_str(&format!(
            "{:<4} {:<12} {:<9} {:<11} {:<10} {:<13} {:>5.1}%  {}\n",
            row.ea,
            row.signal,
            row.location,
            row.checks,
            row.ops_per_check,
            row.total_ops,
            share,
            wall,
        ));
    }
    out.push_str(&format!(
        "trials {} (+{} pruned), grand total {} ops\n",
        report.trials, report.pruned_trials, grand_total
    ));
    out
}

/// A legal steady-state drive sequence for `params`, `len` samples.
///
/// Continuous signals walk a triangle wave inside the rate bands
/// (wrapping at the seam when `w = allowed`, holding at `smax` for
/// monotonic counters whose band admits a zero step); sequential
/// discrete signals follow their transition graph; random discrete
/// signals alternate between two domain values. Every consecutive pair
/// satisfies the assertion, so the sampled timing is the *passing*
/// path — the cost a healthy system pays.
fn drive_sequence(params: &Params, len: usize) -> Vec<u16> {
    let mut out = Vec::with_capacity(len);
    match params {
        Params::Continuous(p) => {
            let step = |band: ea_core::cont::RateBand| -> i64 {
                if band.max() == 0 {
                    0
                } else {
                    band.min().max(1).min(band.max())
                }
            };
            let up = step(p.increase());
            let down = step(p.decrease());
            let mut v = p.smin();
            let mut rising = true;
            for _ in 0..len {
                out.push(v.clamp(0, i64::from(u16::MAX)) as u16);
                if rising {
                    if v + up > p.smax() || up == 0 {
                        if p.wrap().is_allowed() {
                            v = p.smin();
                        } else if down > 0 {
                            rising = false;
                            v -= down;
                        }
                        // else hold at v: legal iff rmin_incr = 0,
                        // which is exactly the monotonic counters'
                        // parameterisation (EA3, EA4).
                    } else {
                        v += up;
                    }
                } else if v - down < p.smin() || down == 0 {
                    rising = true;
                    v += up.min(p.smax() - v);
                } else {
                    v -= down;
                }
            }
        }
        Params::Discrete(p) => {
            let mut v = p.any_valid();
            for _ in 0..len {
                out.push(v.clamp(0, i64::from(u16::MAX)) as u16);
                v = p
                    .transitions_from(v)
                    .and_then(|t| t.iter().next().copied())
                    .unwrap_or_else(|| {
                        // Random discrete: any domain value is legal;
                        // alternate to exercise the transition test.
                        let mut iter = p.domain().iter().copied();
                        let first = iter.next().expect("domain is never empty");
                        let second = iter.next().unwrap_or(first);
                        if v == first {
                            second
                        } else {
                            first
                        }
                    });
            }
        }
    }
    out
}

/// Samples wall-clock nanoseconds per check for each mechanism.
///
/// Each EA runs **alone** in a fresh bank against its legal drive
/// sequence; a batch of checks is timed with a single
/// [`Instant`] pair and the minimum over a few repetitions is taken
/// (minimum, not mean — scheduling noise only ever adds time). This
/// runs once at report-emission time and costs a few milliseconds; the
/// campaign hot loop never sees a clock.
pub fn sample_wall_ns() -> [f64; 7] {
    const BATCH: usize = 4096;
    const REPS: usize = 3;
    let mut out = [0.0f64; 7];
    for ea in EaId::ALL {
        let mut detectors = build_detectors(EaSet::only(ea));
        let sequence = {
            let monitor = detectors.bank().monitor(ea_core::MonitorId(ea.index()));
            drive_sequence(monitor.active_params(), BATCH)
        };
        let mut at: u64 = 0;
        // Warm-up: populate the previous-sample history and caches.
        for &v in sequence.iter().take(64) {
            detectors.check(ea, v, at);
            at += 1;
        }
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let start = Instant::now();
            for &v in &sequence {
                detectors.check(ea, v, at);
                at += 1;
            }
            let per_check = start.elapsed().as_nanos() as f64 / BATCH as f64;
            best = best.min(per_check);
        }
        out[ea.index()] = best;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_meta() -> RunMetadata {
        RunMetadata::for_run(&crate::Protocol::scaled(2, 2_000), true, None)
    }

    #[test]
    fn recorder_sums_executions_and_prunes() {
        let recorder = ProfileRecorder::new();
        let execution = TrialExecution {
            ea_checks: [1, 2, 3, 4, 5, 6, 7],
            ..TrialExecution::default()
        };
        recorder.record_execution(&execution);
        recorder.record_execution(&execution);
        recorder.record_prune();
        assert_eq!(recorder.checks(), [2, 4, 6, 8, 10, 12, 14]);
        assert_eq!(recorder.trials(), 2);
        assert_eq!(recorder.pruned_trials(), 1);
    }

    #[test]
    fn report_round_trips_and_validates() {
        let recorder = ProfileRecorder::new();
        let execution = TrialExecution {
            ea_checks: [10, 10, 10, 10, 10, 10, 10],
            ..TrialExecution::default()
        };
        recorder.record_execution(&execution);
        let report = ProfileReport::assemble("test", run_meta(), &recorder, None);
        report.validate().expect("assembled report is valid");
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn validate_rejects_broken_arithmetic() {
        let recorder = ProfileRecorder::new();
        let mut report = ProfileReport::assemble("test", run_meta(), &recorder, None);
        report.per_ea[3].total_ops += 1;
        assert!(report.validate().unwrap_err().contains("total_ops"));
        let mut wrong_kind = ProfileReport::assemble("test", run_meta(), &recorder, None);
        wrong_kind.kind = "telemetry".to_owned();
        assert!(wrong_kind.validate().is_err());
    }

    #[test]
    fn league_table_sorts_by_total_ops() {
        let recorder = ProfileRecorder::new();
        // EA5 (discrete, priciest per check) gets the most checks too.
        let execution = TrialExecution {
            ea_checks: [1, 1, 1, 1, 1_000, 1, 1],
            ..TrialExecution::default()
        };
        recorder.record_execution(&execution);
        let report = ProfileReport::assemble("test", run_meta(), &recorder, Some([5.0; 7]));
        let table = render_league(&report);
        let first_row = table.lines().nth(3).expect("header + first row");
        assert!(first_row.starts_with("EA5"), "got: {first_row}");
        assert!(table.contains("5.0"));
    }

    #[test]
    fn drive_sequences_are_legal_for_every_mechanism() {
        for ea in EaId::ALL {
            let mut detectors = build_detectors(EaSet::only(ea));
            let sequence = {
                let monitor = detectors.bank().monitor(ea_core::MonitorId(ea.index()));
                drive_sequence(monitor.active_params(), 512)
            };
            assert_eq!(sequence.len(), 512);
            for (at, &v) in sequence.iter().enumerate() {
                detectors.check(ea, v, at as u64);
            }
            assert!(
                detectors.events().is_empty(),
                "{ea}: drive sequence tripped {} violations",
                detectors.events().len()
            );
        }
    }

    #[test]
    fn wall_sampler_returns_positive_finite_times() {
        for ns in sample_wall_ns() {
            assert!(ns.is_finite() && ns > 0.0, "sampled {ns} ns/check");
        }
    }
}
