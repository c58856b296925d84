//! Parameter calibration by fault injection (paper §2.2: "the
//! parameters may be calibrated using fault injection experiments").
//!
//! For a sweep of rate-bound scales, each point runs (a) the golden grid
//! without injections, counting **false positives**, and (b) an E1-style
//! error subset, counting **detections**. The designer reads the sweep
//! to pick the tightest bound that stays false-positive-free: below it,
//! the assertions fire on healthy behaviour; far above it, coverage is
//! thrown away.

use arrestor::RunConfig;
use memsim::BitFlip;
use serde::{Deserialize, Serialize};
use simenv::TestCase;

use crate::error_set::E1Error;
use crate::experiment::run_full_window;
use crate::protocol::{map_indexed, Protocol};

/// One point of the calibration sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibrationPoint {
    /// Rate-bound scale, percent of the physics-derived value.
    pub rate_scale_percent: u16,
    /// Golden runs that (wrongly) raised a detection.
    pub false_positive_runs: u64,
    /// Total golden runs.
    pub golden_runs: u64,
    /// Injected runs with at least one detection.
    pub detected_runs: u64,
    /// Total injected runs.
    pub injected_runs: u64,
}

impl CalibrationPoint {
    /// Detection probability at this point.
    pub fn detection_rate(&self) -> f64 {
        if self.injected_runs == 0 {
            0.0
        } else {
            self.detected_runs as f64 / self.injected_runs as f64
        }
    }

    /// Whether this point is usable (no false positives).
    pub fn clean(&self) -> bool {
        self.false_positive_runs == 0
    }
}

/// Whether a full-window run with rate bounds at `scale` % detects
/// anything.
fn detected(protocol: &Protocol, scale: u16, flip: Option<BitFlip>, case: TestCase) -> bool {
    let config = RunConfig {
        rate_scale_percent: Some(scale),
        ..RunConfig::default()
    };
    !run_full_window(protocol, case, flip, config)
        .detections
        .is_empty()
}

/// Sweeps the given scales over golden runs and the error subset; the
/// runs fan out over [`Protocol::effective_workers`] threads.
pub fn sweep(protocol: &Protocol, errors: &[E1Error], scales: &[u16]) -> Vec<CalibrationPoint> {
    let cases = protocol.grid.cases();
    // Every run of the sweep, scale by scale: the golden runs (no
    // flip), then each error over the grid.
    let flips: Vec<Option<BitFlip>> = std::iter::once(None)
        .chain(errors.iter().map(|e| Some(e.flip)))
        .collect();
    let mut runs: Vec<(u16, Option<BitFlip>, TestCase)> = Vec::new();
    for &scale in scales {
        for &flip in &flips {
            runs.extend(cases.iter().map(|&case| (scale, flip, case)));
        }
    }
    let detections = map_indexed(runs.len(), protocol.effective_workers(), |i| {
        let (scale, flip, case) = runs[i];
        detected(protocol, scale, flip, case)
    });
    let per_scale = flips.len() * cases.len();
    scales
        .iter()
        .enumerate()
        .map(|(k, &scale)| {
            let (golden, injected) =
                detections[k * per_scale..(k + 1) * per_scale].split_at(cases.len());
            let count = |runs: &[bool]| runs.iter().filter(|&&d| d).count() as u64;
            CalibrationPoint {
                rate_scale_percent: scale,
                false_positive_runs: count(golden),
                golden_runs: golden.len() as u64,
                detected_runs: count(injected),
                injected_runs: injected.len() as u64,
            }
        })
        .collect()
}

/// Renders the sweep as a table.
pub fn render(points: &[CalibrationPoint]) -> String {
    let mut out =
        String::from("Rate-bound calibration sweep (scale % of physics-derived bounds)\n");
    out.push_str(&format!(
        "{:>8}{:>16}{:>14}{:>10}\n",
        "scale", "false positives", "detections", "usable"
    ));
    for p in points {
        out.push_str(&format!(
            "{:>7}%{:>9}/{:<6}{:>8}/{:<5}{:>10}\n",
            p.rate_scale_percent,
            p.false_positive_runs,
            p.golden_runs,
            p.detected_runs,
            p.injected_runs,
            if p.clean() { "yes" } else { "NO" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_set;
    use arrestor::EaId;

    #[test]
    fn tighter_bounds_detect_at_least_as_much() {
        let protocol = Protocol::scaled(1, 6_000);
        // Mid-bit SetValue errors: exactly the ones the bound position
        // decides about.
        let errors: Vec<_> = error_set::e1()
            .into_iter()
            .filter(|e| e.ea == EaId::Ea1 && (9..=11).contains(&e.signal_bit))
            .collect();
        let points = sweep(&protocol, &errors, &[25, 100, 400]);
        assert_eq!(points.len(), 3);
        // Detection is monotone non-increasing in the scale.
        assert!(points[0].detection_rate() >= points[1].detection_rate());
        assert!(points[1].detection_rate() >= points[2].detection_rate());
        // The physics-derived bound (100 %) is false-positive free.
        assert!(points[1].clean(), "derived bounds must be golden-clean");
        // Over-tight bounds eventually fire on healthy behaviour.
        let very_tight = sweep(&protocol, &[], &[5]);
        assert!(
            !very_tight[0].clean(),
            "a 5 % bound must reject healthy set-point ramps"
        );
    }

    #[test]
    fn render_flags_unusable_points() {
        let points = vec![
            CalibrationPoint {
                rate_scale_percent: 50,
                false_positive_runs: 2,
                golden_runs: 4,
                detected_runs: 4,
                injected_runs: 4,
            },
            CalibrationPoint {
                rate_scale_percent: 100,
                false_positive_runs: 0,
                golden_runs: 4,
                detected_runs: 3,
                injected_runs: 4,
            },
        ];
        let text = render(&points);
        assert!(text.contains("NO"));
        assert!(text.contains("yes"));
    }
}
