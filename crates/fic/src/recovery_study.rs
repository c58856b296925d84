//! The recovery ablation: what happens when detections also *repair*
//! the signal (paper §2: "measures can be taken to recover from the
//! error, and the signal can be returned to a valid state")?
//!
//! The paper evaluates detection only. This study re-runs an E1-style
//! campaign with the mechanisms' write-back enabled and compares
//! failure rates — quantifying how much of the arresting system's
//! dependability the recovery step buys on top of detection.

use arrestor::RunConfig;
use ea_core::RecoveryStrategy;
use serde::{Deserialize, Serialize};
use simenv::TestCase;

use crate::error_set::E1Error;
use crate::experiment::run_full_window;
use crate::protocol::{map_indexed, Protocol};

/// Aggregate outcome of one configuration over a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryOutcome {
    /// Runs executed.
    pub runs: u64,
    /// Runs that violated a failure constraint.
    pub failures: u64,
    /// Runs with at least one detection.
    pub detected: u64,
}

impl RecoveryOutcome {
    /// Failure rate over the campaign.
    pub fn failure_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.failures as f64 / self.runs as f64
        }
    }
}

/// Results of the ablation: detection-only vs write-back strategies.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryStudy {
    /// The paper's configuration: detection only.
    pub detection_only: RecoveryOutcome,
    /// Write-back with [`RecoveryStrategy::HoldPrevious`].
    pub hold_previous: RecoveryOutcome,
    /// Write-back with [`RecoveryStrategy::RateProject`].
    pub rate_project: RecoveryOutcome,
}

/// Selects the [`RecoveryStudy`] slot a configuration accumulates into.
type OutcomeSlot = fn(&mut RecoveryStudy) -> &mut RecoveryOutcome;

/// Runs the three configurations over the given errors and grid; the
/// runs fan out over [`Protocol::effective_workers`] threads.
pub fn run_study(protocol: &Protocol, errors: &[E1Error]) -> RecoveryStudy {
    let cases = protocol.grid.cases();
    let configs: [(Option<RecoveryStrategy>, OutcomeSlot); 3] = [
        (None, |s| &mut s.detection_only),
        (Some(RecoveryStrategy::HoldPrevious), |s| {
            &mut s.hold_previous
        }),
        (Some(RecoveryStrategy::RateProject), |s| &mut s.rate_project),
    ];
    let runs: Vec<(&E1Error, TestCase, usize)> = errors
        .iter()
        .flat_map(|error| {
            cases
                .iter()
                .flat_map(move |&case| (0..configs.len()).map(move |k| (error, case, k)))
        })
        .collect();
    let verdicts = map_indexed(runs.len(), protocol.effective_workers(), |i| {
        let (error, case, k) = runs[i];
        let config = RunConfig {
            recovery: configs[k].0,
            ..RunConfig::default()
        };
        let run = run_full_window(protocol, case, Some(error.flip), config);
        (run.verdict.failed(), !run.detections.is_empty())
    });
    let mut study = RecoveryStudy::default();
    for (&(_, _, k), (failed, detected)) in runs.iter().zip(verdicts) {
        let outcome = configs[k].1(&mut study);
        outcome.runs += 1;
        outcome.failures += u64::from(failed);
        outcome.detected += u64::from(detected);
    }
    study
}

/// Renders the study as a small table.
pub fn render(study: &RecoveryStudy) -> String {
    let mut out =
        String::from("Recovery ablation (errors in monitored signals, E1-style protocol)\n");
    out.push_str(&format!(
        "{:<18}{:>8}{:>10}{:>12}{:>10}\n",
        "Configuration", "runs", "failures", "fail rate", "detected"
    ));
    for (label, outcome) in [
        ("detection-only", &study.detection_only),
        ("hold-previous", &study.hold_previous),
        ("rate-project", &study.rate_project),
    ] {
        out.push_str(&format!(
            "{:<18}{:>8}{:>10}{:>11.1}%{:>10}\n",
            label,
            outcome.runs,
            outcome.failures,
            outcome.failure_rate() * 100.0,
            outcome.detected,
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
    fn recovery_prevents_set_value_msb_failures() {
        // SetValue MSB flips reliably fail detection-only runs on light
        // aircraft; with write-back the signal is repaired within one
        // V_REG period and the arrestment survives.
        let protocol = Protocol::scaled(1, 20_000);
        let errors: Vec<_> = error_set::e1()
            .into_iter()
            .filter(|e| e.ea == EaId::Ea1 && e.signal_bit == 15)
            .collect();
        let mut light_protocol = protocol.clone();
        light_protocol.grid.mass_max = light_protocol.grid.mass_min;
        light_protocol.grid.velocity_max = light_protocol.grid.velocity_min;
        let study = run_study(&light_protocol, &errors);
        assert_eq!(study.detection_only.runs, 1);
        assert_eq!(study.detection_only.failures, 1, "baseline must fail");
        assert_eq!(
            study.hold_previous.failures, 0,
            "write-back must prevent the failure"
        );
        // Detection still happens in both configurations.
        assert_eq!(study.detection_only.detected, 1);
        assert_eq!(study.hold_previous.detected, 1);
    }

    #[test]
    fn render_lists_all_three_configurations() {
        let study = RecoveryStudy {
            detection_only: RecoveryOutcome {
                runs: 10,
                failures: 5,
                detected: 9,
            },
            hold_previous: RecoveryOutcome {
                runs: 10,
                failures: 1,
                detected: 9,
            },
            rate_project: RecoveryOutcome {
                runs: 10,
                failures: 2,
                detected: 9,
            },
        };
        let text = render(&study);
        assert!(text.contains("detection-only"));
        assert!(text.contains("hold-previous"));
        assert!(text.contains("rate-project"));
        assert!(text.contains("50.0%"));
    }

    #[test]
    fn failure_rate_handles_empty() {
        assert_eq!(RecoveryOutcome::default().failure_rate(), 0.0);
    }
}
