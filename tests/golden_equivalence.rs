//! Differential gate for the proof-stopped golden runs.
//!
//! `fic::golden::validate_fault_free` no longer simulates each test
//! case over the whole observation window: it runs the campaign's
//! fault-free reference trial, which stops at the settle proof
//! (`docs/PROOFS.md`). This suite replays the window the proof skips
//! and requires the same outcome — the same failure verdict, the same
//! (absent) detections and a bit-identical final arrest distance — for
//! every paper test case, with the analytic settle band on and off. It
//! also pins that the parallel check reports the same violation at
//! every worker count.

use ea_repro::arrestor::{RunConfig, System};
use ea_repro::fic::experiment::{fault_free_prefix, run_reference_trial_with};
use ea_repro::fic::golden::{validate_fault_free, GoldenViolation};
use ea_repro::fic::Protocol;

/// Checks the proof-stopped reference trial of every case of
/// `protocol` against a full-window run; returns how many cases
/// failed.
fn assert_reference_matches_full_window(protocol: &Protocol) -> usize {
    let mut failures = 0;
    for (ci, case) in protocol.grid.cases().into_iter().enumerate() {
        let full = System::new(
            case,
            RunConfig {
                observation_ms: protocol.observation_ms,
                ..RunConfig::default()
            },
        )
        .run_to_completion();
        let prefix = fault_free_prefix(protocol, case);
        for analytic in [true, false] {
            let trial = run_reference_trial_with(protocol, case, &prefix, analytic);
            let context = format!("case {ci} ({case:?}), analytic settle {analytic}");
            assert_eq!(trial.failed, full.verdict.failed(), "{context}");
            assert_eq!(
                trial.per_ea_first_ms.iter().all(Option::is_none),
                full.detections.is_empty(),
                "{context}"
            );
            assert_eq!(
                trial.final_distance_m.to_bits(),
                full.verdict.final_distance_m.to_bits(),
                "{context}"
            );
        }
        failures += usize::from(full.verdict.failed());
    }
    failures
}

#[test]
fn proof_stopped_golden_runs_match_the_full_window() {
    let paper = Protocol::paper();
    assert_eq!(
        assert_reference_matches_full_window(&paper),
        0,
        "the paper's golden runs must all arrest safely"
    );
    // Windows too short to arrest: every case overruns, so the gate
    // also covers failing verdicts.
    let short = Protocol::scaled(3, 4_000);
    assert_eq!(
        assert_reference_matches_full_window(&short),
        short.cases_per_error()
    );
}

#[test]
fn paper_golden_runs_pass_at_every_worker_count() {
    for workers in [1, 2, 8] {
        let protocol = Protocol {
            workers,
            ..Protocol::paper()
        };
        assert_eq!(validate_fault_free(&protocol), Ok(()), "{workers} workers");
    }
}

#[test]
fn the_lowest_case_violation_wins_at_every_worker_count() {
    let expected = GoldenViolation {
        case: Protocol::scaled(3, 4_000).grid.cases()[0],
        spurious_detection: false,
        failed: true,
    };
    for workers in [1, 2, 8] {
        let protocol = Protocol {
            workers,
            ..Protocol::scaled(3, 4_000)
        };
        assert_eq!(
            validate_fault_free(&protocol),
            Err(expected.clone()),
            "{workers} workers"
        );
    }
}
