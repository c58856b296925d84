//! Property tests for the campaign report algebra.
//!
//! The crash-safe journal, the worker fan-out and the fleet server all
//! rely on reports being commutative accumulators: trials may be
//! recorded in any order and the result must not change. That is what
//! makes checkpoint/resume exact rather than approximate.

use ea_repro::fic::{error_set, CampaignRunner, E1Report, E2Report, Protocol, Trial};
use proptest::prelude::*;

/// Builds a synthetic trial from compact generator output.
fn trial(detected_mask: u8, at: u64, failed: bool) -> Trial {
    let mut per_ea_first_ms = [None; 7];
    for (ea, slot) in per_ea_first_ms.iter_mut().enumerate() {
        if detected_mask & (1 << ea) != 0 {
            *slot = Some(at + ea as u64);
        }
    }
    Trial {
        failed,
        per_ea_first_ms,
        first_injection_ms: 20,
        final_distance_m: 150.0,
    }
}

/// Records each indexed trial against the (cyclically chosen) E1
/// error its index names.
fn e1_report_from(trials: &[(usize, (u8, u64, bool))]) -> E1Report {
    let errors = error_set::e1();
    let mut report = E1Report::new();
    for &(k, (mask, at, failed)) in trials {
        report.record(&errors[k % errors.len()], &trial(mask, at, failed));
    }
    report
}

fn e2_report_from(trials: &[(usize, (u8, u64, bool))]) -> E2Report {
    let errors = error_set::e2();
    let mut report = E2Report::new();
    for &(k, (mask, at, failed)) in trials {
        report.record(&errors[k % errors.len()], &trial(mask, at, failed));
    }
    report
}

fn trial_strategy() -> impl Strategy<Value = (u8, u64, bool)> {
    (0u8..128, 21u64..40_000, any::<bool>())
}

proptest! {
    /// Recording trials in any order produces the same report (the
    /// collector and the fleet server fold results in arrival order,
    /// which varies).
    #[test]
    fn record_order_irrelevant(
        trials in proptest::collection::vec(trial_strategy(), 2..24),
        rotation in 0usize..24,
    ) {
        let indexed: Vec<(usize, (u8, u64, bool))> =
            trials.iter().copied().enumerate().collect();
        let mut rotated = indexed.clone();
        let split = rotation % rotated.len();
        rotated.rotate_left(split);
        let mut reversed = indexed.clone();
        reversed.reverse();
        for order in [&rotated, &reversed] {
            prop_assert_eq!(e1_report_from(&indexed), e1_report_from(order));
            prop_assert_eq!(e2_report_from(&indexed), e2_report_from(order));
        }
    }
}

/// Fan-out determinism: the same campaign run serially and with 4 and 8
/// workers produces identical reports. (Not a proptest: each run costs
/// real simulation time, so the sample is a fixed small campaign.)
#[test]
fn fan_out_workers_1_4_8_match_serial() {
    let errors = error_set::e1();
    let subset = &errors[78..82]; // spans the EA5/EA6 signal boundary
    let mut reports = Vec::new();
    for workers in [1usize, 4, 8] {
        let mut protocol = Protocol::scaled(2, 1_200);
        protocol.workers = workers;
        reports.push(CampaignRunner::new(protocol).run_e1(subset));
    }
    assert_eq!(reports[0], reports[1], "1 worker vs 4 workers");
    assert_eq!(reports[0], reports[2], "1 worker vs 8 workers");
    assert_eq!(reports[0].trials(), 4 * 4);

    let e2_errors = error_set::e2();
    let e2_subset = &e2_errors[..3];
    let mut e2_reports = Vec::new();
    for workers in [1usize, 4, 8] {
        let mut protocol = Protocol::scaled(2, 1_200);
        protocol.workers = workers;
        e2_reports.push(CampaignRunner::new(protocol).run_e2(e2_subset));
    }
    assert_eq!(e2_reports[0], e2_reports[1], "E2: 1 worker vs 4 workers");
    assert_eq!(e2_reports[0], e2_reports[2], "E2: 1 worker vs 8 workers");
}
