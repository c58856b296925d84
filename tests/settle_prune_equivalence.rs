//! Differential gate for the analytic settle proof and dominance
//! pruning.
//!
//! The campaign runs both shortcuts — analytic absorbing-band settle
//! proofs and dominance pruning of statically-inert errors — on every
//! slice. It must be indistinguishable from the t = 0 replay oracle of
//! `common::assert_matches_replay` in every result-bearing artefact:
//! the rendered Tables 6–9, the journal file byte for byte (at one
//! worker, where append order is deterministic), the attribution
//! aggregate, and the result-derived telemetry counters. The witness
//! that both shortcuts engaged: the pruned trials are exactly those
//! the `InertMap` classifies, and a slice that pruned or stopped early
//! simulated fewer window milliseconds than running every trial's
//! whole window after its forked prefix. The 1.5 s windows of the CI
//! slices and proptests end before any trial can stop early, so one
//! gate runs the paper's 40 s window over the errors whose trials take
//! analytic band stops.
//!
//! The soundness arguments behind both shortcuts — why an analytic
//! stop can never change a verdict, and why an inert error's trial
//! equals the fault-free reference — are written out in
//! `docs/PROOFS.md`; this suite is their executable counterpart.

mod common;

use common::{assert_matches_replay, Slice};
use ea_repro::fic::telemetry::TelemetrySnapshot;
use ea_repro::fic::{error_set, InertMap, Protocol};
use proptest::prelude::*;

/// A 2 × 2 grid at one worker (deterministic journal append order)
/// with an `observation_ms` window.
fn protocol(observation_ms: u64) -> Protocol {
    let mut protocol = Protocol::scaled(2, observation_ms);
    protocol.workers = 1;
    protocol
}

/// Checks the slice against the replay oracle and the witness under a
/// 1.5 s window; returns the pruned trial count.
fn assert_shortcuts_are_sound(numbers: &[usize], e1: bool) -> Result<u64, TestCaseError> {
    let snapshot = assert_sound_under(&protocol(1_500), numbers, e1)?;
    Ok(snapshot.counter("campaign.prune.trials"))
}

/// Checks the slice against the replay oracle and the witness under
/// `protocol`; returns the campaign's telemetry.
fn assert_sound_under(
    protocol: &Protocol,
    numbers: &[usize],
    e1: bool,
) -> Result<TelemetrySnapshot, TestCaseError> {
    let slice = if e1 {
        Slice::e1(numbers.iter().copied())
    } else {
        Slice::e2(numbers.iter().copied())
    };
    let snapshot = assert_matches_replay(protocol, &slice)?.snapshot;
    let map = InertMap::new();
    let inert = if e1 {
        0
    } else {
        let full = error_set::e2();
        numbers
            .iter()
            .filter(|n| map.classify(full[*n - 1].flip).is_some())
            .count() as u64
    };
    let trials = snapshot.counter("campaign.trials");
    let pruned = snapshot.counter("campaign.prune.trials");
    let settled = snapshot.counter("campaign.trials.settled");
    prop_assert_eq!(pruned, inert * protocol.cases_per_error() as u64);
    prop_assert_eq!(
        settled + snapshot.counter("campaign.trials.full_window") + pruned,
        trials
    );
    let whole_windows = trials * (protocol.observation_ms - protocol.injection_period_ms);
    let simulated = snapshot.counter("campaign.window_ms.simulated");
    if pruned + settled > 0 {
        prop_assert!(
            simulated < whole_windows,
            "pruned or stopped early, yet simulated {} of {} ms",
            simulated,
            whole_windows
        );
    }
    Ok(snapshot)
}

/// The deterministic E1 CI gate: monitored-signal errors, nothing to
/// prune. No trial of this slice stops early inside the 1.5 s window
/// (`campaign.trials.settled` reads 0), so it exercises no settle stop
/// at all; the 40 s gate below and the record-final and command-final
/// gates do.
#[test]
fn ci_slice_e1_fast_path_is_byte_identical() {
    let numbers: Vec<usize> = (77..=84).collect();
    assert_eq!(assert_shortcuts_are_sound(&numbers, true).unwrap(), 0);
}

/// The analytic band gate: every `ms_slot_nbr` error (E1 S65–S80) over
/// the paper's 40 s window, where the slot counter's trials take the
/// campaign's analytic band stops, against the replay oracle.
#[test]
fn ms_slot_nbr_analytic_band_stops_are_byte_identical() {
    let numbers: Vec<usize> = (65..=80).collect();
    let snapshot = assert_sound_under(&protocol(40_000), &numbers, true).unwrap();
    assert!(
        snapshot.counter("campaign.settle.proof.analytic_band") > 0,
        "no trial of the slice took an analytic band stop"
    );
}

/// The deterministic E2 CI gate: a slice guaranteed to hold inert
/// errors of both prune classes alongside live RAM/stack flips, so
/// pruning and reference sharing engage next to executed lanes.
#[test]
fn ci_slice_e2_fast_path_is_byte_identical() {
    let map = InertMap::new();
    let full = error_set::e2();
    let live = full.iter().filter(|e| map.classify(e.flip).is_none());
    let inert = full.iter().filter(|e| map.classify(e.flip).is_some());
    let numbers: Vec<usize> = live
        .take(3)
        .chain(inert.take(3))
        .map(|e| e.number)
        .collect();
    assert_eq!(numbers.len(), 6, "E2 seed changed shape");
    assert_eq!(assert_shortcuts_are_sound(&numbers, false).unwrap(), 12);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random E1 slices against the replay oracle.
    #[test]
    fn random_e1_slices_are_equivalent(start: u64, len: u64) {
        let total = error_set::e1().len();
        let start = (start % total as u64) as usize;
        let len = 2 + (len % 3) as usize;
        let end = (start + len).min(total);
        prop_assume!(end > start);
        let numbers: Vec<usize> = (start + 1..=end).collect();
        assert_shortcuts_are_sound(&numbers, true)?;
    }

    /// Random E2 slices against the replay oracle.
    #[test]
    fn random_e2_slices_are_equivalent(start: u64, len: u64) {
        let total = error_set::e2().len();
        let start = (start % total as u64) as usize;
        let len = 2 + (len % 3) as usize;
        let end = (start + len).min(total);
        prop_assume!(end > start);
        let numbers: Vec<usize> = (start + 1..=end).collect();
        assert_shortcuts_are_sound(&numbers, false)?;
    }
}
