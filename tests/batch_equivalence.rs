//! Differential gate for the lockstep campaign path.
//!
//! The campaign (checkpointed prefixes, lockstep work items of at most
//! `DEFAULT_BATCH_SIZE` live lanes, analytic settle, dominance pruning)
//! must be indistinguishable from the t = 0 replay oracle of
//! `common::assert_matches_replay` in every result-bearing artefact:
//! journal bytes, tables, attribution and the result-derived counters.
//!
//! Slices are deterministic E1 and E2 gates (`ci_slice_*` below) plus
//! proptest-driven random slices of both error sets; random starts and
//! lengths leave partial work items, and E2 slices long enough to hold
//! several live errors move the live-lane cut points, so the item
//! geometry is fuzzed rather than hand-picked. A mismatch writes a
//! repro bundle naming the diverging lane into `target/batch-repro/`.

mod common;

use common::{assert_matches_replay, Slice};
use ea_repro::fic::campaign::{lockstep_items, DEFAULT_BATCH_SIZE};
use ea_repro::fic::{error_set, InertMap, Protocol};
use proptest::prelude::*;

fn protocol() -> Protocol {
    let mut protocol = Protocol::scaled(2, 1_500);
    protocol.workers = 1; // deterministic journal append order
    protocol
}

/// The deterministic CI gate: a fixed E1 slice spanning clock, stack
/// and signal errors, one full lockstep item and a partial one per
/// case.
#[test]
fn ci_slice_e1_batched_path_is_byte_identical() {
    let campaign = assert_matches_replay(&protocol(), &Slice::e1(75..=84)).unwrap();
    assert_eq!(campaign.snapshot.counter("campaign.trials"), 40);
}

/// The deterministic E2 gate: errors that all prune, so each case's
/// one work item runs no lockstep batch and every trial shares the
/// case's reference trial.
#[test]
fn ci_slice_e2_batched_path_is_byte_identical() {
    let campaign = assert_matches_replay(&protocol(), &Slice::e2(1..=4)).unwrap();
    let snapshot = campaign.snapshot;
    assert_eq!(snapshot.counter("campaign.prune.trials"), 16);
    assert_eq!(snapshot.counter("campaign.window_ms.simulated"), 0);
}

/// The deterministic E2 live-lane gate: more live errors per case than
/// one batch holds, so a case is cut into two work items, and the
/// first item carries the pruned errors between its live ones — far
/// more than `DEFAULT_BATCH_SIZE` raw errors.
#[test]
fn ci_slice_e2_live_lane_items_are_byte_identical() {
    let map = InertMap::new();
    let classes: Vec<_> = error_set::e2()[16..57]
        .iter()
        .map(|e| map.classify(e.flip))
        .collect();
    let live = classes.iter().filter(|c| c.is_none()).count();
    assert!(
        live > DEFAULT_BATCH_SIZE,
        "the slice holds {live} live errors per case"
    );
    let widest = lockstep_items(&classes)
        .iter()
        .map(ExactSizeIterator::len)
        .max()
        .unwrap();
    assert!(
        widest > DEFAULT_BATCH_SIZE,
        "the widest item spans only {widest} raw errors"
    );
    let campaign = assert_matches_replay(&protocol(), &Slice::e2(17..=57)).unwrap();
    let executed = campaign.snapshot.counter("campaign.trials")
        - campaign.snapshot.counter("campaign.prune.trials");
    assert_eq!(executed, 4 * live as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random E1 slices: every E1 error is live, so lengths up to 12
    /// errors give one or two work items per case, the second partial.
    #[test]
    fn random_e1_slices_are_equivalent(start: u64, len: u64) {
        let total = error_set::e1().len();
        let start = (start % total as u64) as usize;
        let len = 2 + (len % 11) as usize;
        let end = (start + len).min(total);
        prop_assume!(end > start);
        assert_matches_replay(&protocol(), &Slice::e1(start + 1..=end))?;
    }

    /// Random E2 slices: about one error in nine is live, so lengths up
    /// to 80 errors can hold two live-lane items per case and move
    /// their cut points.
    #[test]
    fn random_e2_slices_are_equivalent(start: u64, len: u64) {
        let total = error_set::e2().len();
        let start = (start % total as u64) as usize;
        let len = 2 + (len % 79) as usize;
        let end = (start + len).min(total);
        prop_assume!(end > start);
        assert_matches_replay(&protocol(), &Slice::e2(start + 1..=end))?;
    }
}
