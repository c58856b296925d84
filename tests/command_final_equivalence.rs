//! Differential gate for the command-final stop.
//!
//! While the aircraft still rolls, the settle detector may stop a
//! trial's node half once its valve commands are provably final and no
//! mechanism without a logged detection can fire; `System::finish` then
//! completes the window with the plant alone (`arrestor::record_final`,
//! `docs/PROOFS.md` §Command-final tails). The stop needs the paper's
//! 40 s window to pay off, so every check here runs it:
//!
//! * chosen paper pairs — E1 overruns whose controller holds its
//!   commands from seconds in, E1 trials that take the stop while
//!   rolling and arrest later, and E2 errors whose master hangs or
//!   whose clock jumps — each through the checkpointed
//!   scalar loop and the lockstep batch, must equal their `run_trial`
//!   replay from t = 0 and must all have taken a command-final stop;
//! * the journals, tables, attribution and trial-derived counters of
//!   E1 and E2 campaign slices must equal the t = 0 replay oracle of
//!   `common::assert_matches_replay`, with command-final stops taken.
//!
//! The whole paper grid is replayed by the ignored
//! `record_final_equivalence::every_paper_pair_equals_its_replay`.

mod common;

use common::{assert_matches_replay, Slice};
use ea_repro::fic::experiment::{
    fault_free_prefix, run_case_batch_with, run_trial, run_trial_checkpointed_lane,
};
use ea_repro::fic::{error_set, Protocol};
use ea_repro::memsim::BitFlip;

/// E1 errors 62 (`pulscnt` bit 13), 90 and 96 (`mscnt` bits 9 and 15):
/// overruns that never arrest.
const E1_OVERRUNS: [(usize, usize); 3] = [(62, 13), (90, 19), (96, 24)];

/// E1 errors 49, 50 and 52 (`pulscnt` bits 0, 1 and 3): their commands
/// are final while the aircraft still rolls, and it arrests later.
const E1_ROLLERS: [(usize, usize); 3] = [(49, 2), (50, 22), (52, 7)];

/// E2 errors 19 (`mscnt` bit 6) and 189 and 196 (stack flips into the
/// interrupt context, which hang the master).
const E2_PAIRS: [(usize, usize); 3] = [(19, 6), (189, 11), (196, 17)];

/// Runs every listed ⟨error, case⟩ pair through the scalar loop and,
/// batched with the other flips of its list, through the lockstep
/// executor; each must equal its replay and must have stopped
/// command-final.
fn pairs_take_command_final_stops(flips: &[BitFlip], pairs: &[(usize, usize)]) {
    let protocol = Protocol::paper();
    let cases = protocol.grid.cases();
    for (&flip, &(number, case_index)) in flips.iter().zip(pairs) {
        let case = cases[case_index];
        let prefix = fault_free_prefix(&protocol, case);
        let replay = run_trial(&protocol, flip, case);
        let scalar = run_trial_checkpointed_lane(&protocol, flip, case, &prefix, true);
        let lanes = run_case_batch_with(&protocol, flips, case, &prefix, true);
        let slot = flips.iter().position(|&f| f == flip).expect("listed");
        let lane = &lanes[slot];
        let pair = format!("error {number}, case {case_index}");
        assert_eq!(scalar.trial, replay, "scalar trial vs replay: {pair}");
        assert_eq!(lane.trial, replay, "lockstep lane vs replay: {pair}");
        assert_eq!(lane.execution, scalar.execution, "lane shape: {pair}");
        assert_eq!(lane.arrested_at_stop, scalar.arrested_at_stop, "{pair}");
        assert!(
            lane.execution.settle_stop_ms.is_some()
                && lane.execution.settle_proof.is_none()
                && !lane.arrested_at_stop,
            "{pair} took no command-final stop: {:?}",
            lane.execution
        );
    }
}

fn e1_flips(pairs: &[(usize, usize)]) -> Vec<BitFlip> {
    let errors = error_set::e1();
    pairs.iter().map(|&(n, _)| errors[n - 1].flip).collect()
}

#[test]
fn e1_overruns_stop_command_final_and_equal_their_replay() {
    let flips = e1_flips(&E1_OVERRUNS);
    pairs_take_command_final_stops(&flips, &E1_OVERRUNS);
    for (&flip, &(_, case_index)) in flips.iter().zip(&E1_OVERRUNS) {
        let protocol = Protocol::paper();
        let trial = run_trial(&protocol, flip, protocol.grid.cases()[case_index]);
        assert!(trial.failed && trial.final_distance_m > 335.0, "{trial:?}");
    }
}

#[test]
fn e1_rollers_stop_command_final_and_arrest_in_the_tail() {
    let flips = e1_flips(&E1_ROLLERS);
    pairs_take_command_final_stops(&flips, &E1_ROLLERS);
    for (&flip, &(_, case_index)) in flips.iter().zip(&E1_ROLLERS) {
        let protocol = Protocol::paper();
        let trial = run_trial(&protocol, flip, protocol.grid.cases()[case_index]);
        assert!(!trial.failed, "{trial:?}");
    }
}

#[test]
fn e2_clock_and_hang_errors_stop_command_final_and_equal_their_replay() {
    let errors = error_set::e2();
    let flips: Vec<BitFlip> = E2_PAIRS.iter().map(|&(n, _)| errors[n - 1].flip).collect();
    pairs_take_command_final_stops(&flips, &E2_PAIRS);
}

/// Checks a campaign slice at the paper's window on a 2 × 2 grid
/// against the replay oracle; the witness is that some trial stopped
/// command-final.
fn assert_slice_matches_replay(slice: &Slice) {
    let mut protocol = Protocol::scaled(2, 40_000);
    protocol.workers = 1; // deterministic journal append order
    let snapshot = assert_matches_replay(&protocol, slice).unwrap().snapshot;
    assert!(snapshot.counter("campaign.settle.command_final.stops") > 0);
}

#[test]
fn e1_slice_journal_and_tables_match_the_exact_path() {
    let numbers = E1_OVERRUNS.iter().chain(&E1_ROLLERS).map(|&(n, _)| n);
    assert_slice_matches_replay(&Slice::e1(numbers.chain([1, 40])));
}

#[test]
fn e2_slice_journal_and_tables_match_the_exact_path() {
    let numbers = E2_PAIRS.iter().map(|&(n, _)| n).chain([120]);
    assert_slice_matches_replay(&Slice::e2(numbers));
}
