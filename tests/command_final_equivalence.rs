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
//! * the journals and tables of E1 and E2 campaign slices must be
//!   byte-identical to the same slices run with
//!   `with_analytic_settle(false)`, which keeps the stop off.
//!
//! The whole paper grid is replayed by the ignored
//! `record_final_equivalence::every_paper_pair_equals_its_replay`.

use std::path::PathBuf;
use std::sync::Arc;

use ea_repro::fic::experiment::{
    fault_free_prefix, run_case_batch_with, run_trial, run_trial_checkpointed_lane,
};
use ea_repro::fic::telemetry::Registry;
use ea_repro::fic::{error_set, tables, CampaignRunner, JournalWriter, Protocol};
use ea_repro::memsim::BitFlip;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ea-repro-command-final-{}-{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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

/// One journaled campaign slice at the paper's window on a 2 × 2 grid:
/// its journal bytes, rendered tables and telemetry counters.
fn run_slice(e1: bool, numbers: &[usize], analytic: bool) -> (Vec<u8>, String, Arc<Registry>) {
    let mut protocol = Protocol::scaled(2, 40_000);
    protocol.workers = 1; // deterministic journal append order
    let registry = Arc::new(Registry::new());
    let runner = CampaignRunner::new(protocol.clone())
        .with_analytic_settle(analytic)
        .with_telemetry(Arc::clone(&registry));
    let tag = format!(
        "{}-{}",
        if e1 { "e1" } else { "e2" },
        if analytic { "fast" } else { "exact" }
    );
    let path = temp_dir(&tag).join("journal.jsonl");
    let mut journal = JournalWriter::create(&path, &protocol).unwrap();
    let tables = if e1 {
        let full = error_set::e1();
        let subset: Vec<_> = numbers.iter().map(|n| full[n - 1]).collect();
        let report = runner.run_e1_journaled(&subset, &mut journal).unwrap();
        format!(
            "{}\n{}\n{}",
            tables::render_table6(&subset, protocol.cases_per_error()),
            tables::render_table7(&report),
            tables::render_table8(&report)
        )
    } else {
        let full = error_set::e2();
        let subset: Vec<_> = numbers.iter().map(|n| full[n - 1]).collect();
        let report = runner.run_e2_journaled(&subset, &mut journal).unwrap();
        tables::render_table9(&report)
    };
    journal.finish().unwrap();
    (std::fs::read(&path).unwrap(), tables, registry)
}

fn assert_slice_matches_exact(e1: bool, numbers: &[usize]) {
    let (exact_journal, exact_tables, exact) = run_slice(e1, numbers, false);
    let (fast_journal, fast_tables, fast) = run_slice(e1, numbers, true);
    assert!(exact_journal == fast_journal, "journals differ");
    assert_eq!(exact_tables, fast_tables);
    let (exact, fast) = (exact.snapshot(), fast.snapshot());
    assert_eq!(exact.counter("campaign.settle.command_final.stops"), 0);
    assert!(fast.counter("campaign.settle.command_final.stops") > 0);
    assert!(
        fast.counter("campaign.window_ms.simulated")
            < exact.counter("campaign.window_ms.simulated")
    );
}

#[test]
fn e1_slice_journal_and_tables_match_the_exact_path() {
    let numbers: Vec<usize> = E1_OVERRUNS
        .iter()
        .chain(&E1_ROLLERS)
        .map(|&(n, _)| n)
        .chain([1, 40])
        .collect();
    assert_slice_matches_exact(true, &numbers);
}

#[test]
fn e2_slice_journal_and_tables_match_the_exact_path() {
    let numbers: Vec<usize> = E2_PAIRS.iter().map(|&(n, _)| n).chain([120]).collect();
    assert_slice_matches_exact(false, &numbers);
}
