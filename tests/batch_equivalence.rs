//! Differential gate for the lockstep campaign path.
//!
//! The default campaign (checkpointed prefixes, lockstep work items of
//! at most `DEFAULT_BATCH_SIZE` live lanes, analytic settle, dominance
//! pruning) must
//! be indistinguishable from its references in every result-bearing
//! artifact. This suite runs it over grid slices and checks:
//!
//! * every journaled trial against `fic::run_trial`, the paper-faithful
//!   replay oracle, and the journal against the slice's pair set;
//! * the rendered Tables 7–9 and the attribution aggregate against the
//!   replay campaign's (`with_checkpointing(false)`);
//! * the result-derived telemetry counters against a fold of the scalar
//!   `run_trial_checkpointed_lane` executions plus the
//!   `InertMap` prune classes over the same pairs.
//!
//! Slices are deterministic E1 and E2 gates (`ci_slice_*` below) plus
//! proptest-driven random slices of both error sets; random starts and
//! lengths leave partial work items, and E2 slices long enough to hold
//! several live errors move the live-lane cut points, so the item
//! geometry is fuzzed rather than hand-picked.
//!
//! When a journaled trial differs from its oracle trial, the suite
//! re-runs that ⟨error, case⟩ pair under the `fic::trace` differential
//! oracle and dumps a repro bundle into `target/batch-repro/` naming
//! the diverging lane and the first diverging instant. Proptest
//! failures additionally print the generating inputs, which reproduce
//! the failing slice exactly.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ea_repro::arrestor::SettleProof;
use ea_repro::fic::campaign::{lockstep_items, DEFAULT_BATCH_SIZE};
use ea_repro::fic::experiment::{fault_free_prefix, run_trial_checkpointed_lane};
use ea_repro::fic::journal::{Journal, TrialRecord};
use ea_repro::fic::telemetry::Registry;
use ea_repro::fic::trace::{self, ReproError};
use ea_repro::fic::{
    error_set, run_trial, run_trial_traced, tables, AttributionAggregate, CampaignRunner, InertMap,
    JournalWriter, Protocol, PruneClass, ReproBundle,
};
use ea_repro::memsim::BitFlip;
use proptest::prelude::*;

/// Result-derived counters the lockstep campaign must report exactly
/// as the reference fold derives them. Timing histograms (queue wait,
/// snapshot build) are excluded: they measure the wall clock, not the
/// result.
const COMPARED_COUNTERS: &[&str] = &[
    "campaign.trials",
    "campaign.trials.settled",
    "campaign.trials.full_window",
    "campaign.window_ms.simulated",
    "campaign.window_ms.skipped",
    "campaign.checkpoint.cache.hits",
    "campaign.checkpoint.cache.misses",
    "campaign.settle.proof.exact",
    "campaign.settle.proof.translated",
    "campaign.settle.proof.retired_clock",
    "campaign.settle.proof.frozen_hung",
    "campaign.settle.proof.analytic_band",
    "campaign.settle.analytic.stops",
    "campaign.settle.record_final.stops",
    "campaign.settle.command_final.stops",
    "campaign.prune.trials",
    "campaign.prune.dead_stack",
    "campaign.prune.unread_ram",
    "campaign.prune.references",
];

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ea-repro-batch-eq-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Where mismatch repro bundles land; CI uploads this directory as an
/// artifact when the job fails.
fn repro_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/batch-repro")
}

fn protocol() -> Protocol {
    let mut protocol = Protocol::scaled(2, 1_500);
    protocol.workers = 1; // deterministic journal append order
    protocol
}

/// Everything result-bearing one campaign run produces.
struct Artifacts {
    tables: String,
    records: Vec<TrialRecord>,
    attribution: AttributionAggregate,
    counters: Vec<(String, u64)>,
}

/// One error drawn from either set, reduced to what the comparison and
/// the repro dump need.
#[derive(Clone, Copy)]
struct ErrorRef {
    number: usize,
    flip: BitFlip,
}

/// Runs the slice as one journaled campaign with telemetry and
/// attribution attached: the default lockstep path, or replay.
fn run_artifacts(
    protocol: &Protocol,
    errors: &[ErrorRef],
    e1: bool,
    checkpointing: bool,
    dir: &Path,
    tag: &str,
) -> Artifacts {
    let registry = Arc::new(Registry::new());
    let runner = CampaignRunner::new(protocol.clone())
        .with_checkpointing(checkpointing)
        .with_telemetry(Arc::clone(&registry))
        .with_attribution(true);
    let label = if checkpointing { "lockstep" } else { "replay" };
    let path = dir.join(format!("{tag}-{label}.jsonl"));
    let mut journal = JournalWriter::create(&path, protocol).unwrap();
    let tables = if e1 {
        let full = error_set::e1();
        let subset: Vec<_> = errors.iter().map(|e| full[e.number - 1]).collect();
        let report = runner.run_e1_journaled(&subset, &mut journal).unwrap();
        format!(
            "{}\n{}",
            tables::render_table7(&report),
            tables::render_table8(&report)
        )
    } else {
        let full = error_set::e2();
        let subset: Vec<_> = errors.iter().map(|e| full[e.number - 1]).collect();
        let report = runner.run_e2_journaled(&subset, &mut journal).unwrap();
        tables::render_table9(&report)
    };
    journal.finish().unwrap();
    let snapshot = registry.snapshot();
    Artifacts {
        tables,
        records: Journal::load(&path).unwrap().records,
        attribution: runner.attribution().unwrap().snapshot(),
        counters: COMPARED_COUNTERS
            .iter()
            .map(|name| ((*name).to_string(), snapshot.counter(name)))
            .collect(),
    }
}

/// The counters a checkpointed campaign over `errors` must report,
/// derived without the campaign: inert errors (by `InertMap`) count as
/// pruned with one shared reference per case, live ones run the scalar
/// checkpointed trial and contribute its execution shape, and the
/// prefix cache misses once per case and hits on every further trial.
fn reference_counters(protocol: &Protocol, errors: &[ErrorRef]) -> Vec<(String, u64)> {
    let map = InertMap::new();
    let mut c: BTreeMap<&str, u64> = COMPARED_COUNTERS.iter().map(|n| (*n, 0)).collect();
    let mut bump = |name: &str, by: u64| *c.get_mut(name).expect("compared counter") += by;
    let cases = protocol.grid.cases();
    for &case in &cases {
        let prefix = fault_free_prefix(protocol, case);
        let mut pruned_here = false;
        for error in errors {
            bump("campaign.trials", 1);
            match map.classify(error.flip) {
                Some(class) => {
                    pruned_here = true;
                    bump("campaign.prune.trials", 1);
                    bump(
                        match class {
                            PruneClass::DeadStack => "campaign.prune.dead_stack",
                            PruneClass::UnreadRam => "campaign.prune.unread_ram",
                        },
                        1,
                    );
                }
                None => {
                    let lane =
                        run_trial_checkpointed_lane(protocol, error.flip, case, &prefix, true);
                    let exec = lane.execution;
                    bump("campaign.window_ms.simulated", exec.simulated_ms);
                    bump("campaign.window_ms.skipped", exec.skipped_ms);
                    match exec.settle_stop_ms {
                        Some(_) => bump("campaign.trials.settled", 1),
                        None => bump("campaign.trials.full_window", 1),
                    }
                    match exec.settle_proof {
                        Some(SettleProof::ExactRecurrence) => {
                            bump("campaign.settle.proof.exact", 1);
                        }
                        Some(SettleProof::TranslatedRecurrence) => {
                            bump("campaign.settle.proof.translated", 1);
                        }
                        Some(SettleProof::RetiredClock) => {
                            bump("campaign.settle.proof.retired_clock", 1);
                        }
                        Some(SettleProof::FrozenHung) => {
                            bump("campaign.settle.proof.frozen_hung", 1);
                        }
                        Some(SettleProof::AnalyticBand) => {
                            bump("campaign.settle.proof.analytic_band", 1);
                            bump("campaign.settle.analytic.stops", 1);
                        }
                        None if exec.settle_stop_ms.is_some() => bump(
                            if lane.arrested_at_stop {
                                "campaign.settle.record_final.stops"
                            } else {
                                "campaign.settle.command_final.stops"
                            },
                            1,
                        ),
                        None => {}
                    }
                }
            }
        }
        bump("campaign.prune.references", u64::from(pruned_here));
    }
    let trials = errors.len() as u64 * cases.len() as u64;
    bump("campaign.checkpoint.cache.misses", cases.len() as u64);
    bump(
        "campaign.checkpoint.cache.hits",
        trials - cases.len() as u64,
    );
    COMPARED_COUNTERS
        .iter()
        .map(|name| ((*name).to_string(), c[name]))
        .collect()
}

/// Re-runs a diverging pair under the trace oracle and writes a repro
/// bundle naming the lane and the instant its fault's trace departs
/// the fault-free reference. Returns the failure message.
fn dump_divergence(
    protocol: &Protocol,
    errors: &[ErrorRef],
    at: usize,
    record: &TrialRecord,
) -> String {
    let error = errors
        .iter()
        .find(|e| e.number == record.error_number)
        .copied()
        .expect("journal record names an error outside the slice");
    // Lane slot within the record's work item: each case enqueues the
    // slice in order, cut by `lockstep_items`, and a lane's slot counts
    // only the item's live errors (a pruned error runs no lane).
    let map = InertMap::new();
    let classes: Vec<_> = errors.iter().map(|e| map.classify(e.flip)).collect();
    let position = errors
        .iter()
        .position(|e| e.number == record.error_number)
        .unwrap();
    let item = lockstep_items(&classes)
        .into_iter()
        .find(|item| item.contains(&position))
        .expect("the items cover the slice");
    let lane = match classes[position] {
        None => format!(
            "lane slot {} of its work item",
            classes[item.start..position]
                .iter()
                .filter(|c| c.is_none())
                .count()
        ),
        Some(class) => format!("pruned as {}, no lane", class.label()),
    };
    let case = protocol.grid.cases()[record.case_index];

    let reference = trace::record_reference(protocol, case);
    let (trial, observed) = run_trial_traced(protocol, error.flip, case);
    let mut bundle = ReproBundle::assemble(
        String::new(),
        protocol,
        case,
        Some(ReproError::new(
            format!("S{}", record.error_number),
            error.flip,
        )),
        Some(trial),
        &reference,
        &observed,
    );
    let first_tick = bundle.divergence.first_divergence_ms();
    bundle.reason = format!(
        "lockstep/replay divergence: journal record #{at} is S{} case {} \
         ({lane}) and differs from run_trial; the \
         fault's trace first departs the fault-free reference at t={} ms",
        record.error_number,
        record.case_index,
        first_tick.map_or_else(|| "<none>".to_string(), |t| t.to_string()),
    );
    let label = format!(
        "batch-eq-S{}-case{}",
        record.error_number, record.case_index
    );
    let path = trace::write_repro(&repro_dir(), &label, &bundle).unwrap();
    format!(
        "lockstep trial differs from run_trial at journal record #{at} \
         (S{}, case {}); repro bundle: {}",
        record.error_number,
        record.case_index,
        path.display()
    )
}

/// Runs the slice through the lockstep path and asserts every artifact
/// matches its reference; dumps a repro bundle before failing on a
/// trial mismatch.
fn assert_matches_references(
    protocol: &Protocol,
    errors: &[ErrorRef],
    e1: bool,
    tag: &str,
) -> Result<(), TestCaseError> {
    let dir = temp_dir(tag);
    let lockstep = run_artifacts(protocol, errors, e1, true, &dir, tag);

    let cases = protocol.grid.cases();
    let expected: BTreeSet<(usize, usize)> = errors
        .iter()
        .flat_map(|e| (0..cases.len()).map(move |ci| (e.number, ci)))
        .collect();
    let journaled: BTreeSet<(usize, usize)> = lockstep
        .records
        .iter()
        .map(|r| (r.error_number, r.case_index))
        .collect();
    prop_assert_eq!(
        lockstep.records.len(),
        expected.len(),
        "one record per pair"
    );
    prop_assert_eq!(&journaled, &expected, "journal covers exactly the slice");
    for (at, record) in lockstep.records.iter().enumerate() {
        let error = errors
            .iter()
            .find(|e| e.number == record.error_number)
            .expect("journaled error is in the slice");
        if record.trial != run_trial(protocol, error.flip, cases[record.case_index]) {
            return Err(TestCaseError::Fail(dump_divergence(
                protocol, errors, at, record,
            )));
        }
    }

    let replay = run_artifacts(protocol, errors, e1, false, &dir, tag);
    prop_assert_eq!(
        &lockstep.tables,
        &replay.tables,
        "tables diverged from the replay campaign's"
    );
    prop_assert_eq!(
        &lockstep.attribution,
        &replay.attribution,
        "attribution diverged from the replay campaign's"
    );
    prop_assert_eq!(
        &lockstep.counters,
        &reference_counters(protocol, errors),
        "telemetry counters diverged from the scalar reference fold"
    );
    Ok(())
}

fn refs_e1(range: std::ops::Range<usize>) -> Vec<ErrorRef> {
    error_set::e1()[range]
        .iter()
        .map(|e| ErrorRef {
            number: e.number,
            flip: e.flip,
        })
        .collect()
}

fn refs_e2(range: std::ops::Range<usize>) -> Vec<ErrorRef> {
    error_set::e2()[range]
        .iter()
        .map(|e| ErrorRef {
            number: e.number,
            flip: e.flip,
        })
        .collect()
}

/// The deterministic CI gate: a fixed E1 slice spanning clock, stack
/// and signal errors, one full lockstep item and a partial one per
/// case.
#[test]
fn ci_slice_e1_batched_path_is_byte_identical() {
    let errors = refs_e1(74..84);
    assert_matches_references(&protocol(), &errors, true, "ci-e1").unwrap();
}

/// The deterministic E2 gate: errors that all prune, so each case's
/// one work item runs no lockstep batch and every trial shares the
/// case's reference trial.
#[test]
fn ci_slice_e2_batched_path_is_byte_identical() {
    let errors = refs_e2(0..4);
    assert_matches_references(&protocol(), &errors, false, "ci-e2").unwrap();
}

/// The deterministic E2 live-lane gate: more live errors per case than
/// one batch holds, so a case is cut into two work items, and the
/// first item carries the pruned errors between its live ones — far
/// more than `DEFAULT_BATCH_SIZE` raw errors.
#[test]
fn ci_slice_e2_live_lane_items_are_byte_identical() {
    let errors = refs_e2(16..57);
    let map = InertMap::new();
    let classes: Vec<_> = errors.iter().map(|e| map.classify(e.flip)).collect();
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
    assert_matches_references(&protocol(), &errors, false, "ci-e2-live").unwrap();
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
        let errors = refs_e1(start..end);
        assert_matches_references(&protocol(), &errors, true,
            &format!("fuzz-e1-{start}-{end}"))?;
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
        let errors = refs_e2(start..end);
        assert_matches_references(&protocol(), &errors, false,
            &format!("fuzz-e2-{start}-{end}"))?;
    }
}
