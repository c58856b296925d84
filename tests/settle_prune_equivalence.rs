//! Differential gate for the analytic settle proof and dominance
//! pruning.
//!
//! The fast campaign path — analytic absorbing-band settle proofs plus
//! dominance pruning of statically-inert errors, both on by default —
//! must be indistinguishable from the exact path (both switched off
//! through `with_analytic_settle(false)` and `with_pruning(false)`) in
//! every result-bearing
//! artifact: the rendered Tables 6–9, the journal file byte for byte
//! (at one worker, where append order is deterministic), the
//! attribution aggregate, and the result-derived telemetry counters.
//! Only the *execution-shape* counters may differ, and those must
//! differ in the direction that witnesses the optimisation: the fast
//! path simulates fewer window milliseconds and prunes a nonzero
//! number of trials on slices that contain inert errors.
//!
//! The soundness arguments behind both shortcuts — why an analytic
//! stop can never change a verdict, and why an inert error's trial
//! equals the fault-free reference — are written out in
//! `docs/PROOFS.md`; this suite is their executable counterpart.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ea_repro::fic::journal::Journal;
use ea_repro::fic::telemetry::{Registry, TelemetrySnapshot};
use ea_repro::fic::{
    error_set, tables, AttributionAggregate, CampaignRunner, InertMap, JournalWriter, Protocol,
};
use proptest::prelude::*;

/// Counters that must agree exactly between the fast and exact paths:
/// everything derived from the trial *results* rather than from how
/// the trials were executed.
const EQUAL_COUNTERS: &[&str] = &[
    "campaign.trials",
    "campaign.checkpoint.cache.hits",
    "campaign.checkpoint.cache.misses",
];

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ea-repro-settle-prune-eq-{}-{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn protocol() -> Protocol {
    let mut protocol = Protocol::scaled(2, 1_500);
    protocol.workers = 1; // deterministic journal append order
    protocol
}

/// Everything result-bearing one campaign run produces, plus the full
/// counter snapshot for the execution-shape assertions.
struct Artifacts {
    tables: String,
    journal: Vec<u8>,
    attribution: AttributionAggregate,
    snapshot: TelemetrySnapshot,
}

fn run_artifacts(
    protocol: &Protocol,
    errors: &[usize],
    e1: bool,
    fast: bool,
    dir: &Path,
) -> Artifacts {
    let registry = Arc::new(Registry::new());
    let runner = CampaignRunner::new(protocol.clone())
        .with_analytic_settle(fast)
        .with_pruning(fast)
        .with_telemetry(Arc::clone(&registry))
        .with_attribution(true);
    let tag = if fast { "fast" } else { "exact" };
    let path = dir.join(format!("{}-{tag}.jsonl", if e1 { "e1" } else { "e2" }));
    let mut journal = JournalWriter::create(&path, protocol).unwrap();
    let tables = if e1 {
        let full = error_set::e1();
        let subset: Vec<_> = errors.iter().map(|n| full[n - 1]).collect();
        let report = runner.run_e1_journaled(&subset, &mut journal).unwrap();
        format!(
            "{}\n{}\n{}",
            tables::render_table6(&subset, protocol.cases_per_error()),
            tables::render_table7(&report),
            tables::render_table8(&report)
        )
    } else {
        let full = error_set::e2();
        let subset: Vec<_> = errors.iter().map(|n| full[n - 1]).collect();
        let report = runner.run_e2_journaled(&subset, &mut journal).unwrap();
        tables::render_table9(&report)
    };
    journal.finish().unwrap();
    Artifacts {
        tables,
        journal: std::fs::read(&path).unwrap(),
        attribution: runner.attribution().unwrap().snapshot(),
        snapshot: registry.snapshot(),
    }
}

/// Runs the slice under both configurations and asserts every
/// result-bearing artifact matches, naming the first diverging journal
/// record on mismatch. Also asserts the execution-shape counters are
/// consistent with how each path is supposed to run.
fn assert_configs_equivalent(
    protocol: &Protocol,
    errors: &[usize],
    e1: bool,
    tag: &str,
) -> Result<(), TestCaseError> {
    let dir = temp_dir(tag);
    let exact = run_artifacts(protocol, errors, e1, false, &dir);
    let fast = run_artifacts(protocol, errors, e1, true, &dir);

    if exact.journal != fast.journal {
        let parse = |bytes: &[u8], name: &str| -> Journal {
            let path = dir.join(format!("diverge-{name}.jsonl"));
            std::fs::write(&path, bytes).unwrap();
            Journal::load(&path).unwrap()
        };
        let x = parse(&exact.journal, "exact");
        let f = parse(&fast.journal, "fast");
        let at = x
            .records
            .iter()
            .zip(f.records.iter())
            .position(|(a, b)| a != b);
        return Err(TestCaseError::Fail(match at {
            Some(at) => format!(
                "fast and exact journals diverge at record #{at} \
                     (S{}, case {}): exact {:?} vs fast {:?}",
                x.records[at].error_number,
                x.records[at].case_index,
                x.records[at].trial,
                f.records[at].trial,
            ),
            None => format!(
                "fast and exact journals differ only in length/framing: \
                     {} vs {} records",
                x.records.len(),
                f.records.len()
            ),
        }));
    }
    prop_assert_eq!(
        &exact.tables,
        &fast.tables,
        "tables diverged with byte-identical journals"
    );
    prop_assert_eq!(
        &exact.attribution,
        &fast.attribution,
        "attribution aggregates diverged with byte-identical journals"
    );
    for name in EQUAL_COUNTERS {
        prop_assert_eq!(
            exact.snapshot.counter(name),
            fast.snapshot.counter(name),
            "result-derived counter {} diverged",
            name
        );
    }

    // Execution shape. The exact path never prunes and never proves
    // analytically; every trial is accounted settled-or-full-window.
    let trials = exact.snapshot.counter("campaign.trials");
    for name in [
        "campaign.prune.trials",
        "campaign.prune.dead_stack",
        "campaign.prune.unread_ram",
        "campaign.prune.references",
        "campaign.settle.proof.analytic_band",
        "campaign.settle.analytic.stops",
        "campaign.settle.record_final.stops",
        "campaign.settle.command_final.stops",
    ] {
        prop_assert_eq!(exact.snapshot.counter(name), 0, "exact path ran {}", name);
    }
    prop_assert_eq!(
        exact.snapshot.counter("campaign.trials.settled")
            + exact.snapshot.counter("campaign.trials.full_window"),
        trials
    );
    // The fast path accounts every trial exactly once: executed
    // (settled or full-window) or pruned.
    let pruned = fast.snapshot.counter("campaign.prune.trials");
    prop_assert_eq!(
        fast.snapshot.counter("campaign.trials.settled")
            + fast.snapshot.counter("campaign.trials.full_window")
            + pruned,
        trials
    );
    prop_assert_eq!(
        fast.snapshot.counter("campaign.prune.dead_stack")
            + fast.snapshot.counter("campaign.prune.unread_ram"),
        pruned
    );
    // Pruning is the only way a prunable slice may execute fewer
    // trials, and the inert map is the ground truth for how many.
    let map = InertMap::new();
    let expected_pruned = if e1 {
        0
    } else {
        let full = error_set::e2();
        errors
            .iter()
            .filter(|n| map.classify(full[*n - 1].flip).is_some())
            .count() as u64
            * protocol.cases_per_error() as u64
    };
    prop_assert_eq!(pruned, expected_pruned);
    // And the point of it all: the fast path simulates no more window
    // time than the exact path (strictly less whenever it pruned or
    // stopped a trial analytically).
    let exact_ms = exact.snapshot.counter("campaign.window_ms.simulated");
    let fast_ms = fast.snapshot.counter("campaign.window_ms.simulated");
    prop_assert!(
        fast_ms <= exact_ms,
        "fast path simulated more than exact: {} > {}",
        fast_ms,
        exact_ms
    );
    if pruned > 0 || fast.snapshot.counter("campaign.settle.analytic.stops") > 0 {
        prop_assert!(
            fast_ms < exact_ms,
            "fast path pruned/stopped early yet simulated as much as exact"
        );
    }
    Ok(())
}

fn numbers_e1(range: std::ops::Range<usize>) -> Vec<usize> {
    error_set::e1()[range].iter().map(|e| e.number).collect()
}

fn numbers_e2(range: std::ops::Range<usize>) -> Vec<usize> {
    error_set::e2()[range].iter().map(|e| e.number).collect()
}

/// The deterministic E1 CI gate: monitored-signal errors — nothing to
/// prune, but the analytic settle proof fires across the slice.
#[test]
fn ci_slice_e1_fast_path_is_byte_identical() {
    let errors = numbers_e1(76..84);
    assert_configs_equivalent(&protocol(), &errors, true, "ci-e1").unwrap();
}

/// The deterministic E2 CI gate: a slice guaranteed to hold inert
/// errors of both prune classes alongside live RAM/stack flips, so
/// pruning, reference sharing and the analytic proof all engage.
#[test]
fn ci_slice_e2_fast_path_is_byte_identical() {
    let map = InertMap::new();
    let full = error_set::e2();
    let live: Vec<usize> = full
        .iter()
        .filter(|e| map.classify(e.flip).is_none())
        .map(|e| e.number)
        .take(3)
        .collect();
    let inert: Vec<usize> = full
        .iter()
        .filter(|e| map.classify(e.flip).is_some())
        .map(|e| e.number)
        .take(3)
        .collect();
    assert_eq!((live.len(), inert.len()), (3, 3), "E2 seed changed shape");
    let errors: Vec<usize> = live.into_iter().chain(inert).collect();
    let artifacts = assert_configs_equivalent(&protocol(), &errors, false, "ci-e2");
    artifacts.unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random E1 slices through both configurations.
    #[test]
    fn random_e1_slices_are_equivalent(start: u64, len: u64) {
        let total = error_set::e1().len();
        let start = (start % total as u64) as usize;
        let len = 2 + (len % 3) as usize;
        let end = (start + len).min(total);
        prop_assume!(end > start);
        let errors = numbers_e1(start..end);
        assert_configs_equivalent(&protocol(), &errors, true,
            &format!("fuzz-e1-{start}-{end}"))?;
    }

    /// Random E2 slices through both configurations.
    #[test]
    fn random_e2_slices_are_equivalent(start: u64, len: u64) {
        let total = error_set::e2().len();
        let start = (start % total as u64) as usize;
        let len = 2 + (len % 3) as usize;
        let end = (start + len).min(total);
        prop_assume!(end > start);
        let errors = numbers_e2(start..end);
        assert_configs_equivalent(&protocol(), &errors, false,
            &format!("fuzz-e2-{start}-{end}"))?;
    }
}
