//! Telemetry end-to-end invariants.
//!
//! The observability layer must be a pure observer: enabling it cannot
//! change any result-bearing artifact, its live stream must be sane
//! (parseable, schema-pinned, monotone), and its counters must agree
//! with ground truth derivable from the journal. Sharded runs must
//! partition the grid exactly and merge back to the unsharded answer.

use std::path::PathBuf;
use std::sync::Arc;

use fic::journal::{self, CampaignKind, Journal, JournalWriter, ShardSpec};
use fic::telemetry::{self, ProgressEvent, Registry};
use fic::{error_set, CampaignRunner, E1Report, ProgressOptions, Protocol};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ea-repro-telemetry-test-{}-{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_protocol() -> Protocol {
    Protocol::scaled(2, 1_200)
}

/// Telemetry and the progress stream are observers only: the campaign
/// report with both enabled is byte-identical to the bare run's.
#[test]
fn telemetry_does_not_change_results() {
    let protocol = small_protocol();
    let errors = error_set::e1();
    let subset = &errors[80..84];

    let bare = CampaignRunner::new(protocol.clone()).run_e1(subset);

    let registry = Arc::new(Registry::new());
    let stream = temp_dir("observer").join("progress.jsonl");
    let instrumented = CampaignRunner::new(protocol)
        .with_telemetry(Arc::clone(&registry))
        .with_progress(ProgressOptions {
            live: false,
            stream_path: Some(stream),
            stream_every: 1,
        })
        .run_e1(subset);

    assert_eq!(
        serde_json::to_string_pretty(&bare).unwrap(),
        serde_json::to_string_pretty(&instrumented).unwrap(),
        "enabling telemetry must not change the E1 report"
    );

    // The registry actually observed the run.
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("campaign.trials"), 4 * 4);
}

/// Every `--telemetry-jsonl` line parses as a schema-pinned
/// [`ProgressEvent`], and `trials_done` is monotone, ending at the
/// phase total.
#[test]
fn progress_stream_is_monotone_and_schema_pinned() {
    let protocol = small_protocol();
    let stream = temp_dir("stream").join("progress.jsonl");
    let registry = Arc::new(Registry::new());
    let runner = CampaignRunner::new(protocol)
        .with_telemetry(registry)
        .with_progress(ProgressOptions {
            live: false,
            stream_path: Some(stream.clone()),
            stream_every: 1,
        });
    runner.run_e1(&error_set::e1()[..3]);
    runner.run_e2(&error_set::e2()[..2]);

    let content = std::fs::read_to_string(&stream).unwrap();
    let events: Vec<ProgressEvent> = content
        .lines()
        .map(|line| serde_json::from_str(line).unwrap())
        .collect();
    assert!(!events.is_empty(), "stream must contain events");

    let mut last_done: Option<(String, u64)> = None;
    for event in &events {
        assert_eq!(event.schema_version, telemetry::SCHEMA_VERSION);
        assert_eq!(event.event, "progress");
        assert!(event.trials_done <= event.trials_total);
        if let Some((phase, done)) = &last_done {
            if *phase == event.phase {
                assert!(
                    event.trials_done >= *done,
                    "trials_done regressed within phase {phase}"
                );
            }
        }
        last_done = Some((event.phase.clone(), event.trials_done));
    }

    // Both phases streamed into the same file, each reaching its total.
    for (phase, total) in [("e1", 3 * 4), ("e2", 2 * 4)] {
        let finished = events
            .iter()
            .any(|e| e.phase == phase && e.trials_done == total && e.trials_done == e.trials_total);
        assert!(finished, "phase {phase} never reported completion");
    }
}

/// The checkpoint-cache counters agree with ground truth derived from
/// the journal: one miss per distinct test case (the cache holds one
/// fault-free prefix per case), every other trial a hit.
#[test]
fn cache_counters_match_journal_ground_truth() {
    let path = temp_dir("cache").join("campaign.jsonl");
    let protocol = small_protocol();
    let registry = Arc::new(Registry::new());
    let runner = CampaignRunner::new(protocol.clone()).with_telemetry(Arc::clone(&registry));
    let subset = &error_set::e1()[..5];

    let mut writer = JournalWriter::create(&path, &protocol).unwrap();
    runner.run_e1_journaled(subset, &mut writer).unwrap();
    drop(writer);

    let journal = Journal::load(&path).unwrap();
    let records = journal
        .records
        .iter()
        .filter(|r| r.campaign == CampaignKind::E1)
        .count() as u64;
    let mut cases: Vec<usize> = journal.records.iter().map(|r| r.case_index).collect();
    cases.sort_unstable();
    cases.dedup();
    let expected_misses = cases.len() as u64;

    let snapshot = registry.snapshot();
    assert_eq!(records, 5 * 4);
    assert_eq!(
        snapshot.counter("campaign.checkpoint.cache.misses"),
        expected_misses
    );
    assert_eq!(
        snapshot.counter("campaign.checkpoint.cache.hits"),
        records - expected_misses
    );
    assert_eq!(snapshot.counter("campaign.trials"), records);
}

/// The `campaign.prune.*` counters agree with ground truth derived
/// from the journal: the error numbers reconstruct each flip, the
/// inert map says which were prunable, and one reference execution is
/// shared per test case that pruned anything (`telemetry_check
/// --journal` re-runs this same cross-check on CI artefacts).
#[test]
fn prune_counters_match_journal_ground_truth() {
    let path = temp_dir("prune").join("campaign.jsonl");
    let protocol = small_protocol();
    let registry = Arc::new(Registry::new());
    let runner = CampaignRunner::new(protocol.clone()).with_telemetry(Arc::clone(&registry));
    // A subset holding both live and inert errors.
    let map = fic::InertMap::new();
    let errors = error_set::e2();
    let live: Vec<_> = errors
        .iter()
        .filter(|e| map.classify(e.flip).is_none())
        .take(2)
        .cloned()
        .collect();
    let inert: Vec<_> = errors
        .iter()
        .filter(|e| map.classify(e.flip).is_some())
        .take(3)
        .cloned()
        .collect();
    assert_eq!((live.len(), inert.len()), (2, 3), "E2 seed changed shape");
    let subset: Vec<_> = live.into_iter().chain(inert).collect();

    let mut writer = JournalWriter::create(&path, &protocol).unwrap();
    runner.run_e2_journaled(&subset, &mut writer).unwrap();
    drop(writer);

    let journal = Journal::load(&path).unwrap();
    let mut pruned = 0u64;
    let mut cases_with_pruned: Vec<usize> = Vec::new();
    for record in &journal.records {
        assert_eq!(record.campaign, CampaignKind::E2);
        let flip = errors[record.error_number - 1].flip;
        if map.classify(flip).is_some() {
            pruned += 1;
            cases_with_pruned.push(record.case_index);
        }
    }
    cases_with_pruned.sort_unstable();
    cases_with_pruned.dedup();

    let snapshot = registry.snapshot();
    assert_eq!(journal.records.len(), 5 * 4);
    assert_eq!(pruned, 3 * 4);
    assert_eq!(snapshot.counter("campaign.prune.trials"), pruned);
    assert_eq!(
        snapshot.counter("campaign.prune.dead_stack")
            + snapshot.counter("campaign.prune.unread_ram"),
        pruned
    );
    assert_eq!(
        snapshot.counter("campaign.prune.references"),
        cases_with_pruned.len() as u64
    );
    // Pruned trials never execute, but they still count as trials.
    assert_eq!(
        snapshot.counter("campaign.trials"),
        journal.records.len() as u64
    );
}

/// Runs the `telemetry_check` binary, built on demand in this test's
/// profile, and returns what it printed and how it exited.
fn telemetry_check(args: &[&std::ffi::OsStr]) -> std::process::Output {
    let mut command = std::process::Command::new(env!("CARGO"));
    command
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["run", "--quiet", "--offline", "-p", "fic", "--bin"])
        .arg("telemetry_check");
    if !cfg!(debug_assertions) {
        command.arg("--release");
    }
    command.arg("--").args(args).output().unwrap()
}

/// `telemetry_check --journal` fails a report whose prune counters
/// were zeroed. Checkpointed campaigns always prune, so all-zero prune
/// counters against a journal holding prunable trials are a silent
/// miss, never a pruning-off run to skip.
#[test]
fn zeroed_prune_counters_fail_the_journal_check() {
    let dir = temp_dir("zeroed-prune");
    let journal_path = dir.join("campaign.jsonl");
    let protocol = small_protocol();
    let registry = Arc::new(Registry::new());
    let runner = CampaignRunner::new(protocol.clone()).with_telemetry(Arc::clone(&registry));
    let subset = &error_set::e2()[..6];
    let map = fic::InertMap::new();
    assert!(
        subset.iter().any(|e| map.classify(e.flip).is_some()),
        "the slice must hold prunable errors"
    );
    let mut writer = JournalWriter::create(&journal_path, &protocol).unwrap();
    runner.run_e2_journaled(subset, &mut writer).unwrap();
    drop(writer);

    let mut report = telemetry::TelemetryReport::assemble(
        "full_campaign",
        telemetry::RunMetadata::for_run(&protocol, true, None),
        registry.snapshot(),
    );
    let fresh = telemetry::write_report(&dir, "fresh", &report).unwrap();
    for (name, value) in report.snapshot.counters.iter_mut() {
        if name.starts_with("campaign.prune.") {
            *value = 0;
        }
    }
    let zeroed = telemetry::write_report(&dir, "zeroed", &report).unwrap();

    let check = |report: &std::path::Path| {
        telemetry_check(&[
            "--report".as_ref(),
            report.as_os_str(),
            "--journal".as_ref(),
            journal_path.as_os_str(),
        ])
    };
    let passed = check(&fresh);
    assert!(
        passed.status.success(),
        "the fresh report must pass: {}",
        String::from_utf8_lossy(&passed.stderr)
    );
    let failed = check(&zeroed);
    let stderr = String::from_utf8_lossy(&failed.stderr);
    assert!(
        !failed.status.success(),
        "zeroed prune counters must fail the check; stdout: {}",
        String::from_utf8_lossy(&failed.stdout)
    );
    assert!(stderr.contains("PRUNE MISMATCH"), "{stderr}");
}

/// Shards partition the grid: disjoint, exhaustive, and their merged
/// reports equal the unsharded campaign exactly.
#[test]
fn shard_union_equals_unsharded_run() {
    let protocol = small_protocol();
    let subset = &error_set::e1()[40..44];
    let full = CampaignRunner::new(protocol.clone()).run_e1(subset);

    let count = 3;
    let mut union = E1Report::new();
    let mut total_trials = 0;
    for index in 1..=count {
        let shard = CampaignRunner::new(protocol.clone())
            .with_shard(index, count)
            .run_e1(subset);
        total_trials += shard.trials();
        union.merge(&shard);
    }
    assert_eq!(total_trials, full.trials(), "shards must not overlap");
    assert_eq!(
        serde_json::to_string_pretty(&union).unwrap(),
        serde_json::to_string_pretty(&full).unwrap(),
        "merged shard reports must equal the unsharded report"
    );
}

/// Sharded journals merge into one journal that replays to the full
/// answer; the merged journal carries no shard marker, so an unsharded
/// resume accepts it and finds nothing left to run.
#[test]
fn merged_shard_journals_replay_to_full_report() {
    let dir = temp_dir("merge");
    let protocol = small_protocol();
    let subset = &error_set::e1()[10..13];
    let full = CampaignRunner::new(protocol.clone()).run_e1(subset);

    let count = 2;
    let mut paths = Vec::new();
    for index in 1..=count {
        let path = dir.join(format!("shard{index}.jsonl"));
        let spec = ShardSpec { index, count };
        let mut writer = JournalWriter::create_sharded(&path, &protocol, Some(spec)).unwrap();
        CampaignRunner::new(protocol.clone())
            .with_shard(index, count)
            .run_e1_journaled(subset, &mut writer)
            .unwrap();
        drop(writer);
        paths.push(path);
    }

    let merged = journal::merge(&paths).unwrap();
    assert_eq!(merged.records.len(), 3 * 4);
    assert!(merged.header.shard.is_none());
    let merged_path = dir.join("merged.jsonl");
    merged.write_to(&merged_path).unwrap();

    let resumed = CampaignRunner::new(protocol.clone())
        .resume_e1(subset, &merged_path)
        .unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&resumed).unwrap(),
        serde_json::to_string_pretty(&full).unwrap(),
        "replaying merged shards must reproduce the unsharded report"
    );

    // Merging the same shard twice is refused (double-counting guard).
    let twice = vec![paths[0].clone(), paths[0].clone()];
    assert!(journal::merge(&twice).is_err());

    // Merging is idempotent over an already-merged journal.
    let again = journal::merge(std::slice::from_ref(&merged_path)).unwrap();
    assert_eq!(again.records.len(), merged.records.len());
}

/// A sharded runner refuses to resume from a journal written by a
/// different shard (or an unsharded run): silent partial replays would
/// corrupt the campaign.
#[test]
fn shard_mismatch_is_rejected_on_resume() {
    let dir = temp_dir("mismatch");
    let protocol = small_protocol();
    let subset = &error_set::e1()[..2];

    let path = dir.join("shard1.jsonl");
    let spec = ShardSpec { index: 1, count: 2 };
    let mut writer = JournalWriter::create_sharded(&path, &protocol, Some(spec)).unwrap();
    CampaignRunner::new(protocol.clone())
        .with_shard(1, 2)
        .run_e1_journaled(subset, &mut writer)
        .unwrap();
    drop(writer);

    // Same shard resumes fine.
    assert!(CampaignRunner::new(protocol.clone())
        .with_shard(1, 2)
        .resume_e1(subset, &path)
        .is_ok());
    // Wrong shard and unsharded both refuse.
    assert!(CampaignRunner::new(protocol.clone())
        .with_shard(2, 2)
        .resume_e1(subset, &path)
        .is_err());
    assert!(CampaignRunner::new(protocol)
        .resume_e1(subset, &path)
        .is_err());
}

/// The assembled report validates, round-trips through JSON with maps
/// as objects, and pins the schema version.
#[test]
fn telemetry_report_round_trips_and_validates() {
    let protocol = small_protocol();
    let registry = Arc::new(Registry::new());
    CampaignRunner::new(protocol.clone())
        .with_telemetry(Arc::clone(&registry))
        .run_e1(&error_set::e1()[..2]);

    let report = telemetry::TelemetryReport::assemble(
        "integration-test",
        telemetry::RunMetadata::for_run(&protocol, true, Some((2, 4))),
        registry.snapshot(),
    );
    report.validate().expect("assembled report must validate");
    assert_eq!(report.schema_version, telemetry::SCHEMA_VERSION);
    assert_eq!(report.run.shard.as_deref(), Some("2/4"));

    let json = serde_json::to_string_pretty(&report).unwrap();
    assert!(
        json.contains("\"campaign.trials\": 8"),
        "metric maps must serialize as JSON objects: {json}"
    );
    let back: telemetry::TelemetryReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.snapshot, report.snapshot);
    assert_eq!(back.run, report.run);
}
