//! Checkpoint/resume equivalence: a campaign killed mid-flight and
//! resumed from its journal must produce results byte-identical to the
//! uninterrupted campaign — including when the kill tore the final
//! journal line in half.

use std::path::PathBuf;

use fic::campaign::DEFAULT_BATCH_SIZE;
use fic::journal::{CampaignKind, Journal, JournalWriter};
use fic::results::CampaignFold;
use fic::{error_set, CampaignRunner, InertMap, Protocol};

fn temp_journal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ea-repro-resume-test-{}-{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("campaign.jsonl")
}

fn small_protocol() -> Protocol {
    Protocol::scaled(2, 1_200)
}

/// Kills the campaign "at ~50%": keeps the header and the first half of
/// the records, then appends `tail` (e.g. a torn half-record).
fn truncate_journal(path: &PathBuf, tail: &str) {
    let content = std::fs::read_to_string(path).unwrap();
    let lines: Vec<&str> = content.lines().collect();
    let keep = 1 + (lines.len() - 1) / 2;
    let mut cut = lines[..keep].join("\n");
    cut.push('\n');
    cut.push_str(tail);
    std::fs::write(path, cut).unwrap();
}

#[test]
fn resumed_e1_campaign_is_byte_identical() {
    let path = temp_journal("e1");
    let protocol = small_protocol();
    let runner = CampaignRunner::new(protocol.clone());
    let errors = error_set::e1();
    let subset = &errors[80..84]; // 4 errors × 4 cases = 16 trials

    let uninterrupted = runner.run_e1(subset);

    let mut writer = JournalWriter::create(&path, &protocol).unwrap();
    let journaled = runner.run_e1_journaled(subset, &mut writer).unwrap();
    drop(writer);
    assert_eq!(journaled, uninterrupted);

    // Kill at ~50% with a torn trailing line, then resume.
    truncate_journal(&path, "{\"campaign\":\"E1\",\"error_number\":83,\"case_");
    let resumed = runner.resume(subset, &[], &path).unwrap().e1;

    let fresh_bytes = serde_json::to_string_pretty(&uninterrupted).unwrap();
    let resumed_bytes = serde_json::to_string_pretty(&resumed).unwrap();
    assert_eq!(
        fresh_bytes, resumed_bytes,
        "resumed E1 report must be byte-identical"
    );

    // The journal is whole again and contains each key exactly once.
    let journal = Journal::load(&path).unwrap();
    assert!(!journal.truncated_tail);
    let mut keys: Vec<_> = journal
        .records
        .iter()
        .map(|r| (r.error_number, r.case_index))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), 4 * 4);
}

/// A journal written by a campaign that ran one static slice of the
/// grid (the removed `--shard 1/2`) names that slice in its header and
/// holds the pairs whose canonical index `ei · cases + ci` is even. The
/// header key is ignored on load, so the journal is a partial one, and
/// resuming it completes the unsharded report.
#[test]
fn old_sharded_journal_resumes_to_the_unsharded_report() {
    let path = temp_journal("old-shard");
    let protocol = small_protocol();
    let runner = CampaignRunner::new(protocol.clone());
    let subset = &error_set::e1()[40..44];
    let cases = protocol.cases_per_error();
    let uninterrupted = runner.run_e1(subset);

    let mut writer = JournalWriter::create(&path, &protocol).unwrap();
    runner.run_e1_journaled(subset, &mut writer).unwrap();
    drop(writer);
    let content = std::fs::read_to_string(&path).unwrap();
    let mut lines = content.lines();
    let header = lines.next().unwrap();
    let header = format!(
        "{},\"shard\":{{\"index\":1,\"count\":2}}}}",
        header.strip_suffix('}').unwrap()
    );
    let mut old = header + "\n";
    for line in lines {
        let record: fic::TrialRecord = serde_json::from_str(line).unwrap();
        let ei = subset
            .iter()
            .position(|e| e.number == record.error_number)
            .unwrap();
        if (ei * cases + record.case_index).is_multiple_of(2) {
            old.push_str(line);
            old.push('\n');
        }
    }
    std::fs::write(&path, old).unwrap();
    let partial = Journal::load(&path).unwrap();
    assert_eq!(partial.records.len(), subset.len() * cases / 2);

    let resumed = runner.resume(subset, &[], &path).unwrap().e1;
    assert_eq!(
        serde_json::to_string_pretty(&resumed).unwrap(),
        serde_json::to_string_pretty(&uninterrupted).unwrap(),
        "resuming a half-grid journal must complete the unsharded report"
    );
    assert_eq!(
        Journal::load(&path).unwrap().records.len(),
        subset.len() * cases
    );
}

#[test]
fn resumed_e2_campaign_is_byte_identical() {
    let path = temp_journal("e2");
    let protocol = small_protocol();
    let runner = CampaignRunner::new(protocol.clone());
    let errors = error_set::e2();
    let subset = &errors[..4];

    let uninterrupted = runner.run_e2(subset);
    let mut writer = JournalWriter::create(&path, &protocol).unwrap();
    let _ = runner.run_e2_journaled(subset, &mut writer).unwrap();
    drop(writer);

    truncate_journal(&path, "{\"not even\": \"a record");
    let resumed = runner.resume(&[], subset, &path).unwrap().e2;
    assert_eq!(
        serde_json::to_string_pretty(&uninterrupted).unwrap(),
        serde_json::to_string_pretty(&resumed).unwrap(),
        "resumed E2 report must be byte-identical"
    );
}

#[test]
fn tables_from_resumed_journal_match_uninterrupted() {
    // The acceptance path: kill at ~50%, resume, regenerate the tables
    // from the journal — text identical to the uninterrupted run's.
    let path = temp_journal("tables");
    let protocol = small_protocol();
    let runner = CampaignRunner::new(protocol.clone());
    let e1_errors: Vec<_> = error_set::e1()[..4].to_vec();
    let e2_errors: Vec<_> = error_set::e2()[..3].to_vec();

    let e1_full = runner.run_e1(&e1_errors);
    let e2_full = runner.run_e2(&e2_errors);

    let mut writer = JournalWriter::create(&path, &protocol).unwrap();
    runner.run_e1_journaled(&e1_errors, &mut writer).unwrap();
    runner.run_e2_journaled(&e2_errors, &mut writer).unwrap();
    drop(writer);
    truncate_journal(&path, "");

    let resumed = runner.resume(&e1_errors, &e2_errors, &path).unwrap();
    let (e1_resumed, e2_resumed) = (resumed.e1, resumed.e2);

    assert_eq!(
        fic::tables::render_table7(&e1_full),
        fic::tables::render_table7(&e1_resumed)
    );
    assert_eq!(
        fic::tables::render_table8(&e1_full),
        fic::tables::render_table8(&e1_resumed)
    );
    assert_eq!(
        fic::tables::render_table9(&e2_full),
        fic::tables::render_table9(&e2_resumed)
    );
}

/// Kills the campaign mid-*case*: keeps the header plus the first
/// `keep` records — deliberately not a whole-case multiple — then
/// appends `tail`.
fn truncate_after_records(path: &PathBuf, keep: usize, tail: &str) {
    let content = std::fs::read_to_string(path).unwrap();
    let lines: Vec<&str> = content.lines().collect();
    let mut cut = lines[..=keep].join("\n");
    cut.push('\n');
    cut.push_str(tail);
    std::fs::write(path, cut).unwrap();
}

#[test]
fn batched_resume_after_mid_case_kill_is_byte_identical() {
    // The lockstep executor runs per-case work items; a resume after
    // a kill *inside* a case hands it a partial item (some trials of
    // the case already journaled). The resumed run must still be
    // byte-identical to the uninterrupted run — reports, journal bytes
    // (1 worker), and replay.
    let path = temp_journal("batched-mid-case");
    let mut protocol = small_protocol();
    protocol.workers = 1; // deterministic journal append order
    let runner = CampaignRunner::new(protocol.clone());
    let errors = error_set::e1();
    let subset = &errors[30..34]; // 4 errors × 4 cases = 16 trials

    let uninterrupted = runner.run_e1(subset);
    let mut writer = JournalWriter::create(&path, &protocol).unwrap();
    let journaled = runner.run_e1_journaled(subset, &mut writer).unwrap();
    drop(writer);
    assert_eq!(journaled, uninterrupted);
    let uninterrupted_bytes = std::fs::read(&path).unwrap();

    // Kill after 6 records: case 0 complete (4 trials in (case, error)
    // order at 1 worker), case 1 torn at 2 of 4, plus a half-written
    // trailing line.
    truncate_after_records(&path, 6, "{\"campaign\":\"E1\",\"error_number\":3");
    let resumed = runner.resume(subset, &[], &path).unwrap().e1;
    assert_eq!(
        serde_json::to_string_pretty(&uninterrupted).unwrap(),
        serde_json::to_string_pretty(&resumed).unwrap(),
        "batched resumed E1 report must be byte-identical"
    );

    // At one worker the lockstep executor completes trials in
    // (case, error) order, and the resume's pending pairs are the
    // exact sorted remainder — so even the journal file is restored
    // byte for byte.
    assert_eq!(std::fs::read(&path).unwrap(), uninterrupted_bytes);
    let journal = Journal::load(&path).unwrap();
    assert!(!journal.truncated_tail);
    assert_eq!(
        CampaignFold::from_journal(&journal).unwrap().e1,
        uninterrupted
    );

    // Same drill on E2 with a split case: nine live errors per case run
    // as work items of DEFAULT_BATCH_SIZE (8) live lanes + 1, the first
    // carrying the pruned errors between its live ones, and the kill
    // lands inside case 0's first item.
    let e2_path = temp_journal("batched-mid-case-e2");
    let e2_runner = CampaignRunner::new(protocol.clone());
    let e2_subset = &error_set::e2()[16..56];
    let map = InertMap::new();
    let live = e2_subset
        .iter()
        .filter(|e| map.classify(e.flip).is_none())
        .count();
    assert_eq!(live, DEFAULT_BATCH_SIZE + 1, "live E2 errors per case");
    let e2_uninterrupted = e2_runner.run_e2(e2_subset);
    let mut writer = JournalWriter::create(&e2_path, &protocol).unwrap();
    e2_runner.run_e2_journaled(e2_subset, &mut writer).unwrap();
    drop(writer);
    truncate_after_records(&e2_path, 5, "");
    let e2_resumed = e2_runner.resume(&[], e2_subset, &e2_path).unwrap().e2;
    assert_eq!(
        serde_json::to_string_pretty(&e2_uninterrupted).unwrap(),
        serde_json::to_string_pretty(&e2_resumed).unwrap(),
        "batched resumed E2 report must be byte-identical"
    );
}

#[test]
fn corrupt_trailing_line_is_tolerated_but_midfile_corruption_is_not() {
    let path = temp_journal("corruption");
    let protocol = small_protocol();
    let runner = CampaignRunner::new(protocol.clone());
    let errors = error_set::e1();
    let subset = &errors[0..2];

    let mut writer = JournalWriter::create(&path, &protocol).unwrap();
    runner.run_e1_journaled(subset, &mut writer).unwrap();
    drop(writer);

    // Trailing garbage (torn write): load succeeds, flag set.
    let mut content = std::fs::read_to_string(&path).unwrap();
    let intact_records = content.lines().count() - 1;
    content.push_str("{\"campaign\":\"E1\",\"err");
    std::fs::write(&path, &content).unwrap();
    let journal = Journal::load(&path).unwrap();
    assert!(journal.truncated_tail);
    assert_eq!(journal.records.len(), intact_records);

    // The same garbage *mid-file* is real corruption: load must refuse.
    let lines: Vec<&str> = content.lines().collect();
    let mut reordered: Vec<&str> = Vec::new();
    reordered.extend(&lines[..2]);
    reordered.push("{\"campaign\":\"E1\",\"err");
    reordered.extend(&lines[2..lines.len() - 1]);
    std::fs::write(&path, reordered.join("\n")).unwrap();
    assert!(Journal::load(&path).is_err());

    // A journal recording a different trial key set is a mismatch, not
    // silently merged: resuming with a disjoint error subset fails.
    let mut writer = JournalWriter::create(&path, &protocol).unwrap();
    runner.run_e1_journaled(subset, &mut writer).unwrap();
    drop(writer);
    let other_subset = &errors[50..52];
    assert!(runner.resume(other_subset, &[], &path).is_err());

    // Journal streams are also campaign-kind safe: E1 records never
    // leak into an E2 resume (kind tags differ).
    let journal = Journal::load(&path).unwrap();
    assert!(journal
        .records
        .iter()
        .all(|r| r.campaign == CampaignKind::E1));
}

/// A crash can stop a record's write just before its newline. Such a
/// line parses, but it is not whole: the resume must re-run its trial,
/// because the writer cuts the line off before it appends. After the
/// resume the journal must fold to exactly the resumed reports, with
/// the cut record at the E1 tail and at the E2 tail alike.
#[test]
fn a_record_missing_only_its_newline_is_rerun_on_resume() {
    let protocol = small_protocol();
    let runner = CampaignRunner::new(protocol.clone());
    let e1_errors = &error_set::e1()[..3];
    let e2_errors = &error_set::e2()[..3];
    let uninterrupted = runner.run(e1_errors, e2_errors);
    let e1_records = e1_errors.len() * protocol.cases_per_error();

    for (name, keep) in [("e1-tail", e1_records / 2), ("e2-tail", e1_records + 5)] {
        let path = temp_journal(name);
        let mut writer = JournalWriter::create(&path, &protocol).unwrap();
        runner.run_e1_journaled(e1_errors, &mut writer).unwrap();
        runner.run_e2_journaled(e2_errors, &mut writer).unwrap();
        writer.finish().unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        std::fs::write(&path, lines[..=keep].join("\n")).unwrap();

        let resumed = runner.resume(e1_errors, e2_errors, &path).unwrap();
        assert_eq!(resumed.e1, uninterrupted.e1, "{name}");
        assert_eq!(resumed.e2, uninterrupted.e2, "{name}");
        let journal = Journal::load(&path).unwrap();
        assert!(!journal.truncated_tail, "{name}");
        let replayed = CampaignFold::from_journal(&journal).unwrap();
        assert_eq!(
            serde_json::to_string_pretty(&replayed.e1).unwrap(),
            serde_json::to_string_pretty(&resumed.e1).unwrap(),
            "{name}: the journal must replay to the resumed E1 report"
        );
        assert_eq!(
            serde_json::to_string_pretty(&replayed.e2).unwrap(),
            serde_json::to_string_pretty(&resumed.e2).unwrap(),
            "{name}: the journal must replay to the resumed E2 report"
        );
    }
}
