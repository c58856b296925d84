//! Attribution end-to-end invariants.
//!
//! The attribution stream must be a pure observer (enabling it cannot
//! change any campaign report), a pure function of the trials (any
//! journal re-derives the exact aggregate, whatever the worker count or
//! resume point that produced it), and durable (oracle verdicts survive
//! the journal round trip). The committed full-grid artefacts must
//! decompose into the golden Tables 7–9 within Wilson-CI tolerance.

use std::path::{Path, PathBuf};

use fic::attribution::{self, AttributionReport, REGION_APP_RAM};
use fic::fleet::{CampaignSpec, Server, ServerOptions};
use fic::journal::{Journal, JournalWriter};
use fic::trace::ReferenceCache;
use fic::{error_set, CampaignRunner, E1Report, E2Report, Protocol};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ea-repro-attribution-test-{}-{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_protocol() -> Protocol {
    Protocol::scaled(2, 1_200)
}

/// Attribution is an observer only: the campaign reports with the sink
/// enabled are byte-identical to the bare run's, for both error sets.
#[test]
fn attribution_does_not_change_results() {
    let protocol = small_protocol();
    let e1 = &error_set::e1()[80..84];
    let e2 = &error_set::e2()[..3];

    let bare = CampaignRunner::new(protocol.clone());
    let instrumented = CampaignRunner::new(protocol).with_attribution(true);

    assert_eq!(
        serde_json::to_string_pretty(&bare.run_e1(e1)).unwrap(),
        serde_json::to_string_pretty(&instrumented.run_e1(e1)).unwrap(),
        "enabling attribution must not change the E1 report"
    );
    assert_eq!(
        serde_json::to_string_pretty(&bare.run_e2(e2)).unwrap(),
        serde_json::to_string_pretty(&instrumented.run_e2(e2)).unwrap(),
        "enabling attribution must not change the E2 report"
    );

    // The sink actually observed both campaigns.
    let aggregate = instrumented.attribution().unwrap().snapshot();
    assert_eq!(aggregate.e1_trials, (e1.len() * 4) as u64);
    assert_eq!(aggregate.e2_trials, (e2.len() * 4) as u64);
}

/// The folded aggregate does not depend on how many workers raced to
/// fill it — merge commutativity, exercised through the real fan-out.
#[test]
fn aggregate_is_worker_count_invariant() {
    let e1 = &error_set::e1()[..5];
    let e2 = &error_set::e2()[..3];
    let snapshot = |workers: usize| {
        let mut protocol = small_protocol();
        protocol.workers = workers;
        let runner = CampaignRunner::new(protocol).with_attribution(true);
        runner.run_e1(e1);
        runner.run_e2(e2);
        runner.attribution().unwrap().snapshot()
    };
    assert_eq!(
        snapshot(1),
        snapshot(4),
        "attribution must not depend on the worker count"
    );
}

/// Any journal re-derives the exact aggregate the live sink folded —
/// attribution events are a pure function of the journaled trials.
#[test]
fn journal_rederives_the_live_aggregate() {
    let path = temp_dir("rederive").join("campaign.jsonl");
    let protocol = small_protocol();
    let runner = CampaignRunner::new(protocol.clone()).with_attribution(true);

    let mut writer = JournalWriter::create(&path, &protocol).unwrap();
    runner
        .run_e1_journaled(&error_set::e1()[..4], &mut writer)
        .unwrap();
    runner
        .run_e2_journaled(&error_set::e2()[..3], &mut writer)
        .unwrap();
    drop(writer);

    let journal = Journal::load(&path).unwrap();
    assert!(
        journal.attribution.is_empty(),
        "a campaign journals trials only; its events re-derive from them"
    );
    let derived = attribution::aggregate_journal(&journal).unwrap();
    assert_eq!(
        derived,
        runner.attribution().unwrap().snapshot(),
        "journal must re-derive the live aggregate exactly"
    );
}

/// Resuming a partial journal replays the journaled trials into the
/// sink: the resumed aggregate equals a fresh full run's.
#[test]
fn resume_preserves_attribution() {
    let path = temp_dir("resume").join("campaign.jsonl");
    let protocol = small_protocol();
    let subset = &error_set::e1()[20..24];

    let mut writer = JournalWriter::create(&path, &protocol).unwrap();
    CampaignRunner::new(protocol.clone())
        .with_attribution(true)
        .run_e1_journaled(&subset[..2], &mut writer)
        .unwrap();
    drop(writer);

    let resumed = CampaignRunner::new(protocol.clone()).with_attribution(true);
    let report = resumed.resume_e1(subset, &path).unwrap();

    let fresh = CampaignRunner::new(protocol).with_attribution(true);
    let fresh_report = fresh.run_e1(subset);

    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        serde_json::to_string_pretty(&fresh_report).unwrap()
    );
    assert_eq!(
        resumed.attribution().unwrap().snapshot(),
        fresh.attribution().unwrap().snapshot(),
        "replayed + live trials must fold to the fresh aggregate"
    );
}

/// A differential-oracle verdict appended to the journal overlays the
/// re-derived event on the next load — enrichment survives the round
/// trip, and both a `--resume` and a fleet server restarted over the
/// enriched journal fold the verdict into their live aggregates too.
#[test]
fn oracle_verdicts_survive_the_journal_round_trip() {
    let dir = temp_dir("oracle");
    let path = dir.join("campaign.jsonl");
    let protocol = small_protocol();
    let errors = error_set::e2();
    let subset = &errors[..4];

    let mut writer = JournalWriter::create(&path, &protocol).unwrap();
    CampaignRunner::new(protocol.clone())
        .run_e2_journaled(subset, &mut writer)
        .unwrap();
    drop(writer);

    let journal = Journal::load(&path).unwrap();
    let mut events = attribution::events_from_journal(&journal).unwrap();
    let index = events
        .iter()
        .position(|e| e.region == REGION_APP_RAM && e.target_ea.is_none())
        .expect("subset contains an unmonitored-RAM trial");
    let error = errors
        .iter()
        .find(|e| e.number == events[index].error_number)
        .unwrap();

    let reference = ReferenceCache::new(protocol.clone());
    assert!(
        attribution::enrich_event(&mut events[index], error.flip, &reference),
        "enrichment must yield a verdict"
    );
    let verdict = events[index].propagation.clone().unwrap();

    let mut writer = JournalWriter::append_to(&path, &protocol).unwrap();
    writer.append_attribution(&events[index]).unwrap();
    writer.finish().unwrap();

    let reloaded = Journal::load(&path).unwrap();
    let overlaid = attribution::events_from_journal(&reloaded).unwrap();
    assert_eq!(
        overlaid[index].propagation.as_deref(),
        Some(verdict.as_str())
    );
    let aggregate = attribution::aggregate_journal(&reloaded).unwrap();
    assert_eq!(aggregate.oracle.enriched, 1);

    let resumed = CampaignRunner::new(protocol.clone()).with_attribution(true);
    resumed.resume_e2(subset, &path).unwrap();
    assert_eq!(
        resumed.attribution().unwrap().snapshot(),
        aggregate,
        "resume must replay the persisted verdict into the sink"
    );

    // The journal is complete, so the restarted server only folds it.
    let options = ServerOptions {
        listen: "127.0.0.1:0".to_owned(),
        out_dir: dir.join("fleet-out"),
        journal_dir: Some(dir.clone()),
        once: true,
        ..ServerOptions::default()
    };
    let spec = CampaignSpec {
        name: "campaign".to_owned(),
        protocol,
        e1_numbers: Vec::new(),
        e2_numbers: subset.iter().map(|e| e.number).collect(),
    };
    let summary = Server::bind(options, vec![spec]).unwrap().run().unwrap();
    assert_eq!(
        summary.campaigns[0].attribution, aggregate,
        "a fleet restart must replay the persisted verdict"
    );
}

/// Acceptance gate: the committed full-grid journal decomposes into
/// per-signal estimates whose recomposed `Pdetect` matches the golden
/// Tables 7–9 within Wilson-CI tolerance, and the committed attribution
/// report is exactly what that journal re-derives.
#[test]
fn committed_artifacts_match_the_golden_tables() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let journal = Journal::load(&root.join("results/campaign.jsonl")).unwrap();
    let aggregate = attribution::aggregate_journal(&journal).unwrap();

    let load = |path: &str| std::fs::read_to_string(root.join(path)).unwrap();
    let golden_e1: E1Report = serde_json::from_str(&load("results/golden/e1.json")).unwrap();
    let golden_e2: E2Report = serde_json::from_str(&load("results/golden/e2.json")).unwrap();

    let divergences = attribution::check_against_golden(&aggregate, &golden_e1, &golden_e2);
    assert!(
        divergences.is_empty(),
        "attribution diverges from the golden tables: {divergences:?}"
    );
    attribution::check_algebra(&aggregate).expect("recomposed Pdetect inside the Wilson interval");

    let report: AttributionReport =
        serde_json::from_str(&load("results/attribution/campaign.json")).unwrap();
    report.validate().expect("committed report must validate");
    assert_eq!(
        report.aggregate, aggregate,
        "committed report must equal the journal's re-derivation"
    );
}
