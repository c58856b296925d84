//! Observer-equivalence gate for this PR's observability additions:
//! per-assertion cost profiling and the fleet flight recorder must be
//! pure observers — enabling either cannot move a single result bit.
//!
//! Pinned differentially, the same way telemetry and attribution were
//! when they landed (`tests/telemetry.rs`, `tests/attribution.rs`):
//!
//! * a journaled campaign with a profile recorder produces byte-identical
//!   journal, reports and attribution versus the bare run, while the
//!   recorder accounts for every trial (executed + pruned);
//! * a fleet run with `--flight-recorder` produces byte-identical
//!   Tables 6–9 and journal-replayed reports versus one without, while
//!   writing a valid, exportable `trace/flight_log.json`.

use std::path::PathBuf;
use std::sync::Arc;

use ea_repro::fic::fleet::{
    run_worker, CampaignSpec, FlightLog, Server, ServerOptions, SpanKind, WorkerOptions,
};
use ea_repro::fic::journal::Journal;
use ea_repro::fic::profile::{self, ProfileRecorder, ProfileReport};
use ea_repro::fic::results::CampaignFold;
use ea_repro::fic::telemetry::RunMetadata;
use ea_repro::fic::{error_set, tables, CampaignRunner, JournalWriter, Protocol};

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ea-repro-profile-eq-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn protocol() -> Protocol {
    let mut protocol = Protocol::scaled(2, 1_200);
    protocol.workers = 1;
    protocol
}

/// The cost profiler is an observer: journal bytes, reports and the
/// attribution aggregate are identical with it on or off — and the
/// recorder's ledger accounts for every trial exactly once.
#[test]
fn profiling_is_a_pure_observer() {
    let dir = temp_dir("observer");
    let protocol = protocol();
    let e1_errors = &error_set::e1()[..6];
    let e2_errors = &error_set::e2()[..4];

    let run = |label: &str, recorder: Option<Arc<ProfileRecorder>>| {
        let mut runner = CampaignRunner::new(protocol.clone()).with_attribution(true);
        if let Some(recorder) = recorder {
            runner = runner.with_profile(recorder);
        }
        let path = dir.join(format!("{label}.jsonl"));
        let mut journal = JournalWriter::create(&path, &protocol).unwrap();
        let e1 = runner.run_e1_journaled(e1_errors, &mut journal).unwrap();
        let e2 = runner.run_e2_journaled(e2_errors, &mut journal).unwrap();
        journal.finish().unwrap();
        let attribution = runner.attribution().unwrap().snapshot();
        (std::fs::read(path).unwrap(), e1, e2, attribution)
    };

    let recorder = Arc::new(ProfileRecorder::new());
    let (bare_journal, bare_e1, bare_e2, bare_attr) = run("bare", None);
    let (prof_journal, prof_e1, prof_e2, prof_attr) = run("profiled", Some(Arc::clone(&recorder)));

    assert_eq!(
        bare_journal, prof_journal,
        "profiling must not change journal bytes"
    );
    assert_eq!(bare_e1, prof_e1);
    assert_eq!(bare_e2, prof_e2);
    assert_eq!(bare_attr, prof_attr);

    // Every grid trial is in the ledger exactly once: executed trials
    // carry check counts, pruned trials carry none.
    let cases = protocol.cases_per_error() as u64;
    let grid = (e1_errors.len() + e2_errors.len()) as u64 * cases;
    assert_eq!(recorder.trials() + recorder.pruned_trials(), grid);
    assert!(recorder.trials() > 0, "some trials must execute");
    assert!(
        recorder.checks().iter().any(|&c| c > 0),
        "executed trials must contribute checks"
    );

    // The ledger assembles into a valid, persistable, renderable report.
    let run_meta = RunMetadata::for_run(&protocol, true, None);
    let report = ProfileReport::assemble("profile-eq", run_meta, &recorder, None);
    report.validate().unwrap();
    let written = profile::write_report(&dir.join("profile"), "profile-eq", &report).unwrap();
    let back: ProfileReport =
        serde_json::from_str(&std::fs::read_to_string(written).unwrap()).unwrap();
    assert_eq!(back, report);
    let league = profile::render_league(&report);
    for ea in ["EA1", "EA2", "EA3", "EA4", "EA5", "EA6", "EA7"] {
        assert!(league.contains(ea), "league table must list {ea}");
    }
}

/// The flight recorder is an observer: a fleet run with it produces
/// byte-identical tables and replayed reports versus one without — and
/// a valid flight log whose spans cover the full slice lifecycle.
#[test]
fn flight_recorder_is_a_pure_observer() {
    let protocol = protocol();
    let cases = protocol.cases_per_error();
    let e1_limit = 4;
    let e2_limit = 2;

    let fleet = |label: &str, flight_recorder: bool| {
        let dir = temp_dir(label);
        let options = ServerOptions {
            listen: "127.0.0.1:0".to_owned(),
            lease_ms: 60_000,
            out_dir: dir.join("out"),
            journal_dir: Some(dir.join("journal")),
            once: true,
            flight_recorder,
            ..ServerOptions::default()
        };
        let spec = CampaignSpec {
            name: "flight".to_owned(),
            protocol: protocol.clone(),
            e1_numbers: (1..=e1_limit).collect(),
            e2_numbers: (1..=e2_limit).collect(),
        };
        let server = Server::bind(options, vec![spec]).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let server_thread = std::thread::spawn(move || server.run().unwrap());
        run_worker(&WorkerOptions {
            connect: addr,
            name: format!("{label}-worker"),
            threads: 1,
            ..WorkerOptions::default()
        })
        .unwrap();
        server_thread.join().unwrap()
    };

    let with_recorder = fleet("flight-on", true);
    let without = fleet("flight-off", false);

    let render = |outcome: &ea_repro::fic::fleet::CampaignOutcome| {
        format!(
            "{}\n{}\n{}",
            tables::render_table7(&outcome.e1_report),
            tables::render_table8(&outcome.e1_report),
            tables::render_table9(&outcome.e2_report),
        )
    };
    let on = &with_recorder.campaigns[0];
    let off = &without.campaigns[0];
    assert_eq!(
        render(on),
        render(off),
        "the flight recorder must not change the tables"
    );
    let fold = |path| CampaignFold::from_journal(&Journal::load(path).unwrap()).unwrap();
    let (on_fold, off_fold) = (fold(&on.journal_path), fold(&off.journal_path));
    assert_eq!(on_fold.e1, off_fold.e1);
    assert_eq!(on_fold.e2, off_fold.e2);

    // The recorded run wrote a valid flight log covering the whole
    // lifecycle; the bare run wrote none.
    let log_path = on.out_dir.join("trace").join("flight_log.json");
    let log: FlightLog =
        serde_json::from_str(&std::fs::read_to_string(&log_path).unwrap()).unwrap();
    log.validate().unwrap();
    let slices = (e1_limit + e2_limit) as u64 * cases as u64 / protocol.cases_per_error() as u64;
    assert!(slices >= 1);
    for kind in [
        SpanKind::Enqueued,
        SpanKind::Leased,
        SpanKind::Submitted,
        SpanKind::Folded,
    ] {
        assert!(
            log.events.iter().any(|e| e.kind == kind),
            "flight log must record {kind:?} transitions"
        );
    }
    assert!(log.events.iter().all(|e| e.campaign == "flight"));
    assert!(
        !off.out_dir.join("trace").join("flight_log.json").exists(),
        "no recorder, no artefact"
    );
}
