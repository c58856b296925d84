//! Observer-equivalence gate for the convergence monitor: streaming
//! Wilson-CI coverage estimation must be a pure observer — enabling it
//! cannot move a single result bit.
//!
//! Pinned differentially, the same way telemetry, attribution and the
//! PR 9 profiler were when they landed:
//!
//! * a journaled campaign with a convergence sink produces
//!   byte-identical journal, reports and attribution versus the bare
//!   run, while the sink's aggregate equals the journal's replayed
//!   reports folded by `ConvergenceAggregate::from_reports` and the
//!   aggregate of the report `full_campaign` writes —
//!   `results/convergence/*.json` is a pure function of the journal;
//! * a fleet run finalizes a valid convergence artefact whose
//!   aggregate re-derives exactly from the fleet journal, next to
//!   tables identical to a single-process run's.

use std::path::PathBuf;
use std::sync::Arc;

use ea_repro::fic::campaign::ConvergenceSink;
use ea_repro::fic::convergence::{ConvergenceAggregate, ConvergenceReport};
use ea_repro::fic::fleet::{run_worker, CampaignSpec, Server, ServerOptions, WorkerOptions};
use ea_repro::fic::journal::Journal;
use ea_repro::fic::results::{self, CampaignFold};
use ea_repro::fic::{error_set, tables, CampaignRunner, JournalWriter, Protocol};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ea-repro-conv-eq-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn protocol() -> Protocol {
    let mut protocol = Protocol::scaled(2, 1_200);
    protocol.workers = 1;
    protocol
}

/// The convergence sink is an observer: journal bytes, reports and the
/// attribution aggregate are identical with it on or off — and its
/// fold equals the journal re-derivation and the written report, so
/// the persisted artefact is a pure function of the journaled trials.
#[test]
fn convergence_is_a_pure_observer() {
    let dir = temp_dir("observer");
    let protocol = protocol();
    let e1_errors = &error_set::e1()[..6];
    let e2_errors = &error_set::e2()[..4];

    let run = |label: &str, sink: Option<Arc<ConvergenceSink>>| {
        let mut runner = CampaignRunner::new(protocol.clone()).with_attribution(true);
        if let Some(sink) = sink {
            runner = runner.with_convergence(sink);
        }
        let path = dir.join(format!("{label}.jsonl"));
        let mut journal = JournalWriter::create(&path, &protocol).unwrap();
        let e1 = runner.run_e1_journaled(e1_errors, &mut journal).unwrap();
        let e2 = runner.run_e2_journaled(e2_errors, &mut journal).unwrap();
        journal.finish().unwrap();
        let attribution = runner.attribution().unwrap().snapshot();
        (std::fs::read(&path).unwrap(), e1, e2, attribution, path)
    };

    let sink = Arc::new(ConvergenceSink::new());
    let (bare_journal, bare_e1, bare_e2, bare_attr, _) = run("bare", None);
    let (conv_journal, conv_e1, conv_e2, conv_attr, journal_path) =
        run("monitored", Some(Arc::clone(&sink)));

    assert_eq!(
        bare_journal, conv_journal,
        "the convergence monitor must not change journal bytes"
    );
    assert_eq!(bare_e1, conv_e1);
    assert_eq!(bare_e2, conv_e2);
    assert_eq!(bare_attr, conv_attr);

    // Three routes, one aggregate: the sink's incremental fold, the
    // journal's replayed reports, and the report the campaign binary
    // writes from its final reports.
    let aggregate = sink.snapshot();
    let journal = Journal::load(&journal_path).unwrap();
    let replayed = CampaignFold::from_journal(&journal).unwrap();
    assert_eq!(
        aggregate,
        ConvergenceAggregate::from_reports(&replayed.e1, &replayed.e2)
    );
    let cases = protocol.cases_per_error() as u64;
    assert_eq!(aggregate.e1_trials(), e1_errors.len() as u64 * cases);
    assert_eq!(aggregate.e2_trials(), e2_errors.len() as u64 * cases);

    let mut fold = CampaignFold::new();
    (fold.e1, fold.e2) = (conv_e1, conv_e2);
    results::write_artefacts(
        &dir, "conv-eq", "conv-eq", &protocol, e1_errors, &fold, None, None,
    )
    .expect("artefacts written");
    let written = dir.join("convergence").join("conv-eq.json");
    let report: ConvergenceReport =
        serde_json::from_str(&std::fs::read_to_string(written).unwrap()).unwrap();
    report.validate().unwrap();
    assert_eq!(report.producer, "conv-eq");
    assert_eq!(
        report.aggregate, aggregate,
        "the written artefact must equal the journal re-derivation"
    );
}

/// The fleet server derives convergence from the same folded reports
/// as every other producer: the finalized artefact validates and
/// re-derives from the fleet journal, and the fleet's tables are
/// identical to a single-process run of the same grid.
#[test]
fn fleet_serves_coverage() {
    let protocol = protocol();
    let e1_limit = 4usize;
    let e2_limit = 2usize;

    let dir = temp_dir("fleet");
    let options = ServerOptions {
        listen: "127.0.0.1:0".to_owned(),
        lease_ms: 60_000,
        out_dir: dir.join("out"),
        journal_dir: Some(dir.join("journal")),
        once: true,
        ..ServerOptions::default()
    };
    let spec = CampaignSpec {
        name: "conv".to_owned(),
        protocol: protocol.clone(),
        e1_numbers: (1..=e1_limit).collect(),
        e2_numbers: (1..=e2_limit).collect(),
    };
    let server = Server::bind(options, vec![spec]).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());
    run_worker(&WorkerOptions {
        connect: addr.to_string(),
        name: "conv-worker".to_owned(),
        threads: 1,
        ..WorkerOptions::default()
    })
    .unwrap();
    let summary = server_thread.join().unwrap();
    let outcome = &summary.campaigns[0];

    // The same tables as a single-process run of the same grid.
    let runner = CampaignRunner::new(protocol.clone());
    let e1 = runner.run_e1(&error_set::e1()[..e1_limit]);
    let e2 = runner.run_e2(&error_set::e2()[..e2_limit]);
    assert_eq!(
        tables::render_table7(&outcome.e1_report),
        tables::render_table7(&e1)
    );
    assert_eq!(
        tables::render_table9(&outcome.e2_report),
        tables::render_table9(&e2)
    );

    // The finalized artefact is a pure function of the fleet journal.
    let report_path = outcome
        .out_dir
        .join("convergence")
        .join("fleet_server.json");
    let report: ConvergenceReport =
        serde_json::from_str(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    report.validate().unwrap();
    let fold = CampaignFold::from_journal(&Journal::load(&outcome.journal_path).unwrap()).unwrap();
    assert_eq!(
        report.aggregate,
        ConvergenceAggregate::from_reports(&fold.e1, &fold.e2)
    );
    let cases = protocol.cases_per_error() as u64;
    assert_eq!(
        report.aggregate.trials(),
        (e1_limit + e2_limit) as u64 * cases
    );
}
