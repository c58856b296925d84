//! Loopback fleet soak: a 3-worker in-process fleet — one of which is
//! killed mid-lease — must converge to byte-identical artefacts versus
//! the single-process reference.
//!
//! The run: a scaled campaign (6 E1 + 4 E2 errors on the 2 × 2 grid)
//! is served by a `fic::fleet::Server` on a loopback port. A doomed
//! worker registers first, takes the first lease, and drops its
//! connection without sending anything — the SIGKILL equivalent the
//! `--die-after-leases` hook implements — so its slice must be
//! released and reassigned. Two healthy workers then drain the queue.
//!
//! Compared against a single-process `CampaignRunner` reference run:
//!
//! * rendered Tables 6–9 (byte-identical strings and files);
//! * the attribution aggregate (in-memory, on-disk report inputs, and
//!   re-derived from the fleet journal);
//! * the journal replay (reports re-folded from disk);
//! * every result-derived telemetry counter and the deterministic
//!   histograms (wall-clock metrics excluded, as in
//!   `tests/batch_equivalence.rs`).

use std::path::PathBuf;
use std::sync::Arc;

use ea_repro::fic::attribution::aggregate_journal;
use ea_repro::fic::fleet::{
    run_worker, CampaignSpec, Server, ServerOptions, WorkerOptions, WorkerSummary,
};
use ea_repro::fic::journal::Journal;
use ea_repro::fic::telemetry::{Registry, TelemetrySnapshot};
use ea_repro::fic::{error_set, tables, CampaignRunner, JournalWriter, Protocol};

/// Result-derived counters that must agree between fleet and
/// reference; wall-clock histograms (queue wait, snapshot build,
/// journal flush) are observability, not results.
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
];

/// Histograms whose contents are a pure function of the trial results.
const COMPARED_HISTOGRAMS: &[&str] = &[
    "campaign.settle.stop_ms",
    "campaign.settle.captures",
    "campaign.e1.detection_latency_ms",
    "campaign.e2.detection_latency_ms",
];

const E1_LIMIT: usize = 6;
const E2_LIMIT: usize = 4;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ea-repro-fleet-eq-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn protocol() -> Protocol {
    let mut protocol = Protocol::scaled(2, 1_500);
    protocol.workers = 1;
    protocol
}

fn render_tables(
    e1: &ea_repro::fic::E1Report,
    e2: &ea_repro::fic::E2Report,
    cases: usize,
) -> String {
    let e1_errors = &error_set::e1()[..E1_LIMIT];
    format!(
        "{}\n{}\n{}\n{}",
        tables::render_table6(e1_errors, cases),
        tables::render_table7(e1),
        tables::render_table8(e1),
        tables::render_table9(e2),
    )
}

fn compared_counters(snapshot: &TelemetrySnapshot) -> Vec<(String, u64)> {
    COMPARED_COUNTERS
        .iter()
        .map(|&name| (name.to_owned(), snapshot.counter(name)))
        .collect()
}

fn compared_histograms(snapshot: &TelemetrySnapshot) -> Vec<String> {
    COMPARED_HISTOGRAMS
        .iter()
        .map(|&name| format!("{name}: {:?}", snapshot.histograms.get(name)))
        .collect()
}

#[test]
fn fleet_with_worker_death_matches_single_process_reference() {
    let dir = temp_dir("soak");
    let protocol = protocol();
    let cases = protocol.cases_per_error();
    let e1_errors = &error_set::e1()[..E1_LIMIT];
    let e2_errors = &error_set::e2()[..E2_LIMIT];

    // --- Single-process reference: journaled, attributed, telemetered.
    let ref_registry = Arc::new(Registry::new());
    let runner = CampaignRunner::new(protocol.clone())
        .with_telemetry(Arc::clone(&ref_registry))
        .with_attribution(true);
    let ref_journal_path = dir.join("reference.jsonl");
    let mut journal = JournalWriter::create(&ref_journal_path, &protocol).unwrap();
    let ref_e1 = runner.run_e1_journaled(e1_errors, &mut journal).unwrap();
    let ref_e2 = runner.run_e2_journaled(e2_errors, &mut journal).unwrap();
    journal.finish().unwrap();
    let ref_attribution = runner.attribution().unwrap().snapshot();
    let ref_telemetry = ref_registry.snapshot();
    let ref_tables = render_tables(&ref_e1, &ref_e2, cases);

    // --- The fleet: one server, one doomed worker, two healthy ones.
    let options = ServerOptions {
        listen: "127.0.0.1:0".to_owned(),
        lease_ms: 60_000,
        out_dir: dir.join("fleet-out"),
        journal_dir: Some(dir.join("fleet-journal")),
        once: true,
        ..ServerOptions::default()
    };
    let spec = CampaignSpec {
        name: "soak".to_owned(),
        protocol: protocol.clone(),
        e1_numbers: (1..=E1_LIMIT).collect(),
        e2_numbers: (1..=E2_LIMIT).collect(),
    };
    let server = Server::bind(options, vec![spec]).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let worker_options = |name: &str| WorkerOptions {
        connect: addr.clone(),
        name: name.to_owned(),
        threads: 1,
        ..WorkerOptions::default()
    };

    // The doomed worker takes the first lease and dies holding it:
    // its connection drops with nothing sent, so the server must
    // release the slice for reassignment.
    let doomed = run_worker(&WorkerOptions {
        die_after_leases: Some(1),
        ..worker_options("doomed")
    })
    .unwrap();
    assert!(doomed.died);
    assert_eq!(doomed.leases, 1);
    assert_eq!(doomed.slices_completed, 0, "a dead worker submits nothing");

    let healthy: Vec<std::thread::JoinHandle<WorkerSummary>> = (0..2)
        .map(|i| {
            let options = worker_options(&format!("healthy-{i}"));
            std::thread::spawn(move || run_worker(&options).unwrap())
        })
        .collect();
    let summaries: Vec<WorkerSummary> = healthy.into_iter().map(|h| h.join().unwrap()).collect();
    let summary = server_thread.join().unwrap();

    // The healthy pair did all the work, including the dead worker's
    // reassigned slice (8 slices: 4 cases × 2 kinds).
    let total_slices: u64 = summaries.iter().map(|s| s.slices_completed).sum();
    assert_eq!(total_slices, 8);
    let total_trials: u64 = summaries.iter().map(|s| s.trials).sum();
    assert_eq!(total_trials, (E1_LIMIT + E2_LIMIT) as u64 * cases as u64);

    assert_eq!(summary.campaigns.len(), 1);
    let outcome = &summary.campaigns[0];
    assert_eq!(outcome.trials, total_trials);

    // --- Tables 6–9: in-memory reports and the finalized files.
    let fleet_tables = render_tables(&outcome.e1_report, &outcome.e2_report, cases);
    assert_eq!(
        fleet_tables, ref_tables,
        "fleet tables diverge from the single-process reference"
    );
    for name in ["table6.txt", "table7.txt", "table8.txt", "table9.txt"] {
        assert!(
            outcome.out_dir.join(name).is_file(),
            "finalize must write {name}"
        );
    }
    let written: String = ["table6.txt", "table7.txt", "table8.txt", "table9.txt"]
        .iter()
        .map(|name| std::fs::read_to_string(outcome.out_dir.join(name)).unwrap())
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(written, ref_tables);

    // --- Attribution: server fold, journal re-derivation, reference.
    assert_eq!(outcome.attribution, ref_attribution);
    let fleet_journal = Journal::load(&outcome.journal_path).unwrap();
    assert_eq!(aggregate_journal(&fleet_journal).unwrap(), ref_attribution);

    // --- Journal replay: the fleet journal re-folds to the reference
    // reports, exactly like the reference journal does.
    let (replay_e1, replay_e2) = fleet_journal.replay().unwrap();
    assert_eq!(replay_e1, ref_e1);
    assert_eq!(replay_e2, ref_e2);
    let (ref_replay_e1, ref_replay_e2) =
        Journal::load(&ref_journal_path).unwrap().replay().unwrap();
    assert_eq!(ref_replay_e1, ref_e1);
    assert_eq!(ref_replay_e2, ref_e2);

    // --- Telemetry: result-derived counters and deterministic
    // histograms merge across workers to the single-process values.
    assert_eq!(
        compared_counters(&outcome.telemetry),
        compared_counters(&ref_telemetry)
    );
    assert_eq!(
        compared_histograms(&outcome.telemetry),
        compared_histograms(&ref_telemetry)
    );
}
