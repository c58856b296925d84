//! Snapshot tests pinning the exact rendered text of Tables 6–9 on a
//! tiny fixed campaign.
//!
//! The paper-protocol tables are pinned byte for byte against
//! `results/` by `tests/paper_campaign.rs`, which names the differing
//! files; these snapshots pin the table layout on a campaign small
//! enough to diff by eye, so any change to layout, headers, rounding or
//! cell formatting shows up as a readable diff against the committed
//! fixtures in `tests/fixtures/`.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test --test table_snapshots
//! ```

use std::path::PathBuf;

use ea_repro::fic::{error_set, tables, CampaignRunner, Protocol};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check_snapshot(name: &str, current: &str) {
    let path = fixture_path(name);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, current).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); run with UPDATE_SNAPSHOTS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        committed, current,
        "rendered {name} differs from the committed snapshot; if the change \
         is intentional, regenerate with UPDATE_SNAPSHOTS=1"
    );
}

/// The snapshot campaign: 2 × 2 grid, 1.5 s windows, single worker —
/// small enough for every test run, deterministic down to the byte.
fn snapshot_protocol() -> Protocol {
    let mut protocol = Protocol::scaled(2, 1_500);
    protocol.workers = 1;
    protocol
}

#[test]
fn tables_6_7_8_match_committed_snapshots() {
    // LSB and MSB of every monitored signal: 14 errors covering all
    // seven rows of Tables 7 and 8.
    let errors: Vec<_> = error_set::e1()
        .into_iter()
        .filter(|e| e.signal_bit == 0 || e.signal_bit == 15)
        .collect();
    let protocol = snapshot_protocol();
    let report = CampaignRunner::new(protocol.clone()).run_e1(&errors);

    check_snapshot(
        "table6.txt",
        &tables::render_table6(&errors, protocol.cases_per_error()),
    );
    check_snapshot("table7.txt", &tables::render_table7(&report));
    check_snapshot("table8.txt", &tables::render_table8(&report));
}

#[test]
fn table_9_matches_committed_snapshot() {
    // Every 25th E2 error: 8 errors spanning both memory regions.
    let errors: Vec<_> = error_set::e2().into_iter().step_by(25).collect();
    assert!(errors
        .iter()
        .any(|e| e.flip.region == ea_repro::memsim::Region::Stack));
    let report = CampaignRunner::new(snapshot_protocol()).run_e2(&errors);
    check_snapshot("table9.txt", &tables::render_table9(&report));
}
