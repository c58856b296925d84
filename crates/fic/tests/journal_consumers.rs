//! Journal consumers facing damaged or repeated records: the binaries
//! that read a journal resolve every record through
//! `fic::journal::PaperErrors` / `Journal::walk`, so an unknown error
//! number fails with a message naming it instead of a panic, and a
//! repeated ⟨campaign, error, case⟩ key counts once.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use fic::journal::{CampaignKind, JournalWriter};
use fic::profile::{ProfileRecorder, ProfileReport};
use fic::telemetry::{Registry, RunMetadata, TelemetryReport};
use fic::{Protocol, Trial};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fic-journal-consumers-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn trial(detected_by: Option<usize>) -> Trial {
    let mut per_ea_first_ms = [None; 7];
    if let Some(ea) = detected_by {
        per_ea_first_ms[ea] = Some(60 + ea as u64);
    }
    Trial {
        failed: detected_by.is_none(),
        per_ea_first_ms,
        first_injection_ms: 20,
        final_distance_m: 200.0,
    }
}

/// Writes a `--scale 1` journal holding `records` in order.
fn write_journal(path: &Path, records: &[(CampaignKind, usize, Trial)]) {
    let mut writer = JournalWriter::create(path, &Protocol::scaled(1, 1_000)).unwrap();
    for (campaign, number, trial) in records {
        writer.append(*campaign, *number, 0, trial).unwrap();
    }
    writer.finish().unwrap();
}

fn run(bin: &str, args: &[&Path]) -> Output {
    Command::new(bin).args(args).output().unwrap()
}

#[test]
fn telemetry_check_names_an_unknown_error_number_instead_of_panicking() {
    let dir = temp_dir("telemetry-check");
    let report = TelemetryReport::assemble(
        "test",
        RunMetadata::for_run(&Protocol::scaled(1, 1_000), true, None),
        Registry::new().snapshot(),
    );
    let report_path = fic::telemetry::write_report(&dir, "report", &report).unwrap();
    for (campaign, number, named) in [
        (CampaignKind::E1, 0, "unknown E1 error number S0"),
        (CampaignKind::E2, 999, "unknown E2 error number 999"),
    ] {
        let journal = dir.join(format!("{}-{number}.jsonl", campaign.label()));
        write_journal(
            &journal,
            &[
                (CampaignKind::E1, 1, trial(Some(0))),
                (campaign, number, trial(None)),
            ],
        );
        let out = run(
            env!("CARGO_BIN_EXE_telemetry_check"),
            &[
                Path::new("--report"),
                &report_path,
                Path::new("--journal"),
                &journal,
            ],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        let code = out.status.code();
        assert!(
            code.is_some_and(|c| c != 0 && c != 101),
            "exit {code:?}, stderr:\n{stderr}"
        );
        assert!(
            stderr.contains(named),
            "stderr must name {named}:\n{stderr}"
        );
    }
}

#[test]
fn detox_report_counts_a_duplicated_record_once() {
    let dir = temp_dir("detox");
    let profile = ProfileReport::assemble(
        "test",
        RunMetadata::for_run(&Protocol::scaled(1, 1_000), true, None),
        &ProfileRecorder::new(),
        None,
    );
    let profile_path = dir.join("profile.json");
    std::fs::write(
        &profile_path,
        serde_json::to_string_pretty(&profile).unwrap(),
    )
    .unwrap();
    let records = [
        (CampaignKind::E1, 1, trial(Some(0))),
        (CampaignKind::E1, 2, trial(None)),
        (CampaignKind::E1, 17, trial(Some(1))),
        (CampaignKind::E2, 1, trial(Some(3))),
    ];
    let clean = dir.join("clean.jsonl");
    write_journal(&clean, &records);
    // A crash/retry can repeat a key; the repeat here even disagrees,
    // and the first trial must win.
    let mut repeated = records.to_vec();
    repeated.push((CampaignKind::E1, 1, trial(None)));
    let duplicated = dir.join("duplicated.jsonl");
    write_journal(&duplicated, &repeated);

    let detox = |journal: &Path, out: &str| {
        let out_dir = dir.join(out);
        let output = run(
            env!("CARGO_BIN_EXE_detox_report"),
            &[
                journal,
                Path::new("--profile"),
                &profile_path,
                Path::new("--out"),
                &out_dir,
            ],
        );
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let artefact = std::fs::read_to_string(out_dir.join("detox_report.json")).unwrap();
        (String::from_utf8(output.stdout).unwrap(), artefact)
    };
    let (clean_table, clean_artefact) = detox(&clean, "clean-out");
    let (dup_table, dup_artefact) = detox(&duplicated, "duplicated-out");
    assert!(clean_table.contains("over 4 trial(s)"), "{clean_table}");
    assert_eq!(dup_table, clean_table);
    assert_eq!(dup_artefact, clean_artefact);
}
