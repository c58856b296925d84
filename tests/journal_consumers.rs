//! Journal consumers facing damaged or repeated records, and
//! artefacts that cannot be written: the binaries that read a journal
//! resolve every record through `fic::journal::PaperErrors` /
//! `Journal::walk`, so an unknown error number fails (exit 1) with a
//! message naming it instead of a panic, and a repeated ⟨campaign,
//! error, case⟩ key counts once; `full_campaign` names the file it
//! could not write and exits 1. Every binary refuses a flag it does not
//! read (exit 2, naming the flag, with its own usage line) before it
//! writes anything.

use std::ffi::OsStr;
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

/// The protocol of `full_campaign --scale 1 --observation 15000`.
fn protocol() -> Protocol {
    Protocol::scaled(1, 15_000)
}

/// Writes a `--scale 1` journal holding `records` in order.
fn write_journal(path: &Path, records: &[(CampaignKind, usize, Trial)]) {
    let mut writer = JournalWriter::create(path, &protocol()).unwrap();
    for (campaign, number, trial) in records {
        writer.append(*campaign, *number, 0, trial).unwrap();
    }
    writer.finish().unwrap();
}

/// Runs one `fic` binary, built on demand in this test's profile.
fn run(bin: &str, args: &[&Path]) -> Output {
    run_in(Path::new(env!("CARGO_MANIFEST_DIR")), bin, args)
}

/// [`run`] with `dir` as the binary's working directory.
fn run_in(dir: &Path, bin: &str, args: &[&Path]) -> Output {
    let mut command = Command::new(env!("CARGO"));
    command.current_dir(dir).args([
        "run",
        "--quiet",
        "--offline",
        "--manifest-path",
        concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"),
        "-p",
        "fic",
        "--bin",
        bin,
    ]);
    if !cfg!(debug_assertions) {
        command.arg("--release");
    }
    command
        .arg("--")
        .args(args.iter().map(|a| a.as_os_str()))
        .output()
        .unwrap()
}

/// Asserts `out` exited 1, not with a panic, and that its stderr names
/// every one of `named`.
fn assert_fails_naming(out: &Output, named: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    for name in named {
        assert!(stderr.contains(name), "stderr must name {name}:\n{stderr}");
    }
}

fn arg(value: &str) -> &Path {
    Path::new(OsStr::new(value))
}

#[test]
fn telemetry_check_names_an_unknown_error_number_instead_of_panicking() {
    let dir = temp_dir("telemetry-check");
    let report = TelemetryReport::assemble(
        "test",
        RunMetadata::for_run(&protocol(), true, None),
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
            "telemetry_check",
            &[arg("--report"), &report_path, arg("--journal"), &journal],
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
        RunMetadata::for_run(&protocol(), true, None),
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
            "detox_report",
            &[
                journal,
                arg("--profile"),
                &profile_path,
                arg("--out"),
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

#[test]
fn full_campaign_names_an_unknown_error_number_instead_of_panicking() {
    let dir = temp_dir("full-campaign-unknown");
    let journal = dir.join("e2-999.jsonl");
    write_journal(
        &journal,
        &[
            (CampaignKind::E1, 1, trial(Some(0))),
            (CampaignKind::E2, 999, trial(None)),
        ],
    );
    let out = dir.join("out");
    let replay = run(
        "full_campaign",
        &[arg("--from-journal"), &journal, arg("--out"), &out],
    );
    let named = [journal.to_str().unwrap(), "unknown E2 error number 999"];
    assert_fails_naming(&replay, &named);
    let resume = run(
        "full_campaign",
        &[
            arg("--scale"),
            arg("1"),
            arg("--observation"),
            arg("15000"),
            arg("--journal"),
            &journal,
            arg("--resume"),
            arg("--out"),
            &out,
        ],
    );
    assert_fails_naming(&resume, &named);
    assert!(
        !out.join("e1.json").exists(),
        "a failed run writes no tables"
    );
}

#[test]
fn full_campaign_names_an_artefact_it_cannot_write() {
    let dir = temp_dir("full-campaign-unwritable");
    let journal = dir.join("campaign.jsonl");
    write_journal(
        &journal,
        &[
            (CampaignKind::E1, 1, trial(Some(0))),
            (CampaignKind::E2, 1, trial(None)),
        ],
    );
    // A directory where the E1 report goes, then a file where the
    // attribution reports go.
    let blocked_file = dir.join("blocked-file");
    std::fs::create_dir_all(blocked_file.join("e1.json")).unwrap();
    let blocked_dir = dir.join("blocked-dir");
    std::fs::create_dir_all(&blocked_dir).unwrap();
    std::fs::write(blocked_dir.join("attribution"), "a file, not a directory").unwrap();
    for (out, named) in [
        (&blocked_file, blocked_file.join("e1.json")),
        (&blocked_dir, blocked_dir.join("attribution")),
    ] {
        let replay = run(
            "full_campaign",
            &[arg("--from-journal"), &journal, arg("--out"), out],
        );
        assert_fails_naming(&replay, &[named.to_str().unwrap()]);
    }
}

/// Every binary refuses a flag it does not read — including flags
/// another binary reads, which `fic::cli` once accepted and ignored —
/// with exit 2, the flag named, its own usage line, and nothing
/// written to its working directory.
#[test]
fn every_binary_refuses_a_flag_it_does_not_read() {
    let cases: [(&str, &[&str], &str); 11] = [
        ("full_campaign", &["--shard", "0/2"], "--shard"),
        ("figures", &["--check-golden"], "--check-golden"),
        ("calibrate", &["--workers", "2"], "--workers"),
        ("ablation_recovery", &["--resume"], "--resume"),
        ("trace_diff", &["--scale", "0"], "--scale"),
        ("attribution_report", &["j.jsonl", "--bogus"], "--bogus"),
        (
            "telemetry_check",
            &["--report", "r.json", "--out", "o"],
            "--out",
        ),
        (
            "detox_report",
            &["j.jsonl", "--profile", "p.json", "--scale", "2"],
            "--scale",
        ),
        ("fleet_server", &["--once", "--workers", "2"], "--workers"),
        ("fleet_worker", &["--scale", "2"], "--scale"),
        ("trace_export", &["--bogus"], "--bogus"),
    ];
    for (bin, args, flag) in cases {
        let dir = temp_dir(&format!("refuses-{bin}"));
        let args: Vec<&Path> = args.iter().map(|a| arg(a)).collect();
        let out = run_in(&dir, bin, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: stderr:\n{stderr}");
        assert!(stderr.contains(flag), "{bin} must name {flag}:\n{stderr}");
        let usage = fic::cli::ALL
            .iter()
            .find(|cli| cli.bin() == bin)
            .expect("every binary declares its command line")
            .usage();
        assert!(
            stderr.lines().any(|line| line == usage),
            "{bin} must print `{usage}`:\n{stderr}"
        );
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(written.is_empty(), "{bin} wrote {written:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
