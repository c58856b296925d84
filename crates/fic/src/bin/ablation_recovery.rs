//! Recovery ablation: re-runs an E1-style campaign with the mechanisms'
//! recovery write-back enabled (paper §2's "the signal can be returned
//! to a valid state") and compares failure rates against the
//! detection-only configuration the paper evaluated.
//!
//! Uses the high-order bit errors (the failure-causing ones) of every
//! monitored signal. `--scale`/`--observation` shrink the run and
//! `--out <dir>` takes `recovery_study.json` (default `results`).

use std::path::PathBuf;

use fic::{cli, error_set, recovery_study};

fn main() {
    let (protocol, out_dir) = cli::ABLATION_RECOVERY.from_env(|args| {
        let out_dir: PathBuf = args.value("--out")?.unwrap_or_else(|| "results".into());
        let observation_ms = args.value("--observation")?;
        Ok((cli::protocol(args.scale()?, observation_ms, None), out_dir))
    });
    let errors: Vec<_> = error_set::e1()
        .into_iter()
        .filter(|e| e.signal_bit >= 12)
        .collect();
    eprintln!(
        "running {} errors x {} cases x 3 configurations...",
        errors.len(),
        protocol.cases_per_error()
    );
    let study = recovery_study::run_study(&protocol, &errors);
    print!("{}", recovery_study::render(&study));
    std::fs::create_dir_all(&out_dir).expect("create out dir");
    std::fs::write(
        out_dir.join("recovery_study.json"),
        serde_json::to_string_pretty(&study).unwrap(),
    )
    .expect("write recovery_study.json");
    let baseline = study.detection_only.failure_rate();
    let repaired = study.hold_previous.failure_rate();
    if baseline > 0.0 {
        println!(
            "\nhold-previous write-back removes {:.0}% of failures",
            (1.0 - repaired / baseline) * 100.0
        );
    }
}
