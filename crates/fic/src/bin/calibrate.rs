//! Parameter-calibration sweep (paper §2.2): how the rate-bound
//! tightness trades detection coverage against false positives on
//! fault-free runs. `--scale`/`--observation` shrink the run (the
//! window defaults to 15 s) and `--out <dir>` takes `calibration.json`
//! (default `results`).

use std::path::PathBuf;

use fic::{calibration, cli, error_set};

fn main() {
    let (protocol, out_dir) = cli::CALIBRATE.from_env(|args| {
        // The sweep needs only the arrestment phase, not the full 40 s.
        let observation_ms = args.value("--observation")?.unwrap_or(15_000);
        let out_dir: PathBuf = args.value("--out")?.unwrap_or_else(|| "results".into());
        Ok((
            cli::protocol(args.scale()?, Some(observation_ms), None),
            out_dir,
        ))
    });
    // Mid-bit errors of the continuous signals: the population the bound
    // position decides about (MSBs always fire, LSBs never do).
    let errors: Vec<_> = error_set::e1()
        .into_iter()
        .filter(|e| {
            matches!(
                e.ea,
                arrestor::EaId::Ea1 | arrestor::EaId::Ea2 | arrestor::EaId::Ea7
            ) && (8..=12).contains(&e.signal_bit)
        })
        .collect();
    let scales = [10u16, 25, 50, 75, 100, 150, 200, 400];
    eprintln!(
        "sweeping {} scales over {} errors x {} cases (+ golden runs)...",
        scales.len(),
        errors.len(),
        protocol.cases_per_error()
    );
    let points = calibration::sweep(&protocol, &errors, &scales);
    print!("{}", calibration::render(&points));
    std::fs::create_dir_all(&out_dir).expect("create out dir");
    std::fs::write(
        out_dir.join("calibration.json"),
        serde_json::to_string_pretty(&points).unwrap(),
    )
    .expect("write calibration.json");
    if let Some(best) = points
        .iter()
        .filter(|p| p.clean())
        .min_by_key(|p| p.rate_scale_percent)
    {
        println!(
            "\ntightest false-positive-free bound: {}% of the derived value ({:.1}% detection)",
            best.rate_scale_percent,
            best.detection_rate() * 100.0
        );
    }
}
