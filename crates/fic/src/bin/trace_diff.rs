//! Differential-oracle driver: determinism gate + per-error divergence
//! analysis.
//!
//! Phase 1 (always): every selected test case is recorded twice,
//! fault-free and independently, and the two traces are diffed. Any
//! divergence means the simulation is not deterministic — the oracle's
//! ground assumption — so the run dumps a reproducer bundle and exits 1.
//!
//! Phase 2 (with `--error S<k>` or `--e2 <n>`): the chosen error is
//! injected per the campaign protocol in every selected case; each
//! traced run is diffed against the memoised fault-free reference. The
//! report shows the first-divergence instant (time, scheduler slot,
//! signal), the propagation path, and the detection latency measured by
//! the assertions — cross-checking Tables 8–9: a detection can never
//! precede the first divergence. Per monitored signal, the fraction of
//! cases whose path reaches it is an empirical `Pprop` estimate.
//!
//! ```text
//! trace_diff [--scale n] [--observation ms] [--case idx]
//!            [--error S<k>] [--e2 n] [--out dir] [--repro-dir dir]
//! ```
//!
//! With an error, the run's telemetry report goes to
//! `<out>/telemetry/trace_diff.json` (`--out` defaults to `results`);
//! a report that cannot be written exits 1.

use std::path::PathBuf;
use std::process::ExitCode;

use fic::cli::{self, Args};
use fic::error_set;
use fic::trace::{self, ReferenceCache, ReproBundle, ReproError};
use fic::{run_trial_traced, telemetry, Protocol};
use memsim::BitFlip;
use simenv::TestCase;

struct Options {
    protocol: Protocol,
    cases: Vec<TestCase>,
    error: Option<(String, BitFlip)>,
    out_dir: PathBuf,
    repro_dir: PathBuf,
}

fn options(args: &Args) -> Result<Options, String> {
    let protocol = cli::protocol(args.scale()?, args.value("--observation")?, None);
    let all_cases = protocol.grid.cases();
    let cases = match args.value::<usize>("--case")? {
        Some(idx) => match all_cases.get(idx) {
            Some(case) => vec![*case],
            None => {
                return Err(format!(
                    "--case: index {idx} is outside 0..{}",
                    all_cases.len()
                ))
            }
        },
        None => all_cases,
    };
    let error = match (
        args.value::<String>("--error")?,
        args.value::<usize>("--e2")?,
    ) {
        (Some(_), Some(_)) => {
            return Err("--error and --e2 each name the injected error; give one".to_owned())
        }
        (Some(spec), None) => {
            let k: usize = spec
                .trim_start_matches(['S', 's'])
                .parse()
                .map_err(|e| format!("--error: {e}"))?;
            let errors = error_set::e1();
            let Some(e) = errors.get(k.wrapping_sub(1)) else {
                return Err(format!("--error: S{k} is outside S1..S{}", errors.len()));
            };
            Some((format!("S{k}"), e.flip))
        }
        (None, Some(k)) => {
            let errors = error_set::e2();
            let Some(e) = errors.get(k.wrapping_sub(1)) else {
                return Err(format!("--e2: {k} is outside 1..{}", errors.len()));
            };
            Some((format!("E2#{k}"), e.flip))
        }
        (None, None) => None,
    };
    Ok(Options {
        protocol,
        cases,
        error,
        out_dir: args.value("--out")?.unwrap_or_else(|| "results".into()),
        repro_dir: args
            .value("--repro-dir")?
            .unwrap_or_else(|| "results/repro".into()),
    })
}

fn main() -> ExitCode {
    let Options {
        protocol,
        cases,
        error,
        out_dir,
        repro_dir,
    } = cli::TRACE_DIFF.from_env(options);
    eprintln!(
        "protocol: {} case(s), {} ms window, {} ms injection period",
        cases.len(),
        protocol.observation_ms,
        protocol.injection_period_ms
    );

    // Phase 1: determinism gate. Two independent fault-free recordings
    // of every case must be bit-identical.
    let registry = telemetry::Registry::new();
    let cache = ReferenceCache::new(protocol.clone()).with_telemetry(&registry);
    for (idx, case) in cases.iter().enumerate() {
        let reference = cache.get(*case);
        let rerun = trace::record_reference(&protocol, *case);
        let diff = trace::diff(&reference, &rerun);
        if diff.diverged() {
            let first = diff.first.clone().expect("diverged");
            eprintln!(
                "NON-DETERMINISTIC: case {idx} (m = {} kg, v = {} m/s) diverged from \
                 its own re-run at t = {} ms, slot {}, signal {}",
                case.mass_kg, case.velocity_ms, first.t_ms, first.slot, first.signal
            );
            let bundle = ReproBundle::assemble(
                "fault-free re-run diverged (simulation must be deterministic)",
                &protocol,
                *case,
                None,
                None,
                &reference,
                &rerun,
            );
            match trace::write_repro(&repro_dir, &format!("nondet-case{idx}"), &bundle) {
                Ok(path) => eprintln!("reproducer written to {}", path.display()),
                Err(e) => eprintln!("failed to write reproducer: {e}"),
            }
            return ExitCode::FAILURE;
        }
        println!(
            "case {idx:>2} (m = {:>6} kg, v = {:>4} m/s): deterministic over {} ticks",
            case.mass_kg, case.velocity_ms, diff.compared_ticks
        );
    }
    println!("determinism gate: ok ({} case(s))", cases.len());

    // Phase 2: divergence analysis of one injected error.
    let Some((label, flip)) = error else {
        return ExitCode::SUCCESS;
    };
    println!();
    println!(
        "injecting {label} ({:?} byte {} bit {}) every {} ms:",
        flip.region, flip.addr, flip.bit, protocol.injection_period_ms
    );

    let monitored = [
        "SetValue",
        "IsValue",
        "i",
        "pulscnt",
        "ms_slot_nbr",
        "mscnt",
        "OutValue",
    ];
    let mut reached = [0usize; 7];
    let mut diverged_cases = 0usize;
    let mut failures = 0usize;
    for (idx, case) in cases.iter().enumerate() {
        let reference = cache.get(*case);
        let (trial, observed) = run_trial_traced(&protocol, flip, *case);
        let diff = trace::diff(&reference, &observed);
        trace::record_divergence_to_detection(&registry, &diff, &trial);
        let detection_ms = trial.first_detection(arrestor::EaSet::ALL);
        if diff.diverged() {
            diverged_cases += 1;
            for (k, signal) in monitored.iter().enumerate() {
                if diff.reaches(signal) {
                    reached[k] += 1;
                }
            }
        }
        let divergence_text = match &diff.first {
            Some(d) => format!(
                "first divergence t = {} ms, slot {}, {} ({} -> {})",
                d.t_ms, d.slot, d.signal, d.reference, d.observed
            ),
            None => "no divergence".to_owned(),
        };
        let detection_text = match detection_ms {
            Some(t) => format!(
                "detected at {t} ms (latency {} ms)",
                t.saturating_sub(trial.first_injection_ms)
            ),
            None => "undetected".to_owned(),
        };
        println!("case {idx:>2}: {divergence_text}; {detection_text}");
        if !diff.path.is_empty() {
            let shown: Vec<String> = diff
                .path
                .iter()
                .take(6)
                .map(|d| format!("{}@{}", d.signal, d.t_ms))
                .collect();
            let more = diff.path.len().saturating_sub(6);
            let suffix = if more > 0 {
                format!(" (+{more} more)")
            } else {
                String::new()
            };
            println!("         path: {}{}", shown.join(" -> "), suffix);
        }

        // The oracle's cross-check: an assertion can only fire on state
        // that differs from the fault-free run, so detection at or
        // before the first divergence is a contradiction.
        let contradiction = match (detection_ms, diff.first_divergence_ms()) {
            (Some(t_detect), Some(t_diverge)) => t_diverge > t_detect,
            (Some(_), None) => true,
            _ => false,
        };
        if contradiction {
            failures += 1;
            eprintln!(
                "ORACLE VIOLATION: case {idx} detected {label} before any recorded \
                 state diverged from the reference"
            );
            let bundle = ReproBundle::assemble(
                format!("detection precedes first divergence for {label}"),
                &protocol,
                *case,
                Some(ReproError::new(label.clone(), flip)),
                Some(trial.clone()),
                &reference,
                &observed,
            );
            match trace::write_repro(&repro_dir, &format!("oracle-{label}-case{idx}"), &bundle) {
                Ok(path) => eprintln!("reproducer written to {}", path.display()),
                Err(e) => eprintln!("failed to write reproducer: {e}"),
            }
        }
    }

    println!();
    println!(
        "{label}: {diverged_cases}/{} cases diverged (empirical Pprop to monitored signals):",
        cases.len()
    );
    for (k, signal) in monitored.iter().enumerate() {
        println!(
            "  {signal:<12} {:>3}/{} ({:.0}%)",
            reached[k],
            cases.len(),
            100.0 * reached[k] as f64 / cases.len() as f64
        );
    }
    let snapshot = registry.snapshot();
    eprint!("{}", telemetry::render_summary(&snapshot));
    let report = telemetry::TelemetryReport::assemble(
        "trace_diff",
        telemetry::RunMetadata::for_run(&protocol, false, None),
        snapshot,
    );
    let dir = out_dir.join("telemetry");
    match telemetry::write_report(&dir, "trace_diff", &report) {
        Ok(path) => eprintln!("telemetry report written to {}", path.display()),
        Err(e) => {
            eprintln!(
                "error: cannot write the telemetry report under {}: {e}",
                dir.display()
            );
            return ExitCode::FAILURE;
        }
    }

    if failures > 0 {
        eprintln!("{failures} oracle violation(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
