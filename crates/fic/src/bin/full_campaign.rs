//! Runs the complete evaluation of the paper: golden-run validation,
//! the E1 campaign (Tables 7 and 8) and the E2 campaign (Table 9),
//! saving JSON artefacts and the rendered tables under `results/`.
//!
//! Full protocol: 2 800 + 5 000 runs of 40 s each — minutes of wall
//! clock on a multicore machine. `--scale 2 --observation 5000` gives a
//! smoke-test variant.
//!
//! Crash safety: with `--journal results/campaign.jsonl` every
//! completed trial is streamed to a JSONL journal; re-running with
//! `--resume` replays the journal and executes only the missing trials.
//! `--from-journal <file>` rebuilds the tables from a journal without
//! running anything. `--check-golden` compares the resulting reports
//! against the committed goldens (exit 1 on divergence) and
//! `--refresh-golden` rewrites them.
//!
//! With `--trace`, failures produce a minimal reproducer: the
//! differential oracle re-runs the offending ⟨error, case⟩ with
//! per-tick trace capture, diffs it against the fault-free reference,
//! and dumps a `fic::trace::ReproBundle` JSON under `--repro-dir`
//! (default `results/repro`).
//!
//! Throughput: trials run checkpointed by default — the grid is grouped
//! by test case, the fault-free prefix is simulated once per case and
//! forked by every trial, and settled runs fast-forward to the end of
//! the window (bit-identical results; see PERFORMANCE.md).
//! `--no-checkpoint` forces the straight-line replay of every trial.
//!
//! Observability: every live run collects campaign/cache/settle/
//! journal metrics, renders a live progress line on stderr (when it is
//! a terminal) and writes a schema-versioned report under
//! `<out>/telemetry/` at the end (see OBSERVABILITY.md).
//!
//! Scale-out: `--shard k/n` runs only the k-th of n deterministic grid
//! slices; shard journals are combined with the `merge_journals`
//! binary and rendered with `--from-journal`.
//!
//! Attribution: every run folds one assertion-level event per trial
//! (first-firing assertion, signal class, latency split) and writes
//! the aggregate report with the empirical coverage decomposition
//! under `<out>/attribution/` (see OBSERVABILITY.md). The events are a
//! pure function of the trials, so the journal does not carry them;
//! `--from-journal` re-derives them, with any oracle verdicts
//! `attribution_report --save-oracle` persisted.
//!
//! Cost profiling: every live run counts each assertion check per EA,
//! samples per-check wall clock afterwards, and writes the
//! schema-versioned cost profile under `<out>/profile/` (none when no
//! checkpointed trial ran, as under `--no-checkpoint`). Join it with
//! the attribution report via the `detox_report` binary for the
//! coverage-per-op Pareto table.
//!
//! Convergence: every run (live, resumed, sharded or `--from-journal`)
//! derives the per-cell Wilson-CI coverage estimates from its final
//! reports, prints the advisory "trials remaining to reach ±δ"
//! forecast on stderr and writes the schema-versioned convergence
//! report under `<out>/convergence/` (named after the journal stem
//! under `--from-journal`).
//!
//! No observer changes a result bit. A report that cannot be written
//! fails the run (exit 1, naming the directory).

use std::time::Instant;

use fic::cli::CliOptions;
use fic::error_set::E1Error;
use fic::journal::{Journal, JournalWriter, ShardSpec};
use fic::trace::{self, ReproBundle, ReproError};
use fic::{error_set, golden, run_trial_traced, tables, Protocol};

fn main() {
    let options = CliOptions::from_env();
    std::fs::create_dir_all(&options.out_dir).expect("create out dir");

    let e1_errors = error_set::e1();
    let (protocol, e1_report, e2_report) = if let Some(path) = &options.from_journal {
        let journal = Journal::load(path).expect("readable --from-journal file");
        if journal.truncated_tail {
            eprintln!("note: journal has a torn final line (crash evidence); dropped");
        }
        let (e1, e2) = journal
            .replay()
            .expect("journal matches the paper error sets");
        eprintln!(
            "replayed {} journaled trials ({} E1 + {} E2)",
            journal.records.len(),
            e1.trials(),
            e2.trials()
        );
        let aggregate = fic::attribution::aggregate_journal(&journal)
            .expect("journal matches the paper error sets");
        written(options.emit_attribution("full_campaign", &journal.header.protocol, aggregate));
        (journal.header.protocol, e1, e2)
    } else {
        let protocol = options.protocol();
        eprintln!(
            "protocol: {} cases/error, {} ms window, {} ms injection period, {} workers",
            protocol.cases_per_error(),
            protocol.observation_ms,
            protocol.injection_period_ms,
            protocol.effective_workers()
        );

        let t0 = Instant::now();
        eprintln!("[1/3] golden-run validation...");
        if let Err(violation) = golden::validate_fault_free(&protocol) {
            eprintln!("golden-run validation FAILED: {violation}");
            if options.trace {
                dump_fault_free_repro(&options, &protocol, &violation);
            } else {
                eprintln!("hint: re-run with --trace for a reproducer bundle");
            }
            std::process::exit(1);
        }
        eprintln!("      ok ({:.1?})", t0.elapsed());

        let runner = options.runner();
        let registry = runner.telemetry().expect("CLI runners record telemetry");
        if let Some((index, count)) = options.shard {
            eprintln!("shard {index}/{count}: running that slice of the grid only");
            if options.check_golden {
                eprintln!(
                    "warning: a shard's tables cover a grid slice; the golden check will diverge"
                );
            }
        }
        let e2_errors = error_set::e2();

        let t1 = Instant::now();
        eprintln!(
            "[2/3] E1: {} errors x {} cases...",
            e1_errors.len(),
            protocol.cases_per_error()
        );
        let e1_report;
        let e2_report;
        match &options.journal {
            Some(journal_path) if options.resume => {
                e1_report = runner
                    .resume_e1(&e1_errors, journal_path)
                    .expect("resume E1 from journal");
                eprintln!("      done ({:.1?})", t1.elapsed());
                let t2 = Instant::now();
                eprintln!("[3/3] E2: {} errors...", e2_errors.len());
                e2_report = runner
                    .resume_e2(&e2_errors, journal_path)
                    .expect("resume E2 from journal");
                eprintln!("      done ({:.1?})", t2.elapsed());
            }
            Some(journal_path) => {
                let shard = options
                    .shard
                    .map(|(index, count)| ShardSpec { index, count });
                let mut writer = JournalWriter::create_sharded(journal_path, &protocol, shard)
                    .expect("create journal")
                    .with_telemetry(fic::journal::JournalTelemetry::register(registry));
                e1_report = runner
                    .run_e1_journaled(&e1_errors, &mut writer)
                    .expect("journaled E1 campaign");
                eprintln!("      done ({:.1?})", t1.elapsed());
                let t2 = Instant::now();
                eprintln!("[3/3] E2: {} errors...", e2_errors.len());
                e2_report = runner
                    .run_e2_journaled(&e2_errors, &mut writer)
                    .expect("journaled E2 campaign");
                writer.finish().expect("flush final journal batch");
                eprintln!("      done ({:.1?})", t2.elapsed());
            }
            None => {
                e1_report = runner.run_e1(&e1_errors);
                eprintln!("      done ({:.1?})", t1.elapsed());
                let t2 = Instant::now();
                eprintln!("[3/3] E2: {} errors...", e2_errors.len());
                e2_report = runner.run_e2(&e2_errors);
                eprintln!("      done ({:.1?})", t2.elapsed());
            }
        }

        written(options.emit_telemetry("full_campaign", &protocol, registry));
        if let Some(sink) = runner.attribution() {
            written(options.emit_attribution("full_campaign", &protocol, sink.snapshot()));
        }
        if let Some(recorder) = runner.profile() {
            written(options.emit_profile("full_campaign", &protocol, recorder));
        }
        (protocol, e1_report, e2_report)
    };
    written(options.emit_convergence("full_campaign", &protocol, &e1_report, &e2_report));

    // Artefacts.
    std::fs::write(
        options.out_dir.join("e1.json"),
        serde_json::to_string_pretty(&e1_report).unwrap(),
    )
    .expect("write e1.json");
    std::fs::write(
        options.out_dir.join("e2.json"),
        serde_json::to_string_pretty(&e2_report).unwrap(),
    )
    .expect("write e2.json");

    let table6 = tables::render_table6(&e1_errors, protocol.cases_per_error());
    let table7 = tables::render_table7(&e1_report);
    let table8 = tables::render_table8(&e1_report);
    let table9 = tables::render_table9(&e2_report);
    for (name, text) in [
        ("table6.txt", &table6),
        ("table7.txt", &table7),
        ("table8.txt", &table8),
        ("table9.txt", &table9),
    ] {
        std::fs::write(options.out_dir.join(name), text).expect("write table");
    }

    println!("{table6}");
    println!("{table7}");
    println!("{table8}");
    println!("{table9}");
    if let Some(p_ds) = e1_report.p_ds() {
        println!("Pds (E1 total, all mechanisms)    = {:.1}%", p_ds * 100.0);
    }
    if let Some(p) = e2_report.p_detect() {
        println!("Pdetect (E2 total)                = {:.1}%", p * 100.0);
    }
    if let Some(analysis) = fic::coverage_report::analyse(&e1_report, &e2_report) {
        println!();
        print!("{}", fic::coverage_report::render(&analysis));
        std::fs::write(
            options.out_dir.join("coverage_analysis.json"),
            serde_json::to_string_pretty(&analysis).unwrap(),
        )
        .expect("write coverage_analysis.json");
    }
    eprintln!("artefacts written to {}", options.out_dir.display());

    if options.refresh_golden {
        golden::refresh_dir(
            &options.golden_dir,
            &e1_errors,
            protocol.cases_per_error(),
            &e1_report,
            &e2_report,
        )
        .expect("write golden artefacts");
        eprintln!("goldens refreshed in {}", options.golden_dir.display());
    }

    if options.check_golden {
        let divergences = golden::check_dir(
            &options.golden_dir,
            &e1_errors,
            protocol.cases_per_error(),
            &e1_report,
            &e2_report,
        )
        .expect("readable golden artefacts");
        if divergences.is_empty() {
            eprintln!("golden check: ok (within Powell-style confidence tolerances)");
        } else {
            eprintln!("golden check FAILED: {} divergent cells", divergences.len());
            for divergence in &divergences {
                eprintln!("  {divergence}");
            }
            if options.trace {
                dump_golden_check_repro(&options, &protocol, &e1_errors, &divergences);
            } else {
                eprintln!("hint: re-run with --trace for a reproducer bundle");
            }
            std::process::exit(1);
        }
    }
}

/// Exits 1 when an observer report could not be written: every run
/// promises its reports, so a run without one has failed.
fn written(result: std::io::Result<()>) {
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Reproducer for a fault-free violation: two independent fault-free
/// recordings of the offending case. Any divergence between them is
/// nondeterminism; none means the violation replays deterministically
/// from the bundled case alone.
fn dump_fault_free_repro(
    options: &CliOptions,
    protocol: &Protocol,
    violation: &golden::GoldenViolation,
) {
    let reference = trace::record_reference(protocol, violation.case);
    let rerun = trace::record_reference(protocol, violation.case);
    let bundle = ReproBundle::assemble(
        format!("{violation}"),
        protocol,
        violation.case,
        None,
        None,
        &reference,
        &rerun,
    );
    match trace::write_repro(&options.repro_dir, "fault-free-violation", &bundle) {
        Ok(path) => eprintln!("reproducer written to {}", path.display()),
        Err(e) => eprintln!("failed to write reproducer: {e}"),
    }
}

/// Reproducer for a golden-table divergence: the first divergent
/// Table 7/8 row names a monitored signal; its MSB error injected into
/// the middle grid case, traced and diffed against the fault-free
/// reference, shows where the behaviour departs. Table 9 (or
/// Total-row-only) divergences fall back to the mscnt MSB error — the
/// fastest-detected probe of the whole detection pipeline.
fn dump_golden_check_repro(
    options: &CliOptions,
    protocol: &Protocol,
    e1_errors: &[E1Error],
    divergences: &[golden::Divergence],
) {
    let named = divergences
        .iter()
        .filter(|d| d.table == "Table 7" || d.table == "Table 8")
        .find_map(|d| {
            e1_errors
                .iter()
                .find(|e| e.signal_bit == 15 && d.location.starts_with(e.signal_name()))
        });
    let error = named.or_else(|| {
        e1_errors
            .iter()
            .find(|e| e.signal_bit == 15 && e.signal_name() == "mscnt")
    });
    let Some(error) = error else {
        eprintln!("no representative E1 error found; skipping reproducer");
        return;
    };
    let cases = protocol.grid.cases();
    let case = cases[cases.len() / 2];
    let reference = trace::record_reference(protocol, case);
    let (trial, observed) = run_trial_traced(protocol, error.flip, case);
    let bundle = ReproBundle::assemble(
        format!(
            "golden check diverged ({} cells); probe error S{} on {}",
            divergences.len(),
            error.number,
            error.signal_name()
        ),
        protocol,
        case,
        Some(ReproError::new(format!("S{}", error.number), error.flip)),
        Some(trial),
        &reference,
        &observed,
    );
    let label = format!("golden-check-S{}", error.number);
    match trace::write_repro(&options.repro_dir, &label, &bundle) {
        Ok(path) => eprintln!("reproducer written to {}", path.display()),
        Err(e) => eprintln!("failed to write reproducer: {e}"),
    }
}
