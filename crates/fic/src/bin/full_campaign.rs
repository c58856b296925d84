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
//! `--resume` folds the journal and executes only the missing trials.
//! `--from-journal <file>` rebuilds the tables from a journal without
//! running anything.
//!
//! The committed `results/` is the one reference for the tables: the
//! campaign is deterministic, and `tests/paper_campaign.rs` requires a
//! live paper run to rewrite its journal lines and artefacts byte for
//! byte.
//!
//! One fold, one writer: a live run, `--resume` and `--from-journal`
//! all end in a `fic::results::CampaignFold` written by
//! `fic::results::write_artefacts` — the writer the fleet server
//! uses — so a journal replays to the artefacts its campaign wrote.
//!
//! A golden-run failure produces a minimal reproducer: two traced
//! fault-free recordings of the offending case, diffed against each
//! other, in a `fic::trace::ReproBundle` JSON under `--repro-dir`
//! (default `results/repro`). Passing runs trace nothing.
//!
//! Throughput: every campaign runs one path — the grid is grouped by
//! test case, the fault-free prefix is simulated once per case and
//! forked by every trial, statically inert errors share one reference
//! trial per case, and trials stop once their outputs are provably
//! final (bit-identical results; see PERFORMANCE.md). The differential
//! test suites check it against `fic::run_trial`, which replays each
//! trial from t = 0.
//!
//! Observability: every live run collects campaign/cache/settle/
//! journal metrics, renders a live progress line on stderr (when it is
//! a terminal) and writes a schema-versioned report under
//! `<out>/telemetry/` at the end (see OBSERVABILITY.md).
//!
//! Scale-out: the fleet (`fleet_server` plus `fleet_worker`s) leases
//! the same grid to workers on any number of hosts and renders the
//! same tables.
//!
//! Attribution: every run folds one assertion-level event per trial
//! (first-firing assertion, signal class, latency split) and writes
//! the aggregate report under `<out>/attribution/` (see
//! OBSERVABILITY.md). The events are a
//! pure function of the trials, so the journal does not carry them;
//! `--from-journal` re-derives them, with any oracle verdicts
//! `attribution_report --save-oracle` persisted.
//!
//! Cost profiling: every live run counts each assertion check per EA,
//! samples per-check wall clock afterwards, and writes the
//! schema-versioned cost profile under `<out>/profile/` (none when no
//! trial ran, as on a resume with nothing left to run). Join it with
//! the attribution report via the `detox_report` binary for the
//! coverage-per-op Pareto table.
//!
//! Convergence: every run (live, resumed or `--from-journal`)
//! derives the per-cell Wilson-CI coverage estimates from its final
//! reports, prints the advisory "trials remaining to reach ±δ"
//! forecast on stderr and writes the schema-versioned convergence
//! report under `<out>/convergence/` (named after the journal stem
//! under `--from-journal`).
//!
//! No observer changes a result bit. A journal that cannot be read or
//! does not match the paper error sets, and an artefact or report that
//! cannot be written, fail the run (exit 1, naming the file).

use std::fmt::Display;
use std::time::Instant;

use fic::cli::{self, CliOptions};
use fic::journal::{Journal, JournalWriter};
use fic::results::{self, CampaignFold};
use fic::trace::{self, ReproBundle};
use fic::{error_set, golden, tables, Protocol};

fn main() {
    let options = cli::FULL_CAMPAIGN.from_env(CliOptions::from_args);
    let e1_errors = error_set::e1();
    let (protocol, fold, runner) = if let Some(path) = &options.from_journal {
        let journal = Journal::load(path).unwrap_or_else(|e| fail(path.display(), e));
        if journal.truncated_tail {
            eprintln!("note: journal has a torn final line (crash evidence); dropped");
        }
        let fold = CampaignFold::from_journal(&journal).unwrap_or_else(|e| fail(path.display(), e));
        eprintln!(
            "replayed {} journaled trials ({} E1 + {} E2)",
            journal.records.len(),
            fold.e1.trials(),
            fold.e2.trials()
        );
        (journal.header.protocol, fold, None)
    } else {
        let protocol = cli::protocol(options.scale, options.observation_ms, options.workers);
        eprintln!(
            "protocol: {} cases/error, {} ms window, {} ms injection period, {} workers",
            protocol.cases_per_error(),
            protocol.observation_ms,
            protocol.injection_period_ms,
            protocol.effective_workers()
        );

        let t0 = Instant::now();
        eprintln!("[1/2] golden-run validation...");
        if let Err(violation) = golden::validate_fault_free(&protocol) {
            eprintln!("golden-run validation FAILED: {violation}");
            dump_fault_free_repro(&options, &protocol, &violation);
            std::process::exit(1);
        }
        eprintln!("      ok ({:.1?})", t0.elapsed());

        let runner = cli::runner(protocol.clone());
        let e2_errors = error_set::e2();
        let t1 = Instant::now();
        eprintln!(
            "[2/2] E1: {} errors, then E2: {} errors, x {} cases...",
            e1_errors.len(),
            e2_errors.len(),
            protocol.cases_per_error()
        );
        let fold = match &options.journal {
            Some(path) => {
                if !options.resume {
                    JournalWriter::create(path, &protocol)
                        .and_then(JournalWriter::finish)
                        .unwrap_or_else(|e| fail(path.display(), e));
                }
                runner
                    .resume(&e1_errors, &e2_errors, path)
                    .unwrap_or_else(|e| fail(path.display(), e))
            }
            None => runner.run(&e1_errors, &e2_errors),
        };
        eprintln!("      done ({:.1?})", t1.elapsed());
        (protocol, fold, Some(runner))
    };

    // Under --from-journal the convergence report is named after the
    // journal it replays.
    let label = match options.from_journal.as_deref().and_then(|p| p.file_stem()) {
        Some(stem) => stem.to_string_lossy().into_owned(),
        None => "full_campaign".to_owned(),
    };
    let telemetry = runner
        .as_ref()
        .and_then(|r| r.telemetry())
        .map(|registry| registry.snapshot());
    if let Err(e) = results::write_artefacts(
        &options.out_dir,
        "full_campaign",
        &label,
        &protocol,
        &e1_errors,
        &fold,
        telemetry.as_ref(),
        runner.as_ref().and_then(|r| r.profile()).map(AsRef::as_ref),
    ) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    let (e1_report, e2_report) = (&fold.e1, &fold.e2);
    println!(
        "{}",
        tables::render_table6(&e1_errors, protocol.cases_per_error())
    );
    println!("{}", tables::render_table7(e1_report));
    println!("{}", tables::render_table8(e1_report));
    println!("{}", tables::render_table9(e2_report));
    if let Some(p_ds) = e1_report.p_ds() {
        println!("Pds (E1 total, all mechanisms)    = {:.1}%", p_ds * 100.0);
    }
    if let Some(p) = e2_report.p_detect() {
        println!("Pdetect (E2 total)                = {:.1}%", p * 100.0);
    }
    if let Some(analysis) = fic::coverage_report::analyse(e1_report, e2_report) {
        println!();
        print!("{}", fic::coverage_report::render(&analysis));
    }
    eprintln!("artefacts written to {}", options.out_dir.display());
}

/// Exits 1 naming the file a run could not read or write.
fn fail(file: impl Display, error: impl Display) -> ! {
    eprintln!("error: {file}: {error}");
    std::process::exit(1);
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
