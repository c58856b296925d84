//! Joins a campaign journal with an assertion cost profile into the
//! "detox" league table: which subsets of the seven EAs buy how much
//! detection coverage for how many runtime operations.
//!
//! The paper evaluates eight versions (EA1..EA7 individually, then all
//! seven). The journal records *every* mechanism's first detection per
//! trial (`per_ea_first_ms`), so coverage of any of the 128 subsets is
//! measurable from one all-mechanisms run — and the profile report
//! prices each mechanism in deterministic comparisons + mask probes
//! per check ([`fic::profile`]). This binary folds the two:
//!
//! * **measured coverage** of a subset `S` — the fraction of distinct
//!   journaled trials where at least one mechanism in `S` detected;
//! * **predicted coverage** — the independence composition
//!   `1 − Π_{i∈S} (1 − pᵢ)` from the per-EA singleton rates, the same
//!   algebra the attribution decomposition uses; the gap between the
//!   two columns is the overlap structure the paper discusses
//!   (mechanisms watching the same signals fire together, so the
//!   independence bound overshoots);
//! * **cost** — `Σ_{i∈S} checks · ops_per_check` from the profile
//!   report, plus the sampled wall-clock view when the profile carries
//!   one.
//!
//! The league table keeps the Pareto front: subsets no other subset
//! beats on both coverage and cost. The full 128-row join lands in
//! `<out>/detox_report.json` (schema-versioned) for downstream tools.
//!
//! ```text
//! usage: detox_report <journal> --profile <file> [--out dir]
//! ```
//!
//! Exits 0 on success, 1 on unreadable/invalid inputs.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use arrestor::{EaId, EaSet};
use fic::journal::{Journal, JournalError};
use fic::profile::ProfileReport;
use fic::Trial;
use serde::{Serialize, Value};

/// Schema version of the `detox_report.json` artefact.
const DETOX_SCHEMA_VERSION: u32 = 1;

/// The artefact's `kind` discriminator.
const DETOX_KIND: &str = "assertion-detox-report";

fn usage() -> ! {
    eprintln!("usage: detox_report <journal> --profile <file> [--out dir]");
    std::process::exit(2);
}

/// One subset's joined row.
struct SubsetRow {
    /// Bitmask over EA1..EA7 (bit k = EA(k+1)), 1..=127.
    mask: u8,
    /// Human name, `EA2+EA5` style.
    name: String,
    /// Fraction of journaled trials the subset detected.
    measured: f64,
    /// Independence composition of the singleton rates.
    predicted: f64,
    /// `Σ checks · ops_per_check` over the subset's mechanisms.
    cost_ops: u64,
    /// Sampled wall-clock total, when the profile carries a wall view.
    wall_ns: Option<f64>,
    /// Whether the row survives Pareto domination.
    on_front: bool,
}

fn main() -> ExitCode {
    let mut journal_path: Option<PathBuf> = None;
    let mut profile_path: Option<PathBuf> = None;
    let mut out_dir = PathBuf::from("results");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--profile" => profile_path = Some(PathBuf::from(value("--profile"))),
            "--out" => out_dir = PathBuf::from(value("--out")),
            other if other.starts_with("--") => usage(),
            other if journal_path.is_none() => journal_path = Some(PathBuf::from(other)),
            _ => usage(),
        }
    }
    let (Some(journal_path), Some(profile_path)) = (journal_path, profile_path) else {
        usage();
    };

    let trials = match distinct_trials(&journal_path) {
        Ok(trials) => trials,
        Err(e) => {
            eprintln!("cannot load journal {}: {e}", journal_path.display());
            return ExitCode::FAILURE;
        }
    };
    if trials.is_empty() {
        eprintln!("journal {} holds no trials", journal_path.display());
        return ExitCode::FAILURE;
    }
    let profile: ProfileReport = {
        let text = match std::fs::read_to_string(&profile_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read profile {}: {e}", profile_path.display());
                return ExitCode::FAILURE;
            }
        };
        match serde_json::from_str(&text) {
            Ok(report) => report,
            Err(e) => {
                eprintln!(
                    "{} does not parse as a profile report: {e}",
                    profile_path.display()
                );
                return ExitCode::FAILURE;
            }
        }
    };
    if let Err(e) = profile.validate() {
        eprintln!("profile {}: INVALID: {e}", profile_path.display());
        return ExitCode::FAILURE;
    }

    let rows = join(&trials, &profile);
    print!("{}", render(&rows, trials.len()));

    let artefact = to_artefact(&rows, trials.len(), &profile);
    let path = out_dir.join("detox_report.json");
    if let Err(e) = std::fs::create_dir_all(&out_dir).and_then(|()| {
        let json = serde_json::to_string_pretty(&artefact).expect("artefact serialises");
        std::fs::write(&path, format!("{json}\n"))
    }) {
        eprintln!("failed to write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("detox report written to {}", path.display());
    ExitCode::SUCCESS
}

/// The journal's distinct trials ([`Journal::walk`]): a key repeated by
/// a crash/retry counts once, as in every table.
fn distinct_trials(path: &Path) -> Result<Vec<Trial>, JournalError> {
    let journal = Journal::load(path)?;
    let mut trials = Vec::with_capacity(journal.records.len());
    journal.walk(|record, _| trials.push(record.trial.clone()))?;
    Ok(trials)
}

/// Builds the subset from a 7-bit mask.
fn subset(mask: u8) -> EaSet {
    EaId::ALL
        .iter()
        .filter(|ea| mask & (1 << ea.index()) != 0)
        .fold(EaSet::NONE, |set, &ea| set.union(EaSet::only(ea)))
}

/// `EA2+EA5` style subset name (`all` for the full set).
fn subset_name(mask: u8) -> String {
    if mask == 0b0111_1111 {
        return "all".to_owned();
    }
    let names: Vec<String> = EaId::ALL
        .iter()
        .filter(|ea| mask & (1 << ea.index()) != 0)
        .map(|ea| ea.to_string())
        .collect();
    names.join("+")
}

/// The full 128-row join, Pareto-marked, sorted by cost then mask.
fn join(trials: &[Trial], profile: &ProfileReport) -> Vec<SubsetRow> {
    let count = trials.len() as f64;
    // Singleton rates feed the independence prediction.
    let singleton: Vec<f64> = EaId::ALL
        .iter()
        .map(|&ea| {
            let hits = trials
                .iter()
                .filter(|t| t.detected(EaSet::only(ea)))
                .count();
            hits as f64 / count
        })
        .collect();
    let mut rows: Vec<SubsetRow> = (1u8..=127)
        .map(|mask| {
            let set = subset(mask);
            let hits = trials.iter().filter(|t| t.detected(set)).count();
            let predicted = 1.0
                - set
                    .iter()
                    .map(|ea| 1.0 - singleton[ea.index()])
                    .product::<f64>();
            let cost_ops: u64 = set
                .iter()
                .map(|ea| profile.per_ea[ea.index()].total_ops)
                .sum();
            let wall_ns = set
                .iter()
                .map(|ea| {
                    let row = &profile.per_ea[ea.index()];
                    row.wall_ns_per_check.map(|ns| ns * row.checks as f64)
                })
                .sum::<Option<f64>>();
            SubsetRow {
                mask,
                name: subset_name(mask),
                measured: hits as f64 / count,
                predicted,
                cost_ops,
                wall_ns,
                on_front: false,
            }
        })
        .collect();
    // Pareto: a row is dominated when some other row has coverage ≥ and
    // cost ≤ with at least one strict. 128 rows — the quadratic scan is
    // instant and obviously correct.
    for k in 0..rows.len() {
        let dominated = rows.iter().any(|other| {
            (other.measured >= rows[k].measured && other.cost_ops < rows[k].cost_ops)
                || (other.measured > rows[k].measured && other.cost_ops <= rows[k].cost_ops)
        });
        rows[k].on_front = !dominated;
    }
    rows.sort_by(|a, b| a.cost_ops.cmp(&b.cost_ops).then(a.mask.cmp(&b.mask)));
    rows
}

/// The stdout league table: the Pareto front, cheapest first.
fn render(rows: &[SubsetRow], trials: usize) -> String {
    let mut out = String::new();
    out.push_str("detox league table (Pareto front of EA subsets)\n");
    out.push_str("------------------------------------------------\n");
    out.push_str("subset               measured  predicted      Δ   total ops\n");
    for row in rows.iter().filter(|r| r.on_front) {
        let delta = row.predicted - row.measured;
        out.push_str(&format!(
            "{:<20} {:>7.1}%  {:>8.1}%  {:>+5.1}%  {:>10}\n",
            row.name,
            100.0 * row.measured,
            100.0 * row.predicted,
            100.0 * delta,
            row.cost_ops
        ));
    }
    let front = rows.iter().filter(|r| r.on_front).count();
    out.push_str(&format!(
        "{front} of {} subsets on the front over {trials} trial(s); \
         full join in detox_report.json\n",
        rows.len()
    ));
    out
}

/// The schema-versioned JSON artefact.
fn to_artefact(rows: &[SubsetRow], trials: usize, profile: &ProfileReport) -> Value {
    let subsets: Vec<Value> = rows
        .iter()
        .map(|row| {
            let mut fields = vec![
                ("mask".to_owned(), Value::Int(i128::from(row.mask))),
                ("subset".to_owned(), Value::Str(row.name.clone())),
                ("measured".to_owned(), Value::Float(row.measured)),
                ("predicted".to_owned(), Value::Float(row.predicted)),
                ("cost_ops".to_owned(), Value::Int(i128::from(row.cost_ops))),
                ("pareto".to_owned(), Value::Bool(row.on_front)),
            ];
            if let Some(ns) = row.wall_ns {
                fields.push(("wall_ns".to_owned(), Value::Float(ns)));
            }
            Value::Object(fields)
        })
        .collect();
    Value::Object(vec![
        (
            "schema_version".to_owned(),
            Value::Int(i128::from(DETOX_SCHEMA_VERSION)),
        ),
        ("kind".to_owned(), Value::Str(DETOX_KIND.to_owned())),
        ("trials".to_owned(), Value::Int(trials as i128)),
        (
            "profile_producer".to_owned(),
            Value::Str(profile.producer.clone()),
        ),
        ("run".to_owned(), profile.run.to_value()),
        ("subsets".to_owned(), Value::Array(subsets)),
    ])
}
