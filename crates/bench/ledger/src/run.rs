//! Running a workload end to end, reporting its metrics, and `--all`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde_json::Value;

use crate::catalogue;
use crate::stats;
use crate::sys;
use crate::workload::{self, Inputs, Workload};
use crate::Args;

/// Default `--seconds`: about this much timed work per workload run.
pub const DEFAULT_SECONDS: u64 = 15;

/// Set-ups before the warm-up and before every timed rep; `setup_s` is
/// the median of them all. Spreading them over the run, rather than
/// timing a burst at its start, keeps one slow moment of the host from
/// setting the number.
const SETUPS_PER_REP: usize = 2;

/// A metric value with its unit and, for per-rep metrics, the samples.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The value reported.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
    /// Per-rep samples the value is the median of (empty otherwise).
    pub samples: Vec<f64>,
}

impl Metric {
    /// A single measured value.
    pub fn single(value: f64, unit: &'static str) -> Self {
        Metric {
            value,
            unit,
            samples: Vec::new(),
        }
    }

    /// The median of per-rep samples.
    pub fn median_of(samples: Vec<f64>, unit: &'static str) -> Self {
        Metric {
            value: stats::median(&samples),
            unit,
            samples,
        }
    }

    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("value".to_owned(), Value::Float(self.value)),
            ("unit".to_owned(), Value::Str(self.unit.to_owned())),
        ];
        if !self.samples.is_empty() {
            let (q1, _, q3) = stats::quartiles(&self.samples);
            entries.push(("q1".to_owned(), Value::Float(q1)));
            entries.push(("q3".to_owned(), Value::Float(q3)));
            entries.push(("n".to_owned(), Value::Int(self.samples.len() as i128)));
            entries.push((
                "samples".to_owned(),
                Value::Array(self.samples.iter().map(|&s| Value::Float(s)).collect()),
            ));
        }
        Value::Object(entries)
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics by name.
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Operations attempted (trials run and replayed, fleet slices).
    pub attempted: u64,
    /// Failed checks and fleet operations, one message each.
    pub failures: Vec<String>,
    /// Timed reps.
    pub reps: usize,
    /// Campaign workers (threads or fleet workers).
    pub workers: usize,
}

impl Outcome {
    /// Records a metric by its catalogue name.
    pub fn put(&mut self, name: &'static str, metric: Metric) {
        self.metrics.insert(name, metric);
    }
}

/// Runs [`Inputs::set_up`] [`SETUPS_PER_REP`] times, recording each
/// time, and returns the last inputs (every set-up of a seed is the
/// same).
fn set_up(workload: Workload, args: &Args, times: &mut Vec<f64>) -> Result<Inputs, String> {
    let mut last = None;
    for _ in 0..SETUPS_PER_REP {
        let start = Instant::now();
        last = Some(Inputs::set_up(workload, args.seed, &args.out)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok(last.expect("at least one set-up"))
}

/// The end-to-end run: set-up, one warm-up rep, the timed reps (each
/// after a fresh set-up), the replay sample.
fn end_to_end(workload: Workload, args: &Args) -> Outcome {
    let mut out = Outcome {
        reps: workload.reps(args.seconds),
        workers: sys::nproc(),
        ..Outcome::default()
    };
    let mut setup = Vec::new();
    let mut inputs = match set_up(workload, args, &mut setup) {
        Ok(inputs) => inputs,
        Err(e) => {
            out.failures.push(e);
            return out;
        }
    };
    eprintln!(
        "{}: seed {}, {} workers, 1 warm-up + {} timed reps of {} trials",
        workload.name(),
        args.seed,
        out.workers,
        out.reps,
        inputs.trials_per_rep()
    );
    let warm_up = workload::run_rep(&inputs, false);
    out.failures.extend(warm_up.failures);
    let (mut tps, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..out.reps {
        inputs = match set_up(workload, args, &mut setup) {
            Ok(inputs) => inputs,
            Err(e) => {
                out.failures.push(e);
                return out;
            }
        };
        let rep = workload::run_rep(&inputs, false);
        eprintln!(
            "  rep {}: {:.3} s wall, {:.3} s cpu, {:.1} MB peak, {:.1} trials/s",
            k + 1,
            rep.wall_s,
            rep.cpu_s,
            rep.peak_rss_mb,
            rep.trials as f64 / rep.wall_s
        );
        tps.push(rep.trials as f64 / rep.wall_s);
        cpu.push(rep.cpu_s * 1e3 / rep.trials as f64);
        rss.push(rep.peak_rss_mb);
        out.attempted += rep.trials + rep.operations;
        out.failures.extend(rep.failures);
    }
    match workload::produced_sample(&inputs) {
        Ok(sample) => {
            out.attempted += sample.len() as u64;
            out.failures
                .extend(workload::replay_check(&inputs.protocol, &sample));
        }
        Err(e) => out.failures.push(format!("replay sample: {e}")),
    }
    out.put("trials_per_s", Metric::median_of(tps, "trials/s"));
    out.put("cpu_ms_per_trial", Metric::median_of(cpu, "ms"));
    out.put("setup_s", Metric::median_of(setup, "s"));
    out.put("peak_rss_mb", Metric::median_of(rss, "MB"));
    out
}

/// Spread and catalogue notes printed beside a metric.
fn describe(name: &str, m: &Metric) -> String {
    let mut note = String::new();
    if !m.samples.is_empty() {
        let (q1, _, q3) = stats::quartiles(&m.samples);
        note += &format!("[q1 {q1:.4}, q3 {q3:.4}, n {}] ", m.samples.len());
    }
    if let Some(e) = catalogue::END_TO_END.iter().find(|e| e.name == name) {
        let star = if e.published { "" } else { "*" };
        note += &format!("{}{star}, bound {}", e.better.label(), e.bound);
    } else if let Some(l) = catalogue::layer_metric(name) {
        let star = if l.published { "" } else { "*" };
        let exact = if l.exact { ", exact" } else { "" };
        note += &format!(
            "{}{star}{exact}; moves {} on {}",
            l.better.label(),
            l.moves.join(", "),
            l.on.join(", ")
        );
    } else {
        note += "*";
    }
    note
}

fn failed_ratio(out: &Outcome) -> f64 {
    out.failures.len() as f64 / out.attempted.max(1) as f64
}

/// Where a run's provenance record goes.
pub fn provenance_path(out_root: &Path, seed: u64, workload: Workload, traced: bool) -> PathBuf {
    let suffix = if traced { "-traced" } else { "" };
    out_root
        .join(seed.to_string())
        .join(format!("{}{suffix}.json", workload.name()))
}

fn write_provenance(workload: Workload, args: &Args, out: &Outcome) {
    let path = provenance_path(&args.out, args.seed, workload, args.traced);
    let metrics = Value::Object(
        out.metrics
            .iter()
            .map(|(name, m)| ((*name).to_owned(), m.to_value()))
            .collect(),
    );
    let int = |n: u64| Value::Int(i128::from(n));
    let doc = Value::Object(vec![
        (
            "benchmark".to_owned(),
            Value::Str("campaign-ledger".to_owned()),
        ),
        (
            "workload".to_owned(),
            Value::Str(workload.name().to_owned()),
        ),
        ("traced".to_owned(), Value::Bool(args.traced)),
        ("seed".to_owned(), int(args.seed)),
        ("seconds".to_owned(), int(args.seconds)),
        ("git_sha".to_owned(), Value::Str(fic::telemetry::git_sha())),
        ("nproc".to_owned(), int(sys::nproc() as u64)),
        ("workers".to_owned(), int(out.workers as u64)),
        ("reps".to_owned(), int(out.reps as u64)),
        ("attempted".to_owned(), int(out.attempted)),
        ("failed".to_owned(), int(out.failures.len() as u64)),
        (
            "failures".to_owned(),
            Value::Array(out.failures.iter().map(|f| Value::Str(f.clone())).collect()),
        ),
        ("metrics".to_owned(), metrics),
    ]);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| {
            std::fs::write(
                &path,
                format!(
                    "{}\n",
                    serde_json::to_string_pretty(&doc).expect("serialises")
                ),
            )
        });
    match written {
        Ok(()) => eprintln!("provenance written to {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

/// The last line of standard output: the published metrics only.
fn result_line(out: &Outcome, published: &[String]) -> String {
    let metrics = Value::Object(
        published
            .iter()
            .map(|name| {
                let m = &out.metrics[name.as_str()];
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".to_owned(), Value::Float(m.value)),
                        ("unit".to_owned(), Value::Str(m.unit.to_owned())),
                    ]),
                )
            })
            .collect(),
    );
    let doc = Value::Object(vec![
        ("correct".to_owned(), Value::Bool(out.failures.is_empty())),
        (
            "attempted".to_owned(),
            Value::Int(i128::from(out.attempted)),
        ),
        ("failed".to_owned(), Value::Int(out.failures.len() as i128)),
        ("metrics".to_owned(), metrics),
    ]);
    serde_json::to_string(&doc).expect("serialises")
}

/// `--workload`: one run, end to end or traced.
pub fn workload(args: &Args) -> ExitCode {
    let workload = args.workload.expect("a workload run names its workload");
    let mut out = if args.traced {
        crate::traced::run(workload, args)
    } else {
        end_to_end(workload, args)
    };
    if !args.traced {
        let ratio = failed_ratio(&out);
        out.put("failed_ratio", Metric::single(ratio, "ratio"));
    }
    let published = catalogue::published(if args.traced {
        "per_layer"
    } else {
        "end_to_end"
    });
    let missing: Vec<&String> = published
        .iter()
        .filter(|name| !out.metrics.contains_key(name.as_str()))
        .collect();
    if !missing.is_empty() && out.failures.is_empty() {
        out.failures
            .push(format!("metrics not measured: {missing:?}"));
    }
    for (name, m) in &out.metrics {
        println!(
            "{name:<42} {:>14.4} {:<9}{}",
            m.value,
            m.unit,
            describe(name, m)
        );
    }
    println!("(* reported here and in the provenance record, not in BENCHMARK.json)");
    for failure in &out.failures {
        eprintln!("FAILED: {failure}");
    }
    write_provenance(workload, args, &out);
    if missing.is_empty() {
        println!("{}", result_line(&out, &published));
    }
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--all`: every workload in its own child process (plus a traced one
/// each with `--traced`), then a one-screen summary.
pub fn all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut ok = true;
    let mut passes = vec![false];
    if args.traced {
        passes.push(true);
    }
    for workload in Workload::ALL {
        for &traced in &passes {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out)
                .stdin(Stdio::null());
            match child.status() {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    ok = false;
                    eprintln!("{} (traced: {traced}) exited with {s}", workload.name());
                }
                Err(e) => {
                    ok = false;
                    eprintln!("could not start {}: {e}", workload.name());
                }
            }
        }
    }
    print_summary(args);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_summary(args: &Args) {
    println!();
    println!(
        "campaign ledger, seed {}, {} cores — median [q1, q3] over timed reps",
        args.seed,
        sys::nproc()
    );
    print!("{:<14}", "workload");
    for m in &catalogue::END_TO_END {
        print!(" {:>30}", format!("{} ({})", m.name, m.unit));
    }
    println!();
    for workload in Workload::ALL {
        print!("{:<14}", workload.name());
        let path = provenance_path(&args.out, args.seed, workload, false);
        let doc = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| serde_json::parse_value(&text).ok());
        for m in &catalogue::END_TO_END {
            let cell = doc
                .as_ref()
                .and_then(|d| d.get("metrics"))
                .and_then(|ms| ms.get(m.name))
                .map_or_else(|| "-".to_owned(), summary_cell);
            print!(" {cell:>30}");
        }
        println!();
    }
}

fn summary_cell(metric: &Value) -> String {
    let num = |key: &str| match metric.get(key) {
        Some(Value::Float(f)) => Some(*f),
        Some(Value::Int(i)) => Some(*i as f64),
        _ => None,
    };
    match (num("value"), num("q1"), num("q3")) {
        (Some(v), Some(q1), Some(q3)) => format!("{v:.3} [{q1:.3}, {q3:.3}]"),
        (Some(v), _, _) => format!("{v:.4}"),
        _ => "-".to_owned(),
    }
}
