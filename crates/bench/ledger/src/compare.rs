//! `--compare <base_dir> <head_dir>`: the pairwise rule applied to
//! every ⟨end-to-end metric, workload⟩ pair of two sets of runs.
//!
//! Each directory holds the provenance records runs wrote (any depth,
//! e.g. `--out <dir>` once per seed). Base and head runs pair up by
//! seed, then by path order within a seed, so run both sides over the
//! same seeds, alternating which side runs first. Traced records are
//! not end-to-end samples; instead their exact counts must repeat.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::Value;

use crate::catalogue::{self, EndToEnd};
use crate::stats::{self, Verdict};
use crate::workload::Workload;

/// One provenance record.
#[derive(Debug)]
struct Run {
    workload: String,
    seed: u64,
    traced: bool,
    metrics: BTreeMap<String, f64>,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn parse_run(text: &str) -> Option<Run> {
    let doc = serde_json::parse_value(text).ok()?;
    if !matches!(doc.get("benchmark"), Some(Value::Str(s)) if s == "campaign-ledger") {
        return None;
    }
    let Some(Value::Str(workload)) = doc.get("workload") else {
        return None;
    };
    let seed = doc.get("seed").and_then(number)? as u64;
    let traced = matches!(doc.get("traced"), Some(Value::Bool(true)));
    let Some(Value::Object(entries)) = doc.get("metrics") else {
        return None;
    };
    let metrics = entries
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value").and_then(number)?)))
        .collect();
    Some(Run {
        workload: workload.clone(),
        seed,
        traced,
        metrics,
    })
}

fn collect(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect(&path, files)?;
        } else if path.extension().is_some_and(|e| e == "json") {
            files.push(path);
        }
    }
    Ok(())
}

/// Every provenance record under `dir`, in path order.
fn load(dir: &Path) -> Result<Vec<Run>, String> {
    let mut files = Vec::new();
    collect(dir, &mut files).map_err(|e| format!("{}: {e}", dir.display()))?;
    files.sort();
    Ok(files
        .iter()
        .filter_map(|f| std::fs::read_to_string(f).ok())
        .filter_map(|text| parse_run(&text))
        .collect())
}

/// Values of `metric` on `workload`'s untraced runs, keyed by
/// ⟨seed, occurrence⟩ so both sides pair up.
fn samples(runs: &[Run], workload: &str, metric: &str) -> BTreeMap<(u64, usize), f64> {
    let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
    let mut out = BTreeMap::new();
    for run in runs.iter().filter(|r| r.workload == workload && !r.traced) {
        let k = seen.entry(run.seed).or_insert(0);
        if let Some(&v) = run.metrics.get(metric) {
            out.insert((run.seed, *k), v);
        }
        *k += 1;
    }
    out
}

fn verdict(metric: &EndToEnd, base: &[f64], head: &[f64]) -> Verdict {
    if metric.bound == 0.0 {
        // Any increase is a regression (failed_ratio).
        let worse = head.iter().sum::<f64>() > base.iter().sum::<f64>();
        return if worse {
            Verdict::Regressed
        } else if base.len().min(head.len()) < stats::MIN_PAIRS {
            Verdict::Unresolved
        } else {
            Verdict::NoChange
        };
    }
    stats::judge(base, head, metric.better, metric.bound)
}

fn describe(values: &[f64]) -> String {
    if values.is_empty() {
        return "-".to_owned();
    }
    let (q1, q2, q3) = stats::quartiles(values);
    format!("{q2:.4} [{q1:.4}, {q3:.4}]")
}

/// Exact-count layer metrics of traced runs that disagree between the
/// two sides for the same workload and seed.
fn exact_mismatches(base: &[Run], head: &[Run]) -> (usize, Vec<String>) {
    let mut compared = 0;
    let mut differ = Vec::new();
    for b in base.iter().filter(|r| r.traced) {
        for h in head
            .iter()
            .filter(|h| h.traced && h.workload == b.workload && h.seed == b.seed)
        {
            for layer in catalogue::LAYERS.iter().filter(|l| l.exact) {
                if let (Some(x), Some(y)) = (b.metrics.get(layer.name), h.metrics.get(layer.name)) {
                    compared += 1;
                    if x != y {
                        differ.push(format!(
                            "{} seed {}: {} is {x} on base, {y} on head",
                            b.workload, b.seed, layer.name
                        ));
                    }
                }
            }
        }
    }
    (compared, differ)
}

/// Prints one row per ⟨workload, end-to-end metric⟩; fails when any
/// regressed.
pub fn main(base_dir: &Path, head_dir: &Path) -> ExitCode {
    let (base, head) = match (load(base_dir), load(head_dir)) {
        (Ok(b), Ok(h)) => (b, h),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark --compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<18} {:>30} {:>30} {:>5}  verdict",
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "pairs"
    );
    let mut regressed = false;
    for workload in Workload::ALL.map(Workload::name) {
        for metric in &catalogue::END_TO_END {
            let b = samples(&base, workload, metric.name);
            let h = samples(&head, workload, metric.name);
            let keys: Vec<&(u64, usize)> = b.keys().filter(|k| h.contains_key(k)).collect();
            let bv: Vec<f64> = keys.iter().map(|k| b[k]).collect();
            let hv: Vec<f64> = keys.iter().map(|k| h[k]).collect();
            let v = verdict(metric, &bv, &hv);
            regressed |= v == Verdict::Regressed;
            println!(
                "{workload:<14} {:<18} {:>30} {:>30} {:>5}  {}",
                metric.name,
                describe(&bv),
                describe(&hv),
                keys.len(),
                v.label()
            );
        }
    }
    let (compared, differ) = exact_mismatches(&base, &head);
    println!(
        "exact layer counts: {compared} compared, {} differ",
        differ.len()
    );
    for d in &differ {
        println!("  {d}");
    }
    if regressed || !differ.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, seed: u64, traced: bool, value: f64) -> String {
        format!(
            r#"{{"benchmark": "campaign-ledger", "workload": "{workload}", "traced": {traced},
               "seed": {seed}, "metrics": {{"trials_per_s": {{"value": {value}, "unit": "trials/s"}},
               "prune.references": {{"value": {value}, "unit": "count"}}}}}}"#
        )
    }

    #[test]
    fn runs_pair_by_seed_and_occurrence() {
        let runs: Vec<Run> = [
            record("e1_paper", 2, false, 10.0),
            record("e1_paper", 1, false, 11.0),
            record("e1_paper", 1, false, 12.0),
            record("e1_paper", 1, true, 99.0),
            record("e2_journaled", 1, false, 13.0),
        ]
        .iter()
        .filter_map(|t| parse_run(t))
        .collect();
        let s = samples(&runs, "e1_paper", "trials_per_s");
        assert_eq!(s.len(), 3);
        assert_eq!(s[&(1, 0)], 11.0);
        assert_eq!(s[&(1, 1)], 12.0);
        assert_eq!(s[&(2, 0)], 10.0);
        assert!(parse_run(r#"{"benchmark": "other"}"#).is_none());
    }

    #[test]
    fn exact_counts_must_repeat() {
        let base: Vec<Run> = [record("e1_paper", 1, true, 25.0)]
            .iter()
            .filter_map(|t| parse_run(t))
            .collect();
        let same: Vec<Run> = [record("e1_paper", 1, true, 25.0)]
            .iter()
            .filter_map(|t| parse_run(t))
            .collect();
        let other: Vec<Run> = [record("e1_paper", 1, true, 24.0)]
            .iter()
            .filter_map(|t| parse_run(t))
            .collect();
        assert_eq!(exact_mismatches(&base, &same), (1, vec![]));
        assert_eq!(exact_mismatches(&base, &other).1.len(), 1);
    }

    #[test]
    fn any_increase_in_failures_regresses() {
        let failed = catalogue::END_TO_END
            .iter()
            .find(|m| m.name == "failed_ratio")
            .expect("catalogued");
        let zeros = vec![0.0; 10];
        let mut one = zeros.clone();
        one[3] = 0.001;
        assert_eq!(verdict(failed, &zeros, &one), Verdict::Regressed);
        assert_eq!(verdict(failed, &zeros, &zeros), Verdict::NoChange);
        assert_eq!(
            verdict(failed, &zeros[..5], &zeros[..5]),
            Verdict::Unresolved
        );
    }
}
