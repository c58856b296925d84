//! The metric catalogue: every end-to-end and per-layer metric this
//! benchmark reports, with its unit, its better direction and — for a
//! layer metric — the end-to-end metric it should move and the
//! workloads it should move it on.
//!
//! `BENCHMARK.json` at the repository root is the published contract;
//! the tests below check that it and this catalogue agree, and every
//! run checks that it emits exactly the metrics the file names.

use crate::stats::Better;

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the base median by which it may worsen.
    pub bound: f64,
    /// Whether `BENCHMARK.json` lists it. `failed_ratio` is reported
    /// and compared but not listed: it reads 0 on every healthy run,
    /// and the run's `failed` count already carries it.
    pub published: bool,
}

/// The end-to-end metrics, measured with tracing off.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "trials_per_s",
        unit: "trials/s",
        better: Better::Higher,
        bound: 0.25,
        published: true,
    },
    EndToEnd {
        name: "cpu_ms_per_trial",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        published: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        published: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        published: true,
    },
    EndToEnd {
        name: "failed_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        published: false,
    },
];

/// One per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name, prefixed by its layer.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The end-to-end metrics a change to this layer should move.
    pub moves: &'static [&'static str],
    /// The workloads it should move them on.
    pub on: &'static [&'static str],
    /// A count that must repeat exactly for a given seed.
    pub exact: bool,
    /// Listed in `BENCHMARK.json`: measured on every workload and able
    /// to move. The fleet's flight-log metrics exist only on
    /// `fleet_paper`, and in-process queue waits read 0 µs on every
    /// run (work is queued before the workers start).
    pub published: bool,
}

const TPS: &[&str] = &["trials_per_s"];
const CPU: &[&str] = &["cpu_ms_per_trial"];
const TPS_CPU: &[&str] = &["trials_per_s", "cpu_ms_per_trial"];
const E1: &[&str] = &["e1_paper"];
const E2: &[&str] = &["e2_journaled"];
const FLEET: &[&str] = &["fleet_paper"];
const E1_E2: &[&str] = &["e1_paper", "e2_journaled"];
const E2_FLEET: &[&str] = &["e2_journaled", "fleet_paper"];
const ALL: &[&str] = &["e1_paper", "e2_journaled", "fleet_paper"];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [&'static str],
    on: &'static [&'static str],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        on,
        exact: false,
        published: true,
    }
}

const fn exact(mut l: Layer) -> Layer {
    l.exact = true;
    l
}

const fn unpublished(mut l: Layer) -> Layer {
    l.published = false;
    l
}

use Better::{Higher, Lower};

/// The per-layer metrics, by layer.
pub const LAYERS: [Layer; 46] = [
    // arrestor::system — the node half (six modules plus EA checks)
    // and the environment half (plant and failure monitor).
    layer("arrestor.system.node_ns_per_ms", "ns", Lower, TPS_CPU, E1),
    layer("arrestor.system.plant_ns_per_ms", "ns", Lower, TPS_CPU, E1),
    // Simulated milliseconds, one tick each: a count, not a time.
    exact(layer(
        "arrestor.system.sim_ms_per_trial",
        "ticks",
        Lower,
        TPS,
        E1_E2,
    )),
    // arrestor::checkpoint and arrestor::settle.
    layer(
        "arrestor.checkpoint.settle_ns_per_call",
        "ns",
        Lower,
        TPS,
        E1,
    ),
    exact(layer(
        "arrestor.checkpoint.captures_per_trial",
        "count",
        Lower,
        TPS,
        E1,
    )),
    exact(layer(
        "arrestor.checkpoint.settled_ratio",
        "ratio",
        Higher,
        TPS,
        E1,
    )),
    exact(layer(
        "arrestor.checkpoint.analytic_stop_ratio",
        "ratio",
        Higher,
        TPS,
        E1,
    )),
    layer("arrestor.checkpoint.resume_us", "us", Lower, TPS, E1),
    // arrestor::batch.
    layer("arrestor.batch.us_per_lane", "us", Lower, TPS, E1),
    layer("arrestor.batch.over_scalar", "ratio", Lower, TPS, E1),
    // arrestor::detectors.
    exact(layer(
        "arrestor.detectors.checks_per_trial",
        "count",
        Lower,
        CPU,
        E1,
    )),
    layer("arrestor.detectors.ns_per_check", "ns", Lower, CPU, E1),
    // fic::experiment.
    layer("experiment.prefix_build_ms", "ms", Lower, TPS, ALL),
    layer("experiment.trial_us_p50", "us", Lower, TPS, ALL),
    layer("experiment.trial_us_p99", "us", Lower, TPS, ALL),
    layer("experiment.reference_trial_us", "us", Lower, TPS, E2),
    // fic::prune.
    exact(layer("prune.pruned_ratio", "ratio", Higher, TPS, E2)),
    exact(layer("prune.references", "count", Lower, TPS, E2)),
    layer("prune.classify_ns", "ns", Lower, TPS, E2),
    // fic::campaign.
    unpublished(layer("campaign.queue_wait_us_p50", "us", Lower, TPS, E1_E2)),
    unpublished(layer("campaign.queue_wait_us_p99", "us", Lower, TPS, E1_E2)),
    exact(layer(
        "campaign.cache_hit_ratio",
        "ratio",
        Higher,
        TPS,
        E1_E2,
    )),
    layer("campaign.parallel_efficiency", "ratio", Higher, TPS, E1_E2),
    layer("campaign.self_share", "ratio", Lower, TPS, E1_E2),
    // fic::results.
    layer("results.fold_ns_per_trial", "ns", Lower, CPU, E2),
    // fic::journal.
    layer("journal.append_us", "us", Lower, TPS, E2_FLEET),
    layer("journal.sync_us_p50", "us", Lower, TPS, E2_FLEET),
    layer("journal.sync_us_p99", "us", Lower, TPS, E2_FLEET),
    exact(layer("journal.bytes_per_trial", "B", Lower, TPS, E2_FLEET)),
    layer("journal.load_us_per_trial", "us", Lower, TPS, E2_FLEET),
    layer("journal.fold_us_per_trial", "us", Lower, TPS, E2_FLEET),
    // The observers: attribution, convergence, profile, telemetry.
    layer("attribution.record_ns_per_trial", "ns", Lower, CPU, E2),
    layer("convergence.record_ns_per_trial", "ns", Lower, CPU, E2),
    layer("profile.record_ns_per_trial", "ns", Lower, CPU, E2),
    layer("telemetry.snapshot_ms", "ms", Lower, CPU, E2),
    layer("observers.share", "ratio", Lower, CPU, E2),
    // fic::fleet.
    unpublished(layer("fleet.lease_wait_ms_p50", "ms", Lower, TPS, FLEET)),
    unpublished(layer("fleet.lease_wait_ms_p80", "ms", Lower, TPS, FLEET)),
    unpublished(layer("fleet.execute_ms_p50", "ms", Lower, TPS, FLEET)),
    unpublished(layer("fleet.fold_ms_p50", "ms", Lower, TPS, FLEET)),
    unpublished(layer("fleet.fold_ms_p80", "ms", Lower, TPS, FLEET)),
    // Not exact: result frames carry the worker's timing histograms.
    layer("fleet.frame_bytes_per_trial", "B", Lower, TPS, FLEET),
    layer("fleet.encode_us_per_trial", "us", Lower, TPS, FLEET),
    layer("fleet.decode_us_per_trial", "us", Lower, TPS, FLEET),
    unpublished(layer("fleet.tail_idle_ms", "ms", Lower, TPS, FLEET)),
    unpublished(layer(
        "fleet.heartbeat_ms_per_slice",
        "ms",
        Lower,
        TPS,
        FLEET,
    )),
];

/// Looks up a per-layer metric.
pub fn layer_metric(name: &str) -> Option<&'static Layer> {
    LAYERS.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, as built into this binary.
pub const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

/// The metric names `BENCHMARK.json` lists under `key`
/// (`end_to_end` or `per_layer`), in file order.
pub fn published(key: &str) -> Vec<String> {
    let doc = serde_json::parse_value(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    match doc.get(key) {
        Some(serde_json::Value::Array(items)) => items
            .iter()
            .filter_map(|m| match m.get("name") {
                Some(serde_json::Value::Str(s)) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn doc() -> Value {
        serde_json::parse_value(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    fn keys(v: &Value) -> Vec<&str> {
        match v {
            Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("expected an object, found {}", v.kind()),
        }
    }

    fn items<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        match v.get(key) {
            Some(Value::Array(items)) => items,
            other => panic!("`{key}` is not an array: {other:?}"),
        }
    }

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        match v.get(key) {
            Some(Value::Str(s)) => s,
            other => panic!("`{key}` is not a string: {other:?}"),
        }
    }

    fn number(v: &Value, key: &str) -> f64 {
        match v.get(key) {
            Some(Value::Float(f)) => *f,
            Some(Value::Int(i)) => *i as f64,
            other => panic!("`{key}` is not a number: {other:?}"),
        }
    }

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn benchmark_json_has_the_contract_shape() {
        let doc = doc();
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        assert_eq!(
            keys(&doc),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let run_seconds = number(&doc, "run_seconds");
        assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));
        let workloads = items(&doc, "workloads");
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            assert_eq!(keys(w), ["name", "why"]);
            let why = text(w, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        let e2e = items(&doc, "end_to_end");
        assert!((1..=16).contains(&e2e.len()));
        for m in e2e {
            assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
            let bound = number(m, "bound");
            assert!((0.0..=0.25).contains(&bound), "{m:?}");
        }
        let layers = items(&doc, "per_layer");
        assert!((1..=128).contains(&layers.len()));
        for m in layers {
            assert_eq!(keys(m), ["name", "unit", "better"]);
        }
        let mut names: Vec<&str> = Vec::new();
        for m in workloads.iter().chain(e2e).chain(layers) {
            let name = text(m, "name");
            assert!(is_name(name), "bad name `{name}`");
            assert!(!names.contains(&name), "`{name}` is used twice");
            names.push(name);
        }
        for m in e2e.iter().chain(layers) {
            assert!(is_unit(text(m, "unit")), "{m:?}");
            assert!(["lower", "higher"].contains(&text(m, "better")), "{m:?}");
        }
        let setup = e2e
            .iter()
            .find(|m| text(m, "name") == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!(text(setup, "unit"), "s");
        assert_eq!(text(setup, "better"), "lower");
        let largest = e2e.iter().map(|m| number(m, "bound")).fold(0.0, f64::max);
        assert_eq!(
            number(setup, "bound"),
            largest,
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn benchmark_json_paths_and_command_stay_inside_the_benchmark() {
        let doc = doc();
        let paths = items(&doc, "paths");
        assert!((1..=16).contains(&paths.len()));
        for p in paths {
            let Value::Str(p) = p else {
                panic!("path {p:?}")
            };
            assert!(p.len() <= 200 && !p.starts_with('/') && !p.contains(".."));
            assert!(p
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)));
        }
        let command = items(&doc, "command");
        assert!(!command.is_empty() && command.len() <= 32);
        for arg in command {
            let Value::Str(arg) = arg else {
                panic!("arg {arg:?}")
            };
            assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = doc();
        let workloads: Vec<&str> = items(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);

        let e2e = items(&doc, "end_to_end");
        let published: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.published).collect();
        assert_eq!(e2e.len(), published.len());
        for (m, ours) in e2e.iter().zip(published) {
            assert_eq!(text(m, "name"), ours.name);
            assert_eq!(text(m, "unit"), ours.unit);
            assert_eq!(text(m, "better"), ours.better.label());
            assert_eq!(number(m, "bound"), ours.bound);
        }

        let layers = items(&doc, "per_layer");
        let published: Vec<&Layer> = LAYERS.iter().filter(|l| l.published).collect();
        assert_eq!(layers.len(), published.len());
        for (m, ours) in layers.iter().zip(published) {
            assert_eq!(text(m, "name"), ours.name);
            assert_eq!(text(m, "unit"), ours.unit);
            assert_eq!(text(m, "better"), ours.better.label());
        }
    }

    #[test]
    fn every_layer_metric_names_an_end_to_end_metric_and_a_workload() {
        let doc = doc();
        let e2e: Vec<&str> = items(&doc, "end_to_end")
            .iter()
            .map(|m| text(m, "name"))
            .collect();
        let workloads: Vec<&str> = items(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert!(LAYERS.len() <= 128);
        for l in &LAYERS {
            assert!(!l.moves.is_empty() && !l.on.is_empty(), "{}", l.name);
            for m in l.moves {
                assert!(e2e.contains(m), "{} moves unknown metric {m}", l.name);
            }
            for w in l.on {
                assert!(
                    workloads.contains(w),
                    "{} names unknown workload {w}",
                    l.name
                );
            }
            assert!(is_name(l.name) && is_unit(l.unit), "{}", l.name);
        }
    }
}
