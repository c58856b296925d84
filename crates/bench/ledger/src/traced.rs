//! The traced run (`--trace 1`): where one workload's time goes, layer
//! by layer. Its numbers are per-layer metrics, never end-to-end ones.
//!
//! One process, three parts:
//!
//! * **(a) baseline** — one untraced rep at one campaign worker; its
//!   wall time is W1.
//! * **(b) decomposition** (`crate::decompose`) — the same work at one
//!   worker through the same public functions, in the campaign's order,
//!   with a span around each call into a layer. Its reports must equal
//!   the baseline's. Then a scalar pass runs every executed pair through
//!   the library's scalar loop, timed per trial, and through the bench
//!   replica (`crate::replica`) on every fourth pair; the reference
//!   trial of every case is timed; and layers the workload does not use
//!   (journal, observers, wire frames) are probed on its trials, outside
//!   the decomposition, so every workload reports every layer.
//! * **(c) counter rep** — one rep at `nproc` workers with telemetry,
//!   a cost profile and, for the fleet, the flight recorder; the queue,
//!   cache and fleet lifecycle numbers come from it.
//!
//! `campaign.self_share` = (W1 − Σ layer self time of (b)) ÷ W1 is the
//! campaign loop's own share: thread hand-off, queueing, sorting.

use std::collections::BTreeMap;
use std::time::Instant;

use fic::experiment::run_reference_trial_with;
use fic::fleet::{FlightLog, SpanKind};
use fic::telemetry::{HistogramSnapshot, TelemetrySnapshot};
use fic::Protocol;

use crate::decompose::{Ledger, ANALYTIC};
use crate::replica;
use crate::run::{Metric, Outcome};
use crate::stats;
use crate::sys;
use crate::workload::{self, Inputs, Rep, Rng, Workload};
use crate::{catalogue, Args};

/// Largest campaign residual the decomposition should leave: more
/// means a layer is missing from it.
const MAX_SELF_SHARE: f64 = 0.15;

/// Every n-th executed pair also runs through the bench replica.
const REPLICA_EVERY: usize = 4;

/// Spans that group work rather than name a layer.
const STRUCTURAL: [&str; 5] = ["decomposition", "probe", "set", "case", "slice"];

/// The observer layers summed into `observers.share`.
const OBSERVER_SPANS: [&str; 5] = [
    "attribution.record",
    "convergence.record",
    "profile.record",
    "telemetry.record",
    "telemetry.snapshot",
];

/// Counters the campaign folds deterministically: the decomposition's
/// mirror must reproduce the counter rep's values exactly.
const MIRRORED_COUNTERS: [&str; 12] = [
    "campaign.trials",
    "campaign.trials.settled",
    "campaign.trials.full_window",
    "campaign.window_ms.simulated",
    "campaign.window_ms.skipped",
    "campaign.settle.proof.exact",
    "campaign.settle.proof.translated",
    "campaign.settle.proof.retired_clock",
    "campaign.settle.proof.frozen_hung",
    "campaign.settle.proof.analytic_band",
    "campaign.prune.trials",
    "campaign.prune.references",
];

/// A quantile of a bucketed histogram, interpolated linearly inside
/// its bucket and clamped to the observed range; 0 when empty.
fn histogram_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    let (Some(min), Some(max)) = (h.min, h.max) else {
        return 0.0;
    };
    let (min, max) = (min as f64, max as f64);
    let target = q * h.count as f64;
    let mut below = 0.0;
    for (i, &n) in h.buckets.iter().enumerate() {
        let n = n as f64;
        if n > 0.0 && below + n >= target {
            let lower = if i == 0 { min } else { h.bounds[i - 1] as f64 };
            let upper = h.bounds.get(i).map_or(max, |&b| b as f64);
            let value = lower + (upper - lower) * ((target - below) / n).clamp(0.0, 1.0);
            return value.clamp(min, max);
        }
        below += n;
    }
    max
}

/// Per-slice durations of the fleet flight log, ms: lease wait
/// (enqueued or reassigned → leased), execution (leased → submitted)
/// and fold (submitted → folded).
fn flight_segments(log: &FlightLog) -> (Vec<f64>, Vec<f64>, Vec<f64>, u64) {
    let mut by_slice: BTreeMap<u64, Vec<(u64, SpanKind)>> = BTreeMap::new();
    for e in &log.events {
        by_slice
            .entry(e.slice_id)
            .or_default()
            .push((e.at_ms, e.kind));
    }
    let (mut wait, mut execute, mut fold) = (Vec::new(), Vec::new(), Vec::new());
    let mut last_fold = 0;
    for events in by_slice.values() {
        let at = |kind: SpanKind| events.iter().find(|(_, k)| *k == kind).map(|(t, _)| *t);
        if let (Some(queued), Some(leased)) = (at(SpanKind::Enqueued), at(SpanKind::Leased)) {
            wait.push(leased.saturating_sub(queued) as f64);
        }
        if let (Some(leased), Some(done)) = (at(SpanKind::Leased), at(SpanKind::Submitted)) {
            execute.push(done.saturating_sub(leased) as f64);
        }
        if let (Some(done), Some(folded)) = (at(SpanKind::Submitted), at(SpanKind::Folded)) {
            fold.push(folded.saturating_sub(done) as f64);
            last_fold = last_fold.max(folded);
        }
    }
    (wait, execute, fold, last_fold)
}

/// Checks the decomposition's mirrored campaign counters against the
/// counter rep's real ones.
fn check_mirror(
    mirrored: &TelemetrySnapshot,
    real: &TelemetrySnapshot,
    failures: &mut Vec<String>,
) {
    for name in MIRRORED_COUNTERS {
        let (ours, theirs) = (mirrored.counter(name), real.counter(name));
        if ours != theirs {
            failures.push(format!(
                "telemetry mirror drifted: {name} is {ours} in the decomposition, {theirs} in the campaign"
            ));
        }
    }
}

/// Runs the traced pass of `workload` and computes every per-layer
/// metric it can measure.
pub fn run(workload: Workload, args: &Args) -> Outcome {
    let mut out = Outcome {
        reps: 1,
        workers: sys::nproc(),
        ..Outcome::default()
    };
    let inputs = match Inputs::set_up(workload, args.seed, &args.out) {
        Ok(inputs) => inputs,
        Err(e) => {
            out.failures.push(e);
            return out;
        }
    };
    let one_worker = Inputs {
        protocol: Protocol {
            workers: 1,
            ..inputs.protocol.clone()
        },
        ..inputs.clone()
    };

    eprintln!("{} traced: (a) baseline at 1 worker", workload.name());
    let baseline = workload::run_rep(&one_worker, false);
    let w1_s = baseline.wall_s;
    out.attempted += baseline.trials + baseline.operations;
    out.failures.extend(baseline.failures.iter().cloned());

    eprintln!("{} traced: (b) decomposition at 1 worker", workload.name());
    let mut ledger = Ledger::new(&inputs);
    let start = Instant::now();
    match workload {
        Workload::E1Paper => ledger.e1(),
        Workload::E2Journaled => ledger.e2(),
        Workload::FleetPaper => ledger.fleet(),
    }
    let decomposition_s = start.elapsed().as_secs_f64();
    if ledger.e1 != baseline.e1 || ledger.e2 != baseline.e2 {
        ledger
            .failures
            .push("the decomposition's reports differ from the campaign's".to_owned());
    }
    out.attempted += ledger.outputs.len() as u64;

    eprintln!(
        "{} traced: scalar pass, replica, reference trials, probes",
        workload.name()
    );
    let scalar = scalar_pass(&mut ledger, args.seed);
    let reference_us = reference_trials(&ledger);
    ledger.probe(workload);
    let sample = sample_outputs(&ledger, args.seed);
    out.attempted += sample.len() as u64;
    ledger
        .failures
        .extend(workload::replay_check(&ledger.protocol, &sample));

    eprintln!(
        "{} traced: (c) counter rep at {} workers",
        workload.name(),
        inputs.protocol.workers
    );
    let counters = workload::run_rep(&inputs, true);
    out.attempted += counters.trials + counters.operations;
    out.failures.extend(counters.failures.iter().cloned());
    if let Some(real) = &counters.telemetry {
        check_mirror(&ledger.mirrored, real, &mut ledger.failures);
    }

    let trace_path = args
        .out
        .join(args.seed.to_string())
        .join(format!("trace-{}.json", workload.name()));
    match ledger.spans.write(&trace_path) {
        Ok(()) => eprintln!("spans written to {}", trace_path.display()),
        Err(e) => ledger
            .failures
            .push(format!("{}: {e}", trace_path.display())),
    }

    metrics(&mut out, &ledger, &scalar, &reference_us, w1_s, &counters);
    out.put(
        "trace_overhead_ratio",
        Metric::single(decomposition_s / w1_s, "ratio"),
    );
    if !ledger.probed.is_empty() {
        eprintln!(
            "probed on this workload's trials (layers it does not use): {}",
            ledger.probed.join(", ")
        );
    }
    out.failures.append(&mut ledger.failures);
    out
}

/// What the scalar pass measured.
#[derive(Debug, Default)]
struct Scalar {
    trial_us: Vec<f64>,
    costs: replica::Costs,
    replicated: usize,
}

/// Every executed pair through the library's scalar loop (timed per
/// trial), and every `REPLICA_EVERY`-th through the bench replica; both
/// must reproduce the decomposition's trial and execution exactly.
fn scalar_pass(ledger: &mut Ledger<'_>, seed: u64) -> Scalar {
    let mut scalar = Scalar {
        costs: replica::Costs::new(),
        ..Scalar::default()
    };
    let mut rng = Rng::new(seed ^ 0x7153_CA1A);
    let protocol = ledger.protocol.clone();
    let mut failures = Vec::new();
    let executed = ledger.outputs.iter().filter(|o| o.execution.is_some());
    for (k, o) in executed.enumerate() {
        let case = ledger.cases[o.case_index];
        let prefix = ledger.prefixes[o.case_index]
            .as_ref()
            .expect("an executed case built its prefix");
        let flip = o.error.flip();
        let start = Instant::now();
        let (trial, execution) = fic::experiment::run_trial_checkpointed_observed_with(
            &protocol, flip, case, prefix, ANALYTIC,
        );
        scalar.trial_us.push(start.elapsed().as_secs_f64() * 1e6);
        if trial != o.trial || Some(execution) != o.execution {
            failures.push(format!(
                "scalar trial differs from its batched lane: flip {flip:?}, case {}",
                o.case_index
            ));
        }
        if k % REPLICA_EVERY == 0 {
            let (r_trial, r_exec) = replica::run_trial(
                &protocol,
                flip,
                prefix,
                ANALYTIC,
                &mut scalar.costs,
                &mut rng,
            );
            scalar.replicated += 1;
            if r_trial != trial
                || r_exec.settle_stop_ms != execution.settle_stop_ms
                || r_exec.simulated_ms != execution.simulated_ms
                || r_exec.ea_checks != execution.ea_checks
            {
                failures.push(format!(
                    "scalar replica drifted from the library loop: flip {flip:?}, case {}",
                    o.case_index
                ));
            }
        }
    }
    ledger.failures.append(&mut failures);
    scalar
}

/// The fault-free reference trial of every case, timed, µs.
fn reference_trials(ledger: &Ledger<'_>) -> Vec<f64> {
    ledger
        .prefixes
        .iter()
        .zip(&ledger.cases)
        .filter_map(|(prefix, &case)| {
            let prefix = prefix.as_ref()?;
            let start = Instant::now();
            std::hint::black_box(run_reference_trial_with(
                &ledger.protocol,
                case,
                prefix,
                ANALYTIC,
            ));
            Some(start.elapsed().as_secs_f64() * 1e6)
        })
        .collect()
}

fn sample_outputs(ledger: &Ledger<'_>, seed: u64) -> Vec<workload::Produced> {
    workload::sample_indices(seed, ledger.outputs.len())
        .into_iter()
        .map(|k| {
            let o = &ledger.outputs[k];
            workload::Produced {
                flip: o.error.flip(),
                case_index: o.case_index,
                trial: o.trial.clone(),
            }
        })
        .collect()
}

/// Every per-layer metric from the decomposition, the scalar pass and
/// the counter rep.
fn metrics(
    out: &mut Outcome,
    ledger: &Ledger<'_>,
    scalar: &Scalar,
    reference_us: &[f64],
    w1_s: f64,
    counters: &Rep,
) {
    let trials = ledger.outputs.len().max(1) as f64;
    let lanes = ledger.executed.lanes.max(1) as f64;
    let appended = ledger.journal_trials.max(1) as f64;
    let loaded = ledger.loaded_records.max(1) as f64;
    let wire = ledger.wire_trials.max(1) as f64;
    let per = |name: &str, n: f64| ledger.spans.total_ns(name) as f64 / n;
    let costs = &scalar.costs;
    let checks: u64 = ledger.executed.checks.iter().sum();
    let check_ns: f64 = ledger
        .executed
        .checks
        .iter()
        .zip(fic::profile::sample_wall_ns())
        .map(|(&n, ns)| n as f64 * ns)
        .sum();
    let batch_us = per("arrestor.batch", lanes) / 1e3;
    let scalar_us = scalar.trial_us.iter().sum::<f64>() / scalar.trial_us.len().max(1) as f64;
    let trial_tail = stats::tail(&scalar.trial_us, 10);
    if trial_tail.is_some_and(|(p, _)| p < 99.0) {
        eprintln!(
            "warning: fewer than 10 scalar trials lie beyond p99; {trial_tail:?} is the tail"
        );
    }
    let own = ledger.spans.self_ns(Some("decomposition"));
    let layer_ns: u64 = own
        .iter()
        .filter(|(name, _)| !STRUCTURAL.contains(name))
        .map(|(_, ns)| ns)
        .sum();
    let self_share = (w1_s - layer_ns as f64 / 1e9) / w1_s;
    if self_share > MAX_SELF_SHARE {
        eprintln!(
            "warning: campaign.self_share {self_share:.3} exceeds {MAX_SELF_SHARE}: the layers \
             miss part of W1 (or the host slowed during the baseline)"
        );
    }
    let observers_ns: u64 = OBSERVER_SPANS.iter().filter_map(|n| own.get(n)).sum();
    let tel = counters.telemetry.clone().unwrap_or_default();
    let (hits, misses) = (
        tel.counter("campaign.checkpoint.cache.hits"),
        tel.counter("campaign.checkpoint.cache.misses"),
    );
    let tps_1 = counters.trials as f64 / w1_s;
    let tps_n = counters.trials as f64 / counters.wall_s;
    let workers = ledger.inputs.protocol.workers.max(1) as f64;

    let mut values: Vec<(&'static str, f64)> = vec![
        (
            "arrestor.system.node_ns_per_ms",
            replica::Costs::mean(costs.node),
        ),
        (
            "arrestor.system.plant_ns_per_ms",
            replica::Costs::mean(costs.plant),
        ),
        (
            "arrestor.system.sim_ms_per_trial",
            ledger.executed.simulated_ms as f64 / trials,
        ),
        (
            "arrestor.checkpoint.settle_ns_per_call",
            replica::Costs::mean(costs.settle),
        ),
        (
            "arrestor.checkpoint.captures_per_trial",
            ledger.executed.captures as f64 / lanes,
        ),
        (
            "arrestor.checkpoint.settled_ratio",
            ledger.executed.settled as f64 / lanes,
        ),
        (
            "arrestor.checkpoint.analytic_stop_ratio",
            ledger.executed.analytic as f64 / lanes,
        ),
        (
            "arrestor.checkpoint.resume_us",
            replica::Costs::mean(costs.resume) / 1e3,
        ),
        ("arrestor.batch.us_per_lane", batch_us),
        ("arrestor.batch.over_scalar", batch_us / scalar_us),
        ("arrestor.detectors.checks_per_trial", checks as f64 / lanes),
        (
            "arrestor.detectors.ns_per_check",
            check_ns / checks.max(1) as f64,
        ),
        (
            "experiment.prefix_build_ms",
            stats::median(&ledger.prefix_build_ms),
        ),
        (
            "experiment.trial_us_p50",
            stats::percentile(&scalar.trial_us, 50.0),
        ),
        (
            "experiment.trial_us_p99",
            stats::percentile(&scalar.trial_us, 99.0),
        ),
        ("experiment.reference_trial_us", stats::median(reference_us)),
        ("prune.pruned_ratio", ledger.pruned as f64 / trials),
        ("prune.references", ledger.references as f64),
        (
            "prune.classify_ns",
            per("prune.classify", ledger.classify_calls.max(1) as f64),
        ),
        (
            "campaign.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        ("campaign.parallel_efficiency", tps_n / (workers * tps_1)),
        ("campaign.self_share", self_share),
        ("results.fold_ns_per_trial", per("results.fold", trials)),
        ("journal.append_us", per("journal.append", appended) / 1e3),
        (
            "journal.bytes_per_trial",
            ledger.journal_bytes as f64 / appended,
        ),
        (
            "journal.load_us_per_trial",
            per("journal.load", loaded) / 1e3,
        ),
        (
            "journal.fold_us_per_trial",
            per("journal.fold", loaded) / 1e3,
        ),
        (
            "attribution.record_ns_per_trial",
            per("attribution.record", trials),
        ),
        (
            "convergence.record_ns_per_trial",
            per("convergence.record", trials),
        ),
        ("profile.record_ns_per_trial", per("profile.record", trials)),
        ("telemetry.snapshot_ms", stats::median(&ledger.snapshot_ms)),
        ("observers.share", observers_ns as f64 / 1e9 / w1_s),
        (
            "fleet.frame_bytes_per_trial",
            ledger.wire_bytes as f64 / wire,
        ),
        ("fleet.encode_us_per_trial", per("fleet.encode", wire) / 1e3),
        ("fleet.decode_us_per_trial", per("fleet.decode", wire) / 1e3),
    ];
    if let Some(h) = tel.histograms.get("campaign.worker.queue_wait_us") {
        values.push(("campaign.queue_wait_us_p50", histogram_quantile(h, 0.5)));
        values.push(("campaign.queue_wait_us_p99", histogram_quantile(h, 0.99)));
    }
    if let Some(h) = ledger
        .journal_telemetry
        .histograms
        .get("journal.flush_latency_us")
    {
        values.push(("journal.sync_us_p50", histogram_quantile(h, 0.5)));
        values.push(("journal.sync_us_p99", histogram_quantile(h, 0.99)));
    }
    if ledger.slices > 0 {
        let slices = ledger.slices as f64;
        values.push((
            "fleet.heartbeat_ms_per_slice",
            per("fleet.heartbeat", slices) / 1e6,
        ));
    }
    if let Some(log) = &counters.flight {
        let (wait, execute, fold, last_fold) = flight_segments(log);
        values.extend([
            ("fleet.lease_wait_ms_p50", stats::percentile(&wait, 50.0)),
            ("fleet.lease_wait_ms_p80", stats::percentile(&wait, 80.0)),
            ("fleet.execute_ms_p50", stats::percentile(&execute, 50.0)),
            ("fleet.fold_ms_p50", stats::percentile(&fold, 50.0)),
            ("fleet.fold_ms_p80", stats::percentile(&fold, 80.0)),
        ]);
        if let Some(serve_ms) = counters.serve_ms {
            values.push(("fleet.tail_idle_ms", (serve_ms - last_fold as f64).max(0.0)));
        }
    }
    for (name, value) in values {
        let unit = catalogue::layer_metric(name)
            .expect("catalogued layer metric")
            .unit;
        out.put(name, Metric::single(value, unit));
    }
    let replica_ns_per_ms = costs.trial.1 / costs.simulated_ms.max(1) as f64;
    for (name, value, unit) in [
        ("baseline_w1_s", w1_s, "s"),
        ("counter_rep_s", counters.wall_s, "s"),
        ("replicated_trials", scalar.replicated as f64, "count"),
        ("replica_ns_per_ms", replica_ns_per_ms, "ns"),
    ] {
        out.put(name, Metric::single(value, unit));
    }
}
