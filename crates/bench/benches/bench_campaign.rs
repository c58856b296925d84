//! Campaign-throughput benchmark: batched lockstep execution against
//! the scalar checkpointed path and the straight-line replay baseline.
//!
//! Three invocations:
//!
//! * `cargo bench -p bench --bench bench_campaign` — Criterion
//!   comparison on a reduced protocol (statistical, slow-ish);
//! * `cargo bench -p bench --bench bench_campaign -- --json [path]` —
//!   one timed full-E1-grid campaign (112 errors × 25 cases, 40 s
//!   windows) per ⟨mode, worker count⟩ across all four execution
//!   modes (`replay`, `exact`, `scalar`, `batched`), written as
//!   machine-readable JSON to `path` (default: `BENCH_campaign.json`
//!   at the repo root). This regenerates the committed perf-trajectory
//!   artefact quoted in `PERFORMANCE.md`;
//! * `-- --smoke [path]` — same JSON shape on a reduced grid, for CI.
//!
//! Every timed campaign's report is cross-checked against the replay
//! report, so the benchmark doubles as an equivalence test: a speedup
//! obtained by changing results would abort the run.

use std::time::Instant;

use criterion::{black_box, criterion_group, Criterion};

use fic::{error_set, CampaignRunner, E1Report, Protocol};

/// Worker counts exercised by the JSON modes: 1, 4 and the host's core
/// count, capped at the core count (running more CPU-bound workers
/// than cores measures scheduler thrash, not the campaign), duplicates
/// removed.
fn worker_counts() -> Vec<usize> {
    let all = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut counts: Vec<usize> = [1, 4, all].into_iter().filter(|&w| w <= all).collect();
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// The execution modes the sweep compares. `Scalar` is the
/// checkpointed per-trial loop (the `--scalar` CLI path); `Batched` is
/// the lockstep SoA executor (the default CLI path); `Exact` is
/// `Batched` with the analytic absorbing-band settle proof disabled
/// (the `--no-analytic-settle` escape hatch, and the default before
/// the analytic bound landed) — its gap to `Batched` is the settle
/// tail the bound closes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Replay,
    Exact,
    Scalar,
    Batched,
}

impl Mode {
    const ALL: [Mode; 4] = [Mode::Replay, Mode::Exact, Mode::Scalar, Mode::Batched];

    fn label(self) -> &'static str {
        match self {
            Mode::Replay => "replay",
            Mode::Exact => "exact",
            Mode::Scalar => "scalar",
            Mode::Batched => "batched",
        }
    }

    fn configure(self, runner: CampaignRunner) -> CampaignRunner {
        match self {
            Mode::Replay => runner.with_checkpointing(false),
            Mode::Exact => runner
                .with_checkpointing(true)
                .with_batching(true)
                .with_analytic_settle(false),
            Mode::Scalar => runner.with_checkpointing(true).with_batching(false),
            Mode::Batched => runner.with_checkpointing(true).with_batching(true),
        }
    }
}

struct TimedRun {
    mode: &'static str,
    workers: usize,
    wall_s: f64,
    trials_per_s: f64,
    /// Mean simulated instant at which settled trials stopped
    /// (`campaign.settle.stop_ms`); `None` for replay, which never
    /// settles anything.
    mean_settle_stop_ms: Option<f64>,
    settled: u64,
    full_window: u64,
    analytic_stops: u64,
    report: E1Report,
}

fn timed_e1(protocol: &Protocol, errors: &[fic::E1Error], mode: Mode) -> TimedRun {
    let registry = std::sync::Arc::new(fic::telemetry::Registry::new());
    let runner = mode
        .configure(CampaignRunner::new(protocol.clone()))
        .with_telemetry(std::sync::Arc::clone(&registry));
    let trials = errors.len() * protocol.cases_per_error();
    let start = Instant::now();
    let report = runner.run_e1(errors);
    let wall_s = start.elapsed().as_secs_f64();
    let snapshot = registry.snapshot();
    let stops = snapshot.histograms.get("campaign.settle.stop_ms");
    TimedRun {
        mode: mode.label(),
        workers: protocol.effective_workers().max(1),
        wall_s,
        trials_per_s: trials as f64 / wall_s,
        mean_settle_stop_ms: stops
            .filter(|h| h.count > 0)
            .map(|h| h.sum as f64 / h.count as f64),
        settled: snapshot.counter("campaign.trials.settled"),
        full_window: snapshot.counter("campaign.trials.full_window"),
        analytic_stops: snapshot.counter("campaign.settle.analytic.stops"),
        report,
    }
}

/// Mean fault-free arrest instant across the grid's test cases — the
/// earliest any settle strategy could plausibly stop, since captures
/// only begin once the plant has arrested. Reported alongside each
/// mode's mean settle stop so PERFORMANCE.md's arrest-vs-settle
/// timeline regenerates with the JSON.
fn mean_arrest_ms(protocol: &Protocol) -> f64 {
    let cases = protocol.grid.cases();
    let count = cases.len();
    let mut total = 0u64;
    for case in cases {
        let mut system = arrestor::System::new(case, arrestor::RunConfig::default());
        while !system.plant_state().arrested && system.time_ms() < protocol.observation_ms {
            system.tick();
        }
        total += system.plant_state().time_ms;
    }
    total as f64 / count as f64
}

/// Per-worker-count speedup ratios between the modes.
struct Speedup {
    workers: usize,
    scalar_over_replay: f64,
    batched_over_replay: f64,
    batched_over_scalar: f64,
    batched_over_exact: f64,
}

/// Runs the grid sweep for one protocol and returns (runs, speedups).
/// Speedup is trials/sec of the faster mode ÷ trials/sec of the
/// baseline at the same worker count.
fn sweep(mut protocol: Protocol, errors: &[fic::E1Error]) -> (Vec<TimedRun>, Vec<Speedup>) {
    let mut runs = Vec::new();
    let mut speedups = Vec::new();
    for workers in worker_counts() {
        protocol.workers = workers;
        let mut by_mode = Vec::new();
        for mode in Mode::ALL {
            eprintln!("  workers={workers}: {}...", mode.label());
            let run = timed_e1(&protocol, errors, mode);
            eprintln!("    {:.2} s ({:.0} trials/s)", run.wall_s, run.trials_per_s);
            if mode != Mode::Replay {
                assert_eq!(
                    run.report,
                    by_mode[0],
                    "{} E1 report diverged from replay at {workers} workers",
                    mode.label()
                );
            }
            by_mode.push(run.report.clone());
            runs.push(run);
        }
        let rate = |mode: Mode| {
            runs.iter()
                .rfind(|r| r.mode == mode.label() && r.workers == workers)
                .map(|r| r.trials_per_s)
                .unwrap()
        };
        let speedup = Speedup {
            workers,
            scalar_over_replay: rate(Mode::Scalar) / rate(Mode::Replay),
            batched_over_replay: rate(Mode::Batched) / rate(Mode::Replay),
            batched_over_scalar: rate(Mode::Batched) / rate(Mode::Scalar),
            batched_over_exact: rate(Mode::Batched) / rate(Mode::Exact),
        };
        eprintln!(
            "    speedups: scalar {:.2}x, batched {:.2}x over replay \
             (batched/scalar {:.2}x, batched/exact {:.2}x)",
            speedup.scalar_over_replay,
            speedup.batched_over_replay,
            speedup.batched_over_scalar,
            speedup.batched_over_exact
        );
        speedups.push(speedup);
    }
    (runs, speedups)
}

fn write_json(path: &std::path::Path, protocol: &Protocol, errors: usize, full_grid: bool) {
    use serde_json::Value;

    let trials = errors * protocol.cases_per_error();
    eprintln!(
        "timing E1 grid: {errors} errors x {} cases ({trials} trials, {} ms windows)",
        protocol.cases_per_error(),
        protocol.observation_ms
    );
    let error_set = error_set::e1();
    let subset: Vec<_> = error_set.iter().take(errors).copied().collect();
    let (runs, speedups) = sweep(protocol.clone(), &subset);

    let int = |n: usize| Value::Int(n as i128);
    let obj = |entries: Vec<(&str, Value)>| {
        Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    };
    let json = obj(vec![
        ("benchmark", Value::Str("bench_campaign".to_owned())),
        (
            "grid",
            Value::Str(if full_grid { "full-e1" } else { "smoke" }.to_owned()),
        ),
        (
            "protocol",
            obj(vec![
                ("errors", int(errors)),
                ("cases_per_error", int(protocol.cases_per_error())),
                ("observation_ms", int(protocol.observation_ms as usize)),
                (
                    "injection_period_ms",
                    int(protocol.injection_period_ms as usize),
                ),
            ]),
        ),
        ("trials", int(trials)),
        (
            "host_cores",
            int(std::thread::available_parallelism().map_or(1, std::num::NonZero::get)),
        ),
        (
            // Provenance: which code produced these numbers, and what
            // shapes were swept. Mirrors the campaign telemetry
            // reports' run metadata (see OBSERVABILITY.md).
            "run_metadata",
            obj(vec![
                ("git_sha", Value::Str(fic::telemetry::git_sha())),
                (
                    "worker_counts",
                    Value::Array(worker_counts().into_iter().map(int).collect()),
                ),
                (
                    "execution_modes",
                    Value::Array(
                        Mode::ALL
                            .into_iter()
                            .map(|m| Value::Str(m.label().to_owned()))
                            .collect(),
                    ),
                ),
                (
                    "grid",
                    obj(vec![
                        ("errors", int(errors)),
                        ("cases_per_error", int(protocol.cases_per_error())),
                    ]),
                ),
            ]),
        ),
        ("mean_arrest_ms", Value::Float(mean_arrest_ms(protocol))),
        (
            "runs",
            Value::Array(
                runs.iter()
                    .map(|r| {
                        obj(vec![
                            ("mode", Value::Str(r.mode.to_owned())),
                            ("workers", int(r.workers)),
                            ("wall_s", Value::Float(r.wall_s)),
                            ("trials_per_s", Value::Float(r.trials_per_s)),
                            (
                                "mean_settle_stop_ms",
                                r.mean_settle_stop_ms.map_or(Value::Null, Value::Float),
                            ),
                            ("settled", int(r.settled as usize)),
                            ("full_window", int(r.full_window as usize)),
                            ("analytic_stops", int(r.analytic_stops as usize)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "speedup_trials_per_s",
            Value::Object(
                speedups
                    .iter()
                    .map(|s| {
                        (
                            format!("workers_{}", s.workers),
                            obj(vec![
                                ("scalar_over_replay", Value::Float(s.scalar_over_replay)),
                                ("batched_over_replay", Value::Float(s.batched_over_replay)),
                                ("batched_over_scalar", Value::Float(s.batched_over_scalar)),
                                ("batched_over_exact", Value::Float(s.batched_over_exact)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(
        path,
        format!("{}\n", serde_json::to_string_pretty(&json).unwrap()),
    )
    .expect("write benchmark JSON");
    eprintln!("wrote {}", path.display());
}

fn default_json_path() -> std::path::PathBuf {
    // crates/bench → repo root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_campaign.json")
}

fn criterion_campaign(c: &mut Criterion) {
    let errors = error_set::e1();
    let subset: Vec<_> = errors.iter().step_by(16).copied().collect(); // one per signal
    let mut protocol = Protocol::scaled(2, 4_000);
    protocol.workers = 1;
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    for mode in Mode::ALL {
        group.bench_function(format!("e1_{}", mode.label()), |b| {
            let runner = mode.configure(CampaignRunner::new(protocol.clone()));
            b.iter(|| black_box(runner.run_e1(&subset)))
        });
    }
    group.finish();
}

criterion_group!(benches, criterion_campaign);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mode_at = args.iter().position(|a| a == "--json" || a == "--smoke");
    if let Some(i) = mode_at {
        let path = args
            .get(i + 1)
            .filter(|a| !a.starts_with('-'))
            .map_or_else(default_json_path, std::path::PathBuf::from);
        if args[i] == "--json" {
            write_json(&path, &Protocol::paper(), error_set::e1().len(), true);
        } else {
            let mut protocol = Protocol::scaled(2, 8_000);
            protocol.workers = 0;
            write_json(&path, &protocol, 14, false);
        }
        return;
    }
    benches();
}
