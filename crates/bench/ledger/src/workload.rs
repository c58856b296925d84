//! The three workloads: their seeded inputs, one timed repetition each,
//! and the output checks that feed `failed_ratio`.
//!
//! Every workload is a closed loop: a campaign worker takes its next
//! ⟨error, case⟩ pair (or, in the fleet, its next lease) only after the
//! previous one completes, with one worker per core.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fic::campaign::DEFAULT_BATCH_SIZE;
use fic::error_set::{self, E1Error, E2Error};
use fic::fleet::{CampaignSpec, FlightLog, Server, ServerOptions, WorkerOptions};
use fic::journal::JournalTelemetry;
use fic::telemetry::{Registry, TelemetrySnapshot};
use fic::{CampaignRunner, ConvergenceSink, E1Report, E2Report, Journal, JournalWriter, Protocol};

use crate::sys;

/// The default `--seed`: the seed of the paper's E2 draw.
pub const DEFAULT_SEED: u64 = error_set::E2_SEED;

/// E2 error sets per `e2_journaled` repetition, set `i` drawn by
/// `e2_with_seed(E2_SEED + i)`, so set 0 is the paper's E2 set. The
/// sets are fixed and the run's seed only orders them: a fresh draw
/// per seed moves the share of pruned trials, and with it the work of
/// a rep, by about ±10 %.
pub const E2_SETS: u64 = 4;

/// The fleet workload's campaign (queue) name.
pub const FLEET_CAMPAIGN: &str = "campaign";

/// ⟨error, case⟩ pairs each run replays from scratch with
/// [`fic::run_trial`] to check the trials the workload produced.
pub const REPLAY_SAMPLE: usize = 64;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full E1 grid through `CampaignRunner::run_e1`, default modes,
    /// no journal and no observers.
    E1Paper,
    /// Four seeded E2 sets, journaled and fsync'd, every observer on,
    /// then read back and folded.
    E2Journaled,
    /// The full paper campaign through an in-process fleet server and
    /// one `run_worker` thread per core.
    FleetPaper,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::E1Paper,
        Workload::E2Journaled,
        Workload::FleetPaper,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub const fn name(self) -> &'static str {
        match self {
            Workload::E1Paper => "e1_paper",
            Workload::E2Journaled => "e2_journaled",
            Workload::FleetPaper => "fleet_paper",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seconds one repetition takes on a two-core x86-64 host. Only
    /// converts `--seconds` into a repetition count, so two commits
    /// given the same `--seconds` run identical work.
    const fn nominal_rep_s(self) -> f64 {
        match self {
            Workload::E1Paper => 2.3,
            Workload::E2Journaled => 3.0,
            Workload::FleetPaper => 3.7,
        }
    }

    /// Timed repetitions for a run of about `seconds` seconds.
    pub fn reps(self, seconds: u64) -> usize {
        ((seconds as f64 / self.nominal_rep_s()).round() as usize).max(3)
    }
}

/// SplitMix64: a tiny, well-mixed generator, so the inputs a seed
/// produces never depend on another crate's RNG stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub const fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// Shuffles the order of `items`' consecutive blocks of
    /// [`DEFAULT_BATCH_SIZE`], keeping each block intact.
    ///
    /// The campaign runs a test case's errors in lockstep chunks of that
    /// many lanes, in slice order, and a chunk's cost (and memory)
    /// depends on which errors share it: a plain shuffle moved E1
    /// throughput by about 5 % from seed to seed. Shuffling whole
    /// chunks varies the order work is queued and handed to workers
    /// while every seed runs the same chunks.
    pub fn shuffle_blocks<T: Clone>(&mut self, items: &mut [T]) {
        let mut blocks: Vec<Vec<T>> = items
            .chunks(DEFAULT_BATCH_SIZE)
            .map(<[T]>::to_vec)
            .collect();
        self.shuffle(&mut blocks);
        for (slot, item) in items.iter_mut().zip(blocks.into_iter().flatten()) {
            *slot = item;
        }
    }
}

/// Everything a run derives from its seed before the first timed rep.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload these inputs feed.
    pub workload: Workload,
    /// The run's seed.
    pub seed: u64,
    /// The paper protocol with one campaign worker per core.
    pub protocol: Protocol,
    /// `e1_paper`: the E1 set in seeded chunk order.
    pub e1: Vec<E1Error>,
    /// `e2_journaled`: the [`E2_SETS`] error sets, each in seeded
    /// chunk order; set 0 is the paper's.
    pub e2_sets: Vec<Vec<E2Error>>,
    /// `fleet_paper`: E1 and E2 paper error numbers in seeded chunk
    /// order.
    pub fleet_numbers: (Vec<usize>, Vec<usize>),
    /// `results/e1.json` as committed.
    pub committed_e1: String,
    /// `results/e2.json` as committed.
    pub committed_e2: String,
    /// Scratch directory for journals and fleet artefacts.
    pub work_dir: PathBuf,
}

impl Inputs {
    /// The set-up every run pays before its first rep: error sets in
    /// seeded order, the fault-free golden run of every test case, the
    /// committed reference tables and a fresh scratch directory.
    ///
    /// # Errors
    ///
    /// A missing reference table, a failing golden run or a filesystem
    /// failure, as a message.
    pub fn set_up(workload: Workload, seed: u64, out_root: &Path) -> Result<Inputs, String> {
        let mut rng = Rng::new(seed);
        let mut protocol = Protocol::paper();
        protocol.workers = sys::nproc();
        fic::golden::validate_fault_free(&protocol)
            .map_err(|v| format!("fault-free golden run failed: {v:?}"))?;
        let read = |name: &str| {
            std::fs::read_to_string(Path::new("results").join(name))
                .map_err(|e| format!("results/{name}: {e}"))
        };
        let mut inputs = Inputs {
            workload,
            seed,
            protocol,
            e1: Vec::new(),
            e2_sets: Vec::new(),
            fleet_numbers: (Vec::new(), Vec::new()),
            committed_e1: read("e1.json")?,
            committed_e2: read("e2.json")?,
            work_dir: out_root
                .join(seed.to_string())
                .join(format!("{}-work", workload.name())),
        };
        match workload {
            Workload::E1Paper => {
                inputs.e1 = error_set::e1();
                rng.shuffle_blocks(&mut inputs.e1);
            }
            Workload::E2Journaled => {
                inputs.e2_sets = (0..E2_SETS)
                    .map(|i| {
                        let mut set = error_set::e2_with_seed(error_set::E2_SEED + i);
                        rng.shuffle_blocks(&mut set);
                        set
                    })
                    .collect();
            }
            Workload::FleetPaper => {
                let mut e1: Vec<usize> = error_set::e1().iter().map(|e| e.number).collect();
                let mut e2: Vec<usize> = error_set::e2().iter().map(|e| e.number).collect();
                rng.shuffle_blocks(&mut e1);
                rng.shuffle_blocks(&mut e2);
                inputs.fleet_numbers = (e1, e2);
            }
        }
        if inputs.work_dir.exists() {
            std::fs::remove_dir_all(&inputs.work_dir)
                .map_err(|e| format!("{}: {e}", inputs.work_dir.display()))?;
        }
        std::fs::create_dir_all(&inputs.work_dir)
            .map_err(|e| format!("{}: {e}", inputs.work_dir.display()))?;
        Ok(inputs)
    }

    /// Trials one rep runs.
    pub fn trials_per_rep(&self) -> u64 {
        let cases = self.protocol.cases_per_error() as u64;
        match self.workload {
            Workload::E1Paper => self.e1.len() as u64 * cases,
            Workload::E2Journaled => {
                self.e2_sets.iter().map(Vec::len).sum::<usize>() as u64 * cases
            }
            Workload::FleetPaper => {
                (self.fleet_numbers.0.len() + self.fleet_numbers.1.len()) as u64 * cases
            }
        }
    }

    /// The journal of E2 set `i` in the current rep.
    pub fn e2_journal_path(&self, i: usize) -> PathBuf {
        self.work_dir.join(format!("e2-set{i}.jsonl"))
    }

    /// The fleet server's artefact and journal directories.
    pub fn fleet_dirs(&self) -> (PathBuf, PathBuf) {
        (self.work_dir.join("out"), self.work_dir.join("journal"))
    }
}

/// What one rep measured and what its checks found.
#[derive(Debug, Default)]
pub struct Rep {
    /// Trials the rep ran.
    pub trials: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds of every thread of the process.
    pub cpu_s: f64,
    /// Peak resident set during the rep, MB.
    pub peak_rss_mb: f64,
    /// Checks that failed, one message each.
    pub failures: Vec<String>,
    /// Operations beyond the trials that can fail (fleet slices).
    pub operations: u64,
    /// The E1 report the rep produced, if it ran E1.
    pub e1: Option<E1Report>,
    /// The E2 reports the rep produced, one per E2 set.
    pub e2: Vec<E2Report>,
    /// With counters on: the campaign telemetry, merged over the rep.
    pub telemetry: Option<TelemetrySnapshot>,
    /// With counters on: the fleet's flight log.
    pub flight: Option<FlightLog>,
    /// Fleet only: milliseconds from the server's bind to the return
    /// of `Server::run`, on the flight log's clock.
    pub serve_ms: Option<f64>,
}

/// Runs one rep of `inputs.workload`, timed. With `counters`, the
/// campaign also records telemetry and a cost profile, and the fleet
/// its flight log — the traced run's counter rep.
pub fn run_rep(inputs: &Inputs, counters: bool) -> Rep {
    if let Err(e) = sys::reset_peak_rss() {
        eprintln!("warning: cannot reset the peak RSS ({e}); it covers the whole run");
    }
    let cpu = sys::cpu_seconds();
    let start = Instant::now();
    let mut rep = match inputs.workload {
        Workload::E1Paper => e1_rep(inputs, counters),
        Workload::E2Journaled => e2_rep(inputs),
        Workload::FleetPaper => fleet_rep(inputs, counters),
    };
    rep.wall_s = start.elapsed().as_secs_f64();
    rep.cpu_s = sys::cpu_seconds() - cpu;
    rep.peak_rss_mb = sys::peak_rss_mb();
    rep.trials = inputs.trials_per_rep();
    rep
}

/// Checks a report against its committed reference, byte for byte, as
/// the campaign binaries serialise it.
pub fn check_committed<T: serde::Serialize>(
    what: &str,
    report: &T,
    committed: &str,
    failures: &mut Vec<String>,
) {
    let json = serde_json::to_string_pretty(report).expect("reports serialise");
    if json != committed {
        failures.push(format!("{what} differs from the committed results file"));
    }
}

fn e1_rep(inputs: &Inputs, counters: bool) -> Rep {
    let mut rep = Rep::default();
    let mut runner = CampaignRunner::new(inputs.protocol.clone());
    let registry = Arc::new(Registry::new());
    if counters {
        runner = runner
            .with_telemetry(Arc::clone(&registry))
            .with_profile(Arc::new(fic::ProfileRecorder::new()));
    }
    let report = runner.run_e1(&inputs.e1);
    check_committed(
        "E1 report",
        &report,
        &inputs.committed_e1,
        &mut rep.failures,
    );
    rep.e1 = Some(report);
    rep.telemetry = counters.then(|| registry.snapshot());
    rep
}

/// Folds a journal's E2 records into a report with the seeded error
/// set (first record per key wins, as in every journal replay).
///
/// # Errors
///
/// A record naming an error number the set does not have.
pub fn fold_e2_journal(journal: &Journal, set: &[E2Error]) -> Result<E2Report, String> {
    let mut by_number = vec![None; set.len() + 1];
    for e in set {
        by_number[e.number] = Some(*e);
    }
    let mut seen = std::collections::HashSet::new();
    let mut report = E2Report::new();
    for record in &journal.records {
        if !seen.insert((record.error_number, record.case_index)) {
            continue;
        }
        let error = by_number
            .get(record.error_number)
            .copied()
            .flatten()
            .ok_or_else(|| format!("journal names unknown E2 error {}", record.error_number))?;
        report.record(&error, &record.trial);
    }
    Ok(report)
}

fn e2_rep(inputs: &Inputs) -> Rep {
    let mut rep = Rep::default();
    let mut telemetry = TelemetrySnapshot::new();
    for (i, set) in inputs.e2_sets.iter().enumerate() {
        let registry = Arc::new(Registry::new());
        let path = inputs.e2_journal_path(i);
        let outcome = (|| -> Result<(E2Report, E2Report), String> {
            let mut writer = JournalWriter::create(&path, &inputs.protocol)
                .map_err(|e| e.to_string())?
                .with_telemetry(JournalTelemetry::register(&registry));
            // Every observer on: telemetry, attribution, profile and
            // convergence.
            let live = CampaignRunner::new(inputs.protocol.clone())
                .with_telemetry(Arc::clone(&registry))
                .with_attribution(true)
                .with_profile(Arc::new(fic::ProfileRecorder::new()))
                .with_convergence(Arc::new(ConvergenceSink::new()))
                .run_e2_journaled(set, &mut writer)
                .map_err(|e| e.to_string())?;
            writer.finish().map_err(|e| e.to_string())?;
            telemetry.merge(&registry.snapshot());
            let journal = Journal::load(&path).map_err(|e| e.to_string())?;
            Ok((live, fold_e2_journal(&journal, set)?))
        })();
        match outcome {
            Ok((live, folded)) => {
                if live != folded {
                    rep.failures.push(format!(
                        "E2 set {i}: journal fold differs from the live report"
                    ));
                }
                if i == 0 {
                    check_committed(
                        "E2 report",
                        &folded,
                        &inputs.committed_e2,
                        &mut rep.failures,
                    );
                }
                rep.e2.push(folded);
            }
            Err(e) => rep.failures.push(format!("E2 set {i}: {e}")),
        }
    }
    rep.telemetry = Some(telemetry);
    rep
}

/// One fleet campaign: a server on a loopback port and one
/// `run_worker` thread per configured campaign worker, each running
/// its slices on one thread. With `flight_recorder` the server also
/// writes its flight log.
fn fleet_rep(inputs: &Inputs, flight_recorder: bool) -> Rep {
    let mut rep = Rep::default();
    let (out_dir, journal_dir) = inputs.fleet_dirs();
    for dir in [&out_dir, &journal_dir] {
        if dir.exists() {
            if let Err(e) = std::fs::remove_dir_all(dir) {
                rep.failures.push(format!("{}: {e}", dir.display()));
                return rep;
            }
        }
    }
    let options = ServerOptions {
        listen: "127.0.0.1:0".to_owned(),
        out_dir: out_dir.clone(),
        journal_dir: Some(journal_dir),
        once: true,
        flight_recorder,
        ..ServerOptions::default()
    };
    let spec = CampaignSpec {
        name: FLEET_CAMPAIGN.to_owned(),
        protocol: inputs.protocol.clone(),
        e1_numbers: inputs.fleet_numbers.0.clone(),
        e2_numbers: inputs.fleet_numbers.1.clone(),
    };
    let slices = 2 * inputs.protocol.cases_per_error() as u64;
    rep.operations = slices;
    let server = match Server::bind(options, vec![spec]) {
        Ok(server) => server,
        Err(e) => {
            rep.failures.push(format!("fleet server bind: {e}"));
            return rep;
        }
    };
    let addr = server
        .local_addr()
        .expect("a bound listener has an address");
    let bound = Instant::now();
    let (summary, workers) = std::thread::scope(|scope| {
        let server = scope.spawn(move || server.run());
        let workers: Vec<_> = (0..inputs.protocol.workers.max(1))
            .map(|w| {
                let options = WorkerOptions {
                    connect: addr.to_string(),
                    name: format!("bench-{w}"),
                    threads: 1,
                    ..WorkerOptions::default()
                };
                scope.spawn(move || fic::fleet::run_worker(&options))
            })
            .collect();
        let workers: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("worker threads do not panic"))
            .collect();
        (
            server.join().expect("the server thread does not panic"),
            workers,
        )
    });
    rep.serve_ms = Some(bound.elapsed().as_secs_f64() * 1e3);
    let (mut leases, mut completed) = (0, 0);
    for worker in workers {
        match worker {
            Ok(s) => {
                leases += s.leases;
                completed += s.slices_completed;
                if s.slices_duplicate > 0 {
                    rep.failures.push(format!(
                        "fleet worker {} had {} deduplicated results",
                        s.worker_id, s.slices_duplicate
                    ));
                }
            }
            Err(e) => rep.failures.push(format!("fleet worker: {e}")),
        }
    }
    if leases != slices || completed != slices {
        rep.failures.push(format!(
            "fleet took {leases} leases and completed {completed} for {slices} slices \
             (refused or reassigned leases)"
        ));
    }
    match summary {
        Ok(mut summary) if summary.campaigns.len() == 1 => {
            let outcome = summary.campaigns.pop().expect("one campaign");
            check_committed(
                "fleet E1 report",
                &outcome.e1_report,
                &inputs.committed_e1,
                &mut rep.failures,
            );
            check_committed(
                "fleet E2 report",
                &outcome.e2_report,
                &inputs.committed_e2,
                &mut rep.failures,
            );
            if outcome.trials != inputs.trials_per_rep() {
                rep.failures.push(format!(
                    "fleet journaled {} trials, expected {}",
                    outcome.trials,
                    inputs.trials_per_rep()
                ));
            }
            rep.e1 = Some(outcome.e1_report);
            rep.e2 = vec![outcome.e2_report];
            if flight_recorder {
                rep.telemetry = Some(outcome.telemetry);
                let path = out_dir.join(FLEET_CAMPAIGN).join("trace/flight_log.json");
                match std::fs::read_to_string(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
                {
                    Ok(log) => rep.flight = Some(log),
                    Err(e) => rep.failures.push(format!("{}: {e}", path.display())),
                }
            }
        }
        Ok(_) => rep.failures.push("fleet returned no campaign".to_owned()),
        Err(e) => rep.failures.push(format!("fleet server: {e}")),
    }
    rep
}

/// One trial the workload produced, with the coordinates to replay it.
#[derive(Debug, Clone)]
pub struct Produced {
    /// What was flipped.
    pub flip: memsim::BitFlip,
    /// The test case's index in the protocol grid.
    pub case_index: usize,
    /// The trial as the workload produced it.
    pub trial: fic::Trial,
}

/// Draws the seeded replay sample: `REPLAY_SAMPLE` pair indices below
/// `population`, distinct when the population allows it.
pub fn sample_indices(seed: u64, population: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5EED_5A3B_1E00_0000);
    let mut indices: Vec<usize> = (0..population).collect();
    rng.shuffle(&mut indices);
    indices.truncate(REPLAY_SAMPLE);
    indices.sort_unstable();
    indices
}

/// The seeded sample of trials this run's last rep produced.
///
/// # Errors
///
/// A journal that cannot be read back, as a message.
pub fn produced_sample(inputs: &Inputs) -> Result<Vec<Produced>, String> {
    let cases = inputs.protocol.grid.cases().len();
    match inputs.workload {
        Workload::E1Paper => {
            // run_e1 keeps no per-trial output, so the sample runs
            // through the same runner's pair entry point.
            let pairs: Vec<(usize, usize)> = sample_indices(inputs.seed, inputs.e1.len() * cases)
                .into_iter()
                .map(|k| (k / cases, k % cases))
                .collect();
            Ok(CampaignRunner::new(inputs.protocol.clone())
                .run_e1_pairs(&inputs.e1, &pairs)
                .into_iter()
                .map(|(ei, ci, trial)| Produced {
                    flip: inputs.e1[ei].flip,
                    case_index: ci,
                    trial,
                })
                .collect())
        }
        Workload::E2Journaled => {
            let per_set = error_set::E2_RAM_ERRORS + error_set::E2_STACK_ERRORS;
            let mut out = Vec::new();
            let mut journals: Vec<Option<Journal>> = vec![None; inputs.e2_sets.len()];
            for k in sample_indices(inputs.seed, inputs.e2_sets.len() * per_set * cases) {
                let (set, rest) = (k / (per_set * cases), k % (per_set * cases));
                let (ei, ci) = (rest / cases, rest % cases);
                if journals[set].is_none() {
                    journals[set] = Some(
                        Journal::load(&inputs.e2_journal_path(set)).map_err(|e| e.to_string())?,
                    );
                }
                let error = inputs.e2_sets[set][ei];
                out.push(journal_trial(
                    journals[set].as_ref().expect("loaded above"),
                    fic::CampaignKind::E2,
                    error.number,
                    error.flip,
                    ci,
                )?);
            }
            Ok(out)
        }
        Workload::FleetPaper => {
            let journal = Journal::load(
                &inputs
                    .fleet_dirs()
                    .1
                    .join(format!("{FLEET_CAMPAIGN}.jsonl")),
            )
            .map_err(|e| e.to_string())?;
            let e1 = error_set::e1();
            let e2 = error_set::e2();
            let mut out = Vec::new();
            for k in sample_indices(inputs.seed, (e1.len() + e2.len()) * cases) {
                let (ei, ci) = (k / cases, k % cases);
                let produced = if ei < e1.len() {
                    journal_trial(
                        &journal,
                        fic::CampaignKind::E1,
                        e1[ei].number,
                        e1[ei].flip,
                        ci,
                    )
                } else {
                    let e = e2[ei - e1.len()];
                    journal_trial(&journal, fic::CampaignKind::E2, e.number, e.flip, ci)
                };
                out.push(produced?);
            }
            Ok(out)
        }
    }
}

fn journal_trial(
    journal: &Journal,
    kind: fic::CampaignKind,
    number: usize,
    flip: memsim::BitFlip,
    case_index: usize,
) -> Result<Produced, String> {
    journal
        .records
        .iter()
        .find(|r| r.campaign == kind && r.error_number == number && r.case_index == case_index)
        .map(|r| Produced {
            flip,
            case_index,
            trial: r.trial.clone(),
        })
        .ok_or_else(|| format!("journal lacks {kind:?} error {number} case {case_index}"))
}

/// Replays each sampled trial from t = 0 with [`fic::run_trial`] (no
/// checkpoint, settle proof or prune) and reports every mismatch.
pub fn replay_check(protocol: &Protocol, sample: &[Produced]) -> Vec<String> {
    let cases = protocol.grid.cases();
    sample
        .iter()
        .filter(|p| fic::run_trial(protocol, p.flip, cases[p.case_index]) != p.trial)
        .map(|p| {
            format!(
                "replayed trial differs: flip {:?}, case {}",
                p.flip, p.case_index
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_shuffle_keeps_every_chunk_whole() {
        let items: Vec<usize> = (0..112).collect();
        let mut shuffled = items.clone();
        Rng::new(7).shuffle_blocks(&mut shuffled);
        assert_ne!(shuffled, items);
        let mut chunks: Vec<Vec<usize>> = shuffled
            .chunks(DEFAULT_BATCH_SIZE)
            .map(<[usize]>::to_vec)
            .collect();
        chunks.sort();
        let original: Vec<Vec<usize>> = items
            .chunks(DEFAULT_BATCH_SIZE)
            .map(<[usize]>::to_vec)
            .collect();
        assert_eq!(chunks, original);
    }

    #[test]
    fn seeds_repeat_their_inputs() {
        let mut a: Vec<usize> = (0..200).collect();
        let mut b = a.clone();
        Rng::new(42).shuffle_blocks(&mut a);
        Rng::new(42).shuffle_blocks(&mut b);
        assert_eq!(a, b);
        assert_eq!(sample_indices(42, 5000), sample_indices(42, 5000));
        assert_ne!(sample_indices(42, 5000), sample_indices(43, 5000));
    }

    #[test]
    fn replay_sample_is_distinct_and_in_range() {
        let sample = sample_indices(3, 2800);
        assert_eq!(sample.len(), REPLAY_SAMPLE);
        assert!(sample.windows(2).all(|w| w[0] < w[1]));
        assert!(sample.iter().all(|&k| k < 2800));
        assert_eq!(sample_indices(3, 10).len(), 10);
    }

    #[test]
    fn rep_counts_follow_seconds() {
        assert_eq!(Workload::E1Paper.reps(23), 10);
        assert_eq!(Workload::FleetPaper.reps(1), 3);
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }
}
