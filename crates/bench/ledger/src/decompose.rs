//! The decomposition pass of the traced run: one workload at one
//! campaign worker, through the same public functions of `fic` and
//! `arrestor` the campaign calls, in the campaign's order, with a span
//! around each call into a layer (collector-side layers get one span
//! per lockstep chunk); and probes of the layers a workload does not
//! use, run on its trials outside the decomposition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use arrestor::{EaSet, Snapshot};
use fic::attribution::{AttributionAggregate, AttributionEvent, MonitoredMap};
use fic::campaign::{CheckpointCache, InjectableError, DEFAULT_BATCH_SIZE};
use fic::error_set::{self, E1Error, E2Error};
use fic::experiment::{run_case_batch_with, TrialExecution};
use fic::fleet::wire::{decode_payload, encode_frame, Command, Response, SliceLease};
use fic::fleet::ServerOptions;
use fic::journal::JournalTelemetry;
use fic::telemetry::{Counter, Histogram, Registry, TelemetrySnapshot};
use fic::{
    AttributionSink, CampaignKind, CampaignTelemetry, ConvergenceSink, E1Report, E2Report, Journal,
    JournalWriter, ProfileRecorder, Protocol, PruneCache, PruneClass, Trial, TrialRecord,
};
use simenv::TestCase;

use crate::spans::Spans;
use crate::workload::{self, Inputs, Workload};

/// Campaigns run with the analytic settle proof on (the default).
pub const ANALYTIC: bool = true;

/// Either kind of campaign error, by value.
#[derive(Debug, Clone, Copy)]
pub enum ErrorRef {
    E1(E1Error),
    E2(E2Error),
}

impl ErrorRef {
    fn kind(self) -> CampaignKind {
        match self {
            ErrorRef::E1(_) => CampaignKind::E1,
            ErrorRef::E2(_) => CampaignKind::E2,
        }
    }

    pub fn flip(self) -> memsim::BitFlip {
        match self {
            ErrorRef::E1(e) => e.flip,
            ErrorRef::E2(e) => e.flip,
        }
    }

    fn number(self) -> usize {
        match self {
            ErrorRef::E1(e) => e.number,
            ErrorRef::E2(e) => e.number,
        }
    }

    fn event(self, case_index: usize, trial: &Trial, map: &MonitoredMap) -> AttributionEvent {
        match self {
            ErrorRef::E1(e) => e.attribution_event(case_index, trial, map),
            ErrorRef::E2(e) => e.attribution_event(case_index, trial, map),
        }
    }
}

/// A campaign error type the decomposition can run.
trait Tagged: InjectableError + Copy {
    fn tag(self) -> ErrorRef;
}

impl Tagged for E1Error {
    fn tag(self) -> ErrorRef {
        ErrorRef::E1(self)
    }
}

impl Tagged for E2Error {
    fn tag(self) -> ErrorRef {
        ErrorRef::E2(self)
    }
}

/// One trial of the decomposition, in completion order.
#[derive(Debug, Clone)]
pub struct Output {
    pub error: ErrorRef,
    pub case_index: usize,
    pub trial: Trial,
    /// `None` for a pruned trial (it shares its case's reference).
    pub execution: Option<TrialExecution>,
}

/// Mirrors the per-trial telemetry fold of `fic::campaign` (private
/// to that module) into a registry under the same metric names, so
/// the decomposition pays the campaign's telemetry cost and its
/// counters can be checked against the counter rep's.
struct Mirror {
    registry: Arc<Registry>,
    campaign: CampaignTelemetry,
    trials: Arc<Counter>,
    worker_trials: Arc<Counter>,
    settled: Arc<Counter>,
    full_window: Arc<Counter>,
    simulated: Arc<Counter>,
    skipped: Arc<Counter>,
    proofs: [Arc<Counter>; 5],
    analytic_stops: Arc<Counter>,
    pruned: Arc<Counter>,
    dead_stack: Arc<Counter>,
    unread_ram: Arc<Counter>,
    references: Arc<Counter>,
    stop_ms: Arc<Histogram>,
    captures: Arc<Histogram>,
    latency: Arc<Histogram>,
}

impl Mirror {
    fn new(kind: CampaignKind) -> Self {
        let registry = Arc::new(Registry::new());
        let campaign = CampaignTelemetry::register(&registry);
        registry.gauge("campaign.workers").set(1);
        let c = |name: &str| registry.counter(name);
        let proof = |label: &str| registry.counter(&format!("campaign.settle.proof.{label}"));
        Mirror {
            trials: c("campaign.trials"),
            worker_trials: c("campaign.worker.0.trials"),
            settled: c("campaign.trials.settled"),
            full_window: c("campaign.trials.full_window"),
            simulated: c("campaign.window_ms.simulated"),
            skipped: c("campaign.window_ms.skipped"),
            proofs: [
                proof("exact"),
                proof("translated"),
                proof("retired_clock"),
                proof("frozen_hung"),
                proof("analytic_band"),
            ],
            analytic_stops: c("campaign.settle.analytic.stops"),
            pruned: c("campaign.prune.trials"),
            dead_stack: c("campaign.prune.dead_stack"),
            unread_ram: c("campaign.prune.unread_ram"),
            references: c("campaign.prune.references"),
            stop_ms: registry.histogram(
                "campaign.settle.stop_ms",
                &fic::telemetry::latency_bounds_ms(),
            ),
            captures: registry.histogram(
                "campaign.settle.captures",
                &fic::telemetry::small_count_bounds(),
            ),
            latency: registry.histogram(
                &format!("campaign.{}.detection_latency_ms", kind.label()),
                &fic::telemetry::latency_bounds_ms(),
            ),
            campaign,
            registry,
        }
    }

    fn execution(&self, exec: &TrialExecution) {
        self.simulated.add(exec.simulated_ms);
        self.skipped.add(exec.skipped_ms);
        self.captures.record(exec.settle_captures);
        match exec.settle_stop_ms {
            Some(ms) => {
                self.settled.inc();
                self.stop_ms.record(ms);
            }
            None => self.full_window.inc(),
        }
        if let Some(proof) = exec.settle_proof {
            let slot = match proof {
                arrestor::SettleProof::ExactRecurrence => 0,
                arrestor::SettleProof::TranslatedRecurrence => 1,
                arrestor::SettleProof::RetiredClock => 2,
                arrestor::SettleProof::FrozenHung => 3,
                arrestor::SettleProof::AnalyticBand => {
                    self.analytic_stops.inc();
                    4
                }
            };
            self.proofs[slot].inc();
        }
    }

    fn prune(&self, class: PruneClass) {
        self.pruned.inc();
        match class {
            PruneClass::DeadStack => self.dead_stack.inc(),
            PruneClass::UnreadRam => self.unread_ram.inc(),
        }
    }

    fn trial(&self, trial: &Trial) {
        self.worker_trials.inc();
        self.trials.inc();
        if let Some(latency) = trial.latency_ms(EaSet::ALL) {
            self.latency.record(latency);
        }
    }
}

/// Per-execution caches a campaign call builds afresh.
struct Caches {
    checkpoint: CheckpointCache,
    prune: PruneCache,
    built: Vec<bool>,
}

/// Execution-shape totals over every executed (non-pruned) lane.
#[derive(Debug, Default)]
pub struct Executed {
    pub lanes: u64,
    pub simulated_ms: u64,
    pub captures: u64,
    pub settled: u64,
    pub analytic: u64,
    pub checks: [u64; 7],
}

impl Executed {
    fn add(&mut self, exec: &TrialExecution) {
        self.lanes += 1;
        self.simulated_ms += exec.simulated_ms;
        self.captures += exec.settle_captures;
        self.settled += u64::from(exec.settle_stop_ms.is_some());
        self.analytic += u64::from(exec.settle_proof == Some(arrestor::SettleProof::AnalyticBand));
        for (total, n) in self.checks.iter_mut().zip(exec.ea_checks) {
            *total += n;
        }
    }
}

/// The decomposition's state and every count its metrics divide by.
pub struct Ledger<'a> {
    pub inputs: &'a Inputs,
    pub protocol: Protocol,
    pub cases: Vec<TestCase>,
    pub spans: Spans,
    pub outputs: Vec<Output>,
    pub prefixes: Vec<Option<Arc<Snapshot>>>,
    pub prefix_build_ms: Vec<f64>,
    pub classify_calls: u64,
    pub pruned: u64,
    pub references: u64,
    pub executed: Executed,
    pub journal_trials: u64,
    pub journal_bytes: u64,
    pub loaded_records: u64,
    pub wire_trials: u64,
    pub wire_bytes: u64,
    /// Fleet slices the decomposition ran.
    pub slices: u64,
    pub snapshot_ms: Vec<f64>,
    /// Campaign telemetry the decomposition's mirrors folded.
    pub mirrored: TelemetrySnapshot,
    /// Journal flush latencies of the decomposition and probe writers.
    pub journal_telemetry: TelemetrySnapshot,
    pub e1: Option<E1Report>,
    pub e2: Vec<E2Report>,
    pub probed: Vec<&'static str>,
    pub failures: Vec<String>,
}

impl<'a> Ledger<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        let mut protocol = inputs.protocol.clone();
        protocol.workers = 1;
        let cases = protocol.grid.cases();
        Ledger {
            inputs,
            prefixes: vec![None; cases.len()],
            protocol,
            cases,
            spans: Spans::new(),
            outputs: Vec::new(),
            prefix_build_ms: Vec::new(),
            classify_calls: 0,
            pruned: 0,
            references: 0,
            executed: Executed::default(),
            journal_trials: 0,
            journal_bytes: 0,
            loaded_records: 0,
            wire_trials: 0,
            wire_bytes: 0,
            slices: 0,
            snapshot_ms: Vec::new(),
            mirrored: TelemetrySnapshot::new(),
            journal_telemetry: TelemetrySnapshot::new(),
            e1: None,
            e2: Vec::new(),
            probed: Vec::new(),
            failures: Vec::new(),
        }
    }

    fn caches(&mut self) -> Caches {
        let prune = self.spans.time("prune.map", PruneCache::new);
        Caches {
            checkpoint: CheckpointCache::new(),
            prune,
            built: vec![false; self.cases.len()],
        }
    }

    /// Encodes and decodes one wire message, as the sender and the
    /// receiver of a fleet connection do.
    fn round_trip<T: serde::Serialize + serde::Deserialize>(
        &mut self,
        message: &T,
    ) -> Result<T, String> {
        let frame = self.spans.time("fleet.encode", || encode_frame(message));
        self.wire_bytes += frame.len() as u64;
        self.spans
            .time("fleet.decode", || decode_payload(&frame[4..]))
            .map_err(|e| e.to_string())
    }

    /// The worker half of one lockstep chunk, as `CampaignRunner`
    /// runs it: prefix per lane, prune classification, the batch, the
    /// case's reference trial for pruned lanes.
    fn chunk<E: Tagged>(
        &mut self,
        errors: &[E],
        ci: usize,
        eis: &[usize],
        caches: &mut Caches,
        mirror: Option<&Mirror>,
        profile: Option<&ProfileRecorder>,
    ) -> Vec<(usize, Trial, Option<TrialExecution>)> {
        let case = self.cases[ci];
        self.spans.open("experiment.prefix");
        let mut prefix = None;
        for _ in eis {
            let start = Instant::now();
            let p = caches.checkpoint.prefix_observed(
                &self.protocol,
                ci,
                case,
                mirror.map(|m| &m.campaign),
            );
            if !caches.built[ci] {
                caches.built[ci] = true;
                self.prefix_build_ms
                    .push(start.elapsed().as_secs_f64() * 1e3);
                self.prefixes[ci].get_or_insert_with(|| Arc::clone(&p));
            }
            prefix = Some(p);
        }
        self.spans.close();
        let prefix = prefix.expect("chunks are never empty");

        let prune = &caches.prune;
        let classes: Vec<Option<PruneClass>> = self.spans.time("prune.classify", || {
            eis.iter()
                .map(|&ei| prune.classify(errors[ei].flip()))
                .collect()
        });
        self.classify_calls += eis.len() as u64;
        let live: Vec<usize> = (0..eis.len()).filter(|&i| classes[i].is_none()).collect();
        let flips: Vec<memsim::BitFlip> = live.iter().map(|&i| errors[eis[i]].flip()).collect();
        let protocol = &self.protocol;
        let lanes = self.spans.time("arrestor.batch", || {
            run_case_batch_with(protocol, &flips, case, &prefix, ANALYTIC)
        });
        if let Some(m) = mirror {
            self.spans.time("telemetry.record", || {
                lanes.iter().for_each(|lane| m.execution(&lane.execution));
            });
        }
        if let Some(p) = profile {
            self.spans.time("profile.record", || {
                lanes
                    .iter()
                    .for_each(|lane| p.record_execution(&lane.execution));
            });
        }
        let mut trials: Vec<Option<(Trial, Option<TrialExecution>)>> = vec![None; eis.len()];
        for lane in lanes {
            self.executed.add(&lane.execution);
            trials[live[lane.slot]] = Some((lane.trial, Some(lane.execution)));
        }
        if live.len() < eis.len() {
            let (reference, built) = self.spans.time("prune.reference", || {
                prune.reference(protocol, ci, case, &prefix, ANALYTIC)
            });
            if built {
                self.references += 1;
                if let Some(m) = mirror {
                    m.references.inc();
                }
            }
            let pruned: Vec<(usize, PruneClass)> = classes
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.map(|c| (i, c)))
                .collect();
            if let Some(m) = mirror {
                self.spans.time("telemetry.record", || {
                    pruned.iter().for_each(|&(_, class)| m.prune(class));
                });
            }
            if let Some(p) = profile {
                self.spans.time("profile.record", || {
                    pruned.iter().for_each(|_| p.record_prune());
                });
            }
            for &(i, _) in &pruned {
                trials[i] = Some(((*reference).clone(), None));
            }
            self.pruned += pruned.len() as u64;
        }
        eis.iter()
            .zip(trials)
            .map(|(&ei, t)| {
                let (trial, execution) = t.expect("every lane resolved");
                (ei, trial, execution)
            })
            .collect()
    }

    fn keep(
        &mut self,
        errors: &[impl Tagged],
        ci: usize,
        results: &[(usize, Trial, Option<TrialExecution>)],
    ) {
        self.outputs
            .extend(results.iter().map(|(ei, trial, execution)| Output {
                error: errors[*ei].tag(),
                case_index: ci,
                trial: trial.clone(),
                execution: *execution,
            }));
    }

    pub fn e1(&mut self) {
        let inputs = self.inputs;
        let errors = &inputs.e1;
        self.spans.open("decomposition");
        let mut caches = self.caches();
        let mut report = E1Report::new();
        for ci in 0..self.cases.len() {
            self.spans.open("case");
            for eis in case_chunks(errors.len()) {
                let results = self.chunk(errors, ci, &eis, &mut caches, None, None);
                self.spans.time("results.fold", || {
                    for (ei, trial, _) in &results {
                        report.record(&errors[*ei], trial);
                    }
                });
                self.keep(errors, ci, &results);
            }
            self.spans.close();
        }
        self.spans.close();
        self.e1 = Some(report);
    }

    pub fn e2(&mut self) {
        let inputs = self.inputs;
        self.spans.open("decomposition");
        for (i, set) in inputs.e2_sets.iter().enumerate() {
            self.spans.open("set");
            if let Err(e) = self.e2_set(
                set,
                &inputs.work_dir.join(format!("traced-e2-set{i}.jsonl")),
            ) {
                self.failures.push(format!("traced E2 set {i}: {e}"));
            }
            self.spans.close();
        }
        self.spans.close();
    }

    fn e2_set(&mut self, set: &[E2Error], path: &std::path::Path) -> Result<(), String> {
        let mirror = Mirror::new(CampaignKind::E2);
        let profile = ProfileRecorder::new();
        let convergence = ConvergenceSink::new();
        let attribution = AttributionSink::new();
        let map = self.spans.time("attribution.record", MonitoredMap::new);
        let protocol = self.protocol.clone();
        let mut writer = self
            .spans
            .time("journal.sync", || JournalWriter::create(path, &protocol))
            .map_err(|e| e.to_string())?
            .with_telemetry(JournalTelemetry::register(&mirror.registry));
        let mut caches = self.caches();
        let mut report = E2Report::new();
        for ci in 0..self.cases.len() {
            self.spans.open("case");
            for eis in case_chunks(set.len()) {
                let results = self.chunk(set, ci, &eis, &mut caches, Some(&mirror), Some(&profile));
                self.spans.time("results.fold", || {
                    for (ei, trial, _) in &results {
                        report.record(&set[*ei], trial);
                    }
                });
                let events: Vec<AttributionEvent> = self.spans.time("attribution.record", || {
                    results
                        .iter()
                        .map(|(ei, trial, _)| {
                            let event = set[*ei].attribution_event(ci, trial, &map);
                            attribution.record(&event);
                            event
                        })
                        .collect()
                });
                self.spans.time("convergence.record", || {
                    for (ei, trial, _) in &results {
                        convergence.record(set[*ei].convergence_key(), trial);
                    }
                });
                self.spans.time("telemetry.record", || {
                    results.iter().for_each(|(_, trial, _)| mirror.trial(trial));
                });
                let appended = self.spans.time("journal.append", || {
                    results
                        .iter()
                        .zip(&events)
                        .try_for_each(|((ei, trial, _), event)| {
                            writer.append(CampaignKind::E2, set[*ei].number, ci, trial)?;
                            writer.append_attribution(event)
                        })
                });
                if let Err(e) = appended {
                    self.failures.push(format!("traced E2 journal append: {e}"));
                }
                self.keep(set, ci, &results);
            }
            self.spans.close();
        }
        self.spans
            .time("journal.sync", || writer.finish())
            .map_err(|e| e.to_string())?;
        let start = Instant::now();
        let snapshot = self
            .spans
            .time("telemetry.snapshot", || mirror.registry.snapshot());
        self.snapshot_ms.push(start.elapsed().as_secs_f64() * 1e3);
        self.mirrored.merge(&snapshot);
        self.journal_telemetry.merge(&snapshot);
        self.journal_trials += (set.len() * self.cases.len()) as u64;
        self.journal_bytes += std::fs::metadata(path).map_err(|e| e.to_string())?.len();
        let journal = self
            .spans
            .time("journal.load", || Journal::load(path))
            .map_err(|e| e.to_string())?;
        self.loaded_records += journal.records.len() as u64;
        let folded = self
            .spans
            .time("journal.fold", || workload::fold_e2_journal(&journal, set))?;
        if folded != report {
            self.failures
                .push("traced E2 journal fold differs from the decomposition's report".to_owned());
        }
        self.e2.push(folded);
        Ok(())
    }

    pub fn fleet(&mut self) {
        let inputs = self.inputs;
        let path = inputs.work_dir.join("traced-fleet.jsonl");
        let depth = self.spans.depth();
        self.spans.open("decomposition");
        if let Err(e) = self.fleet_campaign(&path) {
            self.failures.push(format!("traced fleet: {e}"));
        }
        self.spans.close_to(depth);
    }

    /// The fleet at one worker: the server's bind, per slice the lease
    /// frame, the worker's `run_e*_pairs` and result frame, the
    /// server's fold and journal, then finalisation.
    fn fleet_campaign(&mut self, path: &std::path::Path) -> Result<(), String> {
        let protocol = self.protocol.clone();
        let (e1_all, e2_all, monitored, writer) = self.spans.time("fleet.bind", || {
            let _ = std::fs::remove_file(path);
            (
                error_set::e1(),
                error_set::e2(),
                MonitoredMap::new(),
                JournalWriter::append_to(path, &protocol),
            )
        });
        let server_registry = Registry::new();
        let mut writer = writer
            .map_err(|e| e.to_string())?
            .with_telemetry(JournalTelemetry::register(&server_registry));
        let mut e1_report = E1Report::new();
        let mut e2_report = E2Report::new();
        let mut aggregate = AttributionAggregate::new();
        let mut merged = TelemetrySnapshot::new();
        let inputs = self.inputs;
        let (e1_numbers, e2_numbers) = &inputs.fleet_numbers;
        let mut slice_id = 0u64;
        for (kind, numbers) in [
            (CampaignKind::E1, e1_numbers),
            (CampaignKind::E2, e2_numbers),
        ] {
            for ci in 0..self.cases.len() {
                self.spans.open("slice");
                let lease = Response::Lease {
                    slice: SliceLease {
                        slice_id,
                        campaign: workload::FLEET_CAMPAIGN.to_owned(),
                        kind,
                        protocol: inputs.protocol.clone(),
                        case_index: ci,
                        error_numbers: numbers.clone(),
                    },
                };
                let Response::Lease { slice } = self.round_trip(&lease)? else {
                    return Err("lease frame did not round-trip".to_owned());
                };
                let heartbeat = self.spans.time("fleet.heartbeat", heartbeat_thread);
                let (records, telemetry) = match kind {
                    CampaignKind::E1 => {
                        let subset: Vec<E1Error> = self.spans.time("fleet.worker", || {
                            let full = error_set::e1();
                            slice.error_numbers.iter().map(|&n| full[n - 1]).collect()
                        });
                        self.worker_slice(kind, &subset, ci, |r, e, t| r.0.record(e, t))
                    }
                    CampaignKind::E2 => {
                        let subset: Vec<E2Error> = self.spans.time("fleet.worker", || {
                            let full = error_set::e2();
                            slice.error_numbers.iter().map(|&n| full[n - 1]).collect()
                        });
                        self.worker_slice(kind, &subset, ci, |r, e, t| r.1.record(e, t))
                    }
                };
                self.spans.time("fleet.heartbeat", || heartbeat.stop());
                let result = Command::SliceResult {
                    worker_id: 0,
                    slice_id,
                    records,
                    telemetry,
                };
                self.wire_trials += numbers.len() as u64;
                let Command::SliceResult {
                    records, telemetry, ..
                } = self.round_trip(&result)?
                else {
                    return Err("result frame did not round-trip".to_owned());
                };
                let errors: Vec<ErrorRef> = records
                    .iter()
                    .map(|r| match r.campaign {
                        CampaignKind::E1 => ErrorRef::E1(e1_all[r.error_number - 1]),
                        CampaignKind::E2 => ErrorRef::E2(e2_all[r.error_number - 1]),
                    })
                    .collect();
                self.spans.time("results.fold", || {
                    for (record, error) in records.iter().zip(&errors) {
                        match error {
                            ErrorRef::E1(e) => e1_report.record(e, &record.trial),
                            ErrorRef::E2(e) => e2_report.record(e, &record.trial),
                        }
                    }
                });
                let events: Vec<AttributionEvent> = self.spans.time("attribution.record", || {
                    records
                        .iter()
                        .zip(&errors)
                        .map(|(record, error)| {
                            let event = error.event(record.case_index, &record.trial, &monitored);
                            aggregate.record(&event);
                            event
                        })
                        .collect()
                });
                self.spans
                    .time("journal.append", || {
                        records.iter().zip(&events).try_for_each(|(record, event)| {
                            writer.append(
                                record.campaign,
                                record.error_number,
                                record.case_index,
                                &record.trial,
                            )?;
                            writer.append_attribution(event)
                        })
                    })
                    .map_err(|e| e.to_string())?;
                self.journal_trials += records.len() as u64;
                self.spans
                    .time("telemetry.record", || merged.merge(&telemetry));
                slice_id += 1;
                self.slices += 1;
                self.spans.close();
            }
        }
        let out_dir = inputs.work_dir.join("traced-out");
        self.spans
            .time("fleet.finalize", || {
                finalize(
                    &mut writer,
                    &out_dir,
                    &protocol,
                    &e1_report,
                    &e2_report,
                    &aggregate,
                    &merged,
                )
            })
            .map_err(|e| e.to_string())?;
        drop(writer);
        self.journal_bytes += std::fs::metadata(path).map_err(|e| e.to_string())?.len();
        self.journal_telemetry.merge(&server_registry.snapshot());
        self.mirrored.merge(&merged);
        self.e1 = Some(e1_report);
        self.e2 = vec![e2_report];
        Ok(())
    }

    /// One slice on the worker: a fresh runner's caches, the lockstep
    /// chunks, the runner's own collector (a throwaway report, the
    /// collected trials, telemetry), then the records in lease order
    /// and the slice's telemetry snapshot.
    fn worker_slice<E: Tagged>(
        &mut self,
        kind: CampaignKind,
        subset: &[E],
        ci: usize,
        record: impl Fn(&mut (E1Report, E2Report), &E, &Trial),
    ) -> (Vec<TrialRecord>, TelemetrySnapshot) {
        let mirror = Mirror::new(kind);
        let mut caches = self.caches();
        let mut throwaway = (E1Report::new(), E2Report::new());
        let mut collected: Vec<(usize, usize, Trial)> = Vec::with_capacity(subset.len());
        for eis in case_chunks(subset.len()) {
            let results = self.chunk(subset, ci, &eis, &mut caches, Some(&mirror), None);
            self.spans.time("results.fold", || {
                for (ei, trial, _) in &results {
                    record(&mut throwaway, &subset[*ei], trial);
                }
            });
            self.spans.time("campaign.collect", || {
                collected.extend(
                    results
                        .iter()
                        .map(|(ei, trial, _)| (*ei, ci, trial.clone())),
                );
            });
            self.spans.time("telemetry.record", || {
                results.iter().for_each(|(_, trial, _)| mirror.trial(trial));
            });
            self.keep(subset, ci, &results);
        }
        let records = self.spans.time("campaign.collect", || {
            collected.sort_unstable_by_key(|t| (t.1, t.0));
            collected
                .into_iter()
                .map(|(ei, ci, trial)| TrialRecord {
                    campaign: kind,
                    error_number: subset[ei].number(),
                    case_index: ci,
                    trial,
                })
                .collect()
        });
        let start = Instant::now();
        let snapshot = self
            .spans
            .time("telemetry.snapshot", || mirror.registry.snapshot());
        self.snapshot_ms.push(start.elapsed().as_secs_f64() * 1e3);
        (records, snapshot)
    }

    /// Layers the workload does not use, measured on its trials so
    /// every workload reports every layer (outside the decomposition).
    pub fn probe(&mut self, workload: Workload) {
        self.spans.open("probe");
        if let Err(e) = self.probe_layers(workload) {
            self.failures.push(format!("probe: {e}"));
        }
        self.spans.close();
    }

    fn probe_layers(&mut self, workload: Workload) -> Result<(), String> {
        match workload {
            Workload::E1Paper => {
                self.probed.extend(["journal", "observers", "fleet wire"]);
                self.probe_journal()?;
                self.probe_observers(true);
                self.probe_wire()?;
            }
            Workload::E2Journaled => {
                self.probed.push("fleet wire");
                self.probe_wire()?;
            }
            Workload::FleetPaper => {
                self.probed
                    .extend(["journal load and fold", "convergence", "profile"]);
                self.probe_observers(false);
                let path = self.inputs.work_dir.join("traced-fleet.jsonl");
                self.probe_journal_read(&path)?;
            }
        }
        Ok(())
    }

    fn probe_journal(&mut self) -> Result<(), String> {
        let path = self.inputs.work_dir.join("traced-probe.jsonl");
        let registry = Registry::new();
        let map = MonitoredMap::new();
        let events: Vec<AttributionEvent> = self
            .outputs
            .iter()
            .map(|o| o.error.event(o.case_index, &o.trial, &map))
            .collect();
        let protocol = self.protocol.clone();
        let mut writer = self
            .spans
            .time("journal.sync", || JournalWriter::create(&path, &protocol))
            .map_err(|e| e.to_string())?
            .with_telemetry(JournalTelemetry::register(&registry));
        let outputs = &self.outputs;
        self.spans
            .time("journal.append", || {
                outputs.iter().zip(&events).try_for_each(|(o, event)| {
                    writer.append(o.error.kind(), o.error.number(), o.case_index, &o.trial)?;
                    writer.append_attribution(event)
                })
            })
            .map_err(|e| e.to_string())?;
        self.spans
            .time("journal.sync", || writer.finish())
            .map_err(|e| e.to_string())?;
        self.journal_trials += self.outputs.len() as u64;
        self.journal_bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        self.journal_telemetry.merge(&registry.snapshot());
        self.probe_journal_read(&path)
    }

    /// Loads a journal and folds it into both reports by error number.
    fn probe_journal_read(&mut self, path: &std::path::Path) -> Result<(), String> {
        let journal = self
            .spans
            .time("journal.load", || Journal::load(path))
            .map_err(|e| e.to_string())?;
        self.loaded_records += journal.records.len() as u64;
        let mut by_key: BTreeMap<(&str, usize), ErrorRef> = BTreeMap::new();
        for o in &self.outputs {
            by_key.insert((o.error.kind().label(), o.error.number()), o.error);
        }
        let (e1, e2) = self.spans.time("journal.fold", || {
            let mut e1 = E1Report::new();
            let mut e2 = E2Report::new();
            let mut seen = std::collections::HashSet::new();
            for record in &journal.records {
                if !seen.insert((
                    record.campaign.label(),
                    record.error_number,
                    record.case_index,
                )) {
                    continue;
                }
                match by_key.get(&(record.campaign.label(), record.error_number)) {
                    Some(ErrorRef::E1(e)) => e1.record(e, &record.trial),
                    Some(ErrorRef::E2(e)) => e2.record(e, &record.trial),
                    None => {}
                }
            }
            (e1, e2)
        });
        if e1.trials() + e2.trials() != self.outputs.len() {
            return Err(format!(
                "journal {} folded {} trials, expected {}",
                path.display(),
                e1.trials() + e2.trials(),
                self.outputs.len()
            ));
        }
        Ok(())
    }

    /// Observer folds over the decomposition's trials; `all` adds
    /// attribution and telemetry (which the fleet already measures).
    fn probe_observers(&mut self, all: bool) {
        let outputs = &self.outputs;
        if all {
            let sink = AttributionSink::new();
            let map = MonitoredMap::new();
            self.spans.time("attribution.record", || {
                for o in outputs {
                    sink.record(&o.error.event(o.case_index, &o.trial, &map));
                }
            });
            let inert = fic::InertMap::new();
            let classes: Vec<Option<PruneClass>> = outputs
                .iter()
                .map(|o| {
                    o.execution
                        .is_none()
                        .then(|| inert.classify(o.error.flip()))
                        .flatten()
                })
                .collect();
            let mirror = Mirror::new(outputs.first().map_or(CampaignKind::E1, |o| o.error.kind()));
            self.spans.time("telemetry.record", || {
                for (o, class) in outputs.iter().zip(&classes) {
                    match (&o.execution, class) {
                        (Some(exec), _) => mirror.execution(exec),
                        (None, Some(class)) => mirror.prune(*class),
                        (None, None) => {}
                    }
                    mirror.trial(&o.trial);
                }
            });
            let start = Instant::now();
            let snapshot = self
                .spans
                .time("telemetry.snapshot", || mirror.registry.snapshot());
            self.snapshot_ms.push(start.elapsed().as_secs_f64() * 1e3);
            self.mirrored.merge(&snapshot);
        }
        let convergence = ConvergenceSink::new();
        self.spans.time("convergence.record", || {
            for o in outputs {
                let key = match o.error {
                    ErrorRef::E1(e) => e.convergence_key(),
                    ErrorRef::E2(e) => e.convergence_key(),
                };
                convergence.record(key, &o.trial);
            }
        });
        let profile = ProfileRecorder::new();
        self.spans.time("profile.record", || {
            for o in outputs {
                match &o.execution {
                    Some(exec) => profile.record_execution(exec),
                    None => profile.record_prune(),
                }
            }
        });
    }

    /// The fleet's frames for the decomposition's trials — a lease and
    /// a result per ⟨kind, case⟩ run of outputs — encoded and decoded.
    fn probe_wire(&mut self) -> Result<(), String> {
        let mut start = 0;
        while start < self.outputs.len() {
            let head = &self.outputs[start];
            let len = self.outputs[start..]
                .iter()
                .take_while(|o| {
                    o.case_index == head.case_index && o.error.kind() == head.error.kind()
                })
                .count();
            let group = &self.outputs[start..start + len];
            let mirror = Mirror::new(head.error.kind());
            for o in group {
                if let Some(exec) = &o.execution {
                    mirror.execution(exec);
                }
                mirror.trial(&o.trial);
            }
            let lease = Response::Lease {
                slice: SliceLease {
                    slice_id: start as u64,
                    campaign: workload::FLEET_CAMPAIGN.to_owned(),
                    kind: head.error.kind(),
                    protocol: self.inputs.protocol.clone(),
                    case_index: head.case_index,
                    error_numbers: group.iter().map(|o| o.error.number()).collect(),
                },
            };
            let result = Command::SliceResult {
                worker_id: 0,
                slice_id: start as u64,
                records: group
                    .iter()
                    .map(|o| TrialRecord {
                        campaign: o.error.kind(),
                        error_number: o.error.number(),
                        case_index: o.case_index,
                        trial: o.trial.clone(),
                    })
                    .collect(),
                telemetry: mirror.registry.snapshot(),
            };
            self.wire_trials += len as u64;
            if self.round_trip(&lease)? != lease || self.round_trip(&result)? != result {
                return Err("a fleet frame did not round-trip".to_owned());
            }
            start += len;
        }
        Ok(())
    }
}

/// Error indices `0..errors` cut into lockstep chunks.
fn case_chunks(errors: usize) -> Vec<Vec<usize>> {
    let eis: Vec<usize> = (0..errors).collect();
    eis.chunks(DEFAULT_BATCH_SIZE)
        .map(<[usize]>::to_vec)
        .collect()
}

/// The worker's lease keep-alive, as `fic::fleet::worker` runs it
/// beside every slice: a thread sleeping in 25 ms hops until stopped,
/// beating every third of the lease (never, for slices this short).
/// Stopping it waits out the current hop.
struct Heartbeat {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl Heartbeat {
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.thread
            .join()
            .expect("the heartbeat thread does not panic");
    }
}

fn heartbeat_thread() -> Heartbeat {
    let stop = Arc::new(AtomicBool::new(false));
    let interval = Duration::from_millis((ServerOptions::default().lease_ms / 3).max(1));
    let thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let hop = Duration::from_millis(25).min(interval);
            let mut slept = Duration::ZERO;
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(hop);
                slept += hop;
                if slept >= interval {
                    slept = Duration::ZERO;
                }
            }
        })
    };
    Heartbeat { stop, thread }
}

/// The fleet server's end-of-campaign artefacts, through the same
/// public functions `fic::fleet::server` calls.
fn finalize(
    writer: &mut JournalWriter,
    out_dir: &std::path::Path,
    protocol: &Protocol,
    e1: &E1Report,
    e2: &E2Report,
    aggregate: &AttributionAggregate,
    telemetry: &TelemetrySnapshot,
) -> std::io::Result<()> {
    use fic::{attribution, convergence, tables, telemetry as tel};
    writer.sync()?;
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(
        out_dir.join("e1.json"),
        serde_json::to_string_pretty(e1).expect("report serialises"),
    )?;
    std::fs::write(
        out_dir.join("e2.json"),
        serde_json::to_string_pretty(e2).expect("report serialises"),
    )?;
    let e1_errors = error_set::e1();
    let cases = protocol.cases_per_error();
    for (name, text) in [
        ("table6.txt", tables::render_table6(&e1_errors, cases)),
        ("table7.txt", tables::render_table7(e1)),
        ("table8.txt", tables::render_table8(e1)),
        ("table9.txt", tables::render_table9(e2)),
    ] {
        std::fs::write(out_dir.join(name), text)?;
    }
    let run = tel::RunMetadata::for_run(protocol, true, None);
    let report = tel::TelemetryReport::assemble("fleet_server", run.clone(), telemetry.clone());
    tel::write_report(&out_dir.join("telemetry"), "fleet_server", &report)?;
    let report =
        attribution::AttributionReport::assemble("fleet_server", run.clone(), aggregate.clone());
    attribution::write_report(&out_dir.join("attribution"), "fleet_server", &report)?;
    let coverage = fic::ConvergenceAggregate::from_reports(e1, e2);
    let report = convergence::ConvergenceReport::assemble(
        "fleet_server",
        run,
        coverage,
        convergence::DEFAULT_DELTA,
    );
    convergence::write_report(&out_dir.join("convergence"), "fleet_server", &report)?;
    Ok(())
}
