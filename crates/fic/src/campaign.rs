//! Parallel campaign execution: fan out ⟨error, test case⟩ pairs over
//! worker threads, stream completed trials back to a single collector.
//!
//! Every campaign runs one path: the grid is grouped by injection
//! point (test case), the fault-free prefix of each case is simulated
//! once and cached in a [`CheckpointCache`] shared across workers, and
//! every trial of that case forks from the cached [`arrestor::Snapshot`]
//! instead of replaying the prefix from t = 0. The trials of a case
//! step in lockstep work items of at most [`DEFAULT_BATCH_SIZE`] live
//! lanes ([`lockstep_items`]) with the analytic stops of
//! [`arrestor::SettleDetector`] on; statically inert errors ride along
//! without a lane and share the case's reference trial
//! ([`crate::prune`]). None of this changes a bit of any result (see
//! `PERFORMANCE.md`): the differential suites replay every trial from
//! t = 0 with [`crate::experiment::run_trial`], the paper-faithful
//! oracle, and require byte-identical journals and tables.
//!
//! The collector (the calling thread) folds every trial into the report
//! *and* appends it to the optional crash-safe [`crate::journal`], so a killed
//! campaign can be resumed with [`CampaignRunner::resume`]: the journal
//! is loaded once and folded into a [`CampaignFold`], and only the
//! missing ⟨error, case⟩ pairs are executed and folded after it.
//! Reports are commutative accumulators, so the result is independent
//! of worker count, completion order, and interruption points.

use std::collections::HashSet;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use simenv::TestCase;

use crate::attribution::{AttributionAggregate, AttributionEvent, MonitoredMap};
use crate::convergence::{CellKey, ConvergenceAggregate};
use crate::error_set::{E1Error, E2Error};
use crate::experiment::{fault_free_prefix, run_case_batch_with, BatchTrial, Trial};
use crate::journal::{CampaignKind, Journal, JournalError, JournalWriter, PaperError, TrialRecord};
use crate::protocol::Protocol;
use crate::prune::{CaseCells, PruneClass};
use crate::results::{CampaignFold, E1Report, E2Report};
use crate::telemetry;

/// Fault-free prefix snapshots shared across campaign workers, one per
/// test case.
///
/// Every trial of a campaign spends its first injection period — the
/// fault-free prefix — in exactly one of
/// [`Protocol::cases_per_error`] states, so the prefix is simulated
/// once per case and the resulting [`arrestor::Snapshot`] is forked by
/// every trial of that case. The cache is lazy: a prefix is built by
/// the first worker that needs it and shared (via [`Arc`]) with the
/// rest. Each case has its own cell, so a build blocks only the
/// workers waiting for that case.
#[derive(Debug, Default)]
pub struct CheckpointCache {
    prefixes: CaseCells<arrestor::Snapshot>,
}

impl CheckpointCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The fault-free prefix for `case`, built on first use.
    pub fn prefix(
        &self,
        protocol: &Protocol,
        case_index: usize,
        case: TestCase,
    ) -> Arc<arrestor::Snapshot> {
        self.prefix_observed(protocol, case_index, case, None)
    }

    /// [`CheckpointCache::prefix`] with hit/miss accounting and a
    /// snapshot-build span recorded into the campaign telemetry.
    pub fn prefix_observed(
        &self,
        protocol: &Protocol,
        case_index: usize,
        case: TestCase,
        tel: Option<&CampaignTelemetry>,
    ) -> Arc<arrestor::Snapshot> {
        self.shared(case_index, tel, || fault_free_prefix(protocol, case))
    }

    /// The snapshot cached for `case_index`, built by `build` on first
    /// use. The builder counts the miss and times the build, every
    /// other caller counts a hit.
    fn shared(
        &self,
        case_index: usize,
        tel: Option<&CampaignTelemetry>,
        build: impl FnOnce() -> arrestor::Snapshot,
    ) -> Arc<arrestor::Snapshot> {
        let (snapshot, built) = self.prefixes.get_or_build(case_index, || {
            let _span = tel.map(|t| telemetry::SpanTimer::start(Arc::clone(&t.snapshot_build_us)));
            build()
        });
        if let Some(t) = tel {
            if built {
                t.cache_misses.inc();
            } else {
                t.cache_hits.inc();
            }
        }
        snapshot
    }
}

/// Shared metric handles for the campaign execution path, registered
/// once per campaign execution from the runner's
/// [`telemetry::Registry`] and updated lock-free by workers and the
/// collector. See `OBSERVABILITY.md` for the catalogue.
#[derive(Debug, Clone)]
pub struct CampaignTelemetry {
    registry: Arc<telemetry::Registry>,
    cache_hits: Arc<telemetry::Counter>,
    cache_misses: Arc<telemetry::Counter>,
    snapshot_build_us: Arc<telemetry::Histogram>,
    queue_wait_us: Arc<telemetry::Histogram>,
    settle_stop_ms: Arc<telemetry::Histogram>,
    settle_captures: Arc<telemetry::Histogram>,
    lockstep_lanes: Arc<telemetry::Histogram>,
    trials: Arc<telemetry::Counter>,
    trials_settled: Arc<telemetry::Counter>,
    trials_full_window: Arc<telemetry::Counter>,
    window_ms_simulated: Arc<telemetry::Counter>,
    window_ms_skipped: Arc<telemetry::Counter>,
    proof_exact: Arc<telemetry::Counter>,
    proof_translated: Arc<telemetry::Counter>,
    proof_retired: Arc<telemetry::Counter>,
    proof_frozen: Arc<telemetry::Counter>,
    proof_analytic: Arc<telemetry::Counter>,
    analytic_stops: Arc<telemetry::Counter>,
    record_final_stops: Arc<telemetry::Counter>,
    command_final_stops: Arc<telemetry::Counter>,
    prune_trials: Arc<telemetry::Counter>,
    prune_dead_stack: Arc<telemetry::Counter>,
    prune_unread_ram: Arc<telemetry::Counter>,
    prune_references: Arc<telemetry::Counter>,
}

impl CampaignTelemetry {
    /// Registers the campaign metric family in `registry`.
    pub fn register(registry: &Arc<telemetry::Registry>) -> Self {
        CampaignTelemetry {
            cache_hits: registry.counter("campaign.checkpoint.cache.hits"),
            cache_misses: registry.counter("campaign.checkpoint.cache.misses"),
            snapshot_build_us: registry.histogram(
                "campaign.checkpoint.snapshot_build_us",
                &telemetry::span_bounds_us(),
            ),
            queue_wait_us: registry.histogram(
                "campaign.worker.queue_wait_us",
                &telemetry::span_bounds_us(),
            ),
            settle_stop_ms: registry
                .histogram("campaign.settle.stop_ms", &telemetry::latency_bounds_ms()),
            settle_captures: registry
                .histogram("campaign.settle.captures", &telemetry::small_count_bounds()),
            lockstep_lanes: registry
                .histogram("campaign.lockstep.lanes", &telemetry::small_count_bounds()),
            trials: registry.counter("campaign.trials"),
            trials_settled: registry.counter("campaign.trials.settled"),
            trials_full_window: registry.counter("campaign.trials.full_window"),
            window_ms_simulated: registry.counter("campaign.window_ms.simulated"),
            window_ms_skipped: registry.counter("campaign.window_ms.skipped"),
            proof_exact: registry.counter("campaign.settle.proof.exact"),
            proof_translated: registry.counter("campaign.settle.proof.translated"),
            proof_retired: registry.counter("campaign.settle.proof.retired_clock"),
            proof_frozen: registry.counter("campaign.settle.proof.frozen_hung"),
            proof_analytic: registry.counter("campaign.settle.proof.analytic_band"),
            analytic_stops: registry.counter("campaign.settle.analytic.stops"),
            record_final_stops: registry.counter("campaign.settle.record_final.stops"),
            command_final_stops: registry.counter("campaign.settle.command_final.stops"),
            prune_trials: registry.counter("campaign.prune.trials"),
            prune_dead_stack: registry.counter("campaign.prune.dead_stack"),
            prune_unread_ram: registry.counter("campaign.prune.unread_ram"),
            prune_references: registry.counter("campaign.prune.references"),
            registry: Arc::clone(registry),
        }
    }

    /// The registry these handles were drawn from.
    pub fn registry(&self) -> &Arc<telemetry::Registry> {
        &self.registry
    }

    /// Folds one executed lane's shape into the metrics.
    fn observe_lane(&self, lane: &BatchTrial) {
        let exec = &lane.execution;
        self.window_ms_simulated.add(exec.simulated_ms);
        self.window_ms_skipped.add(exec.skipped_ms);
        self.settle_captures.record(exec.settle_captures);
        match exec.settle_stop_ms {
            Some(ms) => {
                self.trials_settled.inc();
                self.settle_stop_ms.record(ms);
            }
            None => self.trials_full_window.inc(),
        }
        match exec.settle_proof {
            Some(arrestor::SettleProof::ExactRecurrence) => self.proof_exact.inc(),
            Some(arrestor::SettleProof::TranslatedRecurrence) => self.proof_translated.inc(),
            Some(arrestor::SettleProof::RetiredClock) => self.proof_retired.inc(),
            Some(arrestor::SettleProof::FrozenHung) => self.proof_frozen.inc(),
            Some(arrestor::SettleProof::AnalyticBand) => {
                self.proof_analytic.inc();
                self.analytic_stops.inc();
            }
            // A stop without a state proof: the certificates of
            // `arrestor::record_final` closed the trial, over an arrested
            // plant (record-final) or a rolling one (command-final).
            None if exec.settle_stop_ms.is_some() => {
                if lane.arrested_at_stop {
                    self.record_final_stops.inc();
                } else {
                    self.command_final_stops.inc();
                }
            }
            None => {}
        }
    }

    /// Folds one pruned (never-executed) trial into the metrics.
    fn observe_prune(&self, class: PruneClass) {
        self.prune_trials.inc();
        match class {
            PruneClass::DeadStack => self.prune_dead_stack.inc(),
            PruneClass::UnreadRam => self.prune_unread_ram.inc(),
        }
    }
}

/// Collects [`AttributionEvent`]s from the campaign collector into an
/// [`AttributionAggregate`]. The fold is associative and commutative,
/// so the aggregate is independent of worker count and completion
/// order; the sink is shared (`Arc`) between the runner and the caller
/// that reads the result.
///
/// Attribution is observation-only: events are derived *after* a trial
/// completes, from data the collector already holds, so enabling the
/// sink cannot perturb a single bit of any report (pinned by
/// `tests/attribution.rs`).
#[derive(Debug, Default)]
pub struct AttributionSink {
    aggregate: Mutex<AttributionAggregate>,
}

impl AttributionSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event in.
    pub fn record(&self, event: &AttributionEvent) {
        self.aggregate
            .lock()
            .expect("no panics while holding lock")
            .record(event);
    }

    /// A copy of the aggregate folded so far.
    pub fn snapshot(&self) -> AttributionAggregate {
        self.aggregate
            .lock()
            .expect("no panics while holding lock")
            .clone()
    }
}

/// Folds per-trial detection outcomes into a shared
/// [`ConvergenceAggregate`] while a campaign runs.
///
/// Same observer contract as the attribution sink: the fold reads only
/// data the collector already holds (the error's cell key and the
/// trial's All-version detection bit), so enabling it cannot perturb a
/// single bit of any journal, table, attribution or telemetry artefact
/// (pinned by `tests/convergence_equivalence.rs`). The binaries derive
/// convergence from the final reports instead
/// ([`ConvergenceAggregate::from_reports`]); the campaign benchmark
/// still attaches this sink to time the per-trial fold.
#[derive(Debug, Default)]
pub struct ConvergenceSink {
    aggregate: Mutex<ConvergenceAggregate>,
}

impl ConvergenceSink {
    /// An empty sink.
    pub fn new() -> Self {
        ConvergenceSink::default()
    }

    /// Folds one completed trial into its table cell.
    pub fn record(&self, key: CellKey, trial: &Trial) {
        self.aggregate
            .lock()
            .expect("no panics while holding lock")
            .record(key, trial.detected(arrestor::EaSet::ALL));
    }

    /// A copy of the aggregate folded so far.
    pub fn snapshot(&self) -> ConvergenceAggregate {
        *self.aggregate.lock().expect("no panics while holding lock")
    }
}

/// Live lanes per lockstep batch. A checkpointed campaign cuts each
/// test case's pending errors into consecutive work items of at most
/// this many *live* errors ([`lockstep_items`]); pruned errors never
/// take a lane. Eight lanes keep the working set of live
/// [`arrestor::System`] clones inside the fast caches on one core while
/// still amortising the shared-environment tick. Split points cannot
/// change any result: lanes never interact (pinned by
/// `tests/prop_batch.rs`).
pub const DEFAULT_BATCH_SIZE: usize = 8;

/// Cuts one test case's pending errors, given their prune classes in
/// order (`None` = live), into lockstep work items: contiguous index
/// ranges that concatenate back to the whole list, each holding at
/// most [`DEFAULT_BATCH_SIZE`] live errors. A pruned error goes in
/// whichever item it falls in; a new item starts only at a live error
/// that would overfill the current item, so every item but the last
/// holds exactly [`DEFAULT_BATCH_SIZE`] live errors. With everything
/// live the items are `chunks(DEFAULT_BATCH_SIZE)`.
pub fn lockstep_items(classes: &[Option<PruneClass>]) -> Vec<Range<usize>> {
    let mut items = Vec::new();
    let (mut start, mut live) = (0, 0);
    for (i, class) in classes.iter().enumerate() {
        if class.is_none() {
            if live == DEFAULT_BATCH_SIZE {
                items.push(start..i);
                (start, live) = (i, 0);
            }
            live += 1;
        }
    }
    if start < classes.len() {
        items.push(start..classes.len());
    }
    items
}

/// Executes error-injection campaigns under a protocol.
#[derive(Debug, Clone)]
pub struct CampaignRunner {
    protocol: Protocol,
    telemetry: Option<Arc<telemetry::Registry>>,
    progress: bool,
    attribution: Option<Arc<AttributionSink>>,
    profile: Option<Arc<crate::profile::ProfileRecorder>>,
    convergence: Option<Arc<ConvergenceSink>>,
}

impl CampaignRunner {
    /// A runner for the given protocol: all trials of a test case fork
    /// from the cached prefix and step in lockstep batches of at most
    /// [`DEFAULT_BATCH_SIZE`] live lanes
    /// ([`crate::experiment::run_case_batch_with`]), and statically
    /// inert errors share the case's reference trial. Results are
    /// bit-identical to replaying every trial from t = 0
    /// ([`crate::experiment::run_trial`]). Telemetry and progress are
    /// off by default.
    pub fn new(protocol: Protocol) -> Self {
        CampaignRunner {
            protocol,
            telemetry: None,
            progress: false,
            attribution: None,
            profile: None,
            convergence: None,
        }
    }

    /// Enables assertion-level attribution: every completed trial also
    /// yields an [`AttributionEvent`] folded into a shared
    /// [`AttributionSink`]. The journal never carries these events —
    /// they re-derive from its trials ([`CampaignFold::from_journal`]).
    /// Disabled by default and zero-cost when off.
    #[must_use]
    pub fn with_attribution(mut self, enabled: bool) -> Self {
        self.attribution = enabled.then(|| Arc::new(AttributionSink::new()));
        self
    }

    /// The attribution sink, when enabled.
    pub fn attribution(&self) -> Option<&Arc<AttributionSink>> {
        self.attribution.as_ref()
    }

    /// Attaches a per-assertion cost recorder: every executed trial's
    /// per-mechanism check counts are folded into it (and pruned trials
    /// counted). Same observer contract as telemetry — results are
    /// bit-identical with or without profiling (pinned by
    /// `tests/profile_equivalence.rs`).
    #[must_use]
    pub fn with_profile(mut self, recorder: Arc<crate::profile::ProfileRecorder>) -> Self {
        self.profile = Some(recorder);
        self
    }

    /// The attached cost recorder, if any.
    pub fn profile(&self) -> Option<&Arc<crate::profile::ProfileRecorder>> {
        self.profile.as_ref()
    }

    /// Attaches a coverage-convergence monitor: every completed trial
    /// (live, replayed on `--resume`, or pruned-and-shared) folds its
    /// All-version detection bit into the sink's per-cell Wilson
    /// estimators. Same observer contract as telemetry and the cost
    /// profiler — results are bit-identical with or without the
    /// monitor (pinned by `tests/convergence_equivalence.rs`).
    #[must_use]
    pub fn with_convergence(mut self, sink: Arc<ConvergenceSink>) -> Self {
        self.convergence = Some(sink);
        self
    }

    /// Attaches a metrics registry: campaign/cache/settle metrics are
    /// recorded into it during execution. Trial results are
    /// bit-identical with or without telemetry — observation never
    /// influences the run (the same contract as trace capture).
    #[must_use]
    pub fn with_telemetry(mut self, registry: Arc<telemetry::Registry>) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// The attached metrics registry, if any.
    pub fn telemetry(&self) -> Option<&Arc<telemetry::Registry>> {
        self.telemetry.as_ref()
    }

    /// Enables the live progress line on stderr (rendered only when
    /// stderr is a terminal).
    #[must_use]
    pub fn with_progress(mut self) -> Self {
        self.progress = true;
        self
    }

    /// The protocol in use.
    pub fn protocol(&self) -> &Protocol {
        &self.protocol
    }

    /// Runs the E1 campaign over the given errors (the full paper set is
    /// [`crate::error_set::e1`]); one run per ⟨error, case⟩ pair, all
    /// eight versions derived from the per-mechanism log.
    pub fn run_e1(&self, errors: &[E1Error]) -> E1Report {
        let mut report = E1Report::new();
        self.execute(
            errors,
            &self.all_pairs(errors.len()),
            CampaignKind::E1,
            None,
            |ei, _, trial| report.record(&errors[ei], trial),
        )
        .expect("journal-less campaigns do no I/O");
        report
    }

    /// Runs exactly the given ⟨error index, case index⟩ E1 pairs and
    /// returns every completed trial sorted by ⟨case, error⟩ — the
    /// 1-worker completion order, so the caller's fan-in is deterministic
    /// regardless of worker count. This is the fleet worker's entry
    /// point: a slice lease names one test case and a set of errors,
    /// and the server journals the returned trials itself.
    pub fn run_e1_pairs(
        &self,
        errors: &[E1Error],
        pairs: &[(usize, usize)],
    ) -> Vec<(usize, usize, Trial)> {
        self.run_pairs(errors, pairs, CampaignKind::E1)
    }

    /// Runs exactly the given ⟨error index, case index⟩ E2 pairs; see
    /// [`CampaignRunner::run_e1_pairs`].
    pub fn run_e2_pairs(
        &self,
        errors: &[E2Error],
        pairs: &[(usize, usize)],
    ) -> Vec<(usize, usize, Trial)> {
        self.run_pairs(errors, pairs, CampaignKind::E2)
    }

    fn run_pairs<E: Sync + InjectableError>(
        &self,
        errors: &[E],
        pairs: &[(usize, usize)],
        kind: CampaignKind,
    ) -> Vec<(usize, usize, Trial)> {
        let mut trials = Vec::with_capacity(pairs.len());
        self.execute(errors, pairs, kind, None, |ei, ci, trial| {
            trials.push((ei, ci, trial.clone()));
        })
        .expect("journal-less campaigns do no I/O");
        trials.sort_unstable_by_key(|t| (t.1, t.0));
        trials
    }

    /// Runs the E2 campaign (the paper set is [`crate::error_set::e2`])
    /// on the all-mechanisms version.
    pub fn run_e2(&self, errors: &[E2Error]) -> E2Report {
        let mut report = E2Report::new();
        self.execute(
            errors,
            &self.all_pairs(errors.len()),
            CampaignKind::E2,
            None,
            |ei, _, trial| report.record(&errors[ei], trial),
        )
        .expect("journal-less campaigns do no I/O");
        report
    }

    /// Runs the E1 campaign streaming every completed trial into
    /// `journal` (crash-safe checkpointing).
    ///
    /// # Errors
    ///
    /// Filesystem failures while appending to the journal.
    pub fn run_e1_journaled(
        &self,
        errors: &[E1Error],
        journal: &mut JournalWriter,
    ) -> io::Result<E1Report> {
        let mut report = E1Report::new();
        self.execute(
            errors,
            &self.all_pairs(errors.len()),
            CampaignKind::E1,
            Some(&mut *journal),
            |ei, _, trial| report.record(&errors[ei], trial),
        )?;
        journal.sync()?;
        Ok(report)
    }

    /// Runs the E2 campaign streaming every completed trial into
    /// `journal`.
    ///
    /// # Errors
    ///
    /// Filesystem failures while appending to the journal.
    pub fn run_e2_journaled(
        &self,
        errors: &[E2Error],
        journal: &mut JournalWriter,
    ) -> io::Result<E2Report> {
        let mut report = E2Report::new();
        self.execute(
            errors,
            &self.all_pairs(errors.len()),
            CampaignKind::E2,
            Some(&mut *journal),
            |ei, _, trial| report.record(&errors[ei], trial),
        )?;
        journal.sync()?;
        Ok(report)
    }

    /// Runs both campaigns without a journal, folding every trial into
    /// a [`CampaignFold`] (reports and attribution aggregate).
    pub fn run(&self, e1: &[E1Error], e2: &[E2Error]) -> CampaignFold {
        let mut fold = CampaignFold::new();
        self.fold_campaigns(e1, e2, &mut fold, None)
            .expect("journal-less campaigns do no I/O");
        fold
    }

    /// Resumes (or starts) a journaled campaign of both error sets: the
    /// journal at `path`, if any, is loaded once and folded
    /// ([`CampaignFold::from_journal`], persisted oracle verdicts
    /// included), then only the missing ⟨error, case⟩ pairs of E1 and
    /// then E2 are executed, folded and appended to the same journal.
    /// With no journal file present this is a fresh journaled campaign.
    /// Attached observers see the executed trials only.
    ///
    /// # Errors
    ///
    /// Journal I/O or parse failures, or a journal recorded under an
    /// incompatible protocol or naming an error outside `e1`/`e2`.
    pub fn resume(
        &self,
        e1: &[E1Error],
        e2: &[E2Error],
        path: &Path,
    ) -> Result<CampaignFold, JournalError> {
        let mut fold = CampaignFold::new();
        if path.exists() {
            let journal = Journal::load(path)?;
            if !journal.header.protocol.compatible_with(&self.protocol) {
                return Err(JournalError::Mismatch(
                    "journal was recorded under a different protocol \
                     (injection period, window, or test-case grid)"
                        .to_owned(),
                ));
            }
            fold = CampaignFold::from_journal(&journal)?;
            let known: HashSet<(CampaignKind, usize)> =
                (e1.iter().map(|e| (CampaignKind::E1, e.number)))
                    .chain(e2.iter().map(|e| (CampaignKind::E2, e.number)))
                    .collect();
            if let Some(record) = journal
                .records
                .iter()
                .find(|r| !known.contains(&(r.campaign, r.error_number)))
            {
                return Err(JournalError::Mismatch(format!(
                    "journal records {} error number {} absent from the \
                     current error set",
                    record.campaign.label(),
                    record.error_number
                )));
            }
        }
        let mut writer = JournalWriter::append_to(path, &self.protocol)?;
        if let Some(registry) = &self.telemetry {
            writer = writer.with_telemetry(crate::journal::JournalTelemetry::register(registry));
        }
        self.fold_campaigns(e1, e2, &mut fold, Some(&mut writer))?;
        writer.finish()?;
        Ok(fold)
    }

    /// Executes every pair of `e1` and then `e2` that `fold` has not
    /// recorded, folding each trial and appending it to `journal`,
    /// which is synced after each campaign.
    fn fold_campaigns(
        &self,
        e1: &[E1Error],
        e2: &[E2Error],
        fold: &mut CampaignFold,
        mut journal: Option<&mut JournalWriter>,
    ) -> io::Result<()> {
        self.fold_campaign(e1, CampaignKind::E1, fold, journal.as_deref_mut())?;
        self.fold_campaign(e2, CampaignKind::E2, fold, journal)
    }

    fn fold_campaign<E: Sync + InjectableError>(
        &self,
        errors: &[E],
        kind: CampaignKind,
        fold: &mut CampaignFold,
        mut journal: Option<&mut JournalWriter>,
    ) -> io::Result<()> {
        let pending: Vec<(usize, usize)> = self
            .all_pairs(errors.len())
            .into_iter()
            .filter(|&(ei, ci)| !fold.is_recorded((kind, errors[ei].number(), ci)))
            .collect();
        self.execute(
            errors,
            &pending,
            kind,
            journal.as_deref_mut(),
            |ei, ci, trial| {
                let record = TrialRecord {
                    campaign: kind,
                    error_number: errors[ei].number(),
                    case_index: ci,
                    trial: trial.clone(),
                };
                fold.record(&record, errors[ei].paper());
            },
        )?;
        match journal {
            Some(writer) => writer.sync(),
            None => Ok(()),
        }
    }

    /// The sink plus the address map event derivation needs — built
    /// once per campaign, only when attribution is enabled.
    fn attribution_fold(&self) -> Option<(Arc<AttributionSink>, MonitoredMap)> {
        self.attribution
            .as_ref()
            .map(|sink| (Arc::clone(sink), MonitoredMap::new()))
    }

    /// Every ⟨error index, case index⟩ pair of a fresh campaign.
    fn all_pairs(&self, error_count: usize) -> Vec<(usize, usize)> {
        let cases = self.protocol.cases_per_error();
        (0..error_count)
            .flat_map(|ei| (0..cases).map(move |ci| (ei, ci)))
            .collect()
    }

    /// Generic worker fan-out: workers claim per-case work items of
    /// ⟨error, case⟩ pairs through a shared cursor and stream completed
    /// trials back; the collector (on the calling thread) hands each
    /// ⟨error index, case index, trial⟩ to `on_trial` in arrival order
    /// and appends it to the journal. Reports are commutative, so
    /// arrival order does not affect the result.
    fn execute<E>(
        &self,
        errors: &[E],
        pending: &[(usize, usize)],
        kind: CampaignKind,
        mut journal: Option<&mut JournalWriter>,
        mut on_trial: impl FnMut(usize, usize, &Trial),
    ) -> io::Result<()>
    where
        E: Sync + InjectableError,
    {
        let cases: Vec<TestCase> = self.protocol.grid.cases();
        let workers = self.protocol.effective_workers().max(1);
        // Group the grid by injection point (case-major order): all
        // trials of a test case run back to back, so its fault-free
        // prefix is built once and stays hot in the cache.
        let mut pending: Vec<(usize, usize)> = pending.to_vec();
        pending.sort_unstable_by_key(|&(ei, ci)| (ci, ei));
        let cache = CheckpointCache::new();
        let prune = crate::prune::PruneCache::new();
        // Each error's prune class, decided once here: it both cuts the
        // work items and tells the worker which lanes to skip.
        let classes: Vec<Option<PruneClass>> =
            errors.iter().map(|e| prune.classify(e.flip())).collect();
        let attribution = self.attribution_fold();

        let tel = self.telemetry.as_ref().map(CampaignTelemetry::register);
        if let Some(t) = &tel {
            t.registry.gauge("campaign.workers").set(workers as u64);
        }
        let latency_hist = tel.as_ref().map(|t| {
            t.registry.histogram(
                &format!("campaign.{}.detection_latency_ms", kind.label()),
                &telemetry::latency_bounds_ms(),
            )
        });
        let mut progress = self.progress.then(|| {
            let p = telemetry::Progress::new(kind.label(), pending.len() as u64);
            match &tel {
                Some(t) => p.with_counters(
                    Arc::clone(&t.cache_hits),
                    Arc::clone(&t.cache_misses),
                    Arc::clone(&t.trials_settled),
                ),
                None => p,
            }
        });

        // Work items cut each test case's pairs at every
        // [`DEFAULT_BATCH_SIZE`] live errors ([`lockstep_items`]), in
        // case-major pending order, so a 1-worker campaign completes
        // trials in (case, error) order whatever the prune classes.
        // Every item is listed before any worker starts, so workers
        // claim them through one shared cursor, in this order.
        let mut items: Vec<(usize, Vec<usize>)> = Vec::new();
        for (ci, eis) in group_by_case(&pending) {
            let case_classes: Vec<Option<PruneClass>> = eis.iter().map(|&ei| classes[ei]).collect();
            for item in lockstep_items(&case_classes) {
                items.push((ci, eis[item].to_vec()));
            }
        }
        let next = AtomicUsize::new(0);
        let (result_tx, result_rx) = mpsc::channel::<(usize, usize, Trial)>();

        let mut journal_error: Option<io::Error> = None;
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (items, next) = (&items, &next);
                let result_tx = result_tx.clone();
                let cases = &cases;
                let protocol = &self.protocol;
                let (cache, prune) = (&cache, &prune);
                let classes = &classes;
                let tel = tel.clone();
                let profile = self.profile.clone();
                scope.spawn(move || {
                    let worker_trials = tel
                        .as_ref()
                        .map(|t| t.registry.counter(&format!("campaign.worker.{w}.trials")));
                    loop {
                        let waiting = tel.as_ref().map(|_| Instant::now());
                        let Some(&(ci, ref eis)) = items.get(next.fetch_add(1, Ordering::Relaxed))
                        else {
                            break;
                        };
                        if let (Some(t), Some(started)) = (&tel, waiting) {
                            let micros =
                                u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                            t.queue_wait_us.record(micros);
                        }
                        // One prefix lookup per trial, not per item:
                        // `campaign.checkpoint.cache.{hits,misses}` then
                        // count trials, which is the ground truth that
                        // `telemetry_check --journal` and the benchmark
                        // ledger's traced mirror both re-derive.
                        let mut prefix = None;
                        for _ in eis {
                            prefix =
                                Some(cache.prefix_observed(protocol, ci, cases[ci], tel.as_ref()));
                        }
                        let prefix = prefix.expect("work items are never empty");
                        // Partition the item: statically-inert errors skip
                        // execution and share the case's reference trial;
                        // live lanes run the lockstep batch. Results are
                        // emitted in item order either way.
                        let live: Vec<usize> = (0..eis.len())
                            .filter(|&i| classes[eis[i]].is_none())
                            .collect();
                        let flips: Vec<memsim::BitFlip> =
                            live.iter().map(|&i| errors[eis[i]].flip()).collect();
                        let mut trials: Vec<Option<Trial>> = vec![None; eis.len()];
                        // One observation per executed batch: an item whose
                        // errors all prune runs none.
                        if let Some(t) = tel.as_ref().filter(|_| !flips.is_empty()) {
                            t.lockstep_lanes.record(flips.len() as u64);
                        }
                        for lane in run_case_batch_with(protocol, &flips, cases[ci], &prefix, true)
                        {
                            if let Some(t) = &tel {
                                t.observe_lane(&lane);
                            }
                            if let Some(pr) = &profile {
                                pr.record_execution(&lane.execution);
                            }
                            trials[live[lane.slot]] = Some(lane.trial);
                        }
                        if live.len() < eis.len() {
                            let (reference, built) =
                                prune.reference(protocol, ci, cases[ci], &prefix, true);
                            if built {
                                if let Some(t) = &tel {
                                    t.prune_references.inc();
                                }
                            }
                            for (i, &ei) in eis.iter().enumerate() {
                                if let Some(class) = classes[ei] {
                                    if let Some(t) = &tel {
                                        t.observe_prune(class);
                                    }
                                    if let Some(pr) = &profile {
                                        pr.record_prune();
                                    }
                                    trials[i] = Some((*reference).clone());
                                }
                            }
                        }
                        let trials = trials
                            .into_iter()
                            .map(|trial| trial.expect("every lane resolved"));
                        for (&ei, trial) in eis.iter().zip(trials) {
                            if let Some(c) = &worker_trials {
                                c.inc();
                            }
                            result_tx
                                .send((ei, ci, trial))
                                .expect("collector outlives workers");
                        }
                    }
                });
            }
            drop(result_tx);

            while let Ok((ei, ci, trial)) = result_rx.recv() {
                let error = &errors[ei];
                on_trial(ei, ci, &trial);
                if let Some((sink, map)) = &attribution {
                    sink.record(&error.attribution_event(ci, &trial, map));
                }
                if let Some(sink) = &self.convergence {
                    sink.record(error.convergence_key(), &trial);
                }
                if let Some(t) = &tel {
                    t.trials.inc();
                }
                if let Some(hist) = &latency_hist {
                    if let Some(latency) = trial.latency_ms(arrestor::EaSet::ALL) {
                        hist.record(latency);
                    }
                }
                if let Some(p) = &mut progress {
                    p.on_trial();
                }
                if let Some(writer) = journal.as_deref_mut() {
                    if let Err(e) = writer.append(kind, error.number(), ci, &trial) {
                        // Remember the first failure, stop journaling,
                        // but keep collecting so the report stays whole
                        // and the workers can drain.
                        journal_error.get_or_insert(e);
                        journal = None;
                    }
                }
            }
        });
        if let Some(p) = &mut progress {
            p.finish();
        }

        match journal_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Groups a pending list into runs of consecutive pairs that share a
/// test case, preserving order within each run.
fn group_by_case(pending: &[(usize, usize)]) -> Vec<(usize, Vec<usize>)> {
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for &(ei, ci) in pending {
        match groups.last_mut() {
            Some((c, eis)) if *c == ci => eis.push(ei),
            _ => groups.push((ci, vec![ei])),
        }
    }
    groups
}

/// Internal: both error kinds expose their flip coordinates and their
/// stable paper error number (the journal key).
pub trait InjectableError {
    /// The SWIFI coordinates of this error.
    fn flip(&self) -> memsim::BitFlip;
    /// The paper's 1-based error number.
    fn number(&self) -> usize;
    /// This error as the paper error a journal record names.
    fn paper(&self) -> PaperError<'_>;
    /// The attribution event for one completed trial of this error
    /// (`map` locates monitored signals; E1 errors carry their target
    /// directly and ignore it).
    fn attribution_event(
        &self,
        case_index: usize,
        trial: &Trial,
        map: &MonitoredMap,
    ) -> AttributionEvent;
    /// Which convergence-estimator cell this error's trials land in
    /// (an E1 error names its signal row, an E2 error its region).
    fn convergence_key(&self) -> CellKey;
}

impl InjectableError for E1Error {
    fn flip(&self) -> memsim::BitFlip {
        self.flip
    }
    fn number(&self) -> usize {
        self.number
    }
    fn paper(&self) -> PaperError<'_> {
        PaperError::E1(self)
    }
    fn attribution_event(
        &self,
        case_index: usize,
        trial: &Trial,
        _map: &MonitoredMap,
    ) -> AttributionEvent {
        AttributionEvent::for_e1(self, case_index, trial)
    }
    fn convergence_key(&self) -> CellKey {
        CellKey::Signal(self.ea.index())
    }
}

impl InjectableError for E2Error {
    fn flip(&self) -> memsim::BitFlip {
        self.flip
    }
    fn number(&self) -> usize {
        self.number
    }
    fn paper(&self) -> PaperError<'_> {
        PaperError::E2(self)
    }
    fn attribution_event(
        &self,
        case_index: usize,
        trial: &Trial,
        map: &MonitoredMap,
    ) -> AttributionEvent {
        AttributionEvent::for_e2(self, case_index, trial, map)
    }
    fn convergence_key(&self) -> CellKey {
        CellKey::Region(self.flip.region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_set;
    use arrestor::EaId;
    use std::path::PathBuf;

    fn temp_journal(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fic-campaign-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.jsonl")
    }

    /// Prune-class patterns for the item cutter: a deterministic mix of
    /// live and pruned errors at several densities, plus the extremes.
    fn class_patterns() -> Vec<Vec<Option<PruneClass>>> {
        let mut patterns = vec![
            vec![],
            vec![None; 1],
            vec![None; 8],
            vec![None; 17],
            vec![Some(PruneClass::DeadStack); 5],
        ];
        for modulus in [2u64, 3, 7] {
            for len in [9usize, 30, 200] {
                let mut x = len as u64 * 31 + modulus;
                patterns.push(
                    (0..len)
                        .map(|_| {
                            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                            (x >> 33)
                                .is_multiple_of(modulus)
                                .then_some(PruneClass::UnreadRam)
                        })
                        .collect(),
                );
            }
        }
        patterns
    }

    #[test]
    fn lockstep_items_cut_at_every_eighth_live_error() {
        for classes in class_patterns() {
            let items = lockstep_items(&classes);
            let joined: Vec<usize> = items.iter().flat_map(Clone::clone).collect();
            assert_eq!(
                joined,
                (0..classes.len()).collect::<Vec<_>>(),
                "{classes:?}"
            );
            let live =
                |item: &Range<usize>| classes[item.clone()].iter().filter(|c| c.is_none()).count();
            for (k, item) in items.iter().enumerate() {
                assert!(!item.is_empty());
                assert!(live(item) <= DEFAULT_BATCH_SIZE, "{classes:?}");
                if k + 1 < items.len() {
                    assert_eq!(live(item), DEFAULT_BATCH_SIZE, "{classes:?}");
                }
            }
        }
    }

    #[test]
    fn lockstep_items_are_chunks_when_everything_is_live() {
        for len in [0, 1, 7, 8, 9, 16, 23, 200] {
            let chunks: Vec<Range<usize>> = (0..len)
                .collect::<Vec<usize>>()
                .chunks(DEFAULT_BATCH_SIZE)
                .map(|c| c[0]..c[c.len() - 1] + 1)
                .collect();
            assert_eq!(lockstep_items(&vec![None; len]), chunks, "{len} errors");
        }
    }

    #[test]
    fn small_e1_campaign_counts_trials() {
        let protocol = Protocol::scaled(2, 1_500);
        let runner = CampaignRunner::new(protocol);
        let errors = error_set::e1();
        // mscnt errors: S81..S96 — use four of them.
        let subset = &errors[80..84];
        let report = runner.run_e1(subset);
        assert_eq!(report.trials(), 4 * 4);
        // Every mscnt error is caught by EA6 within a short window.
        let row = &report.rows[EaId::Ea6.index()];
        assert_eq!(row.cells[EaId::Ea6.index()].all.detected(), 16);
    }

    #[test]
    fn e1_report_is_deterministic_across_worker_counts() {
        let errors = error_set::e1();
        let subset = &errors[0..2];
        let mut p1 = Protocol::scaled(1, 1_000);
        p1.workers = 1;
        let mut p4 = Protocol::scaled(1, 1_000);
        p4.workers = 4;
        let r1 = CampaignRunner::new(p1).run_e1(subset);
        let r4 = CampaignRunner::new(p4).run_e1(subset);
        assert_eq!(r1, r4);
    }

    #[test]
    fn small_e2_campaign_routes_regions() {
        let protocol = Protocol::scaled(1, 1_000);
        let runner = CampaignRunner::new(protocol);
        let errors = error_set::e2();
        let subset: Vec<_> = errors
            .iter()
            .filter(|e| e.number <= 2 || e.number > 198)
            .copied()
            .collect();
        let report = runner.run_e2(&subset);
        assert_eq!(report.trials(), 4);
        assert_eq!(report.ram.all.total(), 2);
        assert_eq!(report.stack.all.total(), 2);
    }

    #[test]
    fn journaled_run_equals_plain_run() {
        let path = temp_journal("journaled-eq");
        let protocol = Protocol::scaled(2, 1_200);
        let runner = CampaignRunner::new(protocol.clone());
        let errors = error_set::e1();
        let subset = &errors[80..83];

        let plain = runner.run_e1(subset);
        let mut writer = JournalWriter::create(&path, &protocol).unwrap();
        let journaled = runner.run_e1_journaled(subset, &mut writer).unwrap();
        drop(writer);
        assert_eq!(plain, journaled);

        // The journal holds exactly one record per ⟨error, case⟩ pair.
        let journal = Journal::load(&path).unwrap();
        assert_eq!(journal.records.len(), 3 * 4);
        let mut keys: Vec<_> = journal
            .records
            .iter()
            .map(|r| (r.error_number, r.case_index))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 3 * 4);
    }

    #[test]
    fn resume_on_fresh_path_runs_full_campaign() {
        let path = temp_journal("resume-fresh");
        let protocol = Protocol::scaled(1, 1_000);
        let runner = CampaignRunner::new(protocol);
        let errors = error_set::e1();
        let subset = &errors[0..2];
        let resumed = runner.resume(subset, &[], &path).unwrap();
        assert_eq!(resumed.e1, runner.run_e1(subset));
    }

    #[test]
    fn resume_skips_recorded_trials_and_completes_the_rest() {
        let path = temp_journal("resume-half");
        let protocol = Protocol::scaled(2, 1_200);
        let runner = CampaignRunner::new(protocol.clone());
        let errors = error_set::e2();
        let subset = &errors[..4];

        // Full journaled run, then cut the journal in half (as a crash
        // mid-campaign would).
        let mut writer = JournalWriter::create(&path, &protocol).unwrap();
        let full = runner.run_e2_journaled(subset, &mut writer).unwrap();
        drop(writer);
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        let keep = 1 + (lines.len() - 1) / 2; // header + half the records
        std::fs::write(&path, format!("{}\n", lines[..keep].join("\n"))).unwrap();

        let resumed = runner.resume(&[], subset, &path).unwrap();
        assert_eq!(resumed.e2, full);
        // The journal is complete again afterwards.
        assert_eq!(Journal::load(&path).unwrap().records.len(), 4 * 4);
    }

    #[test]
    fn resume_rejects_incompatible_protocol() {
        let path = temp_journal("resume-mismatch");
        let errors = error_set::e1();
        let subset = &errors[0..1];
        let runner = CampaignRunner::new(Protocol::scaled(1, 1_000));
        runner.resume(subset, &[], &path).unwrap();
        let other = CampaignRunner::new(Protocol::scaled(1, 2_000));
        assert!(matches!(
            other.resume(subset, &[], &path),
            Err(JournalError::Mismatch(_))
        ));
    }

    #[test]
    fn a_prefix_build_blocks_only_its_own_case() {
        // One thread is mid-build on case 0, parked on a rendezvous
        // inside its build; a second thread must still get case 1 built
        // and returned. Were the cache locked while a prefix simulates,
        // it would wait for case 0 and time out.
        let protocol = Protocol::scaled(2, 3_000);
        let cases = protocol.grid.cases();
        let registry = Arc::new(telemetry::Registry::new());
        let tel = CampaignTelemetry::register(&registry);
        let cache = CheckpointCache::new();
        let (entered, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                cache.shared(0, Some(&tel), || {
                    entered.wait();
                    release.wait();
                    fault_free_prefix(&protocol, cases[0])
                })
            });
            entered.wait();
            let (sender, receiver) = std::sync::mpsc::channel();
            let (cache, protocol, tel, case) = (&cache, &protocol, &tel, cases[1]);
            scope.spawn(move || {
                let _ = sender.send(cache.prefix_observed(protocol, 1, case, Some(tel)));
            });
            let other = receiver.recv_timeout(std::time::Duration::from_secs(60));
            release.wait();
            assert_eq!(holder.join().unwrap().case(), cases[0]);
            let other = other.expect("case 1 must build while case 0 is mid-build");
            assert_eq!(other.case(), cases[1]);
        });
        // Later lookups share the builds: two misses, then hits only.
        for (ci, &case) in cases.iter().enumerate().take(2) {
            let again = cache.shared(ci, Some(&tel), || unreachable!("case {ci} is built"));
            assert_eq!(again.case(), case);
        }
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("campaign.checkpoint.cache.misses"), 2);
        assert_eq!(snapshot.counter("campaign.checkpoint.cache.hits"), 2);
    }
}
