//! The t = 0 replay oracle the differential suites share.
//!
//! [`assert_matches_replay`] runs a slice of one error set as one
//! journaled campaign — `CampaignRunner`'s only path: cached prefixes,
//! lockstep batches, analytic stops and pruning — with telemetry and
//! attribution attached. It then builds the slice's reference from
//! `fic::run_trial` alone, in the campaign's case-major order at one
//! worker:
//!
//! * the journal bytes, written through `JournalWriter::append`;
//! * the rendered Tables 6–8 (E1) or 9 (E2) and the attribution
//!   aggregate, folded from the replayed trials;
//! * the result-derived telemetry counters, as a fold of
//!   `run_trial_checkpointed_lane` over the live errors plus the
//!   `InertMap` classes of the rest.
//!
//! Every artefact must be equal. When the journals differ, the first
//! mismatching record is re-run under the `fic::trace` oracle and a
//! repro bundle naming its lane and first diverging instant lands in
//! `target/batch-repro/` (CI uploads the directory when a job fails).
//! Proptest failures also print the generating inputs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ea_repro::arrestor::SettleProof;
use ea_repro::fic::campaign::{lockstep_items, InjectableError};
use ea_repro::fic::experiment::{fault_free_prefix, run_trial_checkpointed_lane};
use ea_repro::fic::telemetry::{Registry, TelemetrySnapshot};
use ea_repro::fic::trace::{self, ReproError};
use ea_repro::fic::{
    error_set, run_trial, run_trial_traced, tables, AttributionAggregate, CampaignKind,
    CampaignRunner, E1Error, E1Report, E2Error, E2Report, InertMap, Journal, JournalWriter,
    MonitoredMap, Protocol, PruneClass, ReproBundle, Trial, TrialRecord,
};
use ea_repro::memsim::BitFlip;
use proptest::prelude::{prop_assert_eq, TestCaseError};

/// Counters derived from the trial results and the slice alone. Timing
/// histograms (queue wait, snapshot build) measure the wall clock, not
/// the result, and are not compared.
const COMPARED_COUNTERS: &[&str] = &[
    "campaign.trials",
    "campaign.trials.settled",
    "campaign.trials.full_window",
    "campaign.window_ms.simulated",
    "campaign.window_ms.skipped",
    "campaign.checkpoint.cache.hits",
    "campaign.checkpoint.cache.misses",
    "campaign.settle.proof.exact",
    "campaign.settle.proof.translated",
    "campaign.settle.proof.retired_clock",
    "campaign.settle.proof.frozen_hung",
    "campaign.settle.proof.analytic_band",
    "campaign.settle.analytic.stops",
    "campaign.settle.record_final.stops",
    "campaign.settle.command_final.stops",
    "campaign.prune.trials",
    "campaign.prune.dead_stack",
    "campaign.prune.unread_ram",
    "campaign.prune.references",
];

/// A slice of one error set, in the order the campaign is given it.
pub enum Slice {
    E1(Vec<E1Error>),
    E2(Vec<E2Error>),
}

impl Slice {
    /// The E1 errors with these 1-based numbers.
    pub fn e1(numbers: impl IntoIterator<Item = usize>) -> Self {
        let full = error_set::e1();
        Slice::E1(numbers.into_iter().map(|n| full[n - 1]).collect())
    }

    /// The E2 errors with these 1-based numbers.
    pub fn e2(numbers: impl IntoIterator<Item = usize>) -> Self {
        let full = error_set::e2();
        Slice::E2(numbers.into_iter().map(|n| full[n - 1]).collect())
    }

    /// Each error's number and flip, in slice order.
    fn flips(&self) -> Vec<(usize, BitFlip)> {
        fn of<E: InjectableError>(errors: &[E]) -> Vec<(usize, BitFlip)> {
            errors.iter().map(|e| (e.number(), e.flip())).collect()
        }
        match self {
            Slice::E1(errors) => of(errors),
            Slice::E2(errors) => of(errors),
        }
    }
}

/// What the campaign produced beyond the artefacts the oracle checks.
pub struct Campaign {
    /// The rendered tables, named as their files in `results/`.
    #[allow(dead_code)] // only `checkpoint_equivalence` reads the tables
    pub tables: Vec<(&'static str, String)>,
    /// The campaign's telemetry, for each suite's witness.
    pub snapshot: TelemetrySnapshot,
}

/// Everything result-bearing one run of a slice produces.
struct Artifacts {
    journal: PathBuf,
    tables: Vec<(&'static str, String)>,
    attribution: AttributionAggregate,
    counters: Vec<(String, u64)>,
}

/// Tables 6–8 of an E1 slice.
fn e1_tables(
    errors: &[E1Error],
    protocol: &Protocol,
    report: &E1Report,
) -> Vec<(&'static str, String)> {
    vec![
        (
            "table6.txt",
            tables::render_table6(errors, protocol.cases_per_error()),
        ),
        ("table7.txt", tables::render_table7(report)),
        ("table8.txt", tables::render_table8(report)),
    ]
}

/// A fresh scratch directory for one check.
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ea-repro-oracle-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the slice as one journaled campaign with every observer the
/// oracle checks attached.
fn run_campaign(protocol: &Protocol, slice: &Slice, dir: &Path) -> (Artifacts, TelemetrySnapshot) {
    let registry = Arc::new(Registry::new());
    let runner = CampaignRunner::new(protocol.clone())
        .with_telemetry(Arc::clone(&registry))
        .with_attribution(true);
    let journal = dir.join("campaign.jsonl");
    let mut writer = JournalWriter::create(&journal, protocol).unwrap();
    let tables = match slice {
        Slice::E1(errors) => {
            let report = runner.run_e1_journaled(errors, &mut writer).unwrap();
            e1_tables(errors, protocol, &report)
        }
        Slice::E2(errors) => {
            let report = runner.run_e2_journaled(errors, &mut writer).unwrap();
            vec![("table9.txt", tables::render_table9(&report))]
        }
    };
    writer.finish().unwrap();
    let snapshot = registry.snapshot();
    let artifacts = Artifacts {
        journal,
        tables,
        attribution: runner.attribution().unwrap().snapshot(),
        counters: COMPARED_COUNTERS
            .iter()
            .map(|name| ((*name).to_string(), snapshot.counter(name)))
            .collect(),
    };
    (artifacts, snapshot)
}

/// Replays every ⟨error, case⟩ pair from t = 0, case-major, into the
/// journal, the attribution aggregate and `record`.
fn replay_into<E: InjectableError>(
    protocol: &Protocol,
    errors: &[E],
    kind: CampaignKind,
    journal: &mut JournalWriter,
    attribution: &mut AttributionAggregate,
    mut record: impl FnMut(&E, &Trial),
) {
    let map = MonitoredMap::new();
    for (ci, &case) in protocol.grid.cases().iter().enumerate() {
        for error in errors {
            let trial = run_trial(protocol, error.flip(), case);
            journal.append(kind, error.number(), ci, &trial).unwrap();
            attribution.record(&error.attribution_event(ci, &trial, &map));
            record(error, &trial);
        }
    }
}

/// The slice's reference, from `run_trial` alone.
fn replay(protocol: &Protocol, slice: &Slice, dir: &Path) -> Artifacts {
    let journal = dir.join("replay.jsonl");
    let mut writer = JournalWriter::create(&journal, protocol).unwrap();
    let mut attribution = AttributionAggregate::new();
    let tables = match slice {
        Slice::E1(errors) => {
            let mut report = E1Report::new();
            replay_into(
                protocol,
                errors,
                CampaignKind::E1,
                &mut writer,
                &mut attribution,
                |e, t| {
                    report.record(e, t);
                },
            );
            e1_tables(errors, protocol, &report)
        }
        Slice::E2(errors) => {
            let mut report = E2Report::new();
            replay_into(
                protocol,
                errors,
                CampaignKind::E2,
                &mut writer,
                &mut attribution,
                |e, t| {
                    report.record(e, t);
                },
            );
            vec![("table9.txt", tables::render_table9(&report))]
        }
    };
    writer.finish().unwrap();
    Artifacts {
        journal,
        tables,
        attribution,
        counters: reference_counters(protocol, &slice.flips()),
    }
}

/// The counters a campaign over `errors` must report, derived without
/// the campaign: inert errors (by `InertMap`) count as pruned with one
/// shared reference per case, live ones run the scalar checkpointed
/// trial and contribute its execution shape, and the prefix cache
/// misses once per case and hits on every further trial.
fn reference_counters(protocol: &Protocol, errors: &[(usize, BitFlip)]) -> Vec<(String, u64)> {
    let map = InertMap::new();
    let mut c: BTreeMap<&str, u64> = COMPARED_COUNTERS.iter().map(|n| (*n, 0)).collect();
    let mut bump = |name: &str, by: u64| *c.get_mut(name).expect("compared counter") += by;
    let cases = protocol.grid.cases();
    for &case in &cases {
        let prefix = fault_free_prefix(protocol, case);
        let mut pruned_here = false;
        for &(_, flip) in errors {
            bump("campaign.trials", 1);
            if let Some(class) = map.classify(flip) {
                pruned_here = true;
                bump("campaign.prune.trials", 1);
                bump(
                    match class {
                        PruneClass::DeadStack => "campaign.prune.dead_stack",
                        PruneClass::UnreadRam => "campaign.prune.unread_ram",
                    },
                    1,
                );
                continue;
            }
            let lane = run_trial_checkpointed_lane(protocol, flip, case, &prefix, true);
            let exec = lane.execution;
            bump("campaign.window_ms.simulated", exec.simulated_ms);
            bump("campaign.window_ms.skipped", exec.skipped_ms);
            match exec.settle_stop_ms {
                Some(_) => bump("campaign.trials.settled", 1),
                None => bump("campaign.trials.full_window", 1),
            }
            match exec.settle_proof {
                Some(SettleProof::ExactRecurrence) => bump("campaign.settle.proof.exact", 1),
                Some(SettleProof::TranslatedRecurrence) => {
                    bump("campaign.settle.proof.translated", 1);
                }
                Some(SettleProof::RetiredClock) => bump("campaign.settle.proof.retired_clock", 1),
                Some(SettleProof::FrozenHung) => bump("campaign.settle.proof.frozen_hung", 1),
                Some(SettleProof::AnalyticBand) => {
                    bump("campaign.settle.proof.analytic_band", 1);
                    bump("campaign.settle.analytic.stops", 1);
                }
                None if exec.settle_stop_ms.is_some() => bump(
                    if lane.arrested_at_stop {
                        "campaign.settle.record_final.stops"
                    } else {
                        "campaign.settle.command_final.stops"
                    },
                    1,
                ),
                None => {}
            }
        }
        bump("campaign.prune.references", u64::from(pruned_here));
    }
    let trials = errors.len() as u64 * cases.len() as u64;
    bump("campaign.checkpoint.cache.misses", cases.len() as u64);
    bump(
        "campaign.checkpoint.cache.hits",
        trials - cases.len() as u64,
    );
    COMPARED_COUNTERS
        .iter()
        .map(|name| ((*name).to_string(), c[name]))
        .collect()
}

/// Names the first record at which the campaign's journal departs from
/// the replay's and writes its repro bundle ([`write_divergence_bundle`]).
/// Returns the failure message.
fn dump_divergence(protocol: &Protocol, slice: &Slice, campaign: &Path, replay: &Path) -> String {
    let (ours, theirs) = (
        Journal::load(campaign).unwrap(),
        Journal::load(replay).unwrap(),
    );
    let Some(at) = (0..ours.records.len().max(theirs.records.len()))
        .find(|&i| ours.records.get(i) != theirs.records.get(i))
    else {
        return "the journals hold the same records but differ in their bytes".to_string();
    };
    let Some(record) = ours.records.get(at) else {
        return format!("the campaign journal ends at record #{at}, before the replay's");
    };
    let expected = theirs.records.get(at);
    let path = write_divergence_bundle(
        protocol,
        slice,
        record,
        &format!("campaign/replay divergence: journal record #{at} differs from run_trial's"),
    );
    format!(
        "campaign journal record #{at} differs from the t = 0 replay's: \
         campaign {record:?} vs replay {expected:?}; repro bundle: {}",
        path.display()
    )
}

/// Re-runs `record`'s ⟨error, case⟩ pair of `slice` under the trace
/// oracle and writes a repro bundle to `target/batch-repro/`, its
/// reason `what` followed by the pair, its lane and the instant its
/// fault's trace departs the fault-free reference. Returns the
/// bundle's path.
pub fn write_divergence_bundle(
    protocol: &Protocol,
    slice: &Slice,
    record: &TrialRecord,
    what: &str,
) -> PathBuf {
    let errors = slice.flips();
    let position = errors
        .iter()
        .position(|&(number, _)| number == record.error_number)
        .expect("journal record names an error outside the slice");
    let flip = errors[position].1;
    // Lane slot within the record's work item: each case enqueues the
    // slice in order, cut by `lockstep_items`, and a lane's slot counts
    // only the item's live errors (a pruned error runs no lane).
    let map = InertMap::new();
    let classes: Vec<_> = errors.iter().map(|&(_, f)| map.classify(f)).collect();
    let item = lockstep_items(&classes)
        .into_iter()
        .find(|item| item.contains(&position))
        .expect("the items cover the slice");
    let lane = match classes[position] {
        None => format!(
            "lane slot {} of its work item",
            classes[item.start..position]
                .iter()
                .filter(|c| c.is_none())
                .count()
        ),
        Some(class) => format!("pruned as {}, no lane", class.label()),
    };
    let case = protocol.grid.cases()[record.case_index];
    let reference = trace::record_reference(protocol, case);
    let (trial, observed) = run_trial_traced(protocol, flip, case);
    let mut bundle = ReproBundle::assemble(
        String::new(),
        protocol,
        case,
        Some(ReproError::new(
            format!("{:?} #{}", record.campaign, record.error_number),
            flip,
        )),
        Some(trial),
        &reference,
        &observed,
    );
    let first_tick = bundle.divergence.first_divergence_ms();
    bundle.reason = format!(
        "{what}: {:?} #{} case {} ({lane}); the fault's trace first \
         departs the fault-free reference at t={} ms",
        record.campaign,
        record.error_number,
        record.case_index,
        first_tick.map_or_else(|| "<none>".to_string(), |t| t.to_string()),
    );
    let label = format!(
        "oracle-{:?}-{}-case{}",
        record.campaign, record.error_number, record.case_index
    );
    let repro_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/batch-repro");
    trace::write_repro(&repro_dir, &label, &bundle).unwrap()
}

/// Runs `slice` through the campaign and asserts its journal bytes,
/// tables, attribution and result-derived counters equal the t = 0
/// replay's; dumps a repro bundle before failing on a journal
/// mismatch. `protocol` must run one worker, so that the campaign
/// appends in case-major order.
pub fn assert_matches_replay(
    protocol: &Protocol,
    slice: &Slice,
) -> Result<Campaign, TestCaseError> {
    assert_eq!(protocol.workers, 1, "journal bytes need one worker");
    let dir = scratch_dir();
    let (campaign, snapshot) = run_campaign(protocol, slice, &dir);
    let reference = replay(protocol, slice, &dir);
    if std::fs::read(&campaign.journal).unwrap() != std::fs::read(&reference.journal).unwrap() {
        let message = dump_divergence(protocol, slice, &campaign.journal, &reference.journal);
        return Err(TestCaseError::Fail(message));
    }
    prop_assert_eq!(&campaign.tables, &reference.tables);
    prop_assert_eq!(&campaign.attribution, &reference.attribution);
    prop_assert_eq!(&campaign.counters, &reference.counters);
    std::fs::remove_dir_all(&dir).unwrap();
    Ok(Campaign {
        tables: campaign.tables,
        snapshot,
    })
}
