//! One experiment run: an error, a test case, an observation window.

use arrestor::{RunConfig, System};
use memsim::BitFlip;
use serde::{Deserialize, Serialize};
use simenv::TestCase;

use crate::protocol::Protocol;

/// The outcome of one ⟨error, test case⟩ run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trial {
    /// Whether the arrestment violated a constraint (system failure).
    pub failed: bool,
    /// First detection timestamp of each mechanism EA1..EA7, ms.
    pub per_ea_first_ms: [Option<u64>; 7],
    /// Timestamp of the first injection, ms.
    pub first_injection_ms: u64,
    /// Final distance travelled, m (diagnostics).
    pub final_distance_m: f64,
}

impl Trial {
    /// First detection by *any* of the mechanisms in the given version.
    pub fn first_detection(&self, version: arrestor::EaSet) -> Option<u64> {
        version
            .iter()
            .filter_map(|ea| self.per_ea_first_ms[ea.index()])
            .min()
    }

    /// Whether the given version detected the error at least once.
    pub fn detected(&self, version: arrestor::EaSet) -> bool {
        self.first_detection(version).is_some()
    }

    /// Detection latency for a version: first injection → first
    /// detection (the paper's Table 8/9 metric).
    pub fn latency_ms(&self, version: arrestor::EaSet) -> Option<u64> {
        self.first_detection(version)
            .map(|t| t.saturating_sub(self.first_injection_ms))
    }
}

/// Runs one trial: the error is injected every
/// [`Protocol::injection_period_ms`] for the entire observation window
/// (injections may race the assertions, as in the paper), all mechanisms
/// log detections, and the run is classified for failure at the end.
pub fn run_trial(protocol: &Protocol, flip: BitFlip, case: TestCase) -> Trial {
    let outcome = run_full_window(protocol, case, Some(flip), RunConfig::default());
    trial_of(&outcome, protocol.injection_period_ms.max(1))
}

/// [`run_trial`] with per-tick trace capture, for the differential
/// oracle (`fic::trace`). The returned [`Trial`] is identical to the
/// untraced one — recording observes, never influences.
pub fn run_trial_traced(
    protocol: &Protocol,
    flip: BitFlip,
    case: TestCase,
) -> (Trial, arrestor::Trace) {
    let config = RunConfig {
        trace: true,
        ..RunConfig::default()
    };
    let outcome = run_full_window(protocol, case, Some(flip), config);
    let trial = trial_of(&outcome, protocol.injection_period_ms.max(1));
    (trial, outcome.trace.expect("tracing was enabled"))
}

/// Runs `case` for the protocol's whole observation window under
/// `config` (its `observation_ms` is replaced by the protocol's),
/// injecting `flip`, if any, every [`Protocol::injection_period_ms`].
/// No settle detector runs: this is the paper's trial as it defines
/// it, and the loop behind [`run_trial`], the calibration sweep
/// ([`crate::calibration`]) and the recovery ablation
/// ([`crate::recovery_study`]).
pub fn run_full_window(
    protocol: &Protocol,
    case: TestCase,
    flip: Option<BitFlip>,
    config: RunConfig,
) -> arrestor::RunOutcome {
    let config = RunConfig {
        observation_ms: protocol.observation_ms,
        ..config
    };
    let mut system = System::new(case, config);
    let period = protocol.injection_period_ms.max(1);
    while system.time_ms() < protocol.observation_ms {
        let t = system.time_ms();
        if let Some(flip) = flip.filter(|_| t > 0 && t.is_multiple_of(period)) {
            system.inject(flip);
        }
        system.tick();
    }
    system.finish()
}

/// How a checkpointed trial actually executed — the execution-shape
/// facts the campaign telemetry aggregates. Separate from [`Trial`]
/// on purpose: results are result-bearing artefacts, execution shape
/// is observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrialExecution {
    /// Simulation time at which the settle detector stopped the run,
    /// ms; `None` when the trial ran its full observation window.
    pub settle_stop_ms: Option<u64>,
    /// What proved the early stop sound. `None` together with a
    /// `settle_stop_ms` is a stop without any state recurrence, proven by
    /// the certificates of `arrestor::record_final`: a record-final stop
    /// when the plant had arrested, a command-final stop (the plant
    /// completes the window alone) when it still rolled.
    /// [`BatchTrial::arrested_at_stop`] tells the two apart.
    pub settle_proof: Option<arrestor::SettleProof>,
    /// Fingerprint captures the detector took.
    pub settle_captures: u64,
    /// Milliseconds of window actually simulated by this call
    /// (excludes the forked prefix).
    pub simulated_ms: u64,
    /// Milliseconds of window skipped (prefix fork + settle
    /// fast-forward).
    pub skipped_ms: u64,
    /// Assertion checks each mechanism EA1..EA7 executed over the
    /// trial's whole timeline (the forked fault-free prefix included —
    /// the target system runs its assertions there too). Input to the
    /// per-assertion cost profile; identical batched vs scalar.
    pub ea_checks: [u64; 7],
}

/// [`run_trial`] resumed from a fault-free prefix [`arrestor::Snapshot`]
/// instead of replaying the prefix from t = 0, with steady-state
/// fast-forward: once the [`arrestor::SettleDetector`] proves the run's
/// outputs are final, the remaining window is skipped. Returns the
/// trial and the [`TrialExecution`] shape the telemetry layer records.
///
/// The returned [`Trial`] is bit-identical to [`run_trial`]'s — the
/// prefix fork is a deep copy of a deterministic simulation, and the
/// detector only stops a run it has proven final (see
/// [`arrestor::checkpoint`] for the argument). `analytic_settle`
/// switches the detector's analytic stops on
/// ([`arrestor::SettleDetector::with_analytic`]), as every campaign
/// runs them, or off, leaving exact recurrence alone; it changes
/// *when* a run is proven final, never what its outputs are, so the
/// execution shape (stop time, proof kind) differs between the two. It
/// is the scalar reference the lockstep lanes of [`run_case_batch_with`]
/// are tested against.
///
/// `prefix` must come from [`fault_free_prefix`] for the same protocol
/// and case (checked in debug builds).
pub fn run_trial_checkpointed_observed_with(
    protocol: &Protocol,
    flip: BitFlip,
    case: TestCase,
    prefix: &arrestor::Snapshot,
    analytic_settle: bool,
) -> (Trial, TrialExecution) {
    let lane = run_trial_checkpointed_lane(protocol, flip, case, prefix, analytic_settle);
    (lane.trial, lane.execution)
}

/// [`run_trial_checkpointed_observed_with`] as a one-lane
/// [`BatchTrial`] (slot 0), which also says whether the plant had
/// arrested when the loop stopped.
pub fn run_trial_checkpointed_lane(
    protocol: &Protocol,
    flip: BitFlip,
    case: TestCase,
    prefix: &arrestor::Snapshot,
    analytic_settle: bool,
) -> BatchTrial {
    debug_assert_eq!(prefix.case(), case, "prefix belongs to another case");
    let mut system = prefix.resume();
    let resumed_at = system.time_ms();
    let period = protocol.injection_period_ms.max(1);
    let mut settle =
        arrestor::SettleDetector::new(&system, Some(flip), period).with_analytic(analytic_settle);

    let mut settle_stop_ms = None;
    while system.time_ms() < protocol.observation_ms {
        let t = system.time_ms();
        if settle.check(&system) {
            settle_stop_ms = Some(t);
            break;
        }
        if t > 0 && t.is_multiple_of(period) {
            system.inject(flip);
        }
        system.tick();
    }

    let stopped_at = system.time_ms();
    let execution = TrialExecution {
        settle_stop_ms,
        settle_proof: settle.proof(),
        settle_captures: settle.captures(),
        simulated_ms: stopped_at - resumed_at,
        skipped_ms: resumed_at + protocol.observation_ms.saturating_sub(stopped_at),
        ea_checks: system.master().detectors().check_counts(),
    };
    BatchTrial {
        slot: 0,
        arrested_at_stop: system.plant_state().arrested,
        trial: finish_trial(system, period),
        execution,
    }
}

/// One lane's outcome from [`run_case_batch_with`]: the slot ties it
/// back to the flip slice (and hence the campaign's error index).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchTrial {
    /// Index of this trial's flip in the slice given to
    /// [`run_case_batch_with`].
    pub slot: usize,
    /// The trial outcome — bit-identical to the scalar
    /// [`run_trial_checkpointed_observed_with`] result for the same flip.
    pub trial: Trial,
    /// The execution shape, for telemetry.
    pub execution: TrialExecution,
    /// Whether the plant had arrested when the lane stopped: a stop
    /// without a proof over an arrested plant is record-final, over a
    /// rolling one command-final (see [`TrialExecution::settle_proof`]).
    pub arrested_at_stop: bool,
}

/// Runs every flip in `flips` against the same test case as one
/// lockstep batch ([`arrestor::batch`]): all lanes fork from `prefix`
/// once and step together, sharing the fault-free reference
/// environment until their command histories diverge.
///
/// Each returned [`Trial`] and [`TrialExecution`] is bit-identical to
/// what [`run_trial_checkpointed_observed_with`] produces for the same
/// flip and `analytic_settle` — the batch changes the execution
/// schedule, never the results. Pinned by `tests/batch_equivalence.rs`
/// and the lane invariance properties in `tests/prop_batch.rs`.
pub fn run_case_batch_with(
    protocol: &Protocol,
    flips: &[BitFlip],
    case: TestCase,
    prefix: &arrestor::Snapshot,
    analytic_settle: bool,
) -> Vec<BatchTrial> {
    debug_assert_eq!(prefix.case(), case, "prefix belongs to another case");
    let period = protocol.injection_period_ms.max(1);
    let config = arrestor::BatchConfig {
        observation_ms: protocol.observation_ms,
        injection_period_ms: protocol.injection_period_ms,
        analytic_settle,
    };
    arrestor::batch::run_lockstep(prefix, flips, &config)
        .into_iter()
        .map(|lane| {
            let execution = TrialExecution {
                settle_stop_ms: lane.settle_stop_ms,
                settle_proof: lane.settle_proof,
                settle_captures: lane.settle_captures,
                simulated_ms: lane.stopped_at_ms - lane.resumed_at_ms,
                skipped_ms: lane.resumed_at_ms
                    + protocol.observation_ms.saturating_sub(lane.stopped_at_ms),
                ea_checks: lane.system.master().detectors().check_counts(),
            };
            BatchTrial {
                slot: lane.slot,
                arrested_at_stop: lane.system.plant_state().arrested,
                trial: finish_trial(lane.system, period),
                execution,
            }
        })
        .collect()
}

/// The reference trial an **inert** error shares: the fault-free
/// continuation of `prefix` through the same checkpointed trial loop
/// as [`run_trial_checkpointed_observed_with`], minus the injections.
///
/// An inert error (`fic::prune`) flips bits that no instruction ever
/// reads — dead stack space, or RAM the reach table marks unread —
/// so its trial's entire *read* history, and therefore its [`Trial`],
/// is bit-identical to this fault-free run's. The dominance-prune pass
/// executes this once per test case and shares the result across every
/// inert error of the case; `first_injection_ms` is stamped exactly as
/// the executed trial would stamp it. Pinned by the prune half of the
/// differential gate in `tests/settle_prune_equivalence.rs`.
pub fn run_reference_trial_with(
    protocol: &Protocol,
    case: TestCase,
    prefix: &arrestor::Snapshot,
    analytic_settle: bool,
) -> Trial {
    debug_assert_eq!(prefix.case(), case, "prefix belongs to another case");
    let mut system = prefix.resume();
    let period = protocol.injection_period_ms.max(1);
    let mut settle =
        arrestor::SettleDetector::new(&system, None, period).with_analytic(analytic_settle);
    while system.time_ms() < protocol.observation_ms {
        if settle.check(&system) {
            break;
        }
        system.tick();
    }
    finish_trial(system, period)
}

/// Simulates the fault-free prefix of a trial — everything strictly
/// before the first injection instant — and freezes it for forking
/// with [`run_trial_checkpointed_observed_with`].
pub fn fault_free_prefix(protocol: &Protocol, case: TestCase) -> arrestor::Snapshot {
    let config = RunConfig {
        observation_ms: protocol.observation_ms,
        ..RunConfig::default()
    };
    let mut system = System::new(case, config);
    let first_injection = protocol
        .injection_period_ms
        .max(1)
        .min(protocol.observation_ms);
    while system.time_ms() < first_injection {
        system.tick();
    }
    system.checkpoint()
}

fn finish_trial(system: System, first_injection_ms: u64) -> Trial {
    trial_of(&system.finish(), first_injection_ms)
}

fn trial_of(outcome: &arrestor::RunOutcome, first_injection_ms: u64) -> Trial {
    let mut per_ea_first_ms: [Option<u64>; 7] = [None; 7];
    for event in &outcome.detections {
        let idx = event.monitor.0;
        if idx < 7 {
            per_ea_first_ms[idx] = Some(event.at);
        }
    }
    Trial {
        failed: outcome.verdict.failed(),
        per_ea_first_ms,
        first_injection_ms,
        final_distance_m: outcome.verdict.final_distance_m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrestor::{EaId, EaSet, SignalMap};
    use memsim::Region;

    fn short_protocol() -> Protocol {
        Protocol::scaled(1, 6_000)
    }

    fn signal_addr(name: &str) -> usize {
        SignalMap::allocate()
            .monitored()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, a)| *a)
            .expect("monitored signal")
    }

    #[test]
    fn mscnt_msb_error_detected_quickly_by_ea6() {
        let flip = BitFlip::new(Region::AppRam, signal_addr("mscnt") + 1, 7);
        let trial = run_trial(&short_protocol(), flip, TestCase::new(12_000.0, 55.0));
        let ea6 = trial.per_ea_first_ms[EaId::Ea6.index()];
        assert!(ea6.is_some(), "EA6 should fire");
        // Detected within a few ms of the first injection at t = 20.
        assert!(ea6.unwrap() <= 25, "latency too long: {ea6:?}");
        assert_eq!(
            trial.latency_ms(EaSet::only(EaId::Ea6)),
            Some(ea6.unwrap() - 20)
        );
    }

    #[test]
    fn version_filtering_works() {
        let flip = BitFlip::new(Region::AppRam, signal_addr("mscnt") + 1, 7);
        let trial = run_trial(&short_protocol(), flip, TestCase::new(12_000.0, 55.0));
        assert!(trial.detected(EaSet::ALL));
        assert!(trial.detected(EaSet::only(EaId::Ea6)));
        // A mechanism that has nothing to do with mscnt stays silent.
        assert!(!trial.detected(EaSet::only(EaId::Ea5)));
        assert!(!trial.detected(EaSet::NONE));
    }

    #[test]
    fn set_value_msb_error_fails_and_is_detected() {
        // +32768 pu on the set point: massive overpressure.
        let flip = BitFlip::new(Region::AppRam, signal_addr("SetValue") + 1, 7);
        let trial = run_trial(
            &Protocol::scaled(1, 15_000),
            flip,
            TestCase::new(8_000.0, 40.0),
        );
        assert!(trial.detected(EaSet::only(EaId::Ea1)), "EA1 silent");
        assert!(trial.failed, "light aircraft must fail under full pressure");
    }

    #[test]
    fn low_bit_out_value_error_neither_fails_nor_detects() {
        let flip = BitFlip::new(Region::AppRam, signal_addr("OutValue"), 1);
        let trial = run_trial(&short_protocol(), flip, TestCase::new(12_000.0, 55.0));
        assert!(!trial.detected(EaSet::ALL));
    }

    #[test]
    fn dead_stack_error_is_inert() {
        let flip = BitFlip::new(Region::Stack, 10, 3);
        let trial = run_trial(
            &Protocol::scaled(1, 25_000),
            flip,
            TestCase::new(12_000.0, 55.0),
        );
        assert!(!trial.detected(EaSet::ALL));
        assert!(!trial.failed);
    }

    #[test]
    fn case_batch_matches_scalar_checkpointed_trials() {
        let protocol = Protocol::scaled(2, 2_000);
        let case = TestCase::new(12_000.0, 55.0);
        let prefix = fault_free_prefix(&protocol, case);
        let flips = [
            BitFlip::new(Region::AppRam, signal_addr("SetValue") + 1, 7),
            BitFlip::new(Region::AppRam, signal_addr("OutValue"), 1),
            BitFlip::new(Region::AppRam, signal_addr("mscnt") + 1, 7),
            BitFlip::new(Region::Stack, 10, 3),
        ];
        let batched = run_case_batch_with(&protocol, &flips, case, &prefix, false);
        assert_eq!(batched.len(), flips.len());
        for (slot, &flip) in flips.iter().enumerate() {
            let (trial, execution) =
                run_trial_checkpointed_observed_with(&protocol, flip, case, &prefix, false);
            assert_eq!(batched[slot].slot, slot);
            assert_eq!(batched[slot].trial, trial, "flip {flip:?}");
            assert_eq!(batched[slot].execution, execution, "flip {flip:?}");
        }
    }

    #[test]
    fn kernel_stack_error_hangs_and_fails_undetected() {
        // Top of the stack: the ISR context. The node hangs, the valves
        // freeze, the aircraft overruns — and no assertion ever runs.
        let flip = BitFlip::new(Region::Stack, memsim::STACK_BYTES - 4, 0);
        let trial = run_trial(
            &Protocol::scaled(1, 25_000),
            flip,
            TestCase::new(12_000.0, 55.0),
        );
        assert!(trial.failed, "hung node must overrun");
        assert!(!trial.detected(EaSet::ALL));
    }
}
