//! Lockstep batched trial execution: all trials of one test case step
//! together, sharing one fault-free reference environment.
//!
//! Every trial of a ⟨test case⟩ group forks from the same fault-free
//! prefix [`Snapshot`] and differs only in one flipped memory cell, so
//! the lanes can advance in lockstep — one observation instant at a
//! time — instead of one trial at a time. The executor exploits a
//! factoring of [`System::tick`]:
//!
//! * the **node half** ([`System::tick_nodes`]) — the 16-bit control
//!   cycles, where the injected faults live — always runs per lane;
//! * the **environment half** ([`System::tick_plant`]) — f64 plant
//!   integration plus failure accumulation — is *pure in the command
//!   history*: two systems that have issued bit-identical valve
//!   commands since forking from a common snapshot have bit-identical
//!   environments.
//!
//! So each lane starts **shared**: its environment is implied by the
//! fault-free reference lane and never integrated. Each tick, the
//! lane's commands are compared against the reference's; on the first
//! divergence the lane **forks** — it adopts a copy of the reference's
//! pre-step environment ([`System::adopt_environment`]) and integrates
//! privately from then on. Lanes retire as the [`SettleDetector`]
//! proves them settled or the observation window ends; the detector is
//! only consulted at its own published due points
//! ([`SettleDetector::next_check_ms`]), which is when a shared lane's
//! environment is materialised for inspection.
//!
//! The reference lane ticks only while it stands in for at least two
//! lanes. When forks and retirements leave a single shared lane, that
//! lane adopts the reference's current environment and runs privately
//! from then on, and the reference stops. A one-lane batch therefore
//! never ticks the reference: it runs the scalar trial loop.
//!
//! Equivalence to the scalar loop is bit-exact, not approximate: the
//! per-lane schedule (settle check, then injection, then tick) is the
//! scalar trial loop verbatim, skipped settle calls are exactly the
//! calls the scalar loop makes on the detector's side-effect-free fast
//! path, and a shared lane's implied environment equals the one the
//! scalar trial would have integrated. The differential suite
//! (`tests/batch_equivalence.rs`) and the lane-invariance properties
//! (`tests/prop_batch.rs`) pin this.

use memsim::BitFlip;

use crate::checkpoint::{SettleDetector, SettleProof, Snapshot};
use crate::system::System;

/// The trial-loop parameters of a lockstep batch (the subset of the
/// campaign protocol the executor needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Observation window, ms: lanes retire at this instant at the
    /// latest.
    pub observation_ms: u64,
    /// Injection period, ms: every lane's flip is re-applied at each
    /// multiple (0 is treated as 1, as in the scalar path).
    pub injection_period_ms: u64,
    /// Whether lane detectors use the analytic absorbing-band
    /// relaxation ([`SettleDetector::with_analytic`]). Must match the
    /// scalar path's setting for batched/scalar equivalence.
    pub analytic_settle: bool,
}

/// One finished lane: the retired [`System`] plus the execution-shape
/// facts the scalar path reports through `TrialExecution`.
#[derive(Debug)]
pub struct RetiredLane {
    /// Index of this lane's flip in the slice passed to
    /// [`run_lockstep`].
    pub slot: usize,
    /// The lane's system at retirement, ready for outcome
    /// classification (`System::finish`).
    pub system: System,
    /// Simulation time at which the lanes resumed from the prefix, ms.
    pub resumed_at_ms: u64,
    /// Simulation time at which this lane retired, ms.
    pub stopped_at_ms: u64,
    /// The settle instant, when the lane retired early; `None` when it
    /// ran out the window.
    pub settle_stop_ms: Option<u64>,
    /// What proved the early stop sound; `None` with a stop instant is
    /// a record-final stop, or a command-final one when the plant still
    /// rolls ([`crate::record_final`]).
    pub settle_proof: Option<SettleProof>,
    /// Fingerprint captures the lane's detector took.
    pub settle_captures: u64,
}

struct Lane {
    slot: usize,
    flip: BitFlip,
    system: System,
    settle: SettleDetector,
    /// Environment implied by the reference lane (command histories
    /// identical since the fork); the lane's own plant/failmon copies
    /// are stale until adopted.
    shared: bool,
}

/// Runs every flip in `flips` as one lockstep batch forked from
/// `prefix`, returning the retired lanes sorted by slot.
///
/// Each lane's observable behaviour — detections, verdict, settle
/// stop, capture count — is bit-identical to running its flip alone
/// through the scalar checkpointed trial loop.
///
/// # Panics
///
/// When the prefix was built with trace capture or periodic readout
/// enabled: shared lanes do not integrate their own environments, so
/// per-tick recording cannot be attributed to them. (The campaign
/// never enables either; the scalar path remains available for runs
/// that do.)
pub fn run_lockstep(
    prefix: &Snapshot,
    flips: &[BitFlip],
    config: &BatchConfig,
) -> Vec<RetiredLane> {
    let mut reference = prefix.resume();
    assert!(
        !reference.config().trace,
        "lockstep batching cannot record per-tick traces"
    );
    assert_eq!(
        reference.config().record_every_ms,
        0,
        "lockstep batching cannot capture periodic readouts"
    );

    let observation_ms = config.observation_ms;
    let period = config.injection_period_ms.max(1);
    let resumed_at = prefix.time_ms();

    // A lone lane never shares: its own environment, resumed from the
    // prefix, is already the reference's.
    let sharing = flips.len() >= 2;
    let mut lanes: Vec<Lane> = flips
        .iter()
        .enumerate()
        .map(|(slot, &flip)| {
            let system = prefix.resume();
            let settle = SettleDetector::new(&system, Some(flip), period)
                .with_analytic(config.analytic_settle);
            Lane {
                slot,
                flip,
                system,
                settle,
                shared: sharing,
            }
        })
        .collect();
    // Lanes whose `shared` flag is set, kept in step with every flag
    // change so the tick loop never rescans for it.
    let mut shared = if sharing { lanes.len() } else { 0 };
    let mut retired: Vec<RetiredLane> = Vec::with_capacity(lanes.len());

    while !lanes.is_empty() {
        // All live lanes (and the reference, while it still runs)
        // share one clock.
        let t = lanes[0].system.time_ms();

        // Retirement pass at observation instant t — the scalar loop's
        // `settle.check` / window-exhaustion exit, before any
        // injection. Retiring only touches the retired lane, so the
        // pass order over lanes is immaterial (remove-one invariance).
        let mut i = 0;
        while i < lanes.len() {
            let lane = &mut lanes[i];
            let settled = if t < observation_ms && t >= lane.settle.next_check_ms() {
                // The detector is due: materialise a shared lane's
                // implied environment so the check reads the same
                // plant and failure state the scalar run would hold.
                if lane.shared {
                    lane.system.adopt_environment(&reference);
                }
                lane.settle.check(&lane.system)
            } else {
                false
            };
            if settled || t >= observation_ms {
                let mut lane = lanes.swap_remove(i);
                if lane.shared {
                    shared -= 1;
                    if !settled {
                        lane.system.adopt_environment(&reference);
                    }
                }
                retired.push(RetiredLane {
                    slot: lane.slot,
                    resumed_at_ms: resumed_at,
                    stopped_at_ms: t,
                    settle_stop_ms: settled.then_some(t),
                    settle_proof: lane.settle.proof(),
                    settle_captures: lane.settle.captures(),
                    system: lane.system,
                });
            } else {
                i += 1;
            }
        }
        if lanes.is_empty() {
            break;
        }

        // Injection instant (scalar: `t > 0 && t % period == 0`). A
        // flip only mutates the lane's own master memory, so shared
        // lanes stay shared through it.
        if t > 0 && t.is_multiple_of(period) {
            for lane in &mut lanes {
                lane.system.inject(lane.flip);
            }
        }

        // A reference standing in for one lane costs a second node half
        // per tick and saves nothing: that lane materialises the state
        // after tick t, as a fork or a due settle check would, and runs
        // privately from here on (lanes never re-share).
        if shared == 1 {
            let lane = lanes
                .iter_mut()
                .find(|l| l.shared)
                .expect("the shared count tracks the flags");
            lane.system.adopt_environment(&reference);
            lane.shared = false;
            shared = 0;
        }

        // Advance t → t+1. The reference's node half runs first so
        // its commands gate the sharing decision, but its environment
        // steps last: a lane that diverges *this* tick adopts the
        // pre-step environment — the state after tick t, exactly what
        // the scalar trial would hold entering this step.
        if shared > 0 {
            let sensors = reference.sensors();
            let reference_cmds = reference.tick_nodes(&sensors);
            for lane in &mut lanes {
                if lane.shared {
                    let cmds = lane.system.tick_nodes(&sensors);
                    if cmds != reference_cmds {
                        lane.shared = false;
                        shared -= 1;
                        lane.system.adopt_environment(&reference);
                        lane.system.tick_plant(&sensors);
                    }
                } else {
                    let own = lane.system.sensors();
                    lane.system.tick_nodes(&own);
                    lane.system.tick_plant(&own);
                }
            }
            reference.tick_plant(&sensors);
        } else {
            // Every surviving lane is private: the reference has no
            // reader left and stops ticking.
            for lane in &mut lanes {
                let own = lane.system.sensors();
                lane.system.tick_nodes(&own);
                lane.system.tick_plant(&own);
            }
        }
    }

    retired.sort_unstable_by_key(|lane| lane.slot);
    retired
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{RunConfig, System};
    use memsim::Region;
    use simenv::TestCase;

    fn prefix_at(case: TestCase, at_ms: u64) -> Snapshot {
        let mut system = System::new(case, RunConfig::default());
        while system.time_ms() < at_ms {
            system.tick();
        }
        system.checkpoint()
    }

    /// The scalar checkpointed trial loop, verbatim (mirrors
    /// `fic::experiment::run_trial_checkpointed_lane`).
    fn scalar_lane(
        prefix: &Snapshot,
        flip: BitFlip,
        config: &BatchConfig,
    ) -> (System, Option<u64>, u64) {
        let mut system = prefix.resume();
        let period = config.injection_period_ms.max(1);
        let mut settle =
            SettleDetector::new(&system, Some(flip), period).with_analytic(config.analytic_settle);
        let mut settle_stop_ms = None;
        while system.time_ms() < config.observation_ms {
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
        (system, settle_stop_ms, settle.captures())
    }

    /// The first instant whose tick makes `flip`'s node half issue
    /// commands other than the fault-free run's, within `horizon_ms`.
    fn first_command_divergence(
        prefix: &Snapshot,
        flip: BitFlip,
        period: u64,
        horizon_ms: u64,
    ) -> Option<u64> {
        let mut clean = prefix.resume();
        let mut faulty = prefix.resume();
        while faulty.time_ms() < horizon_ms {
            let t = faulty.time_ms();
            if t > 0 && t.is_multiple_of(period) {
                faulty.inject(flip);
            }
            let (clean_sensors, faulty_sensors) = (clean.sensors(), faulty.sensors());
            let clean_cmds = clean.tick_nodes(&clean_sensors);
            let faulty_cmds = faulty.tick_nodes(&faulty_sensors);
            clean.tick_plant(&clean_sensors);
            faulty.tick_plant(&faulty_sensors);
            if clean_cmds != faulty_cmds {
                return Some(t);
            }
        }
        None
    }

    /// Asserts every retired lane matches its flip's scalar run on stop
    /// instant, captures, verdict, detections and duration.
    fn assert_lanes_match_scalar(prefix: &Snapshot, flips: &[BitFlip], config: &BatchConfig) {
        let retired = run_lockstep(prefix, flips, config);
        assert_eq!(retired.len(), flips.len());
        for (slot, &flip) in flips.iter().enumerate() {
            let (scalar, scalar_stop, scalar_captures) = scalar_lane(prefix, flip, config);
            let lane = &retired[slot];
            assert_eq!(lane.slot, slot);
            assert_eq!(lane.settle_stop_ms, scalar_stop, "flip {flip:?}");
            assert_eq!(lane.stopped_at_ms, scalar.time_ms(), "flip {flip:?}");
            assert_eq!(lane.settle_captures, scalar_captures, "flip {flip:?}");
            let batched_outcome = lane.system.clone().finish();
            let scalar_outcome = scalar.finish();
            assert_eq!(
                batched_outcome.verdict, scalar_outcome.verdict,
                "flip {flip:?}"
            );
            assert_eq!(
                batched_outcome.detections, scalar_outcome.detections,
                "flip {flip:?}"
            );
            assert_eq!(
                batched_outcome.duration_ms, scalar_outcome.duration_ms,
                "flip {flip:?}"
            );
        }
    }

    #[test]
    fn lone_and_last_sharing_lanes_match_scalar() {
        let case = TestCase::new(12_000.0, 55.0);
        let config = BatchConfig {
            observation_ms: 25_000,
            injection_period_ms: 20,
            analytic_settle: true,
        };
        let prefix = prefix_at(case, 20);
        let diverging = BitFlip::new(Region::AppRam, 5, 7);
        let dead = BitFlip::new(Region::Stack, 10, 3);
        let (stack, _) = crate::stackmodel::master_stack();
        assert_eq!(stack.classify(dead.addr), memsim::StackHit::Dead);
        assert_eq!(
            first_command_divergence(&prefix, dead, 20, config.observation_ms),
            None,
            "the dead-cell flip must never diverge"
        );
        let diverges_at = first_command_divergence(&prefix, diverging, 20, config.observation_ms)
            .expect("the signal flip must diverge");
        assert!(
            diverges_at <= 40,
            "the signal flip diverges at {diverges_at} ms"
        );

        // One lane: the scalar loop, no reference. Two lanes: the
        // reference stands in for both until the signal lane forks,
        // then the dead-cell lane takes its environment over.
        assert_lanes_match_scalar(&prefix, &[diverging], &config);
        assert_lanes_match_scalar(&prefix, &[dead], &config);
        assert_lanes_match_scalar(&prefix, &[diverging, dead], &config);
        assert_lanes_match_scalar(&prefix, &[dead, diverging], &config);
    }

    #[test]
    fn split_tick_equals_combined_tick() {
        let case = TestCase::new(12_000.0, 55.0);
        let mut whole = System::new(case, RunConfig::default());
        let mut split = System::new(case, RunConfig::default());
        for t in 0..3_000u64 {
            if t == 500 {
                let flip = BitFlip::new(Region::AppRam, 4, 7);
                whole.inject(flip);
                split.inject(flip);
            }
            whole.tick();
            let sensors = split.sensors();
            let cmds = split.tick_nodes(&sensors);
            split.tick_plant(&sensors);
            assert_eq!(split.valve_commands_pu(), cmds);
            assert_eq!(whole.time_ms(), split.time_ms());
            assert_eq!(whole.valve_commands_pu(), split.valve_commands_pu());
            assert_eq!(
                whole.plant_state().distance_m.to_bits(),
                split.plant_state().distance_m.to_bits()
            );
            assert_eq!(
                whole.plant_state().pressure_master_bar.to_bits(),
                split.plant_state().pressure_master_bar.to_bits()
            );
        }
    }

    #[test]
    fn adopted_environment_matches_identical_history() {
        // Two systems with identical command histories: adopting one's
        // environment into the other must be a no-op observably.
        let case = TestCase::new(8_000.0, 40.0);
        let mut a = System::new(case, RunConfig::default());
        let mut b = System::new(case, RunConfig::default());
        for _ in 0..2_000 {
            a.tick();
            b.tick();
        }
        let before = b.plant_state();
        b.adopt_environment(&a);
        let after = b.plant_state();
        assert_eq!(before.distance_m.to_bits(), after.distance_m.to_bits());
        assert_eq!(before.velocity_ms.to_bits(), after.velocity_ms.to_bits());
        assert_eq!(before.arrested, after.arrested);
    }

    #[test]
    fn lockstep_matches_scalar_lane_by_lane() {
        let case = TestCase::new(12_000.0, 55.0);
        let config = BatchConfig {
            observation_ms: 4_000,
            injection_period_ms: 20,
            analytic_settle: false,
        };
        let prefix = prefix_at(case, 20);
        // A spread of behaviours: an aggressive monitored-signal flip
        // (commands diverge fast), a low-bit flip (often benign), a
        // stack flip (may hang the node), and a dead cell.
        let flips = [
            BitFlip::new(Region::AppRam, 5, 7),
            BitFlip::new(Region::AppRam, 8, 0),
            BitFlip::new(Region::Stack, memsim::STACK_BYTES - 4, 0),
            BitFlip::new(Region::Stack, 10, 3),
        ];
        assert_lanes_match_scalar(&prefix, &flips, &config);
    }

    #[test]
    fn screaming_ea6_logs_one_first_detection_per_mechanism_on_every_path() {
        // An `mscnt` MSB flip re-injected every 20 ms makes EA6 violate
        // over and over; the log must still hold one event per fired
        // mechanism, identical on the replay, scalar and batched paths.
        let case = TestCase::new(12_000.0, 55.0);
        let run_config = RunConfig::default();
        let config = BatchConfig {
            observation_ms: run_config.observation_ms,
            injection_period_ms: 20,
            analytic_settle: true,
        };
        let prefix = prefix_at(case, 20);
        let mscnt = prefix.resume().master().signals().mscnt.addr();
        let flip = BitFlip::new(Region::AppRam, mscnt + 1, 7);

        let mut replay = System::new(case, run_config);
        while replay.time_ms() < config.observation_ms {
            let t = replay.time_ms();
            if t > 0 && t.is_multiple_of(config.injection_period_ms) {
                replay.inject(flip);
            }
            replay.tick();
        }
        let ea6 = ea_core::MonitorId(crate::detectors::EaId::Ea6.index());
        assert!(replay.master().detectors().bank().monitor(ea6).violations() > 100);
        let replay = replay.finish().detections;

        let (scalar, ..) = scalar_lane(&prefix, flip, &config);
        let scalar = scalar.finish().detections;
        let batched = run_lockstep(&prefix, &[flip], &config)
            .remove(0)
            .system
            .finish()
            .detections;

        let mut fired: Vec<_> = replay.iter().map(|e| e.monitor).collect();
        assert!(fired.contains(&ea6));
        fired.sort_unstable();
        fired.dedup();
        assert_eq!(fired.len(), replay.len(), "one event per mechanism");
        assert_eq!(scalar, replay);
        assert_eq!(batched, replay);
    }

    #[test]
    fn empty_batch_is_empty() {
        let prefix = prefix_at(TestCase::new(12_000.0, 55.0), 20);
        let config = BatchConfig {
            observation_ms: 1_000,
            injection_period_ms: 20,
            analytic_settle: false,
        };
        assert!(run_lockstep(&prefix, &[], &config).is_empty());
    }

    #[test]
    #[should_panic(expected = "per-tick traces")]
    fn rejects_traced_prefixes() {
        let config = RunConfig {
            trace: true,
            ..RunConfig::default()
        };
        let mut system = System::new(TestCase::new(12_000.0, 55.0), config);
        for _ in 0..20 {
            system.tick();
        }
        let prefix = system.checkpoint();
        run_lockstep(
            &prefix,
            &[BitFlip::new(Region::AppRam, 5, 7)],
            &BatchConfig {
                observation_ms: 1_000,
                injection_period_ms: 20,
                analytic_settle: false,
            },
        );
    }

    #[test]
    fn lockstep_matches_scalar_with_analytic_settle() {
        // Full-window lanes so the analytic band actually fires: the
        // batched and scalar paths must agree on the earlier stop too.
        let case = TestCase::new(12_000.0, 55.0);
        let config = BatchConfig {
            observation_ms: 25_000,
            injection_period_ms: 20,
            analytic_settle: true,
        };
        let prefix = prefix_at(case, 20);
        let flips = [
            BitFlip::new(Region::AppRam, 8, 0),
            BitFlip::new(Region::Stack, 10, 3),
        ];
        assert_lanes_match_scalar(&prefix, &flips, &config);
    }
}
