//! Lane-invariance properties of the lockstep batch executor.
//!
//! The soundness story of `arrestor::batch` is that lanes never
//! interact: each lane's observable evolution is a pure function of
//! (prefix, its own flip, the trial-loop schedule). Three consequences
//! are directly testable and together pin the claim:
//!
//! * **remove-one invariance** — deleting a lane from a batch (which
//!   is what early retirement does, continuously) never changes any
//!   surviving lane's outcome;
//! * **lane-order invariance** — permuting the flip slice permutes the
//!   slots and nothing else;
//! * **split-point invariance** — cutting one batch into consecutive
//!   sub-batches (as the campaign's fixed lane cap does) changes no
//!   outcome.
//!
//! Flips are drawn pseudo-randomly from the full RAM + stack
//! coordinate space; a failure prints the generating inputs.

use arrestor::batch::{run_lockstep, BatchConfig, RetiredLane};
use arrestor::{RunConfig, Snapshot, System};
use memsim::{BitFlip, Region};
use proptest::prelude::*;
use simenv::TestCase;

const OBSERVATION_MS: u64 = 2_500;
const INJECTION_PERIOD_MS: u64 = 20;

fn config() -> BatchConfig {
    BatchConfig {
        observation_ms: OBSERVATION_MS,
        injection_period_ms: INJECTION_PERIOD_MS,
        analytic_settle: false,
    }
}

fn prefix(case: TestCase) -> Snapshot {
    let mut system = System::new(case, RunConfig::default());
    while system.time_ms() < INJECTION_PERIOD_MS.min(OBSERVATION_MS) {
        system.tick();
    }
    system.checkpoint()
}

/// A deterministic flip from one 64-bit lane seed: region, address and
/// bit all derived by splitmix-style mixing.
fn flip_from_seed(seed: u64) -> BitFlip {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    };
    let (region, span) = if next() % 2 == 0 {
        (Region::AppRam, memsim::APP_RAM_BYTES)
    } else {
        (Region::Stack, memsim::STACK_BYTES)
    };
    let addr = (next() % span as u64) as usize;
    let bit = (next() % 8) as u8;
    BitFlip::new(region, addr, bit)
}

fn case_from_seed(seed: u64) -> TestCase {
    // The paper's grid spans 8–20 t and 40–70 m/s.
    let mass = 8_000.0 + f64::from((seed % 7) as u32) * 2_000.0;
    let speed = 40.0 + f64::from(((seed / 7) % 7) as u32) * 5.0;
    TestCase::new(mass, speed)
}

/// Everything observable about one retired lane, minus the slot.
#[derive(Debug, PartialEq)]
struct LaneOutcome {
    stopped_at_ms: u64,
    settle_stop_ms: Option<u64>,
    settle_captures: u64,
    verdict_failed: bool,
    final_distance_bits: u64,
    detections: Vec<(usize, u64)>,
}

fn outcome(lane: &RetiredLane) -> LaneOutcome {
    let run = lane.system.clone().finish();
    LaneOutcome {
        stopped_at_ms: lane.stopped_at_ms,
        settle_stop_ms: lane.settle_stop_ms,
        settle_captures: lane.settle_captures,
        verdict_failed: run.verdict.failed(),
        final_distance_bits: run.verdict.final_distance_m.to_bits(),
        detections: run.detections.iter().map(|e| (e.monitor.0, e.at)).collect(),
    }
}

proptest! {
    #[test]
    fn removing_one_lane_never_perturbs_survivors(seed: u64, drop_at: u64) {
        let case = case_from_seed(seed);
        let snapshot = prefix(case);
        let flips: Vec<BitFlip> = (0..6).map(|i| flip_from_seed(seed ^ (i * 0x5151_5151))).collect();
        let full = run_lockstep(&snapshot, &flips, &config());

        let dropped = (drop_at % flips.len() as u64) as usize;
        let mut remaining = flips.clone();
        remaining.remove(dropped);
        let reduced = run_lockstep(&snapshot, &remaining, &config());

        prop_assert_eq!(reduced.len(), remaining.len());
        for (i, lane) in reduced.iter().enumerate() {
            let original = if i < dropped { i } else { i + 1 };
            prop_assert_eq!(
                outcome(lane),
                outcome(&full[original]),
                "lane {} (flip {:?}) changed when lane {} was removed",
                original,
                remaining[i],
                dropped
            );
        }
    }

    #[test]
    fn lane_order_does_not_change_outcomes(seed: u64) {
        let case = case_from_seed(seed);
        let snapshot = prefix(case);
        let flips: Vec<BitFlip> = (0..5).map(|i| flip_from_seed(seed ^ (i * 0xABCD))).collect();
        let forward = run_lockstep(&snapshot, &flips, &config());

        let reversed_flips: Vec<BitFlip> = flips.iter().rev().copied().collect();
        let reversed = run_lockstep(&snapshot, &reversed_flips, &config());

        for (slot, lane) in reversed.iter().enumerate() {
            let original = flips.len() - 1 - slot;
            prop_assert_eq!(lane.slot, slot);
            prop_assert_eq!(
                outcome(lane),
                outcome(&forward[original]),
                "flip {:?} changed outcome under permutation",
                reversed_flips[slot]
            );
        }
    }

    #[test]
    fn split_points_do_not_change_outcomes(seed: u64, cut_at: u64) {
        let case = case_from_seed(seed);
        let snapshot = prefix(case);
        let flips: Vec<BitFlip> = (0..6).map(|i| flip_from_seed(seed ^ (i * 0x77))).collect();
        let whole = run_lockstep(&snapshot, &flips, &config());

        let cut = 1 + (cut_at % (flips.len() as u64 - 1)) as usize;
        let (left, right) = flips.split_at(cut);
        let mut split: Vec<RetiredLane> = run_lockstep(&snapshot, left, &config());
        split.extend(run_lockstep(&snapshot, right, &config()));

        prop_assert_eq!(split.len(), whole.len());
        for (i, lane) in split.iter().enumerate() {
            prop_assert_eq!(
                outcome(lane),
                outcome(&whole[i]),
                "flip {:?} changed outcome across split at {}",
                flips[i],
                cut
            );
        }
    }
}
