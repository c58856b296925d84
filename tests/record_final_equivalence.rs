//! Differential gate for the record-final stop.
//!
//! After arrest the settle detector may stop a trial once its record —
//! failure verdict, final distance, each mechanism's first detection —
//! is proven final, long before its state recurs
//! (`arrestor::record_final`, `docs/PROOFS.md` §Record-final
//! certificates). Arrest comes seconds into a run, so the 1.5 s windows
//! of `settle_prune_equivalence` never reach it; every check here runs
//! the paper's 40 s window:
//!
//! * a seeded sample of E1 and E2 pairs, each through the checkpointed
//!   scalar loop and the lockstep batch, must equal its `run_trial`
//!   replay from t = 0;
//! * the journals, tables, attribution and trial-derived counters of
//!   E1 and E2 campaign slices must equal the t = 0 replay oracle of
//!   `common::assert_matches_replay`, with record-final stops taken;
//! * the envelope lemmas the certificates rest on are property-tested
//!   against the real `Plant::step`, `pres_s::run` and `pid_step`
//!   arithmetic;
//! * an ignored exhaustive check replays all 2 800 E1 and 5 000 E2
//!   paper pairs (CI runs it in release).

mod common;

use std::path::PathBuf;

use common::{assert_matches_replay, Slice};
use ea_repro::arrestor::control::pid_step;
use ea_repro::arrestor::modules::pres_s;
use ea_repro::arrestor::record_final::{is_value_step_pu, out_value_envelope, IS_VALUE_MAX_PU};
use ea_repro::arrestor::SignalMap;
use ea_repro::fic::experiment::{
    fault_free_prefix, run_case_batch_with, run_trial, run_trial_checkpointed_observed_with,
};
use ea_repro::fic::journal::{CampaignKind, Journal};
use ea_repro::fic::{error_set, CampaignRunner, JournalWriter, Protocol};
use ea_repro::memsim::{BitFlip, Ram, APP_RAM_BYTES};
use ea_repro::simenv::{Plant, TestCase};
use proptest::prelude::*;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ea-repro-record-final-{}-{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A 2 × 2 grid at the paper's 40 s window: every trial reaches arrest.
fn protocol() -> Protocol {
    let mut protocol = Protocol::scaled(2, 40_000);
    protocol.workers = 1; // deterministic journal append order
    protocol
}

/// `count` distinct indices below `len`, drawn by a fixed xorshift so
/// the sample is the same on every run.
fn seeded_sample(seed: u64, len: usize, count: usize) -> Vec<usize> {
    let mut state = seed;
    let mut picked = Vec::with_capacity(count);
    while picked.len() < count.min(len) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let index = (state % len as u64) as usize;
        if !picked.contains(&index) {
            picked.push(index);
        }
    }
    picked
}

/// Runs `flips` on every case of `protocol` through the checkpointed
/// scalar loop and the lockstep batch, checks both against the t = 0
/// replay, and returns how many trials stopped record-final.
fn record_final_stops_match_replay(protocol: &Protocol, flips: &[BitFlip]) -> usize {
    let mut stops = 0;
    for case in protocol.grid.cases() {
        let prefix = fault_free_prefix(protocol, case);
        let batch = run_case_batch_with(protocol, flips, case, &prefix, true);
        for (lane, &flip) in batch.iter().zip(flips) {
            let replay = run_trial(protocol, flip, case);
            let (scalar, execution) =
                run_trial_checkpointed_observed_with(protocol, flip, case, &prefix, true);
            assert_eq!(scalar, replay, "scalar trial vs replay: {flip:?}, {case:?}");
            assert_eq!(
                lane.trial, replay,
                "lockstep lane vs replay: {flip:?}, {case:?}"
            );
            assert_eq!(lane.execution, execution, "lane shape: {flip:?}, {case:?}");
            if execution.settle_stop_ms.is_some() && execution.settle_proof.is_none() {
                stops += 1;
            }
        }
    }
    stops
}

#[test]
fn sampled_e1_pairs_equal_their_replay() {
    let errors = error_set::e1();
    let flips: Vec<BitFlip> = seeded_sample(0x5eed_00e1, errors.len(), 10)
        .into_iter()
        .map(|i| errors[i].flip)
        .collect();
    let stops = record_final_stops_match_replay(&protocol(), &flips);
    assert!(stops > 0, "the sample never reached a record-final stop");
}

#[test]
fn sampled_e2_pairs_equal_their_replay() {
    let map = ea_repro::fic::InertMap::new();
    let live: Vec<BitFlip> = error_set::e2()
        .into_iter()
        .filter(|e| map.classify(e.flip).is_none())
        .map(|e| e.flip)
        .collect();
    let flips: Vec<BitFlip> = seeded_sample(0x5eed_00e2, live.len(), 10)
        .into_iter()
        .map(|i| live[i])
        .collect();
    let stops = record_final_stops_match_replay(&protocol(), &flips);
    assert!(stops > 0, "the sample never reached a record-final stop");
}

/// Checks a campaign slice against the replay oracle; the witness is
/// that some trial stopped record-final and the slice simulated fewer
/// window milliseconds than its trials' whole windows.
fn assert_slice_matches_replay(slice: &Slice) {
    let protocol = protocol();
    let snapshot = assert_matches_replay(&protocol, slice).unwrap().snapshot;
    assert!(snapshot.counter("campaign.settle.record_final.stops") > 0);
    let trials = snapshot.counter("campaign.trials");
    assert!(
        snapshot.counter("campaign.window_ms.simulated")
            < trials * (protocol.observation_ms - protocol.injection_period_ms)
    );
}

#[test]
fn e1_slice_journal_and_tables_match_the_exact_path() {
    // One error per monitored signal, mid-word bits: fired and unfired
    // mechanisms both occur at the stop.
    let errors = error_set::e1();
    let numbers = (0..7).map(|k| errors[16 * k + 9].number);
    assert_slice_matches_replay(&Slice::e1(numbers));
}

#[test]
fn e2_slice_journal_and_tables_match_the_exact_path() {
    let slice = Slice::e2(error_set::e2().iter().step_by(25).map(|e| e.number));
    assert_slice_matches_replay(&slice);
}

/// The PRES_S filter fed by the real plant: consecutive readings of
/// `IsValue` at the V_REG instants, for one command sequence.
fn filtered_readings(commands: &[(u16, u16)], hold_ms: usize) -> Vec<i64> {
    let mut plant = Plant::new(TestCase::new(12_000.0, 55.0));
    let sig = SignalMap::allocate();
    let mut ram = Ram::new(APP_RAM_BYTES);
    sig.init(&mut ram, 120);
    let mut readings = Vec::new();
    let mut t = 0usize;
    for &(master, slave) in commands {
        for _ in 0..hold_ms {
            t += 1;
            // PRES_S runs in slot 1 and V_REG reads IsValue in slot 3.
            if t % 7 == 1 {
                pres_s::run(&sig, &mut ram, plant.pressure_units_master());
            }
            if t % 7 == 3 && t > 28 {
                readings.push(i64::from(sig.is_value.read(&ram)));
            }
            plant.step(f64::from(master) / 100.0, f64::from(slave) / 100.0);
        }
    }
    readings
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 1: whatever the valve commands do — clamped, saturated or
    /// jumping every few milliseconds — the filtered reading moves by
    /// at most `is_value_step_pu` between two V_REG runs and stays in
    /// `[0, IS_VALUE_MAX_PU]`.
    #[test]
    fn is_value_steps_stay_inside_the_envelope(
        commands in proptest::collection::vec((any::<u16>(), any::<u16>()), 4..40),
        hold_ms in 1usize..400,
    ) {
        let readings = filtered_readings(&commands, hold_ms);
        let bound = is_value_step_pu();
        for pair in readings.windows(2) {
            prop_assert!((pair[1] - pair[0]).abs() <= bound, "{pair:?} > {bound}");
        }
        prop_assert!(readings.iter().all(|r| (0..=IS_VALUE_MAX_PU).contains(r)));
    }

    /// Lemma 2: under a set point held inside a hull — its target, or
    /// anywhere between the target and the target with one bit flipped,
    /// as CALC's ramp leaves it — and readings that move by at most
    /// `is_value_step_pu` per run, one in two of them possibly XORed
    /// with a flipped `IsValue` bit, the next V_REG output lies in the
    /// envelope's first range, every later pair of outputs differs by at
    /// most its step, and no output exceeds its maximum — through the
    /// real `pid_step`.
    #[test]
    fn out_value_steps_stay_inside_the_envelope(
        target in 0u16..=15_000,
        set_bit in 0u32..=12,
        reading_bit in 0u32..=12,
        previous_set in 0u16..=20_000,
        start in 0i64..=IS_VALUE_MAX_PU,
        integ in -20_000i16..=20_000,
        prev_err in any::<i16>(),
        runs in proptest::collection::vec((-1_000i64..=1_000, any::<u16>(), any::<bool>()), 2..40),
    ) {
        let bound = is_value_step_pu();
        // Bit 12 stands for "no flip" in either cell.
        let mask = |bit: u32| if bit < 12 { 1u16 << bit } else { 0 };
        let (set_mask, reading_mask) = (mask(set_bit), mask(reading_bit));
        let flipped = target ^ set_mask;
        let hull = (target.min(flipped), target.max(flipped));
        // The last V_REG run before the check, possibly mid-ramp.
        let (_, integ, prev_err) =
            pid_step(previous_set, start as u16, integ as u16, prev_err as u16);
        let envelope =
            out_value_envelope(hull, reading_mask, start as u16, integ, prev_err, bound)
                .expect("set points up to 19 095 pu have an envelope");
        let mut reading = start;
        let (mut integ, mut prev_err) = (integ, prev_err);
        let mut outputs = Vec::new();
        let mut flipped_last = false;
        for (step, pick, flip) in runs {
            reading = (reading + step.clamp(-bound, bound)).clamp(0, IS_VALUE_MAX_PU);
            let set_value = hull.0 + pick % (hull.1 - hull.0 + 1);
            // At most one of two successive runs reads a flipped value.
            flipped_last = flip && !flipped_last;
            let seen = if flipped_last { reading as u16 ^ reading_mask } else { reading as u16 };
            let (out, i, e) = pid_step(set_value, seen, integ, prev_err);
            (integ, prev_err) = (i, e);
            outputs.push(i64::from(out));
        }
        let (lo, hi) = envelope.first;
        prop_assert!(lo <= outputs[0] && outputs[0] <= hi, "{} outside {lo}..={hi}", outputs[0]);
        for pair in outputs.windows(2) {
            prop_assert!(
                (pair[1] - pair[0]).abs() <= envelope.step,
                "{pair:?} beyond {}", envelope.step
            );
        }
        prop_assert!(outputs.iter().all(|&o| o <= envelope.max), "{outputs:?} above {}", envelope.max);
    }

    /// Lemma 2 at its maximum: small set points, readings falling to
    /// zero and an integral near its clamp push the output towards
    /// `envelope.max` — it must still bound every output.
    #[test]
    fn out_value_maximum_holds_for_a_saturating_loop(
        target in 0u16..=6_000,
        start in 0i64..=1_000,
        integ in 10_000i16..=20_000,
        previous_set in 0u16..=2_000,
        moves in proptest::collection::vec(-1_000i64..=0, 2..20),
    ) {
        let bound = is_value_step_pu();
        let (_, integ, prev_err) = pid_step(previous_set, start as u16, integ as u16, 0);
        let envelope = out_value_envelope((target, target), 0, start as u16, integ, prev_err, bound)
            .expect("small set points have an envelope");
        let (mut reading, mut integ, mut prev_err) = (start, integ, prev_err);
        for step in moves {
            reading = (reading + step.max(-bound)).max(0);
            let (out, i, e) = pid_step(target, reading as u16, integ, prev_err);
            (integ, prev_err) = (i, e);
            prop_assert!(i64::from(out) <= envelope.max, "{out} above {}", envelope.max);
        }
    }

    /// Lemma 3: a valve pressure never exceeds the larger of its current
    /// value and its command (clamped to the physical range), so it
    /// stays below the largest command it will ever get.
    #[test]
    fn pressure_never_exceeds_its_commands(
        commands in proptest::collection::vec((any::<u16>(), 1usize..300), 1..30),
    ) {
        let mut plant = Plant::new(TestCase::new(12_000.0, 55.0));
        for (command, hold_ms) in commands {
            let bar = f64::from(command) / 100.0;
            let ceiling = plant.state().pressure_master_bar.max(bar.min(200.0));
            for _ in 0..hold_ms {
                let state = plant.step(bar, 0.0);
                prop_assert!(state.pressure_master_bar <= ceiling, "{} > {ceiling}", state.pressure_master_bar);
            }
        }
    }

    /// `pid_step` is non-increasing in its reading, which is what lets
    /// the envelope's first range come from the two end readings.
    #[test]
    fn pid_step_is_monotone_in_the_reading(
        set_value in any::<u16>(),
        reading in 0u16..20_000,
        integ in any::<u16>(),
        prev_err in any::<u16>(),
    ) {
        let lower = pid_step(set_value, reading, integ, prev_err).0;
        let higher = pid_step(set_value, reading + 1, integ, prev_err).0;
        prop_assert!(higher <= lower);
    }
}

/// Every paper pair, replayed from t = 0 against the default campaign.
/// Run with `cargo test --release --test record_final_equivalence --
/// --ignored` (CI's `lockstep-equivalence` job does).
#[test]
#[ignore = "exhaustive paper-grid replay; minutes in release, run in CI"]
fn every_paper_pair_equals_its_replay() {
    let mut protocol = Protocol::paper();
    protocol.workers = 0;
    let path = temp_dir("paper").join("paper.jsonl");
    let mut journal = JournalWriter::create(&path, &protocol).unwrap();
    let runner = CampaignRunner::new(protocol.clone());
    runner
        .run_e1_journaled(&error_set::e1(), &mut journal)
        .unwrap();
    runner
        .run_e2_journaled(&error_set::e2(), &mut journal)
        .unwrap();
    journal.finish().unwrap();
    let journal = Journal::load(&path).unwrap();
    assert_eq!(journal.records.len(), 2_800 + 5_000);

    let (e1, e2) = (error_set::e1(), error_set::e2());
    let cases = protocol.grid.cases();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mismatches: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (records, e1, e2, cases, protocol) =
                    (&journal.records, &e1, &e2, &cases, &protocol);
                scope.spawn(move || {
                    records
                        .iter()
                        .skip(w)
                        .step_by(workers)
                        .filter_map(|r| {
                            let flip = match r.campaign {
                                CampaignKind::E1 => e1[r.error_number - 1].flip,
                                CampaignKind::E2 => e2[r.error_number - 1].flip,
                            };
                            let replay = run_trial(protocol, flip, cases[r.case_index]);
                            (replay != r.trial).then(|| {
                                format!(
                                    "{:?} #{} case {}: campaign {:?} vs replay {replay:?}",
                                    r.campaign, r.error_number, r.case_index, r.trial
                                )
                            })
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
