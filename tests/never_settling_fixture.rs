//! Fixture for the settle tail the analytic bound closes.
//!
//! After arrest the valve commands decay to 0 and the pressure follows
//! `p ← p · 149/150`, taking fresh `f64` bits every millisecond — the
//! exact recurrence detector cannot fire until the decay bottoms out,
//! seconds after every output froze. Probing the whole seeded E2 set
//! at the paper's 40 s window (the ignored probe below) measures that
//! tail. With the analytic stops on, 750 of the 800 trials now stop on
//! a record-final certificate (docs/PROOFS.md), 16 on the absorbing
//! band (tails up to 3.64 s before exact recurrence) and 25 on a
//! recurrence the exact detector finds at the same instant; 9 are
//! genuinely never-final (their corrupted commands never stabilise, so
//! no sound early stop exists and both detectors correctly run to the
//! horizon). One pair the exact detector never closes, R19 case 1, now
//! stops record-final at 25.76 s: its state never recurs, but its
//! record is final. Inside any window shorter than its
//! exact-recurrence instant, a tail trial therefore runs to the
//! horizon on the recurrence-only lane (`analytic_settle = false` in
//! `run_trial_checkpointed_observed_with`; campaigns always run the
//! analytic stops) while the analytic absorbing-band proof still gives
//! it a sound early verdict.
//!
//! This file pins the worst band tail — R183 case 1, analytic stop at
//! 10 360 ms, exact recurrence at 14 000 ms — inside a 12 s window and
//! asserts the analytic stop yields the identical [`Trial`] (and
//! therefore identical journal bytes) to the horizon run, at a
//! fraction of the simulated time. Its flip hits the CLOCK frame's
//! control word, which skips CLOCK whenever it is injected, so the
//! record-final certificates never apply and the band still closes it.
//! The probe that found the pair is kept (ignored) so the fixture can
//! be re-derived if the seed, the plant model or the stop rules
//! change.

use ea_repro::fic::experiment::{fault_free_prefix, run_trial_checkpointed_observed_with};
use ea_repro::fic::{error_set, Protocol};

/// Scans the E2 set at the paper's full window, printing each trial's
/// analytic-vs-exact settle tail. Run with
/// `cargo test --release -- --ignored probe_never_settling --nocapture`.
#[test]
#[ignore = "derivation probe, not a gate; see module docs"]
fn probe_never_settling_pairs() {
    let protocol = Protocol::scaled(2, 40_000);
    let prefixes: Vec<_> = protocol
        .grid
        .cases()
        .iter()
        .map(|case| fault_free_prefix(&protocol, *case))
        .collect();
    for error in error_set::e2() {
        for (ci, case) in protocol.grid.cases().iter().enumerate() {
            let (_, exact) = run_trial_checkpointed_observed_with(
                &protocol,
                error.flip,
                *case,
                &prefixes[ci],
                false,
            );
            let (_, fast) = run_trial_checkpointed_observed_with(
                &protocol,
                error.flip,
                *case,
                &prefixes[ci],
                true,
            );
            match (exact.settle_stop_ms, fast.settle_stop_ms) {
                (None, None) => println!(
                    "R{} case {ci}: never final (commands never stabilise)",
                    error.number
                ),
                (exact_stop, Some(fast_stop)) => println!(
                    "R{} case {ci}: analytic {} ms, exact {} — tail {} ms ({})",
                    error.number,
                    fast_stop,
                    exact_stop.map_or("horizon".into(), |t| t.to_string()),
                    exact_stop.map_or(protocol.observation_ms - fast_stop, |t| t - fast_stop),
                    fast.settle_proof.map_or("record-final", |p| p.label()),
                ),
                (Some(t), None) => println!(
                    "R{} case {ci}: REGRESSION — exact stops at {t} ms, analytic never",
                    error.number
                ),
            }
        }
    }
}

/// The pinned fixture: under exact recurrence this pair simulates the
/// whole window; the analytic bound stops it early with a proof, the
/// identical trial, and strictly less simulated time.
#[test]
fn analytic_bound_closes_a_pinned_never_settling_trial() {
    // Between the pair's analytic stop (10 360 ms) and its exact
    // recurrence (14 000 ms); trajectories are window-independent, so
    // the probe's 40 s timings pin behaviour in this window exactly.
    let protocol = Protocol::scaled(2, 12_000);
    let error = error_set::e2()
        .iter()
        .find(|e| e.number == PINNED_ERROR)
        .copied()
        .expect("pinned error number exists in the seeded E2 set");
    let case = protocol.grid.cases()[PINNED_CASE];
    let prefix = fault_free_prefix(&protocol, case);

    let (exact_trial, exact) =
        run_trial_checkpointed_observed_with(&protocol, error.flip, case, &prefix, false);
    assert_eq!(
        exact.settle_stop_ms, None,
        "the pinned pair settles now — re-run the probe and re-pin"
    );

    let (fast_trial, fast) =
        run_trial_checkpointed_observed_with(&protocol, error.flip, case, &prefix, true);
    let stop = fast
        .settle_stop_ms
        .expect("the analytic bound must close this trial");
    assert_eq!(
        fast.settle_proof,
        Some(ea_repro::arrestor::SettleProof::AnalyticBand)
    );
    assert!(
        stop < protocol.observation_ms,
        "stop {stop} ms is not early in a {} ms window",
        protocol.observation_ms
    );
    assert!(fast.simulated_ms < exact.simulated_ms);

    // The verdict — and therefore the journal record derived from it —
    // is identical; only the execution shape changed.
    assert_eq!(fast_trial, exact_trial);
    assert_eq!(
        serde_json::to_string(&fast_trial).unwrap(),
        serde_json::to_string(&exact_trial).unwrap(),
        "journal bytes for the trial differ"
    );
}

/// ⟨error, case⟩ with the largest settle tail found by
/// `probe_never_settling_pairs` (3 640 ms).
const PINNED_ERROR: usize = 183;
const PINNED_CASE: usize = 1;
