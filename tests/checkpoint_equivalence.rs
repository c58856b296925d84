//! Checkpointed trial execution must be a pure optimisation: forking
//! trials from a cached fault-free prefix and fast-forwarding settled
//! runs may change wall clock only, never a bit of any result.
//!
//! Three layers of evidence:
//!
//! * per-trial: the recurrence-only checkpointed trial
//!   ([`run_trial_checkpointed_observed_with`] with the analytic stops
//!   off) equals [`run_trial`] across error classes chosen to stress
//!   every matching rule of the settle detector (mscnt errors shift the
//!   clock, stack errors corrupt CALC locals or hang the node, signal
//!   errors perturb the plant);
//! * per-campaign: the campaign's journal, Tables 6–9, attribution and
//!   counters equal the t = 0 replay oracle of
//!   `common::assert_matches_replay`, and its tables match the committed
//!   fixtures in `tests/fixtures/` — the same files the snapshot suite
//!   pins;
//! * per-tick: a trace recorded across a snapshot/resume boundary shows
//!   zero divergence against a straight recorded run under the
//!   differential oracle of `fic::trace`.

mod common;

use std::path::PathBuf;

use common::{assert_matches_replay, Slice};
use ea_repro::arrestor::{RunConfig, System};
use ea_repro::fic::experiment::run_trial_checkpointed_observed_with;
use ea_repro::fic::{error_set, fault_free_prefix, run_trial, trace, Protocol};
use ea_repro::memsim::{BitFlip, Region, STACK_BYTES};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e})", path.display()))
}

/// The snapshot campaign of `tests/table_snapshots.rs`.
fn snapshot_protocol() -> Protocol {
    let mut protocol = Protocol::scaled(2, 1_500);
    protocol.workers = 1;
    protocol
}

#[test]
fn per_trial_equality_across_error_classes() {
    let protocol = Protocol::scaled(1, 12_000);
    let case = protocol.grid.cases()[0];
    let prefix = fault_free_prefix(&protocol, case);

    let e1 = error_set::e1();
    let mut flips: Vec<(String, BitFlip)> = [16, 32, 48, 81, 88, 96, 112]
        .iter()
        .map(|&k| (format!("S{k}"), e1[k - 1].flip))
        .collect();
    // Stack errors: a dead byte, a CALC-locals byte, and the ISR
    // context at the top (hangs the node).
    flips.push(("stack-dead".to_owned(), BitFlip::new(Region::Stack, 10, 3)));
    flips.push((
        "stack-top".to_owned(),
        BitFlip::new(Region::Stack, STACK_BYTES - 4, 0),
    ));
    for e2 in error_set::e2().iter().step_by(40) {
        flips.push((format!("E2-{}", e2.number), e2.flip));
    }

    for (label, flip) in flips {
        let slow = run_trial(&protocol, flip, case);
        let (fast, _) = run_trial_checkpointed_observed_with(&protocol, flip, case, &prefix, false);
        assert_eq!(slow, fast, "{label}: checkpointed trial diverged");
    }
}

#[test]
fn per_trial_equality_with_long_window_fast_forward() {
    // A window long past arrest (the paper case arrests well before
    // 30 s), so the settle detector genuinely fast-forwards — including
    // for mscnt errors, whose recurrence needs the clock-offset
    // matching rule.
    let protocol = Protocol::scaled(1, 30_000);
    let case = protocol.grid.cases()[0];
    let prefix = fault_free_prefix(&protocol, case);
    let e1 = error_set::e1();
    for k in [81, 96, 112] {
        let flip = e1[k - 1].flip;
        let slow = run_trial(&protocol, flip, case);
        let (fast, _) = run_trial_checkpointed_observed_with(&protocol, flip, case, &prefix, false);
        assert_eq!(slow, fast, "S{k}: fast-forwarded trial diverged");
    }
}

#[test]
fn checkpointed_tables_match_replay_and_committed_fixtures() {
    let protocol = snapshot_protocol();
    let e1 = error_set::e1().into_iter();
    let e1 = e1.filter(|e| e.signal_bit == 0 || e.signal_bit == 15);
    let e2 = error_set::e2().into_iter().step_by(25);
    for slice in [
        Slice::e1(e1.map(|e| e.number)),
        Slice::e2(e2.map(|e| e.number)),
    ] {
        let campaign = assert_matches_replay(&protocol, &slice).unwrap();
        // Every trial forks its prefix, so the campaign simulates less
        // than its trials' whole windows.
        let snapshot = campaign.snapshot;
        assert!(
            snapshot.counter("campaign.window_ms.simulated")
                < snapshot.counter("campaign.trials") * protocol.observation_ms
        );
        for (name, rendered) in campaign.tables {
            assert_eq!(
                fixture(name),
                rendered,
                "checkpointed {name} differs from the committed fixture"
            );
        }
    }
}

#[test]
fn trace_across_snapshot_boundary_shows_zero_divergence() {
    // The oracle's view of snapshot/resume: record a fault-free run
    // straight through, and another whose state was frozen mid-flight
    // and resumed from the snapshot. Bit-identical per-tick traces.
    let protocol = Protocol::scaled(1, 4_000);
    let case = protocol.grid.cases()[0];
    let straight = trace::record_reference(&protocol, case);

    let config = RunConfig {
        observation_ms: protocol.observation_ms,
        trace: true,
        ..RunConfig::default()
    };
    let mut system = System::new(case, config);
    while system.time_ms() < 1_000 {
        system.tick();
    }
    let snapshot = system.checkpoint();
    drop(system);
    let forked = snapshot.resume().run_to_completion();
    let forked_trace = forked.trace.expect("tracing was enabled");

    let diff = trace::diff(&straight, &forked_trace);
    assert!(
        !diff.diverged(),
        "snapshot/resume perturbed the simulation: {:?}",
        diff.first
    );
}
