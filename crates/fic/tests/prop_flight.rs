//! Property tests for the fleet flight recorder's fold algebra.
//!
//! The flight log must obey the same contract as every other fleet
//! fan-in (telemetry merge, the report and attribution fold): the
//! canonical artefact is a pure function of the *set* of recorded
//! transitions, never of the interleaving in which connection threads
//! observed them. Otherwise two runs of the same fleet could ship
//! different `flight_log.json` bytes and the observer-equivalence gate
//! would flicker.

use fic::fleet::{FlightLog, SpanEvent, SpanKind};
use proptest::prelude::*;

/// An arbitrary transition: small domains so collisions (same slice,
/// same millisecond, same kind) actually happen and exercise the
/// canonical tie-break.
fn event_strategy() -> impl Strategy<Value = SpanEvent> {
    const KINDS: [SpanKind; 7] = [
        SpanKind::Enqueued,
        SpanKind::Leased,
        SpanKind::HeartbeatExtended,
        SpanKind::Reassigned,
        SpanKind::Submitted,
        SpanKind::Folded,
        SpanKind::Deduped,
    ];
    const CAMPAIGNS: [&str; 3] = ["e1", "e2", "wire"];
    (0u64..50, 0usize..3, 0u64..6, 0usize..7, 0u64..4).prop_map(
        |(at_ms, campaign, slice_id, kind, worker)| SpanEvent {
            at_ms,
            campaign: CAMPAIGNS[campaign].to_owned(),
            slice_id,
            kind: KINDS[kind],
            worker: (worker > 0).then_some(worker),
        },
    )
}

proptest! {
    /// Any permutation of the recorded events folds to the same
    /// canonical log — and therefore the same JSON bytes and the same
    /// Chrome trace.
    #[test]
    fn log_is_permutation_invariant(
        events in proptest::collection::vec(event_strategy(), 0..40),
        seed in 0u64..10_000,
    ) {
        let reference = FlightLog::from_events(events.clone());
        reference.validate().expect("canonical log validates");

        // A deterministic shuffle driven by the seed.
        let mut shuffled = events;
        let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
        for k in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            shuffled.swap(k, (state as usize) % (k + 1));
        }
        let permuted = FlightLog::from_events(shuffled);

        prop_assert_eq!(&permuted, &reference);
        prop_assert_eq!(
            serde_json::to_string_pretty(&permuted).unwrap(),
            serde_json::to_string_pretty(&reference).unwrap()
        );
        prop_assert_eq!(
            serde_json::to_string(&permuted.to_chrome_trace()).unwrap(),
            serde_json::to_string(&reference.to_chrome_trace()).unwrap()
        );
    }

    /// Per-campaign restriction commutes with folding: filtering the
    /// fleet-wide log equals folding that campaign's events alone.
    #[test]
    fn campaign_filter_commutes_with_the_fold(
        events in proptest::collection::vec(event_strategy(), 0..40),
    ) {
        let fleet = FlightLog::from_events(events.clone());
        for campaign in ["e1", "e2", "wire"] {
            let direct = fleet.for_campaign(campaign);
            let rebuilt = FlightLog::from_events(
                events
                    .iter()
                    .filter(|e| e.campaign == campaign)
                    .cloned()
                    .collect(),
            );
            prop_assert_eq!(direct, rebuilt);
        }
    }
}
