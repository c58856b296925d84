//! Property tests for the attribution aggregate algebra.
//!
//! The campaign collector folds worker events in completion order,
//! the fleet server folds slice results in arrival order, and resumed
//! runs fold journaled events before live ones. All of that is only
//! sound if [`AttributionAggregate::record`] gives the same aggregate
//! whatever order the events arrive in.

use std::sync::OnceLock;

use fic::attribution::{
    AttributionAggregate, AttributionEvent, MonitoredMap, PROPAGATION_MASKED, PROPAGATION_REACHED,
    PROPAGATION_SILENT,
};
use fic::{error_set, E1Error, E2Error, Trial};
use proptest::prelude::*;

fn e1_errors() -> &'static [E1Error] {
    static ERRORS: OnceLock<Vec<E1Error>> = OnceLock::new();
    ERRORS.get_or_init(error_set::e1)
}

fn e2_errors() -> &'static [E2Error] {
    static ERRORS: OnceLock<Vec<E2Error>> = OnceLock::new();
    ERRORS.get_or_init(error_set::e2)
}

fn monitored_map() -> &'static MonitoredMap {
    static MAP: OnceLock<MonitoredMap> = OnceLock::new();
    MAP.get_or_init(MonitoredMap::new)
}

/// Compact generator output for one event: which error set and error,
/// the test case, the per-EA detection outcome, and an optional
/// differential-oracle overlay.
#[derive(Debug, Clone)]
struct EventSpec {
    e1: bool,
    error: u16,
    case: u8,
    detections: Vec<(u8, u16)>,
    failed: bool,
    oracle: Option<(u8, u16)>,
}

/// Builds a real event through the same constructors the campaign
/// collector uses, so every generated event is internally consistent.
fn build(spec: &EventSpec) -> AttributionEvent {
    let mut per_ea = [None; 7];
    for &(ea, ms) in &spec.detections {
        per_ea[ea as usize % 7] = Some(u64::from(ms));
    }
    let trial = Trial {
        failed: spec.failed,
        per_ea_first_ms: per_ea,
        first_injection_ms: 20,
        final_distance_m: 200.0,
    };
    let mut event = if spec.e1 {
        let errors = e1_errors();
        let error = &errors[spec.error as usize % errors.len()];
        AttributionEvent::for_e1(error, spec.case as usize % 4, &trial)
    } else {
        let errors = e2_errors();
        let error = &errors[spec.error as usize % errors.len()];
        AttributionEvent::for_e2(error, spec.case as usize % 4, &trial, monitored_map())
    };
    if let Some((verdict, divergence)) = spec.oracle {
        event.propagation = Some(
            [PROPAGATION_MASKED, PROPAGATION_SILENT, PROPAGATION_REACHED][verdict as usize % 3]
                .to_owned(),
        );
        if verdict % 3 != 0 {
            event.first_divergence_ms = Some(u64::from(divergence));
        }
    }
    event
}

fn spec_strategy() -> impl Strategy<Value = EventSpec> {
    (
        any::<bool>(),
        any::<u16>(),
        any::<u8>(),
        proptest::collection::vec((0u8..7, 20u16..2_000), 0..4),
        any::<bool>(),
        (any::<bool>(), any::<u8>(), 20u16..2_000),
    )
        .prop_map(|(e1, error, case, detections, failed, oracle)| EventSpec {
            e1,
            error,
            case,
            detections,
            failed,
            oracle: oracle.0.then_some((oracle.1, oracle.2)),
        })
}

fn recorded(events: &[AttributionEvent]) -> AttributionAggregate {
    let mut aggregate = AttributionAggregate::new();
    for event in events {
        aggregate.record(event);
    }
    aggregate
}

proptest! {
    /// Recording the events in any order gives the same aggregate —
    /// the worker fan-in, a resume's replay-then-live fold and the
    /// fleet server's arrival-order fold all depend on it.
    #[test]
    fn record_order_is_irrelevant(
        specs in proptest::collection::vec(spec_strategy(), 1..10),
        rotation in 0usize..10,
    ) {
        let events: Vec<AttributionEvent> = specs.iter().map(build).collect();
        let combined = recorded(&events);

        let mut rotated = events.clone();
        let split = rotation % rotated.len();
        rotated.rotate_left(split);
        prop_assert_eq!(&recorded(&rotated), &combined);

        let mut reversed = events;
        reversed.reverse();
        prop_assert_eq!(&recorded(&reversed), &combined);
    }
}
