//! Property-based tests of the plant physics and the failure
//! classifier.

use ea_repro::simenv::{self, Constraints, FailureMonitor, FmaxTable, Plant, TestCase};
use proptest::prelude::*;

fn any_case() -> impl Strategy<Value = TestCase> {
    (8_000.0f64..20_000.0, 40.0f64..70.0).prop_map(|(m, v)| TestCase::new(m, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn energy_never_increases(case in any_case(), pressure in 0.0f64..200.0) {
        let mut plant = Plant::new(case);
        let mut prev_v = case.velocity_ms;
        for _ in 0..2_000 {
            let state = plant.step(pressure, pressure);
            prop_assert!(state.velocity_ms <= prev_v + 1e-9, "the cable cannot accelerate the aircraft");
            prev_v = state.velocity_ms;
        }
    }

    #[test]
    fn distance_is_monotone_and_velocity_nonnegative(case in any_case(), pressure in 0.0f64..200.0) {
        let mut plant = Plant::new(case);
        let mut prev_x = 0.0;
        for _ in 0..3_000 {
            let state = plant.step(pressure, pressure);
            prop_assert!(state.distance_m >= prev_x);
            prop_assert!(state.velocity_ms >= 0.0);
            prev_x = state.distance_m;
        }
    }

    #[test]
    fn more_pressure_stops_shorter(case in any_case()) {
        let run = |bar: f64| {
            let mut plant = Plant::new(case);
            while !plant.state().arrested && plant.state().time_ms < 120_000 {
                plant.step(bar, bar);
            }
            plant.state().distance_m
        };
        let soft = run(60.0);
        let hard = run(140.0);
        prop_assert!(hard <= soft + 1e-6, "140 bar stop {hard} vs 60 bar stop {soft}");
    }

    #[test]
    fn pulse_count_is_monotone(case in any_case()) {
        let mut plant = Plant::new(case);
        let mut prev = plant.pulse_count();
        for _ in 0..3_000 {
            plant.step(30.0, 30.0);
            let now = plant.pulse_count();
            prop_assert!(now >= prev);
            prop_assert!(now - prev <= 2, "payout speed bounds the per-ms delta");
            prev = now;
        }
    }

    #[test]
    fn fmax_table_is_monotone_in_both_axes(
        m in 8_000.0f64..20_000.0,
        v in 40.0f64..70.0,
        dm in 100.0f64..2_000.0,
        dv in 0.5f64..5.0,
    ) {
        let table = FmaxTable::specification();
        prop_assert!(table.limit_n(m + dm, v) >= table.limit_n(m, v));
        prop_assert!(table.limit_n(m, v + dv) >= table.limit_n(m, v));
    }

    #[test]
    fn verdict_failure_iff_some_cause(case in any_case(), pressure in 0.0f64..200.0) {
        let mut plant = Plant::new(case);
        let mut monitor = FailureMonitor::new();
        for _ in 0..20_000 {
            let state = plant.step(pressure, pressure);
            monitor.observe(&state);
        }
        let verdict = monitor.verdict(&Constraints::default(), case);
        prop_assert_eq!(verdict.failed(), !verdict.causes.is_empty());
        // A run that never arrested must be an overrun failure.
        if !verdict.arrested {
            prop_assert!(verdict.causes.contains(&simenv::FailureCause::Overrun));
        }
    }
}
