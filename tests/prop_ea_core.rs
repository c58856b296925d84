//! Property-based tests on the assertion algebra of ea-core.
//!
//! Invariants exercised:
//! * legal trajectories (generated to satisfy the parameters) never fire;
//! * out-of-range samples always fire with the right violation kind;
//! * wrap-around arithmetic agrees with modular arithmetic on the circle;
//! * discrete walks along the transition graph never fire, jumps off the
//!   graph always do;
//! * recovery always commits a value acceptable to the parameters;
//! * the statistics estimators stay inside [0, 1] and contain the point
//!   estimate.

use ea_repro::ea_core::{self, prelude::*};
use proptest::prelude::*;

/// Strategy for a valid continuous-random parameter set plus a legal
/// trajectory through it.
fn random_cont_params() -> impl Strategy<Value = ContinuousParams> {
    (
        -1000i64..1000,
        1i64..2000,
        0i64..10,
        0i64..50,
        0i64..10,
        0i64..50,
        any::<bool>(),
    )
        .prop_map(|(smin, span, imin, iextra, dmin, dextra, wrap)| {
            let builder = ContinuousParams::builder(smin, smin + span)
                .increase_rate(imin, imin + iextra + 1)
                .decrease_rate(dmin, dmin + dextra + 1);
            let builder = if wrap {
                builder.wrap_allowed()
            } else {
                builder
            };
            builder.build().expect("constructed within table 1 limits")
        })
}

proptest! {
    #[test]
    fn in_range_first_sample_never_fires(params in random_cont_params(), frac in 0.0f64..=1.0) {
        let value = params.smin()
            + ((params.span() as f64) * frac) as i64;
        prop_assert!(ea_core::assert_cont::check(&params, None, value).is_ok());
    }

    #[test]
    fn out_of_range_always_fires(params in random_cont_params(), excess in 1i64..100_000) {
        let above = params.smax() + excess;
        let below = params.smin() - excess;
        let v_above = ea_core::assert_cont::check(&params, None, above).unwrap_err();
        prop_assert_eq!(v_above.kind(), ViolationKind::AboveMaximum);
        let v_below = ea_core::assert_cont::check(&params, None, below).unwrap_err();
        prop_assert_eq!(v_below.kind(), ViolationKind::BelowMinimum);
    }

    #[test]
    fn legal_increase_passes(params in random_cont_params(), prev_frac in 0.0f64..=1.0, step_frac in 0.0f64..=1.0) {
        let incr = params.increase();
        let delta = incr.min() + ((incr.max() - incr.min()) as f64 * step_frac) as i64;
        let prev = params.smin() + ((params.span() as f64) * prev_frac) as i64;
        let current = prev + delta;
        prop_assume!(delta > 0);
        prop_assume!(current <= params.smax());
        prop_assert!(ea_core::assert_cont::check(&params, Some(prev), current).is_ok());
    }

    #[test]
    fn legal_decrease_passes(params in random_cont_params(), prev_frac in 0.0f64..=1.0, step_frac in 0.0f64..=1.0) {
        let decr = params.decrease();
        let delta = decr.min() + ((decr.max() - decr.min()) as f64 * step_frac) as i64;
        let prev = params.smin() + ((params.span() as f64) * prev_frac) as i64;
        let current = prev - delta;
        prop_assume!(delta > 0);
        prop_assume!(current >= params.smin());
        prop_assert!(ea_core::assert_cont::check(&params, Some(prev), current).is_ok());
    }

    #[test]
    fn too_fast_increase_fires(params in random_cont_params(), prev_frac in 0.0f64..=1.0, excess in 1i64..1000) {
        let prev = params.smin() + ((params.span() as f64) * prev_frac) as i64;
        let current = prev + params.increase().max() + excess;
        prop_assume!(current <= params.smax());
        // Unless wrap-around happens to legalise it as a decrease, this
        // must fire; with wrap enabled it may legally pass, so only
        // assert for the non-wrapping case.
        if !params.wrap().is_allowed() {
            let v = ea_core::assert_cont::check(&params, Some(prev), current).unwrap_err();
            prop_assert_eq!(v.kind(), ViolationKind::IncreaseRate);
        }
    }

    #[test]
    fn wrap_agrees_with_circle_arithmetic(
        period in 10i64..5000,
        prev_off in 0i64..5000,
        step in 1i64..100,
    ) {
        // A circular counter over [0, period] (smax identified with smin)
        // advancing by `step` each test, with band exactly [step, step].
        // A step of a full period aliases to "unchanged", which Table 2
        // rightly treats as a stuck signal — exclude it.
        prop_assume!(step < period);
        let prev = prev_off % period;
        let params = ContinuousParams::builder(0, period)
            .increase_rate(step, step)
            .wrap_allowed()
            .build()
            .unwrap();
        let current = (prev + step) % period;
        let result = ea_core::assert_cont::check(&params, Some(prev), current);
        prop_assert!(result.is_ok(), "prev={prev} current={current} period={period} step={step}: {result:?}");
    }

    #[test]
    fn wrap_with_wrong_step_fires(
        period in 10i64..5000,
        prev_off in 0i64..5000,
        step in 1i64..100,
        error in 1i64..50,
    ) {
        let prev = prev_off % period;
        let params = ContinuousParams::builder(0, period)
            .increase_rate(step, step)
            .wrap_allowed()
            .build()
            .unwrap();
        let wrong = (prev + step + error) % period;
        prop_assume!(step + error < period); // otherwise it aliases a legal step
        prop_assume!(wrong != prev); // unchanged is a different test family
        let result = ea_core::assert_cont::check(&params, Some(prev), wrong);
        prop_assert!(result.is_err(), "prev={prev} wrong={wrong}");
    }

    #[test]
    fn monitor_recovery_keeps_history_in_range(
        params in random_cont_params(),
        samples in proptest::collection::vec(-200_000i64..200_000, 1..60),
    ) {
        let mut monitor = SignalMonitor::continuous("x", params)
            .with_recovery(RecoveryStrategy::Clamp);
        for s in samples {
            let _ = monitor.check(s);
            let committed = monitor.last_committed().unwrap();
            prop_assert!(params.in_range(committed), "committed {committed} out of range");
        }
    }

    #[test]
    fn linear_walk_never_fires(len in 2usize..20, laps in 1usize..4) {
        let order: Vec<i64> = (0..len as i64).collect();
        let params = DiscreteParams::linear(order.clone(), true).unwrap();
        let mut monitor = SignalMonitor::discrete("seq", params);
        for _ in 0..laps {
            for &v in &order {
                prop_assert!(monitor.check(v).is_ok());
            }
        }
    }

    #[test]
    fn linear_skip_fires(len in 3usize..20, skip in 2usize..10) {
        let order: Vec<i64> = (0..len as i64).collect();
        prop_assume!(skip < len);
        let params = DiscreteParams::linear(order, false).unwrap();
        let mut monitor = SignalMonitor::discrete("seq", params);
        monitor.check(0).unwrap();
        let v = monitor.check(skip as i64).unwrap_err();
        prop_assert_eq!(v.kind(), ViolationKind::IllegalTransition);
    }

    #[test]
    fn discrete_random_domain_is_the_only_constraint(
        domain in proptest::collection::btree_set(-100i64..100, 2..20),
        a_idx in 0usize..20,
        b_idx in 0usize..20,
    ) {
        let values: Vec<i64> = domain.iter().copied().collect();
        let params = DiscreteParams::random(values.clone()).unwrap();
        let a = values[a_idx % values.len()];
        let b = values[b_idx % values.len()];
        prop_assert!(ea_core::assert_disc::check(&params, Some(a), b).is_ok());
    }

    #[test]
    fn proportion_wilson_contains_estimate(nd in 0u64..500, extra in 0u64..500) {
        let ne = nd + extra;
        prop_assume!(ne > 0);
        let p = Proportion::new(nd, ne);
        let est = p.estimate().unwrap();
        let (lo, hi) = p.interval_wilson(Z_95).unwrap();
        prop_assert!(lo <= est + 1e-12);
        prop_assert!(est <= hi + 1e-12);
        prop_assert!((0.0..=1.0).contains(&lo));
        prop_assert!((0.0..=1.0).contains(&hi));
    }

    #[test]
    fn coverage_pdetect_bounded(pem in 0.0f64..=1.0, pprop in 0.0f64..=1.0, pds in 0.0f64..=1.0) {
        let model = CoverageModel::new(pem, pprop, pds).unwrap();
        let pd = model.p_detect();
        prop_assert!((0.0..=1.0).contains(&pd));
        // Pdetect can never exceed Pds.
        prop_assert!(pd <= pds + 1e-12);
    }

    #[test]
    fn latency_stats_invariants(samples in proptest::collection::vec(0u64..100_000, 1..100)) {
        let mut stats = LatencyStats::new();
        for &s in &samples {
            stats.record(s);
        }
        let min = stats.min().unwrap();
        let max = stats.max().unwrap();
        let avg = stats.average().unwrap();
        prop_assert!(min as f64 <= avg + 1e-9);
        prop_assert!(avg <= max as f64 + 1e-9);
        prop_assert_eq!(stats.count(), samples.len() as u64);
    }
}
