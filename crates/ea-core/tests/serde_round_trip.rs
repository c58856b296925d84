//! Parameter sets are plain data: they serialise, travel (e.g. as a
//! calibration file downloaded to a target), and deserialise into
//! working assertions. These tests pin the JSON round trip for every
//! parameter flavour.

use ea_core::prelude::*;

#[test]
fn continuous_params_round_trip() {
    let params = ContinuousParams::builder(-100, 8_000)
        .increase_rate(2, 40)
        .decrease_rate(0, 25)
        .wrap_allowed()
        .build()
        .unwrap();
    let json = serde_json::to_string(&params).unwrap();
    let back: ContinuousParams = serde_json::from_str(&json).unwrap();
    assert_eq!(back, params);
    assert_eq!(back.classify(), SignalClass::continuous_random());
}

#[test]
fn discrete_params_round_trip() {
    let params = DiscreteParams::non_linear([
        (1, vec![2, 4]),
        (2, vec![3, 4]),
        (3, vec![4]),
        (4, vec![5]),
        (5, vec![1]),
    ])
    .unwrap()
    .with_self_loops();
    let json = serde_json::to_string(&params).unwrap();
    let back: DiscreteParams = serde_json::from_str(&json).unwrap();
    assert_eq!(back, params);
    assert!(back.transition_allowed(4, 4));
    assert!(!back.transition_allowed(4, 1));
}

#[test]
fn moded_params_round_trip_preserves_initial_mode() {
    let tight = ContinuousParams::builder(0, 100)
        .increase_rate(0, 5)
        .decrease_rate(0, 5)
        .build()
        .unwrap();
    let wide = ContinuousParams::builder(0, 10_000)
        .increase_rate(0, 500)
        .decrease_rate(0, 500)
        .build()
        .unwrap();
    let moded = ModedParams::new(3, tight).with(9, wide);
    let json = serde_json::to_string(&moded).unwrap();
    let back: ModedParams = serde_json::from_str(&json).unwrap();
    assert_eq!(back, moded);
    assert_eq!(back.initial_mode(), 3);
    assert_eq!(back.mode_count(), 2);
}

#[test]
fn dynamic_params_round_trip() {
    let base = ContinuousParams::builder(0, 20_000)
        .increase_rate(0, 1_000)
        .decrease_rate(0, 1_000)
        .build()
        .unwrap();
    let params = DynamicParams::new(base)
        .with_increase_profile(RateProfile::new([(0, 1_000), (20_000, 50)]).unwrap());
    let json = serde_json::to_string(&params).unwrap();
    let back: DynamicParams = serde_json::from_str(&json).unwrap();
    assert_eq!(back, params);
    assert!(back.check(Some(19_000), 19_600).is_err());
}

#[test]
fn monitor_state_round_trip_resumes_history() {
    let params = ContinuousParams::builder(0, 1_000)
        .increase_rate(0, 50)
        .decrease_rate(0, 50)
        .build()
        .unwrap();
    let mut monitor = SignalMonitor::continuous("speed", params);
    monitor.check(500).unwrap();
    monitor.check(540).unwrap();
    let json = serde_json::to_string(&monitor).unwrap();
    let mut back: SignalMonitor = serde_json::from_str(&json).unwrap();
    assert_eq!(back.previous(), Some(540));
    assert_eq!(back.checks(), 2);
    // The restored monitor continues exactly where the original stopped.
    assert!(back.check(560).is_ok());
    assert!(back.check(900).is_err());
}

#[test]
fn instrumentation_plan_round_trip() {
    let plan = {
        let mut process = InstrumentationProcess::new();
        process.register_signal("v", SignalRole::Input, "S", "C");
        process.select_by_name(["v"]).unwrap();
        let params = ContinuousParams::builder(0, 10)
            .increase_rate(0, 2)
            .decrease_rate(0, 2)
            .build()
            .unwrap();
        process
            .place(
                "v",
                ModedParams::new(0, params),
                "C",
                RecoveryStrategy::Clamp,
            )
            .unwrap();
        process.finish().unwrap()
    };
    let json = serde_json::to_string(&plan).unwrap();
    let back: InstrumentationPlan = serde_json::from_str(&json).unwrap();
    assert_eq!(back, plan);
    let bank = back.build_bank();
    assert_eq!(bank.len(), 1);
}

#[test]
fn signal_class_serialises_stably() {
    for class in SignalClass::ALL {
        let json = serde_json::to_string(&class).unwrap();
        let back: SignalClass = serde_json::from_str(&json).unwrap();
        assert_eq!(back, class);
    }
}

/// The monitor's wire format: its logical fields in declaration order.
/// The pass kernel is derived state and never reaches the JSON.
const PINNED_MONITOR_JSON: &str = r#"{"name":"pressure","params":{"sets":[[1,{"Continuous":{"smin":-5,"smax":400,"incr":{"min":0,"max":30},"decr":{"min":2,"max":20},"wrap":"Allowed","class":{"Continuous":"Random"}}}],[4,{"Discrete":{"domain":[1,2,3],"transitions":[[1,[2]],[2,[3]],[3,[1]]],"class":{"Discrete":{"Sequential":"Linear"}}}}]],"initial":1},"mode":4,"previous":390,"recovery":"Clamp","checks":3,"violations":1}"#;

#[test]
fn monitor_json_is_pinned_and_rebuilds_the_kernel() {
    let cont = ContinuousParams::builder(-5, 400)
        .increase_rate(0, 30)
        .decrease_rate(2, 20)
        .wrap_allowed()
        .build()
        .unwrap();
    let disc = DiscreteParams::linear([3, 1, 2], true).unwrap();
    let moded = ModedParams::new(1, cont).with(4, disc);
    let mut monitor = SignalMonitor::new("pressure", moded).with_recovery(RecoveryStrategy::Clamp);
    monitor.check(100).unwrap();
    monitor.check(120).unwrap();
    let _ = monitor.check(390);
    monitor.set_mode(4).unwrap();
    assert_eq!(
        serde_json::to_string(&monitor).unwrap(),
        PINNED_MONITOR_JSON
    );

    let mut back: SignalMonitor = serde_json::from_str(PINNED_MONITOR_JSON).unwrap();
    assert_eq!(back, monitor);
    assert!(back.has_pass_kernel());
    // The rebuilt kernel is mode 4's, the discrete cycle 3 → 1 → 2: a
    // move from the out-of-domain 390 violates, then 2 and 3 pass.
    for sample in [1, 2, 3] {
        assert_eq!(back.check(sample), monitor.check(sample));
    }
    assert_eq!(back, monitor);
    assert_eq!(back.violations(), 2);
    assert_eq!(back.previous(), Some(3));
}

#[test]
fn monitor_with_an_unregistered_mode_does_not_deserialise() {
    let json = PINNED_MONITOR_JSON.replace(r#""mode":4"#, r#""mode":7"#);
    assert!(serde_json::from_str::<SignalMonitor>(&json).is_err());
}
