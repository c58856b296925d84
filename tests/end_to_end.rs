//! Cross-crate integration: the control software, the plant, the memory
//! substrate and the assertions working together.

use ea_repro::arrestor::{reach, EaId, EaSet, MasterNode, RunConfig, System};
use ea_repro::memsim::{BitFlip, Region};
use ea_repro::simenv::{TestCase, TestCaseGrid};

#[test]
fn every_envelope_corner_arrests_cleanly() {
    for case in [
        TestCase::new(8_000.0, 40.0),
        TestCase::new(8_000.0, 70.0),
        TestCase::new(20_000.0, 40.0),
        TestCase::new(20_000.0, 70.0),
    ] {
        let outcome = System::new(case, RunConfig::default()).run_to_completion();
        assert!(
            !outcome.verdict.failed(),
            "case {case:?} failed: {:?}",
            outcome.verdict
        );
        assert!(outcome.verdict.arrested);
        assert!(outcome.verdict.final_distance_m < 335.0);
        assert!(outcome.verdict.peak_retardation_g < 2.8);
        assert!(
            outcome.detections.is_empty(),
            "spurious detection in {case:?}"
        );
    }
}

#[test]
fn grid_cases_stop_distance_scales_with_energy() {
    let grid = TestCaseGrid::coarse(3);
    let mut last_corner_distance = None;
    for case in grid.cases() {
        let outcome = System::new(case, RunConfig::default()).run_to_completion();
        assert!(!outcome.verdict.failed());
        if case.mass_kg == 8_000.0 && case.velocity_ms == 40.0 {
            last_corner_distance = Some(outcome.verdict.final_distance_m);
        }
        if case.mass_kg == 20_000.0 && case.velocity_ms == 70.0 {
            let light = last_corner_distance.expect("grid order is mass-major");
            // The controller targets the same stop point for all cases,
            // but the heavy/fast case cannot stop shorter than the
            // light/slow one.
            assert!(outcome.verdict.final_distance_m >= light - 20.0);
        }
    }
}

#[test]
fn controller_and_plant_geometry_agree() {
    // Drive the plant, then ask the controller's fixed-point inverse for
    // the distance; they must agree to within a pulse of quantisation.
    let mut system = System::new(TestCase::new(12_000.0, 55.0), RunConfig::default());
    for _ in 0..5_000 {
        system.tick();
    }
    let plant_x = system.plant_state().distance_m;
    let controller_x_cm = system
        .master()
        .signals()
        .distance_cm(system.master().memory().app());
    let delta_m = (plant_x - controller_x_cm as f64 / 100.0).abs();
    assert!(
        delta_m < 0.5,
        "plant {plant_x} m vs controller {controller_x_cm} cm"
    );
}

#[test]
fn each_monitored_signal_msb_error_is_detected_by_its_own_mechanism() {
    let node = MasterNode::new(120, EaSet::ALL);
    let monitored = node.signals().monitored();
    for (k, (name, addr)) in monitored.iter().enumerate() {
        let ea = EaId::from_index(k).unwrap();
        let mut system = System::new(TestCase::new(12_000.0, 55.0), RunConfig::default());
        let flip = BitFlip::new(Region::AppRam, addr + 1, 7);
        while system.time_ms() < 15_000 {
            if system.time_ms() > 0 && system.time_ms().is_multiple_of(20) {
                system.inject(flip);
            }
            system.tick();
        }
        let outcome = system.finish();
        let own_detected = outcome.detections.iter().any(|e| e.monitor.0 == ea.index());
        assert!(own_detected, "{ea} never fired for an MSB error in {name}");
    }
}

#[test]
fn injections_into_reserved_ram_are_inert() {
    let reserved = reach::ram_span("reserved").expect("reserved block exists");
    let mut system = System::new(TestCase::new(12_000.0, 55.0), RunConfig::default());
    let flip = BitFlip::new(Region::AppRam, reserved.start + reserved.len() / 2, 4);
    while system.time_ms() < 20_000 {
        if system.time_ms() > 0 && system.time_ms().is_multiple_of(20) {
            system.inject(flip);
        }
        system.tick();
    }
    let outcome = system.finish();
    assert!(!outcome.verdict.failed());
    assert!(outcome.detections.is_empty());
}

#[test]
fn hung_master_stops_detecting_and_overruns() {
    let mut system = System::new(TestCase::new(12_000.0, 55.0), RunConfig::default());
    // Hit the interrupt context at the very top of the stack.
    let flip = BitFlip::new(Region::Stack, ea_repro::memsim::STACK_BYTES - 2, 1);
    for _ in 0..100 {
        system.tick();
    }
    system.inject(flip);
    assert!(system.master().hung());
    while system.time_ms() < 40_000 {
        system.tick();
    }
    let outcome = system.finish();
    assert!(outcome.verdict.failed());
    assert!(outcome
        .verdict
        .causes
        .contains(&ea_repro::simenv::FailureCause::Overrun));
    assert!(outcome.detections.is_empty());
}

#[test]
fn calc_halt_freezes_the_pressure_schedule() {
    let mut system = System::new(TestCase::new(12_000.0, 55.0), RunConfig::default());
    for _ in 0..2_000 {
        system.tick();
    }
    // Hit the CALC frame's control slot: base of CALC = top - ISR(32) -
    // KERNEL(24) - CALC size(52).
    let calc_control = ea_repro::memsim::STACK_BYTES - 32 - 24 - 52;
    system.inject(BitFlip::new(Region::Stack, calc_control, 0));
    assert!(system.master().calc_halted());
    let frozen = system
        .master()
        .signals()
        .set_value
        .read(system.master().memory().app());
    for _ in 0..5_000 {
        system.tick();
    }
    let later = system
        .master()
        .signals()
        .set_value
        .read(system.master().memory().app());
    assert_eq!(frozen, later, "SetValue must freeze once CALC halts");
}
