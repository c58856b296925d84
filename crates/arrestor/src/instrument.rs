//! Instrumentation of the target: the paper's Table 4, executed through
//! the eight-step process of Section 2.3.
//!
//! | Signal | Producer | Consumer | Test location | Class |
//! |---|---|---|---|---|
//! | SetValue | CALC | V_REG | V_REG | Co/Ra |
//! | IsValue | PRES_S | V_REG | V_REG | Co/Ra |
//! | i | CALC | CALC | CALC | Co/Mo/Dy |
//! | pulscnt | DIST_S | CALC | DIST_S | Co/Mo/Dy |
//! | ms_slot_nbr | CLOCK | CLOCK | CLOCK | Di/Se/Li |
//! | mscnt | CLOCK | CALC | CLOCK | Co/Mo/St |
//! | OutValue | V_REG | PRES_A | PRES_A | Co/Ra |
//!
//! The parameter values are derived from the physics of the target (see
//! `consts::ea`), exactly as Section 2.3 prescribes ("sensors naturally
//! have a time constant dictating the maximum rate of change…").

use ea_core::{
    ContinuousParams, Criticality, DiscreteParams, Error, InstrumentationPlan,
    InstrumentationProcess, ModedParams, RecoveryStrategy, SignalRole,
};

use crate::consts::ea;
use crate::detectors::{Detectors, EaSet};

/// EA1: `SetValue` — continuous random, bounded by the software ceiling
/// and the CALC slew limit.
pub fn ea1_set_value() -> ContinuousParams {
    ContinuousParams::builder(0, ea::SET_VALUE_MAX)
        .increase_rate(0, ea::SET_VALUE_RATE)
        .decrease_rate(0, ea::SET_VALUE_RATE)
        .build()
        .expect("static parameters satisfy table 1")
}

/// EA2: `IsValue` — continuous random, bounded by the hydraulic slew.
pub fn ea2_is_value() -> ContinuousParams {
    ContinuousParams::builder(0, ea::IS_VALUE_MAX)
        .increase_rate(0, ea::IS_VALUE_RATE)
        .decrease_rate(0, ea::IS_VALUE_RATE)
        .build()
        .expect("static parameters satisfy table 1")
}

/// EA3: `i` — dynamically increasing monotonic counter, 0..=6.
pub fn ea3_checkpoint() -> ContinuousParams {
    ContinuousParams::builder(0, ea::I_MAX)
        .increase_rate(0, 1)
        .build()
        .expect("static parameters satisfy table 1")
}

/// EA4: `pulscnt` — dynamically increasing monotonic counter bounded by
/// the maximum payout speed.
pub fn ea4_pulscnt() -> ContinuousParams {
    ContinuousParams::builder(0, ea::PULSCNT_MAX)
        .increase_rate(0, ea::PULSCNT_RATE)
        .build()
        .expect("static parameters satisfy table 1")
}

/// EA5: `ms_slot_nbr` — linear sequential discrete signal 0→1→…→6→0,
/// strict (the slot advances every test, so a repeat is an error).
pub fn ea5_slot() -> DiscreteParams {
    DiscreteParams::linear(0..i64::from(crate::consts::slot::COUNT), true)
        .expect("at least two slots")
}

/// EA6: `mscnt` — statically increasing monotonic counter, +1 per test,
/// wrapping at the 16-bit period.
pub fn ea6_mscnt() -> ContinuousParams {
    ContinuousParams::builder(0, ea::MSCNT_PERIOD)
        .increase_rate(1, 1)
        .wrap_allowed()
        .build()
        .expect("static parameters satisfy table 1")
}

/// EA7: `OutValue` — continuous random, bounded by the regulator's
/// worst-case legal step.
pub fn ea7_out_value() -> ContinuousParams {
    ContinuousParams::builder(0, ea::OUT_VALUE_MAX)
        .increase_rate(0, ea::OUT_VALUE_RATE)
        .decrease_rate(0, ea::OUT_VALUE_RATE)
        .build()
        .expect("static parameters satisfy table 1")
}

/// Walks the Section 2.3 process for the target system and returns the
/// finished plan (the generator of the paper's Table 4), with
/// detection-only mechanisms as in the paper's experiment.
///
/// # Errors
///
/// Never in practice — the process input is static; the `Result` is the
/// process API's.
pub fn placement_plan() -> Result<InstrumentationPlan, Error> {
    placement_plan_with(RecoveryStrategy::None)
}

/// [`placement_plan`] with an explicit recovery strategy for every
/// mechanism (used by the recovery ablation).
///
/// # Errors
///
/// Never in practice — the process input is static.
pub fn placement_plan_with(recovery: RecoveryStrategy) -> Result<InstrumentationPlan, Error> {
    let mut process = InstrumentationProcess::new();

    // Steps 1 & 3: inventory (producers/consumers from Figure 5).
    process
        .register_signal("SetValue", SignalRole::Internal, "CALC", "V_REG")
        .register_signal("IsValue", SignalRole::Input, "PRES_S", "V_REG")
        .register_signal("i", SignalRole::Internal, "CALC", "CALC")
        .register_signal("pulscnt", SignalRole::Input, "DIST_S", "CALC")
        .register_signal("ms_slot_nbr", SignalRole::Internal, "CLOCK", "CLOCK")
        .register_signal("mscnt", SignalRole::Internal, "CLOCK", "CALC")
        .register_signal("OutValue", SignalRole::Output, "V_REG", "PRES_A")
        .register_signal("mass_cfg", SignalRole::Input, "PANEL", "CALC")
        .register_signal("set_target", SignalRole::Internal, "CALC", "CALC")
        .register_signal("sys_mode", SignalRole::Internal, "CALC", "CALC")
        .register_signal("link_out", SignalRole::Output, "COMM", "SLAVE");

    // Step 2: pathways along Figure 5's data flow.
    for (from, to) in [
        ("pulscnt", "i"),
        ("pulscnt", "SetValue"),
        ("mscnt", "SetValue"),
        ("mass_cfg", "SetValue"),
        ("set_target", "SetValue"),
        ("SetValue", "OutValue"),
        ("IsValue", "OutValue"),
        ("OutValue", "IsValue"),
        ("SetValue", "link_out"),
        ("sys_mode", "SetValue"),
    ] {
        process.add_pathway(from, to)?;
    }

    // Step 4: FMECA-style scoring; the seven service-critical signals
    // clear the threshold, the others do not.
    let critical = |s, o, d| Criticality {
        severity: s,
        occurrence: o,
        detection_difficulty: d,
    };
    process.score("SetValue", critical(10, 7, 8))?;
    process.score("IsValue", critical(8, 7, 7))?;
    process.score("i", critical(9, 6, 8))?;
    process.score("pulscnt", critical(10, 6, 8))?;
    process.score("ms_slot_nbr", critical(9, 5, 9))?;
    process.score("mscnt", critical(9, 5, 9))?;
    process.score("OutValue", critical(10, 7, 7))?;
    process.score("mass_cfg", critical(7, 2, 5))?;
    process.score("set_target", critical(6, 3, 4))?;
    process.score("sys_mode", critical(6, 3, 3))?;
    process.score("link_out", critical(5, 2, 4))?;
    process.select_critical(200);

    // Steps 5–7: classes are carried by the parameters; test locations
    // per Table 4.
    let single = |p: ContinuousParams| ModedParams::new(0, p);
    process.place("SetValue", single(ea1_set_value()), "V_REG", recovery)?;
    process.place("IsValue", single(ea2_is_value()), "V_REG", recovery)?;
    process.place("i", single(ea3_checkpoint()), "CALC", recovery)?;
    process.place("pulscnt", single(ea4_pulscnt()), "DIST_S", recovery)?;
    process.place(
        "ms_slot_nbr",
        ModedParams::new(0, ea5_slot()),
        "CLOCK",
        recovery,
    )?;
    process.place("mscnt", single(ea6_mscnt()), "CLOCK", recovery)?;
    process.place("OutValue", single(ea7_out_value()), "PRES_A", recovery)?;
    process.finish()
}

/// Step 8: builds the detector bank for a software version
/// (detection-only, as in the paper's experiment).
///
/// The plan places the monitors in EA1..EA7 order, so monitor `k` is
/// `EA(k+1)` — [`Detectors`] relies on that.
pub fn build_detectors(version: EaSet) -> Detectors {
    let plan = placement_plan().expect("static placement plan is valid");
    let mut detectors = Detectors::from_bank(plan.build_bank());
    detectors.set_version(version);
    detectors
}

/// Builds a bank whose mechanisms repair the signals they guard: on
/// detection the module writes the recovered value back (the recovery
/// ablation configuration).
pub fn build_detectors_with_recovery(version: EaSet, recovery: RecoveryStrategy) -> Detectors {
    let plan = placement_plan_with(recovery).expect("static placement plan is valid");
    let mut detectors = Detectors::from_bank(plan.build_bank()).with_write_back();
    detectors.set_version(version);
    detectors
}

/// Builds a bank with the continuous rate bounds scaled to
/// `rate_scale_percent` % of their derived values — the calibration
/// knob of §2.2's "the parameters may be calibrated using fault
/// injection experiments". 100 reproduces [`build_detectors`]; smaller
/// values tighten the envelope (more detections, possible false
/// positives), larger values loosen it.
///
/// Counter-signal mechanisms (EA3–EA6) keep their exact semantics: a
/// counter's legal step set does not scale.
pub fn build_detectors_scaled(version: EaSet, rate_scale_percent: u16) -> Detectors {
    let scale = |rate: i64| (rate * i64::from(rate_scale_percent) / 100).max(1);
    let cont = |max: i64, rate: i64| {
        ContinuousParams::builder(0, max)
            .increase_rate(0, scale(rate))
            .decrease_rate(0, scale(rate))
            .build()
            .expect("scaled parameters stay valid")
    };
    let mut bank = ea_core::DetectorBank::new();
    bank.add(ea_core::SignalMonitor::continuous(
        "SetValue",
        cont(ea::SET_VALUE_MAX, ea::SET_VALUE_RATE),
    ));
    bank.add(ea_core::SignalMonitor::continuous(
        "IsValue",
        cont(ea::IS_VALUE_MAX, ea::IS_VALUE_RATE),
    ));
    bank.add(ea_core::SignalMonitor::continuous("i", ea3_checkpoint()));
    bank.add(ea_core::SignalMonitor::continuous("pulscnt", ea4_pulscnt()));
    bank.add(ea_core::SignalMonitor::discrete("ms_slot_nbr", ea5_slot()));
    bank.add(ea_core::SignalMonitor::continuous("mscnt", ea6_mscnt()));
    bank.add(ea_core::SignalMonitor::continuous(
        "OutValue",
        cont(ea::OUT_VALUE_MAX, ea::OUT_VALUE_RATE),
    ));
    let mut detectors = Detectors::from_bank(bank);
    detectors.set_version(version);
    detectors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::EaId;
    use ea_core::SignalClass;

    #[test]
    fn classes_match_table4() {
        assert_eq!(ea1_set_value().classify(), SignalClass::continuous_random());
        assert_eq!(ea2_is_value().classify(), SignalClass::continuous_random());
        assert_eq!(
            ea3_checkpoint().classify(),
            SignalClass::continuous_dynamic_monotonic()
        );
        assert_eq!(
            ea4_pulscnt().classify(),
            SignalClass::continuous_dynamic_monotonic()
        );
        assert_eq!(ea5_slot().classify(), SignalClass::discrete_linear());
        assert_eq!(
            ea6_mscnt().classify(),
            SignalClass::continuous_static_monotonic()
        );
        assert_eq!(ea7_out_value().classify(), SignalClass::continuous_random());
    }

    #[test]
    fn plan_places_exactly_the_seven_signals_in_ea_order() {
        let plan = placement_plan().unwrap();
        let names: Vec<_> = plan
            .placements()
            .iter()
            .map(|p| p.signal.name.as_str())
            .collect();
        assert_eq!(
            names,
            vec![
                "SetValue",
                "IsValue",
                "i",
                "pulscnt",
                "ms_slot_nbr",
                "mscnt",
                "OutValue"
            ]
        );
        for (k, placement) in plan.placements().iter().enumerate() {
            let ea = EaId::from_index(k).unwrap();
            assert_eq!(placement.signal.name, ea.signal_name());
            assert_eq!(placement.test_location, ea.test_location());
        }
    }

    #[test]
    fn placement_table_renders_table4_classes() {
        let table = placement_plan().unwrap().placement_table();
        assert!(table.contains("SetValue | CALC | V_REG | V_REG | Co/Ra"));
        assert!(table.contains("ms_slot_nbr | CLOCK | CLOCK | CLOCK | Di/Se/Li"));
        assert!(table.contains("mscnt | CLOCK | CALC | CLOCK | Co/Mo/St"));
        assert!(table.contains("pulscnt | DIST_S | CALC | DIST_S | Co/Mo/Dy"));
    }

    #[test]
    fn slot_counter_rejects_repeats_and_skips() {
        let params = ea5_slot();
        assert!(params.transition_allowed(3, 4));
        assert!(params.transition_allowed(6, 0));
        assert!(!params.transition_allowed(3, 3));
        assert!(!params.transition_allowed(3, 5));
    }

    #[test]
    fn build_detectors_honours_version() {
        let detectors = build_detectors(EaSet::only(EaId::Ea4));
        let bank = detectors.bank();
        assert!(bank.is_enabled(ea_core::MonitorId(EaId::Ea4.index())));
        assert!(!bank.is_enabled(ea_core::MonitorId(EaId::Ea1.index())));
    }

    #[test]
    fn detection_only_banks_log_but_do_not_repair() {
        let mut detectors = build_detectors(EaSet::ALL);
        detectors.check(EaId::Ea6, 100, 1);
        detectors.check(EaId::Ea6, 500, 2); // Δ ≠ 1: violation
        assert_eq!(detectors.events().len(), 1);
        assert_eq!(detectors.ea_of(detectors.events()[0].monitor), EaId::Ea6);
        // History committed the corrupt value (no recovery): +1 passes.
        detectors.check(EaId::Ea6, 501, 3);
        let ea6 = ea_core::MonitorId(EaId::Ea6.index());
        assert_eq!(detectors.bank().monitor(ea6).violations(), 1);
    }
}
