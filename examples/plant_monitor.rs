//! Instrumenting a multi-signal system with the eight-step process of
//! paper Section 2.3: inventory → pathways → FMECA → classification →
//! parameters → placement → detector bank.
//!
//! The system here is a simplified engine controller with four signals;
//! the process selects the critical ones and the resulting bank guards
//! a simulated run.
//!
//! ```sh
//! cargo run --example plant_monitor
//! ```

use ea_repro::ea_core::prelude::*;

fn main() -> Result<(), Error> {
    let mut process = InstrumentationProcess::new();

    // Steps 1 & 3: the signal inventory.
    process
        .register_signal("rpm", SignalRole::Input, "SPEED_S", "GOV")
        .register_signal("throttle", SignalRole::Output, "GOV", "ACT")
        .register_signal("gear", SignalRole::Internal, "SHIFT", "GOV")
        .register_signal("cabin_temp", SignalRole::Input, "HVAC_S", "HVAC");

    // Step 2: error-propagation pathways.
    process.add_pathway("rpm", "throttle")?;
    process.add_pathway("gear", "throttle")?;
    println!(
        "errors in `rpm` can reach: {:?}",
        process.influence_of("rpm")
    );

    // Step 4: FMECA scoring; cabin temperature is not service critical.
    let crit = |s, o, d| Criticality {
        severity: s,
        occurrence: o,
        detection_difficulty: d,
    };
    process.score("rpm", crit(9, 7, 8))?;
    process.score("throttle", crit(10, 6, 8))?;
    process.score("gear", crit(8, 5, 9))?;
    process.score("cabin_temp", crit(2, 4, 2))?;
    let selected = process.select_critical(200);
    println!("service-critical signals: {selected:?}");

    // Steps 5–7: classes, parameters, locations.
    let rpm = ContinuousParams::builder(0, 8_000)
        .increase_rate(0, 400)
        .decrease_rate(0, 400)
        .build()?;
    let throttle = ContinuousParams::builder(0, 1_000)
        .increase_rate(0, 80)
        .decrease_rate(0, 80)
        .build()?;
    // The gearbox: P-R-N-D-3-2-1 with neighbouring moves only.
    let gear = DiscreteParams::linear(0..7, false)?.with_self_loops();
    process.place(
        "rpm",
        ModedParams::new(0, rpm),
        "GOV",
        RecoveryStrategy::HoldPrevious,
    )?;
    process.place(
        "throttle",
        ModedParams::new(0, throttle),
        "ACT",
        RecoveryStrategy::Clamp,
    )?;
    process.place(
        "gear",
        ModedParams::new(0, gear),
        "GOV",
        RecoveryStrategy::HoldPrevious,
    )?;

    // Step 8: incorporate.
    let plan = process.finish()?;
    println!("\n{}", plan.placement_table());
    let mut bank = plan.build_bank();
    let rpm_id = bank.find("rpm").expect("placed");
    let throttle_id = bank.find("throttle").expect("placed");
    let gear_id = bank.find("gear").expect("placed");

    // Drive a healthy run, then inject three different corruptions.
    let mut t = 0;
    for step in 0i64..100 {
        t += 10;
        let rpm_v = 800 + step * 20;
        let throttle_v = 100 + step * 5;
        let gear_v = (step / 40).min(3);
        assert!(bank.observe(rpm_id, rpm_v, t).is_ok());
        assert!(bank.observe(throttle_id, throttle_v, t).is_ok());
        assert!(bank.observe(gear_id, gear_v, t).is_ok());
    }
    println!("healthy run: {} detections", bank.events().len());

    let _ = bank.observe(rpm_id, 2_780 ^ (1 << 13), t + 10); // rate violation
    let _ = bank.observe(throttle_id, 60_000, t + 10); // range violation
    let _ = bank.observe(gear_id, 6, t + 10); // skipped gears
    println!("after injections: {} detections", bank.events().len());
    for event in bank.events() {
        let name = bank.monitor(event.monitor).name();
        println!("  t={:>5} ms  {}  {}", event.at, name, event.violation);
    }
    // The log keeps each mechanism's first detection; every monitor
    // counts all of its violations.
    println!("violations per mechanism:");
    for (_, monitor) in bank.iter() {
        println!("  {:<10} {}", monitor.name(), monitor.violations());
    }
    Ok(())
}
