//! A complete aircraft arrestment on the reproduced target system:
//! fault-free run first, then the same test case with an injected
//! `SetValue` MSB error, showing detection and failure classification.
//!
//! ```sh
//! cargo run --release --example arrestment_demo
//! ```

use ea_repro::arrestor::{RunConfig, System};
use ea_repro::memsim::{BitFlip, Region};
use ea_repro::simenv::TestCase;

fn main() {
    let case = TestCase::new(15_000.0, 62.0);
    println!(
        "incoming aircraft: {} kg at {} m/s ({:.1} MJ)",
        case.mass_kg,
        case.velocity_ms,
        case.kinetic_energy_j() / 1e6
    );

    // Fault-free arrestment, traced; every 500th tick is printed.
    let config = RunConfig {
        trace: true,
        ..RunConfig::default()
    };
    let outcome = System::new(case, config.clone()).run_to_completion();
    println!("\n--- fault-free run ---");
    let trace = outcome.trace.expect("a traced run returns its trace");
    let states = trace.records.iter().map(|record| record.plant);
    for state in states
        .filter(|state| state.time_ms.is_multiple_of(500))
        .take_while(|state| !state.arrested)
    {
        println!(
            "t={:>6} ms  x={:>6.1} m  v={:>5.1} m/s  P={:>5.1} bar  F={:>6.1} kN  r={:.2} g",
            state.time_ms,
            state.distance_m,
            state.velocity_ms,
            state.pressure_master_bar,
            state.cable_force_n / 1e3,
            state.retardation_ms2 / 9.80665,
        );
    }
    println!(
        "verdict: failed={}  stop at {:.1} m, peak {:.2} g / {:.0} kN, mechanisms fired: {}",
        outcome.verdict.failed(),
        outcome.verdict.final_distance_m,
        outcome.verdict.peak_retardation_g,
        outcome.verdict.peak_force_n / 1e3,
        outcome.detections.len()
    );

    // Same case, with the FIC flipping SetValue's MSB every 20 ms.
    println!("\n--- SetValue bit-15 error, injected every 20 ms ---");
    let mut system = System::new(case, config);
    let set_addr = system.master().signals().set_value.addr();
    let flip = BitFlip::new(Region::AppRam, set_addr + 1, 7);
    while system.time_ms() < 40_000 {
        let t = system.time_ms();
        if t > 0 && t.is_multiple_of(20) {
            system.inject(flip);
        }
        system.tick();
    }
    // The detection log keeps each mechanism's first detection; the
    // monitors themselves count every violation.
    let detectors = system.master().detectors();
    let violations: Vec<String> = detectors
        .bank()
        .iter()
        .filter(|(_, monitor)| monitor.violations() > 0)
        .map(|(id, monitor)| {
            format!(
                "{} ({}) x{}",
                detectors.ea_of(id),
                monitor.name(),
                monitor.violations()
            )
        })
        .collect();
    let outcome = system.finish();
    println!(
        "verdict: failed={} (causes {:?}), peak {:.2} g / {:.0} kN",
        outcome.verdict.failed(),
        outcome.verdict.causes,
        outcome.verdict.peak_retardation_g,
        outcome.verdict.peak_force_n / 1e3,
    );
    match outcome.first_detection_ms {
        Some(at) => {
            println!(
                "first detection at t={at} ms (latency {} ms after first injection)",
                at.saturating_sub(20)
            );
            println!("violations per mechanism: {}", violations.join(", "));
        }
        None => println!("no detection (unexpected for an MSB error)"),
    }
}
