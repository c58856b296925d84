//! Experiment readouts: time-series capture of plant states.
//!
//! "All input to and output from the environment simulator is stored as
//! experiment readouts and is subsequently analysed for system failure"
//! (paper Section 3.3). Full 1 kHz capture of a 40 s run is 40 000
//! samples; campaigns use a decimated capture or none at all, while
//! figure generation records densely.

use serde::{Deserialize, Serialize};

use crate::plant::PlantState;

/// A decimating recorder of [`PlantState`] samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Readout {
    every_ms: u64,
    samples: Vec<PlantState>,
}

impl Readout {
    /// Records one sample every `every_ms` milliseconds (0 disables
    /// capture entirely).
    pub fn new(every_ms: u64) -> Self {
        Readout {
            every_ms,
            samples: Vec::new(),
        }
    }

    /// Offers a state; it is stored if it falls on the capture grid.
    pub fn offer(&mut self, state: &PlantState) {
        if self.every_ms != 0 && state.time_ms.is_multiple_of(self.every_ms) {
            self.samples.push(*state);
        }
    }

    /// The captured samples in time order.
    pub fn samples(&self) -> &[PlantState] {
        &self.samples
    }

    /// The capture decimation, ms (0 = capture disabled).
    pub const fn every_ms(&self) -> u64 {
        self.every_ms
    }

    /// Renders a CSV with a header row (used by the figure binaries).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "time_ms,distance_m,velocity_ms,retardation_ms2,cable_force_n,pressure_master_bar,pressure_slave_bar,arrested\n",
        );
        for s in &self.samples {
            out.push_str(&format!(
                "{},{:.3},{:.3},{:.3},{:.1},{:.2},{:.2},{}\n",
                s.time_ms,
                s.distance_m,
                s.velocity_ms,
                s.retardation_ms2,
                s.cable_force_n,
                s.pressure_master_bar,
                s.pressure_slave_bar,
                u8::from(s.arrested),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plant::Plant;
    use crate::testcase::TestCase;

    #[test]
    fn decimation() {
        let mut plant = Plant::new(TestCase::new(10_000.0, 50.0));
        let mut readout = Readout::new(100);
        for _ in 0..1_000 {
            let state = plant.step(20.0, 20.0);
            readout.offer(&state);
        }
        assert_eq!(readout.samples().len(), 10);
        assert_eq!(readout.samples()[0].time_ms, 100);
        assert_eq!(readout.samples()[9].time_ms, 1_000);
    }

    #[test]
    fn zero_period_disables() {
        let mut plant = Plant::new(TestCase::new(10_000.0, 50.0));
        let mut readout = Readout::new(0);
        for _ in 0..100 {
            let state = plant.step(20.0, 20.0);
            readout.offer(&state);
        }
        assert!(readout.samples().is_empty());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut plant = Plant::new(TestCase::new(10_000.0, 50.0));
        let mut readout = Readout::new(1);
        for _ in 0..3 {
            let state = plant.step(20.0, 20.0);
            readout.offer(&state);
        }
        let csv = readout.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("time_ms,"));
        assert!(lines[1].starts_with("1,"));
    }
}
