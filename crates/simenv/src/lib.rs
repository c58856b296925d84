//! Environment simulator for the aircraft-arresting target system.
//!
//! The paper's experiments ran against a real implementation whose
//! *environment* — the barrier (cable and tape drums) and the incoming
//! aircraft — was simulated and fed the target sensory data (rotation
//! sensor, pressure sensors) while consuming its actuator output
//! (pressure valves). This crate is that environment simulator:
//!
//! * [`Plant`] — continuous-time dynamics integrated at 1 ms: point-mass
//!   aircraft, cable payout geometry, hydraulic valve lag, brake tension;
//! * [`spec`] — all physical constants (BAK-12-style plausible values);
//! * [`TestCase`] / [`TestCaseGrid`] — the paper's mass/velocity
//!   envelope: 25 cases per error, v ∈ \[40, 70\] m/s, m ∈ \[8000, 20000\] kg;
//! * [`failure`] — the pessimistic failure classification of Section 3.3:
//!   retardation `r < 2.8 g`, retardation force `Fret < Fmax(m, v)`
//!   (bilinear interpolation over a specification table), stopping
//!   distance `d < 335 m`.
//!
//! A run's plant states are recorded by the target system's per-tick
//! trace (`arrestor::trace::Trace`, one `PlantState` per tick).
//!
//! # Example
//!
//! ```
//! use simenv::{Plant, TestCase};
//!
//! let mut plant = Plant::new(TestCase::new(12_000.0, 55.0));
//! // Command 50 bar on both valves for two seconds of flight.
//! for _ in 0..2_000 {
//!     plant.step(50.0, 50.0);
//! }
//! assert!(plant.state().velocity_ms < 55.0);
//! assert!(plant.state().distance_m > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod failure;
pub mod geometry;
pub mod plant;
pub mod spec;
pub mod testcase;

pub use failure::{Constraints, FailureCause, FailureMonitor, FmaxTable, Verdict};
pub use geometry::CableGeometry;
pub use plant::{Plant, PlantState, SensorReadout};
pub use testcase::{TestCase, TestCaseGrid};
