//! The embedded control software of the aircraft-arresting target system.
//!
//! This crate is a faithful reimplementation of the target described in
//! paper Section 3.1 (Figures 4–6): a **master node** running six software
//! modules over a 7 × 1 ms slot cyclic executive —
//!
//! | Module | Period | Function |
//! |---|---|---|
//! | `CLOCK` | 1 ms | millisecond clock `mscnt`, slot counter `ms_slot_nbr` |
//! | `DIST_S` | 1 ms | accumulates rotation-sensor pulses into `pulscnt` |
//! | `CALC` | background | set-point pressure `SetValue` at six runway checkpoints, checkpoint counter `i` |
//! | `PRES_S` | 7 ms | pressure sensor → `IsValue` |
//! | `V_REG` | 7 ms | PID regulator: `SetValue`, `IsValue` → `OutValue` |
//! | `PRES_A` | 7 ms | `OutValue` → pressure valve |
//!
//! — plus a **slave node** (CLOCK, PRES_S, V_REG, PRES_A) that receives
//! its set point from the master and drives the second drum.
//!
//! Every module variable lives in the simulated application RAM
//! ([`memsim::TargetMemory`]); the modules read and write *through* the
//! RAM image, so SWIFI bit flips injected by the campaign genuinely
//! perturb program state. The seven service-critical signals of paper
//! Table 4 are monitored by executable assertions (EA1–EA7) built from
//! [`ea_core`], placed in the modules listed in the table
//! ([`instrument`]).
//!
//! [`System`] wires a master node, a slave node and a [`simenv::Plant`]
//! together and runs complete arrestments with optional fault injection.
//!
//! # Example
//!
//! ```
//! use arrestor::{RunConfig, System};
//! use simenv::TestCase;
//!
//! let mut system = System::new(TestCase::new(12_000.0, 55.0), RunConfig::default());
//! let outcome = system.run_to_completion();
//! assert!(!outcome.verdict.failed());
//! assert!(outcome.detections.is_empty()); // fault-free: no EA fires
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod checkpoint;
pub mod consts;
pub mod control;
pub mod detectors;
pub mod instrument;
pub mod kernel;
pub mod math;
pub mod modules;
pub mod node;
pub mod reach;
pub mod record_final;
pub mod settle;
pub mod signals;
pub mod stackmodel;
pub mod system;
pub mod trace;

pub use batch::{run_lockstep, BatchConfig, RetiredLane};
pub use checkpoint::{SettleDetector, SettleProof, Snapshot};
pub use detectors::{Detectors, EaId, EaSet};
pub use instrument::{build_detectors, placement_plan};
pub use kernel::{ControlFlowFault, KernelState};
pub use node::{MasterNode, SlaveNode};
pub use signals::{CalcLocals, SignalMap};
pub use system::{RunConfig, RunOutcome, System};
pub use trace::{FieldValue, SignalSnapshot, TickRecord, Trace};
