//! Signal classification and executable assertions for data-error detection.
//!
//! This crate implements the primary contribution of Martin Hiller,
//! *Executable Assertions for Detecting Data Errors in Embedded Control
//! Systems* (DSN 2000): a rigorous classification scheme for software
//! signals, plus **generic error-detection algorithms that are instantiated
//! with parameters alone** — the "executable assertions" of the title.
//!
//! # The classification scheme (paper Figure 1)
//!
//! ```text
//!                      ┌ Continuous ┬ Monotonic ┬ Static rate
//!                      │            │           └ Dynamic rate
//!            Signals ──┤            └ Random
//!                      │
//!                      └ Discrete ──┬ Sequential ┬ Linear
//!                                   │            └ Non-linear
//!                                   └ Random
//! ```
//!
//! Every *continuous* signal is characterised by a seven-parameter set
//! `P_cont = {smax, smin, rmin_incr, rmax_incr, rmin_decr, rmax_decr, w}`
//! ([`ContinuousParams`]); each class constrains the parameters as given by
//! paper Table 1. Every *discrete* signal is characterised by
//! `P_disc = {D, T(d)}` — a valid domain and per-value transition sets
//! ([`DiscreteParams`]). The error-detection tests themselves are the fixed
//! procedures of paper Tables 2 and 3, implemented in [`assert_cont`] and
//! [`assert_disc`]; a violation of any constraint is interpreted as the
//! detection of an error.
//!
//! # Layered API
//!
//! * the raw assertion procedures: [`assert_cont::check`],
//!   [`assert_disc::check`] — pure functions over `(previous, current,
//!   params)`;
//! * a stateful per-signal wrapper: [`SignalMonitor`] — remembers the
//!   previous sample, the current [`Mode`], and applies a
//!   [`RecoveryStrategy`] when a violation is found;
//! * a whole-system bank: [`DetectorBank`] — owns many monitors, timestamps
//!   each mechanism's first detection, and exposes that detection log as
//!   a fault-injection harness (or a real digital output pin) would
//!   observe it;
//! * the placement *process* of paper Section 2.3: [`process`] walks the
//!   eight steps from signal inventory over FMECA-style criticality ranking
//!   to an [`process::InstrumentationPlan`];
//! * the coverage algebra of paper Section 2.4:
//!   [`coverage::CoverageModel`] computes
//!   `Pdetect = (Pen·Pprop + Pem)·Pds`, and [`stats`] provides the
//!   coverage estimators (with 95 % confidence intervals) used in the
//!   paper's Tables 7 and 9.
//!
//! # Example
//!
//! ```
//! use ea_core::prelude::*;
//!
//! // A wheel-speed style continuous random signal in [0, 3000] with a
//! // bounded change rate of 50 units per test.
//! let params = ContinuousParams::builder(0, 3000)
//!     .increase_rate(0, 50)
//!     .decrease_rate(0, 50)
//!     .build()?;
//! assert_eq!(params.classify(), SignalClass::continuous_random());
//!
//! let mut speed = SignalMonitor::continuous("wheel_speed", params);
//! assert!(speed.check(100).is_ok());
//! assert!(speed.check(140).is_ok());
//! // A bit flip in the most significant byte is caught as a range error.
//! let violation = speed.check(140 + (1 << 12)).unwrap_err();
//! assert_eq!(violation.kind(), ViolationKind::AboveMaximum);
//! # Ok::<(), ea_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assert_cont;
pub mod assert_disc;
pub mod class;
pub mod cont;
pub mod cost;
pub mod coverage;
pub mod detector;
pub mod disc;
pub mod dynamic;
pub mod error;
pub mod mode;
pub mod monitor;
pub mod prelude;
pub mod process;
pub mod recovery;
pub mod stats;
pub mod verdict;

pub use class::{ContinuousKind, DiscreteKind, MonotonicRate, SequentialKind, SignalClass};
pub use cont::{ContinuousParams, ContinuousParamsBuilder, Wrap};
pub use cost::CheckCost;
pub use detector::{DetectionEvent, DetectorBank, DivergenceMeta, MonitorId};
pub use disc::DiscreteParams;
pub use dynamic::{DynamicParams, RateProfile};
pub use error::Error;
pub use mode::{Mode, ModedParams, Params};
pub use monitor::SignalMonitor;
pub use process::{
    Criticality, InstrumentationPlan, InstrumentationProcess, Placement, SignalRecord, SignalRole,
};
pub use recovery::RecoveryStrategy;
pub use verdict::{Pass, Violation, ViolationKind};

/// The sample type accepted by every assertion in this crate.
///
/// The paper's case study uses 16-bit signals; using a wide signed integer
/// keeps the assertion algebra (differences, wrap-around distances) exact
/// for any source width up to 32 bits without forcing a generic API on
/// users. Narrower integers convert losslessly with `i64::from`.
pub type Sample = i64;

/// Discrete time in milliseconds, the resolution of the paper's target
/// system clock (`mscnt`).
pub type Millis = u64;
