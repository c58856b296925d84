//! FIC³-style fault-injection campaign controller.
//!
//! The paper's experiment system (Fault Injection Campaign Control
//! Computer, Figure 7) downloads error parameters into the target,
//! triggers time-based SWIFI bit flips, records detections reported on a
//! digital output pin, and stores environment readouts for failure
//! analysis. This crate reproduces that instrument and the paper's two
//! campaigns:
//!
//! * **E1** ([`error_set::e1`]): one bit flip per bit position of each of
//!   the seven monitored 16-bit signals — 112 errors, 25 test cases
//!   each, evaluated for the eight software versions (EA1..EA7 alone,
//!   plus all seven). Estimates `Pds` (Tables 7 and 8).
//! * **E2** ([`error_set::e2`]): 200 bit flips drawn uniformly with
//!   replacement from the application RAM (150) and stack (50) areas.
//!   Estimates `Pdetect` (Table 9).
//!
//! Protocol constants (Section 3.4) live in [`Protocol`]: injections
//! repeat every 20 ms, the observation window is 40 s, detection means
//! *at least one* report in the window, latency is first injection →
//! first detection.
//!
//! Because the experiment is detection-only (the pin has no feedback
//! into the control flow), a single run with all mechanisms active
//! yields each version's verdict exactly: version `EAk`'s detection is
//! "EAk fired at least once". The campaign therefore runs each
//! ⟨error, test case⟩ pair once and derives all eight versions from the
//! per-mechanism detection log — behaviourally identical to the paper's
//! eight recompiled versions, at an eighth of the compute (DESIGN.md §4).
//!
//! # Example
//!
//! ```
//! use fic::{error_set, CampaignRunner, Protocol};
//!
//! // A miniature E1 campaign: a 2 × 2 test-case grid, 2 s windows.
//! let protocol = Protocol::scaled(2, 2_000);
//! let runner = CampaignRunner::new(protocol);
//! let errors = error_set::e1();
//! let report = runner.run_e1(&errors[..4]); // first 4 errors only
//! assert_eq!(report.trials(), 4 * 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod calibration;
pub mod campaign;
pub mod cli;
pub mod convergence;
pub mod coverage_report;
pub mod error_set;
pub mod experiment;
pub mod figures;
pub mod fleet;
pub mod golden;
pub mod journal;
pub mod profile;
pub mod protocol;
pub mod prune;
pub mod recovery_study;
pub mod results;
pub mod tables;
pub mod telemetry;
pub mod trace;

pub use attribution::{
    AttributionAggregate, AttributionEvent, AttributionReport, Decomposition, MonitoredMap,
};
pub use campaign::{
    AttributionSink, CampaignRunner, CampaignTelemetry, CheckpointCache, ConvergenceSink,
};
pub use convergence::{CampaignCoverage, ConvergenceAggregate, ConvergenceReport};
pub use error_set::{E1Error, E2Error};
pub use experiment::{
    fault_free_prefix, fault_free_prefix_recorded, run_trial, run_trial_checkpointed_recorded,
    run_trial_recorded, run_trial_traced, Trial,
};
pub use fleet::{FleetError, FleetSummary, Server, ServerOptions, WorkerOptions, WorkerSummary};
pub use journal::{CampaignKind, Journal, JournalError, JournalWriter, TrialRecord};
pub use profile::{ProfileRecorder, ProfileReport};
pub use protocol::Protocol;
pub use prune::{InertMap, PruneCache, PruneClass};
pub use results::{E1Report, E2Report, SignalRow};
pub use trace::{ReferenceCache, ReproBundle, SignalDivergence, TraceDiff};
