//! The campaign fleet service: a work-stealing campaign server and its
//! worker protocol.
//!
//! The paper's fault-injection campaigns are embarrassingly parallel,
//! and PRs 4–5 made every fan-in associative and permutation-invariant
//! — journals merge with first-wins dedup, telemetry snapshots and
//! attribution aggregates merge commutatively. This module turns that
//! algebra into a serving system:
//!
//! - [`wire`] — the length-prefixed, schema-versioned JSON frame
//!   protocol ([`Command`]/[`Response`]) workers speak to the server.
//! - [`scheduler`] — the pure work-stealing state machine: slice
//!   leases, heartbeat-based expiry, reassignment on worker death,
//!   first-wins result dedup.
//! - [`server`] — the `std::net::TcpListener` campaign server: a
//!   multi-tenant queue of named campaigns, journals as the durability
//!   layer (resume on restart) and artefact finalization. Its port
//!   speaks only the wire protocol; what a campaign produced is read
//!   from the artefacts it writes, not from a live endpoint.
//! - [`recorder`] — the optional flight recorder of slice lifecycle
//!   spans, written per campaign as `trace/flight_log.json`.
//! - [`worker`] — the stateless slice executor built on
//!   [`crate::campaign::CampaignRunner`].
//!
//! Because every slice result lands in the same crash-safe journal and
//! every aggregate is an order-free fold, a fleet run — any worker
//! count, any interleaving, any number of worker deaths — converges to
//! byte-identical Tables 6–9, attribution and telemetry counters
//! versus the single-process `full_campaign` reference; that is the
//! acceptance gate in `tests/fleet_equivalence.rs` and the CI
//! `fleet-smoke` job.

pub mod recorder;
pub mod scheduler;
pub mod server;
pub mod wire;
pub mod worker;

use std::fmt;
use std::io;

pub use recorder::{FlightLog, FlightRecorder, SpanEvent, SpanKind};
pub use scheduler::{Scheduler, SliceSpec, SliceStatus};
pub use server::{CampaignOutcome, CampaignSpec, FleetSummary, Server, ServerOptions};
pub use wire::{Command, FrameError, RefusalKind, Response, SliceLease, WIRE_VERSION};
pub use worker::{run_worker, WorkerOptions, WorkerSummary};

/// Errors raised by the fleet client and server entry points.
#[derive(Debug)]
pub enum FleetError {
    /// Transport failure.
    Io(io::Error),
    /// Framing or payload-parse failure.
    Frame(FrameError),
    /// The server refused a command with a typed error.
    Refused(RefusalKind, String),
    /// The peer broke the conversation contract (unexpected response,
    /// premature close, an unknown error number in a lease).
    Protocol(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Io(e) => write!(f, "fleet I/O error: {e}"),
            FleetError::Frame(e) => write!(f, "fleet framing error: {e}"),
            FleetError::Refused(kind, message) => write!(f, "server refused ({kind}): {message}"),
            FleetError::Protocol(message) => write!(f, "protocol violation: {message}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<FrameError> for FleetError {
    fn from(e: FrameError) -> Self {
        FleetError::Frame(e)
    }
}

impl From<io::Error> for FleetError {
    fn from(e: io::Error) -> Self {
        FleetError::Io(e)
    }
}
