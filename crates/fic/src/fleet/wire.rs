//! The fleet wire protocol: length-prefixed, schema-versioned JSON
//! frames carrying a typed command enum.
//!
//! Every frame is a 4-byte big-endian payload length followed by that
//! many bytes of JSON — one serialized [`Command`] (worker → server) or
//! [`Response`] (server → worker). The length prefix makes framing
//! independent of payload content, and the version carried by
//! [`Command::Register`] lets the server refuse incompatible workers
//! with a typed error instead of a parse failure halfway into a
//! campaign.
//!
//! [`read_frame`] is the one decoder, on both ends of the connection.
//! It never panics on hostile input: a stream that ends mid-frame is a
//! typed [`FrameError::Truncated`] whatever chunk sizes the transport
//! delivers it in (pinned by the chunked-reader proptests in
//! `crates/fic/tests/fleet_wire.rs`), an oversized length prefix is a
//! typed [`FrameError::Oversize`], and a payload that is not valid
//! JSON for the expected type is a [`FrameError::Parse`].

use std::fmt;
use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};

use crate::journal::{CampaignKind, TrialRecord};
use crate::protocol::Protocol;
use crate::telemetry::TelemetrySnapshot;

/// Wire-protocol schema version. A server refuses workers that
/// register with any other value ([`RefusalKind::VersionMismatch`]).
pub const WIRE_VERSION: u32 = 1;

/// Upper bound on one frame's payload, bytes. Large enough for a
/// whole-case slice result at the paper protocol, small enough that a
/// corrupt or malicious length prefix cannot make the receiver
/// allocate unbounded memory.
pub const MAX_FRAME_LEN: usize = 32 << 20;

/// One leased unit of campaign work: every still-pending trial of one
/// ⟨campaign kind, test case⟩ cell. Slices never split a test case, so
/// a worker builds each fault-free prefix exactly once and the fleet's
/// checkpoint-cache counters sum to the single-process reference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SliceLease {
    /// Server-assigned slice identifier (stable across reassignment).
    pub slice_id: u64,
    /// Name of the campaign this slice belongs to.
    pub campaign: String,
    /// Which error set the slice draws from.
    pub kind: CampaignKind,
    /// The protocol to run the trials under.
    pub protocol: Protocol,
    /// Index of the test case shared by every trial in the slice.
    pub case_index: usize,
    /// Paper error numbers (1-based) still pending for this case.
    pub error_numbers: Vec<usize>,
}

/// Worker → server commands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Command {
    /// First frame on every worker connection: version handshake.
    Register {
        /// The worker's [`WIRE_VERSION`].
        wire_version: u32,
        /// Human-readable worker name (a label for the worker's own
        /// logs; the server does not keep it).
        worker: String,
    },
    /// Ask for a slice of work.
    LeaseRequest {
        /// Id from [`Response::Registered`].
        worker_id: u64,
    },
    /// Keep-alive for a held lease; fire-and-forget (no response).
    Heartbeat {
        /// Id from [`Response::Registered`].
        worker_id: u64,
        /// The held slice.
        slice_id: u64,
    },
    /// A completed slice: every trial outcome plus the worker's
    /// telemetry snapshot for the slice.
    SliceResult {
        /// Id from [`Response::Registered`].
        worker_id: u64,
        /// The completed slice.
        slice_id: u64,
        /// One record per ⟨error, case⟩ pair, in error-number order.
        records: Vec<TrialRecord>,
        /// The worker's metrics for this slice (merged server-side).
        telemetry: TelemetrySnapshot,
    },
    /// Polite goodbye; the server releases any leases immediately
    /// (an abrupt disconnect has the same effect).
    Shutdown {
        /// Id from [`Response::Registered`].
        worker_id: u64,
    },
}

/// Server → worker responses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Registration accepted.
    Registered {
        /// The id the worker must present in every later command.
        worker_id: u64,
        /// Lease time-to-live; heartbeat well within this interval.
        lease_ms: u64,
    },
    /// A slice to execute.
    Lease {
        /// The work.
        slice: SliceLease,
    },
    /// Nothing to lease: either the fleet is done, or the server held
    /// the request for a lease TTL and nothing freed up.
    NoWork {
        /// `true` once every slice of every campaign is complete —
        /// the worker should shut down instead of asking again.
        done: bool,
    },
    /// Answer to [`Command::SliceResult`].
    ResultAck {
        /// `false` when another worker's result won the first-wins
        /// race (the records were discarded, matching
        /// [`crate::journal::Journal::walk`]'s first-wins rule).
        accepted: bool,
    },
    /// The command was refused; the connection stays usable unless the
    /// refusal says otherwise (version mismatch closes it).
    Refused {
        /// Machine-readable refusal class.
        kind: RefusalKind,
        /// Human-readable diagnostics.
        message: String,
    },
}

/// Typed refusal classes for [`Response::Refused`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RefusalKind {
    /// The worker registered with a different [`WIRE_VERSION`].
    VersionMismatch,
    /// The command names a worker id the server never issued (or that
    /// was retired by a disconnect).
    UnknownWorker,
    /// The command names a slice id the server never issued.
    UnknownSlice,
    /// The command is structurally valid but semantically wrong
    /// (e.g. a slice result whose records do not match the lease).
    Malformed,
}

impl fmt::Display for RefusalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            RefusalKind::VersionMismatch => "version mismatch",
            RefusalKind::UnknownWorker => "unknown worker",
            RefusalKind::UnknownSlice => "unknown slice",
            RefusalKind::Malformed => "malformed command",
        };
        f.write_str(label)
    }
}

/// Errors raised while framing or parsing wire traffic.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure.
    Io(io::Error),
    /// A length prefix above [`MAX_FRAME_LEN`] — corrupt framing or a
    /// non-protocol peer.
    Oversize(usize),
    /// The stream ended mid-frame (after a prefix, before the payload
    /// completed) — the peer died or the frame was truncated.
    Truncated,
    /// The payload is not valid JSON for the expected message type.
    Parse(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::Oversize(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN} cap")
            }
            FrameError::Truncated => f.write_str("stream ended mid-frame"),
            FrameError::Parse(m) => write!(f, "frame payload does not parse: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encodes one message as a length-prefixed frame.
pub fn encode_frame<T: Serialize>(message: &T) -> Vec<u8> {
    let payload = serde_json::to_string(message).expect("wire messages serialise");
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    frame
}

/// Parses one frame payload into a message.
///
/// # Errors
///
/// [`FrameError::Parse`] when the payload is not valid JSON for `T`.
pub fn decode_payload<T: Deserialize>(payload: &[u8]) -> Result<T, FrameError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| FrameError::Parse(format!("payload is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| FrameError::Parse(e.to_string()))
}

/// Writes one message as a frame and flushes.
///
/// # Errors
///
/// Any transport failure.
pub fn write_frame<W: Write, T: Serialize>(writer: &mut W, message: &T) -> io::Result<()> {
    writer.write_all(&encode_frame(message))?;
    writer.flush()
}

/// Reads one message from the transport. Returns `Ok(None)` on a clean
/// end-of-stream at a frame boundary; an end-of-stream mid-frame is
/// [`FrameError::Truncated`].
///
/// # Errors
///
/// Transport failures, an oversized prefix, a truncated frame, or a
/// payload that does not parse as `T`.
pub fn read_frame<R: Read, T: Deserialize>(reader: &mut R) -> Result<Option<T>, FrameError> {
    let mut prefix = [0u8; 4];
    match read_exact_or_eof(reader, &mut prefix)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Partial => return Err(FrameError::Truncated),
        ReadOutcome::Full => {}
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversize(len));
    }
    let mut payload = vec![0u8; len];
    match read_exact_or_eof(reader, &mut payload)? {
        ReadOutcome::Full => {}
        ReadOutcome::Eof | ReadOutcome::Partial => return Err(FrameError::Truncated),
    }
    decode_payload(&payload).map(Some)
}

enum ReadOutcome {
    Full,
    Partial,
    Eof,
}

/// `read_exact` that distinguishes "no bytes at all" (clean EOF) from
/// "some but not all" (truncation).
fn read_exact_or_eof<R: Read>(reader: &mut R, buf: &mut [u8]) -> io::Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Full)
}
