//! The fleet worker: connects to a campaign server, leases slices,
//! runs them through the ordinary [`CampaignRunner`] and streams the
//! results (trials + telemetry snapshot) back.
//!
//! The worker is deliberately stateless: everything it knows about a
//! slice arrives in the [`SliceLease`] (protocol included), and
//! everything it produces leaves in one [`Command::SliceResult`]. A
//! worker that dies mid-lease sends nothing — the server's lease expiry
//! reassigns the slice and the journal never sees a partial slice —
//! which is exactly what `--die-after-leases` simulates for the crash
//! soak in `tests/fleet_equivalence.rs` and the CI `fleet-smoke` job.

use std::net::TcpStream;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::campaign::CampaignRunner;
use crate::error_set;
use crate::journal::{CampaignKind, TrialRecord};
use crate::telemetry::{Registry, TelemetrySnapshot};

use super::wire::{read_frame, write_frame, Command, Response, SliceLease, WIRE_VERSION};
use super::FleetError;

/// Configuration of one [`run_worker`] invocation.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Server address to connect to.
    pub connect: String,
    /// Self-reported name (telemetry label on the server).
    pub name: String,
    /// Worker threads per slice (0 = all available cores).
    pub threads: usize,
    /// How long to keep retrying the initial connect, ms.
    pub connect_timeout_ms: u64,
    /// Test hook: die abruptly (drop the connection without sending
    /// anything, a SIGKILL equivalent) immediately after taking this
    /// many leases.
    pub die_after_leases: Option<usize>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            connect: "127.0.0.1:7700".to_owned(),
            name: "worker".to_owned(),
            threads: 0,
            connect_timeout_ms: 10_000,
            die_after_leases: None,
        }
    }
}

impl WorkerOptions {
    /// Parses a `fleet_worker` argument list.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending flag or value.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut options = WorkerOptions::default();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut value = |name: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--connect" => options.connect = value("--connect")?,
                "--name" => options.name = value("--name")?,
                "--threads" => {
                    options.threads = value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?;
                }
                "--connect-timeout-ms" => {
                    options.connect_timeout_ms = value("--connect-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--connect-timeout-ms: {e}"))?;
                }
                "--die-after-leases" => {
                    options.die_after_leases = Some(
                        value("--die-after-leases")?
                            .parse()
                            .map_err(|e| format!("--die-after-leases: {e}"))?,
                    );
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(options)
    }
}

/// What one worker did before exiting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSummary {
    /// The id the server issued at registration.
    pub worker_id: u64,
    /// Leases taken (including one abandoned by `--die-after-leases`).
    pub leases: u64,
    /// Slice results the server accepted.
    pub slices_completed: u64,
    /// Duplicate results refused by the first-wins race.
    pub slices_duplicate: u64,
    /// Trials executed and submitted in accepted results.
    pub trials: u64,
    /// Whether the worker exited through the `--die-after-leases` hook.
    pub died: bool,
}

/// Runs one worker to completion: until the server reports the fleet
/// done, the connection drops, or the `die_after_leases` hook fires.
///
/// # Errors
///
/// Connect/handshake failures, transport failures mid-conversation, or
/// a typed refusal from the server (version mismatch, unknown worker).
pub fn run_worker(options: &WorkerOptions) -> Result<WorkerSummary, FleetError> {
    let mut stream = connect_with_retry(&options.connect, options.connect_timeout_ms)?;

    write_frame(
        &mut stream,
        &Command::Register {
            wire_version: WIRE_VERSION,
            worker: options.name.clone(),
        },
    )
    .map_err(FleetError::Io)?;
    let (worker_id, lease_ms) = match read_frame::<_, Response>(&mut stream)? {
        Some(Response::Registered {
            worker_id,
            lease_ms,
        }) => (worker_id, lease_ms),
        Some(Response::Refused { kind, message }) => {
            return Err(FleetError::Refused(kind, message));
        }
        Some(other) => {
            return Err(FleetError::Protocol(format!(
                "expected Registered, got {other:?}"
            )));
        }
        None => {
            return Err(FleetError::Protocol(
                "server closed the connection during registration".to_owned(),
            ));
        }
    };

    let mut summary = WorkerSummary {
        worker_id,
        leases: 0,
        slices_completed: 0,
        slices_duplicate: 0,
        trials: 0,
        died: false,
    };

    // Heartbeats are written from a side thread while the slice runs,
    // so the stream's write half is shared behind a mutex; responses
    // only ever answer this thread's requests (heartbeats are
    // fire-and-forget), so the read half stays here unshared.
    let writer = Arc::new(Mutex::new(stream.try_clone().map_err(FleetError::Io)?));

    loop {
        send(&writer, &Command::LeaseRequest { worker_id })?;
        let response = match read_frame::<_, Response>(&mut stream)? {
            Some(response) => response,
            None => {
                return Err(FleetError::Protocol(
                    "server closed the connection while work was pending".to_owned(),
                ));
            }
        };
        match response {
            Response::Lease { slice } => {
                summary.leases += 1;
                if options.die_after_leases == Some(summary.leases as usize) {
                    // SIGKILL equivalent: drop the connection with the
                    // lease held and say nothing. The server's lease
                    // expiry puts the slice back in the queue.
                    summary.died = true;
                    return Ok(summary);
                }
                let trials = slice.error_numbers.len() as u64;
                let (records, telemetry) =
                    execute_slice(&slice, options, &writer, worker_id, lease_ms)?;
                send(
                    &writer,
                    &Command::SliceResult {
                        worker_id,
                        slice_id: slice.slice_id,
                        records,
                        telemetry,
                    },
                )?;
                match read_frame::<_, Response>(&mut stream)? {
                    Some(Response::ResultAck { accepted: true }) => {
                        summary.slices_completed += 1;
                        summary.trials += trials;
                    }
                    Some(Response::ResultAck { accepted: false }) => {
                        summary.slices_duplicate += 1;
                    }
                    Some(Response::Refused { kind, message }) => {
                        return Err(FleetError::Refused(kind, message));
                    }
                    Some(other) => {
                        return Err(FleetError::Protocol(format!(
                            "expected ResultAck, got {other:?}"
                        )));
                    }
                    None => {
                        return Err(FleetError::Protocol(
                            "server closed the connection before acknowledging a result".to_owned(),
                        ));
                    }
                }
            }
            Response::NoWork { done: true } => {
                let _ = send(&writer, &Command::Shutdown { worker_id });
                return Ok(summary);
            }
            // The server held the request until work could appear (a
            // result folded, a lease came back) or its wait lapsed:
            // ask again at once.
            Response::NoWork { done: false } => {}
            Response::Refused { kind, message } => {
                return Err(FleetError::Refused(kind, message));
            }
            other => {
                return Err(FleetError::Protocol(format!(
                    "unexpected response to a lease request: {other:?}"
                )));
            }
        }
    }
}

/// Dials the server, retrying until `timeout_ms` elapses (the smoke
/// topology starts workers and server concurrently).
fn connect_with_retry(addr: &str, timeout_ms: u64) -> Result<TcpStream, FleetError> {
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).map_err(FleetError::Io)?;
                return Ok(stream);
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(FleetError::Io(e));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// Writes one frame through the shared write half.
fn send(writer: &Arc<Mutex<TcpStream>>, command: &Command) -> Result<(), FleetError> {
    let mut stream = writer.lock().expect("no panics while holding lock");
    write_frame(&mut *stream, command).map_err(FleetError::Io)
}

/// Runs every trial of one slice through a fresh [`CampaignRunner`]
/// (own telemetry registry, checkpointing + batching on as in the
/// single-process reference) while a side thread heartbeats the lease.
/// Returns the records in lease order plus the slice's telemetry.
fn execute_slice(
    slice: &SliceLease,
    options: &WorkerOptions,
    writer: &Arc<Mutex<TcpStream>>,
    worker_id: u64,
    lease_ms: u64,
) -> Result<(Vec<TrialRecord>, TelemetrySnapshot), FleetError> {
    let (stop, stopped) = mpsc::channel::<()>();
    let heartbeat = {
        let writer = Arc::clone(writer);
        let slice_id = slice.slice_id;
        // A third of the TTL keeps the lease alive through two missed
        // beats; heartbeat write errors are ignored here — the main
        // thread sees the same dead stream on its next frame. Waiting
        // on the stop channel (signalled, or disconnected if the slice
        // panics) ends the keep-alive at once, not after the current
        // beat interval.
        let interval = Duration::from_millis((lease_ms / 3).max(1));
        std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                let _ = send(
                    &writer,
                    &Command::Heartbeat {
                        worker_id,
                        slice_id,
                    },
                );
            }
        })
    };

    let mut protocol = slice.protocol.clone();
    protocol.workers = options.threads;
    let registry = Arc::new(Registry::new());
    let runner = CampaignRunner::new(protocol).with_telemetry(Arc::clone(&registry));
    let pairs: Vec<(usize, usize)> = (0..slice.error_numbers.len())
        .map(|ei| (ei, slice.case_index))
        .collect();
    let records: Result<Vec<TrialRecord>, FleetError> = match slice.kind {
        CampaignKind::E1 => {
            let full = error_set::e1();
            let subset = subset_by_number(&full, &slice.error_numbers, "E1")?;
            Ok(runner
                .run_e1_pairs(&subset, &pairs)
                .into_iter()
                .map(|(ei, ci, trial)| TrialRecord {
                    campaign: CampaignKind::E1,
                    error_number: subset[ei].number,
                    case_index: ci,
                    trial,
                })
                .collect())
        }
        CampaignKind::E2 => {
            let full = error_set::e2();
            let subset = subset_by_number(&full, &slice.error_numbers, "E2")?;
            Ok(runner
                .run_e2_pairs(&subset, &pairs)
                .into_iter()
                .map(|(ei, ci, trial)| TrialRecord {
                    campaign: CampaignKind::E2,
                    error_number: subset[ei].number,
                    case_index: ci,
                    trial,
                })
                .collect())
        }
    };

    // The send fails only if the keep-alive already exited; `join`
    // reports whether it panicked.
    let _ = stop.send(());
    heartbeat
        .join()
        .map_err(|_| FleetError::Protocol("the lease keep-alive thread panicked".to_owned()))?;
    Ok((records?, registry.snapshot()))
}

/// Resolves paper error numbers against the full set (`full[n-1]` has
/// number `n`), preserving lease order.
fn subset_by_number<E: Copy + HasNumber>(
    full: &[E],
    numbers: &[usize],
    label: &str,
) -> Result<Vec<E>, FleetError> {
    numbers
        .iter()
        .map(|&n| {
            full.get(n.wrapping_sub(1))
                .copied()
                .filter(|e| e.number() == n)
                .ok_or_else(|| FleetError::Protocol(format!("unknown {label} error number {n}")))
        })
        .collect()
}

/// Internal: both error kinds expose their paper number for lease
/// resolution.
trait HasNumber {
    fn number(&self) -> usize;
}

impl HasNumber for crate::error_set::E1Error {
    fn number(&self) -> usize {
        self.number
    }
}

impl HasNumber for crate::error_set::E2Error {
    fn number(&self) -> usize {
        self.number
    }
}
