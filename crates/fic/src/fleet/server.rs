//! The campaign server: a multi-tenant queue of named campaigns served
//! to workers over the wire protocol, journaled for durability, with a
//! streaming HTTP/SSE status side-channel.
//!
//! One `std::net::TcpListener` serves both protocols: the first four
//! bytes of each connection route it — ASCII `"GET "` (a length prefix
//! of ≈ 1.2 GiB, far above [`crate::fleet::wire::MAX_FRAME_LEN`]) goes
//! to the HTTP handler, anything else is the first frame of a worker
//! conversation.
//!
//! Durability is the PR 4–5 algebra: every accepted slice result is
//! appended to the campaign's crash-safe journal (trials *and* derived
//! attribution events), and the in-memory reports are the same
//! commutative folds a journal replay performs — so a restarted server
//! resumes by loading the journal, pre-folding the recorded trials and
//! queueing only the missing ⟨kind, case⟩ slices, and the final tables
//! are byte-identical no matter how the fleet interleaved
//! (`tests/fleet_equivalence.rs`).

use std::collections::HashSet;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::attribution::{AttributionAggregate, AttributionEvent, MonitoredMap};
use crate::campaign::InjectableError;
use crate::convergence::{self, ConvergenceAggregate};
use crate::error_set::{self, E1Error};
use crate::journal::{CampaignKind, Journal, JournalWriter, PaperError, PaperErrors, TrialRecord};
use crate::protocol::Protocol;
use crate::results::{E1Report, E2Report};
use crate::telemetry::{self, TelemetrySnapshot};
use crate::{attribution, tables};

use super::http;
use super::recorder::{FlightLog, FlightRecorder, SpanEvent, SpanKind};
use super::scheduler::{Scheduler, SliceSpec};
use super::wire::{
    read_frame, read_frame_after_prefix, write_frame, Command, RefusalKind, Response, SliceLease,
    WIRE_VERSION,
};

/// One named campaign in the server's queue.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Queue name (also the journal file stem and artefact directory).
    pub name: String,
    /// The protocol every trial runs under.
    pub protocol: Protocol,
    /// E1 paper error numbers to run (1-based; empty = no E1 phase).
    pub e1_numbers: Vec<usize>,
    /// E2 paper error numbers to run (1-based; empty = no E2 phase).
    pub e2_numbers: Vec<usize>,
}

impl CampaignSpec {
    /// The full paper campaign: every E1 and E2 error.
    pub fn full(name: &str, protocol: Protocol) -> Self {
        Self::with_limits(name, protocol, 0, 0)
    }

    /// A prefix-limited campaign: the first `e1_limit` E1 errors and
    /// first `e2_limit` E2 errors (`0` = the full set) — the shape the
    /// `fleet_server` binary's `--e1-limit`/`--e2-limit` flags build.
    pub fn with_limits(name: &str, protocol: Protocol, e1_limit: usize, e2_limit: usize) -> Self {
        let clamp = |total: usize, limit: usize| {
            if limit == 0 {
                total
            } else {
                limit.min(total)
            }
        };
        let e1_total = error_set::e1().len();
        let e2_total = error_set::e2().len();
        CampaignSpec {
            name: name.to_owned(),
            protocol,
            e1_numbers: (1..=clamp(e1_total, e1_limit)).collect(),
            e2_numbers: (1..=clamp(e2_total, e2_limit)).collect(),
        }
    }
}

/// Configuration of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub listen: String,
    /// Lease time-to-live, ms of wall clock; workers heartbeat within
    /// this interval or their slices are reassigned.
    pub lease_ms: u64,
    /// Artefact root: each campaign writes under `<out>/<name>/`.
    pub out_dir: PathBuf,
    /// Journal directory (`<dir>/<name>.jsonl`); defaults to `out_dir`.
    pub journal_dir: Option<PathBuf>,
    /// Exit [`Server::run`] once every campaign is complete and the
    /// last worker disconnected, instead of serving forever.
    pub once: bool,
    /// Campaign queue names (the `fleet_server` binary pairs these
    /// with its protocol flags via [`ServerOptions::campaign_specs`]).
    pub campaigns: Vec<String>,
    /// Grid scale for the binary's campaigns (`None` = paper 5 × 5).
    pub scale: Option<usize>,
    /// Observation-window override for the binary's campaigns, ms.
    pub observation_ms: Option<u64>,
    /// E1 prefix limit for the binary's campaigns (0 = full set).
    pub e1_limit: usize,
    /// E2 prefix limit for the binary's campaigns (0 = full set).
    pub e2_limit: usize,
    /// Record slice lifecycle span events (the fleet flight recorder):
    /// serves `/trace` and writes `trace/flight_log.json` per campaign.
    pub flight_recorder: bool,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            listen: "127.0.0.1:7700".to_owned(),
            lease_ms: 30_000,
            out_dir: PathBuf::from("results/fleet"),
            journal_dir: None,
            once: false,
            campaigns: Vec::new(),
            scale: None,
            observation_ms: None,
            e1_limit: 0,
            e2_limit: 0,
            flight_recorder: false,
        }
    }
}

impl ServerOptions {
    /// Parses a `fleet_server` argument list.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending flag or value.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut options = ServerOptions::default();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut value = |name: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--listen" => options.listen = value("--listen")?,
                "--campaign" => options.campaigns.push(value("--campaign")?),
                "--lease-ms" => {
                    options.lease_ms = value("--lease-ms")?
                        .parse()
                        .map_err(|e| format!("--lease-ms: {e}"))?;
                }
                "--out" => options.out_dir = PathBuf::from(value("--out")?),
                "--journal-dir" => {
                    options.journal_dir = Some(PathBuf::from(value("--journal-dir")?));
                }
                "--once" => options.once = true,
                "--scale" => options.scale = Some(crate::cli::parse_scale(&value("--scale")?)?),
                "--observation" => {
                    options.observation_ms = Some(
                        value("--observation")?
                            .parse()
                            .map_err(|e| format!("--observation: {e}"))?,
                    );
                }
                "--e1-limit" => {
                    options.e1_limit = value("--e1-limit")?
                        .parse()
                        .map_err(|e| format!("--e1-limit: {e}"))?;
                }
                "--e2-limit" => {
                    options.e2_limit = value("--e2-limit")?
                        .parse()
                        .map_err(|e| format!("--e2-limit: {e}"))?;
                }
                "--flight-recorder" => options.flight_recorder = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if options.lease_ms == 0 {
            return Err("--lease-ms must be positive".to_owned());
        }
        if options.campaigns.is_empty() {
            options.campaigns.push("campaign".to_owned());
        }
        Ok(options)
    }

    /// The protocol the binary's flags describe.
    pub fn protocol(&self) -> Protocol {
        let mut protocol = match self.scale {
            Some(n) => Protocol::scaled(n, simenv::spec::OBSERVATION_MS),
            None => Protocol::paper(),
        };
        if let Some(ms) = self.observation_ms {
            protocol.observation_ms = ms;
        }
        protocol
    }

    /// One [`CampaignSpec`] per `--campaign`, sharing the binary's
    /// protocol and prefix limits.
    pub fn campaign_specs(&self) -> Vec<CampaignSpec> {
        self.campaigns
            .iter()
            .map(|name| {
                CampaignSpec::with_limits(name, self.protocol(), self.e1_limit, self.e2_limit)
            })
            .collect()
    }

    /// Where a campaign's journal lives.
    pub fn journal_path(&self, name: &str) -> PathBuf {
        self.journal_dir
            .as_ref()
            .unwrap_or(&self.out_dir)
            .join(format!("{name}.jsonl"))
    }
}

/// Everything one finished campaign produced, as returned by
/// [`Server::run`] for in-process assertions.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Campaign name.
    pub name: String,
    /// The journal the campaign's trials are recorded in.
    pub journal_path: PathBuf,
    /// Where the rendered tables and reports were written.
    pub out_dir: PathBuf,
    /// The folded E1 report.
    pub e1_report: E1Report,
    /// The folded E2 report.
    pub e2_report: E2Report,
    /// The folded attribution aggregate.
    pub attribution: AttributionAggregate,
    /// The merged worker telemetry for this campaign.
    pub telemetry: TelemetrySnapshot,
    /// Trials accepted (journal appends, not counting resume replay).
    pub trials: u64,
}

/// What [`Server::run`] hands back in `--once` mode.
#[derive(Debug, Clone)]
pub struct FleetSummary {
    /// One outcome per campaign, in queue order.
    pub campaigns: Vec<CampaignOutcome>,
}

/// Per-campaign mutable state guarded by the core lock.
struct CampaignState {
    spec: CampaignSpec,
    journal: JournalWriter,
    journal_path: PathBuf,
    out_dir: PathBuf,
    recorded: HashSet<(CampaignKind, usize, usize)>,
    e1_report: E1Report,
    e2_report: E2Report,
    attribution: AttributionAggregate,
    telemetry: TelemetrySnapshot,
    trials: u64,
    finalized: bool,
}

/// Scheduler plus campaign states — one lock, because every transition
/// (lease, heartbeat, result, disconnect) must see both consistently.
pub(super) struct Core {
    scheduler: Scheduler,
    campaigns: Vec<CampaignState>,
}

/// State shared between the accept loop, connection threads and the
/// HTTP handlers.
pub(super) struct Shared {
    pub(super) options: ServerOptions,
    pub(super) core: Mutex<Core>,
    /// Signalled whenever a slice may have become leasable or the
    /// fleet may be done (a result folded, a lease was released), so
    /// idle lease requests wait here instead of workers polling.
    work: Condvar,
    pub(super) done: AtomicBool,
    worker_conns: AtomicUsize,
    start: Instant,
    registry: Arc<telemetry::Registry>,
    flight: Option<FlightRecorder>,
    errors: PaperErrors,
    monitored: MonitoredMap,
}

impl Shared {
    pub(super) fn now_ms(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Records one slice transition when the flight recorder is on.
    /// `campaign` is the slice's campaign name (resolved by the caller,
    /// which holds the core lock and can see the spec).
    fn record_span(
        &self,
        at_ms: u64,
        campaign: &str,
        slice_id: u64,
        kind: SpanKind,
        worker: Option<u64>,
    ) {
        if let Some(flight) = &self.flight {
            flight.record(SpanEvent {
                at_ms,
                campaign: campaign.to_owned(),
                slice_id,
                kind,
                worker,
            });
        }
    }
}

/// The fleet campaign server. [`Server::bind`] loads (or creates) the
/// journals and builds the slice queue; [`Server::run`] serves until
/// every campaign converges (`once`) or forever.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and prepares every campaign: existing
    /// journals are loaded and pre-folded (resume), missing ⟨kind,
    /// case⟩ cells become queue slices, fully-recorded campaigns are
    /// finalized immediately.
    ///
    /// # Errors
    ///
    /// Socket or filesystem failures, or a journal that does not match
    /// its campaign (protocol mismatch, corrupt records).
    pub fn bind(options: ServerOptions, campaigns: Vec<CampaignSpec>) -> io::Result<Server> {
        let listener = TcpListener::bind(&options.listen)?;
        listener.set_nonblocking(true)?;

        let monitored = MonitoredMap::new();

        let mut scheduler = Scheduler::new(options.lease_ms);
        let mut states = Vec::with_capacity(campaigns.len());
        for (ci, spec) in campaigns.into_iter().enumerate() {
            let journal_path = options.journal_path(&spec.name);
            let out_dir = options.out_dir.join(&spec.name);
            let mut state = CampaignState {
                journal: JournalWriter::append_to(&journal_path, &spec.protocol)?,
                journal_path,
                out_dir,
                recorded: HashSet::new(),
                e1_report: E1Report::new(),
                e2_report: E2Report::new(),
                attribution: AttributionAggregate::new(),
                telemetry: TelemetrySnapshot::new(),
                trials: 0,
                finalized: false,
                spec,
            };
            replay_recorded(&mut state, &monitored)?;
            queue_slices(&mut scheduler, ci, &state);
            states.push(state);
        }

        // Capture the queue before Shared owns the scheduler: each
        // pending slice becomes an Enqueued span at logical t = 0.
        let enqueued: Vec<(u64, String)> = {
            let (pending, leased, done) = scheduler.counts();
            (0..(pending + leased + done) as u64)
                .filter_map(|id| {
                    scheduler
                        .spec(id)
                        .map(|spec| (id, states[spec.campaign].spec.name.clone()))
                })
                .collect()
        };
        let shared = Arc::new(Shared {
            flight: options.flight_recorder.then(FlightRecorder::new),
            options,
            core: Mutex::new(Core {
                scheduler,
                campaigns: states,
            }),
            work: Condvar::new(),
            done: AtomicBool::new(false),
            worker_conns: AtomicUsize::new(0),
            start: Instant::now(),
            registry: Arc::new(telemetry::Registry::new()),
            errors: PaperErrors::new(),
            monitored,
        });
        for (slice_id, campaign) in enqueued {
            shared.record_span(0, &campaign, slice_id, SpanKind::Enqueued, None);
        }

        // A fully-recorded journal leaves a campaign with no slices:
        // finalize it now so `--once` with nothing to do still writes
        // artefacts and exits.
        {
            let mut core = shared.core.lock().expect("no panics while holding lock");
            finalize_ready(&shared, &mut core);
        }
        Ok(Server { listener, shared })
    }

    /// The bound address (useful with a `:0` listen port).
    ///
    /// # Errors
    ///
    /// The socket refuses to report its address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves the fleet. In `once` mode, returns the summary when
    /// every campaign is complete and the last worker connection
    /// closed; otherwise runs until the process dies.
    ///
    /// # Errors
    ///
    /// Accept-loop failures other than the nonblocking wait.
    pub fn run(self) -> io::Result<FleetSummary> {
        let Server { listener, shared } = self;
        loop {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || handle_connection(&shared, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if shared.options.once
                        && shared.done.load(Ordering::SeqCst)
                        && shared.worker_conns.load(Ordering::SeqCst) == 0
                    {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
        let core = shared.core.lock().expect("no panics while holding lock");
        Ok(FleetSummary {
            campaigns: core
                .campaigns
                .iter()
                .map(|c| CampaignOutcome {
                    name: c.spec.name.clone(),
                    journal_path: c.journal_path.clone(),
                    out_dir: c.out_dir.clone(),
                    e1_report: c.e1_report.clone(),
                    e2_report: c.e2_report.clone(),
                    attribution: c.attribution.clone(),
                    telemetry: c.telemetry.clone(),
                    trials: c.trials,
                })
                .collect(),
        })
    }
}

/// Loads an existing journal (if any) and pre-folds its records:
/// every distinct trial of [`Journal::walk`] into the reports, the
/// attribution aggregate and the recorded-key set, exactly as a replay
/// would.
fn replay_recorded(state: &mut CampaignState, monitored: &MonitoredMap) -> io::Result<()> {
    if !state.journal_path.exists() {
        return Ok(());
    }
    let journal = Journal::load(&state.journal_path).map_err(io::Error::other)?;
    if !journal
        .header
        .protocol
        .compatible_with(&state.spec.protocol)
    {
        return Err(io::Error::other(format!(
            "journal {} was recorded under a different protocol",
            state.journal_path.display()
        )));
    }
    let path = state.journal_path.display().to_string();
    journal
        .walk(|record, error| {
            state.recorded.insert(record.key());
            fold_record(state, record, error, monitored);
        })
        .map_err(|e| io::Error::other(format!("journal {path}: {e}")))
}

/// Folds one resolved record into a campaign's reports and attribution
/// aggregate; returns the record's attribution event.
fn fold_record(
    state: &mut CampaignState,
    record: &TrialRecord,
    error: PaperError<'_>,
    monitored: &MonitoredMap,
) -> AttributionEvent {
    let event = match error {
        PaperError::E1(error) => {
            state.e1_report.record(error, &record.trial);
            error.attribution_event(record.case_index, &record.trial, monitored)
        }
        PaperError::E2(error) => {
            state.e2_report.record(error, &record.trial);
            error.attribution_event(record.case_index, &record.trial, monitored)
        }
    };
    state.attribution.record(&event);
    event
}

/// Folds one worker-submitted record and appends it, with its
/// attribution event, to the campaign journal.
fn fold_and_append(
    state: &mut CampaignState,
    record: &TrialRecord,
    shared: &Shared,
) -> io::Result<()> {
    let error = shared.errors.resolve(record).map_err(io::Error::other)?;
    let event = fold_record(state, record, error, &shared.monitored);
    state.journal.append(
        record.campaign,
        record.error_number,
        record.case_index,
        &record.trial,
    )?;
    state.journal.append_attribution(&event)?;
    state.trials += 1;
    Ok(())
}

/// Queues one slice per still-incomplete ⟨kind, case⟩ cell: every
/// trial of a case stays in one slice, so a worker builds each
/// fault-free prefix exactly once and the fleet's checkpoint-cache
/// counters sum to the single-process reference.
fn queue_slices(scheduler: &mut Scheduler, campaign: usize, state: &CampaignState) {
    let cases = state.spec.protocol.cases_per_error();
    let phases = [
        (CampaignKind::E1, &state.spec.e1_numbers),
        (CampaignKind::E2, &state.spec.e2_numbers),
    ];
    for (kind, numbers) in phases {
        for case_index in 0..cases {
            let pending: Vec<usize> = numbers
                .iter()
                .copied()
                .filter(|&n| !state.recorded.contains(&(kind, n, case_index)))
                .collect();
            if !pending.is_empty() {
                scheduler.push(SliceSpec {
                    campaign,
                    kind,
                    case_index,
                    error_numbers: pending,
                });
            }
        }
    }
}

/// Finalizes every campaign whose slices are all done, and raises the
/// fleet-wide done flag when nothing is left anywhere.
fn finalize_ready(shared: &Shared, core: &mut Core) {
    for ci in 0..core.campaigns.len() {
        if core.scheduler.campaign_done(ci) && !core.campaigns[ci].finalized {
            if let Err(e) = finalize_campaign(&mut core.campaigns[ci], shared.flight.as_ref()) {
                eprintln!(
                    "fleet_server: finalizing campaign `{}` failed: {e}",
                    core.campaigns[ci].spec.name
                );
            }
            core.campaigns[ci].finalized = true;
        }
    }
    if core.scheduler.all_done() {
        shared.done.store(true, Ordering::SeqCst);
    }
}

/// Writes one finished campaign's artefacts: the JSON reports, Tables
/// 6–9, the merged telemetry report, the attribution report and (when
/// the flight recorder is on) the canonical flight log — the same
/// layout `full_campaign` produces, nested under the campaign's name.
fn finalize_campaign(state: &mut CampaignState, flight: Option<&FlightRecorder>) -> io::Result<()> {
    state.journal.sync()?;
    std::fs::create_dir_all(&state.out_dir)?;
    std::fs::write(
        state.out_dir.join("e1.json"),
        serde_json::to_string_pretty(&state.e1_report).expect("report serialises"),
    )?;
    std::fs::write(
        state.out_dir.join("e2.json"),
        serde_json::to_string_pretty(&state.e2_report).expect("report serialises"),
    )?;
    let e1_errors: Vec<E1Error> = {
        let full = error_set::e1();
        state
            .spec
            .e1_numbers
            .iter()
            .filter_map(|&n| full.get(n - 1).copied())
            .collect()
    };
    let cases = state.spec.protocol.cases_per_error();
    for (name, text) in [
        ("table6.txt", tables::render_table6(&e1_errors, cases)),
        ("table7.txt", tables::render_table7(&state.e1_report)),
        ("table8.txt", tables::render_table8(&state.e1_report)),
        ("table9.txt", tables::render_table9(&state.e2_report)),
    ] {
        std::fs::write(state.out_dir.join(name), text)?;
    }
    let run = telemetry::RunMetadata::for_run(&state.spec.protocol, true, None);
    let telemetry_report =
        telemetry::TelemetryReport::assemble("fleet_server", run.clone(), state.telemetry.clone());
    telemetry::write_report(
        &state.out_dir.join("telemetry"),
        "fleet_server",
        &telemetry_report,
    )?;
    let attribution_report = attribution::AttributionReport::assemble(
        "fleet_server",
        run.clone(),
        state.attribution.clone(),
    );
    attribution::write_report(
        &state.out_dir.join("attribution"),
        "fleet_server",
        &attribution_report,
    )?;
    let aggregate = ConvergenceAggregate::from_reports(&state.e1_report, &state.e2_report);
    let convergence_report = convergence::ConvergenceReport::assemble(
        "fleet_server",
        run,
        aggregate,
        convergence::DEFAULT_DELTA,
    );
    convergence::write_report(
        &state.out_dir.join("convergence"),
        "fleet_server",
        &convergence_report,
    )?;
    if let Some(flight) = flight {
        let log = FlightLog::from_events(flight.snapshot()).for_campaign(&state.spec.name);
        let dir = state.out_dir.join("trace");
        std::fs::create_dir_all(&dir)?;
        let json = serde_json::to_string_pretty(&log).expect("flight log serialises");
        std::fs::write(dir.join("flight_log.json"), format!("{json}\n"))?;
    }
    Ok(())
}

/// Decrements the worker-connection count when a connection thread
/// unwinds, however it exits.
struct ConnGuard<'a>(&'a Shared);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.worker_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Routes one accepted connection: HTTP for `"GET "` prefixes, the
/// framed worker protocol for everything else.
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let mut prefix = [0u8; 4];
    if let Err(e) = std::io::Read::read_exact(&mut stream, &mut prefix) {
        let _ = e;
        return;
    }
    if &prefix == b"GET " {
        http::handle(shared, stream);
        return;
    }
    shared.worker_conns.fetch_add(1, Ordering::SeqCst);
    let guard = ConnGuard(shared);
    serve_worker(shared, stream, prefix);
    drop(guard);
}

/// The worker conversation: register-first handshake, then a strict
/// command/response loop. Disconnects — clean or abrupt — release the
/// worker's leases immediately.
fn serve_worker(shared: &Shared, mut stream: TcpStream, prefix: [u8; 4]) {
    // First frame must be a version-matched Register.
    let first: Command = match read_frame_after_prefix(&mut stream, prefix) {
        Ok(command) => command,
        Err(_) => return,
    };
    let worker_id = match first {
        Command::Register {
            wire_version,
            worker,
        } if wire_version == WIRE_VERSION => {
            let mut core = shared.core.lock().expect("no panics while holding lock");
            let id = core.scheduler.register(&worker);
            drop(core);
            shared.registry.counter("fleet.workers.registered").inc();
            let response = Response::Registered {
                worker_id: id,
                lease_ms: shared.options.lease_ms,
            };
            if write_frame(&mut stream, &response).is_err() {
                return;
            }
            id
        }
        Command::Register { wire_version, .. } => {
            let refusal = Response::Refused {
                kind: RefusalKind::VersionMismatch,
                message: format!(
                    "worker speaks wire version {wire_version}, this server speaks {WIRE_VERSION}"
                ),
            };
            let _ = write_frame(&mut stream, &refusal);
            return;
        }
        _ => {
            let refusal = Response::Refused {
                kind: RefusalKind::Malformed,
                message: "first command must be Register".to_owned(),
            };
            let _ = write_frame(&mut stream, &refusal);
            return;
        }
    };

    // Clean EOF or any transport/framing failure ends the loop: the
    // worker is gone; its leases go back to the queue.
    while let Ok(Some(command)) = read_frame::<_, Command>(&mut stream) {
        let response = match command {
            Command::Register { .. } => Some(Response::Refused {
                kind: RefusalKind::Malformed,
                message: "already registered".to_owned(),
            }),
            Command::LeaseRequest { worker_id: claimed } => {
                Some(handle_lease(shared, worker_id, claimed))
            }
            Command::Heartbeat {
                worker_id: claimed,
                slice_id,
            } => {
                // Fire-and-forget: heartbeats race slice execution on
                // the worker, so they never get a response frame.
                let now = shared.now_ms();
                let mut core = shared.core.lock().expect("no panics while holding lock");
                if claimed == worker_id && core.scheduler.heartbeat(worker_id, slice_id, now) {
                    if let Some(name) = core.campaign_name_of(slice_id) {
                        shared.record_span(
                            now,
                            &name,
                            slice_id,
                            SpanKind::HeartbeatExtended,
                            Some(worker_id),
                        );
                    }
                }
                drop(core);
                shared.registry.counter("fleet.heartbeats").inc();
                None
            }
            Command::SliceResult {
                worker_id: claimed,
                slice_id,
                records,
                telemetry,
            } => Some(handle_result(
                shared, worker_id, claimed, slice_id, records, telemetry,
            )),
            Command::Shutdown { .. } => break,
        };
        if let Some(response) = response {
            if write_frame(&mut stream, &response).is_err() {
                break;
            }
        }
    }

    let now = shared.now_ms();
    let mut core = shared.core.lock().expect("no panics while holding lock");
    let released = core.scheduler.release_worker(worker_id);
    for &slice_id in &released {
        if let Some(name) = core.campaign_name_of(slice_id) {
            shared.record_span(now, &name, slice_id, SpanKind::Reassigned, Some(worker_id));
        }
    }
    drop(core);
    if !released.is_empty() {
        shared.work.notify_all();
        shared
            .registry
            .counter("fleet.slices.reassigned")
            .add(released.len() as u64);
    }
}

fn handle_lease(shared: &Shared, worker_id: u64, claimed: u64) -> Response {
    if claimed != worker_id {
        return Response::Refused {
            kind: RefusalKind::UnknownWorker,
            message: format!("connection registered worker {worker_id}, command claims {claimed}"),
        };
    }
    // With nothing pending the request is held, not answered: the
    // worker gets a slice as soon as one frees up, with no poll delay.
    // A result or a release wakes the wait; a lapsing lease wakes
    // nothing, so the wait also ends when the next lease lapses. After
    // one lease TTL the worker is told to ask again.
    let deadline = shared.now_ms().saturating_add(shared.options.lease_ms);
    let mut core = shared.core.lock().expect("no panics while holding lock");
    loop {
        let now = shared.now_ms();
        // Expire lapsed leases explicitly (lease() would do it anyway)
        // so heartbeat-timeout reassignments land in the flight log;
        // the old holder is unknown by the time the lease lapses.
        for slice_id in core.scheduler.expire(now) {
            if let Some(name) = core.campaign_name_of(slice_id) {
                shared.record_span(now, &name, slice_id, SpanKind::Reassigned, None);
            }
        }
        if let Some((slice_id, spec)) = core.scheduler.lease(worker_id, now) {
            let campaign = &core.campaigns[spec.campaign];
            let slice = SliceLease {
                slice_id,
                campaign: campaign.spec.name.clone(),
                kind: spec.kind,
                protocol: campaign.spec.protocol.clone(),
                case_index: spec.case_index,
                error_numbers: spec.error_numbers,
            };
            drop(core);
            shared.record_span(
                now,
                &slice.campaign,
                slice_id,
                SpanKind::Leased,
                Some(worker_id),
            );
            shared.registry.counter("fleet.slices.leased").inc();
            return Response::Lease { slice };
        }
        let done = core.scheduler.all_done();
        if done || now >= deadline {
            return Response::NoWork { done };
        }
        let wake = core
            .scheduler
            .next_expiry()
            .map_or(deadline, |expiry| expiry.min(deadline));
        core = shared
            .work
            .wait_timeout(core, Duration::from_millis(wake - now))
            .expect("no panics while holding lock")
            .0;
    }
}

fn handle_result(
    shared: &Shared,
    worker_id: u64,
    claimed: u64,
    slice_id: u64,
    records: Vec<TrialRecord>,
    telemetry: TelemetrySnapshot,
) -> Response {
    if claimed != worker_id {
        return Response::Refused {
            kind: RefusalKind::UnknownWorker,
            message: format!("connection registered worker {worker_id}, command claims {claimed}"),
        };
    }
    let mut core = shared.core.lock().expect("no panics while holding lock");
    let Some(spec) = core.scheduler.spec(slice_id).cloned() else {
        return Response::Refused {
            kind: RefusalKind::UnknownSlice,
            message: format!("slice {slice_id} was never issued"),
        };
    };
    // The records must be exactly the leased trials, in lease order —
    // anything else is a worker bug, refused before the first-wins
    // race is entered (the slice stays leased and will be reassigned).
    let matches = records.len() == spec.error_numbers.len()
        && records.iter().zip(&spec.error_numbers).all(|(r, &n)| {
            r.campaign == spec.kind && r.error_number == n && r.case_index == spec.case_index
        });
    if !matches {
        return Response::Refused {
            kind: RefusalKind::Malformed,
            message: format!("records do not match the lease of slice {slice_id}"),
        };
    }
    let now = shared.now_ms();
    let campaign_name = core.campaigns[spec.campaign].spec.name.clone();
    if !core.scheduler.complete(worker_id, slice_id) {
        drop(core);
        shared.record_span(
            now,
            &campaign_name,
            slice_id,
            SpanKind::Deduped,
            Some(worker_id),
        );
        shared.registry.counter("fleet.results.duplicate").inc();
        return Response::ResultAck { accepted: false };
    }
    shared.record_span(
        now,
        &campaign_name,
        slice_id,
        SpanKind::Submitted,
        Some(worker_id),
    );
    let state = &mut core.campaigns[spec.campaign];
    for record in &records {
        if !state.recorded.insert(record.key()) {
            continue;
        }
        if let Err(e) = fold_and_append(state, record, shared) {
            eprintln!("fleet_server: journal append failed: {e}");
        }
    }
    state.telemetry.merge(&telemetry);
    shared.record_span(
        shared.now_ms(),
        &campaign_name,
        slice_id,
        SpanKind::Folded,
        Some(worker_id),
    );
    finalize_ready(shared, &mut core);
    drop(core);
    shared.work.notify_all();
    shared.registry.counter("fleet.slices.completed").inc();
    shared
        .registry
        .counter(&format!("fleet.worker.{worker_id}.slices"))
        .inc();
    Response::ResultAck { accepted: true }
}

impl Shared {
    /// The fleet's own metric registry (lease/result/heartbeat
    /// counters, served by the HTTP telemetry endpoint alongside the
    /// merged worker snapshots).
    pub(super) fn registry(&self) -> &Arc<telemetry::Registry> {
        &self.registry
    }

    /// The flight recorder, when `--flight-recorder` is on.
    pub(super) fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }
}

impl Core {
    pub(super) fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The campaign name a slice belongs to (for span events).
    fn campaign_name_of(&self, slice_id: u64) -> Option<String> {
        self.scheduler
            .spec(slice_id)
            .map(|spec| self.campaigns[spec.campaign].spec.name.clone())
    }

    pub(super) fn campaign_views(&self) -> Vec<CampaignView> {
        self.campaigns
            .iter()
            .enumerate()
            .map(|(ci, c)| {
                let (pending, leased, done) = self.scheduler.campaign_counts(ci);
                CampaignView {
                    name: c.spec.name.clone(),
                    pending,
                    leased,
                    done,
                    trials: c.trials,
                    finalized: c.finalized,
                    telemetry: c.telemetry.clone(),
                    attribution: c.attribution.clone(),
                    coverage: ConvergenceAggregate::from_reports(&c.e1_report, &c.e2_report),
                    protocol: c.spec.protocol.clone(),
                }
            })
            .collect()
    }
}

/// A read-only snapshot of one campaign for the HTTP side-channel.
pub(super) struct CampaignView {
    pub(super) name: String,
    pub(super) pending: usize,
    pub(super) leased: usize,
    pub(super) done: usize,
    pub(super) trials: u64,
    pub(super) finalized: bool,
    pub(super) telemetry: TelemetrySnapshot,
    pub(super) attribution: AttributionAggregate,
    pub(super) coverage: ConvergenceAggregate,
    pub(super) protocol: Protocol,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_protocol_flags() {
        let options =
            ServerOptions::parse(&args(&["--scale", "2", "--observation", "1500"])).unwrap();
        let protocol = options.protocol();
        assert_eq!(protocol.cases_per_error(), 4);
        assert_eq!(protocol.observation_ms, 1_500);
        assert_eq!(
            ServerOptions::parse(&[]).unwrap().protocol(),
            Protocol::paper()
        );
    }

    #[test]
    fn rejects_an_empty_grid() {
        let err = ServerOptions::parse(&args(&["--scale", "0"])).unwrap_err();
        assert!(err.starts_with("--scale:"), "{err}");
        assert!(ServerOptions::parse(&args(&["--scale", "two"])).is_err());
        assert!(ServerOptions::parse(&args(&["--lease-ms", "0"])).is_err());
    }
}
