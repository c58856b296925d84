//! The fleet flight recorder: logical-time span events for every slice
//! lifecycle transition.
//!
//! A fleet campaign's wall clock hides structure: how long slices sat
//! in the queue, how long workers held them, where reassignment stalls
//! bit. The flight recorder captures one [`SpanEvent`] per transition
//! of the scheduler's state machine —
//!
//! ```text
//! Enqueued → Leased → (HeartbeatExtended)* → Submitted → Folded
//!               │
//!               └──▶ Reassigned (lease lapsed / worker died) → Leased …
//! Submitted-after-reassignment that lost the first-wins race → Deduped
//! ```
//!
//! — so the campaign's elapsed time decomposes into lease wait,
//! execution, fold and stall segments. Events use the server's logical
//! clock (`now_ms` since bind), the same time base the scheduler's
//! leases run on; the pure [`super::scheduler::Scheduler`] stays
//! clock- and observer-free — transitions are recorded at the server
//! call sites that drive it.
//!
//! The artefact is a schema-versioned [`FlightLog`]
//! (`<out>/<campaign>/trace/flight_log.json`), canonically ordered so
//! any arrival interleaving folds to identical bytes, and exportable
//! as Chrome `trace_event` JSON (chrome://tracing, Perfetto) via
//! [`FlightLog::to_chrome_trace`] by the `trace_export` binary.
//!
//! Observer contract: recording appends to a mutex-guarded vector and
//! touches no campaign state; result artefacts are byte-identical with
//! the recorder on or off (`tests/profile_equivalence.rs`).

use std::sync::Mutex;

use serde::{Deserialize, Serialize, Value};

/// Schema version of the persisted flight log. Bump on any breaking
/// change to [`FlightLog`] or [`SpanEvent`].
pub const FLIGHT_SCHEMA_VERSION: u32 = 1;

/// Artefact discriminator of a flight log.
pub const FLIGHT_KIND: &str = "fleet-flight-log";

/// One slice lifecycle transition. The variant order is the canonical
/// tie-break for events stamped on the same logical millisecond.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SpanKind {
    /// The slice entered the queue (server bind or resume).
    Enqueued,
    /// A worker took the lease.
    Leased,
    /// A heartbeat extended the lease.
    HeartbeatExtended,
    /// The lease lapsed or its holder disconnected; the slice fell
    /// back to pending.
    Reassigned,
    /// A result for the slice was accepted (won the first-wins race).
    Submitted,
    /// The accepted result was folded into reports and journal.
    Folded,
    /// A late duplicate result arrived after the race was decided.
    Deduped,
}

impl SpanKind {
    /// Stable lowercase name used in exports.
    pub const fn name(self) -> &'static str {
        match self {
            SpanKind::Enqueued => "enqueued",
            SpanKind::Leased => "leased",
            SpanKind::HeartbeatExtended => "heartbeat_extended",
            SpanKind::Reassigned => "reassigned",
            SpanKind::Submitted => "submitted",
            SpanKind::Folded => "folded",
            SpanKind::Deduped => "deduped",
        }
    }
}

/// One recorded transition on the server's logical clock.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Logical milliseconds since the server bound its listener.
    pub at_ms: u64,
    /// Campaign the slice belongs to.
    pub campaign: String,
    /// Scheduler slice id.
    pub slice_id: u64,
    /// Which transition happened.
    pub kind: SpanKind,
    /// The worker involved, when the transition has one.
    pub worker: Option<u64>,
}

/// Append-only in-memory recorder shared between connection threads.
///
/// Same `Option`-handle contract as telemetry: a server without a
/// recorder executes the identical instruction stream it always did.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    events: Mutex<Vec<SpanEvent>>,
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// Appends one transition.
    pub fn record(&self, event: SpanEvent) {
        self.events
            .lock()
            .expect("no panics while holding lock")
            .push(event);
    }

    /// A copy of everything recorded so far, in arrival order.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        self.events
            .lock()
            .expect("no panics while holding lock")
            .clone()
    }
}

/// The persisted flight log: canonically ordered span events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightLog {
    /// [`FLIGHT_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Always [`FLIGHT_KIND`].
    pub kind: String,
    /// Events in canonical order (see [`FlightLog::from_events`]).
    pub events: Vec<SpanEvent>,
}

impl FlightLog {
    /// Builds a log from events in any arrival order: the canonical
    /// sort key is `(campaign, slice_id, at_ms, kind, worker)`, so two
    /// recorders that saw the same transitions in different
    /// interleavings fold to byte-identical logs
    /// (`crates/fic/tests/prop_flight.rs`).
    pub fn from_events(mut events: Vec<SpanEvent>) -> Self {
        events.sort_by(|a, b| {
            (&a.campaign, a.slice_id, a.at_ms, a.kind, a.worker).cmp(&(
                &b.campaign,
                b.slice_id,
                b.at_ms,
                b.kind,
                b.worker,
            ))
        });
        FlightLog {
            schema_version: FLIGHT_SCHEMA_VERSION,
            kind: FLIGHT_KIND.to_owned(),
            events,
        }
    }

    /// Keeps only one campaign's events (for per-campaign artefacts).
    #[must_use]
    pub fn for_campaign(&self, campaign: &str) -> FlightLog {
        FlightLog::from_events(
            self.events
                .iter()
                .filter(|e| e.campaign == campaign)
                .cloned()
                .collect(),
        )
    }

    /// Structural validation: version, discriminator, canonical order.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != FLIGHT_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} (this build reads {})",
                self.schema_version, FLIGHT_SCHEMA_VERSION
            ));
        }
        if self.kind != FLIGHT_KIND {
            return Err(format!("unexpected kind `{}`", self.kind));
        }
        let ordered = self.events.windows(2).all(|w| {
            (
                &w[0].campaign,
                w[0].slice_id,
                w[0].at_ms,
                w[0].kind,
                w[0].worker,
            ) <= (
                &w[1].campaign,
                w[1].slice_id,
                w[1].at_ms,
                w[1].kind,
                w[1].worker,
            )
        });
        if !ordered {
            return Err("events not in canonical order".to_owned());
        }
        Ok(())
    }

    /// Renders the log as a Chrome `trace_event` document
    /// (chrome://tracing, Perfetto): each campaign is a process, each
    /// slice a thread, and the lifecycle decomposes into `lease wait`
    /// (enqueued/reassigned → leased), `execute` (leased → submitted),
    /// `lost lease` (leased → reassigned) and `fold` (submitted →
    /// folded) duration spans, with heartbeats and deduped duplicates
    /// as instant events. Timestamps are logical µs (`at_ms × 1000`).
    pub fn to_chrome_trace(&self) -> Value {
        let mut campaigns: Vec<&str> = self.events.iter().map(|e| e.campaign.as_str()).collect();
        campaigns.sort_unstable();
        campaigns.dedup();
        let pid_of = |name: &str| -> i128 {
            campaigns.iter().position(|c| *c == name).unwrap_or(0) as i128 + 1
        };
        let mut trace: Vec<Value> = campaigns
            .iter()
            .map(|&name| {
                Value::Object(vec![
                    ("name".to_owned(), Value::Str("process_name".to_owned())),
                    ("ph".to_owned(), Value::Str("M".to_owned())),
                    ("pid".to_owned(), Value::Int(pid_of(name))),
                    ("tid".to_owned(), Value::Int(0)),
                    (
                        "args".to_owned(),
                        Value::Object(vec![(
                            "name".to_owned(),
                            Value::Str(format!("campaign {name}")),
                        )]),
                    ),
                ])
            })
            .collect();

        let span = |name: &str, e: &SpanEvent, start_ms: u64, end_ms: u64| -> Value {
            let mut args = vec![("slice".to_owned(), Value::Int(i128::from(e.slice_id)))];
            if let Some(w) = e.worker {
                args.push(("worker".to_owned(), Value::Int(i128::from(w))));
            }
            Value::Object(vec![
                ("name".to_owned(), Value::Str(name.to_owned())),
                ("ph".to_owned(), Value::Str("X".to_owned())),
                ("ts".to_owned(), Value::Int(i128::from(start_ms) * 1_000)),
                (
                    "dur".to_owned(),
                    Value::Int(i128::from(end_ms.saturating_sub(start_ms)) * 1_000),
                ),
                ("pid".to_owned(), Value::Int(pid_of(&e.campaign))),
                ("tid".to_owned(), Value::Int(i128::from(e.slice_id))),
                ("args".to_owned(), Value::Object(args)),
            ])
        };
        let instant = |name: &str, e: &SpanEvent| -> Value {
            Value::Object(vec![
                ("name".to_owned(), Value::Str(name.to_owned())),
                ("ph".to_owned(), Value::Str("i".to_owned())),
                ("s".to_owned(), Value::Str("t".to_owned())),
                ("ts".to_owned(), Value::Int(i128::from(e.at_ms) * 1_000)),
                ("pid".to_owned(), Value::Int(pid_of(&e.campaign))),
                ("tid".to_owned(), Value::Int(i128::from(e.slice_id))),
            ])
        };

        // Walk each slice's events in time order, closing the open
        // segment at every state change. The canonical order groups by
        // (campaign, slice_id) already.
        let mut k = 0;
        while k < self.events.len() {
            let slice_end = self.events[k..]
                .iter()
                .position(|e| {
                    (e.campaign.as_str(), e.slice_id)
                        != (self.events[k].campaign.as_str(), self.events[k].slice_id)
                })
                .map_or(self.events.len(), |n| k + n);
            let mut waiting_since: Option<u64> = None;
            let mut leased_since: Option<u64> = None;
            let mut submitted_since: Option<u64> = None;
            for e in &self.events[k..slice_end] {
                match e.kind {
                    SpanKind::Enqueued => waiting_since = Some(e.at_ms),
                    SpanKind::Leased => {
                        if let Some(start) = waiting_since.take() {
                            trace.push(span("lease wait", e, start, e.at_ms));
                        }
                        leased_since = Some(e.at_ms);
                    }
                    SpanKind::HeartbeatExtended => trace.push(instant("heartbeat", e)),
                    SpanKind::Reassigned => {
                        if let Some(start) = leased_since.take() {
                            trace.push(span("lost lease", e, start, e.at_ms));
                        }
                        waiting_since = Some(e.at_ms);
                    }
                    SpanKind::Submitted => {
                        if let Some(start) = leased_since.take() {
                            trace.push(span("execute", e, start, e.at_ms));
                        }
                        submitted_since = Some(e.at_ms);
                    }
                    SpanKind::Folded => {
                        if let Some(start) = submitted_since.take() {
                            trace.push(span("fold", e, start, e.at_ms));
                        }
                    }
                    SpanKind::Deduped => trace.push(instant("deduped", e)),
                }
            }
            k = slice_end;
        }
        Value::Object(vec![
            ("traceEvents".to_owned(), Value::Array(trace)),
            ("displayTimeUnit".to_owned(), Value::Str("ms".to_owned())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(at_ms: u64, slice_id: u64, kind: SpanKind, worker: Option<u64>) -> SpanEvent {
        SpanEvent {
            at_ms,
            campaign: "c".to_owned(),
            slice_id,
            kind,
            worker,
        }
    }

    fn lifecycle() -> Vec<SpanEvent> {
        vec![
            event(0, 0, SpanKind::Enqueued, None),
            event(10, 0, SpanKind::Leased, Some(1)),
            event(20, 0, SpanKind::HeartbeatExtended, Some(1)),
            event(30, 0, SpanKind::Reassigned, Some(1)),
            event(35, 0, SpanKind::Leased, Some(2)),
            event(50, 0, SpanKind::Submitted, Some(2)),
            event(51, 0, SpanKind::Folded, Some(2)),
            event(60, 0, SpanKind::Deduped, Some(1)),
        ]
    }

    #[test]
    fn canonical_order_is_arrival_order_independent() {
        let forward = FlightLog::from_events(lifecycle());
        let mut shuffled = lifecycle();
        shuffled.reverse();
        shuffled.swap(1, 4);
        assert_eq!(FlightLog::from_events(shuffled), forward);
        forward.validate().expect("canonical log validates");
    }

    #[test]
    fn round_trips_through_json() {
        let log = FlightLog::from_events(lifecycle());
        let json = serde_json::to_string_pretty(&log).unwrap();
        let back: FlightLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn chrome_trace_decomposes_the_lifecycle() {
        let log = FlightLog::from_events(lifecycle());
        let trace = log.to_chrome_trace();
        let json = serde_json::to_string(&trace).unwrap();
        for expected in [
            "\"lease wait\"",
            "\"execute\"",
            "\"lost lease\"",
            "\"fold\"",
            "\"heartbeat\"",
            "\"deduped\"",
            "\"traceEvents\"",
            "\"displayTimeUnit\"",
        ] {
            assert!(json.contains(expected), "missing {expected} in {json}");
        }
        // lease wait: enqueue@0 → lease@10 = 10 ms = 10_000 µs.
        assert!(json.contains("\"dur\": 10000") || json.contains("\"dur\":10000"));
    }

    #[test]
    fn recorder_snapshots_in_arrival_order() {
        let recorder = FlightRecorder::new();
        recorder.record(event(5, 1, SpanKind::Enqueued, None));
        recorder.record(event(1, 0, SpanKind::Enqueued, None));
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.len(), 2);
        assert_eq!(snapshot[0].slice_id, 1);
    }

    #[test]
    fn validate_rejects_disorder_and_wrong_kind() {
        let mut log = FlightLog::from_events(lifecycle());
        log.events.reverse();
        assert!(log.validate().unwrap_err().contains("canonical"));
        let mut wrong = FlightLog::from_events(lifecycle());
        wrong.kind = "journal".to_owned();
        assert!(wrong.validate().is_err());
    }
}
