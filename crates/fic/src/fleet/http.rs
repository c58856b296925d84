//! The server's HTTP side-channel: live fleet status and the merged
//! telemetry, attribution and coverage snapshots, all as JSON.
//!
//! Served on the *same* port as the worker protocol — the accept loop
//! sniffs the first four bytes and hands `"GET "` connections here with
//! that prefix already consumed. Responses are plain HTTP/1.1 JSON with
//! `Connection: close`; no keep-alive, no chunking. Any other path
//! answers `404 Not Found` with a `no such route` JSON error.
//!
//! Routes:
//!
//! | Path           | Body                                                   |
//! |----------------|--------------------------------------------------------|
//! | `/status`      | queue/lease/done counts per campaign + worker          |
//! |                | liveness scoreboard (lease age, heartbeat staleness,   |
//! |                | slices in flight)                                      |
//! | `/telemetry`   | per-campaign merged worker telemetry + fleet counters  |
//! | `/attribution` | per-campaign live attribution reports                  |
//! | `/coverage`    | per-campaign Wilson-CI convergence snapshot            |
//! | `/trace`       | Chrome `trace_event` JSON of the flight recorder       |

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use serde::{Serialize, Value};

use crate::attribution::AttributionReport;
use crate::convergence::{self, CoverageSnapshot};
use crate::telemetry::{RunMetadata, TelemetryReport};

use super::server::Shared;

/// Upper bound on the request head (line + headers) we will buffer.
const MAX_REQUEST_HEAD: usize = 16 * 1024;

/// Serves one HTTP connection whose `"GET "` prefix was already read.
pub(super) fn handle(shared: &Arc<Shared>, stream: TcpStream) {
    let peer = stream.try_clone();
    let mut reader = BufReader::new(stream.take(MAX_REQUEST_HEAD as u64));
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain headers so the client's request is fully consumed before we
    // respond (some clients treat an early response as an error).
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) => {}
            Err(_) => return,
        }
    }
    let Ok(mut stream) = peer else { return };
    // The prefix "GET " is consumed, so the line starts at the path.
    let path = request_line.split_whitespace().next().unwrap_or("");
    match path {
        "/status" => respond_json(&mut stream, "200 OK", &status_value(shared)),
        "/telemetry" => respond_json(&mut stream, "200 OK", &telemetry_value(shared)),
        "/attribution" => respond_json(&mut stream, "200 OK", &attribution_value(shared)),
        "/coverage" => respond_json(&mut stream, "200 OK", &coverage_value(shared)),
        "/trace" => match shared.flight() {
            Some(flight) => respond_json(
                &mut stream,
                "200 OK",
                &crate::fleet::recorder::FlightLog::from_events(flight.snapshot())
                    .to_chrome_trace(),
            ),
            None => respond_json(
                &mut stream,
                "404 Not Found",
                &Value::Object(vec![(
                    "error".to_owned(),
                    Value::Str(
                        "flight recorder disabled (start the server with --flight-recorder)"
                            .to_owned(),
                    ),
                )]),
            ),
        },
        _ => respond_json(
            &mut stream,
            "404 Not Found",
            &Value::Object(vec![(
                "error".to_owned(),
                Value::Str(format!("no such route `{path}`")),
            )]),
        ),
    }
}

/// The `/status` document: fleet done flag, per-campaign slice counts
/// and trial totals, and the worker liveness scoreboard (lease age,
/// heartbeat staleness and slices in flight per worker, derived from
/// the scheduler's slice table).
fn status_value(shared: &Shared) -> Value {
    let now = shared.now_ms();
    let core = shared.core.lock().expect("no panics while holding lock");
    let campaigns: Vec<Value> = core
        .campaign_views()
        .into_iter()
        .map(|view| {
            Value::Object(vec![
                ("name".to_owned(), Value::Str(view.name)),
                ("pending".to_owned(), Value::Int(view.pending as i128)),
                ("leased".to_owned(), Value::Int(view.leased as i128)),
                ("done".to_owned(), Value::Int(view.done as i128)),
                ("trials".to_owned(), Value::Int(i128::from(view.trials))),
                ("finalized".to_owned(), Value::Bool(view.finalized)),
            ])
        })
        .collect();
    let optional_ms = |ms: Option<u64>| ms.map_or(Value::Null, |ms| Value::Int(i128::from(ms)));
    let workers: Vec<Value> = core
        .scheduler()
        .liveness(now)
        .into_iter()
        .map(|row| {
            Value::Object(vec![
                ("id".to_owned(), Value::Int(i128::from(row.worker_id))),
                ("name".to_owned(), Value::Str(row.name)),
                (
                    "completed".to_owned(),
                    Value::Int(i128::from(row.completed)),
                ),
                ("connected".to_owned(), Value::Bool(row.connected)),
                (
                    "slices_in_flight".to_owned(),
                    Value::Int(row.slices_in_flight as i128),
                ),
                (
                    "oldest_lease_age_ms".to_owned(),
                    optional_ms(row.oldest_lease_age_ms),
                ),
                (
                    "heartbeat_staleness_ms".to_owned(),
                    optional_ms(row.heartbeat_staleness_ms),
                ),
            ])
        })
        .collect();
    drop(core);
    Value::Object(vec![
        (
            "done".to_owned(),
            Value::Bool(shared.done.load(Ordering::SeqCst)),
        ),
        ("campaigns".to_owned(), Value::Array(campaigns)),
        ("workers".to_owned(), Value::Array(workers)),
    ])
}

/// The `/telemetry` document: one schema-versioned [`TelemetryReport`]
/// per campaign (the live merge of every accepted worker snapshot) plus
/// the server's own fleet counters.
fn telemetry_value(shared: &Shared) -> Value {
    let views = {
        let core = shared.core.lock().expect("no panics while holding lock");
        core.campaign_views()
    };
    let campaigns: Vec<(String, Value)> = views
        .into_iter()
        .map(|view| {
            let run = RunMetadata::for_run(&view.protocol, true, None);
            let report = TelemetryReport::assemble("fleet_server", run, view.telemetry);
            (view.name, report.to_value())
        })
        .collect();
    Value::Object(vec![
        ("campaigns".to_owned(), Value::Object(campaigns)),
        ("fleet".to_owned(), shared.registry().snapshot().to_value()),
    ])
}

/// The `/attribution` document: one schema-versioned
/// [`AttributionReport`] per campaign, folded live from accepted
/// results.
fn attribution_value(shared: &Shared) -> Value {
    let views = {
        let core = shared.core.lock().expect("no panics while holding lock");
        core.campaign_views()
    };
    let campaigns: Vec<(String, Value)> = views
        .into_iter()
        .map(|view| {
            let run = RunMetadata::for_run(&view.protocol, true, None);
            let report = AttributionReport::assemble("fleet_server", run, view.attribution);
            (view.name, report.to_value())
        })
        .collect();
    Value::Object(vec![("campaigns".to_owned(), Value::Object(campaigns))])
}

/// The `/coverage` document: a [`CoverageSnapshot`] with one
/// Wilson-CI convergence view per campaign, derived on demand from the
/// live reports — the estimator is a pure function of the folded
/// trials, so serving it cannot perturb a result bit.
fn coverage_value(shared: &Shared) -> Value {
    let views = {
        let core = shared.core.lock().expect("no panics while holding lock");
        core.campaign_views()
    };
    let campaigns = views
        .into_iter()
        .map(|view| {
            view.coverage
                .coverage(&view.name, convergence::DEFAULT_DELTA)
        })
        .collect();
    CoverageSnapshot::new(campaigns).to_value()
}

/// Writes a JSON response with `Content-Length` and closes.
fn respond_json(stream: &mut TcpStream, status: &str, value: &Value) {
    let mut body = serde_json::to_string_pretty(value).expect("value serialises");
    body.push('\n');
    let head = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: application/json\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()));
}
