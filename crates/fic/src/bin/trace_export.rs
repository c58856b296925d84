//! Converts a fleet flight log into Chrome `trace_event` JSON.
//!
//! The fleet server (run with `--flight-recorder`) writes each
//! campaign's slice lifecycle spans to `trace/flight_log.json`. This
//! binary converts that artefact: load the flight log, validate it
//! against the pinned schema, and write the Chrome trace — loadable in
//! `chrome://tracing` or Perfetto, one process row per campaign, one
//! thread row per slice.
//!
//! ```text
//! usage: trace_export <flight_log.json> <out.json>
//! ```
//!
//! Exits 0 on success, 1 on unreadable or schema-invalid input.

use std::process::ExitCode;

use fic::cli;
use fic::fleet::FlightLog;

fn main() -> ExitCode {
    // The parser guarantees both operands.
    let (input, output) = cli::TRACE_EXPORT
        .from_env(|args| Ok((args.operands()[0].clone(), args.operands()[1].clone())));
    let text = match std::fs::read_to_string(&input) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let log: FlightLog = match serde_json::from_str(&text) {
        Ok(log) => log,
        Err(e) => {
            eprintln!("{input} does not parse as a flight log: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = log.validate() {
        eprintln!("{input}: INVALID: {e}");
        return ExitCode::FAILURE;
    }
    let trace = serde_json::to_string_pretty(&log.to_chrome_trace()).expect("trace serialises");
    if let Err(e) = std::fs::write(&output, format!("{trace}\n")) {
        eprintln!("cannot write {output}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("{} span event(s) exported to {output}", log.events.len());
    ExitCode::SUCCESS
}
