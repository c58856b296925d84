//! The fleet campaign server: serves named campaigns to `fleet_worker`
//! processes over the length-prefixed wire protocol and journals every
//! accepted slice crash-safely. The port speaks nothing else; a
//! finished campaign's tables and reports are written under
//! `<out>/<campaign>/`.
//!
//! ```text
//! fleet_server [--listen host:port] [--campaign name]... [--once]
//!              [--scale n] [--observation ms] [--e1-limit n] [--e2-limit n]
//!              [--lease-ms ms] [--out dir] [--journal-dir dir]
//!              [--flight-recorder]
//! ```
//!
//! With `--once` the server exits after every campaign converges and
//! the last registered worker disconnects, printing a per-campaign
//! summary — the CI `fleet-smoke` topology; a campaign whose artefacts
//! cannot be written makes it exit non-zero. `--flight-recorder` also
//! writes each campaign's slice lifecycle spans to
//! `<out>/<campaign>/trace/flight_log.json` (convert it with
//! `trace_export`). Restarting against the same `--journal-dir`
//! resumes: recorded trials are pre-folded and only the missing slices
//! are queued.

use std::process::ExitCode;

use fic::cli;
use fic::fleet::{Server, ServerOptions};

fn main() -> ExitCode {
    let options = cli::FLEET_SERVER.from_env(ServerOptions::from_args);
    let campaigns = options.campaign_specs();
    let server = match Server::bind(options, campaigns) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("fleet_server: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("fleet_server: listening on {addr}"),
        Err(e) => eprintln!("fleet_server: listening (local address unavailable: {e})"),
    }
    match server.run() {
        Ok(summary) => {
            for outcome in &summary.campaigns {
                println!(
                    "fleet_server: campaign `{}` complete — {} trials this run, \
                     journal {}, artefacts {}",
                    outcome.name,
                    outcome.trials,
                    outcome.journal_path.display(),
                    outcome.out_dir.display()
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fleet_server: {e}");
            ExitCode::FAILURE
        }
    }
}
