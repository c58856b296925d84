//! A fleet campaign worker: connects to a `fleet_server`, leases grid
//! slices, runs them through the ordinary campaign engine and streams
//! the results back until the server reports the fleet done.
//!
//! ```text
//! fleet_worker [--connect host:port] [--name label] [--threads n]
//!              [--connect-timeout-ms ms] [--die-after-leases n]
//! ```
//!
//! `--die-after-leases n` is the crash-drill hook: the process drops
//! its connection mid-lease (sending nothing, like a SIGKILL) right
//! after taking its n-th lease and exits 137, so CI can verify lease
//! reassignment without actual process murder.

use std::process::ExitCode;

use fic::fleet::{run_worker, WorkerOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match WorkerOptions::parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("fleet_worker: {e}");
            eprintln!(
                "usage: fleet_worker [--connect host:port] [--name label] [--threads n] \
                 [--connect-timeout-ms ms] [--die-after-leases n]"
            );
            return ExitCode::from(2);
        }
    };
    match run_worker(&options) {
        Ok(summary) if summary.died => {
            eprintln!(
                "fleet_worker: {} died on purpose after {} lease(s) (--die-after-leases)",
                options.name, summary.leases
            );
            // The conventional SIGKILL exit status, so harnesses treat
            // the drill like a real worker death.
            ExitCode::from(137)
        }
        Ok(summary) => {
            println!(
                "fleet_worker: {} done — {} slices, {} trials, {} duplicate result(s) discarded",
                options.name, summary.slices_completed, summary.trials, summary.slices_duplicate
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fleet_worker: {e}");
            ExitCode::FAILURE
        }
    }
}
