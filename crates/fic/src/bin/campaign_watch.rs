//! Live TTY convergence view: watch a campaign settle statistically.
//!
//! Two sources, one renderer:
//!
//! * `--journal <file>` tails a local trial journal (the
//!   `full_campaign --journal` / fleet server file): each tick the
//!   journal is re-read, replayed ([`fic::Journal::replay`]), folded
//!   through [`fic::ConvergenceAggregate::from_reports`], and rendered
//!   as the per-cell Wilson-CI table with the "trials remaining to ±δ"
//!   forecast.
//! * `--connect <host:port>` polls a fleet server's `/coverage`
//!   endpoint (and `/status` for the done flag) and renders the same
//!   view for every campaign the server is running; the watch exits
//!   when the fleet reports done.
//!
//! The view is throttled: `--interval-ms <n>` (default 1000) sets the
//! refresh period, on a terminal the screen is redrawn in place, off a
//! terminal a frame is only printed when it changed. `--delta <f>`
//! overrides the ±0.05 precision target and `--once` renders a single
//! frame and exits (the CI smoke mode).
//!
//! Watching is a pure read: neither source is mutated, so a watch can
//! run against a live campaign without perturbing a result bit.

use std::io::{IsTerminal, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use fic::convergence::{self, ConvergenceAggregate, CoverageSnapshot};
use fic::journal::Journal;
use serde::Value;

/// Parsed `campaign_watch` arguments.
struct WatchOptions {
    journal: Option<PathBuf>,
    connect: Option<String>,
    interval_ms: u64,
    delta: f64,
    once: bool,
}

impl WatchOptions {
    fn parse(args: &[String]) -> Result<WatchOptions, String> {
        let mut options = WatchOptions {
            journal: None,
            connect: None,
            interval_ms: 1_000,
            delta: convergence::DEFAULT_DELTA,
            once: false,
        };
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut value = |name: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--journal" => options.journal = Some(PathBuf::from(value("--journal")?)),
                "--connect" => options.connect = Some(value("--connect")?),
                "--interval-ms" => {
                    options.interval_ms = value("--interval-ms")?
                        .parse()
                        .map_err(|e| format!("--interval-ms: {e}"))?;
                }
                "--delta" => {
                    options.delta = value("--delta")?
                        .parse()
                        .map_err(|e| format!("--delta: {e}"))?;
                }
                "--once" => options.once = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        match (&options.journal, &options.connect) {
            (None, None) => Err("one of --journal or --connect is required".to_owned()),
            (Some(_), Some(_)) => Err("--journal and --connect are mutually exclusive".to_owned()),
            _ => {
                if options.delta <= 0.0 || !options.delta.is_finite() {
                    return Err("--delta must be a positive number".to_owned());
                }
                Ok(options)
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match WatchOptions::parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("campaign_watch: {message}");
            eprintln!(
                "usage: campaign_watch (--journal file | --connect host:port) \
                 [--interval-ms n] [--delta f] [--once]"
            );
            std::process::exit(2);
        }
    };
    let interval = Duration::from_millis(options.interval_ms.max(50));
    let mut last_frame = String::new();
    loop {
        let (frame, done) = match render_tick(&options) {
            Ok(tick) => tick,
            Err(message) => {
                eprintln!("campaign_watch: {message}");
                if options.once {
                    std::process::exit(1);
                }
                std::thread::sleep(interval);
                continue;
            }
        };
        draw(&frame, &mut last_frame);
        if options.once || done {
            return;
        }
        std::thread::sleep(interval);
    }
}

/// Produces one rendered frame plus the source's done flag.
fn render_tick(options: &WatchOptions) -> Result<(String, bool), String> {
    if let Some(path) = &options.journal {
        let journal =
            Journal::load(path).map_err(|e| format!("cannot load {}: {e}", path.display()))?;
        let (e1, e2) = journal.replay().map_err(|e| {
            format!(
                "{} does not match the paper error sets: {e}",
                path.display()
            )
        })?;
        let aggregate = ConvergenceAggregate::from_reports(&e1, &e2);
        let name = path.file_stem().map_or_else(
            || "campaign".to_owned(),
            |s| s.to_string_lossy().into_owned(),
        );
        let frame = convergence::render_coverage(&aggregate.coverage(&name, options.delta));
        return Ok((frame, false));
    }
    let addr = options
        .connect
        .as_deref()
        .expect("parse guarantees a source");
    let body = http_get(addr, "/coverage")?;
    let snapshot: CoverageSnapshot = serde_json::from_str(&body)
        .map_err(|e| format!("/coverage did not parse as a coverage snapshot: {e}"))?;
    let mut frame = String::new();
    for campaign in &snapshot.campaigns {
        frame.push_str(&convergence::render_coverage(campaign));
    }
    if snapshot.campaigns.is_empty() {
        frame.push_str("(no campaigns)\n");
    }
    let done = fleet_done(addr).unwrap_or(false);
    Ok((frame, done))
}

/// Whether the fleet's `/status` document reports every campaign done.
fn fleet_done(addr: &str) -> Result<bool, String> {
    let body = http_get(addr, "/status")?;
    let value = serde_json::parse_value(&body).map_err(|e| format!("/status: {e}"))?;
    let Value::Object(fields) = value else {
        return Err("/status is not a JSON object".to_owned());
    };
    Ok(fields
        .iter()
        .any(|(key, value)| key == "done" && *value == Value::Bool(true)))
}

/// One raw HTTP GET; returns the response body.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: fleet\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("GET {path}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("GET {path}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("GET {path}: malformed HTTP response"))?;
    if !head.starts_with("HTTP/1.1 200") {
        let status = head.lines().next().unwrap_or("");
        return Err(format!("GET {path}: {status}"));
    }
    Ok(body.to_owned())
}

/// Draws a frame: in-place redraw on a terminal, change-only append
/// otherwise (so piping to a log does not spam identical frames).
fn draw(frame: &str, last_frame: &mut String) {
    let stdout = std::io::stdout();
    if stdout.is_terminal() {
        // Clear screen + home, then the frame — a plain repaint, no
        // cursor tricks, survives any terminal.
        print!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::stdout().flush();
    } else if frame != last_frame {
        print!("{frame}");
        let _ = std::io::stdout().flush();
    }
    *last_frame = frame.to_owned();
}
