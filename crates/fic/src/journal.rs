//! Crash-safe trial journal: checkpoint/resume for long campaigns.
//!
//! The paper's full protocol is 2 800 E1 runs plus 5 000 E2 runs of
//! 40 s each — long enough that a campaign host can die mid-flight. The
//! journal streams one JSON line per *completed* ⟨error, test case⟩
//! trial so an interrupted campaign can be resumed without re-running
//! finished work:
//!
//! * line 1 is a [`JournalHeader`] recording the format version and the
//!   [`Protocol`] the trials were run under;
//! * every other line is either a [`TrialRecord`] keyed by
//!   ⟨campaign, error number, case index⟩ — deterministic identifiers
//!   that do not depend on worker count or completion order — or an
//!   attribution line (`{"attribution": …}`) carrying one
//!   [`AttributionEvent`] under the same key space. The two line types
//!   are structurally disjoint, so no tagging byte is needed.
//!   Campaigns write trial records only: every attribution field but
//!   the differential oracle's re-derives from the trials, so
//!   attribution lines hold oracle verdicts
//!   (`attribution_report --save-oracle`). Older journals that carry
//!   an un-enriched line per trial still load and resume; their
//!   un-enriched lines are skipped.
//!
//! Writes are batched and `fsync`'d every [`JournalWriter::batch_size`]
//! records, so a crash loses at most one unsynced batch; the trailing
//! partially-written line that a crash can leave behind is tolerated by
//! [`Journal::load`] (any *earlier* corruption is a hard error, since
//! it cannot be explained by a crash on an append-only file).
//!
//! Because every report in [`crate::results`] is a commutative
//! accumulator (counts, sums, running min/max), replaying journal
//! records in file order and then running only the missing pairs
//! produces a report identical to the uninterrupted campaign.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

use memsim::BitFlip;

use crate::attribution::AttributionEvent;
use crate::error_set::{self, E1Error, E2Error};
use crate::experiment::Trial;
use crate::protocol::Protocol;
use crate::telemetry;

/// Journal format version written into every header.
pub const FORMAT_VERSION: u32 = 1;

/// Default number of records appended between `fsync`s.
pub const DEFAULT_BATCH_SIZE: usize = 16;

/// Flush latency above which a sync counts as a stall (µs): a batched
/// `fsync` on a healthy local disk finishes in well under 50 ms, so a
/// flush that takes longer means the campaign disk is backing up.
pub const DEFAULT_STALL_THRESHOLD_US: u64 = 250_000;

/// Which campaign a trial belongs to (E1 and E2 number their errors
/// independently, both from 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CampaignKind {
    /// Error set E1: signal-bit errors (Tables 7 and 8).
    E1,
    /// Error set E2: random RAM/stack flips (Table 9).
    E2,
}

impl CampaignKind {
    /// Lowercase phase label used in telemetry metric names and
    /// progress events (`e1`, `e2`).
    pub const fn label(self) -> &'static str {
        match self {
            CampaignKind::E1 => "e1",
            CampaignKind::E2 => "e2",
        }
    }
}

/// First line of every journal file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Format version ([`FORMAT_VERSION`]).
    pub format_version: u32,
    /// The protocol every journaled trial was run under. Keys this
    /// struct does not name are ignored on load, so a journal whose
    /// header names a grid slice loads as a partial journal that
    /// `--resume` completes.
    pub protocol: Protocol,
}

/// One completed trial: the deterministic key plus the full outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialRecord {
    /// The campaign this trial belongs to.
    pub campaign: CampaignKind,
    /// The paper's error number (1-based, stable across runs).
    pub error_number: usize,
    /// Index into [`Protocol::grid`]'s case list (row-major, stable).
    pub case_index: usize,
    /// The trial outcome.
    pub trial: Trial,
}

impl TrialRecord {
    /// The deterministic ⟨campaign, error number, case index⟩ key.
    pub const fn key(&self) -> (CampaignKind, usize, usize) {
        (self.campaign, self.error_number, self.case_index)
    }
}

/// The paper error a journal record names, as resolved by
/// [`PaperErrors::resolve`].
#[derive(Debug, Clone, Copy)]
pub enum PaperError<'a> {
    /// An error of set E1.
    E1(&'a E1Error),
    /// An error of set E2.
    E2(&'a E2Error),
}

impl PaperError<'_> {
    /// The SWIFI coordinates of the error.
    pub const fn flip(self) -> BitFlip {
        match self {
            PaperError::E1(error) => error.flip,
            PaperError::E2(error) => error.flip,
        }
    }
}

/// The paper's error sets ([`error_set::e1`] / [`error_set::e2`]),
/// held for resolving journal records. Usable on its own by checkers
/// that look at every record, duplicates included.
#[derive(Debug)]
pub struct PaperErrors {
    e1: Vec<E1Error>,
    e2: Vec<E2Error>,
}

impl Default for PaperErrors {
    fn default() -> Self {
        PaperErrors::new()
    }
}

impl PaperErrors {
    /// Builds both error sets.
    pub fn new() -> Self {
        PaperErrors {
            e1: error_set::e1(),
            e2: error_set::e2(),
        }
    }

    /// The paper error `record` names. Both sets number their errors
    /// densely from 1, so the number indexes the set directly.
    ///
    /// # Errors
    ///
    /// [`JournalError::Mismatch`] naming an unknown error number.
    pub fn resolve(&self, record: &TrialRecord) -> Result<PaperError<'_>, JournalError> {
        let number = record.error_number;
        let index = number.wrapping_sub(1);
        match record.campaign {
            CampaignKind::E1 => self
                .e1
                .get(index)
                .filter(|e| e.number == number)
                .map(PaperError::E1)
                .ok_or_else(|| {
                    JournalError::Mismatch(format!("unknown E1 error number S{number}"))
                }),
            CampaignKind::E2 => self
                .e2
                .get(index)
                .filter(|e| e.number == number)
                .map(PaperError::E2)
                .ok_or_else(|| JournalError::Mismatch(format!("unknown E2 error number {number}"))),
        }
    }
}

/// An attribution line: one enrichable detection-story event. Wrapped
/// in a single-key object so the line type is self-describing and can
/// never be confused with a [`TrialRecord`].
#[derive(Debug, Clone, Serialize)]
struct AttributionLine {
    attribution: AttributionEvent,
}

/// Errors raised while reading or validating a journal.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(io::Error),
    /// The header line is missing or does not parse.
    Header(String),
    /// A record line *before* the final one does not parse — the file
    /// was damaged in a way appending cannot explain.
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// Parser diagnostics.
        message: String,
    },
    /// The journal does not match the campaign being resumed
    /// (different protocol, unknown error numbers, out-of-range cases).
    Mismatch(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Header(m) => write!(f, "bad journal header: {m}"),
            JournalError::Corrupt { line, message } => {
                write!(f, "corrupt journal record at line {line}: {message}")
            }
            JournalError::Mismatch(m) => write!(f, "journal mismatch: {m}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Telemetry handles for one [`JournalWriter`]: flush latency, batch
/// sizes and bytes written. Built from a
/// [`telemetry::Registry`]; absent handles cost nothing (the same
/// zero-cost contract as the rest of the telemetry layer).
#[derive(Debug)]
pub struct JournalTelemetry {
    flush_latency_us: std::sync::Arc<telemetry::Histogram>,
    batch_records: std::sync::Arc<telemetry::Histogram>,
    bytes_written: std::sync::Arc<telemetry::Counter>,
    appends: std::sync::Arc<telemetry::Counter>,
    flush_stalls: std::sync::Arc<telemetry::Counter>,
}

impl JournalTelemetry {
    /// Registers the journal metric family in `registry`.
    pub fn register(registry: &telemetry::Registry) -> Self {
        JournalTelemetry {
            flush_latency_us: registry
                .histogram("journal.flush_latency_us", &telemetry::span_bounds_us()),
            batch_records: registry
                .histogram("journal.batch_records", &telemetry::small_count_bounds()),
            bytes_written: registry.counter("journal.bytes_written"),
            appends: registry.counter("journal.appends"),
            flush_stalls: registry.counter("journal.flush_stalls"),
        }
    }
}

/// Streams completed trials to an append-only JSONL file with batched
/// `fsync`.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    buffer: String,
    unsynced: usize,
    batch_size: usize,
    telemetry: Option<JournalTelemetry>,
    stall_threshold_us: u64,
    stalls_warned: u64,
}

impl JournalWriter {
    /// Creates (truncating) a journal for a fresh campaign and writes
    /// the header, synced, before returning.
    ///
    /// # Errors
    ///
    /// Any filesystem failure.
    pub fn create(path: &Path, protocol: &Protocol) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut writer = JournalWriter {
            file,
            buffer: String::new(),
            unsynced: 0,
            batch_size: DEFAULT_BATCH_SIZE,
            telemetry: None,
            stall_threshold_us: DEFAULT_STALL_THRESHOLD_US,
            stalls_warned: 0,
        };
        let header = JournalHeader {
            format_version: FORMAT_VERSION,
            protocol: protocol.clone(),
        };
        let line = serde_json::to_string(&header).expect("header serialises");
        writer.buffer.push_str(&line);
        writer.buffer.push('\n');
        writer.sync()?;
        Ok(writer)
    }

    /// Opens an existing journal for appending (resume); creates a
    /// fresh one if `path` does not exist, is empty or holds no whole
    /// line. A torn final line left by a crash — any bytes after the
    /// last newline, the ones [`Journal::load`] drops — is truncated
    /// away so new records start on a fresh line. Header validity is
    /// the reader's concern — [`Journal::load`] before resuming.
    ///
    /// # Errors
    ///
    /// Any filesystem failure.
    pub fn append_to(path: &Path, protocol: &Protocol) -> io::Result<Self> {
        let exists = std::fs::metadata(path)
            .map(|m| m.len() > 0)
            .unwrap_or(false);
        if !exists {
            return Self::create(path, protocol);
        }
        let content = std::fs::read(path)?;
        let Some(pos) = content.iter().rposition(|&b| b == b'\n') else {
            // Not even the header line is whole: start afresh.
            return Self::create(path, protocol);
        };
        if pos + 1 < content.len() {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len((pos + 1) as u64)?;
            f.sync_data()?;
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(JournalWriter {
            file,
            buffer: String::new(),
            unsynced: 0,
            batch_size: DEFAULT_BATCH_SIZE,
            telemetry: None,
            stall_threshold_us: DEFAULT_STALL_THRESHOLD_US,
            stalls_warned: 0,
        })
    }

    /// Sets the records-per-`fsync` batch size (min 1).
    pub fn batch_size(mut self, records: usize) -> Self {
        self.batch_size = records.max(1);
        self
    }

    /// Attaches telemetry handles (flush latency, batch sizes, bytes).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: JournalTelemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Sets the flush-latency threshold (µs) above which a sync counts
    /// as a stall: `journal.flush_stalls` is bumped and the first few
    /// stalls warn on stderr so a backing-up campaign disk is visible
    /// instead of silent. Only observed when telemetry is attached.
    #[must_use]
    pub fn stall_threshold_us(mut self, threshold_us: u64) -> Self {
        self.stall_threshold_us = threshold_us;
        self
    }

    /// Total syncs that exceeded the stall threshold so far.
    pub fn flush_stalls(&self) -> u64 {
        self.telemetry.as_ref().map_or(0, |t| t.flush_stalls.get())
    }

    /// Appends one attribution event; flushes and syncs when the batch
    /// fills. Events share the trial batch, so a crash loses trials and
    /// their attribution together.
    ///
    /// # Errors
    ///
    /// Any filesystem failure while flushing a full batch.
    pub fn append_attribution(&mut self, event: &AttributionEvent) -> io::Result<()> {
        let line = serde_json::to_string(&AttributionLine {
            attribution: event.clone(),
        })
        .expect("attribution event serialises");
        self.buffer.push_str(&line);
        self.buffer.push('\n');
        self.unsynced += 1;
        if let Some(t) = &self.telemetry {
            t.appends.inc();
        }
        if self.unsynced >= self.batch_size {
            self.sync()?;
        }
        Ok(())
    }

    /// Appends one completed trial; flushes and syncs when the batch
    /// fills.
    ///
    /// # Errors
    ///
    /// Any filesystem failure while flushing a full batch.
    pub fn append(
        &mut self,
        campaign: CampaignKind,
        error_number: usize,
        case_index: usize,
        trial: &Trial,
    ) -> io::Result<()> {
        let record = TrialRecord {
            campaign,
            error_number,
            case_index,
            trial: trial.clone(),
        };
        let line = serde_json::to_string(&record).expect("record serialises");
        self.buffer.push_str(&line);
        self.buffer.push('\n');
        self.unsynced += 1;
        if let Some(t) = &self.telemetry {
            t.appends.inc();
        }
        if self.unsynced >= self.batch_size {
            self.sync()?;
        }
        Ok(())
    }

    /// Flushes buffered records to disk and `fsync`s.
    ///
    /// # Errors
    ///
    /// Any filesystem failure.
    pub fn sync(&mut self) -> io::Result<()> {
        let start = self.telemetry.as_ref().map(|t| {
            t.batch_records.record(self.unsynced as u64);
            t.bytes_written.add(self.buffer.len() as u64);
            std::time::Instant::now()
        });
        if !self.buffer.is_empty() {
            self.file.write_all(self.buffer.as_bytes())?;
            self.buffer.clear();
        }
        self.file.sync_data()?;
        self.unsynced = 0;
        if let (Some(start), Some(t)) = (start, self.telemetry.as_ref()) {
            let elapsed_us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            t.flush_latency_us.record(elapsed_us);
            if elapsed_us > self.stall_threshold_us {
                t.flush_stalls.inc();
                // Warn loudly the first few times, then stay quiet —
                // the counter keeps the full tally for telemetry.
                if self.stalls_warned < 3 {
                    self.stalls_warned += 1;
                    eprintln!(
                        "warning: journal flush stalled for {elapsed_us} µs \
                         (threshold {} µs) — campaign disk may be backing up \
                         (stall #{} this writer)",
                        self.stall_threshold_us,
                        t.flush_stalls.get(),
                    );
                }
            }
        }
        Ok(())
    }

    /// Consumes the writer, flushing and syncing the final partial
    /// batch. Prefer this over relying on `Drop` at the end of a
    /// campaign: `Drop` performs the same flush but must swallow any
    /// I/O error, whereas `finish` surfaces it.
    ///
    /// # Errors
    ///
    /// Any filesystem failure while flushing the last batch.
    pub fn finish(mut self) -> io::Result<()> {
        self.sync()
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        // Best-effort final flush; errors here have nowhere to go —
        // callers that care use `finish` instead.
        let _ = self.sync();
    }
}

/// A parsed journal: header plus every intact record in file order.
#[derive(Debug, Clone)]
pub struct Journal {
    /// The campaign configuration the trials were run under.
    pub header: JournalHeader,
    /// Every intact record, in append order (duplicates possible after
    /// unusual crash/retry interleavings — [`Journal::walk`]
    /// deduplicates).
    pub records: Vec<TrialRecord>,
    /// Every intact attribution event, in append order (same
    /// duplicate caveat; consumers deduplicate first-wins by key).
    pub attribution: Vec<AttributionEvent>,
    /// Whether a partial trailing line was dropped (crash evidence).
    pub truncated_tail: bool,
}

impl Journal {
    /// Loads and parses a journal file. A partial final line (the
    /// expected signature of a crash mid-append: unparseable, or
    /// missing its newline) is dropped and flagged in
    /// [`Journal::truncated_tail`]; unparseable content anywhere else
    /// is a [`JournalError::Corrupt`].
    ///
    /// # Errors
    ///
    /// I/O failures, a bad header, or mid-file corruption.
    pub fn load(path: &Path) -> Result<Journal, JournalError> {
        let content = std::fs::read_to_string(path)?;
        let mut lines = content
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .peekable();
        let Some((_, header_line)) = lines.next() else {
            return Err(JournalError::Header("empty journal file".to_owned()));
        };
        let header: JournalHeader =
            serde_json::from_str(header_line).map_err(|e| JournalError::Header(e.to_string()))?;
        if header.format_version != FORMAT_VERSION {
            return Err(JournalError::Header(format!(
                "unsupported format version {} (this build reads {})",
                header.format_version, FORMAT_VERSION
            )));
        }
        let mut records = Vec::new();
        let mut attribution = Vec::new();
        let mut truncated_tail = false;
        let newline_ended = content.trim_end_matches([' ', '\t', '\r']).ends_with('\n');
        while let Some((index, line)) = lines.next() {
            let last = lines.peek().is_none();
            if last && !newline_ended {
                // A line is written whole, newline included, so a final
                // line without one is torn even if it parses. The
                // writer cuts it off on resume ([`JournalWriter::append_to`]),
                // and the trial is re-run.
                truncated_tail = true;
                break;
            }
            // Parse once, then dispatch: an attribution line is the only
            // record type with an `attribution` key.
            let parsed =
                serde_json::parse_value(line).and_then(|value| match value.get("attribution") {
                    Some(event) => AttributionEvent::from_value(event).map(|e| attribution.push(e)),
                    None => TrialRecord::from_value(&value).map(|r| records.push(r)),
                });
            match parsed {
                Ok(()) => {}
                Err(_) if last => {
                    // Torn final line: the crash signature. Drop it;
                    // the trial will simply be re-run.
                    truncated_tail = true;
                }
                Err(e) => {
                    return Err(JournalError::Corrupt {
                        line: index + 1,
                        message: e.to_string(),
                    });
                }
            }
        }
        Ok(Journal {
            header,
            records,
            attribution,
            truncated_tail,
        })
    }

    /// Visits every distinct trial in file order together with the
    /// paper error it names — the one journal walk every consumer
    /// shares. Duplicate keys are visited once (first occurrence wins;
    /// trials are deterministic per key, so duplicates are identical
    /// anyway).
    ///
    /// # Errors
    ///
    /// [`JournalError::Mismatch`] when a record names an unknown error
    /// number or an out-of-range case index; records before it have
    /// been visited.
    pub fn walk(
        &self,
        mut visit: impl FnMut(&TrialRecord, PaperError<'_>),
    ) -> Result<(), JournalError> {
        let errors = PaperErrors::new();
        let cases = self.header.protocol.cases_per_error();
        let mut seen = std::collections::HashSet::new();
        for record in &self.records {
            if record.case_index >= cases {
                return Err(JournalError::Mismatch(format!(
                    "case index {} out of range (protocol has {} cases/error)",
                    record.case_index, cases
                )));
            }
            if seen.insert(record.key()) {
                visit(record, errors.resolve(record)?);
            }
        }
        Ok(())
    }
}

// HashSet key needs Hash; CampaignKind is a two-variant field-less enum.
impl std::hash::Hash for CampaignKind {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u8(match self {
            CampaignKind::E1 => 0,
            CampaignKind::E2 => 1,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::CampaignFold;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fic-journal-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.jsonl")
    }

    fn sample_trial(detected_at: Option<u64>) -> Trial {
        let mut per_ea_first_ms = [None; 7];
        if let Some(at) = detected_at {
            per_ea_first_ms[5] = Some(at);
        }
        Trial {
            failed: detected_at.is_none(),
            per_ea_first_ms,
            first_injection_ms: 20,
            final_distance_m: 187.5,
        }
    }

    #[test]
    fn round_trips_header_and_records() {
        let path = temp_path("roundtrip");
        let protocol = Protocol::scaled(2, 1_000);
        let mut writer = JournalWriter::create(&path, &protocol).unwrap();
        writer
            .append(CampaignKind::E1, 7, 3, &sample_trial(Some(140)))
            .unwrap();
        writer
            .append(CampaignKind::E2, 7, 0, &sample_trial(None))
            .unwrap();
        writer.sync().unwrap();
        drop(writer);

        let journal = Journal::load(&path).unwrap();
        assert_eq!(journal.header.format_version, FORMAT_VERSION);
        assert_eq!(journal.header.protocol.cases_per_error(), 4);
        assert_eq!(journal.records.len(), 2);
        assert!(!journal.truncated_tail);
        assert_eq!(journal.records[0].campaign, CampaignKind::E1);
        assert_eq!(journal.records[0].error_number, 7);
        assert_eq!(journal.records[0].case_index, 3);
        assert_eq!(journal.records[0].trial, sample_trial(Some(140)));
        assert_eq!(journal.records[1].campaign, CampaignKind::E2);
    }

    #[test]
    fn batched_records_survive_without_explicit_sync() {
        let path = temp_path("batch");
        let protocol = Protocol::scaled(1, 1_000);
        let mut writer = JournalWriter::create(&path, &protocol)
            .unwrap()
            .batch_size(2);
        for k in 0..5 {
            writer
                .append(CampaignKind::E1, k + 1, 0, &sample_trial(None))
                .unwrap();
        }
        // Two full batches (4 records) must already be on disk.
        let on_disk = Journal::load(&path).unwrap();
        assert!(
            on_disk.records.len() >= 4,
            "len = {}",
            on_disk.records.len()
        );
        drop(writer); // Drop flushes the odd record out.
        assert_eq!(Journal::load(&path).unwrap().records.len(), 5);
    }

    #[test]
    fn finish_flushes_the_partial_batch() {
        let path = temp_path("finish");
        let protocol = Protocol::scaled(1, 1_000);
        let mut writer = JournalWriter::create(&path, &protocol)
            .unwrap()
            .batch_size(100);
        for k in 0..3 {
            writer
                .append(CampaignKind::E1, k + 1, 0, &sample_trial(None))
                .unwrap();
        }
        // The batch never filled, so nothing past the header is on disk
        // yet...
        assert_eq!(Journal::load(&path).unwrap().records.len(), 0);
        // ...until finish() flushes the partial batch — and, unlike
        // Drop, reports whether that flush made it to disk.
        writer.finish().unwrap();
        assert_eq!(Journal::load(&path).unwrap().records.len(), 3);
    }

    #[test]
    fn tolerates_torn_final_line() {
        let path = temp_path("torn");
        let protocol = Protocol::scaled(1, 1_000);
        let mut writer = JournalWriter::create(&path, &protocol).unwrap();
        writer
            .append(CampaignKind::E1, 1, 0, &sample_trial(Some(60)))
            .unwrap();
        writer.sync().unwrap();
        drop(writer);
        // Simulate a crash mid-append: half a record, no newline.
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str("{\"campaign\":\"E1\",\"error_number\":2,\"case_in");
        std::fs::write(&path, content).unwrap();

        let journal = Journal::load(&path).unwrap();
        assert_eq!(journal.records.len(), 1);
        assert!(journal.truncated_tail);
    }

    #[test]
    fn rejects_mid_file_corruption() {
        let path = temp_path("midfile");
        let protocol = Protocol::scaled(1, 1_000);
        let mut writer = JournalWriter::create(&path, &protocol).unwrap();
        for k in 0..3 {
            writer
                .append(CampaignKind::E1, k + 1, 0, &sample_trial(None))
                .unwrap();
        }
        writer.sync().unwrap();
        drop(writer);
        let content = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = content.lines().collect();
        lines[2] = "{\"garbage\": tru"; // corrupt a *middle* record
        std::fs::write(&path, lines.join("\n")).unwrap();

        match Journal::load(&path) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn attribution_lines_load_beside_records_and_tear_like_them() {
        let path = temp_path("attribution");
        let protocol = Protocol::scaled(1, 1_000);
        let error = error_set::e1()[0];
        let trial = sample_trial(Some(60));
        let event = AttributionEvent::for_e1(&error, 0, &trial);
        let mut writer = JournalWriter::create(&path, &protocol).unwrap();
        writer
            .append(CampaignKind::E1, error.number, 0, &trial)
            .unwrap();
        writer.append_attribution(&event).unwrap();
        writer
            .append(CampaignKind::E1, 2, 0, &sample_trial(None))
            .unwrap();
        writer.sync().unwrap();
        drop(writer);
        let intact = std::fs::read_to_string(&path).unwrap();

        let journal = Journal::load(&path).unwrap();
        assert_eq!(journal.records.len(), 2);
        assert_eq!(journal.attribution, vec![event.clone()]);
        assert!(!journal.truncated_tail);

        // A torn attribution line at the tail is dropped like a torn record.
        let line = intact.lines().nth(2).unwrap();
        std::fs::write(&path, format!("{intact}{}", &line[..line.len() / 2])).unwrap();
        let journal = Journal::load(&path).unwrap();
        assert_eq!(journal.attribution, vec![event]);
        assert!(journal.truncated_tail);

        // A mis-shaped attribution line mid-file is corruption.
        let mut lines: Vec<&str> = intact.lines().collect();
        lines[2] = "{\"attribution\": {\"campaign\": \"E1\"}}";
        std::fs::write(&path, lines.join("\n")).unwrap();
        match Journal::load(&path) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn rejects_missing_or_bad_header() {
        let path = temp_path("badheader");
        std::fs::write(&path, "").unwrap();
        assert!(matches!(Journal::load(&path), Err(JournalError::Header(_))));
        std::fs::write(&path, "not json\n").unwrap();
        assert!(matches!(Journal::load(&path), Err(JournalError::Header(_))));
    }

    #[test]
    fn fold_deduplicates_and_routes_campaigns() {
        let path = temp_path("replay");
        let protocol = Protocol::scaled(2, 1_000);
        let mut writer = JournalWriter::create(&path, &protocol).unwrap();
        let trial = sample_trial(Some(90));
        writer.append(CampaignKind::E1, 1, 0, &trial).unwrap();
        writer.append(CampaignKind::E1, 1, 0, &trial).unwrap(); // dupe
        writer.append(CampaignKind::E2, 1, 2, &trial).unwrap();
        writer.sync().unwrap();
        drop(writer);

        let journal = Journal::load(&path).unwrap();
        let fold = CampaignFold::from_journal(&journal).unwrap();
        assert_eq!(fold.e1.trials(), 1);
        assert_eq!(fold.e2.trials(), 1);
        assert_eq!(fold.attribution.e1_trials + fold.attribution.e2_trials, 2);
        assert!(fold.is_recorded((CampaignKind::E2, 1, 2)));
    }

    #[test]
    fn a_final_line_without_its_newline_is_torn() {
        let path = temp_path("no-newline");
        let protocol = Protocol::scaled(1, 1_000);
        let mut writer = JournalWriter::create(&path, &protocol).unwrap();
        for number in [1, 2] {
            writer
                .append(CampaignKind::E1, number, 0, &sample_trial(None))
                .unwrap();
        }
        writer.finish().unwrap();
        let whole = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, whole.trim_end()).unwrap();

        // Load and the writer agree: the record is dropped by one and
        // cut off by the other, so a resume re-runs it.
        let journal = Journal::load(&path).unwrap();
        assert!(journal.truncated_tail);
        assert_eq!(journal.records.len(), 1);
        JournalWriter::append_to(&path, &protocol)
            .unwrap()
            .finish()
            .unwrap();
        let reopened = Journal::load(&path).unwrap();
        assert!(!reopened.truncated_tail);
        assert_eq!(reopened.records, journal.records);

        // A header without its newline is the whole file: the writer
        // starts afresh instead of appending to the header's line.
        let header = whole.lines().next().unwrap();
        std::fs::write(&path, header).unwrap();
        let mut writer = JournalWriter::append_to(&path, &protocol).unwrap();
        writer
            .append(CampaignKind::E1, 1, 0, &sample_trial(None))
            .unwrap();
        writer.finish().unwrap();
        assert_eq!(Journal::load(&path).unwrap().records.len(), 1);
    }

    /// A journal under a 2 × 2 grid holding `records` in order.
    fn journal_of(records: &[(CampaignKind, usize, usize, Trial)]) -> Journal {
        Journal {
            header: JournalHeader {
                format_version: FORMAT_VERSION,
                protocol: Protocol::scaled(2, 1_000),
            },
            records: records
                .iter()
                .map(|(campaign, error_number, case_index, trial)| TrialRecord {
                    campaign: *campaign,
                    error_number: *error_number,
                    case_index: *case_index,
                    trial: trial.clone(),
                })
                .collect(),
            attribution: Vec::new(),
            truncated_tail: false,
        }
    }

    #[test]
    fn walk_visits_a_duplicated_key_once_and_the_first_trial_wins() {
        let first = sample_trial(Some(90));
        let second = sample_trial(None);
        assert_ne!(first, second);
        let journal = journal_of(&[
            (CampaignKind::E1, 3, 1, first.clone()),
            (CampaignKind::E2, 3, 1, second.clone()),
            (CampaignKind::E1, 3, 1, second),
        ]);
        let mut visited = Vec::new();
        journal
            .walk(|record, error| visited.push((record.key(), error.flip(), record.trial.clone())))
            .unwrap();
        assert_eq!(visited.len(), 2);
        assert_eq!(visited[0].0, (CampaignKind::E1, 3, 1));
        assert_eq!(visited[0].1, error_set::e1()[2].flip);
        assert_eq!(visited[0].2, first);
        assert_eq!(visited[1].0, (CampaignKind::E2, 3, 1));
        assert_eq!(visited[1].1, error_set::e2()[2].flip);
    }

    fn walk_error(journal: &Journal) -> String {
        match journal.walk(|_, _| {}) {
            Err(JournalError::Mismatch(message)) => message,
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn walk_rejects_an_out_of_range_case() {
        let journal = journal_of(&[(CampaignKind::E2, 1, 4, sample_trial(None))]);
        assert_eq!(
            walk_error(&journal),
            "case index 4 out of range (protocol has 4 cases/error)"
        );
    }

    #[test]
    fn walk_rejects_unknown_error_numbers() {
        for (campaign, number, message) in [
            (CampaignKind::E1, 0, "unknown E1 error number S0"),
            (CampaignKind::E1, 113, "unknown E1 error number S113"),
            (CampaignKind::E2, 0, "unknown E2 error number 0"),
            (CampaignKind::E2, 999, "unknown E2 error number 999"),
        ] {
            let journal = journal_of(&[(campaign, number, 0, sample_trial(None))]);
            assert_eq!(walk_error(&journal), message);
            assert!(matches!(
                CampaignFold::from_journal(&journal),
                Err(JournalError::Mismatch(m)) if m == message
            ));
        }
    }

    #[test]
    fn paper_errors_resolve_every_number_of_both_sets() {
        let errors = PaperErrors::new();
        let record = |campaign, error_number| TrialRecord {
            campaign,
            error_number,
            case_index: 0,
            trial: sample_trial(None),
        };
        for error in error_set::e1() {
            let resolved = errors.resolve(&record(CampaignKind::E1, error.number));
            assert!(matches!(resolved, Ok(PaperError::E1(e)) if *e == error));
        }
        for error in error_set::e2() {
            let resolved = errors.resolve(&record(CampaignKind::E2, error.number));
            assert!(matches!(resolved, Ok(PaperError::E2(e)) if *e == error));
        }
    }

    #[test]
    fn flush_stall_watchdog_counts_slow_syncs() {
        let path = temp_path("stalls");
        let protocol = Protocol::scaled(1, 1_000);
        let registry = telemetry::Registry::new();
        // Threshold 0 µs: every timed sync is a "stall", so the
        // watchdog path runs without needing a genuinely slow disk.
        let mut writer = JournalWriter::create(&path, &protocol)
            .unwrap()
            .with_telemetry(JournalTelemetry::register(&registry))
            .stall_threshold_us(0);
        writer
            .append(CampaignKind::E1, 1, 0, &sample_trial(None))
            .unwrap();
        writer.sync().unwrap();
        assert!(writer.flush_stalls() >= 1);
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.counters.get("journal.flush_stalls").copied(),
            Some(writer.flush_stalls())
        );

        // A sane threshold on a healthy disk records no stalls.
        let calm_registry = telemetry::Registry::new();
        let mut calm = JournalWriter::create(&temp_path("calm"), &protocol)
            .unwrap()
            .with_telemetry(JournalTelemetry::register(&calm_registry))
            .stall_threshold_us(u64::MAX);
        calm.append(CampaignKind::E1, 1, 0, &sample_trial(None))
            .unwrap();
        calm.sync().unwrap();
        assert_eq!(calm.flush_stalls(), 0);
    }
}
