//! The differential trace oracle: fault-free reference traces,
//! tick-by-tick diffing of injected runs, and minimal reproducer
//! bundles.
//!
//! The campaign's end-state analysis (detections, failure verdicts)
//! says *whether* an injected error mattered; the trace oracle says
//! *when and where*. A fault-free run is recorded once per
//! [`TestCase`] ([`ReferenceCache`] memoises it), an injected run is
//! recorded with the same instrumentation, and [`diff`] reports:
//!
//! * the **first divergence** — the earliest tick at which any recorded
//!   signal differs from the reference, with its scheduler slot. For an
//!   error that becomes a data error this bounds the detection latency
//!   from below, so `first_divergence ≤ first_detection` cross-checks
//!   Tables 8–9 independently of the assertion log;
//! * the **propagation path** — the order in which further signals
//!   diverge, which is the paper's `Pprop` made visible: a flip whose
//!   path never reaches a monitored signal cannot be detected by an
//!   assertion on that signal.
//!
//! On a golden-run, table-gate or assertion failure, [`ReproBundle`]
//! packages the offending ⟨error, case⟩ with the divergence report and
//! a trace excerpt into one JSON file (under `results/repro/`, or
//! `target/batch-repro/` for the test suites) so the failure replays
//! from it (see EXPERIMENTS.md, "Tracing & differential oracle").

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use arrestor::trace::{TickRecord, Trace};
use arrestor::{RunConfig, System};
use serde::{Deserialize, Serialize};
use simenv::TestCase;

use crate::experiment::Trial;
use crate::protocol::Protocol;
use crate::telemetry;

/// One signal's first departure from the reference trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignalDivergence {
    /// The diverging signal (a [`TickRecord`] field name).
    pub signal: String,
    /// Simulation time of the first difference, ms.
    pub t_ms: u64,
    /// Scheduler slot executing at that tick (0..6).
    pub slot: u16,
    /// Reference value, rendered.
    pub reference: String,
    /// Observed value, rendered.
    pub observed: String,
}

/// The oracle's verdict on one observed trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceDiff {
    /// The earliest divergence (record-field order breaks ties within a
    /// tick, so monitored signals win over derived plant state).
    pub first: Option<SignalDivergence>,
    /// First divergence of every signal that ever departs, in time
    /// order — the propagation path through the signal graph.
    pub path: Vec<SignalDivergence>,
    /// Ticks compared (the shorter of the two traces).
    pub compared_ticks: usize,
    /// Whether the traces had different lengths (never the case for
    /// runs under one protocol; reported rather than silently clipped).
    pub length_mismatch: bool,
}

impl TraceDiff {
    /// Whether any signal diverged.
    pub fn diverged(&self) -> bool {
        self.first.is_some()
    }

    /// Time of the first divergence, ms.
    pub fn first_divergence_ms(&self) -> Option<u64> {
        self.first.as_ref().map(|d| d.t_ms)
    }

    /// Scheduler slot of the first divergence.
    pub fn first_divergence_slot(&self) -> Option<u16> {
        self.first.as_ref().map(|d| d.slot)
    }

    /// Whether the propagation path reaches `signal` (e.g. a monitored
    /// signal name — empirical `Pprop` evidence).
    pub fn reaches(&self, signal: &str) -> bool {
        self.path.iter().any(|d| d.signal == signal)
    }
}

/// Compares an observed trace against a reference, tick by tick.
///
/// Every [`TickRecord`] field is compared with exact (bitwise for
/// floats) equality; the first difference per signal is recorded. The
/// result's `path` is ordered by divergence time, so `path[0] ==
/// first`.
pub fn diff(reference: &Trace, observed: &Trace) -> TraceDiff {
    let compared_ticks = reference.records.len().min(observed.records.len());
    let mut path: Vec<SignalDivergence> = Vec::new();
    let mut seen = [false; arrestor::trace::FIELD_COUNT];
    for (r, o) in reference
        .records
        .iter()
        .zip(&observed.records)
        .take(compared_ticks)
    {
        for (k, ((name, rv), (_, ov))) in r.fields().iter().zip(o.fields().iter()).enumerate() {
            if !seen[k] && *rv != *ov {
                seen[k] = true;
                path.push(SignalDivergence {
                    signal: (*name).to_owned(),
                    t_ms: o.t_ms,
                    slot: o.slot(),
                    reference: rv.to_string(),
                    observed: ov.to_string(),
                });
            }
        }
        if seen.iter().all(|s| *s) {
            break;
        }
    }
    TraceDiff {
        first: path.first().cloned(),
        path,
        compared_ticks,
        length_mismatch: reference.records.len() != observed.records.len(),
    }
}

/// Records the fault-free reference trace of one test case under the
/// protocol's observation window.
pub fn record_reference(protocol: &Protocol, case: TestCase) -> Trace {
    let config = RunConfig {
        observation_ms: protocol.observation_ms,
        trace: true,
        ..RunConfig::default()
    };
    let outcome = System::new(case, config).run_to_completion();
    outcome.trace.expect("tracing was enabled")
}

/// Memoised fault-free reference traces, one per test case.
///
/// A campaign diffs many injected trials of the same case against the
/// same golden trace; the cache records it on first use and shares it
/// (thread-safely) afterwards.
#[derive(Debug)]
pub struct ReferenceCache {
    protocol: Protocol,
    cache: Mutex<HashMap<(u64, u64), Arc<Trace>>>,
    hits: Option<Arc<telemetry::Counter>>,
    misses: Option<Arc<telemetry::Counter>>,
    record_us: Option<Arc<telemetry::Histogram>>,
}

impl ReferenceCache {
    /// An empty cache for the given protocol.
    pub fn new(protocol: Protocol) -> Self {
        ReferenceCache {
            protocol,
            cache: Mutex::new(HashMap::new()),
            hits: None,
            misses: None,
            record_us: None,
        }
    }

    /// Attaches telemetry: memo hits and misses are counted under
    /// `trace.reference.cache.{hits,misses}` and reference recording
    /// time under `trace.reference.record_us`.
    #[must_use]
    pub fn with_telemetry(mut self, registry: &telemetry::Registry) -> Self {
        self.hits = Some(registry.counter("trace.reference.cache.hits"));
        self.misses = Some(registry.counter("trace.reference.cache.misses"));
        self.record_us =
            Some(registry.histogram("trace.reference.record_us", &telemetry::span_bounds_us()));
        self
    }

    /// The protocol the references are recorded under.
    pub fn protocol(&self) -> &Protocol {
        &self.protocol
    }

    /// The reference trace for `case`, recording it on first use.
    pub fn get(&self, case: TestCase) -> Arc<Trace> {
        let key = (case.mass_kg.to_bits(), case.velocity_ms.to_bits());
        if let Some(hit) = self.cache.lock().expect("cache lock").get(&key) {
            if let Some(c) = &self.hits {
                c.inc();
            }
            return Arc::clone(hit);
        }
        if let Some(c) = &self.misses {
            c.inc();
        }
        // Record outside the lock: a miss costs a full fault-free run
        // and must not serialise other cases behind it.
        let span = self
            .record_us
            .as_ref()
            .map(|h| telemetry::SpanTimer::start(Arc::clone(h)));
        let trace = Arc::new(record_reference(&self.protocol, case));
        drop(span);
        Arc::clone(
            self.cache
                .lock()
                .expect("cache lock")
                .entry(key)
                .or_insert(trace),
        )
    }

    /// Number of memoised cases.
    pub fn len(&self) -> usize {
        self.cache.lock().expect("cache lock").len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Records one diffed trial's divergence-to-detection interval into
/// `registry` (histogram `trace.divergence_to_detection_ms`): first
/// divergence of any recorded signal → first detection by any
/// mechanism. The trace oracle bounds detection latency from below
/// (`first_divergence ≤ first_detection`), so the distribution of this
/// interval cross-checks the Table 8–9 latency distributions
/// independently of the assertion log. Returns the interval when the
/// trial both diverged and was detected.
pub fn record_divergence_to_detection(
    registry: &telemetry::Registry,
    divergence: &TraceDiff,
    trial: &Trial,
) -> Option<u64> {
    let diverged = divergence.first_divergence_ms()?;
    let detected = trial.first_detection(arrestor::EaSet::ALL)?;
    let interval = detected.saturating_sub(diverged);
    registry
        .histogram(
            "trace.divergence_to_detection_ms",
            &telemetry::latency_bounds_ms(),
        )
        .record(interval);
    Some(interval)
}

/// Schema version of [`ReproBundle`] files.
pub const REPRO_SCHEMA_VERSION: u32 = 1;

/// The injected error a reproducer replays, in campaign coordinates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReproError {
    /// Human label (`S37`, `E2#152`, `ram:0x1a.3`, …).
    pub label: String,
    /// Memory region (`AppRam` or `Stack`).
    pub region: String,
    /// Byte address within the region.
    pub addr: usize,
    /// Bit position (0 = LSB).
    pub bit: u8,
}

impl ReproError {
    /// Describes a flip with a label.
    pub fn new(label: impl Into<String>, flip: memsim::BitFlip) -> Self {
        ReproError {
            label: label.into(),
            region: format!("{:?}", flip.region),
            addr: flip.addr,
            bit: flip.bit,
        }
    }
}

/// A reference/observed record pair from the divergence window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReproTick {
    /// Simulation time, ms.
    pub t_ms: u64,
    /// The fault-free record.
    pub reference: TickRecord,
    /// The injected run's record.
    pub observed: TickRecord,
}

/// A minimal, self-contained reproducer: everything needed to re-run
/// and understand one divergent ⟨error, case⟩ trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReproBundle {
    /// [`REPRO_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Why the bundle was dumped (a journal line that departs from
    /// its reference, a spurious detection, …).
    pub reason: String,
    /// The protocol the trial ran under.
    pub protocol: Protocol,
    /// The test case.
    pub case: TestCase,
    /// The injected error (absent for fault-free violations).
    pub error: Option<ReproError>,
    /// The trial outcome (absent for fault-free violations).
    pub trial: Option<Trial>,
    /// The oracle's divergence report.
    pub divergence: TraceDiff,
    /// Reference/observed records around the first divergence
    /// (±[`REPRO_WINDOW_RADIUS_MS`] ms).
    pub window: Vec<ReproTick>,
}

/// Half-width of the record excerpt around the first divergence, ms.
pub const REPRO_WINDOW_RADIUS_MS: u64 = 10;

impl ReproBundle {
    /// Assembles a bundle from a diffed trial. The excerpt window is
    /// centred on the first divergence (empty when nothing diverged).
    pub fn assemble(
        reason: impl Into<String>,
        protocol: &Protocol,
        case: TestCase,
        error: Option<ReproError>,
        trial: Option<Trial>,
        reference: &Trace,
        observed: &Trace,
    ) -> Self {
        let divergence = diff(reference, observed);
        let window = divergence
            .first_divergence_ms()
            .map(|t0| {
                let lo = t0.saturating_sub(REPRO_WINDOW_RADIUS_MS);
                let hi = t0 + REPRO_WINDOW_RADIUS_MS;
                (lo..=hi)
                    .filter_map(|t| {
                        Some(ReproTick {
                            t_ms: t,
                            reference: *reference.at(t)?,
                            observed: *observed.at(t)?,
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        ReproBundle {
            schema_version: REPRO_SCHEMA_VERSION,
            reason: reason.into(),
            protocol: protocol.clone(),
            case,
            error,
            trial,
            divergence,
            window,
        }
    }
}

/// Writes a bundle as pretty JSON to `dir/<label>.json`, creating the
/// directory as needed, and returns the path written.
///
/// # Errors
///
/// Any filesystem failure.
pub fn write_repro(dir: &Path, label: &str, bundle: &ReproBundle) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let sanitized: String = label
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let path = dir.join(format!("{sanitized}.json"));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(bundle).expect("bundle serialises"),
    )?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{BitFlip, Region};

    fn tiny_protocol() -> Protocol {
        Protocol::scaled(1, 300)
    }

    #[test]
    fn fault_free_rerun_has_no_divergence() {
        let protocol = tiny_protocol();
        let case = protocol.grid.cases()[0];
        let a = record_reference(&protocol, case);
        let b = record_reference(&protocol, case);
        assert_eq!(a.len(), 300);
        let d = diff(&a, &b);
        assert!(!d.diverged(), "unexpected divergence: {:?}", d.first);
        assert!(d.path.is_empty());
        assert_eq!(d.compared_ticks, 300);
        assert!(!d.length_mismatch);
    }

    #[test]
    fn synthetic_divergence_is_located_and_ordered() {
        let protocol = tiny_protocol();
        let case = protocol.grid.cases()[0];
        let reference = record_reference(&protocol, case);
        let mut observed = reference.clone();
        // Corrupt mscnt from t = 100 and OutValue from t = 150.
        for r in &mut observed.records {
            if r.t_ms >= 100 {
                r.signals.mscnt ^= 0x8000;
            }
            if r.t_ms >= 150 {
                r.signals.out_value ^= 0x0004;
            }
        }
        let d = diff(&reference, &observed);
        let first = d.first.as_ref().expect("diverged");
        assert_eq!(first.signal, "mscnt");
        assert_eq!(first.t_ms, 100);
        assert_eq!(
            d.first_divergence_slot(),
            Some(observed.at(100).unwrap().slot())
        );
        assert!(d.reaches("OutValue"));
        assert!(!d.reaches("IsValue"));
        // Path is time-ordered and starts with the first divergence.
        assert_eq!(d.path[0], *first);
        for pair in d.path.windows(2) {
            assert!(pair[0].t_ms <= pair[1].t_ms);
        }
    }

    #[test]
    fn reference_cache_memoises_per_case() {
        let cache = ReferenceCache::new(tiny_protocol());
        let cases = tiny_protocol().grid.cases();
        let a = cache.get(cases[0]);
        let b = cache.get(cases[0]);
        assert!(Arc::ptr_eq(&a, &b), "same case must share one trace");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn repro_bundle_round_trips_through_json() {
        let protocol = tiny_protocol();
        let case = protocol.grid.cases()[0];
        let reference = record_reference(&protocol, case);
        let mut observed = reference.clone();
        for r in &mut observed.records {
            if r.t_ms >= 42 {
                r.signals.pulscnt ^= 1;
            }
        }
        let bundle = ReproBundle::assemble(
            "unit test",
            &protocol,
            case,
            Some(ReproError::new("S1", BitFlip::new(Region::AppRam, 8, 0))),
            None,
            &reference,
            &observed,
        );
        assert_eq!(bundle.divergence.first_divergence_ms(), Some(42));
        assert!(!bundle.window.is_empty());

        let dir = std::env::temp_dir().join(format!("fic-repro-test-{}", std::process::id()));
        let path = write_repro(&dir, "unit/test:S1", &bundle).unwrap();
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .eq("unit_test_S1.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let back: ReproBundle = serde_json::from_str(&text).unwrap();
        assert_eq!(bundle, back);
    }
}
