//! Campaign telemetry: a dependency-free metrics registry, live
//! progress stream, and end-of-campaign reports.
//!
//! A long fault-injection campaign used to be a black box: checkpoint
//! cache behaviour, settle-detector effectiveness, journal flush cost
//! and worker utilisation were invisible without a debugger. This
//! module is the instrument panel. It follows the same philosophy as
//! the vendored serde/rand shims — no external dependency, a small
//! API surface shaped exactly like the well-known thing it stands in
//! for (a Prometheus-style registry) — and the same zero-cost contract
//! as [`arrestor::RunConfig`]'s `trace` flag: every instrumented call
//! site is gated on an `Option`, so a campaign run without telemetry
//! executes the identical instruction stream it always did.
//!
//! Three layers:
//!
//! * **Metrics** — [`Counter`], [`Gauge`] and fixed-bucket
//!   [`Histogram`], all lock-free atomics; [`Registry`] hands out
//!   shared handles by name and freezes the whole catalogue into a
//!   [`TelemetrySnapshot`]. Snapshots merge associatively and
//!   commutatively (the same algebra as the campaign reports), so
//!   per-shard telemetry merges exactly like per-shard journals.
//! * **Progress** — [`Progress`] renders a throttled single-line TTY
//!   status (trials done/total, trials/sec, ETA, cache hit rate) and
//!   optionally appends periodic machine-readable snapshot events to a
//!   JSONL stream (`--telemetry-jsonl`). Snapshot events are monotone
//!   in `trials_done`.
//! * **Reports** — [`TelemetryReport`] is the end-of-campaign
//!   artefact: schema-versioned JSON under `results/telemetry/` plus a
//!   human summary table ([`render_summary`]) on stderr.
//!
//! Determinism: trial results never depend on telemetry, and no
//! wall-clock value is ever written into a result-bearing artefact
//! (tables, reports, journals, goldens). Timing lives only in
//! telemetry files, which the golden checks do not read.
//!
//! See `OBSERVABILITY.md` for the metric catalogue and the report
//! schema.

use std::collections::BTreeMap;
use std::io::{self, IsTerminal, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Schema version stamped into every telemetry report and every JSONL
/// snapshot event. Bump on any breaking change to
/// [`TelemetrySnapshot`], [`TelemetryReport`] or the progress-event
/// shape.
pub const SCHEMA_VERSION: u32 = 1;

/// A monotone event/occurrence count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` occurrences.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one occurrence.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (worker count, queue depth).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of `u64` observations.
///
/// Buckets are defined by inclusive upper bounds; an observation lands
/// in the first bucket whose bound is `≥` the value, or in the
/// implicit overflow bucket past the last bound. Bounds are fixed at
/// construction, so histograms recorded by different workers (or
/// different shards) over the same metric merge by plain
/// bucket-wise addition — the merge is associative and commutative,
/// which the telemetry property tests pin down.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last one is overflow.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` until the first observation.
    min: AtomicU64,
    /// 0 until the first observation (observations of 0 are fine: the
    /// count disambiguates).
    max: AtomicU64,
}

impl Histogram {
    /// A histogram over the given inclusive upper bounds (must be
    /// strictly increasing and non-empty).
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Exponential bounds: `start, start·factor, …` (`count` bounds).
    pub fn exponential(start: u64, factor: u64, count: usize) -> Vec<u64> {
        let mut bounds = Vec::with_capacity(count);
        let mut bound = start.max(1);
        for _ in 0..count {
            bounds.push(bound);
            bound = bound.saturating_mul(factor.max(2));
        }
        bounds
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let idx = self
            .bounds
            .partition_point(|&bound| bound < value)
            .min(self.buckets.len() - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Freezes the histogram into a serialisable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: (count > 0).then(|| self.min.load(Ordering::Relaxed)),
            max: (count > 0).then(|| self.max.load(Ordering::Relaxed)),
        }
    }
}

/// A frozen [`Histogram`]: bucket counts plus summary statistics.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds; `buckets` has one extra overflow slot.
    pub bounds: Vec<u64>,
    /// Observations per bucket (last = overflow).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation, if any.
    pub min: Option<u64>,
    /// Largest observation, if any.
    pub max: Option<u64>,
}

impl HistogramSnapshot {
    /// Mean observation, if any were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Merges another snapshot of the same metric (bucket-wise sum).
    ///
    /// # Panics
    ///
    /// When the bucket bounds differ — snapshots of two different
    /// metrics cannot be combined meaningfully.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(
            self.bounds, other.bounds,
            "merging histograms with different bucket bounds"
        );
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A thread-safe, name-keyed metric registry.
///
/// Call sites obtain shared handles once (get-or-create, behind a
/// short-lived lock) and then update them lock-free on the hot path.
/// [`Registry::snapshot`] freezes every registered metric into a
/// [`TelemetrySnapshot`] with deterministic (sorted) ordering.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// When `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().expect("registry lock");
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// When `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().expect("registry lock");
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// The histogram named `name` with the given bounds, created on
    /// first use (later callers inherit the first bounds).
    ///
    /// # Panics
    ///
    /// When `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().expect("registry lock");
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// Freezes every registered metric.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let metrics = self.metrics.lock().expect("registry lock");
        let mut snapshot = TelemetrySnapshot::new();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snapshot.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snapshot.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snapshot.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snapshot
    }
}

/// An RAII span timer: records the elapsed wall-clock time (in
/// microseconds) into a histogram when dropped.
///
/// ```
/// use fic::telemetry::{Histogram, SpanTimer};
/// use std::sync::Arc;
///
/// let hist = Arc::new(Histogram::new(&Histogram::exponential(1, 4, 10)));
/// {
///     let _span = SpanTimer::start(Arc::clone(&hist));
///     // ... timed work ...
/// }
/// assert_eq!(hist.count(), 1);
/// ```
#[derive(Debug)]
pub struct SpanTimer {
    histogram: Arc<Histogram>,
    start: Instant,
}

impl SpanTimer {
    /// Starts timing into `histogram`.
    pub fn start(histogram: Arc<Histogram>) -> Self {
        SpanTimer {
            histogram,
            start: Instant::now(),
        }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        let micros = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.histogram.record(micros);
    }
}

/// A frozen view of a [`Registry`]: every metric by name, in sorted
/// (deterministic) order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Deserialize)]
pub struct TelemetrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

// The metric maps serialize as JSON *objects* (external tooling reads
// `snapshot.counters["campaign.trials"]`), not the vendored facade's
// default `[key, value]` pair-array form for maps. The derived
// Deserialize accepts both, so either representation parses back.
impl Serialize for TelemetrySnapshot {
    fn to_value(&self) -> serde::Value {
        fn object<V: Serialize>(map: &BTreeMap<String, V>) -> serde::Value {
            serde::Value::Object(map.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
        }
        serde::Value::Object(vec![
            ("counters".to_owned(), object(&self.counters)),
            ("gauges".to_owned(), object(&self.gauges)),
            ("histograms".to_owned(), object(&self.histograms)),
        ])
    }
}

impl TelemetrySnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        TelemetrySnapshot::default()
    }

    /// A counter's value (0 when absent, as for an untouched counter).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Merges another snapshot: counters add, gauges keep the maximum
    /// (the only gauge semantics that stay commutative), histograms
    /// merge bucket-wise. Used to combine per-shard telemetry; the
    /// operation is associative and permutation-invariant (see
    /// `prop_telemetry`).
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(0);
            *slot = (*slot).max(*value);
        }
        for (name, hist) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(hist),
                None => {
                    self.histograms.insert(name.clone(), hist.clone());
                }
            }
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` per family, counters and
    /// gauges as single samples, histograms as cumulative
    /// `_bucket{le="…"}` series plus `_sum` and `_count`.
    ///
    /// Metric names are sanitised for Prometheus (every character
    /// outside `[a-zA-Z0-9_:]` becomes `_`); the HELP line carries the
    /// original dotted name, so [`TelemetrySnapshot::from_prometheus`]
    /// reconstructs the exact registry names and the exposition
    /// round-trips losslessly. Histogram min/max — which the format has
    /// no series for — travel on `# MIN` / `# MAX` comment lines, which
    /// standard scrapers skip.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let m = prometheus_name(name);
            out.push_str(&format!("# HELP {m} {name}\n# TYPE {m} counter\n"));
            out.push_str(&format!("{m} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let m = prometheus_name(name);
            out.push_str(&format!("# HELP {m} {name}\n# TYPE {m} gauge\n"));
            out.push_str(&format!("{m} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let m = prometheus_name(name);
            out.push_str(&format!("# HELP {m} {name}\n# TYPE {m} histogram\n"));
            let mut cumulative = 0u64;
            for (bound, bucket) in h.bounds.iter().zip(&h.buckets) {
                cumulative += bucket;
                out.push_str(&format!("{m}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{m}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{m}_sum {}\n", h.sum));
            out.push_str(&format!("{m}_count {}\n", h.count));
            if let (Some(min), Some(max)) = (h.min, h.max) {
                out.push_str(&format!("# MIN {m} {min}\n# MAX {m} {max}\n"));
            }
        }
        out
    }

    /// Parses a [`TelemetrySnapshot::to_prometheus`] exposition back
    /// into a snapshot. `telemetry_check --metrics` uses this to prove
    /// an exported exposition still carries exactly the snapshot it was
    /// rendered from.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed line or
    /// structural inconsistency (unknown family, bucket sums
    /// disagreeing with `_count`, …).
    pub fn from_prometheus(text: &str) -> Result<TelemetrySnapshot, String> {
        #[derive(Default)]
        struct HistAcc {
            bounds: Vec<u64>,
            cumulative: Vec<u64>,
            inf: Option<u64>,
            sum: Option<u64>,
            count: Option<u64>,
            min: Option<u64>,
            max: Option<u64>,
        }
        let mut help: BTreeMap<String, String> = BTreeMap::new();
        let mut kinds: BTreeMap<String, String> = BTreeMap::new();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<String, u64> = BTreeMap::new();
        let mut hists: BTreeMap<String, HistAcc> = BTreeMap::new();
        let parse_u64 = |s: &str, k: usize| {
            s.parse::<u64>()
                .map_err(|e| format!("line {}: `{s}`: {e}", k + 1))
        };
        for (k, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                let mut words = rest.split_whitespace();
                let directive = words.next().unwrap_or("");
                let name = words.next().unwrap_or("").to_owned();
                let tail = words.collect::<Vec<_>>().join(" ");
                match directive {
                    "HELP" => {
                        help.insert(name, tail);
                    }
                    "TYPE" => {
                        kinds.insert(name, tail);
                    }
                    "MIN" => hists.entry(name).or_default().min = Some(parse_u64(&tail, k)?),
                    "MAX" => hists.entry(name).or_default().max = Some(parse_u64(&tail, k)?),
                    // Any other comment is legal in the format; skip it.
                    _ => {}
                }
                continue;
            }
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: no sample value", k + 1))?;
            let value = parse_u64(value, k)?;
            if let Some((base, labels)) = series.split_once('{') {
                let family = base.strip_suffix("_bucket").ok_or_else(|| {
                    format!("line {}: labelled non-bucket series `{base}`", k + 1)
                })?;
                let le = labels
                    .strip_prefix("le=\"")
                    .and_then(|l| l.strip_suffix("\"}"))
                    .ok_or_else(|| format!("line {}: expected le=\"…\" label", k + 1))?;
                let acc = hists.entry(family.to_owned()).or_default();
                if le == "+Inf" {
                    acc.inf = Some(value);
                } else {
                    acc.bounds.push(parse_u64(le, k)?);
                    acc.cumulative.push(value);
                }
            } else if kinds.get(series).is_some_and(|kind| kind == "counter") {
                counters.insert(series.to_owned(), value);
            } else if kinds.get(series).is_some_and(|kind| kind == "gauge") {
                gauges.insert(series.to_owned(), value);
            } else if let Some(family) = series.strip_suffix("_sum") {
                hists.entry(family.to_owned()).or_default().sum = Some(value);
            } else if let Some(family) = series.strip_suffix("_count") {
                hists.entry(family.to_owned()).or_default().count = Some(value);
            } else {
                return Err(format!("line {}: series `{series}` has no TYPE", k + 1));
            }
        }
        let original = |m: &str| {
            help.get(m)
                .cloned()
                .ok_or_else(|| format!("family `{m}` has no HELP line to carry its name"))
        };
        let mut snapshot = TelemetrySnapshot::new();
        for (m, value) in counters {
            snapshot.counters.insert(original(&m)?, value);
        }
        for (m, value) in gauges {
            snapshot.gauges.insert(original(&m)?, value);
        }
        for (m, acc) in hists {
            if kinds.get(&m).map(String::as_str) != Some("histogram") {
                return Err(format!("family `{m}` has histogram series but no TYPE"));
            }
            let count = acc
                .count
                .ok_or_else(|| format!("histogram `{m}`: no _count"))?;
            let sum = acc.sum.ok_or_else(|| format!("histogram `{m}`: no _sum"))?;
            if acc.inf != Some(count) {
                return Err(format!("histogram `{m}`: +Inf bucket != _count"));
            }
            let mut buckets = Vec::with_capacity(acc.bounds.len() + 1);
            let mut previous = 0u64;
            for &cumulative in &acc.cumulative {
                buckets.push(
                    cumulative.checked_sub(previous).ok_or_else(|| {
                        format!("histogram `{m}`: cumulative buckets not monotone")
                    })?,
                );
                previous = cumulative;
            }
            buckets.push(
                count
                    .checked_sub(previous)
                    .ok_or_else(|| format!("histogram `{m}`: bucket total exceeds _count"))?,
            );
            snapshot.histograms.insert(
                original(&m)?,
                HistogramSnapshot {
                    bounds: acc.bounds,
                    buckets,
                    count,
                    sum,
                    min: acc.min,
                    max: acc.max,
                },
            );
        }
        Ok(snapshot)
    }
}

/// A registry name mapped into the Prometheus metric-name alphabet:
/// every character outside `[a-zA-Z0-9_:]` becomes `_`.
fn prometheus_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Run metadata attached to every telemetry report, making the numbers
/// attributable: which code, which machine shape, which configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunMetadata {
    /// `git rev-parse HEAD` of the working tree, or `unknown`.
    pub git_sha: String,
    /// Resolved worker-thread count.
    pub workers: usize,
    /// Whether checkpointed trial execution was enabled.
    pub checkpointing: bool,
    /// Test cases per error (the grid size).
    pub cases_per_error: usize,
    /// Observation window, ms.
    pub observation_ms: u64,
    /// Shard as `k/n` when the campaign ran sharded.
    pub shard: Option<String>,
}

impl RunMetadata {
    /// Metadata for a protocol-driven campaign run.
    pub fn for_run(
        protocol: &crate::Protocol,
        checkpointing: bool,
        shard: Option<(usize, usize)>,
    ) -> Self {
        RunMetadata {
            git_sha: git_sha(),
            workers: protocol.effective_workers().max(1),
            checkpointing,
            cases_per_error: protocol.cases_per_error(),
            observation_ms: protocol.observation_ms,
            shard: shard.map(|(k, n)| format!("{k}/{n}")),
        }
    }
}

/// The HEAD commit of the enclosing git checkout, or `unknown`.
///
/// Shells out to `git`; any failure (no git, not a checkout) degrades
/// to `unknown` rather than an error — telemetry must never fail a
/// campaign.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The end-of-campaign telemetry artefact (`results/telemetry/*.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Artefact discriminator, always `"campaign-telemetry"`.
    pub kind: String,
    /// Which binary produced the report (`full_campaign`, `fleet_server`, …).
    pub producer: String,
    /// Run attribution.
    pub run: RunMetadata,
    /// The frozen metric catalogue.
    pub snapshot: TelemetrySnapshot,
}

impl TelemetryReport {
    /// Assembles a report from a frozen registry.
    pub fn assemble(producer: &str, run: RunMetadata, snapshot: TelemetrySnapshot) -> Self {
        TelemetryReport {
            schema_version: SCHEMA_VERSION,
            kind: "campaign-telemetry".to_owned(),
            producer: producer.to_owned(),
            run,
            snapshot,
        }
    }

    /// Structural schema validation (used by `telemetry_check` and the
    /// CI smoke job): version, discriminator, histogram invariants.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} (this build reads {})",
                self.schema_version, SCHEMA_VERSION
            ));
        }
        if self.kind != "campaign-telemetry" {
            return Err(format!("unexpected kind `{}`", self.kind));
        }
        for (name, h) in &self.snapshot.histograms {
            if h.buckets.len() != h.bounds.len() + 1 {
                return Err(format!(
                    "histogram `{name}`: {} buckets for {} bounds (want bounds+1)",
                    h.buckets.len(),
                    h.bounds.len()
                ));
            }
            if h.buckets.iter().sum::<u64>() != h.count {
                return Err(format!("histogram `{name}`: bucket sum != count"));
            }
            if h.bounds.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("histogram `{name}`: bounds not increasing"));
            }
            if (h.count == 0) != (h.min.is_none() || h.max.is_none()) {
                return Err(format!("histogram `{name}`: min/max vs count mismatch"));
            }
        }
        Ok(())
    }
}

/// Writes `report` as pretty JSON to `dir/<label>.json`, creating the
/// directory.
///
/// # Errors
///
/// Any filesystem failure.
pub fn write_report(dir: &Path, label: &str, report: &TelemetryReport) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{label}.json"));
    let json = serde_json::to_string_pretty(report).expect("report serialises");
    std::fs::write(&path, format!("{json}\n"))?;
    Ok(path)
}

/// Renders the human summary table printed on stderr at the end of a
/// campaign. Counters and gauges print as aligned `name value` rows;
/// histograms print `count / mean / min / max`.
pub fn render_summary(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    out.push_str("telemetry summary\n");
    out.push_str("-----------------\n");
    let width = snapshot
        .counters
        .keys()
        .chain(snapshot.gauges.keys())
        .chain(snapshot.histograms.keys())
        .map(String::len)
        .max()
        .unwrap_or(0);
    for (name, value) in &snapshot.counters {
        out.push_str(&format!("{name:<width$}  {value}\n"));
    }
    for (name, value) in &snapshot.gauges {
        out.push_str(&format!("{name:<width$}  {value}\n"));
    }
    for (name, h) in &snapshot.histograms {
        match (h.mean(), h.min, h.max) {
            (Some(mean), Some(min), Some(max)) => out.push_str(&format!(
                "{name:<width$}  n={} mean={mean:.1} min={min} max={max}\n",
                h.count
            )),
            _ => out.push_str(&format!("{name:<width$}  n=0\n")),
        }
    }
    out
}

/// One machine-readable progress event on the `--telemetry-jsonl`
/// stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgressEvent {
    /// [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Event discriminator, always `"progress"`.
    pub event: String,
    /// Campaign phase label (`e1`, `e2`, …).
    pub phase: String,
    /// Trials completed so far (monotone within a stream).
    pub trials_done: u64,
    /// Total trials this campaign will run.
    pub trials_total: u64,
    /// Wall-clock seconds since the campaign started.
    pub elapsed_s: f64,
    /// Throughput over the whole campaign so far.
    pub trials_per_s: f64,
    /// Checkpoint-cache hits so far.
    pub cache_hits: u64,
    /// Checkpoint-cache misses (prefix builds) so far.
    pub cache_misses: u64,
    /// Trials stopped early by the settle detector so far.
    pub settled: u64,
}

/// Live campaign progress: a throttled single-line TTY status on
/// stderr plus an optional JSONL snapshot stream.
///
/// The collector thread calls [`Progress::on_trial`] once per
/// completed trial; rendering and stream appends are throttled (by
/// wall clock for the TTY line, by trial count for the stream) so the
/// emitter never becomes the bottleneck it is measuring.
#[derive(Debug)]
pub struct Progress {
    phase: String,
    total: u64,
    done: u64,
    started: Instant,
    /// Next wall-clock instant at which the TTY line may repaint.
    next_render: Instant,
    /// Trials between JSONL snapshot events.
    stream_every: u64,
    /// Trials done at the last JSONL event.
    last_streamed: u64,
    stream: Option<std::fs::File>,
    tty: bool,
    cache_hits: Option<Arc<Counter>>,
    cache_misses: Option<Arc<Counter>>,
    settled: Option<Arc<Counter>>,
    /// Recent `(instant, trials_done)` samples for the windowed rate
    /// behind the ETA. The whole-run mean goes stale after a heavily
    /// pruned or cache-warm opening phase; the window tracks what the
    /// campaign is doing *now*.
    window: std::collections::VecDeque<(Instant, u64)>,
    /// How far back the window reaches ([`RATE_WINDOW`]; tests shrink
    /// it to exercise pruning without multi-second sleeps).
    rate_window: std::time::Duration,
}

/// Minimum wall-clock gap between TTY repaints.
const RENDER_EVERY: std::time::Duration = std::time::Duration::from_millis(200);

/// How much history the ETA's sliding rate window keeps.
const RATE_WINDOW: std::time::Duration = std::time::Duration::from_secs(10);

/// Cap on retained rate-window samples, so a very fast phase does not
/// hoard memory before time-based pruning kicks in.
const RATE_WINDOW_SAMPLES: usize = 2_048;

impl Progress {
    /// A progress emitter for `total` trials in phase `phase`. With
    /// `stream`, a [`ProgressEvent`] is appended roughly every
    /// `stream_every` trials (plus one final event at completion).
    pub fn new(phase: &str, total: u64, stream: Option<std::fs::File>, stream_every: u64) -> Self {
        Progress {
            phase: phase.to_owned(),
            total,
            done: 0,
            started: Instant::now(),
            next_render: Instant::now(),
            stream_every: stream_every.max(1),
            last_streamed: 0,
            stream,
            tty: io::stderr().is_terminal(),
            cache_hits: None,
            cache_misses: None,
            settled: None,
            window: std::collections::VecDeque::new(),
            rate_window: RATE_WINDOW,
        }
    }

    /// Opens (appending) the JSONL stream at `path` and returns the
    /// file, creating parent directories.
    ///
    /// # Errors
    ///
    /// Any filesystem failure.
    pub fn open_stream(path: &Path) -> io::Result<std::fs::File> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
    }

    /// Suppresses the TTY status line when `enabled` is false; the
    /// JSONL stream is unaffected. (Even when enabled, the line only
    /// renders when stderr actually is a terminal.)
    #[must_use]
    pub fn with_tty(mut self, enabled: bool) -> Self {
        self.tty = self.tty && enabled;
        self
    }

    /// Attaches the cache/settle counters surfaced in the status line
    /// and the stream events.
    #[must_use]
    pub fn with_counters(
        mut self,
        cache_hits: Arc<Counter>,
        cache_misses: Arc<Counter>,
        settled: Arc<Counter>,
    ) -> Self {
        self.cache_hits = Some(cache_hits);
        self.cache_misses = Some(cache_misses);
        self.settled = Some(settled);
        self
    }

    /// Records one completed trial; repaints/streams when due.
    pub fn on_trial(&mut self) {
        self.done += 1;
        let now = Instant::now();
        self.window.push_back((now, self.done));
        while self.window.len() > RATE_WINDOW_SAMPLES
            || self
                .window
                .front()
                .is_some_and(|(t, _)| now.duration_since(*t) > self.rate_window)
        {
            self.window.pop_front();
        }
        if self.done >= self.last_streamed + self.stream_every || self.done == self.total {
            self.stream_event();
        }
        if self.tty && (now >= self.next_render || self.done == self.total) {
            self.next_render = now + RENDER_EVERY;
            self.render();
        }
    }

    /// Throughput over the sliding `RATE_WINDOW` of recent trials —
    /// the rate the ETA extrapolates from. Falls back to the whole-run
    /// mean while the window holds fewer than two samples (or no
    /// measurable time), so early renders never divide by zero.
    pub fn recent_trials_per_s(&self) -> f64 {
        if let (Some((t0, d0)), Some((t1, d1))) = (self.window.front(), self.window.back()) {
            let span = t1.duration_since(*t0).as_secs_f64();
            if span > 0.0 && d1 > d0 {
                return (d1 - d0) as f64 / span;
            }
        }
        self.event().trials_per_s
    }

    /// Finishes the phase: emits a final stream event (if one is
    /// pending) and terminates the TTY status line.
    pub fn finish(&mut self) {
        if self.done > self.last_streamed {
            self.stream_event();
        }
        if self.tty {
            self.render();
            eprintln!();
        }
    }

    /// The current event, as it would be streamed.
    pub fn event(&self) -> ProgressEvent {
        let elapsed_s = self.started.elapsed().as_secs_f64();
        ProgressEvent {
            schema_version: SCHEMA_VERSION,
            event: "progress".to_owned(),
            phase: self.phase.clone(),
            trials_done: self.done,
            trials_total: self.total,
            elapsed_s,
            trials_per_s: if elapsed_s > 0.0 {
                self.done as f64 / elapsed_s
            } else {
                0.0
            },
            cache_hits: self.cache_hits.as_ref().map_or(0, |c| c.get()),
            cache_misses: self.cache_misses.as_ref().map_or(0, |c| c.get()),
            settled: self.settled.as_ref().map_or(0, |c| c.get()),
        }
    }

    fn stream_event(&mut self) {
        self.last_streamed = self.done;
        let event = self.event();
        if let Some(file) = &mut self.stream {
            let line = serde_json::to_string(&event).expect("event serialises");
            // Telemetry must never fail the campaign: a full disk
            // degrades to a silent stop of the stream.
            if writeln!(file, "{line}").is_err() {
                self.stream = None;
            }
        }
    }

    fn render(&self) {
        let event = self.event();
        // The ETA extrapolates the *windowed* rate: after a pruned or
        // cache-warm opening burst the whole-run mean can overstate
        // current throughput by an order of magnitude.
        let recent = self.recent_trials_per_s();
        let eta = if recent > 0.0 && self.total > self.done {
            format!("  ETA {:.1}s", (self.total - self.done) as f64 / recent)
        } else {
            String::new()
        };
        let lookups = event.cache_hits + event.cache_misses;
        let cache = if lookups > 0 {
            format!(
                "  cache {:.1}%",
                100.0 * event.cache_hits as f64 / lookups as f64
            )
        } else {
            String::new()
        };
        eprint!(
            "\r[{}] {}/{} trials  {:.1} trials/s{eta}{cache}  settled {}   ",
            self.phase, self.done, self.total, event.trials_per_s, event.settled
        );
        let _ = io::stderr().flush();
    }
}

/// Bucket bounds (ms) for detection-latency and settle-stop
/// histograms: decade-ish resolution from one tick to the full 40 s
/// window.
pub fn latency_bounds_ms() -> Vec<u64> {
    vec![
        1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 40_000,
    ]
}

/// Bucket bounds (µs) for span timers: 1 µs to ~67 s, factor 4.
pub fn span_bounds_us() -> Vec<u64> {
    Histogram::exponential(1, 4, 14)
}

/// Bucket bounds for small cardinalities (batch sizes, captures).
pub fn small_count_bounds() -> Vec<u64> {
    vec![1, 2, 4, 8, 16, 32, 64, 128, 256]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_version_is_pinned() {
        // Consumers (CI validation, OBSERVABILITY.md, external tooling)
        // key on this value; bumping it is a deliberate breaking
        // change, not a side effect.
        assert_eq!(SCHEMA_VERSION, 1);
        let report = TelemetryReport::assemble(
            "test",
            RunMetadata {
                git_sha: "abc".into(),
                workers: 1,
                checkpointing: true,
                cases_per_error: 4,
                observation_ms: 1_000,
                shard: None,
            },
            TelemetrySnapshot::new(),
        );
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"schema_version\":1"), "json = {json}");
        assert!(json.contains("\"kind\":\"campaign-telemetry\""));
        report.validate().unwrap();
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let registry = Registry::new();
        let c = registry.counter("x.count");
        c.inc();
        c.add(4);
        registry.gauge("x.gauge").set(7);
        // Same-name lookups share the metric.
        registry.counter("x.count").inc();
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("x.count"), 6);
        assert_eq!(snapshot.gauges["x.gauge"], 7);
        assert_eq!(snapshot.counter("never.touched"), 0);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let h = Histogram::new(&[10, 100, 1_000]);
        for v in [5, 10, 11, 99, 100, 5_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![2, 3, 0, 1]); // ≤10, ≤100, ≤1000, over
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 5 + 10 + 11 + 99 + 100 + 5_000);
        assert_eq!(s.min, Some(5));
        assert_eq!(s.max, Some(5_000));
        assert_eq!(s.mean(), Some(s.sum as f64 / 6.0));
    }

    #[test]
    fn empty_histogram_has_no_min_max() {
        let s = Histogram::new(&[1, 2]).snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let a = Histogram::new(&[10, 100]);
        a.record(5);
        a.record(50);
        let b = Histogram::new(&[10, 100]);
        b.record(500);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.buckets, vec![1, 1, 1]);
        assert_eq!(merged.count, 3);
        assert_eq!(merged.min, Some(5));
        assert_eq!(merged.max, Some(500));
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[10]).snapshot();
        a.merge(&Histogram::new(&[20]).snapshot());
    }

    #[test]
    fn snapshot_merge_combines_all_kinds() {
        let r1 = Registry::new();
        r1.counter("trials").add(3);
        r1.gauge("workers").set(4);
        r1.histogram("lat", &[10, 100]).record(7);
        let r2 = Registry::new();
        r2.counter("trials").add(5);
        r2.counter("extra").add(1);
        r2.gauge("workers").set(2);
        r2.histogram("lat", &[10, 100]).record(70);

        let mut merged = r1.snapshot();
        merged.merge(&r2.snapshot());
        assert_eq!(merged.counter("trials"), 8);
        assert_eq!(merged.counter("extra"), 1);
        assert_eq!(merged.gauges["workers"], 4); // max
        assert_eq!(merged.histograms["lat"].count, 2);
    }

    #[test]
    fn span_timer_records_once_on_drop() {
        let h = Arc::new(Histogram::new(&span_bounds_us()));
        {
            let _span = SpanTimer::start(Arc::clone(&h));
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn exponential_bounds_are_increasing() {
        let bounds = Histogram::exponential(1, 4, 14);
        assert_eq!(bounds.len(), 14);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(&bounds[..4], &[1, 4, 16, 64]);
    }

    #[test]
    fn validate_catches_tampered_histograms() {
        let mut report = TelemetryReport::assemble(
            "test",
            RunMetadata {
                git_sha: "abc".into(),
                workers: 1,
                checkpointing: false,
                cases_per_error: 1,
                observation_ms: 1,
                shard: Some("1/2".into()),
            },
            TelemetrySnapshot::new(),
        );
        let h = Histogram::new(&[10]);
        h.record(3);
        let mut broken = h.snapshot();
        broken.count += 1; // bucket sum no longer matches
        report.snapshot.histograms.insert("bad".into(), broken);
        assert!(report.validate().is_err());
    }

    #[test]
    fn progress_events_are_monotone_and_streamable() {
        let mut progress = Progress::new("e1", 10, None, 3);
        let mut last = 0;
        for _ in 0..10 {
            progress.on_trial();
            let event = progress.event();
            assert!(event.trials_done >= last);
            last = event.trials_done;
        }
        assert_eq!(progress.event().trials_done, 10);
        progress.finish();
        let json = serde_json::to_string(&progress.event()).unwrap();
        let back: ProgressEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back.trials_done, 10);
        assert_eq!(back.event, "progress");
    }

    /// `to_prometheus` → `from_prometheus` reconstructs the snapshot
    /// exactly — including metric names outside the Prometheus
    /// alphabet, empty histograms, and histogram min/max.
    #[test]
    fn prometheus_exposition_round_trips() {
        let registry = Registry::new();
        registry.counter("campaign.trials").add(42);
        registry.counter("fleet.worker.3.slices").add(7);
        registry.gauge("campaign.workers").set(8);
        let h = registry.histogram("campaign.e1.detection_latency_ms", &latency_bounds_ms());
        for v in [1, 19, 40, 39_999, 80_000] {
            h.record(v);
        }
        registry.histogram("journal.flush_latency_us", &span_bounds_us()); // empty
        let snapshot = registry.snapshot();

        let text = snapshot.to_prometheus();
        assert!(text.contains("# TYPE campaign_trials counter"));
        assert!(text.contains("# HELP campaign_trials campaign.trials"));
        assert!(text.contains("campaign_e1_detection_latency_ms_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("campaign_e1_detection_latency_ms_sum"));

        let back = TelemetrySnapshot::from_prometheus(&text).unwrap();
        assert_eq!(back, snapshot);
    }

    #[test]
    fn prometheus_parser_rejects_malformed_expositions() {
        // A series with no TYPE line.
        assert!(TelemetrySnapshot::from_prometheus("orphan 3\n").is_err());
        // A family whose HELP line (the original-name carrier) is gone.
        let text = "# TYPE x counter\nx 3\n";
        assert!(TelemetrySnapshot::from_prometheus(text)
            .unwrap_err()
            .contains("HELP"));
        // Cumulative buckets that regress.
        let registry = Registry::new();
        registry.histogram("h", &[1, 2]).record(1);
        let good = registry.snapshot().to_prometheus();
        let bad = good.replace("h_bucket{le=\"2\"} 1", "h_bucket{le=\"2\"} 0");
        assert!(TelemetrySnapshot::from_prometheus(&bad).is_err());
    }

    /// The ETA's windowed rate tracks recent throughput instead of the
    /// whole-run mean: after a fast opening burst and a stall, the
    /// recent rate must sit well below the campaign mean.
    #[test]
    fn recent_rate_window_recovers_from_a_fast_opening_phase() {
        let mut progress = Progress::new("e1", 1_000, None, u64::MAX);
        // Shrink the window so the test exercises pruning without
        // multi-second sleeps.
        progress.rate_window = std::time::Duration::from_millis(50);
        // Fast phase: 500 trials, almost instantaneous.
        for _ in 0..500 {
            progress.on_trial();
        }
        // Stall past the window, then a slow tail: the burst's samples
        // must be pruned and the recent rate reflect only the tail.
        std::thread::sleep(std::time::Duration::from_millis(80));
        for _ in 0..3 {
            progress.on_trial();
            std::thread::sleep(std::time::Duration::from_millis(15));
        }
        let whole_run = progress.event().trials_per_s;
        let recent = progress.recent_trials_per_s();
        assert!(recent > 0.0, "window rate must stay usable");
        assert!(
            recent < whole_run / 2.0,
            "recent rate ({recent:.0}/s) must fall well below the \
             whole-run mean ({whole_run:.0}/s) once throughput drops"
        );
    }

    /// With fewer than two window samples the windowed rate falls back
    /// to the whole-run mean instead of dividing by zero.
    #[test]
    fn recent_rate_falls_back_before_the_window_fills() {
        let progress = Progress::new("e1", 10, None, 1);
        assert_eq!(
            progress.recent_trials_per_s(),
            progress.event().trials_per_s
        );
    }

    #[test]
    fn summary_renders_all_metric_kinds() {
        let registry = Registry::new();
        registry.counter("campaign.trials").add(16);
        registry.gauge("campaign.workers").set(4);
        registry
            .histogram("campaign.latency_ms", &latency_bounds_ms())
            .record(40);
        let text = render_summary(&registry.snapshot());
        assert!(text.contains("campaign.trials"));
        assert!(text.contains("16"));
        assert!(text.contains("campaign.workers"));
        assert!(text.contains("n=1 mean=40.0 min=40 max=40"));
    }
}
