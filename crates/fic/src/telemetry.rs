//! Campaign telemetry: a dependency-free metrics registry, a live
//! progress line, and end-of-campaign reports.
//!
//! A long fault-injection campaign used to be a black box: checkpoint
//! cache behaviour, settle-detector effectiveness, journal flush cost
//! and worker utilisation were invisible without a debugger. This
//! module is the instrument panel. It follows the same philosophy as
//! the vendored serde/rand shims — no external dependency, a small
//! API surface of named counters, gauges and histograms — and the
//! same zero-cost contract as [`arrestor::RunConfig`]'s `trace` flag:
//! every instrumented call site is gated on an `Option`, so a campaign
//! run without telemetry executes the identical instruction stream it
//! always did.
//!
//! Three layers:
//!
//! * **Metrics** — [`Counter`], [`Gauge`] and fixed-bucket
//!   [`Histogram`], all lock-free atomics; [`Registry`] hands out
//!   shared handles by name and freezes the whole catalogue into a
//!   [`TelemetrySnapshot`]. Snapshots merge associatively and
//!   commutatively (the same algebra as the campaign reports), so the
//!   fleet server folds its workers' telemetry in any arrival order.
//! * **Progress** — [`Progress`] renders a throttled single-line TTY
//!   status (trials done/total, trials/sec, ETA, cache hit rate).
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
/// construction, so histograms recorded by different workers over
/// the same metric merge by plain
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
    /// merge bucket-wise. The fleet server folds its workers'
    /// telemetry with it; the operation is associative and
    /// permutation-invariant (see `prop_telemetry`).
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
}

/// Run metadata attached to every telemetry report, making the numbers
/// attributable: which code, which machine shape, which configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunMetadata {
    /// `git rev-parse HEAD` of the working tree, suffixed `-dirty` when a
    /// tracked file differs from it, or `unknown` (see [`git_sha_in`]).
    pub git_sha: String,
    /// Resolved worker-thread count.
    pub workers: usize,
    /// Whether checkpointed trial execution was enabled.
    pub checkpointing: bool,
    /// Test cases per error (the grid size).
    pub cases_per_error: usize,
    /// Observation window, ms.
    pub observation_ms: u64,
    /// Always `null`: campaigns are no longer split into static grid
    /// slices. Kept so the report schema and the benchmark ledger,
    /// which builds its reports through [`RunMetadata::for_run`], stay
    /// unchanged.
    pub shard: Option<String>,
}

impl RunMetadata {
    /// Metadata for a protocol-driven campaign run. Every caller in
    /// this workspace passes `None` for `shard`; the parameter stays
    /// for the benchmark ledger, which calls this signature.
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

/// The HEAD commit of the enclosing git checkout, or `unknown`: the
/// current directory's [`git_sha_in`], resolved once per process —
/// every report and fleet status request asks, and `git status` walks
/// the whole tree.
pub fn git_sha() -> String {
    static SHA: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    SHA.get_or_init(|| git_sha_in(Path::new("."))).clone()
}

/// The HEAD commit of the git checkout enclosing `dir`, suffixed
/// `-dirty` when a tracked file differs from `HEAD` (untracked files do
/// not count), or `unknown`.
///
/// Shells out to `git`; any failure (no git, not a checkout) degrades
/// to `unknown` rather than an error — telemetry must never fail a
/// campaign.
pub fn git_sha_in(dir: &Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(dir)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(sha) = git(&["rev-parse", "HEAD"])
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
    else {
        return "unknown".to_owned();
    };
    match git(&[
        "--no-optional-locks",
        "status",
        "--porcelain",
        "--untracked-files=no",
    ]) {
        Some(changes) if changes.trim().is_empty() => sha,
        Some(_) => format!("{sha}-dirty"),
        None => "unknown".to_owned(),
    }
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

/// Live campaign progress: a throttled single-line TTY status on
/// stderr, rendered only when stderr is a terminal.
///
/// The collector thread calls [`Progress::on_trial`] once per
/// completed trial; repaints are throttled by wall clock so the
/// emitter never becomes the bottleneck it is measuring.
#[derive(Debug)]
pub struct Progress {
    phase: String,
    total: u64,
    done: u64,
    started: Instant,
    /// Next wall-clock instant at which the TTY line may repaint.
    next_render: Instant,
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
    /// A progress line for `total` trials in phase `phase`.
    pub fn new(phase: &str, total: u64) -> Self {
        Progress {
            phase: phase.to_owned(),
            total,
            done: 0,
            started: Instant::now(),
            next_render: Instant::now(),
            tty: io::stderr().is_terminal(),
            cache_hits: None,
            cache_misses: None,
            settled: None,
            window: std::collections::VecDeque::new(),
            rate_window: RATE_WINDOW,
        }
    }

    /// Attaches the cache/settle counters surfaced in the status line.
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

    /// Records one completed trial; repaints when due.
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
        if self.tty && (now >= self.next_render || self.done == self.total) {
            self.next_render = now + RENDER_EVERY;
            self.render();
        }
    }

    /// Throughput over the whole phase so far.
    pub fn trials_per_s(&self) -> f64 {
        let elapsed_s = self.started.elapsed().as_secs_f64();
        if elapsed_s > 0.0 {
            self.done as f64 / elapsed_s
        } else {
            0.0
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
        self.trials_per_s()
    }

    /// Finishes the phase: terminates the TTY status line.
    pub fn finish(&mut self) {
        if self.tty {
            self.render();
            eprintln!();
        }
    }

    fn render(&self) {
        let count = |c: &Option<Arc<Counter>>| c.as_ref().map_or(0, |c| c.get());
        // The ETA extrapolates the *windowed* rate: after a pruned or
        // cache-warm opening burst the whole-run mean can overstate
        // current throughput by an order of magnitude.
        let recent = self.recent_trials_per_s();
        let eta = if recent > 0.0 && self.total > self.done {
            format!("  ETA {:.1}s", (self.total - self.done) as f64 / recent)
        } else {
            String::new()
        };
        let (hits, misses) = (count(&self.cache_hits), count(&self.cache_misses));
        let cache = if hits + misses > 0 {
            format!(
                "  cache {:.1}%",
                100.0 * hits as f64 / (hits + misses) as f64
            )
        } else {
            String::new()
        };
        eprint!(
            "\r[{}] {}/{} trials  {:.1} trials/s{eta}{cache}  settled {}   ",
            self.phase,
            self.done,
            self.total,
            self.trials_per_s(),
            count(&self.settled)
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
    fn git_sha_marks_a_dirty_tree() {
        let dir = std::env::temp_dir().join(format!("fic-git-sha-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(git_sha_in(&dir), "unknown", "not a checkout yet");
        let git = |args: &[&str]| {
            let status = std::process::Command::new("git")
                .arg("-C")
                .arg(&dir)
                .args([
                    "-c",
                    "user.name=t",
                    "-c",
                    "user.email=t@example.invalid",
                    "-c",
                    "commit.gpgsign=false",
                ])
                .args(args)
                .output()
                .unwrap()
                .status;
            assert!(status.success(), "git {args:?}");
        };
        git(&["init", "-q"]);
        std::fs::write(dir.join("a.txt"), "one\n").unwrap();
        git(&["add", "a.txt"]);
        git(&["commit", "-q", "-m", "first"]);

        let clean = git_sha_in(&dir);
        assert_eq!(clean.len(), 40, "{clean}");
        assert!(clean.bytes().all(|b| b.is_ascii_hexdigit()), "{clean}");
        // Untracked files do not make the tree dirty.
        std::fs::write(dir.join("untracked.txt"), "x\n").unwrap();
        assert_eq!(git_sha_in(&dir), clean);
        // A modified tracked file does, staged or not.
        std::fs::write(dir.join("a.txt"), "two\n").unwrap();
        assert_eq!(git_sha_in(&dir), format!("{clean}-dirty"));
        git(&["add", "a.txt"]);
        assert_eq!(git_sha_in(&dir), format!("{clean}-dirty"));
        // Committing names the new HEAD, clean again.
        git(&["commit", "-q", "-m", "second"]);
        let second = git_sha_in(&dir);
        assert_ne!(second, clean);
        assert!(!second.ends_with("-dirty"), "{second}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_version_is_pinned() {
        // Consumers (CI validation, OBSERVABILITY.md, external tooling)
        // key on this value; bumping it is a deliberate breaking
        // change, not a side effect.
        assert_eq!(SCHEMA_VERSION, 1);
        let report = TelemetryReport::assemble(
            "test",
            RunMetadata::for_run(&crate::Protocol::scaled(2, 1_000), true, None),
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
            RunMetadata::for_run(&crate::Protocol::scaled(1, 1), false, None),
            TelemetrySnapshot::new(),
        );
        let h = Histogram::new(&[10]);
        h.record(3);
        let mut broken = h.snapshot();
        broken.count += 1; // bucket sum no longer matches
        report.snapshot.histograms.insert("bad".into(), broken);
        assert!(report.validate().is_err());
    }

    /// The ETA's windowed rate tracks recent throughput instead of the
    /// whole-run mean: after a fast opening burst and a stall, the
    /// recent rate must sit well below the campaign mean.
    #[test]
    fn recent_rate_window_recovers_from_a_fast_opening_phase() {
        let mut progress = Progress::new("e1", 1_000);
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
        let whole_run = progress.trials_per_s();
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
        let progress = Progress::new("e1", 10);
        assert_eq!(progress.recent_trials_per_s(), progress.trials_per_s());
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
