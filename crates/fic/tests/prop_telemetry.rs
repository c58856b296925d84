//! Property tests for the telemetry snapshot algebra.
//!
//! The fleet server merges its workers' `TelemetrySnapshot`s into one
//! fleet-wide view in arrival order. That is only sound if merging is
//! associative and permutation-invariant — the same algebraic contract
//! `prop_reports` pins for the campaign reports themselves.

use fic::telemetry::{latency_bounds_ms, Registry, TelemetrySnapshot};
use proptest::prelude::*;

/// Metric name pool: small enough that generated snapshots collide on
/// names (the interesting case for merge), large enough to also
/// exercise the disjoint-name path.
const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// Compact generator output for one snapshot: per-metric counter
/// increments, gauge values, and histogram observations. Values are
/// recorded through a real [`Registry`] so every generated snapshot is
/// internally consistent (bucket totals match counts, min ≤ max, …).
type SnapshotSpec = (
    Vec<(u8, u64)>, // counter adds: (name index, amount)
    Vec<(u8, u64)>, // gauge sets: (name index, value)
    Vec<(u8, u64)>, // histogram records: (name index, observation)
);

fn build(spec: &SnapshotSpec) -> TelemetrySnapshot {
    // A registry name belongs to exactly one metric type, so each type
    // draws from its own prefixed pool.
    let registry = Registry::new();
    let bounds = latency_bounds_ms();
    for &(name, amount) in &spec.0 {
        let name = format!("counter.{}", NAMES[name as usize % NAMES.len()]);
        registry.counter(&name).add(amount);
    }
    for &(name, value) in &spec.1 {
        let name = format!("gauge.{}", NAMES[name as usize % NAMES.len()]);
        registry.gauge(&name).set(value);
    }
    for &(name, value) in &spec.2 {
        let name = format!("hist.{}", NAMES[name as usize % NAMES.len()]);
        registry.histogram(&name, &bounds).record(value);
    }
    registry.snapshot()
}

fn spec_strategy() -> impl Strategy<Value = SnapshotSpec> {
    let entry = (0u8..8, 0u64..100_000);
    (
        proptest::collection::vec(entry.clone(), 0..12),
        proptest::collection::vec(entry.clone(), 0..6),
        proptest::collection::vec(entry, 0..12),
    )
}

fn merged(parts: &[TelemetrySnapshot]) -> TelemetrySnapshot {
    let mut acc = TelemetrySnapshot::new();
    for part in parts {
        acc.merge(part);
    }
    acc
}

proptest! {
    /// The empty snapshot is the identity of merge, on both sides.
    #[test]
    fn merge_identity(spec in spec_strategy()) {
        let snapshot = build(&spec);
        let mut left = TelemetrySnapshot::new();
        left.merge(&snapshot);
        prop_assert_eq!(&left, &snapshot);
        let mut right = snapshot.clone();
        right.merge(&TelemetrySnapshot::new());
        prop_assert_eq!(&right, &snapshot);
    }

    /// (a ∪ b) ∪ c == a ∪ (b ∪ c): worker snapshots may be combined in
    /// any grouping (e.g. tree-reduce vs. a serial fold).
    #[test]
    fn merge_associative(
        a in spec_strategy(),
        b in spec_strategy(),
        c in spec_strategy(),
    ) {
        let (sa, sb, sc) = (build(&a), build(&b), build(&c));
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa;
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// a ∪ b == b ∪ a: counters add, gauges take the max, histogram
    /// buckets add — all commutative.
    #[test]
    fn merge_commutative(a in spec_strategy(), b in spec_strategy()) {
        let (sa, sb) = (build(&a), build(&b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb;
        ba.merge(&sa);
        prop_assert_eq!(ab, ba);
    }

    /// Folding any permutation of a snapshot list yields the same
    /// total — the property the fleet server's fold relies on.
    #[test]
    fn merge_permutation_invariant(
        specs in proptest::collection::vec(spec_strategy(), 1..6),
        rotation in 0usize..6,
    ) {
        let parts: Vec<TelemetrySnapshot> = specs.iter().map(build).collect();
        let in_order = merged(&parts);

        let mut rotated = parts.clone();
        let split = rotation % rotated.len();
        rotated.rotate_left(split);
        prop_assert_eq!(&merged(&rotated), &in_order);

        let mut reversed = parts;
        reversed.reverse();
        prop_assert_eq!(&merged(&reversed), &in_order);
    }

    /// Merging histogram parts loses nothing: the combined snapshot has
    /// the exact total count and sum of all observations, and its
    /// min/max bracket every recorded value.
    #[test]
    fn histogram_merge_is_lossless(
        a in proptest::collection::vec(0u64..200_000, 1..20),
        b in proptest::collection::vec(0u64..200_000, 1..20),
    ) {
        let bounds = latency_bounds_ms();
        let build_hist = |values: &[u64]| {
            let registry = Registry::new();
            let hist = registry.histogram("h", &bounds);
            for &v in values {
                hist.record(v);
            }
            registry.snapshot()
        };
        let mut total = build_hist(&a);
        total.merge(&build_hist(&b));
        let hist = &total.histograms["h"];
        let all: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(hist.count, all.len() as u64);
        prop_assert_eq!(hist.sum, all.iter().sum::<u64>());
        prop_assert_eq!(hist.min, all.iter().copied().min());
        prop_assert_eq!(hist.max, all.iter().copied().max());
        prop_assert_eq!(hist.buckets.iter().sum::<u64>(), hist.count);
    }
}
