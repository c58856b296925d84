//! Property tests for the convergence estimator algebra.
//!
//! The campaign collector folds trials in completion order, the fleet
//! server folds slice results in arrival order, and `--from-journal`
//! re-derives the same state from a journal in record order. That is
//! only sound if [`ConvergenceAggregate::merge`] is associative,
//! commutative, and permutation-invariant — and if a fold of singleton
//! aggregates equals one aggregate recording every trial. The second
//! half pins the statistics: Wilson intervals contain the point
//! estimate, the half-width never widens as trials accumulate at a
//! fixed detection ratio, and the precision forecast reaches zero
//! exactly when the target half-width is met.

use fic::convergence::{CellKey, ConvergenceAggregate, DEFAULT_DELTA};
use memsim::Region;
use proptest::prelude::*;

/// Compact generator output for one trial: which cell it lands in and
/// whether it detected.
#[derive(Debug, Clone, Copy)]
struct TrialSpec {
    signal: bool,
    index: u8,
    detected: bool,
}

fn key(spec: TrialSpec) -> CellKey {
    if spec.signal {
        CellKey::Signal(spec.index as usize % 7)
    } else if spec.index.is_multiple_of(2) {
        CellKey::Region(Region::AppRam)
    } else {
        CellKey::Region(Region::Stack)
    }
}

fn spec_strategy() -> impl Strategy<Value = TrialSpec> {
    (any::<bool>(), any::<u8>(), any::<bool>()).prop_map(|(signal, index, detected)| TrialSpec {
        signal,
        index,
        detected,
    })
}

fn recorded(specs: &[TrialSpec]) -> ConvergenceAggregate {
    let mut aggregate = ConvergenceAggregate::new();
    for &spec in specs {
        aggregate.record(key(spec), spec.detected);
    }
    aggregate
}

fn merged(parts: &[ConvergenceAggregate]) -> ConvergenceAggregate {
    let mut acc = ConvergenceAggregate::new();
    for part in parts {
        acc.merge(part);
    }
    acc
}

proptest! {
    /// The empty aggregate is the identity of merge, on both sides.
    #[test]
    fn merge_identity(specs in proptest::collection::vec(spec_strategy(), 0..16)) {
        let aggregate = recorded(&specs);
        let mut left = ConvergenceAggregate::new();
        left.merge(&aggregate);
        prop_assert_eq!(left, aggregate);
        let mut right = aggregate;
        right.merge(&ConvergenceAggregate::new());
        prop_assert_eq!(right, aggregate);
    }

    /// (a ∪ b) ∪ c == a ∪ (b ∪ c): partial aggregates may be combined
    /// in any grouping (tree-reduce vs. a serial fold).
    #[test]
    fn merge_associative(
        a in proptest::collection::vec(spec_strategy(), 0..12),
        b in proptest::collection::vec(spec_strategy(), 0..12),
        c in proptest::collection::vec(spec_strategy(), 0..12),
    ) {
        let (sa, sb, sc) = (recorded(&a), recorded(&b), recorded(&c));
        let mut left = sa;
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb;
        bc.merge(&sc);
        let mut right = sa;
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// a ∪ b == b ∪ a: every cell merges commutatively (counts add).
    #[test]
    fn merge_commutative(
        a in proptest::collection::vec(spec_strategy(), 0..16),
        b in proptest::collection::vec(spec_strategy(), 0..16),
    ) {
        let (sa, sb) = (recorded(&a), recorded(&b));
        let mut ab = sa;
        ab.merge(&sb);
        let mut ba = sb;
        ba.merge(&sa);
        prop_assert_eq!(ab, ba);
    }

    /// A fold of per-trial singleton aggregates, in any order, equals
    /// one aggregate that recorded every trial — the exact fleet
    /// fan-in shape.
    #[test]
    fn fold_of_singletons_is_order_invariant(
        specs in proptest::collection::vec(spec_strategy(), 1..16),
        rotation in 0usize..16,
    ) {
        let combined = recorded(&specs);
        let parts: Vec<ConvergenceAggregate> = specs
            .iter()
            .map(|&spec| recorded(&[spec]))
            .collect();
        prop_assert_eq!(merged(&parts), combined);

        let mut rotated = parts.clone();
        let split = rotation % rotated.len();
        rotated.rotate_left(split);
        prop_assert_eq!(merged(&rotated), combined);

        let mut reversed = parts;
        reversed.reverse();
        prop_assert_eq!(merged(&reversed), combined);
    }

    /// Every non-empty cell's Wilson interval is ordered and contains
    /// the point estimate, and the forecast is zero exactly when the
    /// half-width is at (or under) the target.
    #[test]
    fn intervals_contain_the_estimate(
        specs in proptest::collection::vec(spec_strategy(), 0..64),
        delta_mils in 1u32..500,
    ) {
        let delta = f64::from(delta_mils) / 1_000.0;
        let aggregate = recorded(&specs);
        for cell in aggregate.cells(delta) {
            if cell.trials == 0 {
                prop_assert!(cell.estimate.is_none());
                prop_assert!(cell.trials_remaining > 0);
                continue;
            }
            let estimate = cell.estimate.unwrap();
            let (low, high) = (cell.wilson_low.unwrap(), cell.wilson_high.unwrap());
            let half_width = cell.half_width.unwrap();
            prop_assert!((0.0..=1.0).contains(&low));
            prop_assert!((0.0..=1.0).contains(&high));
            prop_assert!(low <= estimate + 1e-12 && estimate <= high + 1e-12);
            prop_assert!(half_width >= 0.0);
            prop_assert_eq!(cell.trials_remaining == 0, half_width <= delta);
        }
    }

    /// CI monotonicity under added trials: folding more data at the
    /// same detection ratio (the aggregate merged with itself) never
    /// widens any cell's Wilson interval, and once a cell reaches the
    /// target it stays there.
    #[test]
    fn more_trials_never_widen_the_interval(
        specs in proptest::collection::vec(spec_strategy(), 1..32),
        doublings in 1usize..5,
    ) {
        let base = recorded(&specs);
        let mut grown = base;
        for _ in 0..doublings {
            let snapshot = grown;
            grown.merge(&snapshot);
        }
        let before = base.cells(DEFAULT_DELTA);
        let after = grown.cells(DEFAULT_DELTA);
        prop_assert_eq!(before.len(), after.len());
        for (b, a) in before.iter().zip(&after) {
            prop_assert_eq!(&b.label, &a.label);
            if b.trials == 0 {
                prop_assert_eq!(a.trials, 0);
                continue;
            }
            // Same detection ratio, strictly more trials.
            prop_assert_eq!(b.estimate.unwrap(), a.estimate.unwrap());
            prop_assert!(a.trials > b.trials);
            prop_assert!(
                a.half_width.unwrap() <= b.half_width.unwrap() + 1e-12,
                "half-width widened for {}: {} -> {}",
                b.label,
                b.half_width.unwrap(),
                a.half_width.unwrap()
            );
            if b.trials_remaining == 0 {
                prop_assert_eq!(a.trials_remaining, 0);
            }
        }
    }
}
