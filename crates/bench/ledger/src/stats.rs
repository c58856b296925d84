//! Order statistics and the pairwise comparison rule.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), so a spread computed here matches
//! one recomputed from the same samples with Python.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, costs, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// The label `BENCHMARK.json` uses.
    pub const fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Whether `a` is strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }

    /// How much worse `head` is than `base`, as a share of `base`
    /// (negative when `head` is better).
    pub fn worsening(self, base: f64, head: f64) -> f64 {
        let delta = match self {
            Better::Lower => head - base,
            Better::Higher => base - head,
        };
        delta / base.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `NaN` for no values.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, as
/// `statistics.quantiles(values, n=4)` gives them (the median is the
/// middle cut). One value yields itself three times; none yields `NaN`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let n = data.len();
    match n {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// Percentiles considered for a tail report, in tenths of a percent,
/// highest first.
const TAIL_PERMILLE: [usize; 5] = [999, 990, 950, 900, 500];

/// The highest of the usual percentiles that still has at least
/// `beyond` samples above it, with its nearest-rank value; `None` when
/// even the median has fewer.
pub fn tail(values: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let data = sorted(values);
    let n = data.len();
    TAIL_PERMILLE.iter().find_map(|&p| {
        let rank = (p * n).div_ceil(1000);
        (rank >= 1 && n - rank >= beyond).then(|| (p as f64 / 10.0, data[rank - 1]))
    })
}

/// The `p`-th percentile by nearest rank (`p` in 0..=100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let data = sorted(values);
    if data.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * data.len() as f64).ceil().max(1.0) as usize;
    data[rank.min(data.len()) - 1]
}

/// Fewest alternating ⟨base, head⟩ pairs the rule accepts.
pub const MIN_PAIRS: usize = 10;

/// The outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Head wins at least nine tenths of the pairs and the medians
    /// differ by more than the base runs' interquartile distance.
    Improved,
    /// Head's median is no worse than base's by more than the bound.
    NoChange,
    /// Head's median is worse than base's by more than the bound.
    Regressed,
    /// Too few pairs, or a run-to-run spread wider than the bound
    /// without every head run beating every base run.
    Unresolved,
}

impl Verdict {
    /// Row label.
    pub const fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoChange => "no change",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies the pairwise rule to matched runs of a base and a head
/// commit: `base[i]` and `head[i]` form pair `i`. `bound` is the share
/// of the base median by which head may worsen before it regresses.
pub fn judge(base: &[f64], head: &[f64], better: Better, bound: f64) -> Verdict {
    let pairs = base.len().min(head.len());
    if pairs < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let (base, head) = (&base[..pairs], &head[..pairs]);
    let wins = base
        .iter()
        .zip(head)
        .filter(|(b, h)| better.beats(**h, **b))
        .count();
    let (q1, base_med, q3) = quartiles(base);
    let head_med = median(head);
    let worse = better.worsening(base_med, head_med);
    if wins * 10 >= pairs * 9 && worse < 0.0 && (head_med - base_med).abs() > q3 - q1 {
        return Verdict::Improved;
    }
    let spread = relative_iqr(base).max(relative_iqr(head));
    if spread > bound {
        let all_better = head
            .iter()
            .all(|&h| base.iter().all(|&b| better.beats(h, b)));
        return if all_better {
            Verdict::NoChange
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::NoChange
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // Two points extrapolate: statistics.quantiles([1, 5], n=4)
        // == [0.0, 3.0, 6.0].
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 3.0, 6.0));
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn relative_iqr_is_scale_free() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let scaled: Vec<f64> = v.iter().map(|x| x * 1000.0).collect();
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
        assert!((relative_iqr(&scaled) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=2800).map(f64::from).collect();
        // p99.9 leaves 3 beyond, p99 leaves 28.
        assert_eq!(tail(&v, 10), Some((99.0, 2772.0)));
        let small: Vec<f64> = (1..=50).map(f64::from).collect();
        // p90 leaves 5, p50 leaves 25.
        assert_eq!(tail(&small, 10), Some((50.0, 25.0)));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred, 10), Some((90.0, 90.0)));
        let tiny: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&tiny, 10), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        (0..12)
            .map(|i| center + jitter * (f64::from(i % 5) - 2.0))
            .collect()
    }

    #[test]
    fn pairwise_rule_needs_ten_pairs() {
        let base = runs(100.0, 0.1);
        let head = runs(50.0, 0.1);
        assert_eq!(
            judge(&base[..9], &head[..9], Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(judge(&base, &head, Better::Lower, 0.1), Verdict::Improved);
    }

    #[test]
    fn pairwise_rule_requires_nine_tenths_of_wins() {
        let base = runs(100.0, 0.5);
        let mut head = runs(90.0, 0.5);
        assert_eq!(judge(&base, &head, Better::Lower, 0.1), Verdict::Improved);
        // Two losses in twelve pairs: 10/12 < 9/10.
        head[0] = 200.0;
        head[1] = 200.0;
        assert_ne!(judge(&base, &head, Better::Lower, 0.1), Verdict::Improved);
    }

    #[test]
    fn pairwise_rule_requires_a_gap_wider_than_the_base_iqr() {
        // Head wins every pair by a hair, but the base runs' own
        // spread dwarfs the gap.
        let base = runs(100.0, 2.0);
        let head: Vec<f64> = base.iter().map(|b| b - 0.01).collect();
        assert_eq!(judge(&base, &head, Better::Lower, 0.1), Verdict::NoChange);
    }

    #[test]
    fn pairwise_rule_flags_regressions_beyond_the_bound() {
        let base = runs(100.0, 0.1);
        assert_eq!(
            judge(&base, &runs(105.0, 0.1), Better::Lower, 0.1),
            Verdict::NoChange
        );
        assert_eq!(
            judge(&base, &runs(120.0, 0.1), Better::Lower, 0.1),
            Verdict::Regressed
        );
        // Higher-is-better metrics regress downwards.
        assert_eq!(
            judge(&base, &runs(80.0, 0.1), Better::Higher, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&base, &runs(120.0, 0.1), Better::Higher, 0.1),
            Verdict::Improved
        );
    }

    #[test]
    fn pairwise_rule_leaves_noisy_metrics_unresolved() {
        let base = runs(100.0, 20.0);
        let head = runs(101.0, 20.0);
        assert_eq!(judge(&base, &head, Better::Lower, 0.1), Verdict::Unresolved);
    }
}
