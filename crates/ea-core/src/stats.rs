//! Coverage estimators and latency aggregation for fault-injection
//! experiments.
//!
//! The paper computes `P(d) = nd/ne` style estimates with 95 % confidence
//! intervals "according to the formulas for coverage estimation in
//! [Powell et al. 1995]". For a simple-sampling campaign those reduce to
//! binomial proportion estimates; we provide both the normal
//! approximation the paper's ± notation suggests and the Wilson score
//! interval (better behaved near 0 and 1).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::Millis;

/// Two-sided z quantile for 95 % confidence.
pub const Z_95: f64 = 1.959_963_985;

/// A detected/total proportion with its estimator machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Proportion {
    detected: u64,
    total: u64,
}

impl Proportion {
    /// Creates a proportion from counts (`detected ≤ total` is clamped).
    pub fn new(detected: u64, total: u64) -> Self {
        Proportion {
            detected: detected.min(total),
            total,
        }
    }

    /// Adds one trial with the given outcome.
    pub fn record(&mut self, detected: bool) {
        self.total += 1;
        if detected {
            self.detected += 1;
        }
    }

    /// Merges another proportion (e.g. partial campaign results).
    pub fn merge(&mut self, other: Proportion) {
        self.detected += other.detected;
        self.total += other.total;
    }

    /// Numerator `nd`.
    pub const fn detected(&self) -> u64 {
        self.detected
    }

    /// Denominator `ne`.
    pub const fn total(&self) -> u64 {
        self.total
    }

    /// Whether no trial has been recorded.
    pub const fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The point estimate `nd/ne`, or `None` with no trials.
    pub fn estimate(&self) -> Option<f64> {
        (self.total > 0).then(|| self.detected as f64 / self.total as f64)
    }

    /// Normal-approximation half-width `z·√(p(1−p)/n)`.
    ///
    /// This is the ± the paper prints next to every percentage; it is
    /// zero (and the paper prints no interval) when the estimate is
    /// exactly 0 or 1.
    pub fn half_width_normal(&self, z: f64) -> Option<f64> {
        let p = self.estimate()?;
        let n = self.total as f64;
        Some(z * (p * (1.0 - p) / n).sqrt())
    }

    /// Wilson score interval `(lo, hi)` at quantile `z`.
    pub fn interval_wilson(&self, z: f64) -> Option<(f64, f64)> {
        let p = self.estimate()?;
        let n = self.total as f64;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        Some(((centre - half).max(0.0), (centre + half).min(1.0)))
    }

    /// Formats as the paper does: `55.5±4.1` (percent), or `100.0` with
    /// no interval when the estimate is degenerate, or `-` when empty.
    pub fn paper_cell(&self) -> String {
        match self.estimate() {
            None => "-".to_owned(),
            Some(p) if p == 0.0 && self.detected == 0 => {
                // The paper leaves cells with no detection empty.
                "-".to_owned()
            }
            Some(p) if p == 1.0 || p == 0.0 => format!("{:.1}", p * 100.0),
            Some(p) => {
                let half = self
                    .half_width_normal(Z_95)
                    .expect("estimate exists, so does the half-width");
                format!("{:.1}±{:.1}", p * 100.0, half * 100.0)
            }
        }
    }
}

impl fmt::Display for Proportion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.detected, self.total)
    }
}

/// Min / average / max aggregation of detection latencies, in
/// milliseconds (the paper's Table 8 cells).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    count: u64,
    sum: u128,
    min: Option<Millis>,
    max: Option<Millis>,
}

impl LatencyStats {
    /// An empty aggregation.
    pub fn new() -> Self {
        LatencyStats::default()
    }

    /// Records one latency observation.
    pub fn record(&mut self, latency: Millis) {
        self.count += 1;
        self.sum += u128::from(latency);
        self.min = Some(self.min.map_or(latency, |m| m.min(latency)));
        self.max = Some(self.max.map_or(latency, |m| m.max(latency)));
    }

    /// Merges another aggregation.
    pub fn merge(&mut self, other: LatencyStats) {
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

    /// Number of observations.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Minimum latency, if any observation was recorded.
    pub const fn min(&self) -> Option<Millis> {
        self.min
    }

    /// Maximum latency, if any observation was recorded.
    pub const fn max(&self) -> Option<Millis> {
        self.max
    }

    /// Mean latency, if any observation was recorded.
    pub fn average(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Formats one Table 8 cell triple: `(min, avg, max)` or `-`.
    pub fn paper_cell(&self) -> String {
        match (self.min, self.average(), self.max) {
            (Some(min), Some(avg), Some(max)) => {
                format!("{min}/{avg:.0}/{max}")
            }
            _ => "-".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportion_estimate_and_counts() {
        let mut p = Proportion::new(0, 0);
        assert!(p.is_empty());
        assert_eq!(p.estimate(), None);
        p.record(true);
        p.record(false);
        p.record(true);
        p.record(true);
        assert_eq!(p.detected(), 3);
        assert_eq!(p.total(), 4);
        assert_eq!(p.estimate(), Some(0.75));
    }

    #[test]
    fn normal_half_width_matches_hand_computation() {
        // 222 of 400: p = 0.555, z·√(p(1−p)/400) ≈ 0.0487
        let p = Proportion::new(222, 400);
        let half = p.half_width_normal(Z_95).unwrap();
        assert!((half - 0.0487).abs() < 5e-4, "half = {half}");
    }

    #[test]
    fn degenerate_estimates_have_zero_width() {
        let all = Proportion::new(400, 400);
        assert_eq!(all.half_width_normal(Z_95), Some(0.0));
        assert_eq!(all.paper_cell(), "100.0");
        let none = Proportion::new(0, 400);
        assert_eq!(none.paper_cell(), "-");
    }

    #[test]
    fn wilson_interval_is_inside_unit_range_and_contains_estimate() {
        for (nd, ne) in [(0u64, 10u64), (1, 10), (5, 10), (10, 10), (399, 400)] {
            let p = Proportion::new(nd, ne);
            let (lo, hi) = p.interval_wilson(Z_95).unwrap();
            let est = p.estimate().unwrap();
            assert!((0.0..=1.0).contains(&lo));
            assert!((0.0..=1.0).contains(&hi));
            assert!(lo <= est + 1e-12 && est <= hi + 1e-12);
        }
    }

    #[test]
    fn paper_cell_formats_percentage_pm() {
        let p = Proportion::new(222, 400);
        let cell = p.paper_cell();
        assert!(cell.starts_with("55.5±"), "cell = {cell}");
    }

    #[test]
    fn merge_proportions() {
        let mut a = Proportion::new(3, 10);
        a.merge(Proportion::new(7, 10));
        assert_eq!(a.detected(), 10);
        assert_eq!(a.total(), 20);
    }

    #[test]
    fn clamps_impossible_counts() {
        let p = Proportion::new(10, 4);
        assert_eq!(p.detected(), 4);
    }

    #[test]
    fn latency_aggregation() {
        let mut l = LatencyStats::new();
        assert_eq!(l.average(), None);
        assert_eq!(l.paper_cell(), "-");
        for ms in [10, 30, 20] {
            l.record(ms);
        }
        assert_eq!(l.min(), Some(10));
        assert_eq!(l.max(), Some(30));
        assert_eq!(l.average(), Some(20.0));
        assert_eq!(l.count(), 3);
        assert_eq!(l.paper_cell(), "10/20/30");
    }

    #[test]
    fn latency_merge() {
        let mut a = LatencyStats::new();
        a.record(5);
        let mut b = LatencyStats::new();
        b.record(100);
        b.record(50);
        a.merge(b);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(100));
        assert_eq!(a.count(), 3);

        let mut empty = LatencyStats::new();
        empty.merge(a);
        assert_eq!(empty.min(), Some(5));
    }

    #[test]
    fn display_proportion() {
        assert_eq!(Proportion::new(3, 9).to_string(), "3/9");
    }

    #[test]
    fn powell_estimate_matches_hand_computation() {
        // Hand-computed per Powell et al. simple sampling: c^ = nd/ne,
        // half-width z·√(c^(1−c^)/ne).
        // nd = 130, ne = 200: c^ = 0.65,
        // √(0.65·0.35/200) = √0.0011375 = 0.03372684..., ×1.959963985
        // = 0.06610... .
        let p = Proportion::new(130, 200);
        assert_eq!(p.estimate(), Some(0.65));
        let half = p.half_width_normal(Z_95).unwrap();
        assert!((half - 0.066_103).abs() < 1e-5, "half = {half}");

        // nd = 45, ne = 50: c^ = 0.9, √(0.9·0.1/50) = 0.04242640...,
        // ×1.959963985 = 0.08315... .
        let p = Proportion::new(45, 50);
        let half = p.half_width_normal(Z_95).unwrap();
        assert!((half - 0.083_154).abs() < 1e-5, "half = {half}");
    }

    #[test]
    fn powell_wilson_matches_hand_computation() {
        // Wilson at nd = 8, ne = 10, z = 1.959963985:
        // centre = (0.8 + z²/20) / (1 + z²/10) = 0.99207.../1.38415...
        // half = (z/denom)·√(0.8·0.2/10 + z²/400)
        // → interval [0.490162, 0.943318].
        let p = Proportion::new(8, 10);
        let (lo, hi) = p.interval_wilson(Z_95).unwrap();
        assert!((lo - 0.490_162).abs() < 1e-5, "lo = {lo}");
        assert!((hi - 0.943_318).abs() < 1e-5, "hi = {hi}");
    }

    #[test]
    fn zero_trial_estimator_is_undefined() {
        let empty = Proportion::new(0, 0);
        assert_eq!(empty.estimate(), None);
        assert_eq!(empty.half_width_normal(Z_95), None);
        assert_eq!(empty.interval_wilson(Z_95), None);
        assert_eq!(empty.paper_cell(), "-");
    }

    #[test]
    fn all_detected_estimator_is_degenerate_but_wilson_is_not() {
        let all = Proportion::new(25, 25);
        assert_eq!(all.estimate(), Some(1.0));
        // Normal approximation collapses to zero width at c^ = 1...
        assert_eq!(all.half_width_normal(Z_95), Some(0.0));
        // ...while Wilson keeps an honest lower bound:
        // lo = ((1 + z²/50) − (z/denom-style half)) / (1 + z²/25)
        //    ≈ 0.866808 at ne = 25.
        let (lo, hi) = all.interval_wilson(Z_95).unwrap();
        assert!((lo - 0.866_808).abs() < 1e-5, "lo = {lo}");
        assert_eq!(hi, 1.0);
    }
}
