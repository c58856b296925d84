//! Experimental protocol constants (paper Section 3.4), and the
//! index-ordered fan-out ([`map_indexed`]) of the runs that are not
//! campaign trials: golden runs, the calibration sweep and the recovery
//! ablation.

use std::sync::atomic::{AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};
use simenv::TestCaseGrid;

/// The campaign protocol: injection timing, observation window and
/// test-case envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Protocol {
    /// Time between repeated injections of the same error, ms.
    pub injection_period_ms: u64,
    /// Observation window of one run, ms.
    pub observation_ms: u64,
    /// The mass/velocity grid of test cases run per error.
    pub grid: TestCaseGrid,
    /// Worker threads for campaign fan-out (0 = all available cores).
    pub workers: usize,
}

impl Protocol {
    /// The paper's protocol: 20 ms injection period, 40 s window, 25
    /// test cases per error.
    pub fn paper() -> Self {
        Protocol {
            injection_period_ms: simenv::spec::INJECTION_PERIOD_MS,
            observation_ms: simenv::spec::OBSERVATION_MS,
            grid: TestCaseGrid::paper(),
            workers: 0,
        }
    }

    /// A scaled-down protocol for tests and smoke runs: `n × n` test
    /// cases and a shorter window.
    pub fn scaled(n: usize, observation_ms: u64) -> Self {
        Protocol {
            injection_period_ms: simenv::spec::INJECTION_PERIOD_MS,
            observation_ms,
            grid: TestCaseGrid::coarse(n),
            workers: 0,
        }
    }

    /// Runs per error under this protocol.
    pub fn cases_per_error(&self) -> usize {
        self.grid.len()
    }

    /// Whether trials recorded under `other` can be reused for this
    /// protocol (checkpoint/resume): same injection timing, same
    /// window, same test-case grid. Worker count is execution detail —
    /// a campaign may resume on a machine with different parallelism.
    pub fn compatible_with(&self, other: &Protocol) -> bool {
        self.injection_period_ms == other.injection_period_ms
            && self.observation_ms == other.observation_ms
            && self.grid == other.grid
    }

    /// Resolved worker count.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }
}

impl Default for Protocol {
    fn default() -> Self {
        Protocol::paper()
    }
}

/// `f(0)`, …, `f(n - 1)`, in index order, computed on up to `workers`
/// scoped threads (at least one while `n > 0`, at most `n`) that claim
/// indices through one shared cursor. The result does not depend on
/// the worker count, so a caller passes
/// [`Protocol::effective_workers`].
pub fn map_indexed<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1).min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_protocol_matches_section_3_4() {
        let p = Protocol::paper();
        assert_eq!(p.injection_period_ms, 20);
        assert_eq!(p.observation_ms, 40_000);
        assert_eq!(p.cases_per_error(), 25);
    }

    #[test]
    fn scaled_protocol_shrinks() {
        let p = Protocol::scaled(2, 1_000);
        assert_eq!(p.cases_per_error(), 4);
        assert_eq!(p.observation_ms, 1_000);
    }

    #[test]
    fn compatibility_ignores_workers_only() {
        let mut a = Protocol::scaled(2, 5_000);
        let mut b = Protocol::scaled(2, 5_000);
        a.workers = 1;
        b.workers = 8;
        assert!(a.compatible_with(&b));
        b.observation_ms = 6_000;
        assert!(!a.compatible_with(&b));
        assert!(!Protocol::scaled(2, 5_000).compatible_with(&Protocol::scaled(3, 5_000)));
    }

    #[test]
    fn effective_workers_positive() {
        assert!(Protocol::paper().effective_workers() >= 1);
        let mut p = Protocol::paper();
        p.workers = 3;
        assert_eq!(p.effective_workers(), 3);
    }

    #[test]
    fn map_indexed_keeps_index_order_at_every_worker_count() {
        let squares: Vec<usize> = (0..37).map(|i| i * i).collect();
        for workers in [0, 1, 2, 8, 64] {
            assert_eq!(map_indexed(37, workers, |i| i * i), squares, "{workers}");
        }
        assert!(map_indexed(0, 4, |i| i).is_empty());
    }
}
