//! Dominance/equivalence pruning: proving whole flip classes inert
//! before simulation.
//!
//! A campaign error is **inert** when no instruction of the target ever
//! reads the bytes it corrupts: its injections XOR memory that is
//! write-only (never even that — simply unreferenced), so the entire
//! read-visible execution, and therefore the [`Trial`], is bit-identical
//! to the fault-free continuation of the same test case. Two such
//! classes are provable statically, straight off the reach table
//! ([`arrestor::reach`]) that lays out the target's memory (the full
//! argument, with the liveness case analysis, is in `docs/PROOFS.md`
//! §Dominance rules): stack bytes outside every frame
//! ([`PruneClass::DeadStack`]) and RAM symbols nothing reads
//! ([`PruneClass::UnreadRam`]).
//!
//! The campaign runner skips execution for every trial whose flip
//! classifies ([`InertMap::classify`]), shares one **reference trial**
//! per test case ([`PruneCache`], executed by
//! [`crate::experiment::run_reference_trial_with`]) across all inert
//! errors of that case, and counts the skips exactly in the fold —
//! journal bytes, tables and attribution stay byte-identical to
//! replaying every trial from t = 0 (pinned by
//! `tests/settle_prune_equivalence.rs`).
//! How many errors of each set classify is in `docs/PROOFS.md`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use arrestor::reach;
use memsim::{BitFlip, Region};
use simenv::TestCase;

use crate::experiment::{run_reference_trial_with, Trial};
use crate::protocol::Protocol;

/// Which static argument proves a flip inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneClass {
    /// The flip lands in dead stack space: outside every frame of the
    /// reach table, discarded by the injector, addressed by nothing.
    DeadStack,
    /// The flip lands in a RAM symbol the reach table marks unread:
    /// allocated, but never read or written by any module.
    UnreadRam,
}

impl PruneClass {
    /// Stable label for telemetry and reports.
    pub const fn label(self) -> &'static str {
        match self {
            PruneClass::DeadStack => "dead_stack",
            PruneClass::UnreadRam => "unread_ram",
        }
    }
}

/// The statically-inert coordinates of the master target, read off the
/// reach table that lays out its memory.
#[derive(Debug, Default)]
pub struct InertMap;

impl InertMap {
    /// The map of the target's stack and RAM image.
    pub fn new() -> Self {
        InertMap
    }

    /// Classifies a flip as provably inert, or `None` when it must be
    /// executed. Conservative: anything not in a proven-dead span —
    /// including out-of-range coordinates — stays live.
    pub fn classify(&self, flip: BitFlip) -> Option<PruneClass> {
        match flip.region {
            Region::Stack => (flip.addr < memsim::STACK_BYTES
                && reach::frame_at(flip.addr).is_none())
            .then_some(PruneClass::DeadStack),
            Region::AppRam => reach::ram_row(flip.addr)
                .is_some_and(|(row, _)| !row.has(reach::READ))
                .then_some(PruneClass::UnreadRam),
        }
    }
}

/// Values built lazily, once per test case, and shared by every worker
/// that needs them.
///
/// Each case has its own once-cell: the map's lock is held only to find
/// or insert the cell, never while a value builds, so a worker waits
/// only for the case it needs.
#[derive(Debug)]
pub(crate) struct CaseCells<V> {
    cells: Mutex<HashMap<usize, Arc<OnceLock<Arc<V>>>>>,
}

impl<V> Default for CaseCells<V> {
    fn default() -> Self {
        CaseCells {
            cells: Mutex::new(HashMap::new()),
        }
    }
}

impl<V> CaseCells<V> {
    /// The value cached for `case_index`, built by `build` on first
    /// use; whether this call built it.
    pub(crate) fn get_or_build(
        &self,
        case_index: usize,
        build: impl FnOnce() -> V,
    ) -> (Arc<V>, bool) {
        let cell = Arc::clone(
            self.cells
                .lock()
                .expect("no panics while holding lock")
                .entry(case_index)
                .or_default(),
        );
        // `get_or_init` runs exactly one initialiser per cell; callers
        // racing on the same case block on that cell alone.
        let mut built = false;
        let value = cell.get_or_init(|| {
            built = true;
            Arc::new(build())
        });
        (Arc::clone(value), built)
    }
}

/// The campaign-wide prune state: the inert-coordinate map plus one
/// shared reference trial per test case, built lazily by the first
/// worker that prunes a trial of that case.
#[derive(Debug)]
pub struct PruneCache {
    map: InertMap,
    references: CaseCells<Trial>,
}

impl PruneCache {
    /// An empty cache over a freshly-built [`InertMap`].
    pub fn new() -> Self {
        PruneCache {
            map: InertMap::new(),
            references: CaseCells::default(),
        }
    }

    /// Classifies a flip against the inert map.
    pub fn classify(&self, flip: BitFlip) -> Option<PruneClass> {
        self.map.classify(flip)
    }

    /// The shared reference trial for `case`, built on first use.
    /// Returns the trial and whether this call built it (so the caller
    /// can count reference executions exactly once).
    pub fn reference(
        &self,
        protocol: &Protocol,
        case_index: usize,
        case: TestCase,
        prefix: &arrestor::Snapshot,
        analytic_settle: bool,
    ) -> (Arc<Trial>, bool) {
        self.references.get_or_build(case_index, || {
            run_reference_trial_with(protocol, case, prefix, analytic_settle)
        })
    }
}

impl Default for PruneCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_set;
    use crate::experiment::{fault_free_prefix, run_trial_checkpointed_observed_with};

    #[test]
    fn dead_stack_and_unread_ram_classify() {
        let map = InertMap::new();
        // Address 10 is below every frame (see stackmodel tests).
        assert_eq!(
            map.classify(BitFlip::new(Region::Stack, 10, 3)),
            Some(PruneClass::DeadStack)
        );
        // The ISR context sits at the top of the stack: live.
        assert_eq!(
            map.classify(BitFlip::new(Region::Stack, memsim::STACK_BYTES - 4, 0)),
            None
        );
        // Monitored signals are live RAM.
        assert_eq!(map.classify(BitFlip::new(Region::AppRam, 0, 0)), None);
        // The reserved block fills the tail of the 417-byte image.
        assert_eq!(
            map.classify(BitFlip::new(Region::AppRam, memsim::APP_RAM_BYTES - 1, 7)),
            Some(PruneClass::UnreadRam)
        );
    }

    #[test]
    fn out_of_range_stack_flips_stay_live() {
        let map = InertMap::new();
        assert_eq!(
            map.classify(BitFlip::new(Region::Stack, memsim::STACK_BYTES + 100, 0)),
            None
        );
    }

    #[test]
    fn e1_contains_no_inert_errors() {
        let map = InertMap::new();
        for error in error_set::e1() {
            assert_eq!(map.classify(error.flip), None, "S{}", error.number);
        }
    }

    #[test]
    fn e2_contains_inert_errors_of_both_classes() {
        let map = InertMap::new();
        let classes: Vec<_> = error_set::e2()
            .iter()
            .filter_map(|e| map.classify(e.flip))
            .collect();
        assert!(classes.contains(&PruneClass::DeadStack), "{classes:?}");
        assert!(classes.contains(&PruneClass::UnreadRam), "{classes:?}");
    }

    #[test]
    fn reference_trial_equals_executed_inert_trial() {
        let protocol = crate::protocol::Protocol::scaled(1, 3_000);
        let case = protocol.grid.cases()[0];
        let prefix = fault_free_prefix(&protocol, case);
        let cache = PruneCache::new();
        let flip = BitFlip::new(Region::Stack, 10, 3);
        assert!(cache.classify(flip).is_some());
        let (reference, built) = cache.reference(&protocol, 0, case, &prefix, false);
        assert!(built);
        let (executed, _) =
            run_trial_checkpointed_observed_with(&protocol, flip, case, &prefix, false);
        assert_eq!(*reference, executed);
        // Second lookup shares, never rebuilds.
        let (again, built) = cache.reference(&protocol, 0, case, &prefix, false);
        assert!(!built);
        assert_eq!(*again, executed);
    }

    #[test]
    fn concurrent_references_build_each_case_exactly_once() {
        let protocol = crate::protocol::Protocol::scaled(2, 3_000);
        let cases = protocol.grid.cases();
        let prefixes: Vec<_> = cases
            .iter()
            .map(|&case| fault_free_prefix(&protocol, case))
            .collect();
        let sequential: Vec<Trial> = cases
            .iter()
            .zip(&prefixes)
            .map(|(&case, prefix)| run_reference_trial_with(&protocol, case, prefix, true))
            .collect();
        let cache = PruneCache::new();
        // Every thread asks for every case, starting at a different
        // one: the same case races across threads, distinct cases run
        // side by side.
        let threads = 6;
        let start = std::sync::Barrier::new(threads);
        let results: Vec<Vec<(usize, Arc<Trial>, bool)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (cache, protocol, cases, prefixes) = (&cache, &protocol, &cases, &prefixes);
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        (0..cases.len())
                            .map(|k| {
                                let ci = (t + k) % cases.len();
                                let (trial, built) =
                                    cache.reference(protocol, ci, cases[ci], &prefixes[ci], true);
                                (ci, trial, built)
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut builds = vec![0; cases.len()];
        for (ci, trial, built) in results.into_iter().flatten() {
            assert_eq!(*trial, sequential[ci], "case {ci}");
            builds[ci] += usize::from(built);
        }
        assert_eq!(builds, vec![1; cases.len()]);
    }

    #[test]
    fn a_reference_build_blocks_only_its_own_case() {
        // One thread is mid-build on case 0, parked on a rendezvous
        // inside its build; a second thread must still get case 1 built
        // and returned. Were the cache locked while a reference
        // simulates, it would wait for case 0 and time out.
        let protocol = crate::protocol::Protocol::scaled(2, 3_000);
        let case = protocol.grid.cases()[1];
        let prefix = fault_free_prefix(&protocol, case);
        let cache = PruneCache::new();
        let (entered, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let placeholder = Trial {
            failed: false,
            per_ea_first_ms: [None; 7],
            first_injection_ms: 0,
            final_distance_m: 0.0,
        };
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                cache.references.get_or_build(0, || {
                    entered.wait();
                    release.wait();
                    placeholder.clone()
                })
            });
            entered.wait();
            let (sender, receiver) = std::sync::mpsc::channel();
            let (cache, protocol, prefix) = (&cache, &protocol, &prefix);
            scope.spawn(move || {
                let _ = sender.send(cache.reference(protocol, 1, case, prefix, true));
            });
            let other = receiver.recv_timeout(std::time::Duration::from_secs(60));
            release.wait();
            assert!(holder.join().unwrap().1, "the holder built case 0");
            let (trial, built) = other.expect("case 1 must build while case 0 is mid-build");
            assert!(built);
            assert_eq!(
                *trial,
                run_reference_trial_with(protocol, case, prefix, true)
            );
        });
        // Later lookups of case 0 share the holder's build.
        let (trial, built) = cache
            .references
            .get_or_build(0, || unreachable!("case 0 is built"));
        assert!(!built);
        assert_eq!(*trial, placeholder);
    }
}
