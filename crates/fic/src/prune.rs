//! Dominance/equivalence pruning: proving whole flip classes inert
//! before simulation.
//!
//! A campaign error is **inert** when no instruction of the target ever
//! reads the bytes it corrupts: its injections XOR memory that is
//! write-only (never even that — simply unreferenced), so the entire
//! read-visible execution, and therefore the [`Trial`], is bit-identical
//! to the fault-free continuation of the same test case. Two such
//! classes are provable statically, straight off the target's own
//! memory maps (the full argument, with the liveness case analysis, is
//! in `docs/PROOFS.md` §Dominance rules):
//!
//! * **Dead stack space** — addresses where
//!   [`memsim::StackLayout::classify`] returns [`memsim::StackHit::Dead`]:
//!   bytes outside every frame of the master's stack model.
//!   [`arrestor::MasterNode::inject`] applies the XOR and then
//!   explicitly discards `Dead` hits without raising a control-flow
//!   fault, and no module addresses the space (≈ 83 % of the 1008-byte
//!   stack).
//! * **Unread RAM** — the `reserved` and `dbg_trace` blocks of the
//!   master's application-RAM image ([`arrestor::SignalMap`]):
//!   allocated to fill the paper's 417-byte map, written by nothing,
//!   read by nothing.
//!
//! The campaign runner skips execution for every trial whose flip
//! classifies ([`InertMap::classify`]), shares one **reference trial**
//! per test case ([`PruneCache`], executed by
//! [`crate::experiment::run_reference_trial_with`]) across all inert
//! errors of that case, and counts the skips exactly in the fold —
//! journal bytes, tables and attribution stay byte-identical to a
//! run with pruning off (pinned by `tests/settle_prune_equivalence.rs`).
//!
//! The E1 set targets monitored signals only, so it contains no inert
//! errors; under the seeded E2 set 43 of the 50 stack flips and 135 of
//! the 150 RAM flips classify (89 % overall — the dead stack covers
//! ≈ 83 % of addresses and the `reserved` fill block dominates the
//! 417-byte RAM map).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use arrestor::{EaSet, MasterNode};
use memsim::{BitFlip, Region, StackHit, StackLayout};
use simenv::TestCase;

use crate::experiment::{run_reference_trial_with, Trial};
use crate::protocol::Protocol;

/// Which static argument proves a flip inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneClass {
    /// The flip lands in dead stack space — outside every frame of the
    /// stack model, discarded by the injector, addressed by nothing.
    DeadStack,
    /// The flip lands in the `reserved` or `dbg_trace` RAM blocks —
    /// allocated but never read or written by any module.
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

/// One half-open address span in application RAM.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
}

impl Span {
    fn contains(self, addr: usize) -> bool {
        (self.start..self.end).contains(&addr)
    }
}

/// The statically-inert coordinates of the master target, read off the
/// same memory maps the nodes execute against (a throwaway
/// [`MasterNode`], exactly as [`crate::error_set::e1`] reads signal
/// addresses).
#[derive(Debug)]
pub struct InertMap {
    stack: StackLayout,
    unread_ram: Vec<Span>,
}

impl InertMap {
    /// Builds the map from the target's own stack model and RAM image.
    ///
    /// # Panics
    ///
    /// Never for the paper's memory maps: the `reserved` and
    /// `dbg_trace` symbols are always allocated (covered by tests).
    pub fn new() -> Self {
        let (stack, _calc) = arrestor::stackmodel::master_stack();
        let node = MasterNode::new(120, EaSet::ALL);
        let unread_ram = ["reserved", "dbg_trace"]
            .iter()
            .map(|name| {
                let sym = node
                    .signals()
                    .symbols()
                    .symbol(name)
                    .expect("allocated in every SignalMap");
                Span {
                    start: sym.addr,
                    end: sym.addr + sym.width,
                }
            })
            .collect();
        InertMap { stack, unread_ram }
    }

    /// Classifies a flip as provably inert, or `None` when it must be
    /// executed. Conservative: anything not in a proven-dead span —
    /// including out-of-range coordinates — stays live.
    pub fn classify(&self, flip: BitFlip) -> Option<PruneClass> {
        match flip.region {
            Region::Stack => (flip.addr < memsim::STACK_BYTES
                && self.stack.classify(flip.addr) == StackHit::Dead)
                .then_some(PruneClass::DeadStack),
            Region::AppRam => self
                .unread_ram
                .iter()
                .any(|span| span.contains(flip.addr))
                .then_some(PruneClass::UnreadRam),
        }
    }
}

impl Default for InertMap {
    fn default() -> Self {
        Self::new()
    }
}

/// The campaign-wide prune state: the inert-coordinate map plus one
/// shared reference trial per test case, built lazily by the first
/// worker that prunes a trial of that case (the same sharing idiom as
/// [`crate::campaign::CheckpointCache`]).
#[derive(Debug)]
pub struct PruneCache {
    map: InertMap,
    references: Mutex<HashMap<usize, Arc<Trial>>>,
}

impl PruneCache {
    /// An empty cache over a freshly-built [`InertMap`].
    pub fn new() -> Self {
        PruneCache {
            map: InertMap::new(),
            references: Mutex::new(HashMap::new()),
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
        let mut map = self
            .references
            .lock()
            .expect("no panics while holding lock");
        if let Some(existing) = map.get(&case_index) {
            return (Arc::clone(existing), false);
        }
        let trial = Arc::new(run_reference_trial_with(
            protocol,
            case,
            prefix,
            analytic_settle,
        ));
        map.insert(case_index, Arc::clone(&trial));
        (trial, true)
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
    use crate::experiment::{fault_free_prefix, run_trial_checkpointed_observed};

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
        let (executed, _) = run_trial_checkpointed_observed(&protocol, flip, case, &prefix);
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
}
