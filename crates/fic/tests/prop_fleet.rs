//! Property tests for the fleet scheduler and its fan-in algebra.
//!
//! The scheduler is a pure state machine over logical time, so these
//! tests drive it directly: lease expiry must hand silent workers'
//! slices to the next asker (and only after the TTL), duplicate
//! results must dedup first-wins no matter who submits in what order,
//! and the merged aggregates a server folds from slice results must be
//! invariant under the arrival/completion permutation — the same
//! contract `prop_telemetry`/`prop_attribution` pin for the underlying
//! merges, checked here end-to-end through fleet semantics.

use std::collections::HashSet;

use fic::fleet::{Scheduler, SliceSpec, SliceStatus};
use fic::journal::CampaignKind;
use fic::telemetry::{Registry, TelemetrySnapshot};
use fic::{error_set, E1Report, Trial};
use proptest::prelude::*;

fn slice(case_index: usize) -> SliceSpec {
    SliceSpec {
        campaign: 0,
        kind: CampaignKind::E1,
        case_index,
        error_numbers: vec![1, 2, 3],
    }
}

/// A synthetic trial that is a pure function of its key, mirroring the
/// campaign engine's determinism: every worker that runs the same
/// ⟨error, case⟩ pair produces the same trial, which is what makes
/// first-wins dedup order-free.
fn trial_for(error_number: usize, case_index: usize) -> Trial {
    let mut per_ea_first_ms = [None; 7];
    if !(error_number + case_index).is_multiple_of(3) {
        per_ea_first_ms[error_number % 7] = Some(20 + 20 * (case_index as u64 + 1));
    }
    Trial {
        failed: (error_number + case_index).is_multiple_of(5),
        per_ea_first_ms,
        first_injection_ms: 20,
        final_distance_m: 150.0 + error_number as f64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A slice whose holder stops heartbeating is reassigned exactly
    /// when the TTL lapses: not one tick before, unconditionally after.
    #[test]
    fn lease_expires_exactly_at_ttl(
        lease_ms in 1u64..1_000,
        beats in proptest::collection::vec(1u64..1_000, 0..6),
    ) {
        let mut s = Scheduler::new(lease_ms);
        s.push(slice(0));
        let holder = s.register();
        let vulture = s.register();
        let (id, _) = s.lease(holder, 0).unwrap();

        // Heartbeat at strictly-increasing instants, each within the
        // TTL of the previous extension so the lease stays alive.
        let mut last = 0u64;
        for delta in &beats {
            let at = last + (delta % lease_ms.max(1)).min(lease_ms - 1);
            prop_assert!(s.heartbeat(holder, id, at));
            last = at;
        }
        let expiry = last + lease_ms;

        // One instant before the TTL lapses the slice is not available.
        prop_assert!(s.lease(vulture, expiry - 1).is_none());
        prop_assert_eq!(
            s.status(id),
            Some(SliceStatus::Leased { worker_id: holder, expires_at_ms: expiry })
        );
        // At the TTL it is handed to the next asker, and the old
        // holder's heartbeat becomes a no-op.
        let (re_id, _) = s.lease(vulture, expiry).unwrap();
        prop_assert_eq!(re_id, id);
        prop_assert!(!s.heartbeat(holder, id, expiry));
    }

    /// However many workers race to submit a slice, in whatever order,
    /// exactly one submission per slice is accepted — the first.
    #[test]
    fn duplicate_results_dedup_first_wins(
        n_slices in 1usize..6,
        n_workers in 2usize..5,
        order_seed in proptest::collection::vec(0usize..100, 1..64),
    ) {
        let mut s = Scheduler::new(10);
        for c in 0..n_slices {
            s.push(slice(c));
        }
        let workers: Vec<u64> = (0..n_workers).map(|_| s.register()).collect();
        // Everyone ends up holding (or having held) everything: lease
        // each slice, let it lapse, lease it again with another worker.
        for (i, &w) in workers.iter().enumerate() {
            let at = (i as u64) * 20;
            while s.lease(w, at).is_some() {}
        }

        // Submit results in a generated order, with repeats; count the
        // accepted ones per slice.
        let mut accepted = vec![0usize; n_slices];
        for seed in &order_seed {
            let slice_id = (seed % n_slices) as u64;
            if s.complete(slice_id) {
                accepted[slice_id as usize] += 1;
            }
        }
        for (slice_id, count) in accepted.iter().enumerate() {
            prop_assert!(*count <= 1, "slice {slice_id} accepted {count} results");
            if *count == 1 {
                prop_assert_eq!(s.status(slice_id as u64), Some(SliceStatus::Done));
            }
        }
    }

    /// Folding the same slice results in any arrival order — with any
    /// duplicates mixed in — produces identical merged aggregates:
    /// the report fold, the recorded-key set and the telemetry merge
    /// are all permutation-invariant, so a fleet's tables cannot
    /// depend on which worker finished first.
    #[test]
    fn merged_aggregates_are_arrival_order_invariant(
        permutation_seed in proptest::collection::vec(0usize..1_000, 8..32),
    ) {
        let errors = error_set::e1();
        // The canonical result set: 4 errors × 3 cases, each with a
        // per-slice telemetry snapshot.
        let canonical: Vec<(usize, usize)> = (1..=4usize)
            .flat_map(|n| (0..3usize).map(move |c| (n, c)))
            .collect();

        let fold = |order: &[usize]| -> (E1Report, Vec<(String, u64)>, usize) {
            let mut report = E1Report::new();
            let mut telemetry = TelemetrySnapshot::new();
            let mut recorded: HashSet<(usize, usize)> = HashSet::new();
            // Visit the canonical set in the generated order, then a
            // sweep in canonical order so every result arrives at
            // least once (duplicates are dropped by first-wins).
            let visits = order
                .iter()
                .map(|&i| canonical[i % canonical.len()])
                .chain(canonical.iter().copied());
            for (number, case) in visits {
                if !recorded.insert((number, case)) {
                    continue;
                }
                report.record(&errors[number - 1], &trial_for(number, case));
                let registry = Registry::new();
                registry.counter("campaign.trials").inc();
                registry
                    .counter(&format!("campaign.case.{case}.trials"))
                    .inc();
                telemetry.merge(&registry.snapshot());
            }
            let counters: Vec<(String, u64)> = [
                "campaign.trials".to_owned(),
                "campaign.case.0.trials".to_owned(),
                "campaign.case.1.trials".to_owned(),
                "campaign.case.2.trials".to_owned(),
            ]
            .into_iter()
            .map(|name| {
                let value = telemetry.counter(&name);
                (name, value)
            })
            .collect();
            (report, counters, recorded.len())
        };

        let identity: Vec<usize> = (0..canonical.len()).collect();
        let (base_report, base_counters, base_n) = fold(&identity);
        let (perm_report, perm_counters, perm_n) = fold(&permutation_seed);
        prop_assert_eq!(base_n, perm_n);
        prop_assert_eq!(base_report, perm_report);
        prop_assert_eq!(base_counters, perm_counters);
    }
}

#[test]
fn released_worker_slices_requeue_in_id_order() {
    let mut s = Scheduler::new(1_000);
    for c in 0..4 {
        s.push(slice(c));
    }
    let doomed = s.register();
    let survivor = s.register();
    let (a, _) = s.lease(doomed, 0).unwrap();
    let (b, _) = s.lease(doomed, 0).unwrap();
    let (c, _) = s.lease(survivor, 0).unwrap();
    assert_eq!(s.release_worker(doomed), vec![a, b]);
    // The survivor picks the released slices back up, lowest id first,
    // before reaching the never-leased tail.
    let (next, _) = s.lease(survivor, 1).unwrap();
    assert_eq!(next, a);
    let (next, _) = s.lease(survivor, 1).unwrap();
    assert_eq!(next, b);
    let (next, _) = s.lease(survivor, 1).unwrap();
    assert_eq!(next, 3);
    for id in [a, b, c, 3] {
        assert!(s.complete(id));
    }
    assert!(s.campaign_done(0));
    assert_eq!(s.counts(), (0, 0, 4));
}
