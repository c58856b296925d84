//! The work-stealing slice scheduler: pure state machine, logical time.
//!
//! The scheduler owns the fleet's queue of grid slices and tracks who
//! holds what. It is deliberately free of clocks, sockets and threads —
//! every method takes the current time as a plain `now_ms` argument —
//! so the property tests in `crates/fic/tests/prop_fleet.rs` can drive
//! lease expiry, worker death and arrival-order permutations
//! deterministically.
//!
//! Lifecycle of one slice:
//!
//! ```text
//! Pending ──lease()──▶ Leased{worker, expires} ──complete()──▶ Done
//!    ▲                        │
//!    └── expiry / release ◀───┘
//! ```
//!
//! "Work stealing" here is pull-based: idle workers keep asking for
//! leases, and a slice whose holder stopped heartbeating (or
//! disconnected) falls back to `Pending` where the next asker takes
//! it. Results are deduplicated first-wins — if a presumed-dead worker
//! resurfaces and submits after its slice was reassigned, whichever
//! submission arrives first is the one that counts, exactly the
//! [`crate::journal::Journal::walk`] rule — so reassignment can duplicate
//! *work* but never duplicates *results*.

use std::collections::HashSet;

use crate::journal::CampaignKind;

/// Immutable description of one slice: every still-pending trial of
/// one ⟨campaign, kind, test case⟩ cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceSpec {
    /// Index of the campaign this slice belongs to (into the server's
    /// campaign list).
    pub campaign: usize,
    /// Which error set the slice draws from.
    pub kind: CampaignKind,
    /// The test case shared by every trial in the slice.
    pub case_index: usize,
    /// Paper error numbers (1-based) to run for this case.
    pub error_numbers: Vec<usize>,
}

/// Where one slice is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceStatus {
    /// Waiting for a worker.
    Pending,
    /// Held under lease.
    Leased {
        /// The holder.
        worker_id: u64,
        /// Logical instant the lease lapses without a heartbeat.
        expires_at_ms: u64,
    },
    /// A result was accepted.
    Done,
}

#[derive(Debug)]
struct Slice {
    spec: SliceSpec,
    status: SliceStatus,
}

/// The fleet scheduler; see the module docs for the state machine.
#[derive(Debug)]
pub struct Scheduler {
    lease_ms: u64,
    slices: Vec<Slice>,
    /// Registered workers that have not disconnected.
    connected: HashSet<u64>,
    next_worker_id: u64,
}

impl Scheduler {
    /// An empty scheduler whose leases last `lease_ms` of logical time.
    pub fn new(lease_ms: u64) -> Self {
        Scheduler {
            lease_ms: lease_ms.max(1),
            slices: Vec::new(),
            connected: HashSet::new(),
            next_worker_id: 1,
        }
    }

    /// The lease time-to-live workers must heartbeat within.
    pub const fn lease_ms(&self) -> u64 {
        self.lease_ms
    }

    /// Appends a slice to the queue and returns its id (ids are the
    /// append order, starting at 0).
    pub fn push(&mut self, spec: SliceSpec) -> u64 {
        self.slices.push(Slice {
            spec,
            status: SliceStatus::Pending,
        });
        (self.slices.len() - 1) as u64
    }

    /// Registers a worker and returns its id.
    pub fn register(&mut self) -> u64 {
        let id = self.next_worker_id;
        self.next_worker_id += 1;
        self.connected.insert(id);
        id
    }

    /// Whether `worker_id` is a currently-connected registration.
    pub fn knows_worker(&self, worker_id: u64) -> bool {
        self.connected.contains(&worker_id)
    }

    /// Marks a worker gone (shutdown or disconnect) and releases every
    /// lease it held back to `Pending`. Returns the released slice ids.
    pub fn release_worker(&mut self, worker_id: u64) -> Vec<u64> {
        self.connected.remove(&worker_id);
        let mut released = Vec::new();
        for (id, slice) in self.slices.iter_mut().enumerate() {
            if let SliceStatus::Leased {
                worker_id: holder, ..
            } = slice.status
            {
                if holder == worker_id {
                    slice.status = SliceStatus::Pending;
                    released.push(id as u64);
                }
            }
        }
        released
    }

    /// Returns every lease that lapsed by `now_ms` to `Pending` (the
    /// heartbeat-timeout path for workers that hang without
    /// disconnecting). Returns the expired slice ids.
    pub fn expire(&mut self, now_ms: u64) -> Vec<u64> {
        let mut expired = Vec::new();
        for (id, slice) in self.slices.iter_mut().enumerate() {
            if let SliceStatus::Leased { expires_at_ms, .. } = slice.status {
                if expires_at_ms <= now_ms {
                    slice.status = SliceStatus::Pending;
                    expired.push(id as u64);
                }
            }
        }
        expired
    }

    /// The earliest instant any current lease lapses, or `None` when
    /// nothing is leased: the latest a held lease request may sleep
    /// before [`Scheduler::expire`] has a slice to hand out.
    pub fn next_expiry(&self) -> Option<u64> {
        self.slices
            .iter()
            .filter_map(|slice| match slice.status {
                SliceStatus::Leased { expires_at_ms, .. } => Some(expires_at_ms),
                _ => None,
            })
            .min()
    }

    /// Leases the lowest-id pending slice to `worker_id` (expiring
    /// lapsed leases first, so a dead holder cannot starve the queue).
    /// Returns the slice id and spec, or `None` when nothing is
    /// pending.
    pub fn lease(&mut self, worker_id: u64, now_ms: u64) -> Option<(u64, SliceSpec)> {
        if !self.knows_worker(worker_id) {
            return None;
        }
        self.expire(now_ms);
        let expires_at_ms = now_ms.saturating_add(self.lease_ms);
        for (id, slice) in self.slices.iter_mut().enumerate() {
            if slice.status == SliceStatus::Pending {
                slice.status = SliceStatus::Leased {
                    worker_id,
                    expires_at_ms,
                };
                return Some((id as u64, slice.spec.clone()));
            }
        }
        None
    }

    /// Extends the lease on `slice_id` if `worker_id` still holds it.
    /// A heartbeat for a slice the worker no longer holds (expired and
    /// reassigned, or already done) is a no-op returning `false`.
    pub fn heartbeat(&mut self, worker_id: u64, slice_id: u64, now_ms: u64) -> bool {
        let Some(slice) = self.slices.get_mut(slice_id as usize) else {
            return false;
        };
        match slice.status {
            SliceStatus::Leased {
                worker_id: holder, ..
            } if holder == worker_id => {
                slice.status = SliceStatus::Leased {
                    worker_id,
                    expires_at_ms: now_ms.saturating_add(self.lease_ms),
                };
                true
            }
            _ => false,
        }
    }

    /// Records a completed slice, first-wins: the first result for a
    /// slice is accepted regardless of who currently holds the lease
    /// (a reassigned-but-alive worker's finished work still counts);
    /// every later result for the same slice is refused. Returns
    /// whether this submission won.
    pub fn complete(&mut self, slice_id: u64) -> bool {
        let Some(slice) = self.slices.get_mut(slice_id as usize) else {
            return false;
        };
        if slice.status == SliceStatus::Done {
            return false;
        }
        slice.status = SliceStatus::Done;
        true
    }

    /// The spec of slice `slice_id`, if it exists.
    pub fn spec(&self, slice_id: u64) -> Option<&SliceSpec> {
        self.slices.get(slice_id as usize).map(|s| &s.spec)
    }

    /// The status of slice `slice_id`, if it exists.
    pub fn status(&self, slice_id: u64) -> Option<SliceStatus> {
        self.slices.get(slice_id as usize).map(|s| s.status)
    }

    /// Whether every slice of campaign `campaign` is done.
    pub fn campaign_done(&self, campaign: usize) -> bool {
        self.slices
            .iter()
            .filter(|s| s.spec.campaign == campaign)
            .all(|s| s.status == SliceStatus::Done)
    }

    /// Whether every slice of every campaign is done.
    pub fn all_done(&self) -> bool {
        self.slices.iter().all(|s| s.status == SliceStatus::Done)
    }

    /// `(pending, leased, done)` slice counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for slice in &self.slices {
            match slice.status {
                SliceStatus::Pending => counts.0 += 1,
                SliceStatus::Leased { .. } => counts.1 += 1,
                SliceStatus::Done => counts.2 += 1,
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(campaign: usize, case_index: usize) -> SliceSpec {
        SliceSpec {
            campaign,
            kind: CampaignKind::E1,
            case_index,
            error_numbers: vec![1, 2],
        }
    }

    #[test]
    fn leases_in_queue_order_and_completes() {
        let mut s = Scheduler::new(1_000);
        s.push(spec(0, 0));
        s.push(spec(0, 1));
        let w = s.register();
        let (id0, spec0) = s.lease(w, 0).unwrap();
        assert_eq!((id0, spec0.case_index), (0, 0));
        let (id1, _) = s.lease(w, 0).unwrap();
        assert_eq!(id1, 1);
        assert!(s.lease(w, 0).is_none());
        assert!(s.complete(id0));
        assert!(!s.complete(id0), "duplicate result must be refused");
        assert!(s.complete(id1));
        assert!(s.all_done());
    }

    #[test]
    fn expired_lease_is_reassigned() {
        let mut s = Scheduler::new(500);
        s.push(spec(0, 0));
        let dead = s.register();
        let live = s.register();
        let (id, _) = s.lease(dead, 0).unwrap();
        // Within the TTL the slice is not up for grabs...
        assert!(s.lease(live, 400).is_none());
        // ...heartbeats extend it...
        assert!(s.heartbeat(dead, id, 400));
        assert!(s.lease(live, 800).is_none());
        // ...but silence past the TTL hands it to the next asker.
        let (re_id, _) = s.lease(live, 901).unwrap();
        assert_eq!(re_id, id);
        // The old holder's heartbeat is now a no-op.
        assert!(!s.heartbeat(dead, id, 902));
    }

    #[test]
    fn next_expiry_is_the_earliest_lapse_and_follows_heartbeats() {
        let mut s = Scheduler::new(500);
        s.push(spec(0, 0));
        s.push(spec(0, 1));
        let w = s.register();
        assert_eq!(s.next_expiry(), None);
        let (id0, _) = s.lease(w, 0).unwrap();
        let (id1, _) = s.lease(w, 100).unwrap();
        assert_eq!(s.next_expiry(), Some(500));
        assert!(s.heartbeat(w, id0, 300));
        assert_eq!(s.next_expiry(), Some(600));
        assert!(s.complete(id1));
        assert_eq!(s.next_expiry(), Some(800));
        assert_eq!(s.expire(800), vec![id0]);
        assert_eq!(s.next_expiry(), None);
    }

    #[test]
    fn release_worker_returns_leases() {
        let mut s = Scheduler::new(10_000);
        s.push(spec(0, 0));
        let w1 = s.register();
        let w2 = s.register();
        let (id, _) = s.lease(w1, 0).unwrap();
        assert_eq!(s.release_worker(w1), vec![id]);
        assert!(!s.knows_worker(w1));
        let (re_id, _) = s.lease(w2, 1).unwrap();
        assert_eq!(re_id, id);
    }

    #[test]
    fn first_result_wins_even_after_reassignment() {
        let mut s = Scheduler::new(100);
        s.push(spec(0, 0));
        let slow = s.register();
        let fast = s.register();
        let (id, _) = s.lease(slow, 0).unwrap();
        // The lease lapses and is reassigned...
        let (re_id, _) = s.lease(fast, 250).unwrap();
        assert_eq!(re_id, id);
        // ...but the original holder finishes first: its result counts,
        // the reassigned worker's is refused.
        assert!(s.complete(id));
        assert!(!s.complete(id));
        assert_eq!(s.counts(), (0, 0, 1));
    }
}
