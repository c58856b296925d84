//! The seven executable assertions EA1–EA7 as a detector bank.

use std::fmt;

use ea_core::{DetectionEvent, DetectorBank, Millis, MonitorId};
use serde::{Deserialize, Serialize};

/// The mechanisms of the paper's case study, numbered as in Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EaId {
    /// EA1 monitors `SetValue`.
    Ea1,
    /// EA2 monitors `IsValue`.
    Ea2,
    /// EA3 monitors `i`.
    Ea3,
    /// EA4 monitors `pulscnt`.
    Ea4,
    /// EA5 monitors `ms_slot_nbr`.
    Ea5,
    /// EA6 monitors `mscnt`.
    Ea6,
    /// EA7 monitors `OutValue`.
    Ea7,
}

impl EaId {
    /// All mechanisms in Table 6 order.
    pub const ALL: [EaId; 7] = [
        EaId::Ea1,
        EaId::Ea2,
        EaId::Ea3,
        EaId::Ea4,
        EaId::Ea5,
        EaId::Ea6,
        EaId::Ea7,
    ];

    /// Zero-based index (EA1 → 0).
    pub const fn index(self) -> usize {
        match self {
            EaId::Ea1 => 0,
            EaId::Ea2 => 1,
            EaId::Ea3 => 2,
            EaId::Ea4 => 3,
            EaId::Ea5 => 4,
            EaId::Ea6 => 5,
            EaId::Ea7 => 6,
        }
    }

    /// The mechanism monitoring the signal at Table 6 index `idx`.
    pub const fn from_index(idx: usize) -> Option<EaId> {
        match idx {
            0 => Some(EaId::Ea1),
            1 => Some(EaId::Ea2),
            2 => Some(EaId::Ea3),
            3 => Some(EaId::Ea4),
            4 => Some(EaId::Ea5),
            5 => Some(EaId::Ea6),
            6 => Some(EaId::Ea7),
            _ => None,
        }
    }

    /// The monitored signal's name (paper Table 6 pairing).
    pub const fn signal_name(self) -> &'static str {
        match self {
            EaId::Ea1 => "SetValue",
            EaId::Ea2 => "IsValue",
            EaId::Ea3 => "i",
            EaId::Ea4 => "pulscnt",
            EaId::Ea5 => "ms_slot_nbr",
            EaId::Ea6 => "mscnt",
            EaId::Ea7 => "OutValue",
        }
    }

    /// The module the assertion executes in (Table 4 "Test location").
    pub const fn test_location(self) -> &'static str {
        match self {
            EaId::Ea1 | EaId::Ea2 => "V_REG",
            EaId::Ea3 => "CALC",
            EaId::Ea4 => "DIST_S",
            EaId::Ea5 | EaId::Ea6 => "CLOCK",
            EaId::Ea7 => "PRES_A",
        }
    }
}

impl fmt::Display for EaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EA{}", self.index() + 1)
    }
}

/// A set of enabled mechanisms — the paper's eight software versions are
/// the seven singletons plus [`EaSet::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EaSet(u8);

impl EaSet {
    /// No mechanism enabled (the bare version).
    pub const NONE: EaSet = EaSet(0);

    /// All seven mechanisms enabled.
    pub const ALL: EaSet = EaSet(0b0111_1111);

    /// A singleton set.
    pub const fn only(ea: EaId) -> EaSet {
        EaSet(1 << ea.index())
    }

    /// Whether the set contains a mechanism.
    pub const fn contains(self, ea: EaId) -> bool {
        self.0 & (1 << ea.index()) != 0
    }

    /// Union of two sets.
    #[must_use]
    pub const fn union(self, other: EaSet) -> EaSet {
        EaSet(self.0 | other.0)
    }

    /// Iterates over the contained mechanisms.
    pub fn iter(self) -> impl Iterator<Item = EaId> {
        EaId::ALL.into_iter().filter(move |ea| self.contains(*ea))
    }

    /// The eight versions evaluated by the paper: EA1..EA7 individually,
    /// then all seven together.
    pub fn paper_versions() -> [EaSet; 8] {
        [
            EaSet::only(EaId::Ea1),
            EaSet::only(EaId::Ea2),
            EaSet::only(EaId::Ea3),
            EaSet::only(EaId::Ea4),
            EaSet::only(EaId::Ea5),
            EaSet::only(EaId::Ea6),
            EaSet::only(EaId::Ea7),
            EaSet::ALL,
        ]
    }
}

impl Default for EaSet {
    fn default() -> Self {
        EaSet::ALL
    }
}

/// The master node's detector bank, indexed by [`EaId`].
///
/// Wraps an [`ea_core::DetectorBank`] whose monitors were created in
/// EA1..EA7 order by [`crate::instrument::build_detectors`].
#[derive(Debug, Clone)]
pub struct Detectors {
    bank: DetectorBank,
    ids: [MonitorId; 7],
    write_back: bool,
}

impl Detectors {
    /// Wraps a bank whose first seven monitors are EA1..EA7 in order.
    ///
    /// # Panics
    ///
    /// Panics if the bank does not hold exactly seven monitors.
    pub fn from_bank(bank: DetectorBank) -> Self {
        assert_eq!(bank.len(), 7, "expected the seven mechanisms EA1..EA7");
        let ids = [
            MonitorId(0),
            MonitorId(1),
            MonitorId(2),
            MonitorId(3),
            MonitorId(4),
            MonitorId(5),
            MonitorId(6),
        ];
        Detectors {
            bank,
            ids,
            write_back: false,
        }
    }

    /// Enables recovery write-back: when a mechanism detects an error it
    /// also returns the repaired value (per its monitor's
    /// [`ea_core::RecoveryStrategy`]) so the module can restore the
    /// signal — the paper's "the signal can be returned to a valid
    /// state". The evaluation runs detection-only; this mode exists for
    /// the recovery ablation (see `fic`'s `ablation_recovery`).
    #[must_use]
    pub fn with_write_back(mut self) -> Self {
        self.write_back = true;
        self
    }

    /// Restricts logging to the mechanisms of `version`.
    pub fn set_version(&mut self, version: EaSet) {
        for ea in EaId::ALL {
            self.bank
                .set_enabled(self.ids[ea.index()], version.contains(ea));
        }
    }

    /// Runs one executable assertion. Returns `Some(repaired)` when the
    /// sample violated its constraints *and* write-back is enabled: the
    /// module must store the repaired value back into the signal.
    /// Detection-only banks (the paper's experiment) always return
    /// `None` — the verdict still lands in the log.
    #[inline]
    pub fn check(&mut self, ea: EaId, value: u16, at: Millis) -> Option<u16> {
        let id = self.ids[ea.index()];
        match self.bank.observe(id, i64::from(value), at) {
            Ok(_) => None,
            Err(_) if self.write_back && self.bank.is_enabled(id) => self
                .bank
                .monitor(id)
                .last_committed()
                .map(|v| v.clamp(0, i64::from(u16::MAX)) as u16),
            Err(_) => None,
        }
    }

    /// Each enabled mechanism's first detection, in firing order.
    pub fn events(&self) -> &[DetectionEvent] {
        self.bank.events()
    }

    /// Whether mechanism `ea` has a detection in the log.
    pub fn has_detected(&self, ea: EaId) -> bool {
        self.bank.has_detected(self.ids[ea.index()])
    }

    /// Whether mechanism `ea` logs detections in this version.
    pub fn is_enabled(&self, ea: EaId) -> bool {
        self.bank.is_enabled(self.ids[ea.index()])
    }

    /// Mechanism `ea`'s monitor: its parameters and previous sample.
    pub fn monitor(&self, ea: EaId) -> &ea_core::SignalMonitor {
        self.bank.monitor(self.ids[ea.index()])
    }

    /// Maps a logged monitor id back to its mechanism.
    pub fn ea_of(&self, monitor: MonitorId) -> EaId {
        EaId::from_index(monitor.0).expect("bank holds exactly EA1..EA7")
    }

    /// Clears the log and all monitor histories (new run).
    pub fn reset(&mut self) {
        self.bank.reset();
    }

    /// Immutable access to the underlying bank.
    pub fn bank(&self) -> &DetectorBank {
        &self.bank
    }

    /// Per-mechanism check-execution counts in EA1..EA7 order, as
    /// tallied by each [`ea_core::SignalMonitor`] since the bank was
    /// built — the measured half of the assertion cost profile.
    pub fn check_counts(&self) -> [u64; 7] {
        let mut counts = [0u64; 7];
        for ea in EaId::ALL {
            counts[ea.index()] = self.monitor(ea).checks();
        }
        counts
    }

    /// Per-mechanism deterministic op cost of one check in EA1..EA7
    /// order (see [`ea_core::cost`]).
    pub fn check_costs(&self) -> [ea_core::CheckCost; 7] {
        let mut costs = [ea_core::CheckCost::ZERO; 7];
        for ea in EaId::ALL {
            costs[ea.index()] = ea_core::cost::monitor_cost(self.monitor(ea));
        }
        costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ea_indices_round_trip() {
        for ea in EaId::ALL {
            assert_eq!(EaId::from_index(ea.index()), Some(ea));
        }
        assert_eq!(EaId::from_index(7), None);
    }

    #[test]
    fn display_matches_paper_numbering() {
        assert_eq!(EaId::Ea1.to_string(), "EA1");
        assert_eq!(EaId::Ea7.to_string(), "EA7");
    }

    #[test]
    fn signal_names_match_table6() {
        let names: Vec<_> = EaId::ALL.iter().map(|ea| ea.signal_name()).collect();
        assert_eq!(
            names,
            vec![
                "SetValue",
                "IsValue",
                "i",
                "pulscnt",
                "ms_slot_nbr",
                "mscnt",
                "OutValue"
            ]
        );
    }

    #[test]
    fn test_locations_match_table4() {
        assert_eq!(EaId::Ea1.test_location(), "V_REG");
        assert_eq!(EaId::Ea2.test_location(), "V_REG");
        assert_eq!(EaId::Ea3.test_location(), "CALC");
        assert_eq!(EaId::Ea4.test_location(), "DIST_S");
        assert_eq!(EaId::Ea5.test_location(), "CLOCK");
        assert_eq!(EaId::Ea6.test_location(), "CLOCK");
        assert_eq!(EaId::Ea7.test_location(), "PRES_A");
    }

    #[test]
    fn ea_set_operations() {
        let s = EaSet::only(EaId::Ea2).union(EaSet::only(EaId::Ea5));
        assert!(s.contains(EaId::Ea2));
        assert!(s.contains(EaId::Ea5));
        assert!(!s.contains(EaId::Ea1));
        assert_eq!(s.iter().count(), 2);
        assert_eq!(EaSet::ALL.iter().count(), 7);
        assert_eq!(EaSet::NONE.iter().count(), 0);
    }

    #[test]
    fn check_counts_track_per_mechanism_executions() {
        let mut detectors = crate::instrument::build_detectors(EaSet::ALL);
        assert_eq!(detectors.check_counts(), [0; 7]);
        detectors.check(EaId::Ea6, 0, 0);
        detectors.check(EaId::Ea6, 1, 1);
        detectors.check(EaId::Ea5, 0, 1);
        let counts = detectors.check_counts();
        assert_eq!(counts[EaId::Ea6.index()], 2);
        assert_eq!(counts[EaId::Ea5.index()], 1);
        assert_eq!(counts[EaId::Ea1.index()], 0);
        // Every mechanism has a positive deterministic op cost.
        for cost in detectors.check_costs() {
            assert!(cost.total_ops() > 0);
        }
    }

    #[test]
    fn paper_versions_are_seven_singletons_plus_all() {
        let versions = EaSet::paper_versions();
        assert_eq!(versions.len(), 8);
        for (k, v) in versions.iter().take(7).enumerate() {
            assert_eq!(v.iter().count(), 1);
            assert!(v.contains(EaId::from_index(k).unwrap()));
        }
        assert_eq!(versions[7], EaSet::ALL);
    }
}
