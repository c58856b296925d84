//! The detector bank: all executable assertions of a system, their
//! detection log, and the "digital output pin" the paper's target raises
//! on detection.

use serde::{Deserialize, Serialize};

use crate::monitor::{Checked, SignalMonitor};
use crate::verdict::Violation;
use crate::{Millis, Sample};

/// Index of a monitor within a [`DetectorBank`].
///
/// In the paper's case study these correspond to the mechanisms EA1–EA7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MonitorId(pub usize);

/// How far the sample that triggered a detection sits from the
/// monitor's committed history — verdict metadata that lets a
/// differential trace oracle cross-check *what the assertion saw*
/// against *where the traces diverged*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DivergenceMeta {
    /// The offending sample.
    pub observed: Sample,
    /// The last committed (accepted) sample, when history existed.
    pub committed: Option<Sample>,
    /// `observed − committed` (signed), when history existed.
    pub deviation: Option<Sample>,
}

/// One raised detection: which mechanism fired, when, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectionEvent {
    /// The mechanism that detected the error.
    pub monitor: MonitorId,
    /// Timestamp in milliseconds of system time.
    pub at: Millis,
    /// The constraint violation that triggered detection.
    pub violation: Violation,
    /// Observed-vs-committed divergence at detection time.
    pub divergence: DivergenceMeta,
}

/// A bank of [`SignalMonitor`]s with a shared, time-stamped detection log.
///
/// Mechanisms can be *enabled* selectively — the paper evaluates eight
/// software versions: each of EA1–EA7 alone, plus all seven at once.
/// Disabled monitors still track signal history (their state follows the
/// signal), but they raise no detections; this mirrors recompiling the
/// target with a subset of assertions active while keeping run-to-run
/// behaviour comparable.
///
/// The log records each enabled mechanism's *first* detection, in
/// firing order, so it never holds more than one event per monitor:
/// coverage and latency ("first injection to first detection") read
/// nothing else. Later violations still run the check, update the
/// monitor's history and count in [`SignalMonitor::violations`].
///
/// # Example
///
/// ```
/// use ea_core::prelude::*;
///
/// let mut bank = DetectorBank::new();
/// let speed = bank.add(SignalMonitor::continuous(
///     "speed",
///     ContinuousParams::builder(0, 100)
///         .increase_rate(0, 5)
///         .decrease_rate(0, 5)
///         .build()?,
/// ));
/// bank.observe(speed, 50, 0);
/// bank.observe(speed, 90, 7); // rate violation at t = 7 ms
/// assert_eq!(bank.events().len(), 1);
/// assert_eq!(bank.first_detection().unwrap().at, 7);
/// # Ok::<(), ea_core::Error>(())
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DetectorBank {
    monitors: Vec<SignalMonitor>,
    enabled: Vec<bool>,
    events: Vec<DetectionEvent>,
}

impl DetectorBank {
    /// Creates an empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a monitor (enabled) and returns its id.
    pub fn add(&mut self, monitor: SignalMonitor) -> MonitorId {
        self.monitors.push(monitor);
        self.enabled.push(true);
        MonitorId(self.monitors.len() - 1)
    }

    /// Number of monitors in the bank.
    pub fn len(&self) -> usize {
        self.monitors.len()
    }

    /// Whether the bank holds no monitors.
    pub fn is_empty(&self) -> bool {
        self.monitors.is_empty()
    }

    /// Enables or disables one mechanism.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a monitor of this bank.
    pub fn set_enabled(&mut self, id: MonitorId, enabled: bool) {
        self.enabled[id.0] = enabled;
    }

    /// Enables exactly the given mechanisms, disabling all others.
    pub fn enable_only<I>(&mut self, ids: I)
    where
        I: IntoIterator<Item = MonitorId>,
    {
        for flag in &mut self.enabled {
            *flag = false;
        }
        for id in ids {
            self.enabled[id.0] = true;
        }
    }

    /// Whether a mechanism is enabled.
    pub fn is_enabled(&self, id: MonitorId) -> bool {
        self.enabled[id.0]
    }

    /// Shared access to a monitor.
    pub fn monitor(&self, id: MonitorId) -> &SignalMonitor {
        &self.monitors[id.0]
    }

    /// Exclusive access to a monitor (e.g. for mode switching).
    pub fn monitor_mut(&mut self, id: MonitorId) -> &mut SignalMonitor {
        &mut self.monitors[id.0]
    }

    /// Looks a monitor up by signal name.
    pub fn find(&self, name: &str) -> Option<MonitorId> {
        self.monitors
            .iter()
            .position(|m| m.name() == name)
            .map(MonitorId)
    }

    /// Runs one executable assertion: mechanism `id` tests `sample` at
    /// time `at`.
    ///
    /// Returns the pass/violation verdict; when the mechanism is enabled
    /// and this is its first violation, the violation is appended to the
    /// detection log (the paper's "digital output pin" plus the FIC3
    /// timestamp).
    ///
    /// A sample the monitor's pass kernel admits costs its compares at
    /// the call site; everything else runs out of line.
    #[inline(always)]
    pub fn observe(
        &mut self,
        id: MonitorId,
        sample: Sample,
        at: Millis,
    ) -> Result<Checked, Violation> {
        match self.monitors[id.0].admit(sample) {
            Some(pass) => Ok(Checked {
                pass,
                committed: sample,
            }),
            None => self.observe_full(id, sample, at),
        }
    }

    /// The Table 2 / Table 3 procedure and the first-detection log for a
    /// sample the pass kernel did not admit.
    #[inline(never)]
    fn observe_full(
        &mut self,
        id: MonitorId,
        sample: Sample,
        at: Millis,
    ) -> Result<Checked, Violation> {
        let committed = self.monitors[id.0].previous();
        let result = self.monitors[id.0].check_full(sample);
        if let Err(violation) = &result {
            if self.enabled[id.0] && !self.has_detected(id) {
                self.events.push(DetectionEvent {
                    monitor: id,
                    at,
                    violation: *violation,
                    divergence: DivergenceMeta {
                        observed: sample,
                        committed,
                        deviation: committed.map(|c| sample.wrapping_sub(c)),
                    },
                });
            }
        }
        result
    }

    /// Each enabled mechanism's first detection, in firing order.
    pub fn events(&self) -> &[DetectionEvent] {
        &self.events
    }

    /// The first (earliest-logged) detection, if any — the paper's
    /// latency measurements are "first injection to first detection".
    pub fn first_detection(&self) -> Option<&DetectionEvent> {
        self.events.first()
    }

    /// Whether mechanism `id` has a detection in the log. The log holds
    /// at most one event per monitor, so the scan is bounded by
    /// [`len`](Self::len).
    pub fn has_detected(&self, id: MonitorId) -> bool {
        self.events.iter().any(|e| e.monitor == id)
    }

    /// Whether any enabled mechanism has detected anything.
    pub fn any_detection(&self) -> bool {
        !self.events.is_empty()
    }

    /// Clears the log and every monitor's history (new experiment run).
    pub fn reset(&mut self) {
        self.events.clear();
        for monitor in &mut self.monitors {
            monitor.reset();
        }
    }

    /// Iterates over the monitors with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (MonitorId, &SignalMonitor)> {
        self.monitors
            .iter()
            .enumerate()
            .map(|(i, m)| (MonitorId(i), m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cont::ContinuousParams;
    use crate::disc::DiscreteParams;

    fn bank_with_two() -> (DetectorBank, MonitorId, MonitorId) {
        let mut bank = DetectorBank::new();
        let a = bank.add(SignalMonitor::continuous(
            "a",
            ContinuousParams::builder(0, 100)
                .increase_rate(0, 5)
                .decrease_rate(0, 5)
                .build()
                .unwrap(),
        ));
        let b = bank.add(SignalMonitor::discrete(
            "b",
            DiscreteParams::random([1, 2]).unwrap(),
        ));
        (bank, a, b)
    }

    #[test]
    fn detections_are_logged_with_timestamps() {
        let (mut bank, a, _) = bank_with_two();
        bank.observe(a, 50, 0).unwrap();
        bank.observe(a, 51, 7).unwrap();
        assert!(bank.observe(a, 99, 14).is_err());
        let events = bank.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at, 14);
        assert_eq!(events[0].monitor, a);
        assert!(bank.any_detection());
    }

    #[test]
    fn detections_carry_divergence_metadata() {
        let (mut bank, a, _) = bank_with_two();
        bank.observe(a, 50, 0).unwrap();
        assert!(bank.observe(a, 99, 7).is_err());
        let event = bank.events()[0];
        assert_eq!(event.divergence.observed, 99);
        assert_eq!(event.divergence.committed, Some(50));
        assert_eq!(event.divergence.deviation, Some(49));
    }

    #[test]
    fn first_sample_violation_has_no_committed_history() {
        let (mut bank, a, _) = bank_with_two();
        // Out of range on the very first sample: no history yet.
        assert!(bank.observe(a, 5_000, 0).is_err());
        let event = bank.events()[0];
        assert_eq!(event.divergence.observed, 5_000);
        assert_eq!(event.divergence.committed, None);
        assert_eq!(event.divergence.deviation, None);
    }

    #[test]
    fn disabled_mechanism_checks_but_does_not_log() {
        let (mut bank, a, b) = bank_with_two();
        bank.set_enabled(a, false);
        bank.observe(a, 50, 0).unwrap();
        assert!(bank.observe(a, 99, 7).is_err());
        assert!(bank.events().is_empty());
        assert!(!bank.is_enabled(a));
        assert!(bank.is_enabled(b));
    }

    #[test]
    fn enable_only_selects_a_single_version() {
        let (mut bank, a, b) = bank_with_two();
        bank.enable_only([b]);
        assert!(!bank.is_enabled(a));
        assert!(bank.is_enabled(b));
        assert!(bank.observe(a, 99999, 0).is_err()); // range violation
        assert!(bank.events().is_empty()); // but not logged
        assert!(bank.observe(b, 7, 0).is_err());
        assert_eq!(bank.events().len(), 1);
    }

    #[test]
    fn find_by_name() {
        let (bank, a, b) = bank_with_two();
        assert_eq!(bank.find("a"), Some(a));
        assert_eq!(bank.find("b"), Some(b));
        assert_eq!(bank.find("missing"), None);
    }

    #[test]
    fn reset_clears_log_and_history() {
        let (mut bank, a, _) = bank_with_two();
        bank.observe(a, 50, 0).unwrap();
        let _ = bank.observe(a, 99, 7);
        bank.reset();
        assert!(bank.events().is_empty());
        assert_eq!(bank.monitor(a).previous(), None);
        // After reset a big jump passes (first sample, range only).
        assert!(bank.observe(a, 90, 0).is_ok());
    }

    #[test]
    fn screaming_monitor_cannot_hide_a_later_first_detection() {
        let (mut bank, a, b) = bank_with_two();
        bank.observe(a, 0, 0).unwrap();
        // The default recovery holds the previous sample, so every jump
        // to 99 violates the rate again.
        for t in 1..=70_000 {
            assert!(bank.observe(a, 99, t).is_err());
        }
        assert!(bank.observe(b, 7, 70_001).is_err());
        assert_eq!(bank.monitor(a).violations(), 70_000);
        let fired: Vec<_> = bank.events().iter().map(|e| (e.monitor, e.at)).collect();
        assert_eq!(fired, vec![(a, 1), (b, 70_001)]);
        assert!(bank.has_detected(a) && bank.has_detected(b));
    }

    #[test]
    fn first_detection_is_earliest() {
        let (mut bank, a, b) = bank_with_two();
        bank.observe(a, 0, 0).unwrap();
        let _ = bank.observe(b, 9, 3);
        let _ = bank.observe(a, 99, 5);
        assert_eq!(bank.first_detection().unwrap().at, 3);
        assert_eq!(bank.first_detection().unwrap().monitor, b);
    }

    #[test]
    fn len_and_iter() {
        let (bank, ..) = bank_with_two();
        assert_eq!(bank.len(), 2);
        assert!(!bank.is_empty());
        let names: Vec<_> = bank.iter().map(|(_, m)| m.name().to_owned()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
