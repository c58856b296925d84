//! Stateful per-signal monitoring: one [`SignalMonitor`] per monitored
//! signal, holding the previous sample, current mode and recovery policy.
//!
//! # The pass kernel
//!
//! Almost every check of a healthy system passes, so each monitor keeps
//! an inline, `Copy` *pass kernel* compiled from its active mode's
//! parameters: `smin`/`smax`, the two rate bands and the test 3c/4c/5c
//! verdict for an unchanged sample of a continuous signal; a base value,
//! a domain mask and per-value transition masks for a discrete signal
//! whose domain spans at most [`KERNEL_DOMAIN_SPAN`] values.
//! [`SignalMonitor::check`] consults it before anything else. That pass
//! path inlines into the caller; only a sample the kernel does not admit
//! calls out of line.
//!
//! Its contract:
//!
//! * it admits only samples that Table 2 / Table 3 admit, and returns
//!   the [`Pass`] those procedures return — wrap-arounds (tests 4a/4b),
//!   wider discrete domains and every violation fall through to
//!   [`crate::assert_cont`] / [`crate::assert_disc`], which stay the one
//!   definition of a violation;
//! * it is derived state: built by every constructor, rebuilt by
//!   [`SignalMonitor::set_mode`] and by deserialisation, and never
//!   serialised.

use serde::{Deserialize, Serialize};

use crate::cont::RateBand;
use crate::error::Error;
use crate::mode::{Mode, ModedParams, Params};
use crate::recovery::RecoveryStrategy;
use crate::verdict::{Pass, Violation};
use crate::Sample;

/// The widest discrete domain (`max D − min D + 1` values) a pass kernel
/// covers; wider domains check through [`crate::assert_disc`] alone.
pub const KERNEL_DOMAIN_SPAN: Sample = 16;

/// The inline pass path of one monitor's active parameter set (see the
/// module docs). Admits a sample only where Table 2 / Table 3 would, and
/// returns `None` for everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PassKernel {
    /// Tests 1, 2, 3a, 3b and 3c/4c/5c of Table 2.
    Continuous {
        smin: Sample,
        smax: Sample,
        incr: RateBand,
        decr: RateBand,
        /// What tests 3c/4c/5c make of an unchanged sample; `None` when
        /// they reject it.
        unchanged: Option<Pass>,
    },
    /// Table 3 over a domain inside `base .. base + KERNEL_DOMAIN_SPAN`:
    /// bit `i` stands for sample `base + i`.
    Discrete {
        base: Sample,
        domain: u16,
        /// `transitions[i]`: the admitted successors of `base + i`.
        transitions: [u16; KERNEL_DOMAIN_SPAN as usize],
    },
    /// A discrete domain wider than [`KERNEL_DOMAIN_SPAN`].
    Absent,
}

impl PassKernel {
    /// Compiles `params`, reading every fact through the accessors the
    /// Table 2 / Table 3 procedures read.
    fn compile(params: &Params) -> PassKernel {
        match params {
            Params::Continuous(p) => PassKernel::Continuous {
                smin: p.smin(),
                smax: p.smax(),
                incr: p.increase(),
                decr: p.decrease(),
                // `smin` is in range, so this runs tests 3c/4c/5c.
                unchanged: crate::assert_cont::check(p, Some(p.smin()), p.smin()).ok(),
            },
            Params::Discrete(p) => {
                let (Some(&base), Some(&max)) = (p.domain().first(), p.domain().last()) else {
                    return PassKernel::Absent;
                };
                if max
                    .checked_sub(base)
                    .is_none_or(|span| span >= KERNEL_DOMAIN_SPAN)
                {
                    return PassKernel::Absent;
                }
                let mut domain = 0u16;
                let mut transitions = [0u16; KERNEL_DOMAIN_SPAN as usize];
                for i in 0..KERNEL_DOMAIN_SPAN {
                    if p.in_domain(base + i) {
                        domain |= 1 << i;
                    }
                    for j in 0..KERNEL_DOMAIN_SPAN {
                        if p.transition_allowed(base + i, base + j) {
                            transitions[i as usize] |= 1 << j;
                        }
                    }
                }
                PassKernel::Discrete {
                    base,
                    domain,
                    transitions,
                }
            }
        }
    }

    /// The [`Pass`] Table 2 / Table 3 return for `current` after
    /// `previous`, if the kernel can tell it is one.
    #[inline(always)]
    fn admit(&self, previous: Option<Sample>, current: Sample) -> Option<Pass> {
        match *self {
            PassKernel::Continuous {
                smin,
                smax,
                incr,
                decr,
                unchanged,
            } => {
                if current > smax || current < smin {
                    return None;
                }
                let Some(prev) = previous else {
                    return Some(Pass::FirstSample);
                };
                if current > prev {
                    incr.contains(current - prev).then_some(Pass::Increase)
                } else if current < prev {
                    decr.contains(prev - current).then_some(Pass::Decrease)
                } else {
                    unchanged
                }
            }
            PassKernel::Discrete {
                base,
                domain,
                ref transitions,
            } => {
                let c = current.wrapping_sub(base);
                if !(0..KERNEL_DOMAIN_SPAN).contains(&c) || domain >> c & 1 == 0 {
                    return None;
                }
                let Some(prev) = previous else {
                    return Some(Pass::FirstSample);
                };
                let p = prev.wrapping_sub(base);
                ((0..KERNEL_DOMAIN_SPAN).contains(&p) && transitions[p as usize] >> c & 1 == 1)
                    .then_some(Pass::Discrete)
            }
            PassKernel::Absent => None,
        }
    }
}

/// The result of a successful [`SignalMonitor::check`] including recovery
/// information when a violation occurred but was repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Checked {
    /// Which test admitted the (possibly recovered) sample.
    pub pass: Pass,
    /// The value the monitor committed as the new "previous" sample.
    pub committed: Sample,
}

/// A stateful executable-assertion instance for one signal.
///
/// Wraps a [`ModedParams`] family with the signal's runtime state: the
/// previous sample `s'`, the current mode, and what to do on detection.
/// Each call to [`check`](Self::check) is one execution of the paper's
/// test routine for this signal.
///
/// # Example
///
/// ```
/// use ea_core::prelude::*;
///
/// let slot = DiscreteParams::linear(0..7, true)?;
/// let mut monitor = SignalMonitor::discrete("ms_slot_nbr", slot);
/// for expected in [0, 1, 2, 3] {
///     assert!(monitor.check(expected).is_ok());
/// }
/// // A bit flip turns 3 into 7: outside the domain.
/// assert!(monitor.check(7).is_err());
/// # Ok::<(), ea_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SignalMonitor {
    name: String,
    params: ModedParams,
    mode: Mode,
    previous: Option<Sample>,
    recovery: RecoveryStrategy,
    checks: u64,
    violations: u64,
    /// Compiled from `params` at `mode`; see the module docs.
    kernel: PassKernel,
}

impl Serialize for SignalMonitor {
    fn to_value(&self) -> serde::Value {
        // The derive layout of the logical fields; the kernel is not
        // written.
        serde::Value::Object(vec![
            ("name".into(), self.name.to_value()),
            ("params".into(), self.params.to_value()),
            ("mode".into(), self.mode.to_value()),
            ("previous".into(), self.previous.to_value()),
            ("recovery".into(), self.recovery.to_value()),
            ("checks".into(), self.checks.to_value()),
            ("violations".into(), self.violations.to_value()),
        ])
    }
}

impl Deserialize for SignalMonitor {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let params: ModedParams = serde::de_field(value, "params")?;
        let mode: Mode = serde::de_field(value, "mode")?;
        let kernel = PassKernel::compile(params.params_for(mode).map_err(serde::Error::msg)?);
        Ok(SignalMonitor {
            name: serde::de_field(value, "name")?,
            params,
            mode,
            previous: serde::de_field(value, "previous")?,
            recovery: serde::de_field(value, "recovery")?,
            checks: serde::de_field(value, "checks")?,
            violations: serde::de_field(value, "violations")?,
            kernel,
        })
    }
}

impl SignalMonitor {
    /// Creates a monitor from a full per-mode parameter family.
    pub fn new(name: impl Into<String>, params: ModedParams) -> Self {
        let mode = params.initial_mode();
        let kernel = PassKernel::compile(
            params
                .params_for(mode)
                .expect("a family always holds its initial mode"),
        );
        SignalMonitor {
            name: name.into(),
            params,
            mode,
            previous: None,
            recovery: RecoveryStrategy::default(),
            checks: 0,
            violations: 0,
            kernel,
        }
    }

    /// Convenience constructor for a single-mode continuous signal.
    pub fn continuous(name: impl Into<String>, params: crate::ContinuousParams) -> Self {
        SignalMonitor::new(name, ModedParams::new(0, params))
    }

    /// Convenience constructor for a single-mode discrete signal.
    pub fn discrete(name: impl Into<String>, params: crate::DiscreteParams) -> Self {
        SignalMonitor::new(name, ModedParams::new(0, params))
    }

    /// Sets the recovery strategy applied on detection.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryStrategy) -> Self {
        self.recovery = recovery;
        self
    }

    /// The signal name this monitor guards.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current mode.
    pub const fn mode(&self) -> Mode {
        self.mode
    }

    /// The previous committed sample, if any.
    pub const fn previous(&self) -> Option<Sample> {
        self.previous
    }

    /// Total number of checks executed.
    pub const fn checks(&self) -> u64 {
        self.checks
    }

    /// Total number of violations detected.
    pub const fn violations(&self) -> u64 {
        self.violations
    }

    /// Whether the active parameter set compiled to a pass kernel (every
    /// continuous set does; a discrete one does when its domain spans at
    /// most [`KERNEL_DOMAIN_SPAN`] values).
    pub const fn has_pass_kernel(&self) -> bool {
        !matches!(self.kernel, PassKernel::Absent)
    }

    /// The active parameter set for the current mode.
    pub fn active_params(&self) -> &Params {
        self.params
            .params_for(self.mode)
            .expect("mode transitions are validated in set_mode")
    }

    /// Switches the signal to another operating mode.
    ///
    /// The previous-sample history is kept: the paper's scheme keys the
    /// constraint *set* by mode but the signal itself is continuous in
    /// time. Call [`reset`](Self::reset) too if the mode switch implies a
    /// discontinuity.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownMode`] if no parameter set is registered for
    /// `mode`.
    pub fn set_mode(&mut self, mode: Mode) -> Result<(), Error> {
        self.kernel = PassKernel::compile(self.params.params_for(mode)?);
        self.mode = mode;
        Ok(())
    }

    /// Forgets the previous sample (e.g. after system reset).
    pub fn reset(&mut self) {
        self.previous = None;
    }

    /// Executes the executable assertion on one sample.
    ///
    /// On success the sample is committed as the new previous value. On
    /// violation the configured [`RecoveryStrategy`] computes a repaired
    /// value which is committed instead, and the violation is returned so
    /// the caller can log it, raise the detection pin, and (optionally)
    /// write the repaired value back with [`Self::last_committed`].
    #[inline(always)]
    pub fn check(&mut self, sample: Sample) -> Result<Checked, Violation> {
        match self.admit(sample) {
            Some(pass) => Ok(Checked {
                pass,
                committed: sample,
            }),
            None => self.check_full(sample),
        }
    }

    /// The pass path of [`check`](Self::check): when the pass kernel
    /// admits `sample`, counts the check, commits the sample and returns
    /// the pass. Otherwise nothing changes, and the caller finishes the
    /// check with [`check_full`](Self::check_full), which counts it.
    #[inline(always)]
    pub(crate) fn admit(&mut self, sample: Sample) -> Option<Pass> {
        let pass = self.kernel.admit(self.previous, sample)?;
        self.checks += 1;
        self.previous = Some(sample);
        Some(pass)
    }

    /// The Table 2 / Table 3 procedure for a sample the kernel did not
    /// admit.
    #[inline(never)]
    pub(crate) fn check_full(&mut self, sample: Sample) -> Result<Checked, Violation> {
        self.checks += 1;
        let params = self
            .params
            .params_for(self.mode)
            .expect("mode validated at set_mode");
        match params.check(self.previous, sample) {
            Ok(pass) => {
                self.previous = Some(sample);
                Ok(Checked {
                    pass,
                    committed: sample,
                })
            }
            Err(violation) => {
                self.violations += 1;
                let repaired = self.recovery.recover(params, &violation);
                self.previous = Some(repaired);
                Err(violation)
            }
        }
    }

    /// The value the monitor last committed (recovered value after a
    /// violation, the sample itself after a pass).
    pub const fn last_committed(&self) -> Option<Sample> {
        self.previous
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cont::ContinuousParams;
    use crate::disc::DiscreteParams;
    use crate::verdict::ViolationKind;

    fn speed_params() -> ContinuousParams {
        ContinuousParams::builder(0, 1000)
            .increase_rate(0, 50)
            .decrease_rate(0, 50)
            .build()
            .unwrap()
    }

    #[test]
    fn commits_good_samples_as_history() {
        let mut m = SignalMonitor::continuous("v", speed_params());
        m.check(100).unwrap();
        assert_eq!(m.previous(), Some(100));
        m.check(140).unwrap();
        assert_eq!(m.previous(), Some(140));
        assert_eq!(m.checks(), 2);
        assert_eq!(m.violations(), 0);
    }

    #[test]
    fn violation_recovers_history_with_default_strategy() {
        let mut m = SignalMonitor::continuous("v", speed_params());
        m.check(100).unwrap();
        let violation = m.check(900).unwrap_err();
        assert_eq!(violation.kind(), ViolationKind::IncreaseRate);
        // HoldPrevious: history stays at the last good value.
        assert_eq!(m.previous(), Some(100));
        assert_eq!(m.violations(), 1);
        // The next plausible sample is judged against the recovered value.
        assert!(m.check(120).is_ok());
    }

    #[test]
    fn recovery_none_poisons_history() {
        let mut m =
            SignalMonitor::continuous("v", speed_params()).with_recovery(RecoveryStrategy::None);
        m.check(100).unwrap();
        let _ = m.check(900).unwrap_err();
        assert_eq!(m.previous(), Some(900));
        // 900 -> 910 now looks like a small step and passes: exactly the
        // error-propagation hazard recovery exists to prevent.
        assert!(m.check(910).is_ok());
    }

    #[test]
    fn mode_switch_changes_constraints() {
        let tight = ContinuousParams::builder(0, 100)
            .increase_rate(0, 5)
            .decrease_rate(0, 5)
            .build()
            .unwrap();
        let wide = ContinuousParams::builder(0, 10_000)
            .increase_rate(0, 1000)
            .decrease_rate(0, 1000)
            .build()
            .unwrap();
        let moded = ModedParams::new(0, tight).with(1, wide);
        let mut m = SignalMonitor::new("pressure", moded);
        m.check(50).unwrap();
        assert!(m.check(500).is_err()); // violates tight mode
        m.set_mode(1).unwrap();
        assert!(m.check(450).is_ok()); // fine in wide mode
        assert!(m.set_mode(9).is_err());
        assert_eq!(m.mode(), 1);
    }

    #[test]
    fn reset_forgets_history() {
        let mut m = SignalMonitor::continuous("v", speed_params());
        m.check(100).unwrap();
        m.reset();
        assert_eq!(m.previous(), None);
        // A large jump after reset is only range-checked.
        assert!(m.check(990).is_ok());
    }

    #[test]
    fn discrete_monitor_tracks_transitions() {
        let mut m = SignalMonitor::discrete(
            "state",
            DiscreteParams::non_linear([(1, vec![2]), (2, vec![1])])
                .unwrap()
                .with_self_loops(),
        );
        assert!(m.check(1).is_ok());
        assert!(m.check(2).is_ok());
        assert!(m.check(2).is_ok()); // unchanged
        assert!(m.check(1).is_ok());
        let v = m.check(5).unwrap_err();
        assert_eq!(v.kind(), ViolationKind::OutsideDomain);
        // Recovery held the previous good state.
        assert_eq!(m.last_committed(), Some(1));
    }

    #[test]
    fn name_is_preserved() {
        let m = SignalMonitor::continuous("SetValue", speed_params());
        assert_eq!(m.name(), "SetValue");
    }
}
