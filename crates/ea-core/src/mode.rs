//! Signal modes: per-mode parameter sets `P(m)`.
//!
//! The behaviour of a signal may differ between phases of operation, so a
//! signal can have several *modes*, each with its own parameter set
//! (paper Section 2.1, "Signal modes"). Mode variables are themselves
//! discrete signals, so error detection can be applied to them too —
//! [`ModedParams::mode_variable_params`] derives exactly that.

use serde::{Deserialize, Serialize};

use crate::class::SignalClass;
use crate::cont::ContinuousParams;
use crate::disc::DiscreteParams;
use crate::error::Error;
use crate::verdict::{Pass, Violation};
use crate::Sample;

/// A mode identifier (`m` in the paper's `P_cont(m)` / `P_disc(m)`).
pub type Mode = u16;

/// Either parameter flavour: `P_cont` or `P_disc`.
///
/// A [`crate::SignalMonitor`] dispatches on this to run the Table 2 or
/// Table 3 procedure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Params {
    /// Parameters of a continuous signal.
    Continuous(ContinuousParams),
    /// Parameters of a discrete signal.
    Discrete(DiscreteParams),
}

impl Params {
    /// The class this parameter set encodes.
    pub fn classify(&self) -> SignalClass {
        match self {
            Params::Continuous(p) => p.classify(),
            Params::Discrete(p) => p.classify(),
        }
    }

    /// Runs the matching executable assertion (Table 2 or Table 3).
    #[inline]
    pub fn check(&self, previous: Option<Sample>, current: Sample) -> Result<Pass, Violation> {
        match self {
            Params::Continuous(p) => crate::assert_cont::check(p, previous, current),
            Params::Discrete(p) => crate::assert_disc::check(p, previous, current),
        }
    }
}

impl From<ContinuousParams> for Params {
    fn from(params: ContinuousParams) -> Self {
        Params::Continuous(params)
    }
}

impl From<DiscreteParams> for Params {
    fn from(params: DiscreteParams) -> Self {
        Params::Discrete(params)
    }
}

/// A family of parameter sets indexed by mode.
///
/// # Example
///
/// ```
/// use ea_core::{ContinuousParams, ModedParams};
///
/// // An engine-speed signal: tight limits while idling (mode 0), wide
/// // limits under load (mode 1).
/// let idle = ContinuousParams::builder(600, 1100)
///     .increase_rate(0, 50)
///     .decrease_rate(0, 50)
///     .build()?;
/// let load = ContinuousParams::builder(600, 6500)
///     .increase_rate(0, 400)
///     .decrease_rate(0, 400)
///     .build()?;
/// let mut moded = ModedParams::new(0, idle);
/// moded.insert(1, load);
/// assert!(moded.params_for(1).is_ok());
/// assert!(moded.params_for(7).is_err());
/// # Ok::<(), ea_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModedParams {
    /// Sorted by mode; families hold a handful of modes at most.
    sets: Vec<(Mode, Params)>,
    initial: Mode,
}

impl ModedParams {
    /// Creates a family with one initial mode.
    pub fn new(initial: Mode, params: impl Into<Params>) -> Self {
        ModedParams {
            sets: vec![(initial, params.into())],
            initial,
        }
    }

    /// Adds or replaces the parameter set for `mode`; returns `self` for
    /// chaining via [`Self::with`].
    pub fn insert(&mut self, mode: Mode, params: impl Into<Params>) -> &mut Self {
        match self.sets.binary_search_by_key(&mode, |(m, _)| *m) {
            Ok(i) => self.sets[i].1 = params.into(),
            Err(i) => self.sets.insert(i, (mode, params.into())),
        }
        self
    }

    /// Chaining variant of [`Self::insert`].
    #[must_use]
    pub fn with(mut self, mode: Mode, params: impl Into<Params>) -> Self {
        self.insert(mode, params);
        self
    }

    /// The mode a fresh monitor starts in.
    pub const fn initial_mode(&self) -> Mode {
        self.initial
    }

    /// The parameter set `P(m)`.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownMode`] when no set was registered for `mode`.
    pub fn params_for(&self, mode: Mode) -> Result<&Params, Error> {
        self.sets
            .iter()
            .find(|(m, _)| *m == mode)
            .map(|(_, p)| p)
            .ok_or(Error::UnknownMode { mode })
    }

    /// Number of modes defined.
    pub fn mode_count(&self) -> usize {
        self.sets.len()
    }

    /// Iterates over `(mode, params)` pairs in mode order.
    pub fn iter(&self) -> impl Iterator<Item = (Mode, &Params)> {
        self.sets.iter().map(|(m, p)| (*m, p))
    }

    /// Derives the discrete parameters of the *mode variable* itself:
    /// a random discrete signal whose domain is the registered mode set.
    ///
    /// The paper points out that mode variables "can be classified as
    /// discrete signals in themselves, so that error detection may be
    /// implemented for them as well".
    pub fn mode_variable_params(&self) -> DiscreteParams {
        DiscreteParams::random(self.sets.iter().map(|(m, _)| Sample::from(*m)))
            .expect("a ModedParams always has at least one mode")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cont(lo: Sample, hi: Sample) -> ContinuousParams {
        ContinuousParams::builder(lo, hi)
            .increase_rate(0, 10)
            .decrease_rate(0, 10)
            .build()
            .unwrap()
    }

    #[test]
    fn lookup_by_mode() {
        let moded = ModedParams::new(0, cont(0, 10)).with(1, cont(0, 20));
        assert_eq!(moded.mode_count(), 2);
        assert_eq!(moded.initial_mode(), 0);
        match moded.params_for(1).unwrap() {
            Params::Continuous(p) => assert_eq!(p.smax(), 20),
            Params::Discrete(_) => panic!("expected continuous"),
        }
        assert_eq!(
            moded.params_for(9).unwrap_err(),
            Error::UnknownMode { mode: 9 }
        );
    }

    #[test]
    fn insert_replaces() {
        let mut moded = ModedParams::new(0, cont(0, 10));
        moded.insert(0, cont(0, 99));
        match moded.params_for(0).unwrap() {
            Params::Continuous(p) => assert_eq!(p.smax(), 99),
            Params::Discrete(_) => panic!("expected continuous"),
        }
    }

    #[test]
    fn mode_variable_is_a_discrete_signal_over_the_modes() {
        let moded = ModedParams::new(2, cont(0, 10))
            .with(5, cont(0, 20))
            .with(9, cont(0, 30));
        let mv = moded.mode_variable_params();
        assert!(mv.in_domain(2));
        assert!(mv.in_domain(5));
        assert!(mv.in_domain(9));
        assert!(!mv.in_domain(3));
    }

    #[test]
    fn params_enum_dispatches_to_right_table() {
        let c: Params = cont(0, 10).into();
        assert!(c.check(Some(5), 7).is_ok());
        assert!(c.check(Some(5), 11).is_err());

        let d: Params = DiscreteParams::random([1, 2, 3]).unwrap().into();
        assert!(d.check(Some(1), 3).is_ok());
        assert!(d.check(Some(1), 4).is_err());
    }

    #[test]
    fn iter_yields_in_mode_order() {
        let moded = ModedParams::new(3, cont(0, 10)).with(1, cont(0, 20));
        let modes: Vec<Mode> = moded.iter().map(|(m, _)| m).collect();
        assert_eq!(modes, vec![1, 3]);
    }
}
