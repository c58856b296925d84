//! The error-detection coverage algebra of paper Section 2.4.
//!
//! Given that an error has occurred, define:
//!
//! * `Pem` — probability the error location is in a monitored signal;
//! * `Pen = 1 − Pem` — probability it is not;
//! * `Pprop` — probability an unmonitored error propagates to a monitored
//!   signal;
//! * `Pds` — probability an error *in* a monitored signal is detected.
//!
//! Then the total detection probability is
//! `Pdetect = (Pen·Pprop + Pem)·Pds`.
//!
//! `Pds` can be assessed independently of the error-occurrence
//! distribution (the paper's error set E1 does exactly that); `Pdetect`
//! is what a random-location campaign (error set E2) estimates directly.
//! [`CoverageModel::p_detect`] evaluates the expression forward and
//! [`CoverageModel::infer`] solves it backwards for `Pprop`; no other
//! code evaluates it.

use serde::{Deserialize, Serialize};

use crate::error::Error;

/// A validated probability in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Probability(f64);

impl Probability {
    /// Validates `value ∈ [0, 1]`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidProbability`] otherwise (including NaN).
    pub fn new(name: &'static str, value: f64) -> Result<Self, Error> {
        if value.is_nan() || !(0.0..=1.0).contains(&value) {
            return Err(Error::InvalidProbability { name, value });
        }
        Ok(Probability(value))
    }

    /// The inner value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The complement `1 − p`.
    pub fn complement(self) -> Probability {
        Probability(1.0 - self.0)
    }
}

/// The three independent quantities of the Section 2.4 expression.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageModel {
    p_em: Probability,
    p_prop: Probability,
    p_ds: Probability,
}

impl CoverageModel {
    /// Builds the model from raw probabilities.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidProbability`] if any argument is outside `[0, 1]`.
    pub fn new(p_em: f64, p_prop: f64, p_ds: f64) -> Result<Self, Error> {
        Ok(CoverageModel {
            p_em: Probability::new("Pem", p_em)?,
            p_prop: Probability::new("Pprop", p_prop)?,
            p_ds: Probability::new("Pds", p_ds)?,
        })
    }

    /// `Pem`: error located in a monitored signal.
    pub const fn p_em(&self) -> f64 {
        self.p_em.value()
    }

    /// `Pen = 1 − Pem`.
    pub fn p_en(&self) -> f64 {
        self.p_em.complement().value()
    }

    /// `Pprop`: unmonitored error propagates to a monitored signal.
    pub const fn p_prop(&self) -> f64 {
        self.p_prop.value()
    }

    /// `Pds`: detection given presence in a monitored signal.
    pub const fn p_ds(&self) -> f64 {
        self.p_ds.value()
    }

    /// The paper's total coverage: `Pdetect = (Pen·Pprop + Pem)·Pds`.
    pub fn p_detect(&self) -> f64 {
        (self.p_en() * self.p_prop() + self.p_em()) * self.p_ds()
    }

    /// The model that explains a measured `Pdetect` (e.g. from error
    /// set E2) with `Pem` and `Pds`: `Pprop = (Pdetect/Pds − Pem)/Pen`.
    ///
    /// A solution outside `[0, 1]` means the measurement is inconsistent
    /// with `Pem` and `Pds` (sampling noise around a true `Pprop` of 0 or
    /// 1). It is clamped into `[0, 1]`: `Pdetect` is monotone in
    /// `Pprop`, so the clamped model recomposes the closest attainable
    /// `Pdetect`. [`Inference::exact`] tells the two cases apart.
    ///
    /// Returns `Ok(None)` when `Pds = 0` or `Pen = 0` makes `Pprop`
    /// unidentifiable.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidProbability`] if any argument is outside `[0, 1]`.
    pub fn infer(p_em: f64, p_ds: f64, p_detect: f64) -> Result<Option<Inference>, Error> {
        let p_detect = Probability::new("Pdetect", p_detect)?;
        let model = CoverageModel::new(p_em, 0.0, p_ds)?;
        if model.p_ds() == 0.0 || model.p_en() == 0.0 {
            return Ok(None);
        }
        let p_prop = (p_detect.value() / model.p_ds() - model.p_em()) / model.p_en();
        Ok(Some(Inference {
            model: CoverageModel {
                p_prop: Probability(p_prop.clamp(0.0, 1.0)),
                ..model
            },
            exact: (0.0..=1.0).contains(&p_prop),
        }))
    }
}

/// A `Pprop` solved from a measured `Pdetect` ([`CoverageModel::infer`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inference {
    /// The model with the solved `Pprop`, clamped into `[0, 1]`.
    pub model: CoverageModel,
    /// Whether the solution lay in `[0, 1]` unclamped, so that the
    /// model recomposes the measured `Pdetect`.
    pub exact: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_validation() {
        assert!(Probability::new("p", 0.0).is_ok());
        assert!(Probability::new("p", 1.0).is_ok());
        assert!(Probability::new("p", -0.01).is_err());
        assert!(Probability::new("p", 1.01).is_err());
        assert!(Probability::new("p", f64::NAN).is_err());
    }

    #[test]
    fn pdetect_formula() {
        // Paper discussion: with errors uniformly over monitored signals
        // (Pem = 1), Pdetect equals Pds.
        let all_monitored = CoverageModel::new(1.0, 0.0, 0.74).unwrap();
        assert!((all_monitored.p_detect() - 0.74).abs() < 1e-12);

        // No monitored locations and no propagation: nothing detected.
        let nothing = CoverageModel::new(0.0, 0.0, 0.99).unwrap();
        assert_eq!(nothing.p_detect(), 0.0);

        // Mixed: Pem = 0.2, Pprop = 0.5, Pds = 0.8
        // => (0.8*0.5 + 0.2) * 0.8 = 0.48
        let mixed = CoverageModel::new(0.2, 0.5, 0.8).unwrap();
        assert!((mixed.p_detect() - 0.48).abs() < 1e-12);
    }

    #[test]
    fn pdetect_is_monotone_in_each_argument() {
        let base = CoverageModel::new(0.3, 0.4, 0.6).unwrap();
        let more_prop = CoverageModel::new(0.3, 0.5, 0.6).unwrap();
        let more_em = CoverageModel::new(0.4, 0.4, 0.6).unwrap();
        let more_ds = CoverageModel::new(0.3, 0.4, 0.7).unwrap();
        assert!(more_prop.p_detect() > base.p_detect());
        assert!(more_em.p_detect() > base.p_detect());
        assert!(more_ds.p_detect() > base.p_detect());
    }

    #[test]
    fn infer_round_trips() {
        let measured = CoverageModel::new(0.2, 0.5, 0.8).unwrap().p_detect();
        let inference = CoverageModel::infer(0.2, 0.8, measured).unwrap().unwrap();
        assert!(inference.exact);
        assert!((inference.model.p_prop() - 0.5).abs() < 1e-12);
        assert!((inference.model.p_detect() - measured).abs() < 1e-12);
    }

    #[test]
    fn infer_clamps_inconsistent_measurements() {
        // Pdetect cannot exceed Pds: 0.6 > 0.5 solves to Pprop = 1.25.
        let above = CoverageModel::infer(0.2, 0.5, 0.6).unwrap().unwrap();
        assert!(!above.exact);
        assert_eq!(above.model.p_prop(), 1.0);
        assert!((above.model.p_detect() - 0.5).abs() < 1e-12);
        // Pdetect below Pem·Pds solves to Pprop < 0: clamped to 0, the
        // model recomposes Pem·Pds.
        let below = CoverageModel::infer(0.2, 1.0, 0.0).unwrap().unwrap();
        assert!(!below.exact);
        assert_eq!(below.model.p_prop(), 0.0);
        assert!((below.model.p_detect() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn infer_unidentifiable_cases() {
        assert_eq!(CoverageModel::infer(0.2, 0.0, 0.0), Ok(None));
        assert_eq!(CoverageModel::infer(1.0, 0.9, 0.9), Ok(None));
        assert!(CoverageModel::infer(0.2, 0.5, 1.5).is_err());
    }

    #[test]
    fn pen_is_complement() {
        let model = CoverageModel::new(0.25, 0.5, 0.9).unwrap();
        assert!((model.p_en() - 0.75).abs() < 1e-12);
    }
}
