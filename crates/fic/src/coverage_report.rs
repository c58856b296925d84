//! The Section 2.4 coverage algebra applied to measured campaign data:
//! `Pdetect = (Pen·Pprop + Pem)·Pds`.
//!
//! `Pds` is estimated by E1 (errors placed *in* monitored signals),
//! `Pdetect` by E2's RAM portion (errors placed uniformly in application
//! RAM), and `Pem` is known exactly from the memory map (the fraction of
//! RAM bytes occupied by monitored signals). The one unknown, `Pprop` —
//! the probability that an unmonitored error propagates into a monitored
//! signal — is then solved for by [`ea_core::coverage::CoverageModel`],
//! which the paper describes but cannot do without the memory map.
//!
//! [`analyse`] is the one artefact of these quantities,
//! `coverage_analysis.json`; the attribution and convergence reports
//! carry only their measurements. `attribution::check_algebra`
//! evaluates the same model against the oracle's empirical `Pprop`.

use arrestor::SignalMap;
use ea_core::coverage::CoverageModel;
use memsim::APP_RAM_BYTES;
use serde::{Deserialize, Serialize};

use crate::results::{E1Report, E2Report};

/// The assembled Section 2.4 quantities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageAnalysis {
    /// Fraction of application-RAM bytes holding monitored signals.
    pub p_em: f64,
    /// Measured `Pds` (E1 total, all mechanisms).
    pub p_ds: f64,
    /// Measured `Pdetect` (E2 RAM portion, all mechanisms).
    pub p_detect_ram: f64,
    /// Inferred propagation probability, if the measurements are
    /// consistent.
    pub p_prop: Option<f64>,
}

/// Computes `Pem` from the memory map: the bytes of the seven 16-bit
/// monitored signals over total application-RAM bytes.
pub fn p_em_from_map() -> f64 {
    let monitored_bytes = SignalMap::allocate().monitored().len() * 2;
    monitored_bytes as f64 / APP_RAM_BYTES as f64
}

/// Assembles the analysis from campaign reports.
///
/// Returns `None` when either report is empty.
pub fn analyse(e1: &E1Report, e2: &E2Report) -> Option<CoverageAnalysis> {
    let p_ds = e1.p_ds()?;
    let p_detect_ram = e2.ram.all.estimate()?;
    let p_em = p_em_from_map();
    let inference = CoverageModel::infer(p_em, p_ds, p_detect_ram)
        .expect("measured proportions are probabilities");
    Some(CoverageAnalysis {
        p_em,
        p_ds,
        p_detect_ram,
        p_prop: inference
            .filter(|inference| inference.exact)
            .map(|inference| inference.model.p_prop()),
    })
}

/// Renders the analysis as explanatory text.
pub fn render(analysis: &CoverageAnalysis) -> String {
    let mut out = String::from("Section 2.4 coverage algebra: Pdetect = (Pen*Pprop + Pem)*Pds\n");
    out.push_str(&format!(
        "  Pem     = {:.4}   (monitored bytes / application RAM, from the memory map)\n",
        analysis.p_em
    ));
    out.push_str(&format!(
        "  Pds     = {:.4}   (measured: E1 total P(d), all mechanisms)\n",
        analysis.p_ds
    ));
    out.push_str(&format!(
        "  Pdetect = {:.4}   (measured: E2 RAM P(d), all mechanisms)\n",
        analysis.p_detect_ram
    ));
    match analysis.p_prop {
        Some(p) => out.push_str(&format!(
            "  Pprop   = {p:.4}   (inferred: probability an unmonitored RAM error\n\
             \x20                    propagates into a monitored signal)\n"
        )),
        None => out.push_str("  Pprop   = n/a      (measurements inconsistent with the algebra)\n"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_set::E1Error;
    use crate::experiment::Trial;
    use arrestor::EaId;
    use memsim::{BitFlip, Region};

    #[test]
    fn p_em_matches_hand_count() {
        // 7 monitored 16-bit signals = 14 bytes of 417.
        let p_em = p_em_from_map();
        assert!((p_em - 14.0 / 417.0).abs() < 1e-12);
    }

    fn trial(detected: bool) -> Trial {
        let mut per_ea_first_ms = [None; 7];
        if detected {
            per_ea_first_ms[0] = Some(100);
        }
        Trial {
            failed: false,
            per_ea_first_ms,
            first_injection_ms: 20,
            final_distance_m: 250.0,
        }
    }

    #[test]
    fn analyse_round_trips_consistent_data() {
        // Pds = 1.0 from E1; Pdetect chosen so that Pprop lands in
        // [0, 1]: with Pem ≈ 0.0336, Pdetect = 0.5 → Pprop ≈ 0.483.
        let mut e1 = E1Report::new();
        let error = E1Error {
            number: 1,
            ea: EaId::Ea1,
            signal_bit: 0,
            flip: BitFlip::new(Region::AppRam, 8, 0),
        };
        e1.record(&error, &trial(true));

        let mut e2 = E2Report::new();
        let ram_error = crate::error_set::E2Error {
            number: 1,
            flip: BitFlip::new(Region::AppRam, 100, 0),
        };
        e2.record(&ram_error, &trial(true));
        e2.record(&ram_error, &trial(false));

        let analysis = analyse(&e1, &e2).expect("non-empty reports");
        assert_eq!(analysis.p_ds, 1.0);
        assert_eq!(analysis.p_detect_ram, 0.5);
        let p_prop = analysis.p_prop.expect("consistent");
        // Check the algebra forward: (Pen·Pprop + Pem)·Pds == Pdetect.
        let forward = CoverageModel::new(analysis.p_em, p_prop, analysis.p_ds).unwrap();
        assert!((forward.p_detect() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn analyse_flags_inconsistent_data() {
        // Pdetect > Pds is impossible under the algebra.
        let mut e1 = E1Report::new();
        let error = E1Error {
            number: 1,
            ea: EaId::Ea1,
            signal_bit: 0,
            flip: BitFlip::new(Region::AppRam, 8, 0),
        };
        e1.record(&error, &trial(false)); // Pds = 0

        let mut e2 = E2Report::new();
        let ram_error = crate::error_set::E2Error {
            number: 1,
            flip: BitFlip::new(Region::AppRam, 100, 0),
        };
        e2.record(&ram_error, &trial(true)); // Pdetect = 1

        let analysis = analyse(&e1, &e2).expect("non-empty");
        assert_eq!(analysis.p_prop, None);
    }

    #[test]
    fn render_mentions_every_quantity() {
        let analysis = CoverageAnalysis {
            p_em: 0.03,
            p_ds: 0.73,
            p_detect_ram: 0.05,
            p_prop: Some(0.04),
        };
        let text = render(&analysis);
        for needle in ["Pem", "Pds", "Pdetect", "Pprop", "0.7300"] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
