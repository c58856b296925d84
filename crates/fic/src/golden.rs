//! Golden-run validation: the paper requires that every test case,
//! executed without injections, triggers **no** detection and **no**
//! failure ("All test cases are such that if they are run on the
//! target system without error injection, none of the error detection
//! mechanisms report detection", Section 3.4).
//!
//! [`validate_fault_free`] runs each case as the campaign's own
//! fault-free reference trial
//! ([`crate::experiment::run_reference_trial_with`]): forked from the
//! case's fault-free prefix and stopped at the settle proof
//! (`docs/PROOFS.md`), not simulated to the end of the window. The
//! cases fan out over [`Protocol::effective_workers`] threads
//! ([`crate::protocol::map_indexed`]), and the violation reported is
//! always the lowest-index one, whatever the worker count.
//! `tests/golden_equivalence.rs` pins every proof-stopped verdict
//! against a full-window run.
//!
//! The tables themselves have one reference, the committed `results/`:
//! `tests/paper_campaign.rs` runs the paper campaign live and requires
//! its journal and artefacts to equal them byte for byte.

use std::fmt;

use simenv::TestCase;

use crate::experiment::{fault_free_prefix, run_reference_trial_with};
use crate::protocol::{map_indexed, Protocol};

/// A violation of the golden-run requirement.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenViolation {
    /// The offending test case.
    pub case: TestCase,
    /// Whether a detection was (wrongly) raised.
    pub spurious_detection: bool,
    /// Whether the arrestment (wrongly) failed.
    pub failed: bool,
}

impl fmt::Display for GoldenViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "golden run violated at m = {} kg, v = {} m/s (spurious detection: {}, failure: {})",
            self.case.mass_kg, self.case.velocity_ms, self.spurious_detection, self.failed
        )
    }
}

impl std::error::Error for GoldenViolation {}

/// Runs every grid case without injections; errors on the lowest-index
/// case that detects or fails.
///
/// Each case is the campaign's fault-free reference trial, stopped at
/// the settle proof, and the cases are spread over
/// [`Protocol::effective_workers`] threads. The result does not depend
/// on the worker count.
///
/// # Errors
///
/// The [`GoldenViolation`] of the first grid case that violates the
/// requirement, if any.
pub fn validate_fault_free(protocol: &Protocol) -> Result<(), GoldenViolation> {
    let cases = protocol.grid.cases();
    map_indexed(cases.len(), protocol.effective_workers(), |ci| {
        check_case(protocol, cases[ci])
    })
    .into_iter()
    .flatten()
    .next()
    .map_or(Ok(()), Err)
}

/// One golden run: the fault-free reference trial of `case`.
fn check_case(protocol: &Protocol, case: TestCase) -> Option<GoldenViolation> {
    let prefix = fault_free_prefix(protocol, case);
    let trial = run_reference_trial_with(protocol, case, &prefix, true);
    let spurious_detection = trial.per_ea_first_ms.iter().any(Option::is_some);
    (spurious_detection || trial.failed).then_some(GoldenViolation {
        case,
        spurious_detection,
        failed: trial.failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_grid_is_golden() {
        // A 3 × 3 grid including all envelope corners, full window.
        let protocol = Protocol::scaled(3, 40_000);
        validate_fault_free(&protocol).expect("fault-free runs must be silent and safe");
    }
}
