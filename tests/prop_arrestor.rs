//! Property-based tests of the control software's fixed-point maths
//! against floating-point references.

use ea_repro::arrestor::control::{pid_step, ramp_toward};
use ea_repro::arrestor::math::{cos_theta_x1000, distance_cm_from_payout, isqrt};
use ea_repro::{arrestor, simenv::CableGeometry};
use proptest::prelude::*;

proptest! {
    #[test]
    fn isqrt_matches_f64_sqrt(n in 0u64..(1 << 52)) {
        let r = isqrt(n);
        let f = (n as f64).sqrt().floor() as u64;
        // f64 sqrt can be off by one ulp at the boundary; verify
        // directly instead of trusting the float.
        prop_assert!(r * r <= n);
        prop_assert!((r + 1).checked_mul(r + 1).is_none_or(|sq| sq > n));
        prop_assert!(r.abs_diff(f) <= 1);
    }

    #[test]
    fn controller_geometry_matches_plant_geometry(payout_cm in 0i64..40_000) {
        // The 16-bit controller inverts payout -> distance with integer
        // maths; the plant uses f64. They must agree within quantisation.
        let x_cm = distance_cm_from_payout(payout_cm, 3_000);
        let geometry = CableGeometry::new(30.0);
        let x_m = geometry.distance_for_payout(payout_cm as f64 / 100.0);
        prop_assert!(
            (x_cm as f64 / 100.0 - x_m).abs() < 0.02,
            "payout {payout_cm} cm: controller {x_cm} cm vs plant {x_m} m"
        );
    }

    #[test]
    fn cos_theta_fixed_point_matches_float(payout_cm in 1i64..40_000) {
        let x_cm = distance_cm_from_payout(payout_cm, 3_000);
        let fixed = cos_theta_x1000(x_cm, payout_cm, 3_000, 1);
        let geometry = CableGeometry::new(30.0);
        let x_m = geometry.distance_for_payout(payout_cm as f64 / 100.0);
        let float = geometry.cos_theta(x_m);
        prop_assert!(
            (fixed as f64 / 1000.0 - float).abs() < 0.005,
            "payout {payout_cm}: fixed {fixed} vs float {float}"
        );
    }

    #[test]
    fn ramp_never_overshoots_and_converges(start: u16, target: u16) {
        let mut v = start;
        let span = i64::from(start).abs_diff(i64::from(target));
        let steps_needed = span / arrestor::consts::SLEW_PU_PER_MS as u64 + 1;
        for _ in 0..steps_needed {
            let next = ramp_toward(v, target);
            // Monotone approach: the distance to the target shrinks.
            prop_assert!(
                i64::from(next).abs_diff(i64::from(target))
                    <= i64::from(v).abs_diff(i64::from(target))
            );
            v = next;
        }
        prop_assert_eq!(v, target);
    }

    #[test]
    fn pid_output_always_in_hardware_range(sv: u16, iv: u16, integ: u16, prev: u16) {
        let (out, _, _) = pid_step(sv, iv, integ, prev);
        prop_assert!(out <= arrestor::consts::OUT_MAX_PU);
    }

    #[test]
    fn pid_integral_always_clamped(sv: u16, iv: u16, integ: u16, prev: u16) {
        let (_, new_integ, _) = pid_step(sv, iv, integ, prev);
        let signed = i64::from(new_integ as i16);
        prop_assert!(signed.abs() <= arrestor::consts::PID_INTEG_CLAMP);
    }
}
