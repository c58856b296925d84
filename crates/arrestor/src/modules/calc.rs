//! CALC (background): the pressure-schedule computer, with EA3.
//!
//! CALC runs whenever the periodic modules are dormant — once per tick
//! in this implementation. It detects the engagement, estimates the
//! aircraft's velocity and position from `pulscnt`/`mscnt` every 100 ms,
//! advances the checkpoint counter `i` when the pulse count crosses the
//! next stored threshold, computes the set-point pressure for the rest
//! of the arrestment, and slew-ramps `SetValue` towards it.
//!
//! Its working state (velocity estimation, stall detector) lives in the
//! CALC stack frame ([`crate::CalcLocals`]) — the background process's
//! locals — while the signals live in application RAM.

use ea_core::Millis;
use memsim::Ram;

use crate::consts::{self, mode};
use crate::control;
use crate::detectors::{Detectors, EaId};
use crate::math::{clamp_i64, cos_theta_x1000, distance_cm_from_payout, to_u16};
use crate::signals::{CalcLocals, SignalMap};

/// One background pass of CALC.
#[allow(clippy::too_many_arguments)]
pub fn run(
    sig: &SignalMap,
    ram: &mut Ram,
    loc: &CalcLocals,
    stack: &mut Ram,
    det: &mut Detectors,
    t: Millis,
) {
    match sig.sys_mode.read(ram) {
        mode::ARMED => armed(sig, ram, loc, stack),
        mode::ARRESTING => arresting(sig, ram, loc, stack),
        mode::STOPPED => {
            // Hold pressure: keep ramping towards the frozen target.
            let sv = sig.set_value.read(ram);
            let target = sig.set_target.read(ram);
            sig.set_value.write(ram, control::ramp_toward(sv, target));
        }
        _ => {
            // Corrupted mode variable: the switch falls through and the
            // pass does nothing (the 16-bit target has no default arm).
        }
    }
    // EA3 tests the checkpoint counter every CALC pass.
    if let Some(repaired) = det.check(EaId::Ea3, sig.i.read(ram), t) {
        sig.i.write(ram, repaired);
    }
}

/// Armed: wait for the engagement (pulses from the tape drum).
fn armed(sig: &SignalMap, ram: &mut Ram, loc: &CalcLocals, stack: &mut Ram) {
    let pc = sig.pulscnt.read(ram);
    if pc >= consts::ENGAGE_PULSES {
        sig.sys_mode.write(ram, mode::ARRESTING);
        sig.set_target.write(ram, consts::PRETENSION_PU);
        loc.prev_pulscnt.write(stack, pc);
        loc.prev_mscnt.write(stack, sig.mscnt.read(ram));
        loc.last_pc.write(stack, pc);
        loc.stall_ms.write(stack, 0);
        loc.v_est.write(stack, 0);
    }
}

/// Arresting: estimate, schedule, ramp, and watch for the stop.
fn arresting(sig: &SignalMap, ram: &mut Ram, loc: &CalcLocals, stack: &mut Ram) {
    let pc = sig.pulscnt.read(ram);
    let ms = sig.mscnt.read(ram);

    // Velocity estimation every V_EST_PERIOD_MS. The distance and
    // geometry estimates are mirrored into RAM for telemetry and for
    // the checkpoint law.
    let dt = ms.wrapping_sub(loc.prev_mscnt.read(stack));
    if dt >= consts::V_EST_PERIOD_MS {
        let dp = i64::from(pc.wrapping_sub(loc.prev_pulscnt.read(stack)));
        let payout_cm = i64::from(pc) * consts::CM_PER_PULSE;
        let x_cm = distance_cm_from_payout(payout_cm, consts::DRUM_OFFSET_CM);
        let cos1000 = cos_theta_x1000(
            x_cm,
            payout_cm,
            consts::DRUM_OFFSET_CM,
            consts::COS_THETA_MIN_X1000,
        );
        let v_tape = dp * consts::CM_PER_PULSE * 1000 / i64::from(dt);
        let v_air = clamp_i64(v_tape * 1000 / cos1000, 0, consts::V_EST_MAX);
        loc.v_est.write(stack, v_air as u16);
        sig.calc_x_cm.write(ram, to_u16(x_cm));
        sig.calc_cos1000.write(ram, to_u16(cos1000));
        loc.prev_pulscnt.write(stack, pc);
        loc.prev_mscnt.write(stack, ms);
    }

    // Checkpoint crossing: compute the next set-point pressure, bounded
    // by the installation's per-checkpoint protection cap.
    let idx = sig.i.read(ram);
    if idx < consts::CHECKPOINT_X_CM.len() as u16 && pc >= sig.cp_threshold(ram, idx) {
        sig.i.write(ram, idx + 1);
        let target = control::checkpoint_pressure(
            loc.v_est.read(stack),
            sig.calc_x_cm.read(ram),
            sig.calc_cos1000.read(ram),
            sig.mass_cfg.read(ram),
        );
        let cap = sig.cap_for(ram, idx);
        sig.set_target.write(ram, target.min(cap));
    }

    // Stall detector: no new pulses for STALL_MS means the aircraft has
    // stopped.
    if pc == loc.last_pc.read(stack) {
        let stalled = loc.stall_ms.read(stack).saturating_add(1);
        loc.stall_ms.write(stack, stalled);
        if stalled >= consts::STALL_MS {
            sig.sys_mode.write(ram, mode::STOPPED);
        }
    } else {
        loc.last_pc.write(stack, pc);
        loc.stall_ms.write(stack, 0);
    }

    // Slew-limited ramp of the set point.
    let sv = sig.set_value.read(ram);
    let target = sig.set_target.read(ram);
    sig.set_value.write(ram, control::ramp_toward(sv, target));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::EaSet;
    use crate::instrument::build_detectors;
    use crate::stackmodel::calc_locals;
    use memsim::{Ram, APP_RAM_BYTES, STACK_BYTES};

    struct Fix {
        sig: SignalMap,
        ram: Ram,
        loc: CalcLocals,
        stack: Ram,
        det: Detectors,
    }

    fn setup() -> Fix {
        let sig = SignalMap::allocate();
        let mut ram = Ram::new(APP_RAM_BYTES);
        sig.init(&mut ram, 140);
        Fix {
            sig,
            ram,
            loc: calc_locals(),
            stack: Ram::new(STACK_BYTES),
            det: build_detectors(EaSet::ALL),
        }
    }

    #[test]
    fn engagement_switches_to_arresting_with_pretension() {
        let mut f = setup();
        f.sig.pulscnt.write(&mut f.ram, 5);
        run(&f.sig, &mut f.ram, &f.loc, &mut f.stack, &mut f.det, 1);
        assert_eq!(f.sig.sys_mode.read(&f.ram), mode::ARMED);

        f.sig.pulscnt.write(&mut f.ram, consts::ENGAGE_PULSES);
        run(&f.sig, &mut f.ram, &f.loc, &mut f.stack, &mut f.det, 2);
        assert_eq!(f.sig.sys_mode.read(&f.ram), mode::ARRESTING);
        assert_eq!(f.sig.set_target.read(&f.ram), consts::PRETENSION_PU);
        assert_eq!(f.loc.last_pc.read(&f.stack), consts::ENGAGE_PULSES);
    }

    #[test]
    fn set_value_ramps_to_target() {
        let mut f = setup();
        f.sig.sys_mode.write(&mut f.ram, mode::ARRESTING);
        f.sig.set_target.write(&mut f.ram, 600);
        f.sig.pulscnt.write(&mut f.ram, 20);
        for t in 1..=10u64 {
            // Keep pulses moving so the stall detector stays quiet.
            f.sig.pulscnt.write(&mut f.ram, 20 + t as u16);
            run(&f.sig, &mut f.ram, &f.loc, &mut f.stack, &mut f.det, t);
        }
        assert_eq!(f.sig.set_value.read(&f.ram), 600);
    }

    #[test]
    fn checkpoint_crossing_increments_i_and_sets_target() {
        let mut f = setup();
        f.sig.sys_mode.write(&mut f.ram, mode::ARRESTING);
        // Pretend healthy estimates.
        f.loc.v_est.write(&mut f.stack, 5_500);
        f.sig.calc_x_cm.write(&mut f.ram, 3_000);
        f.sig.calc_cos1000.write(&mut f.ram, 710);
        let threshold = f.sig.cp_threshold(&f.ram, 0);
        f.sig.pulscnt.write(&mut f.ram, threshold);
        run(&f.sig, &mut f.ram, &f.loc, &mut f.stack, &mut f.det, 1);
        assert_eq!(f.sig.i.read(&f.ram), 1);
        let target = f.sig.set_target.read(&f.ram);
        assert!(target > consts::PRETENSION_PU);
        assert!(target <= consts::SET_MAX_PU);
    }

    #[test]
    fn velocity_estimation_after_100ms() {
        let mut f = setup();
        f.sig.sys_mode.write(&mut f.ram, mode::ARRESTING);
        // At t0: pc = 400 (payout 2000 cm → x 4000, cos 0.8), ms = 1000.
        f.loc.prev_pulscnt.write(&mut f.stack, 400);
        f.loc.prev_mscnt.write(&mut f.stack, 1_000);
        f.loc.last_pc.write(&mut f.stack, 400);
        // 100 ms later: 80 more pulses = 400 cm of tape in 0.1 s
        // → tape 4000 cm/s → air 4000/0.8 = 5000 cm/s.
        f.sig.mscnt.write(&mut f.ram, 1_100);
        f.sig.pulscnt.write(&mut f.ram, 480);
        run(&f.sig, &mut f.ram, &f.loc, &mut f.stack, &mut f.det, 1);
        let v = f.loc.v_est.read(&f.stack);
        assert!((4_800..=5_200).contains(&v), "v_est = {v}");
        assert_eq!(f.loc.prev_pulscnt.read(&f.stack), 480);
        // Telemetry mirrors updated in RAM from the *current* pulse
        // count (480 pulses = 2400 cm payout -> x = 4489 cm, cos = 0.83).
        let x = f.sig.calc_x_cm.read(&f.ram);
        assert!((4_480..=4_500).contains(&x), "x = {x}");
        let cos = f.sig.calc_cos1000.read(&f.ram);
        assert!((820..=840).contains(&cos), "cos = {cos}");
    }

    #[test]
    fn stall_stops_the_system() {
        let mut f = setup();
        f.sig.sys_mode.write(&mut f.ram, mode::ARRESTING);
        f.sig.pulscnt.write(&mut f.ram, 500);
        f.loc.last_pc.write(&mut f.stack, 500);
        for t in 1..=u64::from(consts::STALL_MS) {
            run(&f.sig, &mut f.ram, &f.loc, &mut f.stack, &mut f.det, t);
        }
        assert_eq!(f.sig.sys_mode.read(&f.ram), mode::STOPPED);
    }

    #[test]
    fn corrupted_mode_freezes_the_pass() {
        let mut f = setup();
        f.sig.sys_mode.write(&mut f.ram, 0x4001); // bit-flipped ARRESTING
        f.sig.set_target.write(&mut f.ram, 5_000);
        f.sig.set_value.write(&mut f.ram, 100);
        run(&f.sig, &mut f.ram, &f.loc, &mut f.stack, &mut f.det, 1);
        // No ramp happened.
        assert_eq!(f.sig.set_value.read(&f.ram), 100);
    }

    #[test]
    fn corrupted_i_detected_by_ea3() {
        let mut f = setup();
        f.sig.sys_mode.write(&mut f.ram, mode::ARRESTING);
        f.sig.pulscnt.write(&mut f.ram, 100);
        run(&f.sig, &mut f.ram, &f.loc, &mut f.stack, &mut f.det, 1);
        assert!(f.det.events().is_empty());
        // Flip a high bit of i: range violation at the next pass.
        f.ram.flip_bit(f.sig.i.addr() + 1, 6).unwrap();
        f.sig.pulscnt.write(&mut f.ram, 101);
        run(&f.sig, &mut f.ram, &f.loc, &mut f.stack, &mut f.det, 2);
        assert_eq!(f.det.events().len(), 1);
        assert_eq!(f.det.ea_of(f.det.events()[0].monitor), EaId::Ea3);
    }

    #[test]
    fn corrupted_i_low_bit_skips_checkpoints_undetected() {
        // The paper's explanation for EA3's low coverage: +1 in the
        // value domain is a legal increment.
        let mut f = setup();
        f.sig.sys_mode.write(&mut f.ram, mode::ARRESTING);
        f.sig.pulscnt.write(&mut f.ram, 100);
        run(&f.sig, &mut f.ram, &f.loc, &mut f.stack, &mut f.det, 1);
        f.ram.flip_bit(f.sig.i.addr(), 0).unwrap(); // 0 -> 1
        f.sig.pulscnt.write(&mut f.ram, 101);
        run(&f.sig, &mut f.ram, &f.loc, &mut f.stack, &mut f.det, 2);
        assert!(f.det.events().is_empty());
        assert_eq!(f.sig.i.read(&f.ram), 1);
    }
}
