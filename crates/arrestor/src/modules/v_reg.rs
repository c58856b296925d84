//! V_REG (7 ms): the PID pressure regulator, with EA1 and EA2 on its
//! input signals.

use ea_core::Millis;
use memsim::Ram;

use crate::control;
use crate::detectors::{Detectors, EaId};
use crate::signals::SignalMap;

/// One V_REG run: tests the inputs as they arrive (EA1 on `SetValue`,
/// EA2 on `IsValue`), then computes `OutValue`.
#[inline]
pub fn run(sig: &SignalMap, ram: &mut Ram, det: &mut Detectors, t: Millis) {
    let mut sv = sig.set_value.read(ram);
    if let Some(repaired) = det.check(EaId::Ea1, sv, t) {
        sig.set_value.write(ram, repaired);
        sv = repaired;
    }
    let mut iv = sig.is_value.read(ram);
    if let Some(repaired) = det.check(EaId::Ea2, iv, t) {
        sig.is_value.write(ram, repaired);
        iv = repaired;
    }

    let (out, integ, err_bits) =
        control::pid_step(sv, iv, sig.pid_integ.read(ram), sig.pid_prev_err.read(ram));
    sig.out_value.write(ram, out);
    sig.pid_integ.write(ram, integ);
    sig.pid_prev_err.write(ram, err_bits);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::EaSet;
    use crate::instrument::build_detectors;
    use memsim::APP_RAM_BYTES;

    fn setup() -> (SignalMap, Ram, Detectors) {
        let sig = SignalMap::allocate().unwrap();
        let mut ram = Ram::new(APP_RAM_BYTES);
        sig.init(&mut ram, 120);
        (sig, ram, build_detectors(EaSet::ALL))
    }

    #[test]
    fn computes_out_value() {
        let (sig, mut ram, mut det) = setup();
        sig.set_value.write(&mut ram, 5_000);
        sig.is_value.write(&mut ram, 4_000);
        run(&sig, &mut ram, &mut det, 3);
        assert!(sig.out_value.read(&ram) > 5_000);
        assert!(det.events().is_empty());
    }

    #[test]
    fn ea1_catches_set_value_range_corruption() {
        let (sig, mut ram, mut det) = setup();
        sig.set_value.write(&mut ram, 5_000);
        run(&sig, &mut ram, &mut det, 3);
        ram.flip_bit(sig.set_value.addr() + 1, 7).unwrap(); // +32768
        run(&sig, &mut ram, &mut det, 10);
        let eas: Vec<_> = det.events().iter().map(|e| det.ea_of(e.monitor)).collect();
        assert!(eas.contains(&EaId::Ea1));
    }

    #[test]
    fn ea2_catches_is_value_rate_corruption() {
        let (sig, mut ram, mut det) = setup();
        sig.is_value.write(&mut ram, 2_000);
        run(&sig, &mut ram, &mut det, 3);
        // +4096 exceeds the 1000 pu/test hydraulic slew bound but stays
        // inside the value range.
        ram.flip_bit(sig.is_value.addr() + 1, 4).unwrap();
        run(&sig, &mut ram, &mut det, 10);
        let eas: Vec<_> = det.events().iter().map(|e| det.ea_of(e.monitor)).collect();
        assert!(eas.contains(&EaId::Ea2));
    }

    #[test]
    fn small_set_value_corruption_passes_undetected() {
        // Least-significant-bit errors are indistinguishable from normal
        // signal movement (paper Section 5.1).
        let (sig, mut ram, mut det) = setup();
        sig.set_value.write(&mut ram, 5_000);
        run(&sig, &mut ram, &mut det, 3);
        ram.flip_bit(sig.set_value.addr(), 3).unwrap(); // ±8 pu
        run(&sig, &mut ram, &mut det, 10);
        assert!(det.events().is_empty());
    }

    #[test]
    fn integral_state_survives_in_ram() {
        let (sig, mut ram, mut det) = setup();
        sig.set_value.write(&mut ram, 5_000);
        sig.is_value.write(&mut ram, 0);
        run(&sig, &mut ram, &mut det, 3);
        let integ1 = sig.pid_integ.read(&ram) as i16;
        run(&sig, &mut ram, &mut det, 10);
        let integ2 = sig.pid_integ.read(&ram) as i16;
        assert!(integ2 > integ1);
    }
}
