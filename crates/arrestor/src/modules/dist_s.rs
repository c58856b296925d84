//! DIST_S (1 ms): accumulates rotation-sensor pulses into `pulscnt`,
//! with EA4.

use ea_core::Millis;
use memsim::Ram;

use crate::detectors::{Detectors, EaId};
use crate::signals::SignalMap;

/// One DIST_S run: adds the pulses delivered by the sensor interface
/// since the last run and tests the total (EA4).
#[inline]
pub fn run(sig: &SignalMap, ram: &mut Ram, det: &mut Detectors, pulse_delta: u16, t: Millis) {
    let total = sig.pulscnt.add_wrapping(ram, pulse_delta);
    if let Some(repaired) = det.check(EaId::Ea4, total, t) {
        sig.pulscnt.write(ram, repaired);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::EaSet;
    use crate::instrument::build_detectors;
    use memsim::APP_RAM_BYTES;

    fn setup() -> (SignalMap, Ram, Detectors) {
        let sig = SignalMap::allocate();
        let mut ram = Ram::new(APP_RAM_BYTES);
        sig.init(&mut ram, 120);
        (sig, ram, build_detectors(EaSet::ALL))
    }

    #[test]
    fn accumulates_pulses() {
        let (sig, mut ram, mut det) = setup();
        for (t, delta) in [(1u64, 1u16), (2, 2), (3, 0), (4, 1)] {
            run(&sig, &mut ram, &mut det, delta, t);
        }
        assert_eq!(sig.pulscnt.read(&ram), 4);
        assert!(det.events().is_empty());
    }

    #[test]
    fn high_bit_corruption_detected_as_rate_violation() {
        let (sig, mut ram, mut det) = setup();
        for t in 1..=10u64 {
            run(&sig, &mut ram, &mut det, 1, t);
        }
        ram.flip_bit(sig.pulscnt.addr() + 1, 4).unwrap(); // +2^12
        run(&sig, &mut ram, &mut det, 1, 11);
        assert_eq!(det.events().len(), 1);
        assert_eq!(det.ea_of(det.events()[0].monitor), EaId::Ea4);
    }

    #[test]
    fn downward_flip_detected_as_monotonicity_violation() {
        let (sig, mut ram, mut det) = setup();
        for t in 1..=10u64 {
            run(&sig, &mut ram, &mut det, 1, t);
        }
        // pulscnt = 10 = 0b1010; clearing bit 3 gives 2: a decrease.
        ram.flip_bit(sig.pulscnt.addr(), 3).unwrap();
        run(&sig, &mut ram, &mut det, 0, 11);
        assert_eq!(det.events().len(), 1);
    }

    #[test]
    fn low_bit_upward_flip_passes_as_legal_increment() {
        // The undetectable case the paper discusses: +1 in the value
        // domain is indistinguishable from a real pulse.
        let (sig, mut ram, mut det) = setup();
        for t in 1..=10u64 {
            run(&sig, &mut ram, &mut det, 1, t);
        }
        // pulscnt = 10: bit 0 is clear; flipping sets it -> 11 (+1).
        ram.flip_bit(sig.pulscnt.addr(), 0).unwrap();
        run(&sig, &mut ram, &mut det, 0, 11);
        assert!(det.events().is_empty());
    }
}
