//! PRES_A (7 ms): commands the pressure valve from `OutValue`, with EA7.

use ea_core::Millis;
use memsim::Ram;

use crate::detectors::{Detectors, EaId};
use crate::signals::SignalMap;

/// One PRES_A run: tests `OutValue` (EA7) and returns the value latched
/// into the valve's command register (hardware, outside RAM).
#[inline]
pub fn run(sig: &SignalMap, ram: &mut Ram, det: &mut Detectors, t: Millis) -> u16 {
    let out = sig.out_value.read(ram);
    match det.check(EaId::Ea7, out, t) {
        Some(repaired) => {
            sig.out_value.write(ram, repaired);
            repaired
        }
        None => out,
    }
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
    fn passes_out_value_to_the_valve() {
        let (sig, mut ram, mut det) = setup();
        sig.out_value.write(&mut ram, 7_500);
        assert_eq!(run(&sig, &mut ram, &mut det, 5), 7_500);
        assert!(det.events().is_empty());
    }

    #[test]
    fn ea7_catches_range_corruption() {
        let (sig, mut ram, mut det) = setup();
        sig.out_value.write(&mut ram, 7_500);
        run(&sig, &mut ram, &mut det, 5);
        ram.flip_bit(sig.out_value.addr() + 1, 7).unwrap(); // +32768
        run(&sig, &mut ram, &mut det, 12);
        assert_eq!(det.events().len(), 1);
        assert_eq!(det.ea_of(det.events()[0].monitor), EaId::Ea7);
    }

    #[test]
    fn moderate_corruption_within_rate_band_is_missed() {
        // EA7's wide rate band (the regulator may legally step ~5000 pu
        // per test) lets mid-size corruption through — the paper's
        // lowest-coverage mechanism.
        let (sig, mut ram, mut det) = setup();
        sig.out_value.write(&mut ram, 7_500);
        run(&sig, &mut ram, &mut det, 5);
        ram.flip_bit(sig.out_value.addr() + 1, 4).unwrap(); // +4096
        run(&sig, &mut ram, &mut det, 12);
        assert!(det.events().is_empty());
    }
}
