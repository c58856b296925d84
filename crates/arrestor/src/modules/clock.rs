//! CLOCK (1 ms): millisecond counter and scheduler slot, with EA5/EA6.

use ea_core::Millis;
use memsim::Ram;

use crate::consts::slot;
use crate::detectors::{Detectors, EaId};
use crate::signals::SignalMap;

/// One CLOCK run: advances `mscnt` and `ms_slot_nbr`, tests both
/// (EA6 on the clock, EA5 on the slot), and returns the slot to
/// dispatch this tick.
#[inline]
pub fn run(sig: &SignalMap, ram: &mut Ram, det: &mut Detectors, t: Millis) -> u16 {
    let ms = sig.mscnt.add_wrapping(ram, 1);
    if let Some(repaired) = det.check(EaId::Ea6, ms, t) {
        sig.mscnt.write(ram, repaired);
    }

    let old = sig.ms_slot_nbr.read(ram);
    let mut new = if old >= slot::COUNT - 1 { 0 } else { old + 1 };
    sig.ms_slot_nbr.write(ram, new);
    if let Some(repaired) = det.check(EaId::Ea5, new, t) {
        sig.ms_slot_nbr.write(ram, repaired);
        new = repaired;
    }
    new
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
    fn counts_and_cycles() {
        let (sig, mut ram, mut det) = setup();
        for t in 1..=15u64 {
            let slot_nbr = run(&sig, &mut ram, &mut det, t);
            assert_eq!(u64::from(sig.mscnt.read(&ram)), t);
            assert_eq!(u64::from(slot_nbr), t % 7);
        }
        assert!(det.events().is_empty(), "fault-free CLOCK must not fire");
    }

    #[test]
    fn corrupted_mscnt_detected_by_ea6() {
        let (sig, mut ram, mut det) = setup();
        for t in 1..=5u64 {
            run(&sig, &mut ram, &mut det, t);
        }
        // Flip bit 13 of mscnt.
        ram.flip_bit(sig.mscnt.addr() + 1, 5).unwrap();
        run(&sig, &mut ram, &mut det, 6);
        assert_eq!(det.events().len(), 1);
        assert_eq!(det.ea_of(det.events()[0].monitor), EaId::Ea6);
    }

    #[test]
    fn corrupted_slot_detected_by_ea5() {
        let (sig, mut ram, mut det) = setup();
        for t in 1..=5u64 {
            run(&sig, &mut ram, &mut det, t);
        }
        // slot currently 5; flip bit 0 -> 4; next run writes 5 again:
        // a repeated slot value is an illegal self-transition.
        ram.flip_bit(sig.ms_slot_nbr.addr(), 0).unwrap();
        run(&sig, &mut ram, &mut det, 6);
        assert!(det.has_detected(EaId::Ea5));
        let ea5 = ea_core::MonitorId(EaId::Ea5.index());
        assert_eq!(det.bank().monitor(ea5).violations(), 1);
    }

    #[test]
    fn out_of_domain_slot_recovers_next_cycle_but_is_detected() {
        let (sig, mut ram, mut det) = setup();
        for t in 1..=3u64 {
            run(&sig, &mut ram, &mut det, t);
        }
        // slot = 3; flip bit 6 -> 67. CLOCK folds >= 6 to 0.
        ram.flip_bit(sig.ms_slot_nbr.addr(), 6).unwrap();
        run(&sig, &mut ram, &mut det, 4);
        assert_eq!(sig.ms_slot_nbr.read(&ram), 0);
        // 3 -> 0 is not a legal linear transition: detected.
        assert!(det
            .events()
            .iter()
            .any(|e| det.ea_of(e.monitor) == EaId::Ea5));
    }
}
