//! PRES_S (7 ms): samples the pressure sensor through a moving-average
//! filter into `IsValue`.
//!
//! The filter history and index live in application RAM (`filt_buf`,
//! `filt_idx`), so injected flips there perturb the measured pressure —
//! one of the unmonitored-but-live RAM areas whose errors must propagate
//! to a monitored signal before the assertions can see them
//! (paper Section 2.4, `Pprop`).

use memsim::Ram;

use crate::signals::{SignalMap, FILTER_DEPTH};

/// One PRES_S run: pushes the raw sensor reading into the filter ring
/// and latches the average into `IsValue`.
#[inline]
pub fn run(sig: &SignalMap, ram: &mut Ram, sensor_units: u16) {
    let idx = sig.filt_idx.read(ram) as usize;
    sig.filt_write(ram, idx, sensor_units);
    sig.filt_idx.write(ram, ((idx + 1) % FILTER_DEPTH) as u16);

    let mut sum: u32 = 0;
    for k in 0..FILTER_DEPTH {
        sum += u32::from(sig.filt_read(ram, k));
    }
    sig.is_value.write(ram, (sum / FILTER_DEPTH as u32) as u16);
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::APP_RAM_BYTES;

    fn setup() -> (SignalMap, Ram) {
        let sig = SignalMap::allocate().unwrap();
        let mut ram = Ram::new(APP_RAM_BYTES);
        sig.init(&mut ram, 120);
        (sig, ram)
    }

    #[test]
    fn steady_input_converges_to_itself() {
        let (sig, mut ram) = setup();
        for _ in 0..FILTER_DEPTH {
            run(&sig, &mut ram, 4_000);
        }
        assert_eq!(sig.is_value.read(&ram), 4_000);
    }

    #[test]
    fn filter_averages_the_window() {
        let (sig, mut ram) = setup();
        for v in [1_000, 2_000, 3_000, 4_000] {
            run(&sig, &mut ram, v);
        }
        assert_eq!(sig.is_value.read(&ram), 2_500);
        // Next sample displaces the oldest.
        run(&sig, &mut ram, 5_000);
        assert_eq!(sig.is_value.read(&ram), 3_500);
    }

    #[test]
    fn startup_ramps_from_zero() {
        let (sig, mut ram) = setup();
        run(&sig, &mut ram, 4_000);
        assert_eq!(sig.is_value.read(&ram), 1_000);
    }

    #[test]
    fn is_value_corruption_is_overwritten_next_sample() {
        // PRES_S re-computes IsValue every 7 ms, so direct IsValue
        // corruption is short-lived — the paper's explanation for why
        // IsValue errors rarely cause failure.
        let (sig, mut ram) = setup();
        for _ in 0..8 {
            run(&sig, &mut ram, 500);
        }
        ram.flip_bit(sig.is_value.addr() + 1, 7).unwrap();
        assert_eq!(sig.is_value.read(&ram), 500 + (1 << 15));
        run(&sig, &mut ram, 500);
        assert_eq!(sig.is_value.read(&ram), 500);
    }

    #[test]
    fn filter_buffer_corruption_propagates_attenuated() {
        let (sig, mut ram) = setup();
        for _ in 0..8 {
            run(&sig, &mut ram, 4_000);
        }
        // Corrupt ring entry 1's MSB (entry 0 is the next write slot
        // after 8 runs): the average moves by 32768/4.
        assert_eq!(sig.filt_read(&ram, 1), 4_000);
        let sym = sig.symbols().symbol("filt_buf").unwrap();
        ram.flip_bit(sym.addr + 3, 7).unwrap();
        run(&sig, &mut ram, 4_000);
        assert_eq!(sig.is_value.read(&ram), 4_000 + 32_768 / 4);
    }

    #[test]
    fn index_corruption_keeps_working_modulo_depth() {
        let (sig, mut ram) = setup();
        for _ in 0..4 {
            run(&sig, &mut ram, 1_000);
        }
        // A huge corrupted index still lands in the ring (wraps), so the
        // module keeps producing plausible averages.
        sig.filt_idx.write(&mut ram, 0x7F00);
        run(&sig, &mut ram, 1_000);
        assert_eq!(sig.is_value.read(&ram), 1_000);
    }
}
