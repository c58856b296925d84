//! The error sets E1 and E2 of paper Section 3.4 (Table 6).

use arrestor::{EaId, SignalMap};
use memsim::{BitFlip, Region, APP_RAM_BYTES, STACK_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One error of set E1: a bit flip in one of the monitored signals.
///
/// Table 6 numbers the errors S1–S112, sixteen per signal in EA order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct E1Error {
    /// Error number (1-based, `S<number>` in the paper).
    pub number: usize,
    /// The mechanism directly monitoring the corrupted signal.
    pub ea: EaId,
    /// Bit position within the 16-bit signal (0 = LSB).
    pub signal_bit: u8,
    /// The flip coordinates.
    pub flip: BitFlip,
}

impl E1Error {
    /// The corrupted signal's name.
    pub fn signal_name(&self) -> &'static str {
        self.ea.signal_name()
    }
}

/// One error of set E2: a bit flip at a uniformly random location in
/// application RAM or stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct E2Error {
    /// Error index (1-based, 1..=200).
    pub number: usize,
    /// The flip coordinates (`flip.region` tells RAM from stack).
    pub flip: BitFlip,
}

/// Builds error set E1: every bit position of every monitored signal —
/// 7 × 16 = 112 errors, in Table 6 order (S1 = SetValue bit 0, …,
/// S112 = OutValue bit 15).
pub fn e1() -> Vec<E1Error> {
    // The signal addresses are deterministic; read them off the target's
    // RAM map exactly as the FIC would download them.
    let monitored = SignalMap::allocate().monitored();
    let mut errors = Vec::with_capacity(112);
    for (slot, (name, addr)) in monitored.iter().enumerate() {
        let ea = EaId::from_index(slot).expect("seven monitored signals");
        debug_assert_eq!(*name, ea.signal_name());
        for bit in 0u8..16 {
            let byte = *addr + usize::from(bit / 8);
            errors.push(E1Error {
                number: errors.len() + 1,
                ea,
                signal_bit: bit,
                flip: BitFlip::new(Region::AppRam, byte, bit % 8),
            });
        }
    }
    errors
}

/// Default seed of the E2 sample (fixed for reproducibility; the paper
/// drew once from a uniform distribution and reused the set).
pub const E2_SEED: u64 = 0x0DD5_2000;

/// Counts of the paper's E2 set: 150 RAM + 50 stack errors.
pub const E2_RAM_ERRORS: usize = 150;
/// Stack portion of E2.
pub const E2_STACK_ERRORS: usize = 50;

/// Builds error set E2 with the default seed.
pub fn e2() -> Vec<E2Error> {
    e2_with_seed(E2_SEED)
}

/// Builds error set E2 from a seed: 150 uniform flips in application
/// RAM then 50 in the stack, locations and bit positions uniform,
/// sampled with replacement (duplicates allowed, as in the paper).
pub fn e2_with_seed(seed: u64) -> Vec<E2Error> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut errors = Vec::with_capacity(E2_RAM_ERRORS + E2_STACK_ERRORS);
    for _ in 0..E2_RAM_ERRORS {
        let flip = BitFlip::new(
            Region::AppRam,
            rng.gen_range(0..APP_RAM_BYTES),
            rng.gen_range(0..8u8),
        );
        errors.push(E2Error {
            number: errors.len() + 1,
            flip,
        });
    }
    for _ in 0..E2_STACK_ERRORS {
        let flip = BitFlip::new(
            Region::Stack,
            rng.gen_range(0..STACK_BYTES),
            rng.gen_range(0..8u8),
        );
        errors.push(E2Error {
            number: errors.len() + 1,
            flip,
        });
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_has_112_errors_in_table6_order() {
        let errors = e1();
        assert_eq!(errors.len(), 112);
        // S1..S16 hit SetValue, S17..S32 IsValue, etc.
        assert_eq!(errors[0].ea, EaId::Ea1);
        assert_eq!(errors[0].signal_bit, 0);
        assert_eq!(errors[15].ea, EaId::Ea1);
        assert_eq!(errors[15].signal_bit, 15);
        assert_eq!(errors[16].ea, EaId::Ea2);
        assert_eq!(errors[111].ea, EaId::Ea7);
        for (k, e) in errors.iter().enumerate() {
            assert_eq!(e.number, k + 1);
            assert_eq!(e.flip.region, Region::AppRam);
        }
    }

    #[test]
    fn e1_bits_map_to_little_endian_bytes() {
        let errors = e1();
        // Bit 8 of a signal is bit 0 of the following byte.
        let low = &errors[0]; // SetValue bit 0
        let high = &errors[8]; // SetValue bit 8
        assert_eq!(high.flip.addr, low.flip.addr + 1);
        assert_eq!(high.flip.bit, 0);
    }

    #[test]
    fn e1_covers_each_signal_with_16_distinct_flips() {
        let errors = e1();
        for chunk in errors.chunks(16) {
            let mut flips: Vec<_> = chunk.iter().map(|e| e.flip).collect();
            flips.sort_by_key(|f| (f.addr, f.bit));
            flips.dedup();
            assert_eq!(flips.len(), 16);
        }
    }

    #[test]
    fn e2_has_paper_distribution() {
        let errors = e2();
        assert_eq!(errors.len(), 200);
        let ram = errors
            .iter()
            .filter(|e| e.flip.region == Region::AppRam)
            .count();
        let stack = errors
            .iter()
            .filter(|e| e.flip.region == Region::Stack)
            .count();
        assert_eq!(ram, E2_RAM_ERRORS);
        assert_eq!(stack, E2_STACK_ERRORS);
        for e in &errors {
            let size = match e.flip.region {
                Region::AppRam => APP_RAM_BYTES,
                Region::Stack => STACK_BYTES,
            };
            assert!(e.flip.addr < size);
            assert!(e.flip.bit < 8);
        }
    }

    #[test]
    fn e2_is_reproducible_and_seed_sensitive() {
        assert_eq!(e2(), e2());
        assert_ne!(e2_with_seed(1), e2_with_seed(2));
    }
}
