//! Property-based tests of the memory substrate. Pruning and the reach
//! table rest on them: a flip is its own inverse, injecting the same
//! flip twice is the identity, and out-of-bounds flips are rejected.

use ea_repro::memsim::{self, BitFlip, Ram, Region, TargetMemory};
use proptest::prelude::*;

proptest! {
    #[test]
    fn u16_round_trip_any_value_any_addr(addr in 0usize..415, value: u16) {
        let mut ram = Ram::new(417);
        ram.write_u16(addr, value).unwrap();
        prop_assert_eq!(ram.read_u16(addr).unwrap(), value);
    }

    #[test]
    fn flip_changes_exactly_one_bit(addr in 0usize..417, bit in 0u8..8, fill: u8) {
        let mut ram = Ram::new(417);
        for a in 0..417 {
            ram.write_u8(a, fill).unwrap();
        }
        ram.flip_bit(addr, bit).unwrap();
        let mut changed = 0u32;
        for a in 0..417 {
            changed += (ram.read_u8(a).unwrap() ^ fill).count_ones();
        }
        prop_assert_eq!(changed, 1);
        prop_assert_eq!(ram.read_u8(addr).unwrap(), fill ^ (1 << bit));
    }

    #[test]
    fn flip_is_involutive(addr in 0usize..417, bit in 0u8..8, value: u8) {
        let mut ram = Ram::new(417);
        ram.write_u8(addr, value).unwrap();
        ram.flip_bit(addr, bit).unwrap();
        ram.flip_bit(addr, bit).unwrap();
        prop_assert_eq!(ram.read_u8(addr).unwrap(), value);
    }

    #[test]
    fn target_memory_injection_hits_the_right_bank(
        addr in 0usize..417,
        bit in 0u8..8,
    ) {
        let mut mem = TargetMemory::new();
        mem.inject(BitFlip::new(Region::AppRam, addr, bit)).unwrap();
        prop_assert_eq!(mem.app().read_u8(addr).unwrap(), 1u8 << bit);
        // The stack bank is untouched.
        for a in (0..memsim::STACK_BYTES).step_by(97) {
            prop_assert_eq!(mem.stack().read_u8(a).unwrap(), 0);
        }
    }

    #[test]
    fn double_injection_is_the_identity(
        ram_fill: u8,
        stack_fill: u8,
        addr in 0usize..memsim::STACK_BYTES,
        bit in 0u8..8,
        in_ram: bool,
    ) {
        // Injecting the same SWIFI flip twice restores the entire
        // target memory: the 20 ms repeated-injection protocol can only
        // toggle state, never accumulate damage.
        let (region, addr) = if in_ram {
            (Region::AppRam, addr % memsim::APP_RAM_BYTES)
        } else {
            (Region::Stack, addr)
        };
        let mut mem = TargetMemory::new();
        for a in 0..memsim::APP_RAM_BYTES {
            mem.app_mut().write_u8(a, ram_fill).unwrap();
        }
        for a in 0..memsim::STACK_BYTES {
            mem.stack_mut().write_u8(a, stack_fill).unwrap();
        }
        let flip = BitFlip::new(region, addr, bit);
        mem.inject(flip).unwrap();
        mem.inject(flip).unwrap();
        for a in 0..memsim::APP_RAM_BYTES {
            prop_assert_eq!(mem.app().read_u8(a).unwrap(), ram_fill);
        }
        for a in 0..memsim::STACK_BYTES {
            prop_assert_eq!(mem.stack().read_u8(a).unwrap(), stack_fill);
        }
    }

    #[test]
    fn out_of_bounds_injection_rejects_and_leaves_memory_untouched(
        beyond in 0usize..4096,
        bit in 0u8..8,
        in_ram: bool,
    ) {
        // Addresses past the paper's 417 B RAM / 1008 B stack must be
        // rejected without flipping anything.
        let (region, size) = if in_ram {
            (Region::AppRam, memsim::APP_RAM_BYTES)
        } else {
            (Region::Stack, memsim::STACK_BYTES)
        };
        let mut mem = TargetMemory::new();
        prop_assert!(mem.inject(BitFlip::new(region, size + beyond, bit)).is_err());
        for a in 0..memsim::APP_RAM_BYTES {
            prop_assert_eq!(mem.app().read_u8(a).unwrap(), 0);
        }
        for a in 0..memsim::STACK_BYTES {
            prop_assert_eq!(mem.stack().read_u8(a).unwrap(), 0);
        }
    }
}
