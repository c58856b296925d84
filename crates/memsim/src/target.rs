//! The complete target memory: application RAM + stack, with injection
//! application and bookkeeping.

use serde::{Deserialize, Serialize};

use crate::error::Error;
use crate::inject::{BitFlip, Region};
use crate::ram::Ram;
use crate::{APP_RAM_BYTES, STACK_BYTES};

/// Both memory banks of the paper's master node. What a stack flip
/// lands on is the application's business: it classifies the address
/// against its own frame table ([`crate::StackLayout`] models one).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TargetMemory {
    app: Ram,
    stack: Ram,
    injections: u64,
}

impl Default for TargetMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl TargetMemory {
    /// Banks with the paper's sizes (417 B RAM, 1008 B stack).
    pub fn new() -> Self {
        TargetMemory {
            app: Ram::new(APP_RAM_BYTES),
            stack: Ram::new(STACK_BYTES),
            injections: 0,
        }
    }

    /// The application RAM bank.
    pub fn app(&self) -> &Ram {
        &self.app
    }

    /// Mutable application RAM bank.
    pub fn app_mut(&mut self) -> &mut Ram {
        &mut self.app
    }

    /// The stack bank.
    pub fn stack(&self) -> &Ram {
        &self.stack
    }

    /// Mutable stack bank.
    pub fn stack_mut(&mut self) -> &mut Ram {
        &mut self.stack
    }

    /// Simultaneous mutable access to both banks (application code that
    /// touches RAM variables and stack locals in one pass).
    pub fn banks_mut(&mut self) -> (&mut Ram, &mut Ram) {
        (&mut self.app, &mut self.stack)
    }

    /// Applies one bit flip to the bank `flip.region` names.
    ///
    /// # Errors
    ///
    /// [`Error::OutOfBounds`] / [`Error::BadBit`] for bad coordinates.
    pub fn inject(&mut self, flip: BitFlip) -> Result<(), Error> {
        self.injections += 1;
        match flip.region {
            Region::AppRam => self.app.flip_bit(flip.addr, flip.bit),
            Region::Stack => self.stack.flip_bit(flip.addr, flip.bit),
        }
    }

    /// Number of injections applied since construction / reset.
    pub const fn injections(&self) -> u64 {
        self.injections
    }

    /// Zeroes both banks and the injection counter (new run).
    pub fn reset(&mut self) {
        self.app.clear();
        self.stack.clear();
        self.injections = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes() {
        let t = TargetMemory::new();
        assert_eq!(t.app().len(), 417);
        assert_eq!(t.stack().len(), 1008);
    }

    #[test]
    fn ram_injection_flips_app_bank() {
        let mut t = TargetMemory::new();
        t.inject(BitFlip::new(Region::AppRam, 10, 3)).unwrap();
        assert_eq!(t.app().read_u8(10).unwrap(), 1 << 3);
        assert_eq!(t.injections(), 1);
    }

    #[test]
    fn stack_injection_flips_stack_bank() {
        let mut t = TargetMemory::new();
        t.inject(BitFlip::new(Region::Stack, STACK_BYTES - 19, 0))
            .unwrap();
        assert_eq!(t.stack().read_u8(STACK_BYTES - 19).unwrap(), 1);
        assert!(t.app().as_bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn bad_coordinates_error() {
        let mut t = TargetMemory::new();
        assert!(t.inject(BitFlip::new(Region::AppRam, 417, 0)).is_err());
        assert!(t.inject(BitFlip::new(Region::Stack, 2000, 0)).is_err());
        assert!(t.inject(BitFlip::new(Region::AppRam, 0, 9)).is_err());
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = TargetMemory::new();
        t.inject(BitFlip::new(Region::AppRam, 10, 3)).unwrap();
        t.app_mut().write_u16(0, 99).unwrap();
        t.stack_mut().write_u16(0, 99).unwrap();
        t.reset();
        assert_eq!(t.app().read_u16(0).unwrap(), 0);
        assert_eq!(t.stack().read_u16(0).unwrap(), 0);
        assert_eq!(t.app().read_u8(10).unwrap(), 0);
        assert_eq!(t.injections(), 0);
    }
}
