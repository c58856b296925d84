//! A bounds-checked byte bank with little-endian word access and
//! single-bit corruption, and the 16-bit cells the application keeps
//! its variables in.

use serde::{Deserialize, Serialize};

use crate::error::Error;

/// A contiguous memory bank of fixed size.
///
/// All multi-byte accesses are little-endian, matching common embedded
/// targets; signal values in the paper's case study are 16-bit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ram {
    bytes: Vec<u8>,
}

impl Ram {
    /// A zero-initialised bank of `size` bytes.
    pub fn new(size: usize) -> Self {
        Ram {
            bytes: vec![0; size],
        }
    }

    /// Bank size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the bank has zero size.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Zeroes the whole bank.
    pub fn clear(&mut self) {
        self.bytes.fill(0);
    }

    #[inline]
    fn bounds(&self, addr: usize, width: usize) -> Result<(), Error> {
        if addr
            .checked_add(width)
            .is_none_or(|end| end > self.bytes.len())
        {
            return Err(Error::OutOfBounds {
                addr,
                width,
                size: self.bytes.len(),
            });
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`Error::OutOfBounds`] if `addr` is outside the bank.
    #[inline]
    pub fn read_u8(&self, addr: usize) -> Result<u8, Error> {
        self.bounds(addr, 1)?;
        Ok(self.bytes[addr])
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// [`Error::OutOfBounds`] if `addr` is outside the bank.
    #[inline]
    pub fn write_u8(&mut self, addr: usize, value: u8) -> Result<(), Error> {
        self.bounds(addr, 1)?;
        self.bytes[addr] = value;
        Ok(())
    }

    /// Reads a little-endian 16-bit word.
    ///
    /// # Errors
    ///
    /// [`Error::OutOfBounds`] if `addr + 1` is outside the bank.
    #[inline]
    pub fn read_u16(&self, addr: usize) -> Result<u16, Error> {
        self.bounds(addr, 2)?;
        Ok(u16::from_le_bytes([self.bytes[addr], self.bytes[addr + 1]]))
    }

    /// Writes a little-endian 16-bit word.
    ///
    /// # Errors
    ///
    /// [`Error::OutOfBounds`] if `addr + 1` is outside the bank.
    #[inline]
    pub fn write_u16(&mut self, addr: usize, value: u16) -> Result<(), Error> {
        self.bounds(addr, 2)?;
        let [lo, hi] = value.to_le_bytes();
        self.bytes[addr] = lo;
        self.bytes[addr + 1] = hi;
        Ok(())
    }

    /// Flips a single bit — the SWIFI primitive of the paper's FIC3.
    ///
    /// # Errors
    ///
    /// [`Error::OutOfBounds`] / [`Error::BadBit`] for bad coordinates.
    #[inline]
    pub fn flip_bit(&mut self, addr: usize, bit: u8) -> Result<(), Error> {
        self.bounds(addr, 1)?;
        if bit >= 8 {
            return Err(Error::BadBit { bit });
        }
        self.bytes[addr] ^= 1 << bit;
        Ok(())
    }

    /// A read-only view of the raw bytes (for readout capture).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Handle to a little-endian 16-bit variable at a fixed address of a
/// [`Ram`] bank.
///
/// The accessors are infallible by API: a read past the bank returns 0
/// and a write past it is dropped. The application places every cell
/// inside its bank (its layout tests check this), so neither happens in
/// practice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellU16 {
    addr: usize,
}

impl CellU16 {
    /// The cell at `addr`.
    pub const fn at(addr: usize) -> Self {
        CellU16 { addr }
    }

    /// Start address of the cell.
    pub const fn addr(self) -> usize {
        self.addr
    }

    /// Reads the current value from the RAM image.
    #[inline]
    pub fn read(self, ram: &Ram) -> u16 {
        ram.read_u16(self.addr).unwrap_or(0)
    }

    /// Writes a value to the RAM image.
    #[inline]
    pub fn write(self, ram: &mut Ram, value: u16) {
        let _ = ram.write_u16(self.addr, value);
    }

    /// Adds a wrapping delta (convenient for counters).
    #[inline]
    pub fn add_wrapping(self, ram: &mut Ram, delta: u16) -> u16 {
        let value = self.read(ram).wrapping_add(delta);
        self.write(ram, value);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zeroed() {
        let ram = Ram::new(8);
        assert_eq!(ram.len(), 8);
        assert!(!ram.is_empty());
        for addr in 0..8 {
            assert_eq!(ram.read_u8(addr).unwrap(), 0);
        }
    }

    #[test]
    fn u8_round_trip() {
        let mut ram = Ram::new(4);
        ram.write_u8(2, 0xAB).unwrap();
        assert_eq!(ram.read_u8(2).unwrap(), 0xAB);
    }

    #[test]
    fn u16_little_endian() {
        let mut ram = Ram::new(4);
        ram.write_u16(0, 0x1234).unwrap();
        assert_eq!(ram.read_u8(0).unwrap(), 0x34);
        assert_eq!(ram.read_u8(1).unwrap(), 0x12);
        assert_eq!(ram.read_u16(0).unwrap(), 0x1234);
    }

    #[test]
    fn bounds_checked() {
        let mut ram = Ram::new(4);
        assert!(ram.read_u8(4).is_err());
        assert!(ram.write_u8(4, 0).is_err());
        assert!(ram.read_u16(3).is_err());
        assert!(ram.write_u16(3, 0).is_err());
        // usize overflow must not panic.
        assert!(ram.read_u16(usize::MAX).is_err());
    }

    #[test]
    fn flip_bit_xors() {
        let mut ram = Ram::new(2);
        ram.write_u16(0, 0b0000_0000_0000_0100).unwrap();
        ram.flip_bit(0, 2).unwrap(); // clears bit 2
        assert_eq!(ram.read_u16(0).unwrap(), 0);
        ram.flip_bit(1, 7).unwrap(); // sets bit 15 of the word
        assert_eq!(ram.read_u16(0).unwrap(), 0x8000);
    }

    #[test]
    fn flip_bit_validates() {
        let mut ram = Ram::new(2);
        assert_eq!(ram.flip_bit(0, 8).unwrap_err(), Error::BadBit { bit: 8 });
        assert!(ram.flip_bit(2, 0).is_err());
    }

    #[test]
    fn clear_zeroes() {
        let mut ram = Ram::new(4);
        ram.write_u16(0, 0xFFFF).unwrap();
        ram.clear();
        assert_eq!(ram.read_u16(0).unwrap(), 0);
    }

    #[test]
    fn double_flip_restores() {
        let mut ram = Ram::new(1);
        ram.write_u8(0, 0x5A).unwrap();
        ram.flip_bit(0, 3).unwrap();
        ram.flip_bit(0, 3).unwrap();
        assert_eq!(ram.read_u8(0).unwrap(), 0x5A);
    }

    #[test]
    fn cells_access_ram() {
        let v = CellU16::at(0);
        let mut ram = Ram::new(16);
        v.write(&mut ram, 512);
        assert_eq!(v.read(&ram), 512);
        assert_eq!(v.add_wrapping(&mut ram, 10), 522);
        assert_eq!(v.read(&ram), 522);
        // A cell past the bank reads 0 and drops writes.
        let outside = CellU16::at(15);
        outside.write(&mut ram, 7);
        assert_eq!(outside.read(&ram), 0);
    }

    #[test]
    fn add_wrapping_wraps() {
        let v = CellU16::at(0);
        let mut ram = Ram::new(2);
        v.write(&mut ram, u16::MAX);
        assert_eq!(v.add_wrapping(&mut ram, 1), 0);
    }

    #[test]
    fn flip_in_the_image_is_visible_through_the_cell() {
        let v = CellU16::at(2);
        let mut ram = Ram::new(4);
        v.write(&mut ram, 0);
        // Flip bit 12 of the 16-bit word = bit 4 of the high byte.
        ram.flip_bit(v.addr() + 1, 4).unwrap();
        assert_eq!(v.read(&ram), 1 << 12);
    }
}
