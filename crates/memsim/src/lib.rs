//! Simulated embedded target memory with SWIFI bit-flip injection.
//!
//! The paper's target stores all application state in 417 bytes of
//! application RAM plus 1008 bytes of stack, and the FIC3 injector flips
//! single bits at `(address, bit)` coordinates in those areas. This crate
//! provides that substrate:
//!
//! * [`Ram`] — a bounds-checked byte array with 8/16-bit little-endian
//!   accessors and [`Ram::flip_bit`];
//! * [`CellU16`] — a 16-bit variable at a fixed address, so the
//!   application reads and writes its state *through* the RAM image,
//!   making injected flips genuinely perturb program state;
//! * [`TargetMemory`] — the pair of banks with the paper's sizes, plus
//!   injection bookkeeping;
//! * [`BitFlip`] / [`Region`] — the injection coordinates.
//!
//! Where each variable and stack frame sits, and what a flip there
//! touches, is the application's business: the arrestor crate's reach
//! table places them.
//!
//! # Example
//!
//! ```
//! use memsim::{CellU16, Ram};
//!
//! let counter = CellU16::at(8);
//! let mut ram = Ram::new(64);
//! counter.write(&mut ram, 41);
//! ram.flip_bit(counter.addr(), 1)?; // SWIFI: flip bit 1 -> 41 ^ 2 = 43
//! assert_eq!(counter.read(&ram), 43);
//! # Ok::<(), memsim::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod inject;
pub mod ram;
pub mod target;

pub use error::Error;
pub use inject::{BitFlip, Region};
pub use ram::{CellU16, Ram};
pub use target::TargetMemory;

/// Byte size of the application RAM area of the paper's target.
pub const APP_RAM_BYTES: usize = 417;

/// Byte size of the stack area of the paper's target.
pub const STACK_BYTES: usize = 1008;
