//! Error type for memory operations.

use std::fmt;

/// Errors from memory accesses and injection.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// An address (or a multi-byte access ending) beyond the bank size.
    OutOfBounds {
        /// Offending address.
        addr: usize,
        /// Width of the attempted access in bytes.
        width: usize,
        /// Size of the bank.
        size: usize,
    },
    /// A bit index outside `0..8`.
    BadBit {
        /// Offending bit index.
        bit: u8,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::OutOfBounds { addr, width, size } => {
                write!(
                    f,
                    "access of {width} byte(s) at {addr} exceeds bank of {size} bytes"
                )
            }
            Error::BadBit { bit } => write!(f, "bit index {bit} is outside 0..8"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let err = Error::OutOfBounds {
            addr: 500,
            width: 2,
            size: 417,
        };
        assert!(err.to_string().contains("500"));
        assert!(err.to_string().contains("417"));
    }

    #[test]
    fn is_std_error() {
        fn check<E: std::error::Error + Send + Sync + 'static>() {}
        check::<Error>();
    }
}
