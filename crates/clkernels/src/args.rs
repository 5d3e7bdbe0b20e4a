//! Resolved kernel arguments as the execution engine sees them.
//!
//! By the time a launch reaches the engine, the driver has resolved
//! every `cl_mem` handle to buffer bytes. A buffer argument holds the
//! device buffer's own [`Payload`], lent by the driver for the launch
//! and returned afterwards, so the engine reads and writes device
//! memory in place. Those bytes may be shared, with the input memo or
//! with another binding of the same `cl_mem`: reading them copies
//! nothing, and only [`ArgData::buffer_mut`] copies them, and only
//! while they are shared. The engine can change a buffer's bytes but
//! never its length.

use simcore::Payload;
use std::fmt;

/// One resolved kernel argument.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgData {
    /// A global-memory buffer (device memory contents).
    Buffer {
        /// The bytes, shared until written.
        bytes: Payload,
        /// Whether the engine asked for the bytes to write, through
        /// [`ArgData::buffer_mut`]; the driver stamps only such a
        /// buffer as changed.
        written: bool,
    },
    /// A by-value scalar, as raw little-endian bytes.
    Scalar(Vec<u8>),
    /// A `__local` scratch allocation of the given size. Scratch is
    /// zero-initialised per launch and discarded afterwards; the engine
    /// implementations don't need it (they compute work-group results
    /// directly), but its size participates in launch validation.
    Local(u64),
}

impl ArgData {
    /// A buffer argument over `bytes`, not yet written.
    pub fn buffer_of(bytes: impl Into<Payload>) -> Self {
        ArgData::Buffer {
            bytes: bytes.into(),
            written: false,
        }
    }

    /// Borrow buffer bytes; error if the argument is not a buffer.
    pub fn buffer(&self) -> Result<&[u8], ExecError> {
        match self {
            ArgData::Buffer { bytes, .. } => Ok(bytes),
            other => Err(ExecError::ArgType {
                expected: "buffer",
                got: other.kind_name(),
            }),
        }
    }

    /// Mutably borrow buffer bytes, copying them first while they are
    /// shared, and mark the argument written; their length is fixed.
    pub fn buffer_mut(&mut self) -> Result<&mut [u8], ExecError> {
        match self {
            ArgData::Buffer { bytes, written } => {
                *written = true;
                Ok(bytes.make_mut())
            }
            other => Err(ExecError::ArgType {
                expected: "buffer",
                got: other.kind_name(),
            }),
        }
    }

    /// Read the argument as a `u32` scalar.
    pub fn scalar_u32(&self) -> Result<u32, ExecError> {
        match self {
            ArgData::Scalar(b) if b.len() == 4 => {
                Ok(u32::from_le_bytes(b[..4].try_into().unwrap()))
            }
            ArgData::Scalar(_) => Err(ExecError::ArgType {
                expected: "u32 scalar",
                got: "scalar of wrong size",
            }),
            other => Err(ExecError::ArgType {
                expected: "u32 scalar",
                got: other.kind_name(),
            }),
        }
    }

    /// Read the argument as an `f32` scalar.
    pub fn scalar_f32(&self) -> Result<f32, ExecError> {
        match self {
            ArgData::Scalar(b) if b.len() == 4 => {
                Ok(f32::from_le_bytes(b[..4].try_into().unwrap()))
            }
            ArgData::Scalar(_) => Err(ExecError::ArgType {
                expected: "f32 scalar",
                got: "scalar of wrong size",
            }),
            other => Err(ExecError::ArgType {
                expected: "f32 scalar",
                got: other.kind_name(),
            }),
        }
    }

    pub(crate) fn kind_name(&self) -> &'static str {
        match self {
            ArgData::Buffer { .. } => "buffer",
            ArgData::Scalar(_) => "scalar",
            ArgData::Local(_) => "local",
        }
    }
}

/// Kernel execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// No kernel with that name in the engine registry.
    UnknownKernel(String),
    /// Wrong number of arguments bound.
    ArgCount { expected: usize, got: usize },
    /// An argument had the wrong kind or size.
    ArgType {
        expected: &'static str,
        got: &'static str,
    },
    /// A buffer was too small for the requested range.
    BufferTooSmall {
        arg_index: usize,
        needed: usize,
        actual: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownKernel(n) => write!(f, "unknown kernel `{n}`"),
            ExecError::ArgCount { expected, got } => {
                write!(f, "expected {expected} kernel args, got {got}")
            }
            ExecError::ArgType { expected, got } => {
                write!(f, "expected {expected} argument, got {got}")
            }
            ExecError::BufferTooSmall {
                arg_index,
                needed,
                actual,
            } => write!(
                f,
                "buffer arg {arg_index} too small: need {needed} bytes, have {actual}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_accessors_validate() {
        let s = ArgData::Scalar(7u32.to_le_bytes().to_vec());
        assert_eq!(s.scalar_u32().unwrap(), 7);
        let f = ArgData::Scalar(1.5f32.to_le_bytes().to_vec());
        assert_eq!(f.scalar_f32().unwrap(), 1.5);
        let b = ArgData::buffer_of(vec![0; 4]);
        assert!(b.scalar_u32().is_err());
        let bad = ArgData::Scalar(vec![0; 8]);
        assert!(bad.scalar_u32().is_err());
    }

    #[test]
    fn buffer_accessors_validate() {
        let shared = Payload::from(vec![1, 2]);
        let mut b = ArgData::buffer_of(shared.clone());
        assert_eq!(b.buffer().unwrap(), &[1, 2]);
        assert!(matches!(b, ArgData::Buffer { written: false, .. }));
        b.buffer_mut().unwrap()[1] = 3;
        assert_eq!(b.buffer().unwrap(), &[1, 3]);
        assert!(matches!(b, ArgData::Buffer { written: true, .. }));
        assert_eq!(&shared[..], &[1, 2], "a write leaves shared bytes alone");
        assert!(ArgData::Local(64).buffer().is_err());
    }
}
