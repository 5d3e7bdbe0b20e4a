//! OpenCL error codes.

use crate::handles::HandleKind;
use simcore::codec::{Codec, CodecError, Reader};
use std::fmt;

/// Declares the error table once: each entry is `Variant = code,
/// "CL_NAME"`, with the numeric code and symbolic name of `CL/cl.h`.
macro_rules! cl_errors {
    ($($variant:ident = $code:literal, $name:literal,)*) => {
        /// The subset of OpenCL 1.0 error codes the simulated stack can raise.
        ///
        /// Numeric values match `CL/cl.h` so diagnostics read like real driver
        /// output.
        #[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
        pub enum ClError {
            $(
                #[doc = concat!($name, " (", stringify!($code), ")")]
                $variant,
            )*
        }

        impl ClError {
            /// The `CL/cl.h` numeric code.
            pub fn code(self) -> i32 {
                match self {
                    $(ClError::$variant => $code,)*
                }
            }

            /// The `CL/cl.h` symbolic name.
            pub fn name(self) -> &'static str {
                match self {
                    $(ClError::$variant => $name,)*
                }
            }

            fn all() -> &'static [ClError] {
                &[$(ClError::$variant),*]
            }
        }
    };
}

cl_errors! {
    DeviceNotFound = -1, "CL_DEVICE_NOT_FOUND",
    DeviceNotAvailable = -2, "CL_DEVICE_NOT_AVAILABLE",
    CompilerNotAvailable = -3, "CL_COMPILER_NOT_AVAILABLE",
    MemObjectAllocationFailure = -4, "CL_MEM_OBJECT_ALLOCATION_FAILURE",
    OutOfResources = -5, "CL_OUT_OF_RESOURCES",
    OutOfHostMemory = -6, "CL_OUT_OF_HOST_MEMORY",
    BuildProgramFailure = -11, "CL_BUILD_PROGRAM_FAILURE",
    InvalidValue = -30, "CL_INVALID_VALUE",
    InvalidDeviceType = -31, "CL_INVALID_DEVICE_TYPE",
    InvalidPlatform = -32, "CL_INVALID_PLATFORM",
    InvalidDevice = -33, "CL_INVALID_DEVICE",
    InvalidContext = -34, "CL_INVALID_CONTEXT",
    InvalidQueueProperties = -35, "CL_INVALID_QUEUE_PROPERTIES",
    InvalidCommandQueue = -36, "CL_INVALID_COMMAND_QUEUE",
    InvalidMemObject = -38, "CL_INVALID_MEM_OBJECT",
    InvalidSampler = -41, "CL_INVALID_SAMPLER",
    InvalidBinary = -42, "CL_INVALID_BINARY",
    InvalidBuildOptions = -43, "CL_INVALID_BUILD_OPTIONS",
    InvalidProgram = -44, "CL_INVALID_PROGRAM",
    InvalidProgramExecutable = -45, "CL_INVALID_PROGRAM_EXECUTABLE",
    InvalidKernelName = -46, "CL_INVALID_KERNEL_NAME",
    InvalidKernel = -48, "CL_INVALID_KERNEL",
    InvalidArgIndex = -49, "CL_INVALID_ARG_INDEX",
    InvalidArgValue = -50, "CL_INVALID_ARG_VALUE",
    InvalidArgSize = -51, "CL_INVALID_ARG_SIZE",
    InvalidKernelArgs = -52, "CL_INVALID_KERNEL_ARGS",
    InvalidWorkGroupSize = -54, "CL_INVALID_WORK_GROUP_SIZE",
    InvalidEventWaitList = -57, "CL_INVALID_EVENT_WAIT_LIST",
    InvalidEvent = -58, "CL_INVALID_EVENT",
    InvalidBufferSize = -61, "CL_INVALID_BUFFER_SIZE",
}

impl ClError {
    /// The error a call gets for a bad handle of `kind`: dead, unknown,
    /// or of another kind.
    pub fn invalid_handle(kind: HandleKind) -> ClError {
        match kind {
            HandleKind::Platform => ClError::InvalidPlatform,
            HandleKind::Device => ClError::InvalidDevice,
            HandleKind::Context => ClError::InvalidContext,
            HandleKind::CommandQueue => ClError::InvalidCommandQueue,
            HandleKind::Mem => ClError::InvalidMemObject,
            HandleKind::Sampler => ClError::InvalidSampler,
            HandleKind::Program => ClError::InvalidProgram,
            HandleKind::Kernel => ClError::InvalidKernel,
            HandleKind::Event => ClError::InvalidEvent,
        }
    }

    /// Inverse of [`ClError::code`].
    pub fn from_code(code: i32) -> Option<ClError> {
        ClError::all().iter().copied().find(|e| e.code() == code)
    }
}

impl fmt::Display for ClError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name(), self.code())
    }
}

impl std::error::Error for ClError {}

impl Codec for ClError {
    fn encode(&self, out: &mut Vec<u8>) {
        self.code().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let code = i32::decode(r)?;
        ClError::from_code(code).ok_or(CodecError::Invalid("ClError code"))
    }
}

/// Result alias used across the whole API surface.
pub type ClResult<T> = Result<T, ClError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_negative() {
        let all = ClError::all();
        for (i, a) in all.iter().enumerate() {
            assert!(a.code() < 0);
            for b in &all[i + 1..] {
                assert_ne!(a.code(), b.code());
            }
        }
    }

    #[test]
    fn from_code_inverts_code() {
        for &e in ClError::all() {
            assert_eq!(ClError::from_code(e.code()), Some(e));
        }
        assert_eq!(ClError::from_code(0), None);
        assert_eq!(ClError::from_code(-999), None);
    }

    #[test]
    fn display_matches_header_style() {
        assert_eq!(
            ClError::InvalidKernelName.to_string(),
            "CL_INVALID_KERNEL_NAME (-46)"
        );
    }

    #[test]
    fn codec_roundtrip() {
        for &e in ClError::all() {
            assert_eq!(ClError::from_bytes(&e.to_bytes()).unwrap(), e);
        }
    }
}
