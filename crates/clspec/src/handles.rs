//! Opaque object handles.
//!
//! In OpenCL every object is referenced through an opaque pointer
//! (`typedef struct _cl_context* cl_context;`). We model a handle as a
//! bare `u64` whose value is chosen by whichever implementation created
//! it — crucially, *the value of a vendor handle changes when the object
//! is re-created after restart* (§III-B), which is why CheCL must
//! interpose its own stable handles.

use simcore::codec::{Codec, CodecError, Reader};
use std::fmt;

/// An opaque handle value. Only the implementation that issued it can
/// interpret it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RawHandle(pub u64);

impl RawHandle {
    /// The null handle (invalid in every API call).
    pub const NULL: RawHandle = RawHandle(0);

    /// `true` for the null handle.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for RawHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:012x}", self.0)
    }
}

impl Codec for RawHandle {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RawHandle(u64::decode(r)?))
    }
}

/// The kind of OpenCL object a handle refers to.
///
/// The order of the variants is the paper's restore order (§III-C):
/// platforms first, events last; deletion happens in reverse.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum HandleKind {
    Platform,
    Device,
    Context,
    CommandQueue,
    Mem,
    Sampler,
    Program,
    Kernel,
    Event,
}

impl HandleKind {
    /// All kinds, in restore order.
    pub const RESTORE_ORDER: [HandleKind; 9] = [
        HandleKind::Platform,
        HandleKind::Device,
        HandleKind::Context,
        HandleKind::CommandQueue,
        HandleKind::Mem,
        HandleKind::Sampler,
        HandleKind::Program,
        HandleKind::Kernel,
        HandleKind::Event,
    ];

    /// Short lower-case name used in reports (matches the Fig. 7 legend).
    pub fn short_name(self) -> &'static str {
        match self {
            HandleKind::Platform => "platform",
            HandleKind::Device => "device",
            HandleKind::Context => "context",
            HandleKind::CommandQueue => "cmd_que",
            HandleKind::Mem => "mem",
            HandleKind::Sampler => "sampler",
            HandleKind::Program => "prog",
            HandleKind::Kernel => "kernel",
            HandleKind::Event => "event",
        }
    }
}

simcore::impl_codec_enum!(HandleKind, "HandleKind tag", {
    0 => Platform,
    1 => Device,
    2 => Context,
    3 => CommandQueue,
    4 => Mem,
    5 => Sampler,
    6 => Program,
    7 => Kernel,
    8 => Event,
});

macro_rules! typed_handle {
    ($(#[$doc:meta])* $name:ident, $kind:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub RawHandle);

        impl $name {
            /// Wrap a raw handle value.
            pub const fn from_raw(raw: RawHandle) -> Self {
                $name(raw)
            }

            /// The underlying raw handle.
            pub const fn raw(self) -> RawHandle {
                self.0
            }

            /// The object kind of this handle type.
            pub const fn kind() -> HandleKind {
                $kind
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({:?})", stringify!($name), self.0)
            }
        }

        impl Codec for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok($name(RawHandle::decode(r)?))
            }
        }

        impl crate::api::ApiField for $name {
            fn try_map_handles<E>(
                &mut self,
                f: &mut impl FnMut(HandleKind, RawHandle) -> Result<RawHandle, E>,
            ) -> Result<(), E> {
                self.0 = f($kind, self.0)?;
                Ok(())
            }
        }
    };
}

typed_handle!(
    /// `cl_platform_id`
    PlatformId,
    HandleKind::Platform
);
typed_handle!(
    /// `cl_device_id`
    DeviceId,
    HandleKind::Device
);
typed_handle!(
    /// `cl_context`
    Context,
    HandleKind::Context
);
typed_handle!(
    /// `cl_command_queue`
    CommandQueue,
    HandleKind::CommandQueue
);
typed_handle!(
    /// `cl_mem`
    Mem,
    HandleKind::Mem
);
typed_handle!(
    /// `cl_sampler`
    Sampler,
    HandleKind::Sampler
);
typed_handle!(
    /// `cl_program`
    Program,
    HandleKind::Program
);
typed_handle!(
    /// `cl_kernel`
    Kernel,
    HandleKind::Kernel
);
typed_handle!(
    /// `cl_event`
    Event,
    HandleKind::Event
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restore_order_matches_paper() {
        let names: Vec<&str> = HandleKind::RESTORE_ORDER
            .iter()
            .map(|k| k.short_name())
            .collect();
        assert_eq!(
            names,
            [
                "platform", "device", "context", "cmd_que", "mem", "sampler", "prog", "kernel",
                "event"
            ]
        );
    }

    #[test]
    fn null_handle() {
        assert!(RawHandle::NULL.is_null());
        assert!(!RawHandle(1).is_null());
    }

    #[test]
    fn typed_handle_roundtrip() {
        let m = Mem::from_raw(RawHandle(0xabc));
        assert_eq!(m.raw(), RawHandle(0xabc));
        assert_eq!(Mem::kind(), HandleKind::Mem);
        let bytes = m.to_bytes();
        assert_eq!(Mem::from_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn kind_codec_roundtrip() {
        for k in HandleKind::RESTORE_ORDER {
            assert_eq!(HandleKind::from_bytes(&k.to_bytes()).unwrap(), k);
        }
    }

    #[test]
    fn kind_codec_rejects_bad_tag() {
        assert!(HandleKind::from_bytes(&[99]).is_err());
    }
}
