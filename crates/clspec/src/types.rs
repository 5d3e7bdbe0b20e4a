//! Value types of the API surface: flags, descriptors and info structs.
//!
//! Everything here is [`Codec`] because CheCL records these values in
//! its wrapper objects, and the wrapper objects travel inside the
//! checkpoint image.

use crate::handles::RawHandle;
use simcore::codec::{Codec, CodecError, Reader};
use simcore::{impl_codec_enum, impl_codec_struct, ByteSize};

/// `cl_device_type` — the device classes an application can request.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DeviceType {
    /// CL_DEVICE_TYPE_CPU
    Cpu,
    /// CL_DEVICE_TYPE_GPU
    Gpu,
    /// CL_DEVICE_TYPE_ACCELERATOR
    Accelerator,
    /// CL_DEVICE_TYPE_ALL
    All,
}

impl_codec_enum!(DeviceType, "DeviceType tag", {
    0 => Cpu,
    1 => Gpu,
    2 => Accelerator,
    3 => All,
});

/// `cl_mem_flags` — buffer creation flags.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct MemFlags(u32);

impl MemFlags {
    /// CL_MEM_READ_WRITE (default).
    pub const READ_WRITE: MemFlags = MemFlags(1 << 0);
    /// CL_MEM_WRITE_ONLY.
    pub const WRITE_ONLY: MemFlags = MemFlags(1 << 1);
    /// CL_MEM_READ_ONLY.
    pub const READ_ONLY: MemFlags = MemFlags(1 << 2);
    /// CL_MEM_USE_HOST_PTR — device memory is backed by / cached in a
    /// host region (§IV-D discusses the performance hazard under CheCL).
    pub const USE_HOST_PTR: MemFlags = MemFlags(1 << 3);
    /// CL_MEM_ALLOC_HOST_PTR.
    pub const ALLOC_HOST_PTR: MemFlags = MemFlags(1 << 4);
    /// CL_MEM_COPY_HOST_PTR — initialise from host data at creation.
    pub const COPY_HOST_PTR: MemFlags = MemFlags(1 << 5);

    /// Empty flag set (treated as READ_WRITE by drivers, as in OpenCL).
    pub const fn empty() -> MemFlags {
        MemFlags(0)
    }

    /// Union of two flag sets.
    pub const fn union(self, other: MemFlags) -> MemFlags {
        MemFlags(self.0 | other.0)
    }

    /// `true` if every flag in `other` is set in `self`.
    pub const fn contains(self, other: MemFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Raw bit representation.
    pub const fn bits(self) -> u32 {
        self.0
    }
}

impl std::ops::BitOr for MemFlags {
    type Output = MemFlags;
    fn bitor(self, rhs: MemFlags) -> MemFlags {
        self.union(rhs)
    }
}

impl Codec for MemFlags {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(MemFlags(u32::decode(r)?))
    }
}

/// `cl_command_queue_properties`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct QueueProps {
    /// CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE.
    pub out_of_order: bool,
    /// CL_QUEUE_PROFILING_ENABLE.
    pub profiling: bool,
}

impl_codec_struct!(QueueProps {
    out_of_order,
    profiling
});

/// `cl_sampler` creation arguments.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct SamplerDesc {
    /// CL_SAMPLER_NORMALIZED_COORDS.
    pub normalized_coords: bool,
    /// Addressing mode (CLAMP, REPEAT, …) as the raw enum value.
    pub addressing_mode: u32,
    /// Filter mode (NEAREST, LINEAR) as the raw enum value.
    pub filter_mode: u32,
}

impl_codec_struct!(SamplerDesc {
    normalized_coords,
    addressing_mode,
    filter_mode
});

/// Bytes of a `width × height` 2-D image of single-channel float texels
/// (CL_R / CL_FLOAT, 4 bytes each); `None` when the size overflows.
pub fn image2d_bytes(width: u64, height: u64) -> Option<u64> {
    width.checked_mul(height)?.checked_mul(4)
}

/// The byte range `[offset, offset + len)` of a `size`-byte buffer;
/// `None` when any of it lies outside, the end overflowing included.
#[inline]
pub fn byte_span(offset: u64, len: u64, size: u64) -> Option<std::ops::Range<u64>> {
    let end = offset.checked_add(len)?;
    (end <= size).then_some(offset..end)
}

/// An N-dimensional range for kernel launches (`global_work_size` /
/// `local_work_size`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct NDRange {
    /// Work dimensions actually used (1..=3).
    pub dims: u32,
    /// Sizes per dimension; unused dimensions are 1.
    pub sizes: [u64; 3],
}

impl NDRange {
    /// A 1-D range.
    pub fn d1(x: u64) -> NDRange {
        NDRange {
            dims: 1,
            sizes: [x, 1, 1],
        }
    }

    /// A 2-D range.
    pub fn d2(x: u64, y: u64) -> NDRange {
        NDRange {
            dims: 2,
            sizes: [x, y, 1],
        }
    }

    /// A 3-D range.
    pub fn d3(x: u64, y: u64, z: u64) -> NDRange {
        NDRange {
            dims: 3,
            sizes: [x, y, z],
        }
    }

    /// Total number of work items.
    pub fn total(self) -> u64 {
        self.sizes[0]
            .saturating_mul(self.sizes[1])
            .saturating_mul(self.sizes[2])
    }
}

impl Codec for NDRange {
    fn encode(&self, out: &mut Vec<u8>) {
        self.dims.encode(out);
        self.sizes[0].encode(out);
        self.sizes[1].encode(out);
        self.sizes[2].encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let dims = u32::decode(r)?;
        if !(1..=3).contains(&dims) {
            return Err(CodecError::Invalid("NDRange dims"));
        }
        Ok(NDRange {
            dims,
            sizes: [u64::decode(r)?, u64::decode(r)?, u64::decode(r)?],
        })
    }
}

/// A `clSetKernelArg` value, exactly as the C API sees it: either an
/// opaque byte blob (`arg_size` + `arg_value`), or a local-memory size
/// (`arg_value == NULL`).
///
/// The byte blob may or may not contain a handle — the application does
/// not say. Deciding that is CheCL's kernel-signature-parsing problem
/// (§III-B).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ArgValue {
    /// `arg_value` bytes copied at call time.
    Bytes(Vec<u8>),
    /// `__local` allocation of the given size (NULL `arg_value`).
    LocalMem(u64),
}

impl ArgValue {
    /// Build an argument from a plain-old-data value.
    pub fn scalar<T: ScalarArg>(v: T) -> ArgValue {
        ArgValue::Bytes(v.to_arg_bytes())
    }

    /// Build an argument carrying a handle value, as an application
    /// would pass `&mem` to `clSetKernelArg`.
    pub fn handle(h: RawHandle) -> ArgValue {
        ArgValue::Bytes(h.0.to_le_bytes().to_vec())
    }

    /// Size in bytes as reported to the API (`arg_size`).
    pub fn size(&self) -> u64 {
        match self {
            ArgValue::Bytes(b) => b.len() as u64,
            ArgValue::LocalMem(n) => *n,
        }
    }

    /// Interpret the bytes as a handle value, if they are exactly
    /// handle-sized.
    pub fn as_handle(&self) -> Option<RawHandle> {
        match self {
            ArgValue::Bytes(b) if b.len() == 8 => {
                Some(RawHandle(u64::from_le_bytes(b[..8].try_into().unwrap())))
            }
            _ => None,
        }
    }
}

impl_codec_enum!(ArgValue, "ArgValue tag", {
    0 => Bytes(bytes),
    1 => LocalMem(size),
});

/// Plain-old-data types that can be passed by value to kernels.
pub trait ScalarArg {
    /// The argument's byte image, as `clSetKernelArg` would copy it.
    fn to_arg_bytes(&self) -> Vec<u8>;
}

macro_rules! impl_scalar_arg {
    ($($ty:ty),+) => {$(
        impl ScalarArg for $ty {
            fn to_arg_bytes(&self) -> Vec<u8> {
                self.to_le_bytes().to_vec()
            }
        }
    )+};
}

impl_scalar_arg!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

/// `clGetPlatformInfo` results.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlatformInfo {
    /// CL_PLATFORM_NAME.
    pub name: String,
    /// CL_PLATFORM_VENDOR.
    pub vendor: String,
    /// CL_PLATFORM_VERSION.
    pub version: String,
    /// CL_PLATFORM_PROFILE.
    pub profile: String,
}

impl_codec_struct!(PlatformInfo {
    name,
    vendor,
    version,
    profile
});

/// `clGetDeviceInfo` results.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DeviceInfo {
    /// CL_DEVICE_NAME.
    pub name: String,
    /// CL_DEVICE_TYPE.
    pub device_type: DeviceType,
    /// CL_DEVICE_VENDOR.
    pub vendor: String,
    /// CL_DEVICE_GLOBAL_MEM_SIZE.
    pub global_mem_size: ByteSize,
    /// CL_DEVICE_MAX_COMPUTE_UNITS.
    pub max_compute_units: u32,
    /// CL_DEVICE_MAX_WORK_GROUP_SIZE.
    pub max_work_group_size: u64,
    /// CL_DEVICE_MAX_WORK_ITEM_SIZES (x, y, z).
    pub max_work_item_sizes: NDRange,
}

impl_codec_struct!(DeviceInfo {
    name,
    device_type,
    vendor,
    global_mem_size,
    max_compute_units,
    max_work_group_size,
    max_work_item_sizes
});

/// `cl_int` execution status of an event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventStatus {
    /// CL_QUEUED.
    Queued,
    /// CL_SUBMITTED.
    Submitted,
    /// CL_RUNNING.
    Running,
    /// CL_COMPLETE.
    Complete,
}

impl_codec_enum!(EventStatus, "EventStatus tag", {
    0 => Queued,
    1 => Submitted,
    2 => Running,
    3 => Complete,
});

/// `clGetEventProfilingInfo` timestamps (virtual-clock nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProfilingInfo {
    /// CL_PROFILING_COMMAND_QUEUED.
    pub queued: u64,
    /// CL_PROFILING_COMMAND_SUBMIT.
    pub submit: u64,
    /// CL_PROFILING_COMMAND_START.
    pub start: u64,
    /// CL_PROFILING_COMMAND_END.
    pub end: u64,
}

impl_codec_struct!(ProfilingInfo {
    queued,
    submit,
    start,
    end
});

/// `cl_build_status`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BuildStatus {
    /// CL_BUILD_NONE.
    None,
    /// CL_BUILD_SUCCESS.
    Success,
    /// CL_BUILD_ERROR.
    Error,
}

impl_codec_enum!(BuildStatus, "BuildStatus tag", {
    0 => None,
    1 => Success,
    2 => Error,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_flags_set_operations() {
        let f = MemFlags::READ_ONLY | MemFlags::COPY_HOST_PTR;
        assert!(f.contains(MemFlags::READ_ONLY));
        assert!(f.contains(MemFlags::COPY_HOST_PTR));
        assert!(!f.contains(MemFlags::USE_HOST_PTR));
        assert!(f.contains(MemFlags::empty()));
    }

    #[test]
    fn ndrange_totals() {
        assert_eq!(NDRange::d1(100).total(), 100);
        assert_eq!(NDRange::d2(16, 16).total(), 256);
        assert_eq!(NDRange::d3(4, 4, 4).total(), 64);
    }

    #[test]
    fn ndrange_codec_rejects_bad_dims() {
        let mut bytes = Vec::new();
        0u32.encode(&mut bytes);
        0u64.encode(&mut bytes);
        0u64.encode(&mut bytes);
        0u64.encode(&mut bytes);
        assert!(NDRange::from_bytes(&bytes).is_err());
    }

    #[test]
    fn arg_value_handle_detection() {
        let h = RawHandle(0xdeadbeef);
        let a = ArgValue::handle(h);
        assert_eq!(a.size(), 8);
        assert_eq!(a.as_handle(), Some(h));
        // A 4-byte scalar is never mistaken for a handle.
        let s = ArgValue::scalar(1.5f32);
        assert_eq!(s.size(), 4);
        assert_eq!(s.as_handle(), None);
        // Local mem has no byte image at all.
        assert_eq!(ArgValue::LocalMem(256).as_handle(), None);
        assert_eq!(ArgValue::LocalMem(256).size(), 256);
    }

    #[test]
    fn scalar_arg_layout_is_little_endian() {
        assert_eq!(ArgValue::scalar(1u32).size(), 4);
        match ArgValue::scalar(0x01020304u32) {
            ArgValue::Bytes(b) => assert_eq!(b, vec![4, 3, 2, 1]),
            _ => panic!(),
        }
    }

    #[test]
    fn codec_roundtrips() {
        let arg = ArgValue::Bytes(vec![1, 2, 3]);
        assert_eq!(ArgValue::from_bytes(&arg.to_bytes()).unwrap(), arg);
        let local = ArgValue::LocalMem(512);
        assert_eq!(ArgValue::from_bytes(&local.to_bytes()).unwrap(), local);
        let nd = NDRange::d2(8, 8);
        assert_eq!(NDRange::from_bytes(&nd.to_bytes()).unwrap(), nd);
        let pi = PlatformInfo {
            name: "Nimbus OpenCL".into(),
            vendor: "Nimbus".into(),
            version: "OpenCL 1.0".into(),
            profile: "FULL_PROFILE".into(),
        };
        assert_eq!(PlatformInfo::from_bytes(&pi.to_bytes()).unwrap(), pi);
        for s in [
            EventStatus::Queued,
            EventStatus::Submitted,
            EventStatus::Running,
            EventStatus::Complete,
        ] {
            assert_eq!(EventStatus::from_bytes(&s.to_bytes()).unwrap(), s);
        }
        for b in [BuildStatus::None, BuildStatus::Success, BuildStatus::Error] {
            assert_eq!(BuildStatus::from_bytes(&b.to_bytes()).unwrap(), b);
        }
    }
}
