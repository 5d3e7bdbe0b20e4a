//! Vendor platform configurations.

use crate::device::{core_i7_920, radeon_hd5870, tesla_c1060, DeviceProfile};
use clspec::types::PlatformInfo;
use simcore::SimDuration;

/// Which vendor implementation this is. Program binaries are tagged by
/// vendor and are not portable across them — the reason CheCL deprecates
/// `clCreateProgramWithBinary` (§IV-D).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum VendorKind {
    /// NVIDIA-like.
    Nimbus,
    /// AMD-like.
    Crimson,
}

/// Format version of a program binary's frame (behind the vendor's
/// [`binary_magic`](VendorKind::binary_magic)). Version 3 is sealed
/// with [`simcore::xxh64`]; a binary of any other version is
/// `InvalidBinary`.
pub const BINARY_VERSION: u32 = 3;

impl VendorKind {
    /// Stable numeric id embedded in handles and binaries.
    pub fn id(self) -> u8 {
        match self {
            VendorKind::Nimbus => 1,
            VendorKind::Crimson => 2,
        }
    }

    /// Four-byte magic for program binaries.
    pub fn binary_magic(self) -> [u8; 4] {
        match self {
            VendorKind::Nimbus => *b"NCLB",
            VendorKind::Crimson => *b"CCLB",
        }
    }
}

/// Program-compiler cost model. The paper observes that "in AMD OpenCL,
/// the recompile time is often longer than NVIDIA OpenCL" (Fig. 7), so
/// the two vendors get different constants.
#[derive(Clone, Copy, Debug)]
pub struct CompileModel {
    /// Fixed per-`clBuildProgram` cost.
    pub base: SimDuration,
    /// Additional cost per byte of source text.
    pub per_source_byte: SimDuration,
    /// Additional cost per kernel in the translation unit.
    pub per_kernel: SimDuration,
}

impl CompileModel {
    /// Total compile time for a source of `source_len` bytes containing
    /// `kernels` kernel functions.
    pub fn compile_time(&self, source_len: usize, kernels: usize) -> SimDuration {
        self.base + self.per_source_byte * source_len as u64 + self.per_kernel * kernels as u64
    }
}

/// Everything that distinguishes one vendor's OpenCL from another's.
#[derive(Clone, Debug)]
pub struct VendorConfig {
    /// Vendor identity.
    pub kind: VendorKind,
    /// `clGetPlatformInfo` strings.
    pub platform: PlatformInfo,
    /// Devices this platform exposes, in `clGetDeviceIDs` order.
    pub devices: Vec<DeviceProfile>,
    /// Compiler cost model.
    pub compile: CompileModel,
    /// Device file whose pages the driver maps into the hosting
    /// process (e.g. `/dev/nimbus0`) — the CPR poison.
    pub device_file: String,
    /// Cost of `clGetPlatformIDs`-time platform initialisation.
    pub init_cost: SimDuration,
}

/// The NVIDIA-like platform: Tesla C1060 only, fast compiler.
pub fn nimbus() -> VendorConfig {
    VendorConfig {
        kind: VendorKind::Nimbus,
        platform: PlatformInfo {
            name: "Nimbus OpenCL".into(),
            vendor: "Nimbus Corporation".into(),
            version: "OpenCL 1.0 Nimbus 256.40".into(),
            profile: "FULL_PROFILE".into(),
        },
        devices: vec![tesla_c1060()],
        compile: CompileModel {
            base: SimDuration::from_millis(18),
            per_source_byte: SimDuration::from_nanos(12_000),
            per_kernel: SimDuration::from_millis(4),
        },
        device_file: "/dev/nimbus0".into(),
        init_cost: SimDuration::from_millis(35),
    }
}

/// The AMD-like platform: Radeon HD5870 GPU plus the host CPU as an
/// OpenCL device, slower compiler.
pub fn crimson() -> VendorConfig {
    VendorConfig {
        kind: VendorKind::Crimson,
        platform: PlatformInfo {
            name: "Crimson OpenCL".into(),
            vendor: "Crimson Micro Devices".into(),
            version: "OpenCL 1.0 Crimson 10.7".into(),
            profile: "FULL_PROFILE".into(),
        },
        devices: vec![radeon_hd5870(), core_i7_920()],
        compile: CompileModel {
            base: SimDuration::from_millis(55),
            per_source_byte: SimDuration::from_nanos(40_000),
            per_kernel: SimDuration::from_millis(14),
        },
        device_file: "/dev/crimson0".into(),
        init_cost: SimDuration::from_millis(30),
    }
}

/// A degraded host: the OpenCL runtime is installed but enumerates no
/// platform (no device, no driver module loaded — the §IV restart-
/// anywhere scenario gone wrong). `clGetPlatformIDs` returns an empty
/// list, which is what a restore must survive without panicking.
pub fn headless() -> VendorConfig {
    VendorConfig {
        kind: VendorKind::Nimbus,
        platform: PlatformInfo {
            name: "Headless OpenCL".into(),
            vendor: "Nimbus Corporation".into(),
            version: "OpenCL 1.0 Nimbus 256.40".into(),
            profile: "FULL_PROFILE".into(),
        },
        devices: vec![],
        compile: CompileModel {
            base: SimDuration::from_millis(18),
            per_source_byte: SimDuration::from_nanos(12_000),
            per_kernel: SimDuration::from_millis(4),
        },
        device_file: "/dev/null".into(),
        init_cost: SimDuration::from_millis(5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clspec::types::DeviceType;

    #[test]
    fn crimson_compiles_slower_than_nimbus() {
        let n = nimbus().compile.compile_time(1000, 2);
        let c = crimson().compile.compile_time(1000, 2);
        assert!(c > n * 2, "crimson {c} vs nimbus {n}");
    }

    #[test]
    fn nimbus_is_gpu_only() {
        let cfg = nimbus();
        assert_eq!(cfg.devices.len(), 1);
        assert_eq!(cfg.devices[0].device_type, DeviceType::Gpu);
    }

    #[test]
    fn crimson_exposes_cpu_and_gpu() {
        let cfg = crimson();
        let types: Vec<DeviceType> = cfg.devices.iter().map(|d| d.device_type).collect();
        assert!(types.contains(&DeviceType::Gpu));
        assert!(types.contains(&DeviceType::Cpu));
    }

    #[test]
    fn vendor_ids_and_magics_distinct() {
        assert_ne!(VendorKind::Nimbus.id(), VendorKind::Crimson.id());
        assert_ne!(
            VendorKind::Nimbus.binary_magic(),
            VendorKind::Crimson.binary_magic()
        );
    }

    #[test]
    fn compile_time_scales_with_source() {
        let m = nimbus().compile;
        assert!(m.compile_time(10_000, 1) > m.compile_time(100, 1));
        assert!(m.compile_time(100, 5) > m.compile_time(100, 1));
    }
}
