//! `cldriver` — simulated vendor OpenCL implementations.
//!
//! Two vendors, mirroring the paper's testbed:
//!
//! * **Nimbus OpenCL** (NVIDIA-like): one GPU device modelled on the
//!   Tesla C1060 (4 GB GDDR3). GPU-only, fast program compiler.
//! * **Crimson OpenCL** (AMD-like): a GPU modelled on the Radeon HD5870
//!   (1 GB GDDR5) *and* a CPU device modelled on the Core i7 920 —
//!   "AMD's OpenCL implementation supports use of CPUs as well as GPUs"
//!   (§IV-C). Its compiler is markedly slower, which is why program
//!   recreation dominates Crimson restart times in Fig. 7.
//!
//! A [`Driver`] executes [`clspec::ApiRequest`]s directly: it owns the
//! object tables (contexts, queues, buffers, programs, kernels, events,
//! samplers), schedules commands on per-device virtual timelines, runs
//! kernels through the `clkernels` engine, and allocates *vendor
//! handles whose values change every time an object is re-created* —
//! the property that forces CheCL to interpose its own handles.
//!
//! Loading a driver maps device regions into the hosting process
//! (`Driver::device_files`), which is what breaks conventional CPR.

pub mod device;
pub mod driver;
pub mod vendor;

pub use device::DeviceProfile;
pub use driver::{Driver, DriverStats};
pub use vendor::{VendorConfig, VendorKind, BINARY_VERSION};
