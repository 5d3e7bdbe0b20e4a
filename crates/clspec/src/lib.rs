//! `clspec` — a faithful Rust model of the OpenCL 1.0 API surface.
//!
//! This crate defines *what `libOpenCL.so` looks like* to an application:
//! opaque handles, error codes, flags, and — centrally — the
//! [`api::ClApi`] trait with its [`api::ApiRequest`] /
//! [`api::ApiResponse`] message pair.
//!
//! Real OpenCL is a C dispatch table; CheCL's key move is that every
//! entry of that table can be *forwarded as a message* to an API proxy
//! process. We therefore model the API as an explicit request enum: the
//! native vendor driver interprets requests directly, while CheCL's
//! interposed implementation rewrites handles inside requests, records
//! restore information, and forwards them over an IPC pipe — exactly the
//! paper's architecture (§III-A).
//!
//! The [`ocl`] module layers typed convenience calls (`create_buffer`,
//! `enqueue_nd_range`, …) on top so applications read like ordinary
//! OpenCL host code and are *oblivious* to which implementation is bound
//! — the transparency property the paper demonstrates.

pub mod api;
pub mod error;
pub mod handles;
pub mod ocl;
pub mod sig;
pub mod types;

pub use api::{ApiRequest, ApiResponse, ClApi, RefOp};
pub use error::{ClError, ClResult};
pub use handles::{
    CommandQueue, Context, DeviceId, Event, HandleKind, Kernel, Mem, PlatformId, Program,
    RawHandle, Sampler,
};
pub use ocl::Ocl;
pub use types::{
    ArgValue, BuildStatus, DeviceInfo, DeviceType, EventStatus, MemFlags, NDRange, PlatformInfo,
    ProfilingInfo, QueueProps, SamplerDesc,
};
