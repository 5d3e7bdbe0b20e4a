//! `clkernels` — kernel corpus, execution engine, and cost model.
//!
//! The paper evaluates CheCL on 34 benchmark programs from the NVIDIA
//! GPU Computing SDK 3.0, SHOC 0.9.1 and Parboil. Those programs'
//! device kernels live here in three coordinated forms:
//!
//! 1. **Source text** ([`corpus`]) — OpenCL C `__kernel` declarations
//!    with address-space qualifiers. These are what applications pass to
//!    `clCreateProgramWithSource`, what vendor compilers "compile", and
//!    what CheCL's signature parser reads to learn which kernel
//!    arguments are handles (§III-B).
//! 2. **Executable semantics** ([`engine`]) — deterministic Rust
//!    implementations operating on raw buffer bytes. Checkpoint /
//!    restart / migration correctness is validated against these real
//!    results, bit for bit.
//! 3. **Cost specs** ([`cost`]) — flops/bytes per work item, which the
//!    vendor drivers combine with device capability profiles to place
//!    kernel executions on the virtual timeline.

pub mod args;
pub mod corpus;
pub mod cost;
pub mod engine;
pub mod f32util;

pub use args::{ArgData, ExecError};
pub use corpus::{program_source, ProgramSource};
pub use cost::CostSpec;
pub use engine::{execute, lookup, KernelEntry};
