//! `workloads` — the paper's benchmark programs as checkpointable
//! applications.
//!
//! §IV evaluates CheCL on 19 NVIDIA GPU Computing SDK 3.0 samples, the
//! SHOC 0.9.1 suite, and three Parboil ports (cp, mri-fhd, mri-q).
//! Each of those programs lives here as a [`script::Script`]: a
//! serializable list of OpenCL host operations plus a register file for
//! the handles it holds. Serializability is the point — the script,
//! its program counter and its registers *are* the application's host
//! memory, so a BLCR dump captures the application mid-run and a
//! restart resumes it, oblivious to whether the handles in its
//! registers are native or CheCL handles.
//!
//! * [`script`] — the op/script model and its interpreter.
//! * [`catalog`] — one entry per benchmark, sized per device memory
//!   (the paper notes oclFDTD3d/oclMatVecMul size themselves from the
//!   device, which is why their checkpoint files shrink on the 1 GB
//!   Radeon).
//! * [`session`] — glue: run a workload natively or under CheCL,
//!   checkpoint it mid-flight, restart it, and verify checksums.

pub mod catalog;
pub mod script;
pub mod session;
pub mod supervise;

pub use catalog::{all_workloads, workload_by_name, Suite, Workload, WorkloadCfg};
pub use script::{
    readback_checksum, AppProgram, BufInit, Op, Reg, RunStatus, Script, StopCondition,
};
pub use session::{
    CheclSession, NativeSession, PolicyRunOutcome, RecoveryRunReport, YieldPoint, APP_SEGMENT,
};
pub use supervise::{run_supervised, SuperviseSetup};
