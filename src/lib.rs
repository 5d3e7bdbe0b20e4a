//! # CheCL — transparent checkpointing and process migration of OpenCL
//! # applications (IPDPS 2011), reproduced in Rust
//!
//! This is the umbrella crate of the reproduction workspace. It
//! re-exports every layer so examples, integration tests and downstream
//! users can depend on one crate:
//!
//! | crate | role |
//! |-------|------|
//! | [`simcore`] | virtual clock, bandwidth models, Table I calibration, checkpoint codec |
//! | [`osproc`] | simulated OS/cluster: processes, filesystems, pipes, signals |
//! | [`clspec`] | the OpenCL API surface: handles, errors, requests, signature parser |
//! | [`cldriver`] | vendor drivers (Nimbus ≈ NVIDIA, Crimson ≈ AMD) |
//! | [`clkernels`] | kernel corpus + deterministic execution engine + cost model |
//! | [`blcr`] | BLCR-like conventional CPR (refuses device-mapped processes) |
//! | [`checl`] | **the paper's contribution**: API proxy, CheCL objects, CPR engine, migration |
//! | [`mpisim`] | MPI ranks and coordinated global snapshots |
//! | [`workloads`] | the 39-benchmark evaluation suite as checkpointable scripts |
//!
//! ## Quick start
//!
//! ```
//! use checl::{CheclConfig, CprPolicy, RestoreTarget};
//! use osproc::Cluster;
//! use workloads::{workload_by_name, CheclSession, StopCondition, WorkloadCfg};
//!
//! let mut cluster = Cluster::with_standard_nodes(2);
//! let nodes = cluster.node_ids();
//! let cfg = WorkloadCfg { scale: 1.0 / 64.0, ..Default::default() };
//! let w = workload_by_name("oclVectorAdd").unwrap();
//!
//! // Run an unmodified OpenCL program under CheCL, checkpoint it with
//! // a kernel in flight, kill it, and resume it on another node.
//! let mut job = CheclSession::launch(
//!     &mut cluster, nodes[0], cldriver::vendor::nimbus(),
//!     CheclConfig::default(), w.script(&cfg));
//! job.run(&mut cluster, StopCondition::AfterKernel(1)).unwrap();
//! job.checkpoint_with_policy(&mut cluster, "/nfs/job.ckpt", &CprPolicy::sequential())
//!     .unwrap();
//! job.kill(&mut cluster);
//!
//! let mut job = CheclSession::restart(
//!     &mut cluster, nodes[1], "/nfs/job.ckpt",
//!     cldriver::vendor::nimbus(), RestoreTarget::default()).unwrap();
//! job.run(&mut cluster, StopCondition::Completion).unwrap();
//! assert!(!job.program.checksums.is_empty());
//! ```

pub use blcr;
pub use checl;
pub use cldriver;
pub use clkernels;
pub use clspec;
pub use mpisim;
pub use osproc;
pub use simcore;
pub use workloads;
