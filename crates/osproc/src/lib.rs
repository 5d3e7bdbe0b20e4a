//! `osproc` — a simulated OS and cluster substrate.
//!
//! The paper's environment is a handful of CentOS PCs: processes that
//! `fork()`, Unix signals, pipes, local disks, a RAM disk, and a shared
//! NFS mount. This crate models exactly that much of an operating
//! system, because CheCL's correctness argument is an *OS-level* one:
//!
//! * a process whose address space contains **device-mapped regions**
//!   cannot be checkpointed by a conventional CPR system (§II) — we
//!   track [`process::DeviceMapping`]s per process so `blcr` can refuse;
//! * the application process's "host memory" is a serializable
//!   [`memimage::MemImage`] — the thing BLCR dumps;
//! * checkpoint files land on simulated [`fs::Fs`] mounts whose
//!   bandwidths come straight from Table I, which is what makes the
//!   write phase dominate checkpoint time (Fig. 5);
//! * pipes ([`pipe::Pipe`]) charge latency plus a host-memory copy per
//!   message — the API-proxy forwarding overhead of Fig. 4.

pub mod cluster;
pub mod fault;
pub mod fs;
pub mod heartbeat;
pub mod ids;
pub mod memimage;
pub mod pipe;
pub mod process;

pub use cluster::{Cluster, Node};
pub use fault::{FaultKind, FaultPlan, InjectedFault, WriteFault};
pub use fs::{FileBytes, Fs, FsError, FsKind, FsStats};
pub use heartbeat::{BeatSource, DetectorPolicy, HeartbeatMonitor};
pub use ids::{FsId, NodeId, Pid};
pub use memimage::MemImage;
pub use pipe::Pipe;
pub use process::{DeviceMapping, ProcState, Process, Signal};
