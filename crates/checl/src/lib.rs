//! `checl` — transparent checkpoint/restart and process migration for
//! OpenCL applications (the paper's contribution).
//!
//! CheCL interposes on `libOpenCL.so` so that an *unmodified*
//! application becomes checkpointable:
//!
//! * **API proxy** ([`boot`], [`runtime`]) — the application process
//!   never loads the vendor driver. A forked proxy process does, and
//!   every API call is forwarded to it over a pipe. The application's
//!   address space stays free of device mappings, so a conventional
//!   CPR system (our `blcr`) can dump it.
//! * **CheCL objects** ([`objects`]) — the application only ever sees
//!   *CheCL handles*. Each wraps the current vendor handle plus
//!   everything needed to re-create the object: creation arguments,
//!   program sources and build options, kernel argument history, buffer
//!   contents captured at checkpoint time.
//! * **Checkpoint/restart engine** ([`engine`], report types and the
//!   object replay in [`cpr`]) — synchronize, copy device data to host
//!   memory, dump via BLCR, restore objects in dependency order,
//!   substitute dummy events from `clEnqueueMarker`. One entry point
//!   each: [`snapshot`] takes every variation (pipelining,
//!   content-addressed dedup, live copy-on-write cuts, commit
//!   hardening) as a [`CprPolicy`] field, and [`restore`] reads a dump
//!   of any format.
//! * **Migration** ([`migrate`]) — restart on another node, another
//!   vendor, or another device type (GPU↔CPU), plus the
//!   `Tm = αM + Tr + β` cost model of §IV-C.
//!
//! The [`guess`] module implements the deprecated-binary fallback: when
//! kernel source is unavailable, CheCL guesses whether a
//! `clSetKernelArg` blob is a handle by matching its value against live
//! CheCL handles — including the paper's documented false-positive
//! hazard.
//!
//! The architecture, as in the paper's Fig. 1:
//!
//! ```text
//!   application process (checkpointable)    │   API proxy process
//!  ┌────────────────────────────────────┐   │  ┌───────────────────────┐
//!  │ unmodified OpenCL host code        │   │  │ vendor libOpenCL.so   │
//!  │   holds CheCL handles only         │   │  │ + GPU driver          │
//!  │          │                         │   │  │ (device regions are   │
//!  │          ▼                         │   │  │  mapped HERE, not in  │
//!  │ CheCL shim (this crate)            │   │  │  the application)     │
//!  │  · record into object database ────┼── dumped by BLCR ──► ckpt   │
//!  │  · translate CheCL→vendor handles  │   │  │                       │
//!  │  · forward over the pipe ──────────┼──►│ invoke real API call    │
//!  └────────────────────────────────────┘   │  └───────────────────────┘
//! ```

pub mod boot;
pub mod cpr;
pub mod engine;
pub mod guess;
pub mod migrate;
pub mod objects;
pub mod obs;
pub mod recovery;
pub mod runtime;
pub mod supervisor;

pub use boot::{boot_checl, BootedChecl};
pub use cpr::{
    restore_checl, CheckpointMode, CheckpointReport, CheclCprError, DedupStats, RestoreReport,
    RestoreTarget,
};
pub use engine::{
    abort_live_drain, complete_live_drain, restore, snapshot, CprPolicy, LiveDrainOutcome,
    RecoveryPolicy, SnapshotOutcome,
};
pub use migrate::{migrate_process, predict_migration_time, MigrationModel, MigrationReport};
pub use objects::{CheclDb, CheclEntry, ObjectRecord, RecordedArg};
pub use recovery::{respawn_proxy_and_restore, restart_checl_chain};
pub use runtime::{ChecLib, CheclConfig, CheclStats, StructArgPolicy};
pub use supervisor::{
    IntervalController, IntervalPolicy, Supervisor, SupervisorConfig, SupervisorError,
    SupervisorReport,
};
