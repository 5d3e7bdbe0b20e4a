//! `blcr` — a Berkeley Lab Checkpoint/Restart-like CPR substrate.
//!
//! Dumps a process's host memory image to a checkpoint file and
//! restores a process from one. Like the real BLCR (and every
//! conventional CPR system), it knows nothing about GPUs:
//!
//! * if the target process's address space contains **device-mapped
//!   regions**, the dump is refused ([`CprError::DeviceMapped`]) — this
//!   is why an OpenCL process cannot be checkpointed directly (§II) and
//!   why CheCL moves all OpenCL state into a separate API proxy;
//! * restored handle *values* come back, but the objects behind them do
//!   not — object restoration is entirely CheCL's job.
//!
//! A DMTCP-mode entry point ([`dmtcp_checkpoint`]) checkpoints the full
//! process tree, reproducing the §V observation that DMTCP fails on a
//! CheCL application *unless the API proxy is killed first*.

pub mod chunkstore;
pub mod ckptfile;
pub mod cpr;
pub mod replica;
pub mod robust;
pub mod sniff;
pub mod stream;

pub use chunkstore::{cdc_chunks, ChunkMeta, ChunkStore, PutOutcome};
pub use ckptfile::{CheckpointFile, CKPT_MAGIC, CKPT_VERSION};
pub use cpr::{checkpoint, dmtcp_checkpoint, finish_restart, restart, CprError};
pub use replica::{CommitError, DumpVault, Generation, ScrubReport};
pub use robust::{drive_recovery, recovery_event, RecoveryAttempt, RecoveryOutcome, RetryPolicy};
pub use sniff::{sniff_dump, SniffedDump};
pub use stream::{
    is_stream_file, parse_stream, ParsedStream, StreamChunk, StreamChunkMap, StreamError,
    StreamHeader, StreamSlice, StreamTrailer, StreamWriter, STREAM_MAGIC, STREAM_VERSION,
};
