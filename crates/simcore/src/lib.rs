//! `simcore` — foundation types for the CheCL reproduction.
//!
//! Everything in the simulation stack is built on four small pieces:
//!
//! * [`time`] — a discrete-event *virtual clock* ([`SimTime`] /
//!   [`SimDuration`]). All reported experiment timings are virtual-time
//!   measurements driven by calibrated cost models, which makes every
//!   figure in the paper reproducible bit-for-bit.
//! * [`bandwidth`] — latency + bandwidth link models used for PCIe
//!   transfers, IPC pipes, disks and NICs.
//! * [`calib`] — the Table I constants of the paper (PCIe, disk, NFS and
//!   RAM-disk bandwidths, device memory sizes, compiler speeds).
//! * [`codec`] — the checkpoint image byte format: a compact, framed,
//!   checksummed binary codec. This *is* the artifact's checkpoint file
//!   format, not an incidental dependency.
//!
//! Helpers for deterministic pseudo-randomness ([`rng`]), content
//! checksums ([`checksum`]), copy-on-write bulk bytes ([`payload`]),
//! virtual-clock tracing ([`telemetry`]) and an offline property-test
//! harness ([`qcheck`]) round out the crate.

pub mod bandwidth;
pub mod bytesize;
pub mod calib;
pub mod channels;
pub mod checksum;
pub mod codec;
pub mod des;
pub mod obs;
pub mod payload;
pub mod qcheck;
pub mod rng;
pub mod telemetry;
pub mod time;

pub use bandwidth::{Bandwidth, LinkModel};
pub use bytesize::ByteSize;
pub use checksum::{fnv1a64, xxh64, Fnv64};
pub use codec::{Codec, CodecError, Reader};
pub use payload::Payload;
pub use rng::SplitMix64;
pub use time::{SimDuration, SimTime};
