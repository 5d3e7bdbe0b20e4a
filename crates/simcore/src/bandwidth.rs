//! Latency + bandwidth link models.
//!
//! Every data path in the simulation — PCIe, IPC pipes, disks, NFS, the
//! cluster interconnect — is modelled as a [`LinkModel`]: a fixed
//! per-operation latency plus a byte-rate term. This is the classic
//! LogP-style α+βn model and is sufficient to reproduce all shapes in
//! the paper's evaluation (e.g. checkpoint time ∝ file size).

use crate::bytesize::ByteSize;
use crate::time::SimDuration;
use std::fmt;

/// A transfer rate in bytes per second.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Construct from bytes per second.
    pub fn bytes_per_sec(bps: f64) -> Self {
        assert!(bps.is_finite() && bps > 0.0, "bandwidth must be positive");
        Bandwidth(bps)
    }

    /// Construct from decimal megabytes per second (the unit Table I of
    /// the paper uses for disk and NFS bandwidths).
    pub fn mb_per_sec(mb: f64) -> Self {
        Bandwidth::bytes_per_sec(mb * 1e6)
    }

    /// Construct from decimal gigabytes per second (the unit Table I
    /// uses for PCIe bandwidths).
    pub fn gb_per_sec(gb: f64) -> Self {
        Bandwidth::bytes_per_sec(gb * 1e9)
    }

    /// The rate in bytes per second.
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Time to move `size` bytes at this rate (no latency term).
    pub fn transfer_time(self, size: ByteSize) -> SimDuration {
        SimDuration::from_secs_f64(size.as_u64() as f64 / self.0)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2}GB/s", self.0 / 1e9)
        } else {
            write!(f, "{:.1}MB/s", self.0 / 1e6)
        }
    }
}

/// A data path: per-operation latency plus bandwidth.
///
/// `cost(n) = latency + n / bandwidth`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// Fixed per-operation latency (seek time, syscall, RPC round trip…).
    pub latency: SimDuration,
    /// Sustained byte rate.
    pub bandwidth: Bandwidth,
}

impl LinkModel {
    /// Build a link model.
    pub fn new(latency: SimDuration, bandwidth: Bandwidth) -> Self {
        LinkModel { latency, bandwidth }
    }

    /// Cost of one operation moving `size` bytes.
    pub fn cost(&self, size: ByteSize) -> SimDuration {
        self.latency + self.bandwidth.transfer_time(size)
    }

    /// Cost of an operation that moves no payload (latency only).
    pub fn cost_empty(&self) -> SimDuration {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_linear() {
        let bw = Bandwidth::mb_per_sec(100.0); // 100 MB/s = 1e8 B/s
        let t = bw.transfer_time(ByteSize::bytes(100_000_000));
        assert_eq!(t, SimDuration::from_secs(1));
        let t2 = bw.transfer_time(ByteSize::bytes(200_000_000));
        assert_eq!(t2, SimDuration::from_secs(2));
    }

    #[test]
    fn link_cost_adds_latency() {
        let link = LinkModel::new(SimDuration::from_micros(10), Bandwidth::bytes_per_sec(1e9));
        let c = link.cost(ByteSize::bytes(1_000_000));
        // 10us latency + 1ms transfer
        assert_eq!(c, SimDuration::from_micros(1010));
        assert_eq!(link.cost_empty(), SimDuration::from_micros(10));
    }

    #[test]
    fn zero_size_costs_latency_only() {
        let link = LinkModel::new(SimDuration::from_micros(3), Bandwidth::gb_per_sec(5.0));
        assert_eq!(link.cost(ByteSize::ZERO), SimDuration::from_micros(3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = Bandwidth::bytes_per_sec(0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Bandwidth::gb_per_sec(5.35).to_string(), "5.35GB/s");
        assert_eq!(Bandwidth::mb_per_sec(72.5).to_string(), "72.5MB/s");
    }
}
