//! Per-kernel cost specifications.
//!
//! A launch's duration is derived from the kernel's arithmetic
//! intensity and the device's capability profile (the roofline model):
//! `time = max(flops/device_flops, bytes/device_bw) + launch_overhead`.
//! Devices live in `cldriver`; each kernel's per-work-item demands sit
//! in its row of the engine's kernel table, next to its body.
//!
//! Calibration note: the per-item numbers model the *paper-scale*
//! problem sizes and achieved (not peak) device efficiency, so that
//! each benchmark's virtual execution time lands in the
//! hundreds-of-milliseconds-to-seconds range of the original
//! evaluation even though the engine computes on proportionally
//! smaller buffers. Only the per-item constants carry this scaling;
//! the roofline structure (compute-bound vs memory-bound) is
//! preserved per kernel.

/// Work performed by one work item of a kernel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostSpec {
    /// Floating-point operations per work item.
    pub flops_per_item: f64,
    /// Global-memory bytes touched per work item.
    pub bytes_per_item: f64,
}

impl CostSpec {
    /// A work item that does `flops` (scaled by [`PAPER_FLOP_SCALE`])
    /// and touches `bytes`.
    pub(crate) fn scaled(flops: f64, bytes: f64) -> Self {
        CostSpec {
            flops_per_item: flops * PAPER_FLOP_SCALE,
            bytes_per_item: bytes,
        }
    }

    /// Total flops for a launch of `items` work items.
    pub fn total_flops(&self, items: u64) -> f64 {
        self.flops_per_item * items as f64
    }

    /// Total bytes for a launch of `items` work items.
    pub fn total_bytes(&self, items: u64) -> f64 {
        self.bytes_per_item * items as f64
    }
}

/// Uniform factor applied to per-item flops so kernel phases dominate
/// the fixed CheCL costs the way the paper's full-size runs do.
const PAPER_FLOP_SCALE: f64 = 2.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn cost_of(name: &str) -> CostSpec {
        crate::engine::lookup(name).unwrap().cost
    }

    #[test]
    fn totals_scale_linearly() {
        let s = cost_of("vec_add");
        assert_eq!(s.total_flops(1000), 2_500_000.0 * PAPER_FLOP_SCALE);
        assert_eq!(s.total_bytes(1000), 192_000.0);
    }

    #[test]
    fn max_flops_is_compute_bound() {
        let s = cost_of("max_flops");
        assert!(s.flops_per_item / s.bytes_per_item > 100.0);
    }

    #[test]
    fn copy_is_memory_bound() {
        let s = cost_of("copy_buf");
        assert_eq!(s.flops_per_item, 0.0);
        assert!(s.bytes_per_item > 0.0);
    }

    #[test]
    fn s3d_rates_share_spec() {
        assert_eq!(cost_of("rate_0"), cost_of("rate_26"));
    }

    #[test]
    fn paper_scale_calibration_sane() {
        // A 256x256 matmul launch (65536 items) should land in the
        // tens-of-ms range on a ~1 Tflop/s device: kernels dwarf the
        // 80 ms CheCL init in aggregate, as in the paper's programs.
        let s = cost_of("matmul");
        let secs = s.total_flops(16384) / 933e9;
        assert!((0.01..0.2).contains(&secs), "matmul launch {secs}s");
    }
}
