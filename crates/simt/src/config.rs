//! GPU configuration: a Titan X (Pascal)-like part, matching the paper's
//! GPGPU-Sim setup (28 SMs, up to 32 thread blocks per SM, GTO warp
//! scheduling, 5 µs kernel launch overhead).
//!
//! The simulated core clock is 1 GHz so one cycle is one nanosecond; all
//! latencies below are in cycles.

/// Re-export of the launch-time analysis pipeline configuration so
/// simulator users configure the GPU and the toolchain from one place.
pub use bm_ptx::par::ParallelConfig;

/// Configuration of the simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Maximum resident thread blocks per SM.
    pub max_tbs_per_sm: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// SIMT width.
    pub warp_size: u32,
    /// Warp instructions issued per cycle per SM (number of schedulers).
    pub issue_width: u32,
    /// Global-memory round-trip latency in cycles.
    pub mem_latency: u64,
    /// Cycles between consecutive 128 B transactions per SM
    /// (the DRAM-bandwidth share of one SM).
    pub mem_cycles_per_txn: u64,
    /// Total kernel launch overhead in cycles (5 µs, ref.\[27\] of the paper).
    pub kernel_launch_cycles: u64,
    /// Host-side API-call share of the launch overhead in cycles (2 µs,
    /// ref.\[27\]); the CDP comparison removes exactly this part.
    pub launch_api_cycles: u64,
    /// Host-side cost of a `cudaMalloc` in cycles.
    pub malloc_cycles: u64,
    /// Host↔device copy throughput in bytes per cycle (~12 GB/s PCIe 3).
    pub memcpy_bytes_per_cycle: u64,
    /// Fixed memcpy setup cost in cycles.
    pub memcpy_setup_cycles: u64,
    /// Scheduler-buffer spill transactions (parent-counter writebacks plus
    /// dependency-list fetches) tolerated before admission backpressure
    /// shrinks the pre-launch window by one kernel per further crossing.
    pub spill_pressure_threshold: u64,
    /// Backpressure never shrinks the pre-launch window below this.
    pub pressure_min_window: u32,
}

impl GpuConfig {
    /// The paper's evaluation configuration (§IV-A).
    pub fn titan_x_pascal() -> Self {
        GpuConfig {
            num_sms: 28,
            max_tbs_per_sm: 32,
            max_threads_per_sm: 2048,
            max_warps_per_sm: 64,
            shared_mem_per_sm: 96 * 1024,
            warp_size: 32,
            issue_width: 4,
            mem_latency: 400,
            mem_cycles_per_txn: 8,
            kernel_launch_cycles: 5_000,
            launch_api_cycles: 2_000,
            malloc_cycles: 1_000,
            memcpy_bytes_per_cycle: 64,
            memcpy_setup_cycles: 2_000,
            // One full buffer generation of spills (§IV-C sizing) before the
            // scheduler concludes the window is oversubscribed.
            spill_pressure_threshold: 896,
            pressure_min_window: 1,
        }
    }

    /// A small 4-SM part for fast unit tests.
    pub fn small() -> Self {
        GpuConfig {
            num_sms: 4,
            max_tbs_per_sm: 4,
            max_threads_per_sm: 512,
            max_warps_per_sm: 16,
            shared_mem_per_sm: 48 * 1024,
            ..GpuConfig::titan_x_pascal()
        }
    }

    /// Resident thread blocks per SM for a kernel with `block_threads`
    /// threads and `shared_bytes` of shared memory per block
    /// (the occupancy calculation).
    pub fn occupancy(&self, block_threads: u32, shared_bytes: u32) -> u32 {
        if block_threads == 0 {
            return 0;
        }
        let warps = block_threads.div_ceil(self.warp_size);
        let by_tbs = self.max_tbs_per_sm;
        let by_threads = self.max_threads_per_sm / block_threads.max(1);
        let by_warps = self.max_warps_per_sm / warps.max(1);
        let by_shared = self
            .shared_mem_per_sm
            .checked_div(shared_bytes)
            .unwrap_or(u32::MAX);
        by_tbs.min(by_threads).min(by_warps).min(by_shared)
    }

    /// Total simultaneously-resident thread blocks across the GPU.
    pub fn total_tb_slots(&self, block_threads: u32, shared_bytes: u32) -> u32 {
        self.occupancy(block_threads, shared_bytes) * self.num_sms
    }

    /// Converts cycles to microseconds at the simulated 1 GHz clock.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 / 1_000.0
    }

    /// Device-side remainder of the launch overhead (total minus host API).
    pub fn device_launch_cycles(&self) -> u64 {
        self.kernel_launch_cycles
            .saturating_sub(self.launch_api_cycles)
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::titan_x_pascal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_matches_paper_headlines() {
        let c = GpuConfig::titan_x_pascal();
        assert_eq!(c.num_sms, 28);
        assert_eq!(c.max_tbs_per_sm, 32);
        // 28 SMs x 32 TBs = 896 concurrent TBs — the paper's buffer sizing.
        assert_eq!(c.total_tb_slots(32, 0).min(896), 896);
        assert_eq!(c.kernel_launch_cycles, 5_000); // 5 µs at 1 GHz
        assert_eq!(c.cycles_to_us(5_000), 5.0);
    }

    #[test]
    fn occupancy_limits() {
        let c = GpuConfig::titan_x_pascal();
        // 64-thread blocks: limited by the 32-TB cap, not threads.
        assert_eq!(c.occupancy(64, 0), 32);
        // 1024-thread blocks: limited by 2048 threads -> 2 blocks.
        assert_eq!(c.occupancy(1024, 0), 2);
        // 256-thread blocks: 2048/256 = 8.
        assert_eq!(c.occupancy(256, 0), 8);
        // Shared memory can be the binding constraint.
        assert_eq!(c.occupancy(64, 48 * 1024), 2);
        assert_eq!(c.occupancy(0, 0), 0);
    }

    #[test]
    fn device_launch_is_total_minus_api() {
        let c = GpuConfig::titan_x_pascal();
        assert_eq!(c.device_launch_cycles(), 3_000);
    }
}
