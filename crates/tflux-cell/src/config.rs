//! Cell/BE machine parameters.

use tflux_core::tsu::TsuConfig;

/// Configuration of the simulated Cell/BE.
///
/// All latencies are in 3.2 GHz SPE cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellConfig {
    /// Usable SPEs (the PS3 exposes 6 of 8: one disabled for yield, one
    /// reserved for the hypervisor, §6.3).
    pub spes: u32,
    /// Local Store bytes per SPE.
    pub ls_bytes: u64,
    /// Fixed cost of issuing one DMA transfer (list setup + tag wait).
    pub dma_setup: u64,
    /// DMA bandwidth: bytes moved per cycle once started.
    pub dma_bytes_per_cycle: u64,
    /// Latency of a mailbox message (PPE → SPE notification).
    pub mailbox_lat: u64,
    /// Latency for a kernel's command to land in its CommandBuffer in main
    /// memory (small DMA put).
    pub cmd_lat: u64,
    /// PPE cycles to process one TSU command (emulator software).
    pub ppe_op: u64,
    /// PPE cycles to scan one CommandBuffer during the round-robin poll
    /// loop (charged per command as the average scan cost).
    pub poll_scan: u64,
    /// Overlap each DThread's import DMA with the *previous* DThread's
    /// compute (double-buffering in the Local Store — the standard Cell
    /// optimization the paper's implementation leaves as future work).
    /// Requires spare LS for the second buffer, which the machine checks.
    pub double_buffer: bool,
    /// SPE compute throughput scale: numerator/denominator applied to a
    /// work model's generic compute cycles (SIMD-friendly kernels run
    /// faster per element on an SPE; scalar-heavy code slower).
    pub compute_scale_num: u64,
    /// See [`CellConfig::compute_scale_num`].
    pub compute_scale_den: u64,
    /// Configuration handed to the PPE-side TSU emulator (capacity,
    /// scheduling policy, completion-funnel flush policy).
    pub tsu: TsuConfig,
}

impl CellConfig {
    /// The paper's PS3 (§6.3): 6 usable SPEs, 256 KB Local Stores,
    /// emulator-on-PPE cost model.
    pub fn ps3() -> Self {
        CellConfig {
            spes: 6,
            ls_bytes: 256 * 1024,
            dma_setup: 300,
            dma_bytes_per_cycle: 8, // ~25.6 GB/s at 3.2 GHz
            mailbox_lat: 200,
            cmd_lat: 250,
            ppe_op: 600,
            poll_scan: 120,
            double_buffer: false,
            compute_scale_num: 1,
            compute_scale_den: 1,
            tsu: TsuConfig::default(),
        }
    }

    /// Override the SPE count (kernel configurations 2/4/6 in Fig. 7).
    pub fn with_spes(mut self, spes: u32) -> Self {
        self.spes = spes;
        self
    }

    /// Enable import/compute double-buffering.
    pub fn with_double_buffer(mut self, on: bool) -> Self {
        self.double_buffer = on;
        self
    }

    /// Override the PPE-side TSU emulator configuration (e.g. to enable
    /// completion funnels with [`tflux_core::tsu::FlushPolicy::Batch`]).
    pub fn with_tsu(mut self, tsu: TsuConfig) -> Self {
        self.tsu = tsu;
        self
    }

    /// Cycles to DMA `bytes` between main memory and a Local Store
    /// (excluding bus arbitration, which the machine adds).
    pub fn dma_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        self.dma_setup + bytes.div_ceil(self.dma_bytes_per_cycle.max(1))
    }

    /// Scaled SPE compute cycles for a generic compute amount.
    pub fn scale_compute(&self, cycles: u64) -> u64 {
        cycles * self.compute_scale_num / self.compute_scale_den.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ps3_matches_paper() {
        let c = CellConfig::ps3();
        assert_eq!(c.spes, 6);
        assert_eq!(c.ls_bytes, 256 * 1024);
    }

    #[test]
    fn dma_costs_setup_plus_bandwidth() {
        let c = CellConfig::ps3();
        assert_eq!(c.dma_cycles(0), 0);
        assert_eq!(c.dma_cycles(8), c.dma_setup + 1);
        assert_eq!(c.dma_cycles(16 * 1024), c.dma_setup + 2048);
    }

    #[test]
    fn spe_override() {
        assert_eq!(CellConfig::ps3().with_spes(2).spes, 2);
    }

    #[test]
    fn compute_scaling() {
        let mut c = CellConfig::ps3();
        c.compute_scale_num = 3;
        c.compute_scale_den = 2;
        assert_eq!(c.scale_compute(100), 150);
    }
}
