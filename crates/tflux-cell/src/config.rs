//! Cell/BE machine parameters.

use tflux_core::TsuConfig;

/// Configuration of the simulated Cell/BE.
///
/// All latencies are in 3.2 GHz SPE cycles. The PS3 calibration itself is
/// a set of constants of the one [`ps3`](CellConfig::ps3) preset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellConfig {
    /// Usable SPEs (the PS3 exposes 6 of 8: one disabled for yield, one
    /// reserved for the hypervisor, §6.3).
    pub spes: u32,
    /// Local Store bytes per SPE.
    pub ls_bytes: u64,
    /// Configuration handed to the PPE-side TSU emulator (capacity,
    /// stealing, epoch window).
    pub tsu: TsuConfig,
}

/// Fixed cost of issuing one DMA transfer (list setup + tag wait).
const DMA_SETUP: u64 = 300;
/// DMA bandwidth once started: ~25.6 GB/s at 3.2 GHz.
const DMA_BYTES_PER_CYCLE: u64 = 8;
/// Latency of a mailbox message (PPE → SPE notification).
pub(crate) const MAILBOX_LAT: u64 = 200;
/// Latency for a kernel's command to land in its CommandBuffer in main
/// memory (a small DMA put).
pub(crate) const CMD_LAT: u64 = 250;
/// PPE cycles to process one TSU command (emulator software).
pub(crate) const PPE_OP: u64 = 600;
/// PPE cycles to scan one CommandBuffer during the round-robin poll loop,
/// charged per command as the average scan cost.
pub(crate) const POLL_SCAN: u64 = 120;

impl CellConfig {
    /// The paper's PS3 (§6.3): 6 usable SPEs, 256 KB Local Stores,
    /// emulator-on-PPE cost model.
    pub fn ps3() -> Self {
        CellConfig {
            spes: 6,
            ls_bytes: 256 * 1024,
            tsu: TsuConfig::default(),
        }
    }

    /// Override the SPE count (kernel configurations 2/4/6 in Fig. 7).
    pub fn with_spes(mut self, spes: u32) -> Self {
        self.spes = spes;
        self
    }

    /// Override the PPE-side TSU emulator configuration (e.g. to bound
    /// its capacity or credit window).
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
        DMA_SETUP + bytes.div_ceil(DMA_BYTES_PER_CYCLE)
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
        assert_eq!(c.dma_cycles(8), DMA_SETUP + 1);
        assert_eq!(c.dma_cycles(16 * 1024), DMA_SETUP + 2048);
    }

    #[test]
    fn spe_override() {
        assert_eq!(CellConfig::ps3().with_spes(2).spes, 2);
    }
}
