//! TFluxCell execution reports.

use tflux_core::TsuStats;

/// The outcome of one simulated TFluxCell execution.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Total execution time in SPE cycles.
    pub cycles: u64,
    /// Per-SPE cycles spent computing DThread bodies.
    pub spe_busy: Vec<u64>,
    /// Per-SPE cycles spent in DMA import/export.
    pub spe_dma: Vec<u64>,
    /// Per-SPE cycles spent waiting on the mailbox.
    pub spe_idle: Vec<u64>,
    /// PPE cycles spent running the TSU Emulator.
    pub ppe_busy: u64,
    /// TSU state-machine counters.
    pub tsu: TsuStats,
    /// Commands processed by the emulator.
    pub commands: u64,
    /// Times a kernel stalled because its CommandBuffer was full: always
    /// 0, because an SPE has at most one command in flight. Kept only for
    /// the frozen bench, which reads it (ROADMAP item 1).
    pub cmd_stalls: u64,
    /// DThread instances executed.
    pub instances: usize,
    /// Peak Local Store bytes used by any instance.
    pub peak_ls: u64,
}

impl CellReport {
    /// Speedup over a sequential baseline.
    pub fn speedup_over(&self, seq: &CellReport) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            seq.cycles as f64 / self.cycles as f64
        }
    }

    /// Average SPE utilization: body cycles over `SPEs × cycles`.
    pub fn utilization(&self) -> f64 {
        let busy: u64 = self.spe_busy.iter().sum();
        busy as f64 / (self.spe_busy.len() as u64 * self.cycles).max(1) as f64
    }

    /// Fraction of SPE time spent in DMA.
    pub fn dma_fraction(&self) -> f64 {
        let dma: u64 = self.spe_dma.iter().sum();
        let total: u64 =
            dma + self.spe_busy.iter().sum::<u64>() + self.spe_idle.iter().sum::<u64>();
        if total == 0 {
            0.0
        } else {
            dma as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(cycles: u64, busy: u64, dma: u64, idle: u64) -> CellReport {
        CellReport {
            cycles,
            spe_busy: vec![busy],
            spe_dma: vec![dma],
            spe_idle: vec![idle],
            ppe_busy: 0,
            tsu: TsuStats::default(),
            commands: 0,
            cmd_stalls: 0,
            instances: 0,
            peak_ls: 0,
        }
    }

    #[test]
    fn speedup_and_dma_fraction() {
        let seq = r(1000, 1000, 0, 0);
        let par = r(200, 100, 50, 50);
        assert!((par.speedup_over(&seq) - 5.0).abs() < 1e-12);
        assert!((par.dma_fraction() - 0.25).abs() < 1e-12);
        assert!((par.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_no_division_by_zero() {
        let z = r(0, 0, 0, 0);
        assert_eq!(z.speedup_over(&z), 0.0);
        assert_eq!(z.dma_fraction(), 0.0);
        assert_eq!(z.utilization(), 0.0);
    }
}
