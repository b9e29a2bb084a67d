//! Simulation results.

use crate::memsys::MemStats;
use crate::tsu_dev::TsuDevStats;
use tflux_core::TsuStats;

/// The outcome of one simulated execution.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Total execution time in cycles (time the last core finished).
    pub cycles: u64,
    /// Per-core cycles spent executing DThread bodies.
    pub core_busy: Vec<u64>,
    /// Per-core cycles spent in kernel/TSU transitions.
    pub core_tsu: Vec<u64>,
    /// Per-core cycles parked waiting for ready DThreads.
    pub core_idle: Vec<u64>,
    /// Memory-hierarchy counters.
    pub mem: MemStats,
    /// TSU state-machine counters.
    pub tsu: TsuStats,
    /// TSU device counters.
    pub dev: TsuDevStats,
    /// DThread instances executed.
    pub instances: usize,
    /// Discrete events processed (queue pops plus deferred device
    /// operations) — a function of the model alone, so the denominator for
    /// host-side events/sec throughput. Zero for the sequential baseline,
    /// which has no event loop.
    pub events: u64,
}

impl SimReport {
    /// Average core utilization: busy / (busy + tsu + idle).
    pub fn utilization(&self) -> f64 {
        let busy: u64 = self.core_busy.iter().sum();
        let total: u64 =
            busy + self.core_tsu.iter().sum::<u64>() + self.core_idle.iter().sum::<u64>();
        if total == 0 {
            0.0
        } else {
            busy as f64 / total as f64
        }
    }

    /// Speedup of this (parallel) run over a sequential baseline run.
    pub fn speedup_over(&self, sequential: &SimReport) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        sequential.cycles as f64 / self.cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64, busy: Vec<u64>, idle: Vec<u64>) -> SimReport {
        let n = busy.len();
        SimReport {
            cycles,
            core_busy: busy,
            core_tsu: vec![0; n],
            core_idle: idle,
            mem: MemStats::default(),
            tsu: TsuStats::default(),
            dev: TsuDevStats::default(),
            instances: 0,
            events: 0,
        }
    }

    #[test]
    fn utilization_counts_busy_fraction() {
        let r = report(100, vec![80, 40], vec![20, 60]);
        assert!((r.utilization() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn speedup_is_seq_over_par() {
        let seq = report(1000, vec![1000], vec![0]);
        let par = report(250, vec![250; 4], vec![0; 4]);
        assert!((par.speedup_over(&seq) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_reports_do_not_divide_by_zero() {
        let r = report(0, vec![], vec![]);
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.speedup_over(&r), 0.0);
    }
}
