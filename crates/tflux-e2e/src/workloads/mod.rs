//! The six workloads, the metric tables, and what one pass reports.
//!
//! Load shape, the same for every workload: one process, closed loop,
//! `KERNELS` kernel threads, a fixed number of passes per second of
//! `--seconds` (so every commit does the same work and tails are read at
//! the same percentile), the first pass of each set-up being warm-up.

use crate::json::Json;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub mod ddm_to_cell;
pub mod server_mix;
pub mod sim;
pub mod soft_coarse;
pub mod soft_fine;

/// Kernel threads of every runtime and server under test. The benchmark
/// host has two CPUs; the generator (this thread) blocks while they run.
pub const KERNELS: u32 = 2;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 6] = [
    "soft_coarse",
    "soft_fine",
    "server_mix",
    "sim_event_bound",
    "sim_mem_bound",
    "ddm_to_cell",
];

/// End-to-end metrics `(name, unit)`: printed with `--trace 0`, by every
/// workload. What a "pass" and a "work unit" are is the workload's to
/// define; README.md has the table.
pub const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_ms", "ms"),
    ("work_per_s", "1/s"),
    ("speedup_vs_seq", "x"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`: printed with `--trace 1`, by every
/// workload; a layer the workload never enters reads 0.
pub const LAYERS: [(&str, &str); 54] = [
    ("trace_overhead_pct", "%"),
    ("host.steal_pct", "%"),
    ("pass_ms_p50", "ms"),
    ("pass_ms_tail", "ms"),
    ("core.total_instances", "count"),
    ("runtime.overhead_ns_per_dthread", "ns"),
    ("runtime.body_share", "ratio"),
    ("runtime.wait_share", "ratio"),
    ("runtime.launch_join_us", "us"),
    ("runtime.steals_per_dthread", "ratio"),
    ("runtime.steal_miss_ratio", "ratio"),
    ("runtime.blocked_pops_per_dthread", "ratio"),
    ("runtime.tub.pushes_per_block", "ratio"),
    ("runtime.tub.busy_ratio", "ratio"),
    ("core.sync.rc_rmws_per_completion", "ratio"),
    ("core.sync.contended_per_completion", "ratio"),
    ("core.build_us", "us"),
    ("core.split_us", "us"),
    ("server.submit_us", "us"),
    ("server.executed_per_program", "ratio"),
    ("sim.machine.host_ns_per_event", "ns"),
    ("sim.tsu_dev.commands_per_instance", "ratio"),
    ("sim.tsu_dev.empty_fetch_ratio", "ratio"),
    ("sim.memsys.host_ns_per_access", "ns"),
    ("sim.memsys.seq_host_ns_per_access", "ns"),
    ("sim.memsys.l1_hit_ratio", "ratio"),
    ("sim.memsys.coherency_ratio", "ratio"),
    ("workloads.trace_gen_ns_per_access", "ns"),
    ("workloads.setup_us", "us"),
    ("ddmcpp.compile_ms", "ms"),
    ("ddmcpp.parse_mb_per_s", "MB/s"),
    ("ddmcpp.lower_us", "us"),
    ("ddmcpp.codegen_mb_per_s", "MB/s"),
    ("cell.instances_per_s", "1/s"),
    ("cell.machine.host_ns_per_instance", "ns"),
    ("cell.commands_per_instance", "ratio"),
    ("cell.cmd_stalls", "count"),
    ("cell.cycles", "cycles"),
    ("sim.cycles.trapez.bagle", "cycles"),
    ("sim.cycles.trapez.sparc", "cycles"),
    ("sim.cycles.mmult.bagle", "cycles"),
    ("sim.cycles.susan.bagle", "cycles"),
    ("sim.cycles.susan.sparc", "cycles"),
    ("sim.cycles.fft.bagle", "cycles"),
    ("sim.cycles.fft.sparc", "cycles"),
    ("sim.events.trapez.bagle", "count"),
    ("sim.events.trapez.sparc", "count"),
    ("sim.events.mmult.bagle", "count"),
    ("sim.events.susan.bagle", "count"),
    ("sim.events.susan.sparc", "count"),
    ("sim.events.fft.bagle", "count"),
    ("sim.events.fft.sparc", "count"),
    ("soft.seq_ms", "ms"),
    ("spans", "count"),
];

/// Per-layer values of one traced run, pre-filled with 0 for every name
/// in [`LAYERS`].
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    pub fn new() -> Self {
        LayerMetrics(LAYERS.iter().map(|&(n, _)| (n, 0.0)).collect())
    }

    /// Panics on a name missing from [`LAYERS`]: the table is the contract.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in the LAYERS table"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// A whole number pinned in `expected.json`, by the path of keys to it.
pub fn pinned(path: &[&str]) -> Option<u64> {
    let doc =
        Json::parse(include_str!("../../expected.json")).expect("expected.json is valid JSON");
    path.iter()
        .try_fold(&doc, |at, key| at.get(key))
        .and_then(Json::as_f64)
        .map(|v| v as u64)
}

/// `num / den`, or 0 when the layer did no work.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What one closed-loop pass did.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations checked against their oracle, and how many were wrong,
    /// errored or were refused.
    pub attempted: u64,
    pub failed: u64,
    /// Work units completed (the numerator of `work_per_s`).
    pub work: u64,
    /// Time the system under test was busy with each part of the pass,
    /// in ms; the parts and their order are the same on every pass.
    pub parts_ms: Vec<f64>,
    /// Request latencies in ms, when a pass serves many requests.
    pub latency_ms: Vec<f64>,
}

impl Pass {
    /// Count one oracle check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Record that the next part kept the system busy for `d`.
    pub fn part(&mut self, d: Duration) {
        self.parts_ms.push(ms(d));
    }
}

pub trait Workload {
    /// Timed passes per 10 s of `--seconds`: a constant of the workload,
    /// calibrated once on the reference host, never measured at run time.
    fn passes_per_10s(&self) -> u32;

    /// One closed-loop pass over the generated inputs, every result checked.
    fn pass(&mut self, tr: &mut Tracer) -> Pass;

    /// Sequential-reference time (or cycles) over the system's, from the
    /// passes made so far. May run an untimed reference computation.
    fn speedup_vs_seq(&mut self) -> f64;

    /// Human-readable breakdown lines (per part medians), printed as
    /// comments above the result.
    fn details(&self) -> Vec<String> {
        Vec::new()
    }

    /// Traced run only: make the decomposition calls and fill in the
    /// per-layer metrics from the counters and spans gathered.
    fn layers(&mut self, tr: &mut Tracer, out: &mut LayerMetrics);
}

/// Run `f`, returning its result and how long it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_hold_unique_well_formed_names() {
        let names: Vec<&str> = E2E
            .iter()
            .chain(LAYERS.iter())
            .map(|&(n, _)| n)
            .chain(NAMES)
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(!names[..i].contains(n), "{n} is listed twice");
        }
        assert!(E2E.len() <= 16 && LAYERS.len() <= 128 && NAMES.len() <= 8);
        assert!(E2E.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn layer_metrics_start_at_zero_and_reject_unknown_names() {
        let mut m = LayerMetrics::new();
        assert_eq!(m.get("cell.cycles"), 0.0);
        m.set("cell.cycles", 7.0);
        m.set("spans", f64::NAN);
        assert_eq!((m.get("cell.cycles"), m.get("spans")), (7.0, 0.0));
        assert!(std::panic::catch_unwind(move || m.set("no.such.metric", 1.0)).is_err());
    }
}
