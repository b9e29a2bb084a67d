//! Regeneration of every table and figure of the paper's evaluation.

use crate::json::{Json, ToJson};
use tflux_cell::{CellConfig, CellMachine};
use tflux_sim::{Machine, MachineConfig, SimReport, TsuCosts};
use tflux_workloads::setup::{
    cell_baseline, cell_setup, sim_baseline, sim_setup, with_default_unroll,
};
use tflux_workloads::sizes::{Platform, SizeClass};
use tflux_workloads::{Bench, Params};

/// One data point of a speedup figure.
#[derive(Clone, Debug)]
pub struct FigRow {
    /// Benchmark name as the paper prints it.
    pub bench: &'static str,
    /// Size-class label.
    pub size: &'static str,
    /// Kernel count.
    pub kernels: u32,
    /// Measured speedup over the sequential baseline.
    pub speedup: f64,
    /// Share of memory accesses that were coherency (remote) misses;
    /// `None` on the Cell, whose SPEs have no coherent caches to miss in.
    pub coherency_ratio: Option<f64>,
    /// Average core utilization: the share of the run's cycles each core
    /// spent in DThread bodies.
    pub utilization: f64,
}

impl ToJson for FigRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("bench", self.bench.to_json()),
            ("size", self.size.to_json()),
            ("kernels", self.kernels.to_json()),
            ("speedup", self.speedup.to_json()),
            (
                "coherency_ratio",
                self.coherency_ratio.map_or(Json::Null, |r| r.to_json()),
            ),
            ("utilization", self.utilization.to_json()),
        ])
    }
}

fn hard_machine(kernels: u32) -> Machine {
    Machine::new(MachineConfig::bagle(kernels))
}

fn soft_machine(kernels: u32) -> Machine {
    Machine::new(MachineConfig::xeon_x3650(kernels))
}

fn sizes_for(quick: bool) -> &'static [SizeClass] {
    if quick {
        &[SizeClass::Small]
    } else {
        &[SizeClass::Small, SizeClass::Medium, SizeClass::Large]
    }
}

/// Simulate `bench` at `p` on `machine`, then its sequential baseline on
/// the same machine: the `(parallel, sequential)` reports every simulated
/// speedup is read from.
pub(crate) fn sim_run(bench: Bench, machine: &Machine, p: &Params) -> (SimReport, SimReport) {
    let (prog, src) = sim_setup(bench, p);
    let (seq_prog, seq_src) = sim_baseline(bench, p);
    let seq = machine.run_sequential(&seq_prog, seq_src.as_ref());
    let par = machine.run(&prog, src.as_ref()).expect("sim run");
    (par, seq)
}

/// Run one simulated configuration and its baseline; return the row.
fn sim_point(bench: Bench, machine: &Machine, p: &Params) -> FigRow {
    let (par, seq) = sim_run(bench, machine, p);
    FigRow {
        bench: bench.name(),
        size: p.size.label(),
        kernels: p.kernels,
        speedup: par.speedup_over(&seq),
        coherency_ratio: Some(par.mem.coherency_ratio()),
        utilization: par.utilization(),
    }
}

/// **Figure 5** — TFluxHard speedups: 5 benchmarks × kernels {2,4,8,16,27}
/// × {Small, Medium, Large} on the simulated 28-core Bagle machine with
/// the hardware TSU Group (one core reserved for the OS, hence 27).
pub fn fig5(quick: bool) -> Vec<FigRow> {
    let kernel_counts: &[u32] = if quick {
        &[2, 8, 27]
    } else {
        &[2, 4, 8, 16, 27]
    };
    let mut rows = Vec::new();
    for bench in Bench::ALL {
        for &size in sizes_for(quick) {
            for &k in kernel_counts {
                let p = with_default_unroll(bench, Params::hard(k, 0, size));
                rows.push(sim_point(bench, &hard_machine(k), &p));
            }
        }
    }
    rows
}

/// **Figure 6** — TFluxSoft speedups: 5 benchmarks × kernels {2,4,6} ×
/// {S,M,L} on the Xeon-like machine model with the software-TSU cost model
/// (the TSU Emulator occupies its own core, which the device model charges
/// rather than simulates).
///
/// MMULT runs the *Simulated* (64–256) sizes rather than the native
/// 256–1024: the native Large would take hundreds of millions of simulated
/// accesses per point without changing the curve's shape (see
/// EXPERIMENTS.md).
pub fn fig6(quick: bool) -> Vec<FigRow> {
    let kernel_counts: &[u32] = if quick { &[2, 6] } else { &[2, 4, 6] };
    let mut rows = Vec::new();
    for bench in Bench::ALL {
        for &size in sizes_for(quick) {
            for &k in kernel_counts {
                let platform = if bench == Bench::Mmult {
                    Platform::Simulated
                } else {
                    Platform::Native
                };
                let mut p = Params {
                    kernels: k,
                    unroll: 0,
                    size,
                    platform,
                };
                p.unroll = tflux_workloads::setup::default_unroll(bench, Platform::Native);
                rows.push(sim_point(bench, &soft_machine(k), &p));
            }
        }
    }
    rows
}

/// **Figure 7** — TFluxCell speedups: 4 benchmarks (no FFT) × SPE counts
/// {2,4,6} × {S,M,L} on the simulated PS3.
pub fn fig7(quick: bool) -> Vec<FigRow> {
    let spe_counts: &[u32] = if quick { &[2, 6] } else { &[2, 4, 6] };
    let mut rows = Vec::new();
    for bench in Bench::CELL {
        for &size in sizes_for(quick) {
            for &k in spe_counts {
                let p = with_default_unroll(bench, Params::cell(k, 0, size));
                let (prog, src) = cell_setup(bench, &p);
                let (seq_prog, seq_src) = cell_baseline(bench, &p);
                let m = CellMachine::new(CellConfig::ps3().with_spes(k));
                let seq = m
                    .run_sequential(&seq_prog, seq_src.as_ref())
                    .expect("cell baseline");
                let par = m.run(&prog, src.as_ref()).expect("cell run");
                rows.push(FigRow {
                    bench: bench.name(),
                    size: p.size.label(),
                    kernels: k,
                    speedup: par.speedup_over(&seq),
                    coherency_ratio: None,
                    utilization: par.utilization(),
                });
            }
        }
    }
    rows
}

/// **§4.1 claim** — sweeping the hardware TSU's per-command processing
/// time from 1 to 128 cycles changes execution time by <1%. Returns
/// `(op_cycles, cycles, delta_vs_op1)` per point.
pub fn tsu_latency(quick: bool) -> Vec<(u64, u64, f64)> {
    let bench = Bench::Mmult;
    // Medium even in quick mode: the <1% claim needs realistic DThread
    // grain, and the Medium sweep takes well under a second
    let size = SizeClass::Medium;
    let p = with_default_unroll(bench, Params::hard(8, 0, size));
    let ops: &[u64] = if quick {
        &[1, 128]
    } else {
        &[1, 4, 16, 64, 128]
    };
    let mut out = Vec::new();
    let mut base = 0u64;
    for &op in ops {
        let cfg = MachineConfig::bagle(8).with_tsu(TsuCosts {
            op,
            ..TsuCosts::hard()
        });
        let (prog, src) = sim_setup(bench, &p);
        let r = Machine::new(cfg).run(&prog, src.as_ref()).expect("sim run");
        if base == 0 {
            base = r.cycles;
        }
        let delta = (r.cycles as f64 - base as f64) / base as f64;
        out.push((op, r.cycles, delta));
    }
    out
}

/// **§5/§6.2.2/§6.3** — the unroll study on MMULT: speedup as a function
/// of the unroll factor (1..64) on all three platforms. Reproduces "for
/// the TFluxHard the best speedup can be reached even with small unroll
/// factors (2 or 4) whereas for TFluxSoft the loops needed to be unrolled
/// more than 16 times" and the Cell's need for 64.
/// Returns `(platform, unroll, speedup)` triples.
pub fn unroll_study(quick: bool) -> Vec<(&'static str, u32, f64)> {
    use tflux_workloads::mmult::elem_setup;
    let factors: &[u32] = if quick {
        &[1, 16, 64]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };
    let mut out = Vec::new();
    let size = SizeClass::Small;
    for &u in factors {
        let p = Params::hard(8, u, size);
        out.push(("hard", u, {
            let (prog, src) = elem_setup(&p);
            let m = hard_machine(8);
            let seq = m.run_sequential(&prog, &src);
            m.run(&prog, &src).expect("sim run").speedup_over(&seq)
        }));
    }
    for &u in factors {
        let p = Params {
            kernels: 6,
            unroll: u,
            size,
            platform: Platform::Simulated, // MMULT soft uses sim sizes
        };
        out.push(("soft", u, {
            let (prog, src) = elem_setup(&p);
            let m = soft_machine(6);
            let seq = m.run_sequential(&prog, &src);
            m.run(&prog, &src).expect("sim run").speedup_over(&seq)
        }));
    }
    for &u in factors {
        let p = Params {
            kernels: 6,
            unroll: u,
            size,
            platform: Platform::Simulated, // small matrix: SPE-friendly
        };
        out.push(("cell", u, {
            let (prog, src) = elem_setup(&p);
            let m = CellMachine::new(CellConfig::ps3());
            let seq = m
                .run_sequential(&prog, &src as &dyn tflux_cell::work::CellWorkSource)
                .expect("seq");
            m.run(&prog, &src as &dyn tflux_cell::work::CellWorkSource)
                .expect("run")
                .speedup_over(&seq)
        }));
    }
    out
}

/// **§3.3 ablation** — the TSU Group against a degraded configuration
/// whose TSU-to-TSU updates cross the system bus (modeled by inflating the
/// per-command cost by the bus transfer time, as separate per-CPU TSUs
/// would require). Returns `(label, cycles)` pairs for MMULT/8 kernels.
pub fn tsu_group_ablation(quick: bool) -> Vec<(&'static str, u64)> {
    let size = if quick {
        SizeClass::Small
    } else {
        SizeClass::Medium
    };
    let p = with_default_unroll(Bench::Mmult, Params::hard(8, 0, size));
    let (prog, src) = sim_setup(Bench::Mmult, &p);
    let grouped = Machine::new(MachineConfig::bagle(8))
        .run(&prog, src.as_ref())
        .expect("sim run");
    let base = MachineConfig::bagle(8);
    let split_cfg = base.with_tsu(TsuCosts {
        // each update becomes a bus-crossing message between per-CPU TSUs
        op: TsuCosts::hard().op + base.bus_transfer,
        access: TsuCosts::hard().access + base.bus_transfer,
        ..TsuCosts::hard()
    });
    let split = Machine::new(split_cfg)
        .run(&prog, src.as_ref())
        .expect("sim run");
    vec![
        ("tsu-group (shared unit)", grouped.cycles),
        ("per-cpu TSUs (bus-linked)", split.cycles),
    ]
}

/// **§3.3 extension** — multiple TSU Groups (named as under development in
/// the paper): fine-grained TRAPEZ on 27 kernels with the TSU Group split
/// into {1, 2, 4} shards. With one group every fetch/completion of all 27
/// kernels serializes through a single unit; sharding relieves that at the
/// price of cross-group update messages. Returns `(groups, cycles,
/// cross_updates)`.
pub fn tsu_groups_scaling(quick: bool) -> Vec<(u32, u64, u64)> {
    // fine grain so the TSU is actually contended
    let p = Params::hard(27, 8, SizeClass::Small);
    let groups: &[u32] = if quick { &[1, 4] } else { &[1, 2, 4] };
    let mut out = Vec::new();
    for &g in groups {
        let cfg = MachineConfig::bagle(27).with_tsu_groups(g);
        let (prog, src) = tflux_workloads::mmult::elem_setup(&p);
        let r = Machine::new(cfg).run(&prog, &src).expect("sim run");
        out.push((g, r.cycles, r.dev.cross_updates));
    }
    out
}

/// **§6.1.2 exploration** — QSORT merge-tree depth: "Trees of bigger depth
/// would result in higher parallelism but may not be always beneficial as
/// the number of steps would increase as well." Sweeps the pair-merge
/// depth at 27 kernels; depth 1 is Fig. 5's QSORT point. Returns
/// `(depth, Small speedup, Large speedup)`.
pub fn qsort_tree_depth(quick: bool) -> Vec<(u32, f64, f64)> {
    let depths: &[u32] = if quick {
        &[0, 2, 6]
    } else {
        &[0, 1, 2, 3, 4, 5, 6]
    };
    depths
        .iter()
        .map(|&d| {
            let point = |size| qsort_tree_point(size, d);
            (d, point(SizeClass::Small), point(SizeClass::Large))
        })
        .collect()
}

/// QSORT's Fig. 5 configuration at 27 kernels and `size`, with a merge
/// tree of `depth`: its speedup over the sequential baseline.
fn qsort_tree_point(size: SizeClass, depth: u32) -> f64 {
    use tflux_workloads::qsort;
    let m = hard_machine(27);
    let p = with_default_unroll(Bench::Qsort, Params::hard(27, 0, size));
    let (sprog, ssrc) = sim_baseline(Bench::Qsort, &p);
    let seq = m.run_sequential(&sprog, ssrc.as_ref());
    let (prog, ids) = qsort::program_with_depth(&p, depth);
    let src = qsort::model(&p, ids);
    m.run(&prog, &src).expect("sim run").speedup_over(&seq)
}

/// **§6.1.2 cross-check** — "The same benchmarks have been executed on a
/// simulated 9 cores X86 system similar to Bagle. The speedup values
/// observed and conclusions drawn are similar to those reported." Runs all
/// five benchmarks at 8 kernels (9 cores, 1 reserved for the OS) on the
/// x86 preset and on Bagle; returns `(bench, x86_speedup, bagle_speedup)`.
pub fn fig5_x86(quick: bool) -> Vec<(&'static str, f64, f64)> {
    let size = if quick {
        SizeClass::Small
    } else {
        SizeClass::Medium
    };
    Bench::ALL
        .iter()
        .map(|&bench| {
            let p = with_default_unroll(bench, Params::hard(8, 0, size));
            let speedup = |m: &Machine| sim_point(bench, m, &p).speedup;
            (
                bench.name(),
                speedup(&Machine::new(
                    MachineConfig::x86_9core(8).expect("8 kernels fit the 9-core x86"),
                )),
                speedup(&hard_machine(8)),
            )
        })
        .collect()
}

/// **Calibration** — measure the real threaded runtime's per-DThread
/// overhead on this host and compare it against the soft-TSU cost model
/// the Fig. 6 simulations charge. Runs a no-op fork/join of `n` DThreads
/// on 1 kernel (per-thread cost = full fetch+complete round trip without
/// concurrency noise) and converts wall time to cycles at `ghz`.
/// Returns `(measured_ns_per_dthread, measured_cycles, modeled_cycles)`.
pub fn calibrate_soft_overhead(ghz: f64) -> (f64, u64, u64) {
    use tflux_runtime::{BodyTable, Runtime, RuntimeConfig};
    let n = 20_000u32;
    let mut b = tflux_core::ProgramBuilder::new();
    let blk = b.block();
    b.thread(blk, tflux_core::ThreadSpec::new("noop", n));
    let prog = b.build().expect("program");
    let bodies = BodyTable::new(&prog);
    let rt = Runtime::new(RuntimeConfig::with_kernels(1));
    // warm-up + best-of-3, like the paper's multiple native runs
    let mut best = u64::MAX;
    for _ in 0..3 {
        let report = rt.run(&prog, &bodies).expect("run");
        best = best.min(report.wall.as_nanos() as u64);
    }
    let ns_per = best as f64 / n as f64;
    let measured_cycles = (ns_per * ghz) as u64;
    let model = TsuCosts::soft();
    let modeled = 2 * model.access + 2 * model.op + model.kernel_overhead;
    (ns_per, measured_cycles, modeled)
}

/// What this host can give a second kernel, measured — the micro-costs the
/// native numbers in EXPERIMENTS.md are to be read against.
#[derive(Clone, Copy, Debug)]
pub struct HostCapacity {
    /// Milliseconds one thread takes for a fixed multiply-bound loop.
    pub one_thread_ms: f64,
    /// Milliseconds two threads take for that loop *each*. Equal to
    /// `one_thread_ms` on two real cores; twice it when the two hardware
    /// threads share one core's multiplier.
    pub two_threads_ms: f64,
    /// Nanoseconds per `fetch_add`: one thread alone, beside a sibling
    /// hammering another cache line, beside one hammering the same line.
    pub fetch_add_ns: [f64; 3],
}

impl HostCapacity {
    /// Parallel capacity in cores: 2.0 means a second kernel doubles
    /// throughput-bound work, 1.0 that it only overlaps latencies.
    pub fn parallel_capacity(&self) -> f64 {
        2.0 * self.one_thread_ms / self.two_threads_ms
    }
}

/// **Host capacity** — best of 3 of each probe (see [`HostCapacity`]).
pub fn host_capacity() -> HostCapacity {
    use std::hint::black_box;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::time::Instant;
    #[repr(align(128))]
    struct Line(AtomicU64);
    /// Four independent multiply chains — one multiply issued per cycle,
    /// which saturates the multiplier from one hardware thread. (The
    /// rotate keeps the compiler from folding consecutive multiplies.)
    fn multiply(iters: u64) {
        let mut x = [3u64, 5, 7, 11];
        for _ in 0..iters {
            for v in &mut x {
                *v = v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7);
            }
        }
        black_box(x);
    }
    /// Best-of-3 milliseconds of `threads` threads each running `work`.
    fn best_ms(threads: usize, work: impl Fn(usize) + Sync) -> f64 {
        let run = || {
            let t = Instant::now();
            std::thread::scope(|s| {
                for k in 1..threads {
                    let work = &work;
                    s.spawn(move || work(k));
                }
                work(0);
            });
            t.elapsed().as_secs_f64() * 1e3
        };
        (0..3).map(|_| run()).fold(f64::INFINITY, f64::min)
    }
    const MULS: u64 = 40_000_000;
    const ADDS: u64 = 4_000_000;
    let lines = [Line(AtomicU64::new(0)), Line(AtomicU64::new(0))];
    let hammer = |line: &Line| {
        for _ in 0..ADDS {
            line.0.fetch_add(1, Relaxed);
        }
    };
    let ns_per_add = |ms: f64| ms * 1e6 / ADDS as f64;
    HostCapacity {
        one_thread_ms: best_ms(1, |_| multiply(MULS)),
        two_threads_ms: best_ms(2, |_| multiply(MULS)),
        fetch_add_ns: [
            ns_per_add(best_ms(1, |_| hammer(&lines[0]))),
            ns_per_add(best_ms(2, |k| hammer(&lines[k]))),
            ns_per_add(best_ms(2, |_| hammer(&lines[0]))),
        ],
    }
}

/// **§4.2 ablation** — the segmented Thread-to-Update Buffer, simulated
/// ([`tflux_sim::simulate_tub`]) at the [`TsuCosts::soft`] costs: 2, 4, 6 and 8
/// kernel cores publish 1 000 completions each into 1, 2, 4 and 8
/// segments. More segments should mean fewer `busy_hits`. Returns
/// `(pushers, segments, stats)`, pushers-major.
pub fn tub_contention() -> Vec<(u32, u32, tflux_sim::TubStats)> {
    let grid = [2, 4, 6, 8]
        .into_iter()
        .flat_map(|p| [1, 2, 4, 8].map(|s| (p, s)));
    grid.map(|(p, s)| (p, s, tflux_sim::simulate_tub(p, s, 1_000)))
        .collect()
}

/// **Table 1** — the workload table, formatted.
pub fn table1_text() -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<8} {:<8} {:<40} {:<14} {:<14} {:<14}\n",
        "Bench", "Source", "Description", "Small", "Medium", "Large"
    ));
    for row in tflux_workloads::sizes::table1() {
        s.push_str(&format!(
            "{:<8} {:<8} {:<40} {:<14} {:<14} {:<14}\n",
            row.benchmark, row.source, row.description, row.sizes[0], row.sizes[1], row.sizes[2]
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_all_benchmarks() {
        let t = table1_text();
        for b in Bench::ALL {
            assert!(t.contains(b.name()), "{t}");
        }
    }

    #[test]
    fn fig5_quick_has_expected_row_count() {
        let rows = fig5(true);
        // 5 benchmarks x 1 size x 3 kernel counts
        assert_eq!(rows.len(), 15);
        assert!(rows.iter().all(|r| r.speedup > 0.0));
    }

    #[test]
    fn fig7_quick_excludes_fft() {
        let rows = fig7(true);
        assert!(rows.iter().all(|r| r.bench != "FFT"));
        assert_eq!(rows.len(), 4 * 2);
    }

    #[test]
    fn x86_crosscheck_tracks_bagle() {
        // §6.1.2: "speedup values observed and conclusions drawn are
        // similar" across the Sparc and x86 simulations
        for (bench, x86, bagle) in fig5_x86(true) {
            let ratio = x86 / bagle;
            assert!(
                (0.75..=1.25).contains(&ratio),
                "{bench}: x86 {x86:.2} vs bagle {bagle:.2}"
            );
        }
    }

    #[test]
    fn fig6_quick_covers_all_benchmarks() {
        let rows = fig6(true);
        assert_eq!(rows.len(), 5 * 2); // 5 benchmarks x {2,6} kernels
        for b in Bench::ALL {
            assert!(rows.iter().any(|r| r.bench == b.name()));
        }
        assert!(rows.iter().all(|r| r.speedup > 0.4));
    }

    #[test]
    fn unroll_quick_has_three_platforms() {
        let pts = unroll_study(true);
        for platform in ["hard", "soft", "cell"] {
            assert_eq!(pts.iter().filter(|p| p.0 == platform).count(), 3);
        }
        // soft at unroll 1 must be far worse than at 64
        let soft1 = pts.iter().find(|p| p.0 == "soft" && p.1 == 1).unwrap().2;
        let soft64 = pts.iter().find(|p| p.0 == "soft" && p.1 == 64).unwrap().2;
        assert!(soft64 > 3.0 * soft1, "{soft1} vs {soft64}");
    }

    #[test]
    fn qsort_tree_depth_one_is_the_fig5_point() {
        for size in [SizeClass::Small, SizeClass::Large] {
            let p = with_default_unroll(Bench::Qsort, Params::hard(27, 0, size));
            let fig5 = sim_point(Bench::Qsort, &hard_machine(27), &p).speedup;
            assert_eq!(qsort_tree_point(size, 1), fig5, "{size:?}");
        }
    }

    #[test]
    fn qsort_tree_quick_rows() {
        let pts = qsort_tree_depth(true);
        assert_eq!(pts.len(), 3);
        assert!(pts.iter().all(|p| p.1 > 0.0 && p.2 > 0.0));
    }

    #[test]
    fn tsu_groups_scaling_is_within_a_few_percent() {
        let pts = tsu_groups_scaling(true);
        assert_eq!(pts[0].0, 1);
        let base = pts[0].1 as f64;
        for (g, cycles, _) in &pts[1..] {
            let delta = (*cycles as f64 - base).abs() / base;
            assert!(delta < 0.05, "groups={g}: delta {delta}");
        }
    }

    #[test]
    fn tsu_group_ablation_returns_both_configs() {
        let rows = tsu_group_ablation(true);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.1 > 0));
    }

    #[test]
    fn tsu_latency_quick_shape() {
        let pts = tsu_latency(true);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].0, 1);
        assert_eq!(pts[1].0, 128);
        assert!(pts[1].2 < 0.01, "TSU latency impact {}", pts[1].2);
    }
}
