//! `soft_coarse`: the paper's suite on the threaded runtime at the Native
//! default unroll (Fig. 6's use case).
//!
//! Why: bodies are >90 % of the kernels' time here, so a change to the
//! TSU path must show *no change*; kernel launch/join, `SharedVar`
//! hand-off and load balance are what can show. One pass runs the five
//! benchmarks' `run_ddm` in seeded order, each checked against its `seq`
//! reference, which is timed in the same pass.

use super::{ms, ratio, timed, LayerMetrics, Pass, Workload, KERNELS};
use crate::api::{self, Bench, SizeClass};
use crate::gen::Rng;
use crate::host;
use crate::stats::{geomean, median, quiet};
use crate::trace::Tracer;
use std::time::Duration;

const SUITE: [(Bench, SizeClass); 5] = [
    (Bench::Trapez, SizeClass::Large),
    (Bench::Mmult, SizeClass::Medium),
    (Bench::Qsort, SizeClass::Large),
    (Bench::Susan, SizeClass::Medium),
    (Bench::Fft, SizeClass::Large),
];

/// One-kernel runs per benchmark in the traced run's decomposition.
const ONE_KERNEL_RUNS: usize = 5;

struct Entry {
    bench: Bench,
    size: SizeClass,
    params: api::Params,
    ddm_ms: Vec<f64>,
    seq_ms: Vec<f64>,
}

pub struct SoftCoarse {
    entries: Vec<Entry>,
    /// Per pass: geomean over the benchmarks of `seq` time ÷ `run_ddm` time.
    speedups: Vec<f64>,
    /// Wall and process CPU time summed over every `run_ddm` call.
    ddm_wall: Duration,
    ddm_cpu: Duration,
}

fn ddm_span(b: Bench) -> &'static str {
    match b {
        Bench::Trapez => "workloads.trapez.run_ddm",
        Bench::Mmult => "workloads.mmult.run_ddm",
        Bench::Qsort => "workloads.qsort.run_ddm",
        Bench::Susan => "workloads.susan.run_ddm",
        Bench::Fft => "workloads.fft.run_ddm",
    }
}

impl SoftCoarse {
    pub fn setup(seed: u64, _tr: &mut Tracer) -> Result<Self, String> {
        let mut entries: Vec<Entry> = SUITE
            .iter()
            .map(|&(bench, size)| Entry {
                bench,
                size,
                params: api::native_params(bench, KERNELS, size),
                ddm_ms: Vec::new(),
                seq_ms: Vec::new(),
            })
            .collect();
        // the benchmarks' inputs are fixed by the product crate; the seed
        // decides the order they run in (what is left warm for the next)
        Rng::new(seed).shuffle(&mut entries);
        Ok(SoftCoarse {
            entries,
            speedups: Vec::new(),
            ddm_wall: Duration::ZERO,
            ddm_cpu: Duration::ZERO,
        })
    }
}

impl Workload for SoftCoarse {
    fn passes_per_10s(&self) -> u32 {
        40
    }

    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut ratios = Vec::with_capacity(self.entries.len());
        for e in &mut self.entries {
            let cpu0 = tr.enabled().then(host::cpu_time);
            let (got, ddm) =
                timed(|| tr.span(ddm_span(e.bench), |_| api::paper_ddm(e.bench, &e.params)));
            if let Some(cpu0) = cpu0 {
                self.ddm_cpu += host::cpu_time() - cpu0;
                self.ddm_wall += ddm;
            }
            let (want, seq) =
                timed(|| tr.span("workloads.seq", |_| api::paper_seq(e.bench, e.size)));
            pass.check(got.matches(&want));
            e.ddm_ms.push(ms(ddm));
            e.seq_ms.push(ms(seq));
            ratios.push(seq.as_secs_f64() / ddm.as_secs_f64());
            pass.part(ddm);
        }
        self.speedups.push(geomean(&ratios));
        pass.work = self.entries.len() as u64;
        pass
    }

    /// Geometric mean over the five benchmarks of `seq` time over
    /// `run_ddm` time, taken within each pass (the two run back to back,
    /// so the host's drift cancels), then the median over passes.
    fn speedup_vs_seq(&mut self) -> f64 {
        median(&self.speedups)
    }

    fn details(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| {
                let (seq, ddm) = (median(&e.seq_ms), median(&e.ddm_ms));
                format!(
                    "{:?}: seq {seq:.3} ms, run_ddm {ddm:.3} ms, speedup {:.3}",
                    e.bench,
                    seq / ddm
                )
            })
            .collect()
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut LayerMetrics) {
        // `run_ddm` returns the result, not the RunReport, so the runtime
        // is seen from outside. Bodies: the sequential reference over the
        // same decomposition on ONE kernel, where nothing but the runtime
        // is added and the kernel shares its core with nobody. Waiting:
        // CPU time the two-kernel runs did not use.
        let seq: f64 = self.entries.iter().map(|e| quiet(&e.seq_ms)).sum();
        let mut one_kernel = 0.0;
        for e in &self.entries {
            let p = api::native_params(e.bench, 1, e.size);
            let runs: Vec<f64> = (0..ONE_KERNEL_RUNS)
                .map(|_| {
                    ms(timed(|| {
                        tr.span("workloads.run_ddm.one_kernel", |_| {
                            api::paper_ddm(e.bench, &p)
                        })
                    })
                    .1)
                })
                .collect();
            one_kernel += quiet(&runs);
        }
        let kernel_s = f64::from(KERNELS) * self.ddm_wall.as_secs_f64();
        let instances: usize = self
            .entries
            .iter()
            .map(|e| api::paper_instances(e.bench, &e.params))
            .sum();
        out.set("core.total_instances", instances as f64);
        out.set("soft.seq_ms", seq);
        out.set("runtime.body_share", ratio(seq, one_kernel));
        out.set(
            "runtime.wait_share",
            (1.0 - ratio(self.ddm_cpu.as_secs_f64(), kernel_s)).max(0.0),
        );
    }
}
