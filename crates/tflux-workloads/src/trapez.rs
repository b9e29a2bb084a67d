//! TRAPEZ: trapezoidal-rule integration (Numerical Recipes kernel).
//!
//! §6.1.2: "TRAPEZ can be efficiently parallelized resulting in no DThread
//! dependencies other than a reduction operation that is required at the
//! end. In addition, TRAPEZ has very few data transfers between DThreads
//! which allows it to achieve near optimal speedup."
//!
//! Decomposition: a loop DThread over interval chunks (the §5 unroll factor
//! sets the chunk size) producing one partial sum each, reduced by a scalar
//! sink DThread. One kernel (`seq` and the workers) evaluates four points
//! per step, so their divisions pack; the values still add in index order,
//! bit for bit.

use crate::common::{CellCosts, Costed, Describe, Params, Region, Sink};
use crate::sizes::trapez_intervals;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use tflux_core::prelude::*;
use tflux_core::Unroll;
use tflux_runtime::{BodyTable, Runtime, RuntimeConfig, SharedVar};

/// The integrand: `4 / (1 + x²)` over `[0, 1]` integrates to π, giving the
/// tests an exact target.
#[inline]
pub(crate) fn f(x: f64) -> f64 {
    4.0 / (1.0 + x * x)
}

/// `s` plus `f(i·h)` for every `i` in `range`, added in index order. The
/// four points of a step are evaluated before any is added, so their
/// independent divisions pack into vector instructions.
fn sum_f(mut s: f64, range: Range<u64>, h: f64) -> f64 {
    let mut i = range.start;
    while i + 4 <= range.end {
        let v = [0, 1, 2, 3].map(|k| f((i + k) as f64 * h));
        s = s + v[0] + v[1] + v[2] + v[3];
        i += 4;
    }
    (i..range.end).fold(s, |s, i| s + f(i as f64 * h))
}

/// Sequential reference (the paper's baseline program).
pub fn seq(intervals: u64) -> f64 {
    let h = 1.0 / intervals as f64;
    sum_f(0.5 * (f(0.0) + f(1.0)), 1..intervals, h) * h
}

/// The partial sum worker `range` of an `n`-interval run contributes,
/// before the sink's `× h`: the opening end point at half weight if the
/// range starts at 0, the closing one at half weight if it ends at `n`.
pub fn chunk_sum(n: u64, range: Range<u64>) -> f64 {
    let h = 1.0 / n as f64;
    let open = if range.start == 0 { 0.5 * f(0.0) } else { 0.0 };
    let s = sum_f(open, range.start.max(1)..range.end, h);
    if range.end == n {
        s + 0.5 * f(1.0)
    } else {
        s
    }
}

/// Thread ids of the TRAPEZ program.
pub struct TrapezIds {
    /// The chunked quadrature loop thread.
    pub work: ThreadId,
    /// The reduction sink.
    pub sink: ThreadId,
}

/// Build the DDM program for the given parameters.
pub fn program(p: &Params) -> (DdmProgram, TrapezIds) {
    let n = trapez_intervals(p.size);
    let arity = Unroll::new(n, p.unroll).arity();
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let work = b.thread(blk, ThreadSpec::new("trapez.work", arity));
    let sink = b.thread(blk, ThreadSpec::scalar("trapez.sink"));
    b.arc(work, sink, ArcMapping::Reduction).expect("arc");
    (b.build().expect("trapez program"), TrapezIds { work, sink })
}

/// Run TRAPEZ on the real threaded runtime; returns the integral.
pub fn run_ddm(p: &Params) -> f64 {
    let n = trapez_intervals(p.size);
    let (prog, ids) = program(p);
    let arity = prog.thread(ids.work).arity;
    let h = 1.0 / n as f64;

    let partial = SharedVar::<f64>::new(arity);
    let result = AtomicU64::new(0);
    let mut bodies = BodyTable::new(&prog);
    let partial_ref = &partial;
    let result_ref = &result;
    bodies.set(ids.work, move |ctx| {
        let range = Unroll::new(n, p.unroll).range(ctx.context);
        partial_ref.put(ctx.context, chunk_sum(n, range));
    });
    bodies.set(ids.sink, move |_| {
        let total: f64 = partial_ref.iter().sum::<f64>() * h;
        result_ref.store(total.to_bits(), Ordering::Relaxed);
    });

    Runtime::new(RuntimeConfig::with_kernels(p.kernels))
        .run(&prog, &bodies)
        .expect("trapez run");
    f64::from_bits(result.load(Ordering::Relaxed))
}

/// Cycles one quadrature point costs on the simulated core (divide + 2
/// multiplies + adds).
pub(crate) const CYCLES_PER_POINT: u64 = 12;

/// Cost description: each worker stores one partial sum, the sink reads
/// them all.
pub struct TrapezModel {
    n: u64,
    unroll: u32,
    ids: TrapezIds,
    arity: u32,
    partial: Region,
}

/// Build the cost model (pair it with [`program`]'s output).
pub fn model(p: &Params, ids: TrapezIds, arity: u32) -> Costed<TrapezModel> {
    Costed(TrapezModel {
        n: trapez_intervals(p.size),
        unroll: p.unroll,
        ids,
        arity,
        partial: Region::new(0x1000_0000, 8),
    })
}

impl Describe for TrapezModel {
    /// The quadrature kernel is a few instructions: an 8 KB code image.
    const CELL: CellCosts = CellCosts {
        spe_scale: 1,
        ls_fixed: 8 * 1024,
    };

    fn describe<S: Sink>(&self, inst: Instance, out: &mut S) {
        if inst.thread == self.ids.work {
            let Range { start: lo, end: hi } = Unroll::new(self.n, self.unroll).range(inst.context);
            out.compute((hi - lo) * CYCLES_PER_POINT + 30);
            // one partial-sum store; neighbours share lines (false sharing,
            // a real TRAPEZ artifact the coherence model captures)
            self.partial
                .scan(out, inst.context.0 as u64, inst.context.0 as u64 + 1, true);
        } else if inst.thread == self.ids.sink {
            out.compute(self.arity as u64 * 4);
            self.partial.scan(out, 0, self.arity as u64, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::SizeClass;
    use tflux_cell::work::CellWorkSource;
    use tflux_sim::work::InstanceWork;

    #[test]
    fn sequential_integrates_pi() {
        let v = seq(1 << 16);
        assert!((v - std::f64::consts::PI).abs() < 1e-8, "{v}");
    }

    #[test]
    fn ddm_matches_sequential() {
        // small custom run: shrink by using Small with a big unroll
        let p = Params::soft(3, 4096, SizeClass::Small);
        let ddm = run_ddm(&p);
        let reference = seq(trapez_intervals(SizeClass::Small));
        assert!((ddm - reference).abs() < 1e-9, "ddm={ddm} seq={reference}");
    }

    #[test]
    fn ddm_deterministic_across_kernel_counts() {
        let r2 = run_ddm(&Params::soft(2, 8192, SizeClass::Small));
        let r4 = run_ddm(&Params::soft(4, 8192, SizeClass::Small));
        assert_eq!(r2.to_bits(), r4.to_bits());
    }

    #[test]
    fn program_arity_follows_unroll() {
        let p = Params::hard(4, 1024, SizeClass::Small);
        let (prog, ids) = program(&p);
        assert_eq!(prog.thread(ids.work).arity, (1 << 19) / 1024);
    }

    #[test]
    fn sim_model_charges_points() {
        let p = Params::hard(4, 1024, SizeClass::Small);
        let (prog, ids) = program(&p);
        let arity = prog.thread(ids.work).arity;
        let Costed(src) = model(&p, ids, arity);
        let mut w = InstanceWork::default();
        src.describe(Instance::new(src.ids.work, Context(0)), &mut w);
        assert_eq!(w.compute, 1024 * CYCLES_PER_POINT + 30);
        assert_eq!(w.accesses.len(), 1);
    }

    #[test]
    fn cell_model_exports_partial() {
        let p = Params::cell(4, 2048, SizeClass::Small);
        let (prog, ids) = program(&p);
        let arity = prog.thread(ids.work).arity;
        let src = model(&p, ids, arity);
        let w = CellWorkSource::work(&src, Instance::new(src.0.ids.work, Context(1)));
        assert_eq!(w.export_bytes, 8);
        assert!(w.ls_bytes < 256 * 1024);
    }
}
