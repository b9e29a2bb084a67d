//! MMULT: dense matrix multiply (Numerical Recipes kernel).
//!
//! §6.1.2: "MMULT is an embarrassingly parallel application but suffers
//! from a large number of coherency misses, limiting it from achieving the
//! idealized speedup."
//!
//! Decomposition: `C = A × B` row-blocked — a loop DThread over row chunks
//! (`unroll` rows per instance) with no inter-worker dependencies, plus a
//! scalar sink. Every worker streams all of `B`, which is what generates
//! the coherency/bus traffic that caps MMULT's scaling.

use crate::common::{CellCosts, Costed, Describe, Params, Region, Sink};
use crate::sizes::mmult_n;
use std::ops::Range;
use tflux_core::prelude::*;
use tflux_core::Unroll;
use tflux_runtime::{BodyTable, Runtime, RuntimeConfig, SharedVar};

/// Deterministic input matrices: `A[i][j] = (i + 2j) % 17`,
/// `B[i][j] = (3i + j) % 13` (integers in f64 keep results exact).
pub fn inputs(n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut a = vec![0.0; n * n];
    let mut b = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = ((i + 2 * j) % 17) as f64;
            b[i * n + j] = ((3 * i + j) % 13) as f64;
        }
    }
    (a, b)
}

/// Sequential reference: ikj-ordered triple loop (the cache-friendly
/// variant both versions model).
pub fn seq(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            let (brow, crow) = (&b[k * n..k * n + n], &mut c[i * n..i * n + n]);
            for j in 0..n {
                crow[j] += aik * brow[j];
            }
        }
    }
    c
}

/// Thread ids of the MMULT program.
pub struct MmultIds {
    /// Row-chunk workers.
    pub work: ThreadId,
    /// Completion sink.
    pub sink: ThreadId,
}

/// Build the DDM program.
pub fn program(p: &Params) -> (DdmProgram, MmultIds) {
    let n = mmult_n(p.size, p.platform) as u64;
    let arity = Unroll::new(n, p.unroll).arity();
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let work = b.thread(blk, ThreadSpec::new("mmult.work", arity));
    let sink = b.thread(blk, ThreadSpec::scalar("mmult.sink"));
    b.arc(work, sink, ArcMapping::Reduction).expect("arc");
    (b.build().expect("mmult program"), MmultIds { work, sink })
}

/// Run MMULT on the real runtime; returns `C`.
pub fn run_ddm(p: &Params) -> Vec<f64> {
    let n = mmult_n(p.size, p.platform);
    let (prog, ids) = program(p);
    let arity = prog.thread(ids.work).arity;
    let (a, b) = inputs(n);

    // each worker produces its row chunk; the rows are assembled afterwards
    let rows = SharedVar::<Vec<f64>>::new(arity);
    let mut bodies = BodyTable::new(&prog);
    let (aref, bref, rref) = (&a, &b, &rows);
    bodies.set(ids.work, move |ctx| {
        let Range { start: lo, end: hi } = Unroll::new(n as u64, p.unroll).range(ctx.context);
        let (lo, hi) = (lo as usize, hi as usize);
        let mut out = vec![0.0; (hi - lo) * n];
        for i in lo..hi {
            for k in 0..n {
                let aik = aref[i * n + k];
                let brow = &bref[k * n..k * n + n];
                let crow = &mut out[(i - lo) * n..(i - lo) * n + n];
                for j in 0..n {
                    crow[j] += aik * brow[j];
                }
            }
        }
        rref.put(ctx.context, out);
    });

    Runtime::new(RuntimeConfig::with_kernels(p.kernels))
        .run(&prog, &bodies)
        .expect("mmult run");
    drop(bodies);

    let mut c = Vec::with_capacity(n * n);
    for chunk_rows in rows.iter() {
        c.extend_from_slice(chunk_rows);
    }
    assert_eq!(c.len(), n * n, "a worker slot was never produced");
    c
}

/// Compute cycles per inner-loop multiply-add (scalar, in-order 2008 core:
/// FP multiply + add + index update, no FMA, no SIMD).
pub(crate) const CYCLES_PER_MAC: u64 = 5;

/// The Cell streams `A`, `B` and `C` through fixed 16 KB Local Store
/// tiles (matrix multiply tiles at any size), so the footprint is constant
/// while the DMA traffic scales with the data actually moved.
const CELL: CellCosts = CellCosts {
    spe_scale: 1,
    ls_fixed: 32 * 1024 + 3 * 16 * 1024,
};

/// The three matrices: `A` at 256 MB, `B` at 512 MB, `C` at 768 MB (all
/// row-major f64, streamed on the Cell).
fn matrices() -> [Region; 3] {
    [0x1000_0000, 0x2000_0000, 0x3000_0000].map(|base| Region::streamed(base, 8))
}

/// Cost description of the row-blocked program.
pub(crate) struct MmultModel {
    n: u64,
    unroll: u32,
    ids: MmultIds,
    a: Region,
    b: Region,
    c: Region,
}

/// Build the cost model.
pub(crate) fn model(p: &Params, ids: MmultIds) -> Costed<MmultModel> {
    let [a, b, c] = matrices();
    Costed(MmultModel {
        n: mmult_n(p.size, p.platform) as u64,
        unroll: p.unroll,
        ids,
        a,
        b,
        c,
    })
}

impl Describe for MmultModel {
    const CELL: CellCosts = CELL;

    fn describe<S: Sink>(&self, inst: Instance, out: &mut S) {
        if inst.thread != self.ids.work {
            if inst.thread == self.ids.sink {
                out.compute(100);
            }
            return;
        }
        let n = self.n;
        let Range { start: lo, end: hi } = Unroll::new(n, self.unroll).range(inst.context);
        for i in lo..hi {
            // ikj order: A row once per k, B row streamed, C row streamed
            self.a.scan(out, i * n, (i + 1) * n, false);
            for k in 0..n {
                self.b.scan(out, k * n, (k + 1) * n, false);
                self.c.scan(out, i * n, (i + 1) * n, true);
            }
        }
        out.compute((hi - lo) * n * n * CYCLES_PER_MAC);
    }
}

/// Element-granular MMULT for the §5 unroll study: the *basic loop* is the
/// per-element `C[i][j]` computation (`n` multiply-adds, a few hundred
/// cycles), and the unroll factor groups `unroll` consecutive elements into
/// one DThread. This is the granularity at which the paper's "unrolled
/// from 1 to 64 times" sweep operates — at unroll 1 a DThread is fine
/// enough that per-DThread overhead dominates on the software platforms.
pub struct MmultElem {
    /// n×n matrix dimension.
    pub n: u64,
    /// Elements per DThread.
    pub unroll: u32,
    /// The worker thread.
    pub work: ThreadId,
    a: Region,
    b: Region,
    c: Region,
}

/// Build the element-granular program and cost model.
pub fn elem_setup(p: &Params) -> (DdmProgram, Costed<MmultElem>) {
    let n = mmult_n(p.size, p.platform) as u64;
    let elems = n * n;
    let arity = Unroll::new(elems, p.unroll).arity();
    let mut bld = ProgramBuilder::new();
    let blk = bld.block();
    let work = bld.thread(blk, ThreadSpec::new("mmult.elem", arity));
    let sink = bld.thread(blk, ThreadSpec::scalar("mmult.sink"));
    bld.arc(work, sink, ArcMapping::Reduction).expect("arc");
    let [a, b, c] = matrices();
    (
        bld.build().expect("mmult elem program"),
        Costed(MmultElem {
            n,
            unroll: p.unroll,
            work,
            a,
            b,
            c,
        }),
    )
}

impl Describe for MmultElem {
    const CELL: CellCosts = CELL;

    fn describe<S: Sink>(&self, inst: Instance, out: &mut S) {
        if inst.thread != self.work {
            return;
        }
        let n = self.n;
        let Range { start: lo, end: hi } = Unroll::new(n * n, self.unroll).range(inst.context);
        for e in lo..hi {
            let (i, j) = (e / n, e % n);
            // ijk element: A row streamed, B column strided, one C store
            self.a.scan(out, i * n, (i + 1) * n, false);
            self.b.strided(out, j, j + n * n, n, false);
            self.c.scan(out, i * n + j, i * n + j + 1, true);
        }
        out.compute((hi - lo) * n * CYCLES_PER_MAC);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::SizeClass;
    use tflux_cell::work::CellWorkSource;
    use tflux_sim::work::InstanceWork;

    #[test]
    fn seq_matches_naive_small() {
        let n = 8;
        let (a, b) = inputs(n);
        let c = seq(&a, &b, n);
        for i in 0..n {
            for j in 0..n {
                let expect: f64 = (0..n).map(|k| a[i * n + k] * b[k * n + j]).sum();
                assert_eq!(c[i * n + j], expect, "({i},{j})");
            }
        }
    }

    #[test]
    fn ddm_matches_sequential() {
        // Simulated Small is 64x64: quick enough for a real threaded run
        let p = Params::hard(3, 4, SizeClass::Small);
        let n = mmult_n(p.size, p.platform);
        let (a, b) = inputs(n);
        let reference = seq(&a, &b, n);
        let ddm = run_ddm(&p);
        assert_eq!(ddm, reference);
    }

    #[test]
    fn ddm_handles_ragged_chunks() {
        // unroll that does not divide n: 64 rows, 5-row chunks
        let p = Params::hard(2, 5, SizeClass::Small);
        let n = mmult_n(p.size, p.platform);
        let (a, b) = inputs(n);
        assert_eq!(run_ddm(&p), seq(&a, &b, n));
    }

    #[test]
    fn sim_model_access_counts_scale_with_rows() {
        let p = Params::hard(4, 2, SizeClass::Small); // n=64, 2 rows/instance
        let (_, ids) = program(&p);
        let Costed(src) = model(&p, ids);
        let mut w = InstanceWork::default();
        src.describe(Instance::new(src.ids.work, Context(0)), &mut w);
        let n = 64u64;
        // per row: A lines (n/8) + n * (B lines + C lines) = 8 + 64*(8+8)
        let per_row = 8 + n * 16;
        assert_eq!(w.accesses.len() as u64, 2 * per_row);
        assert_eq!(w.compute, 2 * n * n * CYCLES_PER_MAC);
    }

    #[test]
    fn elem_model_covers_all_elements() {
        let p = Params::hard(4, 8, SizeClass::Small); // n=64, 8 elems/thread
        let (prog, Costed(src)) = elem_setup(&p);
        assert_eq!(prog.thread(src.work).arity, 64 * 64 / 8);
        let mut w = InstanceWork::default();
        src.describe(Instance::new(src.work, Context(0)), &mut w);
        assert_eq!(w.compute, 8 * 64 * CYCLES_PER_MAC);
        // per element: 8 A lines + 64 B lines + 1 C line
        assert_eq!(w.accesses.len(), 8 * (8 + 64 + 1));
    }

    #[test]
    fn cell_large_mmult_needs_big_unroll_to_amortize() {
        let ids = |p: &Params| program(p).1;
        let p1 = Params::cell(6, 1, SizeClass::Small);
        let p64 = Params::cell(6, 64, SizeClass::Small);
        let s1 = model(&p1, ids(&p1));
        let s64 = model(&p64, ids(&p64));
        let w1 = CellWorkSource::work(&s1, Instance::new(s1.0.ids.work, Context(0)));
        let w64 = CellWorkSource::work(&s64, Instance::new(s64.0.ids.work, Context(0)));
        // compute per byte transferred is 64x better at unroll 64
        let r1 = w1.compute as f64 / (w1.import_bytes + w1.export_bytes) as f64;
        let r64 = w64.compute as f64 / (w64.import_bytes + w64.export_bytes) as f64;
        assert!(r64 > 10.0 * r1, "r1={r1} r64={r64}");
    }
}
