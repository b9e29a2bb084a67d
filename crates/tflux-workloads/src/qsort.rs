//! QSORT: array sorting (MiBench).
//!
//! §6.1.2: "In QSORT each DThread sorts one part of the array. At the end,
//! these sorted sub-arrays are merged to produce the final one. This last
//! phase is the bottleneck ... The current application is written with a
//! two-level tree to do the merging."
//!
//! Decomposition: a scalar **init** DThread fills the array (§6.2.2 — "one
//! CPU initializes the array", whose cache-transfer cost produces the
//! native QSORT anomaly); `P = 2 × kernels` **sorter** DThreads each sort
//! one partition; a first merge level of `P/2` pair-mergers; and a scalar
//! final merge — exactly two tree levels.

use crate::common::{CellCosts, Costed, Describe, Params, Region, Sink};
use crate::sizes::qsort_n;
use tflux_core::prelude::*;
use tflux_core::SplitMix64;
use tflux_runtime::{BodyTable, Runtime, RuntimeConfig, SharedVar};

/// Deterministic input array.
pub fn input(n: usize) -> Vec<i32> {
    // this exact stream is what every recorded QSORT figure sorted
    let mut rng = SplitMix64(0x5eed ^ 0x517c_c1b7_2722_0a95);
    (0..n).map(|_| rng.below(1_000_000) as i32).collect()
}

/// Sequential reference: sort a copy of the input.
pub fn seq(n: usize) -> Vec<i32> {
    let mut v = input(n);
    v.sort_unstable();
    v
}

/// Number of sorter partitions for a kernel count (`P`, always even ≥ 4).
pub(crate) fn partitions(kernels: u32) -> u32 {
    (2 * kernels).max(4) & !1
}

/// Thread ids of a QSORT program.
pub struct QsortIds {
    /// Array initialization (scalar).
    pub init: ThreadId,
    /// Partition sorters (arity `P`).
    pub sort: ThreadId,
    /// Pair-merge levels, outermost first: one, of arity `P/2`, in the
    /// shipped shape.
    pub levels: Vec<ThreadId>,
    /// Final merge (scalar).
    pub fin: ThreadId,
}

/// Build the DDM program: the shipped merge tree, of depth 1.
pub fn program(p: &Params) -> (DdmProgram, QsortIds) {
    program_with_depth(p, 1)
}

/// Build a QSORT program with a merge tree of configurable depth — the
/// §6.1.2 exploration: "Trees of bigger depth would result in higher
/// parallelism but may not be always beneficial as the number of steps
/// would increase as well." Depth 1 is the paper's shipped configuration
/// ([`program`]: one pair-merge level, then the final k-way merge); this
/// generalization lets the harness sweep it.
///
/// Level `l` has `P / 2^l` pair-mergers; the final level is a scalar
/// merging the remaining runs. `depth` counts the pair-merge levels (0 =
/// sort then one big k-way merge).
pub fn program_with_depth(p: &Params, depth: u32) -> (DdmProgram, QsortIds) {
    let parts = partitions(p.kernels);
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let init = b.thread(blk, ThreadSpec::scalar("qsort.init"));
    let sort = b.thread(blk, ThreadSpec::new("qsort.sort", parts));
    b.arc(init, sort, ArcMapping::Broadcast).expect("arc");
    let mut levels = Vec::new();
    let mut prev = sort;
    let mut width = parts;
    for l in 0..depth {
        if width < 2 {
            break;
        }
        let next_width = width.div_ceil(2);
        let level = b.thread(
            blk,
            ThreadSpec::new(format!("qsort.merge.l{l}"), next_width),
        );
        b.arc(prev, level, ArcMapping::Group { factor: 2 })
            .expect("arc");
        levels.push(level);
        prev = level;
        width = next_width;
    }
    let fin = b.thread(blk, ThreadSpec::scalar("qsort.final"));
    if width > 1 {
        b.arc(prev, fin, ArcMapping::Reduction).expect("arc");
    } else {
        b.arc(prev, fin, ArcMapping::OneToOne).expect("arc");
    }
    (
        b.build().expect("qsort program"),
        QsortIds {
            init,
            sort,
            levels,
            fin,
        },
    )
}

/// Partition bounds of sorter `ctx` over `n` elements in `parts` parts.
fn part_bounds(n: usize, parts: u32, ctx: u32) -> (usize, usize) {
    let per = n.div_ceil(parts as usize);
    let lo = (ctx as usize * per).min(n);
    let hi = (lo + per).min(n);
    (lo, hi)
}

/// Merge two sorted runs; on ties `a`'s element comes first. Each step
/// writes the smaller head and advances its run by the comparison's result,
/// so the loop has no data-dependent branch to mispredict.
pub fn merge2way<T: Copy + PartialOrd>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        let take_a = x <= y;
        out.push(if take_a { x } else { y });
        i += usize::from(take_a);
        j += usize::from(!take_a);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Merge sorted runs pairwise: a balanced tree of [`merge2way`] calls, so
/// two runs take one call and no element passes through more than
/// `⌈log2(runs)⌉` merges (the final DThread's algorithm, and the cost the
/// model charges).
pub fn merge_runs(runs: &[&[i32]]) -> Vec<i32> {
    match runs {
        [] => Vec::new(),
        [r] => r.to_vec(),
        [a, b] => merge2way(a, b),
        _ => {
            let (a, b) = runs.split_at(runs.len() / 2);
            merge2way(&merge_runs(a), &merge_runs(b))
        }
    }
}

/// Run QSORT on the real runtime; returns the sorted array.
pub fn run_ddm(p: &Params) -> Vec<i32> {
    let n = qsort_n(p.size, p.platform);
    let parts = partitions(p.kernels);
    let (prog, ids) = program(p);

    let data = SharedVar::<Vec<i32>>::scalar();
    let sorted = SharedVar::<Vec<i32>>::new(parts);
    let m1 = SharedVar::<Vec<i32>>::new(parts / 2);
    let fin = SharedVar::<Vec<i32>>::scalar();

    let mut bodies = BodyTable::new(&prog);
    let (dref, sref, m1ref, fref) = (&data, &sorted, &m1, &fin);
    bodies.set(ids.init, move |_| {
        dref.put(Context(0), input(n));
    });
    bodies.set(ids.sort, move |ctx| {
        let (lo, hi) = part_bounds(n, parts, ctx.context.0);
        let mut v = dref.value()[lo..hi].to_vec();
        v.sort_unstable();
        sref.put(ctx.context, v);
    });
    bodies.set(ids.levels[0], move |ctx| {
        let g = ctx.context.0;
        let a = sref.get(Context(2 * g));
        let b = sref.get(Context(2 * g + 1));
        m1ref.put(ctx.context, merge2way(a, b));
    });
    bodies.set(ids.fin, move |_| {
        let runs: Vec<&[i32]> = m1ref.iter().map(Vec::as_slice).collect();
        fref.put(Context(0), merge_runs(&runs));
    });

    Runtime::new(RuntimeConfig::with_kernels(p.kernels))
        .run(&prog, &bodies)
        .expect("qsort run");
    drop(bodies);
    fin.into_values().remove(0).expect("final produced")
}

/// Comparison cost (cycles) per element per quicksort pass. MiBench's
/// qsort benchmarks compare records through a callback (string / 3-D
/// vector distance), so a comparison is tens of cycles, not one.
const CYCLES_PER_CMP: u64 = 45;
/// Cycles per element merged per merge level (compare + copy; merging
/// compares keys directly, without the record-compare callback).
const CYCLES_PER_MERGE: u64 = 12;
/// Cycles per element initialized (PRNG + store).
const CYCLES_PER_INIT: u64 = 10;

/// How much slower branchy, pointer-chasing scalar code runs on an SPE
/// than on the PPE: the SPE has no branch predictor and no scalar
/// load/store path, so quicksort-style code pays a heavy penalty (~2x). The
/// sequential baseline runs on the PPE (the paper's baseline uses "the
/// same processor", i.e. the Cell's general-purpose core, so it pays × 1),
/// which is why the paper's Cell QSORT speedups stay at 1.3–2.1 even on 6
/// SPEs.
pub(crate) const SPE_SCALAR_PENALTY: u64 = 2;

/// The DDM decomposition's Cell constants: its threads run on SPEs.
const SPE: CellCosts = CellCosts {
    spe_scale: SPE_SCALAR_PENALTY,
    ls_fixed: 32 * 1024,
};

/// Cost description of a merge tree of any depth. The array lives at
/// 256 MB; merge scratch at 512 MB; final output at 768 MB. On the Cell
/// every touch is Local-Store resident, so the final merge must hold the
/// whole array (in + out) — the reason the paper caps Cell QSORT at 12 K
/// elements.
pub struct QsortModel {
    n: usize,
    parts: u32,
    ids: QsortIds,
    arr: Region,
    scratch: Region,
    fin: Region,
}

/// Build the cost model.
pub fn model(p: &Params, ids: QsortIds) -> Costed<QsortModel> {
    Costed(QsortModel {
        n: qsort_n(p.size, p.platform),
        parts: partitions(p.kernels),
        ids,
        arr: Region::new(0x1000_0000, 4),
        scratch: Region::new(0x2000_0000, 4),
        fin: Region::new(0x3000_0000, 4),
    })
}

impl Describe for QsortModel {
    const CELL: CellCosts = SPE;

    fn describe<S: Sink>(&self, inst: Instance, out: &mut S) {
        let n = self.n as u64;
        if inst.thread == self.ids.init {
            // one core writes the whole array — the §6.2.2 communication
            // trade-off source
            self.arr.scan(out, 0, n, true);
            out.compute(n * CYCLES_PER_INIT);
        } else if inst.thread == self.ids.sort {
            let (lo, hi) = part_bounds(self.n, self.parts, inst.context.0);
            let m = (hi - lo) as u64;
            let passes = (64 - m.leading_zeros() as u64).max(1);
            for _ in 0..passes {
                self.arr.scan(out, lo as u64, hi as u64, false);
                self.arr.scan(out, lo as u64, hi as u64, true);
            }
            // ~1.4 n log n compare-swaps for randomized quicksort
            out.compute(m * passes * CYCLES_PER_CMP * 7 / 5);
        } else if let Some(level) = self.ids.levels.iter().position(|&l| l == inst.thread) {
            // a level-l merger merges 2^(l+1) original partitions
            let span = 1u64 << (level as u64 + 1);
            let per = n.div_ceil(self.parts as u64);
            let lo = inst.context.0 as u64 * span * per;
            let hi = ((inst.context.0 as u64 + 1) * span * per).min(n);
            let m = hi.saturating_sub(lo);
            self.arr.scan(out, lo, hi, false);
            self.scratch.scan(out, lo, hi, true);
            out.compute(m * CYCLES_PER_MERGE);
        } else if inst.thread == self.ids.fin {
            // pairwise merge of the runs: log2(runs) merge levels per element
            let mut runs = self.parts;
            for _ in 0..self.ids.levels.len() {
                runs = runs.div_ceil(2);
            }
            let runs = runs.max(1) as u64;
            let log_runs = (64 - (runs.max(2) - 1).leading_zeros() as u64).max(1);
            self.scratch.scan(out, 0, n, false);
            self.fin.scan(out, 0, n, true);
            out.compute(n * CYCLES_PER_MERGE * log_runs);
        }
    }
}

/// The *original sequential program* model (the paper's baseline, §5:
/// "the baseline program is the original sequential one"): init plus one
/// full-array quicksort — note this does strictly *less* total work than
/// the DDM decomposition, which adds the merge phases. On the Cell it runs
/// on the PPE, at the default `spe_scale` of 1.
pub(crate) struct QsortSeqModel {
    n: usize,
    work: ThreadId,
    arr: Region,
}

/// Build the sequential-baseline program (a single scalar thread) and its
/// model.
pub(crate) fn seq_sim_program(p: &Params) -> (DdmProgram, Costed<QsortSeqModel>) {
    let n = qsort_n(p.size, p.platform);
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let work = b.thread(blk, ThreadSpec::scalar("qsort.seq"));
    (
        b.build().expect("qsort seq program"),
        Costed(QsortSeqModel {
            n,
            work,
            arr: Region::new(0x1000_0000, 4),
        }),
    )
}

impl Describe for QsortSeqModel {
    fn describe<S: Sink>(&self, inst: Instance, out: &mut S) {
        if inst.thread != self.work {
            return;
        }
        let n = self.n as u64;
        // init
        self.arr.scan(out, 0, n, true);
        // full-array quicksort: ~1.4 n log2 n record compares
        let passes = (64 - n.leading_zeros() as u64).max(1);
        for _ in 0..passes {
            self.arr.scan(out, 0, n, false);
            self.arr.scan(out, 0, n, true);
        }
        out.compute(n * CYCLES_PER_INIT + n * passes * CYCLES_PER_CMP * 7 / 5);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::{Platform, SizeClass};
    use tflux_cell::work::CellWorkSource;
    use tflux_sim::work::InstanceWork;

    #[test]
    fn ddm_sorts_correctly() {
        let p = Params::cell(3, 1, SizeClass::Small); // 3K elements: fast
        let result = run_ddm(&p);
        assert_eq!(result, seq(qsort_n(SizeClass::Small, Platform::Cell)));
    }

    #[test]
    fn ddm_matches_for_every_kernel_count() {
        for k in [1u32, 2, 5] {
            let p = Params::cell(k, 1, SizeClass::Small);
            assert_eq!(
                run_ddm(&p),
                seq(qsort_n(SizeClass::Small, Platform::Cell)),
                "kernels={k}"
            );
        }
    }

    #[test]
    fn merge_helpers_are_correct() {
        assert_eq!(merge2way(&[1, 4, 6], &[2, 3, 7]), vec![1, 2, 3, 4, 6, 7]);
        assert_eq!(
            merge_runs(&[&[5, 9], &[1, 6], &[2, 3]]),
            vec![1, 2, 3, 5, 6, 9]
        );
        assert_eq!(merge2way(&[], &[1]), vec![1]);
    }

    #[test]
    fn partitions_are_even() {
        for k in 1..30 {
            let p = partitions(k);
            assert!(p >= 4 && p.is_multiple_of(2), "k={k} p={p}");
        }
    }

    #[test]
    fn part_bounds_cover_array() {
        let n = 10_007;
        let parts = 8;
        let mut covered = 0;
        for c in 0..parts {
            let (lo, hi) = part_bounds(n, parts, c);
            covered += hi - lo;
        }
        assert_eq!(covered, n);
    }

    #[test]
    fn sim_model_init_writes_whole_array() {
        let p = Params::hard(4, 1, SizeClass::Small);
        let (_, ids) = program(&p);
        let Costed(src) = model(&p, ids);
        let mut w = InstanceWork::default();
        src.describe(Instance::scalar(src.ids.init), &mut w);
        // 10K ints = 40KB = 625 lines
        assert_eq!(w.accesses.len(), 625);
        assert!(w.accesses.iter().all(|a| a.write));
    }

    #[test]
    fn tree_depth_shapes_the_merge_levels() {
        let p = Params::hard(8, 1, SizeClass::Small); // parts = 16
        for depth in 0..5 {
            let (prog, ids) = program_with_depth(&p, depth);
            assert_eq!(ids.levels.len() as u32, depth.min(4));
            // program drains
            let tsu = tflux_core::Tsu::new(&prog, 4, tflux_core::TsuConfig::default());
            let order = tflux_core::drain_sequential(&tsu).unwrap();
            assert_eq!(order.len(), prog.total_instances(), "depth {depth}");
        }
        // depth 2 adds a P/4 level under the P/2 one
        let (prog2, ids2) = program_with_depth(&p, 2);
        assert_eq!(prog2.thread(ids2.levels[0]).arity, 8);
        assert_eq!(prog2.thread(ids2.levels[1]).arity, 4);
        // the shipped shape is depth 1: P/2 pair-mergers
        let (prog1, ids1) = program(&p);
        assert_eq!(ids1.levels.len(), 1);
        assert_eq!(prog1.thread(ids1.levels[0]).arity, 8);
    }

    #[test]
    fn deeper_trees_move_more_memory_but_same_comparisons() {
        // Total comparisons are ~n log P for any tree shape (the final
        // pairwise merge and the pair-merge levels are both log-factor), but
        // every extra level re-streams the whole array through memory —
        // the "number of steps would increase" cost the paper names.
        let p = Params::hard(8, 1, SizeClass::Small);
        let mut accesses = Vec::new();
        for depth in [0u32, 2, 4] {
            let (prog, ids) = program_with_depth(&p, depth);
            let Costed(src) = model(&p, ids);
            let mut acc = 0usize;
            for t in 0..prog.threads().len() {
                let t = ThreadId(t as u32);
                for c in 0..prog.thread(t).arity {
                    let mut w = InstanceWork::default();
                    src.describe(Instance::new(t, Context(c)), &mut w);
                    acc += w.accesses.len();
                }
            }
            accesses.push(acc);
        }
        assert!(accesses[1] > accesses[0], "{accesses:?}");
        assert!(accesses[2] > accesses[1], "{accesses:?}");
    }

    #[test]
    fn cell_large_native_size_overflows_local_store() {
        // what the paper could NOT run: 50K elements through the Cell path
        let p = Params {
            kernels: 6,
            unroll: 1,
            size: SizeClass::Large,
            platform: Platform::Native, // force native size through cell model
        };
        let (_, ids) = program(&p);
        let src = model(&p, ids);
        let w = CellWorkSource::work(&src, Instance::scalar(src.0.ids.fin));
        assert!(w.ls_bytes > 256 * 1024, "{}", w.ls_bytes);
        // while the Cell-table sizes fit
        let pc = Params::cell(6, 1, SizeClass::Large);
        let (_, ids) = program(&pc);
        let srcc = model(&pc, ids);
        let wc = CellWorkSource::work(&srcc, Instance::scalar(srcc.0.ids.fin));
        assert!(wc.ls_bytes <= 256 * 1024, "{}", wc.ls_bytes);
    }
}
