//! `soft_fine`: `Runtime::run` on generated programs whose bodies take
//! about 50 ns, plus TRAPEZ at unroll 16.
//!
//! Why: at ~250–500 ns per DThread nearly all of the time is fetch,
//! complete, steal, park and TUB traffic, so this is where a runtime or
//! `core::tsu` optimisation must show. Four shapes stress different parts:
//! `pipeline` (OneToOne chains), `multiblock` (Inlet/Outlet hop the TUB 32
//! times), `fanout_reduce` (65 536 completions into one sink slot) and
//! `merge_tree` (Group(2) levels that starve the kernels near the root).
//!
//! Oracle: the same bodies replayed in dependency order on this thread,
//! with no runtime involved; the replay is also the body time that the
//! overhead metrics subtract.

use super::{ms, ratio, timed, LayerMetrics, Pass, Workload, KERNELS};
use crate::api::{
    self, ArcMapping, Bench, BodyTable, DdmProgram, ProgramBuilder, SizeClass, SoftCounters,
    ThreadId, ThreadSpec,
};
use crate::gen::{mix, Rng};
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// What one DThread template's instances compute over the cell array
/// (every value but a `Sum` then goes through `BODY_ROUNDS` more `mix`es).
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `cells[out + c] = mix(key, salt + c)`
    Source { out: usize, salt: u64 },
    /// `cells[out + c] = mix(cells[inp + c], salt)`
    Map { inp: usize, out: usize, salt: u64 },
    /// `cells[out + c] = mix(cells[inp + 2c], cells[inp + 2c + 1])`; a
    /// missing right sibling reads as 0.
    Pair { inp: usize, len: usize, out: usize },
    /// `cells[out] = Σ cells[inp .. inp + len]` (wrapping)
    Sum { inp: usize, len: usize, out: usize },
}

/// A generated program: graph, per-thread ops in dependency order, and
/// the cells its bodies read and write.
struct Fine {
    span: &'static str,
    program: DdmProgram,
    /// `(thread, arity, op)` in an order that respects every arc.
    stages: Vec<(ThreadId, u32, Op)>,
    key: u64,
    cells: Vec<AtomicU64>,
    /// Cells whose wrapping sum is the program's result.
    result: (usize, usize),
    expected: u64,
    replay_ms: Vec<f64>,
}

/// `mix` rounds per body: about 50 ns, inside the ≤100 ns the workload is
/// specified at, and enough compute that the sequential replay's time
/// does not hinge on where the allocator happened to put the cells.
const BODY_ROUNDS: u64 = 24;

impl Fine {
    fn exec(&self, op: Op, c: usize) {
        let cell = |i: usize| self.cells[i].load(Relaxed);
        let (out, v) = match op {
            Op::Sum { inp, len, out } => {
                let sum = (inp..inp + len).fold(0u64, |s, i| s.wrapping_add(cell(i)));
                self.cells[out].store(sum, Relaxed);
                return;
            }
            Op::Source { out, salt } => (out + c, mix(self.key, salt + c as u64)),
            Op::Map { inp, out, salt } => (out + c, mix(cell(inp + c), salt)),
            Op::Pair { inp, len, out } => {
                let right = if 2 * c + 1 < len {
                    cell(inp + 2 * c + 1)
                } else {
                    0
                };
                (out + c, mix(cell(inp + 2 * c), right))
            }
        };
        self.cells[out].store((1..BODY_ROUNDS).fold(v, mix), Relaxed);
    }

    fn clear(&self) {
        for c in &self.cells {
            c.store(0, Relaxed);
        }
    }

    fn checksum(&self) -> u64 {
        let (start, len) = self.result;
        (start..start + len).fold(0u64, |s, i| s.wrapping_add(self.cells[i].load(Relaxed)))
    }

    /// Every body once, in dependency order, on the calling thread.
    fn replay(&self) -> u64 {
        for &(_, arity, op) in &self.stages {
            for c in 0..arity as usize {
                self.exec(op, c);
            }
        }
        self.checksum()
    }

    fn bodies(&self) -> BodyTable<'_> {
        let mut bodies = BodyTable::new(&self.program);
        for &(t, _, op) in &self.stages {
            bodies.set(t, move |ctx| self.exec(op, ctx.context.0 as usize));
        }
        bodies
    }
}

/// Incremental construction of a [`Fine`]: threads are added in
/// dependency order, so `stages` is a valid sequential schedule.
struct FineBuilder {
    b: ProgramBuilder,
    stages: Vec<(ThreadId, u32, Op)>,
    cells: usize,
}

impl FineBuilder {
    fn new() -> Self {
        FineBuilder {
            b: ProgramBuilder::new(),
            stages: Vec::new(),
            cells: 0,
        }
    }

    /// Reserve `n` cells; returns the index of the first.
    fn alloc(&mut self, n: usize) -> usize {
        let at = self.cells;
        self.cells += n;
        at
    }

    fn thread(&mut self, blk: api::BlockId, name: &str, arity: u32, op: Op) -> ThreadId {
        let t = self.b.thread(blk, ThreadSpec::new(name, arity));
        self.stages.push((t, arity, op));
        t
    }

    fn arc(&mut self, from: ThreadId, to: ThreadId, m: ArcMapping) {
        self.b.arc(from, to, m).expect("generated arcs are valid");
    }

    fn finish(self, tr: &mut Tracer, span: &'static str, key: u64, result: (usize, usize)) -> Fine {
        let program = tr
            .span("core.build", |_| self.b.build())
            .expect("generated programs are valid");
        let mut f = Fine {
            span,
            program,
            stages: self.stages,
            key,
            cells: (0..self.cells).map(|_| AtomicU64::new(0)).collect(),
            result,
            expected: 0,
            replay_ms: Vec::new(),
        };
        f.expected = f.replay();
        f
    }
}

/// 8 OneToOne layers × 4096.
fn pipeline(tr: &mut Tracer, key: u64) -> Fine {
    const N: u32 = 4096;
    let mut g = FineBuilder::new();
    let blk = g.b.block();
    let mut at = g.alloc(N as usize);
    let mut prev = g.thread(blk, "layer0", N, Op::Source { out: at, salt: 0 });
    for k in 1..8u64 {
        let out = g.alloc(N as usize);
        let t = g.thread(
            blk,
            "layer",
            N,
            Op::Map {
                inp: at,
                out,
                salt: k,
            },
        );
        g.arc(prev, t, ArcMapping::OneToOne);
        (prev, at) = (t, out);
    }
    g.finish(tr, "runtime.run.pipeline", key, (at, N as usize))
}

/// 32 blocks × 2 threads × 256, chained through the block order, + a sink.
fn multiblock(tr: &mut Tracer, key: u64) -> Fine {
    const N: u32 = 256;
    let mut g = FineBuilder::new();
    let mut carry: Option<usize> = None;
    let mut last = None;
    for blk_no in 0..32u64 {
        let blk = g.b.block();
        let a_out = g.alloc(N as usize);
        let a_op = match carry {
            None => Op::Source {
                out: a_out,
                salt: 0,
            },
            // reads the previous block's output: safe only because the
            // Outlet → Inlet hand-over orders the blocks
            Some(inp) => Op::Map {
                inp,
                out: a_out,
                salt: 2 * blk_no,
            },
        };
        let a = g.thread(blk, "a", N, a_op);
        let b_out = g.alloc(N as usize);
        let b = g.thread(
            blk,
            "b",
            N,
            Op::Map {
                inp: a_out,
                out: b_out,
                salt: 2 * blk_no + 1,
            },
        );
        g.arc(a, b, ArcMapping::OneToOne);
        carry = Some(b_out);
        last = Some((blk, b, b_out));
    }
    let (blk, b, b_out) = last.expect("32 blocks");
    let out = g.alloc(1);
    let sink = g.thread(
        blk,
        "sink",
        1,
        Op::Sum {
            inp: b_out,
            len: N as usize,
            out,
        },
    );
    g.arc(b, sink, ArcMapping::Reduction);
    g.finish(tr, "runtime.run.multiblock", key, (out, 1))
}

/// 8 threads × 8192 into one Reduction sink: the hot-sink funnel.
fn fanout_reduce(tr: &mut Tracer, key: u64) -> Fine {
    const N: u32 = 8192;
    let mut g = FineBuilder::new();
    let blk = g.b.block();
    let base = g.alloc(8 * N as usize);
    let workers: Vec<ThreadId> = (0..8usize)
        .map(|w| {
            let op = Op::Source {
                out: base + w * N as usize,
                salt: (w as u64) << 32,
            };
            g.thread(blk, "fan", N, op)
        })
        .collect();
    let out = g.alloc(1);
    let sink = g.thread(
        blk,
        "sink",
        1,
        Op::Sum {
            inp: base,
            len: 8 * N as usize,
            out,
        },
    );
    for w in workers {
        g.arc(w, sink, ArcMapping::Reduction);
    }
    g.finish(tr, "runtime.run.fanout_reduce", key, (out, 1))
}

/// 4096 leaves merged pairwise through Group(2) levels down to one root.
fn merge_tree(tr: &mut Tracer, key: u64) -> Fine {
    let mut g = FineBuilder::new();
    let blk = g.b.block();
    let mut len = 4096usize;
    let mut at = g.alloc(len);
    let mut prev = g.thread(blk, "leaf", len as u32, Op::Source { out: at, salt: 0 });
    while len > 1 {
        let next = len.div_ceil(2);
        let out = g.alloc(next);
        let t = g.thread(blk, "merge", next as u32, Op::Pair { inp: at, len, out });
        g.arc(prev, t, ArcMapping::Group { factor: 2 });
        (prev, at, len) = (t, out, next);
    }
    g.finish(tr, "runtime.run.merge_tree", key, (at, 1))
}

const TRAPEZ_SIZE: SizeClass = SizeClass::Small;
const TRAPEZ_UNROLL: u32 = 16;

pub struct SoftFine {
    fines: Vec<Fine>,
    trapez: api::Params,
    trapez_instances: u64,
    /// Per pass: geomean over the five parts of sequential ÷ runtime time.
    speedups: Vec<f64>,
    /// Summed over the generated programs' runs (TRAPEZ hides its report).
    counters: SoftCounters,
    outer: Duration,
    replay: Duration,
    runs: u64,
}

impl SoftFine {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let mut rng = Rng::new(seed);
        let fines = tr.span("gen.programs", |tr| {
            vec![
                pipeline(tr, rng.next()),
                multiblock(tr, rng.next()),
                fanout_reduce(tr, rng.next()),
                merge_tree(tr, rng.next()),
            ]
        });
        let trapez = api::native_params_unroll(KERNELS, TRAPEZ_UNROLL, TRAPEZ_SIZE);
        Ok(SoftFine {
            fines,
            trapez_instances: api::paper_instances(Bench::Trapez, &trapez) as u64,
            trapez,
            speedups: Vec::new(),
            counters: SoftCounters::default(),
            outer: Duration::ZERO,
            replay: Duration::ZERO,
            runs: 0,
        })
    }

    fn instances(&self) -> u64 {
        self.fines
            .iter()
            .map(|f| f.program.total_instances() as u64)
            .sum::<u64>()
            + self.trapez_instances
    }
}

impl Workload for SoftFine {
    fn passes_per_10s(&self) -> u32 {
        160
    }

    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut ratios = Vec::with_capacity(self.fines.len() + 1);
        // always in this order: the seed changes the values the bodies
        // compute, not the work or what runs after what
        for f in &mut self.fines {
            f.clear();
            let bodies = f.bodies();
            let (report, outer) =
                timed(|| tr.span(f.span, |_| api::soft_run(KERNELS, &f.program, &bodies)));
            drop(bodies);
            match report {
                Ok(c) => {
                    pass.check(f.checksum() == f.expected);
                    self.counters += c;
                }
                Err(_) => pass.check(false),
            }
            f.clear();
            let (sum, replay) = timed(|| tr.span("bodies.replay", |_| f.replay()));
            debug_assert_eq!(sum, f.expected);
            f.replay_ms.push(ms(replay));
            self.outer += outer;
            self.replay += replay;
            self.runs += 1;
            ratios.push(replay.as_secs_f64() / outer.as_secs_f64());
            pass.part(outer);
        }
        let (got, ddm) = timed(|| {
            tr.span("workloads.trapez.run_ddm", |_| {
                api::paper_ddm(Bench::Trapez, &self.trapez)
            })
        });
        let (want, seq) = timed(|| {
            tr.span("workloads.seq", |_| {
                api::paper_seq(Bench::Trapez, TRAPEZ_SIZE)
            })
        });
        pass.check(got.matches(&want));
        ratios.push(seq.as_secs_f64() / ddm.as_secs_f64());
        pass.part(ddm);
        self.speedups.push(geomean(&ratios));
        pass.work = self.instances();
        pass
    }

    /// Geometric mean over the five parts of sequential time over runtime
    /// time within each pass, then the median over passes: well below 1
    /// at this grain, which is §5's point.
    fn speedup_vs_seq(&mut self) -> f64 {
        median(&self.speedups)
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut LayerMetrics) {
        out.set("core.build_us", tr.layer("core.build").per_call_us());
        let c = &self.counters;
        let executed = c.executed as f64;
        let kernel_ns = f64::from(KERNELS) * c.wall.as_nanos() as f64;
        let replay_ns = self.replay.as_nanos() as f64;
        out.set("core.total_instances", self.instances() as f64);
        out.set(
            "runtime.overhead_ns_per_dthread",
            ratio(kernel_ns - c.wait_ns as f64 - replay_ns, executed),
        );
        out.set("runtime.body_share", ratio(replay_ns, kernel_ns));
        out.set("runtime.wait_share", ratio(c.wait_ns as f64, kernel_ns));
        out.set(
            "runtime.launch_join_us",
            ratio(
                (self.outer.saturating_sub(c.wall)).as_secs_f64() * 1e6,
                self.runs as f64,
            ),
        );
        out.set(
            "runtime.steals_per_dthread",
            ratio(c.steals as f64, executed),
        );
        out.set(
            "runtime.steal_miss_ratio",
            ratio(c.steal_misses as f64, (c.steals + c.steal_misses) as f64),
        );
        out.set(
            "runtime.blocked_pops_per_dthread",
            ratio(c.blocked_pops as f64, executed),
        );
        out.set(
            "runtime.tub.pushes_per_block",
            ratio(c.tub_pushes as f64, c.blocks_loaded as f64),
        );
        out.set(
            "runtime.tub.busy_ratio",
            ratio(c.tub_busy_hits as f64, c.tub_pushes as f64),
        );
        out.set(
            "core.sync.rc_rmws_per_completion",
            ratio(c.rc_rmws as f64, c.completions as f64),
        );
        out.set(
            "core.sync.contended_per_completion",
            ratio(c.sm_contended as f64, c.completions as f64),
        );
        out.set(
            "soft.seq_ms",
            self.fines.iter().map(|f| median(&f.replay_ms)).sum(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_have_the_documented_sizes() {
        let tr = &mut Tracer::new(false);
        // application instances + one inlet and one outlet per block
        assert_eq!(pipeline(tr, 1).program.total_instances(), 8 * 4096 + 2);
        assert_eq!(
            multiblock(tr, 1).program.total_instances(),
            32 * (2 * 256 + 2) + 1
        );
        assert_eq!(
            fanout_reduce(tr, 1).program.total_instances(),
            8 * 8192 + 1 + 2
        );
        assert_eq!(
            merge_tree(tr, 1).program.total_instances(),
            2 * 4096 - 1 + 2
        );
    }

    #[test]
    fn the_runtime_reproduces_the_replay_and_the_key_matters() {
        let tr = &mut Tracer::new(false);
        let shapes: [fn(&mut Tracer, u64) -> Fine; 4] =
            [pipeline, multiblock, fanout_reduce, merge_tree];
        for make in shapes {
            let f = make(tr, 42);
            assert_ne!(f.expected, make(tr, 43).expected, "{}", f.span);
            f.clear();
            assert_eq!(f.checksum(), 0, "{}: clear leaves a stale result", f.span);
            let bodies = f.bodies();
            api::soft_run(KERNELS, &f.program, &bodies).unwrap();
            assert_eq!(f.checksum(), f.expected, "{}", f.span);
        }
    }

    #[test]
    fn a_pass_checks_every_part() {
        let mut w = SoftFine::setup(3, &mut Tracer::new(false)).unwrap();
        let p = w.pass(&mut Tracer::new(false));
        assert_eq!((p.attempted, p.failed, p.parts_ms.len()), (5, 0, 5));
        assert_eq!(p.work, w.instances());
        assert!(w.speedup_vs_seq() > 0.0);
    }
}
