//! `server_mix`: a stream of small programs through `ProgramServer`.
//!
//! Why: the server drives the same TSU units as `Runtime::run` but uses
//! them differently: `Arc` arenas per tenant, the service rotor,
//! admission, and a persistent kernel pool with no launch/join per
//! program. A gain for `Runtime::run` that costs the server shows here.
//!
//! Load: one submitter thread, closed loop with 8 programs outstanding
//! (`max_resident` 8). Programs have 1–2 blocks of `work(16..=64) → sink`,
//! weight 1–3; every 10th is a `.stream(8)` tenant. A pass is one batch;
//! a latency sample is one program, submit → `Admission::wait` returns.
//!
//! Oracle: each program's per-block sums in closed form from its key.

use super::{ms, ratio, timed, LayerMetrics, Pass, Workload, KERNELS};
use crate::api::{
    self, Admission, ArcMapping, BodyTable, DdmProgram, ProgramBuilder, ProgramServer, ThreadId,
    ThreadSpec,
};
use crate::gen::{mix, Rng};
use crate::stats::{median, quiet};
use crate::trace::Tracer;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

const OUTSTANDING: usize = 8;
const BATCH: usize = 1000;
const STREAM_EVERY: usize = 10;
const STREAM_EPOCHS: u64 = 8;
const SHAPES: usize = 64;
/// Inline recomputations of a batch per pass; the quiet one is kept.
const SEQ_REPEATS: usize = 10;

/// A program shape shared by many submissions.
struct Shape {
    program: Arc<DdmProgram>,
    /// Per block: `(work, sink, arity, first cell)`.
    blocks: Vec<(ThreadId, ThreadId, u32, usize)>,
    cells: usize,
}

fn shape(tr: &mut Tracer, rng: &mut Rng) -> Shape {
    let mut b = ProgramBuilder::new();
    let mut blocks = Vec::new();
    let mut cells = 0usize;
    for _ in 0..rng.range(1, 2) {
        let blk = b.block();
        let arity = rng.range(16, 64) as u32;
        let work = b.thread(blk, ThreadSpec::new("work", arity));
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        b.arc(work, sink, ArcMapping::Reduction)
            .expect("generated arcs are valid");
        blocks.push((work, sink, arity, cells));
        cells += arity as usize;
    }
    let program = tr
        .span("core.build", |_| b.build())
        .expect("generated programs are valid");
    Shape {
        program: Arc::new(program),
        blocks,
        cells,
    }
}

fn value(key: u64, block: usize, c: u32) -> u64 {
    mix(key, ((block as u64) << 32) | u64::from(c))
}

/// The closed form: what block `block` of a program keyed `key` sums to.
fn block_sum(key: u64, block: usize, arity: u32) -> u64 {
    (0..arity).fold(0u64, |s, c| s.wrapping_add(value(key, block, c)))
}

/// What one submitted program writes, shared with its bodies.
struct Tenant {
    cells: Vec<AtomicU64>,
    /// Per block: the sum its sink saw the last time it ran.
    sums: Vec<AtomicU64>,
    sink_runs: AtomicU64,
}

struct InFlight {
    adm: Admission,
    tenant: Arc<Tenant>,
    shape: usize,
    key: u64,
    epochs: u64,
    submitted: Instant,
}

pub struct ServerMix {
    /// Dropping it drains and joins the pool, as `shutdown` does.
    server: ProgramServer,
    shapes: Vec<Shape>,
    rng: Rng,
    /// What one batch holds, for the sequential reference: `(shape, key, epochs)`.
    last_batch: Vec<(usize, u64, u64)>,
    /// Per pass: inline computation of the batch's sums ÷ batch time.
    speedups: Vec<f64>,
    programs: u64,
    executed: u64,
}

impl ServerMix {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let mut rng = Rng::new(seed);
        let shapes = tr.span("gen.programs", |tr| {
            (0..SHAPES).map(|_| shape(tr, &mut rng)).collect()
        });
        let server = tr.span("server.start", |_| api::server_start(KERNELS, OUTSTANDING));
        Ok(ServerMix {
            server,
            shapes,
            rng,
            last_batch: Vec::new(),
            speedups: Vec::new(),
            programs: 0,
            executed: 0,
        })
    }

    fn submit(&mut self, tr: &mut Tracer, n: usize) -> Result<InFlight, String> {
        let shape_no = self.rng.range(0, SHAPES as u64 - 1) as usize;
        let key = self.rng.next();
        let weight = self.rng.range(1, 3) as u32;
        let epochs = if n % STREAM_EVERY == STREAM_EVERY - 1 {
            STREAM_EPOCHS
        } else {
            1
        };
        let shape = &self.shapes[shape_no];
        let tenant = Arc::new(Tenant {
            cells: (0..shape.cells).map(|_| AtomicU64::new(0)).collect(),
            sums: shape.blocks.iter().map(|_| AtomicU64::new(0)).collect(),
            sink_runs: AtomicU64::new(0),
        });
        let mut bodies = BodyTable::new(&shape.program);
        for (blk, &(work, sink, arity, first)) in shape.blocks.iter().enumerate() {
            let t = Arc::clone(&tenant);
            // fetch_add, not store: a streaming tenant runs each body once
            // per epoch and the final check counts every one of them
            bodies.set(work, move |ctx| {
                t.cells[first + ctx.context.0 as usize]
                    .fetch_add(value(key, blk, ctx.context.0), Relaxed);
            });
            let t = Arc::clone(&tenant);
            bodies.set(sink, move |_| {
                let sum = t.cells[first..first + arity as usize]
                    .iter()
                    .fold(0u64, |s, c| s.wrapping_add(c.load(Relaxed)));
                t.sums[blk].store(sum, Relaxed);
                t.sink_runs.fetch_add(1, Relaxed);
            });
        }
        let submission = api::submission(Arc::clone(&shape.program), bodies, weight, epochs);
        let submitted = Instant::now();
        let adm = tr.span("server.submit", |_| {
            api::server_submit(&self.server, submission)
        })?;
        self.last_batch.push((shape_no, key, epochs));
        Ok(InFlight {
            adm,
            tenant,
            shape: shape_no,
            key,
            epochs,
            submitted,
        })
    }

    /// Wait for one program and check everything it wrote.
    fn reap(&mut self, tr: &mut Tracer, p: InFlight, pass: &mut Pass) {
        let done = tr.span("server.wait", |_| api::server_wait(p.adm));
        pass.latency_ms.push(ms(p.submitted.elapsed()));
        let shape = &self.shapes[p.shape];
        let ok = match done {
            Err(_) => false,
            Ok(executed) => {
                self.executed += executed;
                let t = &p.tenant;
                t.sink_runs.load(Relaxed) == p.epochs * shape.blocks.len() as u64
                    && shape
                        .blocks
                        .iter()
                        .enumerate()
                        .all(|(blk, &(_, _, arity, first))| {
                            let want = block_sum(p.key, blk, arity).wrapping_mul(p.epochs);
                            let cells = t.cells[first..first + arity as usize]
                                .iter()
                                .fold(0u64, |s, c| s.wrapping_add(c.load(Relaxed)));
                            // a one-shot sink must have seen every producer; a
                            // streaming one is checked on the final cell state
                            cells == want && (p.epochs > 1 || t.sums[blk].load(Relaxed) == want)
                        })
            }
        };
        pass.check(ok);
    }

    /// The same sums the batch's bodies computed, inline on this thread.
    fn seq_reference(&self) -> u64 {
        self.last_batch
            .iter()
            .fold(0u64, |acc, &(shape, key, epochs)| {
                (0..epochs).fold(acc, |acc, _| {
                    self.shapes[shape].blocks.iter().enumerate().fold(
                        acc,
                        |acc, (blk, &(_, _, arity, _))| {
                            acc.wrapping_add(block_sum(key, blk, arity))
                        },
                    )
                })
            })
    }
}

impl Workload for ServerMix {
    fn passes_per_10s(&self) -> u32 {
        60
    }

    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        self.last_batch.clear();
        let mut flying: VecDeque<InFlight> = VecDeque::with_capacity(OUTSTANDING);
        let t0 = Instant::now();
        for n in 0..BATCH {
            if flying.len() == OUTSTANDING {
                let p = flying.pop_front().expect("non-empty");
                self.reap(tr, p, &mut pass);
            }
            match self.submit(tr, n) {
                Ok(p) => flying.push_back(p),
                Err(_) => pass.check(false),
            }
        }
        while let Some(p) = flying.pop_front() {
            self.reap(tr, p, &mut pass);
        }
        let batch = t0.elapsed();
        pass.part(batch);
        pass.work = BATCH as u64;
        self.programs += BATCH as u64;
        // the sequential program: the same sums inline, right after the
        // batch so both see the same host
        let seq: Vec<f64> = (0..SEQ_REPEATS)
            .map(|_| {
                timed(|| std::hint::black_box(self.seq_reference()))
                    .1
                    .as_secs_f64()
            })
            .collect();
        self.speedups.push(quiet(&seq) / batch.as_secs_f64());
        pass
    }

    /// Time to compute one batch's sums inline over the time the server
    /// took for it, per pass, then the median over passes: far below 1,
    /// since each program is a few microseconds of bodies.
    fn speedup_vs_seq(&mut self) -> f64 {
        median(&self.speedups)
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut LayerMetrics) {
        out.set("server.submit_us", tr.layer("server.submit").per_call_us());
        out.set("core.build_us", tr.layer("core.build").per_call_us());
        out.set(
            "server.executed_per_program",
            ratio(self.executed as f64, self.programs as f64),
        );
        out.set("core.total_instances", self.executed as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_batch_is_served_and_checked() {
        let mut w = ServerMix::setup(5, &mut Tracer::new(false)).unwrap();
        let p = w.pass(&mut Tracer::new(false));
        assert_eq!((p.attempted, p.failed), (BATCH as u64, 0));
        assert_eq!(p.latency_ms.len(), BATCH);
        assert_eq!(
            w.last_batch.iter().filter(|b| b.2 == STREAM_EPOCHS).count(),
            BATCH / STREAM_EVERY
        );
        assert!(w.speedup_vs_seq() > 0.0);
    }

    #[test]
    fn a_wrong_sum_is_caught() {
        let mut w = ServerMix::setup(5, &mut Tracer::new(false)).unwrap();
        let tr = &mut Tracer::new(false);
        let mut p = w.submit(tr, 0).unwrap();
        p.key ^= 1; // the oracle now expects another program's sums
        let mut pass = Pass::default();
        w.reap(tr, p, &mut pass);
        assert_eq!((pass.attempted, pass.failed), (1, 1));
    }
}
