//! Synchronization-graph analysis: work, span, ideal speedup, DOT export.
//!
//! These analyses operate at *instance* granularity so that loop threads and
//! instance mappings are accounted for exactly. Tests use them to check
//! that a DDM decomposition respects its theoretical speedup bound.

use crate::ids::{Context, Instance, ThreadId};
use crate::program::DdmProgram;
use crate::thread::ThreadKind;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Result of a work/span analysis of a program.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkSpan {
    /// Total work across all instances (sum of weights).
    pub work: f64,
    /// Critical-path length (longest weighted chain, blocks chained
    /// sequentially through their inlets/outlets).
    pub span: f64,
}

impl WorkSpan {
    /// The ideal speedup `work / span` (Brent's bound with unlimited
    /// kernels).
    pub fn ideal_speedup(&self) -> f64 {
        if self.span == 0.0 {
            1.0
        } else {
            self.work / self.span
        }
    }
}

/// Compute work and span of `program`, weighting each instance with
/// `weight(thread, context)`. Inlet/outlet instances participate (give them
/// zero or small weights to model TSU overheads).
pub fn work_span(
    program: &DdmProgram,
    mut weight: impl FnMut(ThreadId, Context) -> f64,
) -> WorkSpan {
    let mut work = 0.0f64;
    let mut total_span = 0.0f64;

    for block in program.blocks() {
        // longest path within the block over instances, walking the
        // block's threads (outlet last) in topological order
        let members: Vec<ThreadId> = block
            .threads
            .iter()
            .copied()
            .chain(std::iter::once(block.outlet))
            .collect();
        let order = topo_order(program, &members);
        // dist maps instance -> longest path *ending at* that instance.
        let mut dist: HashMap<Instance, f64> = HashMap::new();
        let mut block_span = 0.0f64;
        for t in order {
            let spec = program.thread(t);
            let arity = spec.arity;
            for c in 0..arity {
                let inst = Instance::new(t, Context(c));
                let w = weight(t, Context(c));
                work += w;
                let base = dist.get(&inst).copied().unwrap_or(0.0);
                let here = base + w;
                block_span = block_span.max(here);
                for arc in program.consumers(t) {
                    let ca = program.thread(arc.consumer).arity;
                    for cc in arc.mapping.consumers(Context(c), arity, ca) {
                        let e = dist.entry(Instance::new(arc.consumer, cc)).or_insert(0.0);
                        if here > *e {
                            *e = here;
                        }
                    }
                }
            }
        }
        // inlet weight contributes serially before the block
        let inlet_w = weight(block.inlet, Context(0));
        work += inlet_w;
        total_span += inlet_w + block_span;
    }
    WorkSpan {
        work,
        span: total_span,
    }
}

/// Topological order of `threads` (members of one block) over the arcs
/// among them; among the threads ready at once the lowest id goes first,
/// so the order is deterministic.
pub(crate) fn topo_order(program: &DdmProgram, threads: &[ThreadId]) -> Vec<ThreadId> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut indeg: HashMap<ThreadId, usize> = threads.iter().map(|&t| (t, 0)).collect();
    for &t in threads {
        for arc in program.consumers(t) {
            if let Some(d) = indeg.get_mut(&arc.consumer) {
                *d += 1;
            }
        }
    }
    let mut ready: BinaryHeap<Reverse<ThreadId>> = threads
        .iter()
        .copied()
        .filter(|t| indeg[t] == 0)
        .map(Reverse)
        .collect();
    let mut order = Vec::with_capacity(threads.len());
    while let Some(Reverse(t)) = ready.pop() {
        order.push(t);
        for arc in program.consumers(t) {
            if let Some(d) = indeg.get_mut(&arc.consumer) {
                *d -= 1;
                if *d == 0 {
                    ready.push(Reverse(arc.consumer));
                }
            }
        }
    }
    debug_assert_eq!(order.len(), threads.len(), "block not acyclic");
    order
}

/// Application instances whose initial ready count is at least
/// `min_fan_in` — the hot sinks of the program's reduction arcs, returned
/// with their fan-in (thread-major, context-minor order).
///
/// `FlushPolicy::Auto` uses this to decide whether completions go through
/// per-kernel funnels: with `min_fan_in = kernels`, a hit means some slot
/// will absorb updates from (at least) every kernel, so the sink's cache
/// line is worth funneling.
pub(crate) fn hot_sinks(program: &DdmProgram, min_fan_in: u32) -> Vec<(Instance, u32)> {
    let mut out = Vec::new();
    for (t, spec) in program.threads().iter().enumerate() {
        if spec.kind != ThreadKind::App {
            continue;
        }
        let t = ThreadId(t as u32);
        for (c, &rc) in program.initial_rcs(t).iter().enumerate() {
            if rc >= min_fan_in {
                out.push((Instance::new(t, Context(c as u32)), rc));
            }
        }
    }
    out
}

/// Render the synchronization graph in Graphviz DOT format.
///
/// Blocks become clusters; arcs are labeled with their mapping. Useful for
/// debugging DDMCPP output and for documentation.
pub fn to_dot(program: &DdmProgram) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "digraph ddm {{");
    let _ = writeln!(s, "  rankdir=TB; node [shape=box, fontname=\"monospace\"];");
    for block in program.blocks() {
        let _ = writeln!(s, "  subgraph cluster_b{} {{", block.id.0);
        let _ = writeln!(s, "    label=\"Block {}\";", block.id.0);
        for t in block.all_threads() {
            let spec = program.thread(t);
            let style = match spec.kind {
                ThreadKind::App => "solid",
                ThreadKind::Inlet | ThreadKind::Outlet => "dashed",
            };
            let _ = writeln!(
                s,
                "    t{} [label=\"{} [{}]\", style={}];",
                t.0, spec.name, spec.arity, style
            );
        }
        let _ = writeln!(s, "  }}");
    }
    for t in 0..program.threads().len() {
        let t = ThreadId(t as u32);
        for arc in program.consumers(t) {
            let _ = writeln!(
                s,
                "  t{} -> t{} [label=\"{:?}\"];",
                arc.producer.0, arc.consumer.0, arc.mapping
            );
        }
    }
    // sequential chaining between blocks
    for w in program.blocks().windows(2) {
        let _ = writeln!(
            s,
            "  t{} -> t{} [style=dotted];",
            w[0].outlet.0, w[1].inlet.0
        );
    }
    let _ = writeln!(s, "}}");
    s
}

/// A static-analysis warning about a DDM program's structure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Lint {
    /// An `All` arc between two loop threads creates `pa × ca` ready-count
    /// updates — usually a missing `OneToOne`/`Group` mapping.
    QuadraticFanIn {
        /// Producer thread.
        producer: ThreadId,
        /// Consumer thread.
        consumer: ThreadId,
        /// Number of ready-count updates the arc generates.
        updates: u64,
    },
    /// A chain of scalar threads serializes execution.
    SerialChain {
        /// The threads of the chain, in order.
        chain: Vec<ThreadId>,
    },
    /// A block with almost no application instances cannot amortize its
    /// inlet/outlet overhead.
    TinyBlock {
        /// The block.
        block: crate::ids::BlockId,
        /// Application instances it holds.
        instances: usize,
    },
}

impl std::fmt::Display for Lint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lint::QuadraticFanIn {
                producer,
                consumer,
                updates,
            } => write!(
                f,
                "arc {producer} -> {consumer} uses an All mapping between loop threads \
                 ({updates} ready-count updates); consider OneToOne or Group"
            ),
            Lint::SerialChain { chain } => write!(
                f,
                "threads {chain:?} form a scalar dependency chain of length {};                  execution serializes through it",
                chain.len()
            ),
            Lint::TinyBlock { block, instances } => write!(
                f,
                "block {block:?} holds only {instances} application instance(s);                  inlet/outlet overhead will dominate"
            ),
        }
    }
}

/// Statically analyze a program for common DDM performance pitfalls.
pub fn lints(program: &DdmProgram) -> Vec<Lint> {
    let mut out = Vec::new();

    // quadratic All arcs between loop threads
    for t in 0..program.threads().len() {
        let t = ThreadId(t as u32);
        let pa = program.thread(t).arity as u64;
        if program.thread(t).kind != ThreadKind::App {
            continue;
        }
        for arc in program.consumers(t) {
            if program.thread(arc.consumer).kind != ThreadKind::App {
                continue;
            }
            let ca = program.thread(arc.consumer).arity as u64;
            if matches!(arc.mapping, crate::mapping::ArcMapping::All) && pa > 1 && ca > 1 {
                out.push(Lint::QuadraticFanIn {
                    producer: t,
                    consumer: arc.consumer,
                    updates: pa * ca,
                });
            }
        }
    }

    // scalar chains: follow unique scalar->scalar app arcs
    let is_scalar_app =
        |t: ThreadId| program.thread(t).arity == 1 && program.thread(t).kind == ThreadKind::App;
    let mut in_chain = vec![false; program.threads().len()];
    for start in 0..program.threads().len() {
        let start = ThreadId(start as u32);
        if !is_scalar_app(start) || in_chain[start.idx()] {
            continue;
        }
        // must be a chain head: no scalar app producer
        if program
            .producers(start)
            .iter()
            .any(|a| is_scalar_app(a.producer))
        {
            continue;
        }
        let mut chain = vec![start];
        let mut cur = start;
        loop {
            let nexts: Vec<ThreadId> = program
                .consumers(cur)
                .iter()
                .map(|a| a.consumer)
                .filter(|&c| is_scalar_app(c))
                .collect();
            if nexts.len() != 1 {
                break;
            }
            cur = nexts[0];
            chain.push(cur);
        }
        if chain.len() >= 4 {
            for &t in &chain {
                in_chain[t.idx()] = true;
            }
            out.push(Lint::SerialChain { chain });
        }
    }

    // tiny blocks
    for block in program.blocks() {
        let instances: usize = block
            .threads
            .iter()
            .map(|&t| program.thread(t).arity as usize)
            .sum();
        if instances < 2 {
            out.push(Lint::TinyBlock {
                block: block.id,
                instances,
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::ArcMapping;
    use crate::program::ProgramBuilder;
    use crate::thread::ThreadSpec;

    fn fork_join(arity: u32) -> DdmProgram {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let src = b.thread(blk, ThreadSpec::scalar("src"));
        let work = b.thread(blk, ThreadSpec::new("work", arity));
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        b.arc(src, work, ArcMapping::Broadcast).unwrap();
        b.arc(work, sink, ArcMapping::Reduction).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn fork_join_work_span() {
        let p = fork_join(10);
        // weight 1 for app threads, 0 for inlet/outlet
        let ws = work_span(&p, |t, _| {
            if p.thread(t).kind == ThreadKind::App {
                1.0
            } else {
                0.0
            }
        });
        assert_eq!(ws.work, 12.0);
        assert_eq!(ws.span, 3.0); // src -> work -> sink
        assert!((ws.ideal_speedup() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_span_follows_heavy_path() {
        // src -> {light x4, heavy x1} -> sink
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let src = b.thread(blk, ThreadSpec::scalar("src"));
        let light = b.thread(blk, ThreadSpec::new("light", 4));
        let heavy = b.thread(blk, ThreadSpec::scalar("heavy"));
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        b.arc(src, light, ArcMapping::Broadcast).unwrap();
        b.arc(src, heavy, ArcMapping::Scalar).unwrap();
        b.arc(light, sink, ArcMapping::Reduction).unwrap();
        b.arc(heavy, sink, ArcMapping::Scalar).unwrap();
        let p = b.build().unwrap();
        let ws = work_span(&p, |t, _| match p.thread(t).name.as_str() {
            "heavy" => 10.0,
            n if n.starts_with("inlet") || n.starts_with("outlet") => 0.0,
            _ => 1.0,
        });
        assert_eq!(ws.span, 12.0); // 1 + 10 + 1
        assert_eq!(ws.work, 16.0);
    }

    #[test]
    fn multi_block_spans_add() {
        let mut b = ProgramBuilder::new();
        for _ in 0..2 {
            let blk = b.block();
            b.thread(blk, ThreadSpec::new("w", 4));
        }
        let p = b.build().unwrap();
        let ws = work_span(&p, |t, _| {
            if p.thread(t).kind == ThreadKind::App {
                2.0
            } else {
                0.0
            }
        });
        assert_eq!(ws.work, 16.0);
        assert_eq!(ws.span, 4.0); // two blocks of span 2 each
    }

    #[test]
    fn inlet_weight_is_serial() {
        let p = fork_join(4);
        let ws = work_span(&p, |t, _| match p.thread(t).kind {
            ThreadKind::Inlet => 5.0,
            ThreadKind::Outlet => 0.0,
            ThreadKind::App => 1.0,
        });
        assert_eq!(ws.span, 8.0); // 5 + (1+1+1)
    }

    #[test]
    fn dot_export_mentions_every_thread() {
        let p = fork_join(3);
        let dot = to_dot(&p);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("src"));
        assert!(dot.contains("work [3]"));
        assert!(dot.contains("cluster_b0"));
        assert!(dot.contains("inlet.B0"));
    }

    #[test]
    fn lint_flags_quadratic_all_arc() {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let a = b.thread(blk, ThreadSpec::new("a", 10));
        let c = b.thread(blk, ThreadSpec::new("c", 10));
        b.arc(a, c, ArcMapping::All).unwrap();
        let p = b.build().unwrap();
        let l = lints(&p);
        assert!(
            matches!(l.as_slice(), [Lint::QuadraticFanIn { updates: 100, .. }]),
            "{l:?}"
        );
        assert!(l[0].to_string().contains("OneToOne"));
    }

    #[test]
    fn lint_flags_serial_chain() {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let mut prev = b.thread(blk, ThreadSpec::scalar("t0"));
        // add a loop thread too so the block is not tiny
        let w = b.thread(blk, ThreadSpec::new("w", 8));
        b.arc(prev, w, ArcMapping::Broadcast).unwrap();
        for i in 1..5 {
            let t = b.thread(blk, ThreadSpec::scalar(format!("t{i}")));
            b.arc(prev, t, ArcMapping::Scalar).unwrap();
            prev = t;
        }
        let p = b.build().unwrap();
        let l = lints(&p);
        assert!(
            l.iter()
                .any(|x| matches!(x, Lint::SerialChain { chain } if chain.len() == 5)),
            "{l:?}"
        );
    }

    #[test]
    fn lint_flags_tiny_block() {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        b.thread(blk, ThreadSpec::scalar("only"));
        let p = b.build().unwrap();
        assert!(lints(&p)
            .iter()
            .any(|x| matches!(x, Lint::TinyBlock { instances: 1, .. })));
    }

    #[test]
    fn clean_program_has_no_lints() {
        let p = fork_join(16);
        assert!(lints(&p).is_empty(), "{:?}", lints(&p));
    }

    #[test]
    fn hot_sinks_find_the_reduction_target() {
        let p = fork_join(10);
        // the sink absorbs 10 reduction updates; src/work have fan-in <= 1
        let sinks = hot_sinks(&p, 4);
        assert_eq!(sinks.len(), 1);
        let (inst, fan_in) = sinks[0];
        assert_eq!(p.thread(inst.thread).name, "sink");
        assert_eq!(fan_in, 10);
        // a high enough threshold finds nothing; inlets/outlets never count
        assert!(hot_sinks(&p, 11).is_empty());
    }

    #[test]
    fn ideal_speedup_of_empty_span() {
        let ws = WorkSpan {
            work: 0.0,
            span: 0.0,
        };
        assert_eq!(ws.ideal_speedup(), 1.0);
    }
}
