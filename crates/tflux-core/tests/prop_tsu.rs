//! Property-based tests: random DDM programs executed through the TSU state
//! machine always run every instance exactly once, in dependency order, and
//! never deadlock.

use std::collections::HashMap;
use tflux_core::prelude::*;
use tflux_core::rng::{cases, SplitMix64};
use tflux_core::tsu::drain_sequential;

/// A random, always-valid program description.
#[derive(Debug, Clone)]
struct ProgramDesc {
    blocks: Vec<Vec<(u32, Affinity)>>, // per block: (arity, affinity) per thread
    // arcs as (block, producer idx, consumer idx > producer idx, mapping sel)
    arcs: Vec<(usize, usize, usize, u8, u8)>,
    kernels: u32,
    steal: bool,
}

fn affinity(rng: &mut SplitMix64) -> Affinity {
    match rng.below(3) {
        0 => Affinity::Range,
        1 => Affinity::RoundRobin,
        _ => Affinity::Fixed(KernelId(rng.range(0u32..4))),
    }
}

fn desc(rng: &mut SplitMix64) -> ProgramDesc {
    let blocks: Vec<Vec<(u32, Affinity)>> = (0..rng.range(1..4))
        .map(|_| {
            (0..rng.range(1..6))
                .map(|_| (rng.range(1u32..9), affinity(rng)))
                .collect()
        })
        .collect();
    let nb = blocks.len();
    let arcs = (0..rng.range(0..12))
        .map(|_| {
            (
                rng.range(0..nb),
                rng.range(0usize..6),
                rng.range(0usize..6),
                rng.range(0u8..5),
                rng.range(1u8..5),
            )
        })
        .collect();
    ProgramDesc {
        blocks,
        arcs,
        kernels: rng.range(1u32..6),
        steal: rng.chance(1, 2),
    }
}

/// Materialize a description into a validated program. Arcs that would be
/// invalid (same thread, wrong arity for the mapping, out of range) are
/// skipped — the generator over-produces and we keep what is legal, which
/// still explores a wide space of DAG shapes.
fn build(desc: &ProgramDesc) -> DdmProgram {
    let mut b = ProgramBuilder::new();
    let mut ids: Vec<Vec<ThreadId>> = Vec::new();
    for block in &desc.blocks {
        let blk = b.block();
        let mut v = Vec::new();
        for (i, (arity, aff)) in block.iter().enumerate() {
            v.push(b.thread(
                blk,
                ThreadSpec::new(format!("t{i}"), *arity).with_affinity(*aff),
            ));
        }
        ids.push(v);
    }
    for &(blk, p, c, m, f) in &desc.arcs {
        let threads = &ids[blk];
        if threads.len() < 2 {
            continue;
        }
        let p = p % threads.len();
        let c = c % threads.len();
        if p >= c {
            continue; // keep the template graph acyclic by index order
        }
        let (tp, tc) = (threads[p], threads[c]);
        let mapping = match m {
            0 => ArcMapping::All,
            1 => ArcMapping::OneToOne,
            2 => ArcMapping::Offset(f as i32 - 2),
            3 => ArcMapping::Group { factor: f as u32 },
            _ => ArcMapping::Expand { factor: f as u32 },
        };
        // arc() validates arity compatibility; skip incompatible ones
        let _ = b.arc(tp, tc, mapping);
    }
    b.build().expect("generated program must validate")
}

/// Build a generated program and drain it through a `Tsu`.
fn drained(desc: &ProgramDesc) -> (DdmProgram, Vec<Instance>, bool) {
    let p = build(desc);
    let tsu = Tsu::new(
        &p,
        desc.kernels,
        TsuConfig {
            steal: desc.steal,
            ..Default::default()
        },
    );
    let order = drain_sequential(&tsu).unwrap();
    let finished = tsu.finished();
    drop(tsu);
    (p, order, finished)
}

#[test]
fn every_instance_runs_exactly_once() {
    cases(256, |rng| {
        let (p, order, finished) = drained(&desc(rng));
        assert_eq!(order.len(), p.total_instances());
        let mut seen = HashMap::new();
        for i in &order {
            *seen.entry(*i).or_insert(0u32) += 1;
        }
        assert!(seen.values().all(|&v| v == 1));
        assert!(finished);
    });
}

#[test]
fn producers_always_precede_consumers() {
    cases(256, |rng| {
        let (p, order, _) = drained(&desc(rng));
        let pos: HashMap<Instance, usize> =
            order.iter().enumerate().map(|(n, &i)| (i, n)).collect();
        for t in 0..p.threads().len() {
            let t = ThreadId(t as u32);
            let pa = p.thread(t).arity;
            for arc in p.consumers(t) {
                let ca = p.thread(arc.consumer).arity;
                for pc in 0..pa {
                    let pi = Instance::new(t, Context(pc));
                    for cc in arc.mapping.consumers(Context(pc), pa, ca) {
                        let ci = Instance::new(arc.consumer, cc);
                        assert!(pos[&pi] < pos[&ci], "{pi} ran after its consumer {ci}");
                    }
                }
            }
        }
    });
}

#[test]
fn blocks_never_interleave() {
    cases(256, |rng| {
        let (p, order, _) = drained(&desc(rng));
        let blocks: Vec<u32> = order.iter().map(|i| p.block_of(i.thread).0).collect();
        let mut sorted = blocks.clone();
        sorted.sort_unstable();
        assert_eq!(blocks, sorted);
    });
}

#[test]
fn work_span_bounds_hold() {
    cases(256, |rng| {
        let p = build(&desc(rng));
        let ws = tflux_core::graph::work_span(&p, |_, _| 1.0);
        // span counts at least one instance per block (plus inlets), and
        // work counts everything
        assert_eq!(ws.work, p.total_instances() as f64);
        assert!(ws.span >= 2.0 * p.blocks().len() as f64); // inlet + >=1
        assert!(ws.span <= ws.work);
        assert!(ws.ideal_speedup() >= 1.0 - 1e-12);
    });
}
