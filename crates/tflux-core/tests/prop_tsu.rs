//! Property-based tests: random DDM programs executed through the TSU state
//! machine always run every instance exactly once, in dependency order, and
//! never deadlock.

use std::collections::HashMap;
use tflux_core::prelude::*;
use tflux_core::rng::{cases, program, SplitMix64};
use tflux_core::tsu::drain_sequential;

/// A generated program, sized for two kernels, drained through a `Tsu` on
/// 1–5 kernels, stealing or not.
fn drained(rng: &mut SplitMix64) -> (DdmProgram, Vec<Instance>, bool) {
    let kernels = rng.range(1u32..6);
    let steal = rng.chance(1, 2);
    let p = program(rng, 2);
    let tsu = Tsu::new(
        &p,
        kernels,
        TsuConfig {
            steal,
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
        let (p, order, finished) = drained(rng);
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
        let (p, order, _) = drained(rng);
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
        let (p, order, _) = drained(rng);
        let blocks: Vec<u32> = order.iter().map(|i| p.block_of(i.thread).0).collect();
        let mut sorted = blocks.clone();
        sorted.sort_unstable();
        assert_eq!(blocks, sorted);
    });
}

#[test]
fn work_span_bounds_hold() {
    cases(256, |rng| {
        let p = program(rng, 2);
        let ws = tflux_core::graph::work_span(&p, |_, _| 1.0);
        // span counts at least one instance per block (plus inlets), and
        // work counts everything
        assert_eq!(ws.work, p.total_instances() as f64);
        assert!(ws.span >= 2.0 * p.blocks().len() as f64); // inlet + >=1
        assert!(ws.span <= ws.work);
        assert!(ws.ideal_speedup() >= 1.0 - 1e-12);
    });
}
