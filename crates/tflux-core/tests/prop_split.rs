//! Property tests of automatic block splitting: for arbitrary programs and
//! capacities, the split program fits the capacity, preserves every
//! ordering constraint, and executes completely under a capacity-enforcing
//! TSU.

use tflux_core::prelude::*;
use tflux_core::rng::{cases, SplitMix64};
use tflux_core::split::{split_for_capacity, split_preserves_ordering};
use tflux_core::tsu::drain_sequential;

#[derive(Debug, Clone)]
struct Desc {
    layers: Vec<u32>,
    blocks: u32,
    capacity: usize,
}

fn desc(rng: &mut SplitMix64) -> Desc {
    Desc {
        layers: (0..rng.range(1..5)).map(|_| rng.range(1u32..7)).collect(),
        blocks: rng.range(1u32..3),
        capacity: rng.range(4usize..40),
    }
}

fn build(d: &Desc) -> DdmProgram {
    let mut b = ProgramBuilder::new();
    for _ in 0..d.blocks {
        let blk = b.block();
        let mut prev: Option<ThreadId> = None;
        for (li, &arity) in d.layers.iter().enumerate() {
            let t = b.thread(blk, ThreadSpec::new(format!("l{li}"), arity));
            if let Some(p) = prev {
                let mapping = if li % 2 == 0 {
                    ArcMapping::All
                } else if arity == b_arity(prev, &d.layers, li) {
                    ArcMapping::OneToOne
                } else {
                    ArcMapping::All
                };
                b.arc(p, t, mapping).unwrap();
            }
            prev = Some(t);
        }
    }
    b.build().unwrap()
}

fn b_arity(_prev: Option<ThreadId>, layers: &[u32], li: usize) -> u32 {
    layers[li - 1]
}

#[test]
fn split_fits_preserves_and_executes() {
    cases(256, |rng| {
        let d = desc(rng);
        let p = build(&d);
        let max_arity = d.layers.iter().copied().max().unwrap_or(1) as usize;
        if max_arity >= d.capacity {
            return; // not splittable: a single thread exceeds the capacity
        }

        let (q, idmap) = split_for_capacity(&p, d.capacity).expect("splittable");
        // capacity respected by every block
        for blk in q.blocks() {
            assert!(q.block_instances(blk.id) <= d.capacity);
        }
        // ordering preserved
        assert!(split_preserves_ordering(&p, &q, &idmap));
        // app instances conserved
        let apps = |p: &DdmProgram| {
            p.threads()
                .iter()
                .filter(|t| t.kind == ThreadKind::App)
                .map(|t| t.arity as usize)
                .sum::<usize>()
        };
        assert_eq!(apps(&p), apps(&q));

        // executes under a TSU with exactly that capacity
        let tsu = Tsu::new(
            &q,
            3,
            TsuConfig {
                capacity: d.capacity,
                ..Default::default()
            },
        );
        let order = drain_sequential(&tsu).unwrap();
        assert_eq!(order.len(), q.total_instances());
        assert!(tsu.stats().max_resident <= d.capacity);
    });
}
