//! Property tests of automatic block splitting: for arbitrary programs and
//! capacities, the split program fits the capacity, preserves every
//! ordering constraint, and executes completely under a capacity-enforcing
//! TSU.

use tflux_core::prelude::*;
use tflux_core::rng::{cases, program};
use tflux_core::split::{split_for_capacity, split_preserves_ordering};
use tflux_core::tsu::drain_sequential;

#[test]
fn split_fits_preserves_and_executes() {
    cases(256, |rng| {
        let capacity = rng.range(4usize..40);
        let p = program(rng, 1);
        let max_arity = p.threads().iter().map(|t| t.arity).max().unwrap_or(1) as usize;
        if max_arity >= capacity {
            return; // not splittable: a single thread exceeds the capacity
        }

        let (q, idmap) = split_for_capacity(&p, capacity).expect("splittable");
        // capacity respected by every block
        for blk in q.blocks() {
            assert!(q.block_instances(blk.id) <= capacity);
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
                capacity,
                ..Default::default()
            },
        );
        let order = drain_sequential(&tsu).unwrap();
        assert_eq!(order.len(), q.total_instances());
        assert!(tsu.stats().max_resident <= capacity);
    });
}
