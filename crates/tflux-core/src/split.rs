//! Automatic DDM-block splitting.
//!
//! §2 of the paper: "To allow programs with arbitrarily large
//! synchronization graphs, without requiring equally large TSU, DDM
//! programs can be split into DDM Blocks", whose maximum size "is defined
//! by the size of the TSU". This module performs that split mechanically:
//! given a program whose blocks exceed a TSU capacity, it re-partitions
//! each oversized block into a sequence of capacity-respecting blocks in
//! topological order.
//!
//! Correctness argument: block `k+1`'s inlet only runs after block `k`'s
//! outlet, i.e. after *every* instance of block `k` completed. Any arc
//! whose producer lands in an earlier block than its consumer is therefore
//! subsumed by the block ordering and can be dropped; arcs within one new
//! block are kept. The resulting program admits a subset of the original's
//! schedules (it is strictly more synchronized), so every producer→consumer
//! constraint of the original still holds.

use crate::error::CoreError;
use crate::ids::ThreadId;
use crate::program::{DdmProgram, ProgramBuilder};
use crate::thread::ThreadKind;
use std::collections::HashMap;

/// Split `program`'s oversized blocks so no block needs more than
/// `capacity` TSU entries (application instances + the outlet). Blocks that
/// already fit are kept as-is. Returns the new program plus the mapping
/// from old to new [`ThreadId`]s (splitting renumbers threads).
///
/// A single thread that does not fit beside the outlet entry (arity + 1 >
/// `capacity`, so every thread when `capacity ≤ 1`) cannot be split
/// (instances of one DThread share a block); that case returns
/// [`CoreError::BlockTooLarge`].
pub fn split_for_capacity(
    program: &DdmProgram,
    capacity: usize,
) -> Result<(DdmProgram, HashMap<ThreadId, ThreadId>), CoreError> {
    let mut b = ProgramBuilder::new();
    let mut idmap: HashMap<ThreadId, ThreadId> = HashMap::new();

    for block in program.blocks() {
        // topological order of the block's app threads
        let order = crate::graph::topo_order(program, &block.threads);

        // greedily pack consecutive threads into capacity-sized groups
        let mut groups: Vec<Vec<ThreadId>> = Vec::new();
        let mut cur: Vec<ThreadId> = Vec::new();
        let mut cur_size = 1usize; // outlet entry
        for t in order {
            let arity = program.thread(t).arity as usize;
            if arity + 1 > capacity {
                return Err(CoreError::BlockTooLarge {
                    block: block.id,
                    instances: arity + 1,
                    capacity,
                });
            }
            if cur_size + arity > capacity && !cur.is_empty() {
                groups.push(std::mem::take(&mut cur));
                cur_size = 1;
            }
            cur_size += arity;
            cur.push(t);
        }
        if !cur.is_empty() {
            groups.push(cur);
        }

        // materialize the groups as blocks
        for group in &groups {
            let blk = b.block();
            for &t in group {
                let spec = program.thread(t).clone();
                idmap.insert(t, b.thread(blk, spec));
            }
            // keep arcs internal to this group
            for &t in group {
                for arc in program.consumers(t) {
                    if program.thread(arc.consumer).kind != ThreadKind::App {
                        continue; // outlet arcs are re-created by build()
                    }
                    if group.contains(&arc.consumer) {
                        b.arc(idmap[&t], idmap[&arc.consumer], arc.mapping)?;
                    }
                    // cross-group arcs are subsumed by block ordering
                }
            }
        }
    }

    Ok((b.build()?, idmap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::rng::{cases, random_program};
    use crate::tsu::drain_sequential;

    /// Check that no mapping information is lost by a split: every original
    /// producer→consumer *instance* constraint is still enforced, either by an
    /// arc or by block ordering.
    fn split_preserves_ordering(
        original: &DdmProgram,
        split: &DdmProgram,
        idmap: &HashMap<ThreadId, ThreadId>,
    ) -> bool {
        for t in 0..original.threads().len() {
            let t = ThreadId(t as u32);
            if original.thread(t).kind != ThreadKind::App {
                continue;
            }
            for arc in original.consumers(t) {
                if original.thread(arc.consumer).kind != ThreadKind::App {
                    continue;
                }
                let (nt, nc) = (idmap[&t], idmap[&arc.consumer]);
                let same_block = split.block_of(nt) == split.block_of(nc);
                let ordered = split.block_of(nt) < split.block_of(nc);
                let has_arc = split
                    .consumers(nt)
                    .iter()
                    .any(|a| a.consumer == nc && a.mapping == arc.mapping);
                if !(ordered || (same_block && has_arc)) {
                    return false;
                }
            }
        }
        true
    }

    fn layered(arities: &[u32]) -> DdmProgram {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let mut prev: Option<ThreadId> = None;
        for (i, &a) in arities.iter().enumerate() {
            let t = b.thread(blk, ThreadSpec::new(format!("l{i}"), a));
            if let Some(p) = prev {
                b.arc(p, t, ArcMapping::All).unwrap();
            }
            prev = Some(t);
        }
        b.build().unwrap()
    }

    #[test]
    fn fitting_program_is_unchanged_in_shape() {
        let p = layered(&[4, 4]);
        let (q, idmap) = split_for_capacity(&p, 64).unwrap();
        assert_eq!(q.blocks().len(), 1);
        assert_eq!(q.total_instances(), p.total_instances());
        assert!(split_preserves_ordering(&p, &q, &idmap));
    }

    #[test]
    fn oversized_block_splits_into_capacity_chunks() {
        let p = layered(&[8, 8, 8, 8]); // 32 app instances + outlet
        let (q, idmap) = split_for_capacity(&p, 10).unwrap();
        assert!(q.blocks().len() >= 4, "{} blocks", q.blocks().len());
        for blk in q.blocks() {
            assert!(q.block_instances(blk.id) <= 10);
        }
        assert!(split_preserves_ordering(&p, &q, &idmap));
        // app instance count unchanged
        let apps = |p: &DdmProgram| {
            p.threads()
                .iter()
                .filter(|t| t.kind == ThreadKind::App)
                .map(|t| t.arity as usize)
                .sum::<usize>()
        };
        assert_eq!(apps(&p), apps(&q));
    }

    #[test]
    fn split_program_executes_under_the_small_tsu() {
        let p = layered(&[8, 8, 8]);
        // fails unsplit...
        let tsu = Tsu::new(
            &p,
            2,
            TsuConfig {
                capacity: 12,
                ..Default::default()
            },
        );
        let (inlet, ep) = match tsu.fetch(KernelId(0)).unwrap() {
            FetchResult::Thread(i, ep) => (i, ep),
            other => panic!("{other:?}"),
        };
        assert!(tsu
            .complete(KernelId(0), inlet, ep, &mut Vec::new())
            .is_err());

        // ...and drains completely after splitting
        let (q, _) = split_for_capacity(&p, 12).unwrap();
        let tsu = Tsu::new(
            &q,
            2,
            TsuConfig {
                capacity: 12,
                ..Default::default()
            },
        );
        let order = drain_sequential(&tsu).unwrap();
        assert_eq!(order.len(), q.total_instances());
    }

    #[test]
    fn execution_order_constraints_survive_the_split() {
        let p = layered(&[6, 6, 6]);
        let (q, idmap) = split_for_capacity(&p, 8).unwrap();
        let tsu = Tsu::new(&q, 3, TsuConfig::default());
        let order = drain_sequential(&tsu).unwrap();
        let pos = |i: &Instance| order.iter().position(|x| x == i).unwrap();
        // layer 0 before layer 1 before layer 2, instance-wise
        for (a, b) in [(0u32, 1u32), (1, 2)] {
            let (ta, tb) = (idmap[&ThreadId(a)], idmap[&ThreadId(b)]);
            for ca in 0..q.thread(ta).arity {
                for cb in 0..q.thread(tb).arity {
                    assert!(
                        pos(&Instance::new(ta, Context(ca))) < pos(&Instance::new(tb, Context(cb)))
                    );
                }
            }
        }
    }

    #[test]
    fn unsplittable_thread_is_an_error() {
        let p = layered(&[32]);
        // capacities 0 and 1 leave no room beside the outlet entry: every
        // thread is too large, an error rather than a panic
        for capacity in [0, 1, 16] {
            assert!(matches!(
                split_for_capacity(&p, capacity),
                Err(CoreError::BlockTooLarge { .. })
            ));
        }
    }

    #[test]
    fn multi_block_input_splits_each_block_independently() {
        let mut b = ProgramBuilder::new();
        for _ in 0..2 {
            let blk = b.block();
            b.thread(blk, ThreadSpec::new("a", 6));
            b.thread(blk, ThreadSpec::new("b", 6));
        }
        let p = b.build().unwrap();
        let (q, _) = split_for_capacity(&p, 8).unwrap();
        assert_eq!(q.blocks().len(), 4);
    }

    /// For arbitrary programs and capacities, the split program fits the
    /// capacity, preserves every ordering constraint, and executes
    /// completely under a capacity-enforcing TSU.
    #[test]
    fn split_fits_preserves_and_executes() {
        cases(256, |rng| {
            let capacity = rng.range(4usize..40);
            let p = random_program(rng, 1);
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
}
