//! DDM programs and the builder that validates them.

use crate::block::DdmBlock;
use crate::error::CoreError;
use crate::ids::{BlockId, Context, Instance, KernelId, ThreadId};
use crate::mapping::ArcMapping;
use crate::thread::{Affinity, ThreadKind, ThreadSpec};

/// One arc of the synchronization graph.
#[derive(Clone, Copy, Debug)]
pub struct Arc {
    /// The producer DThread.
    pub producer: ThreadId,
    /// The consumer DThread.
    pub consumer: ThreadId,
    /// Instance mapping across the arc.
    pub mapping: ArcMapping,
}

/// A complete, validated DDM program: synchronization graph + block split.
///
/// Built with [`ProgramBuilder`]; immutable afterwards. The program holds
/// only *metadata* — thread bodies are supplied by the platform executing it
/// (`tflux-runtime`, `tflux-sim`, `tflux-cell`), keyed by [`ThreadId`].
#[derive(Clone, Debug)]
pub struct DdmProgram {
    threads: Vec<ThreadSpec>,
    blocks: Vec<DdmBlock>,
    block_of: Vec<BlockId>,
    arcs_out: Vec<Vec<Arc>>,
    arcs_in: Vec<Vec<Arc>>,
    initial_rc: Vec<Vec<u32>>,
}

impl DdmProgram {
    /// The thread templates, indexed by [`ThreadId`].
    pub fn threads(&self) -> &[ThreadSpec] {
        &self.threads
    }

    /// The spec of one thread.
    pub fn thread(&self, t: ThreadId) -> &ThreadSpec {
        &self.threads[t.idx()]
    }

    /// The DDM blocks in execution order.
    pub fn blocks(&self) -> &[DdmBlock] {
        &self.blocks
    }

    /// The block a thread belongs to.
    pub fn block_of(&self, t: ThreadId) -> BlockId {
        self.block_of[t.idx()]
    }

    /// Outgoing arcs of a thread (its consumer list).
    pub fn consumers(&self, t: ThreadId) -> &[Arc] {
        &self.arcs_out[t.idx()]
    }

    /// Incoming arcs of a thread (its producer list).
    pub fn producers(&self, t: ThreadId) -> &[Arc] {
        &self.arcs_in[t.idx()]
    }

    /// Initial ready count of one instance.
    pub fn initial_rc(&self, i: Instance) -> u32 {
        self.initial_rc[i.thread.idx()][i.context.idx()]
    }

    /// Initial ready counts for all contexts of a thread.
    pub fn initial_rcs(&self, t: ThreadId) -> &[u32] {
        &self.initial_rc[t.idx()]
    }

    /// Total schedulable instances, inlets and outlets included.
    pub fn total_instances(&self) -> usize {
        self.threads.iter().map(|t| t.arity as usize).sum()
    }

    /// Number of instances a block occupies in the TSU while loaded
    /// (application threads plus the outlet; the inlet entry is consumed
    /// before the block is resident).
    pub fn block_instances(&self, b: BlockId) -> usize {
        let blk = &self.blocks[b.idx()];
        blk.threads
            .iter()
            .map(|t| self.threads[t.idx()].arity as usize)
            .sum::<usize>()
            + 1
    }

    /// The kernel that owns an instance (the Thread-to-Kernel Table lookup).
    pub fn kernel_of(&self, i: Instance, kernels: u32) -> KernelId {
        let spec = &self.threads[i.thread.idx()];
        spec.affinity.kernel_of(i.context, spec.arity, kernels)
    }

    /// Iterate over every instance of a thread.
    pub fn instances_of(&self, t: ThreadId) -> impl Iterator<Item = Instance> + '_ {
        (0..self.threads[t.idx()].arity).map(move |c| Instance::new(t, Context(c)))
    }
}

/// Builder for [`DdmProgram`]s.
///
/// Usage: create blocks with [`block`](Self::block), add threads to them
/// with [`thread`](Self::thread), connect threads with
/// [`arc`](Self::arc), then [`build`](Self::build). `build` wires each
/// block's inlet/outlet threads, computes per-instance initial ready counts
/// from the arcs, and validates the whole program (acyclic blocks, no
/// cross-block arcs, arity-compatible mappings).
#[derive(Default)]
pub struct ProgramBuilder {
    threads: Vec<ThreadSpec>,
    block_of: Vec<BlockId>,
    block_threads: Vec<Vec<ThreadId>>,
    arcs: Vec<Arc>,
    /// Per thread, the producers `arc` has connected to it so far.
    producers: Vec<Vec<ThreadId>>,
}

impl ProgramBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a new DDM block; returns its id. Blocks execute in id order.
    pub fn block(&mut self) -> BlockId {
        let id = BlockId(self.block_threads.len() as u32);
        self.block_threads.push(Vec::new());
        id
    }

    /// Add a DThread template to a block; returns its id.
    pub fn thread(&mut self, block: BlockId, spec: ThreadSpec) -> ThreadId {
        let id = ThreadId(self.threads.len() as u32);
        self.threads.push(spec);
        self.block_of.push(block);
        self.block_threads[block.idx()].push(id);
        self.producers.push(Vec::new());
        id
    }

    /// Add a producer→consumer arc with an instance mapping.
    pub fn arc(
        &mut self,
        producer: ThreadId,
        consumer: ThreadId,
        mapping: ArcMapping,
    ) -> Result<(), CoreError> {
        let n = self.threads.len() as u32;
        if producer.0 >= n {
            return Err(CoreError::UnknownThread(producer));
        }
        if consumer.0 >= n {
            return Err(CoreError::UnknownThread(consumer));
        }
        if self.block_of[producer.idx()] != self.block_of[consumer.idx()] {
            return Err(CoreError::CrossBlockArc { producer, consumer });
        }
        if self.producers[consumer.idx()].contains(&producer) {
            return Err(CoreError::DuplicateArc { producer, consumer });
        }
        mapping.validate(
            producer,
            consumer,
            self.threads[producer.idx()].arity,
            self.threads[consumer.idx()].arity,
        )?;
        self.producers[consumer.idx()].push(producer);
        self.arcs.push(Arc {
            producer,
            consumer,
            mapping,
        });
        Ok(())
    }

    /// Validate and finalize the program.
    pub fn build(mut self) -> Result<DdmProgram, CoreError> {
        if self.block_threads.is_empty() {
            return Err(CoreError::EmptyProgram);
        }
        for (i, spec) in self.threads.iter().enumerate() {
            if spec.arity == 0 {
                return Err(CoreError::ZeroArity(ThreadId(i as u32)));
            }
        }
        for (b, threads) in self.block_threads.iter().enumerate() {
            if threads.is_empty() {
                return Err(CoreError::EmptyBlock(BlockId(b as u32)));
            }
        }
        self.check_acyclic()?;

        // Wire inlet/outlet per block. The outlet consumes every application
        // thread of its block (an All arc), so its ready count equals the
        // block's total application-instance count, exactly matching the
        // paper's "when all the DThreads of a DDM Block complete, the Outlet
        // DThread is executed".
        let mut blocks = Vec::with_capacity(self.block_threads.len());
        let block_threads = std::mem::take(&mut self.block_threads);
        for (bi, app_threads) in block_threads.into_iter().enumerate() {
            let block = BlockId(bi as u32);
            let inlet = ThreadId(self.threads.len() as u32);
            self.threads.push(
                ThreadSpec::scalar(format!("inlet.B{bi}"))
                    .with_affinity(Affinity::Fixed(KernelId(0)))
                    .with_kind(ThreadKind::Inlet),
            );
            self.block_of.push(block);
            let outlet = ThreadId(self.threads.len() as u32);
            self.threads.push(
                ThreadSpec::scalar(format!("outlet.B{bi}"))
                    .with_affinity(Affinity::Fixed(KernelId(0)))
                    .with_kind(ThreadKind::Outlet),
            );
            self.block_of.push(block);
            for &t in &app_threads {
                self.arcs.push(Arc {
                    producer: t,
                    consumer: outlet,
                    mapping: ArcMapping::All,
                });
            }
            blocks.push(DdmBlock {
                id: block,
                threads: app_threads,
                inlet,
                outlet,
            });
        }

        // Index arcs and compute initial ready counts.
        let n = self.threads.len();
        let mut arcs_out = vec![Vec::new(); n];
        let mut arcs_in = vec![Vec::new(); n];
        for arc in &self.arcs {
            arcs_out[arc.producer.idx()].push(*arc);
            arcs_in[arc.consumer.idx()].push(*arc);
        }
        let mut initial_rc = Vec::with_capacity(n);
        for (ti, spec) in self.threads.iter().enumerate() {
            let mut rcs = vec![0u32; spec.arity as usize];
            for arc in &arcs_in[ti] {
                let pa = self.threads[arc.producer.idx()].arity;
                for (c, rc) in rcs.iter_mut().enumerate() {
                    *rc += arc.mapping.fan_in(Context(c as u32), pa, spec.arity);
                }
            }
            initial_rc.push(rcs);
        }

        Ok(DdmProgram {
            threads: self.threads,
            blocks,
            block_of: self.block_of,
            arcs_out,
            arcs_in,
            initial_rc,
        })
    }

    /// Kahn's algorithm per block over the template graph.
    fn check_acyclic(&self) -> Result<(), CoreError> {
        let n = self.threads.len();
        let mut indeg = vec![0u32; n];
        let mut out = vec![Vec::new(); n];
        for a in &self.arcs {
            if a.producer == a.consumer {
                return Err(CoreError::CyclicBlock(self.block_of[a.producer.idx()]));
            }
            indeg[a.consumer.idx()] += 1;
            out[a.producer.idx()].push(a.consumer);
        }
        let mut queue: Vec<ThreadId> = (0..n as u32)
            .map(ThreadId)
            .filter(|t| indeg[t.idx()] == 0)
            .collect();
        let mut seen = 0usize;
        while let Some(t) = queue.pop() {
            seen += 1;
            for &c in &out[t.idx()] {
                indeg[c.idx()] -= 1;
                if indeg[c.idx()] == 0 {
                    queue.push(c);
                }
            }
        }
        if seen != n {
            // Find a block containing a cycle member for the error message.
            let culprit = (0..n).find(|&i| indeg[i] > 0).unwrap();
            return Err(CoreError::CyclicBlock(self.block_of[culprit]));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DdmProgram {
        // src -> {a, b} -> sink, all scalar
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let src = b.thread(blk, ThreadSpec::scalar("src"));
        let a = b.thread(blk, ThreadSpec::scalar("a"));
        let bb = b.thread(blk, ThreadSpec::scalar("b"));
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        b.arc(src, a, ArcMapping::Scalar).unwrap();
        b.arc(src, bb, ArcMapping::Scalar).unwrap();
        b.arc(a, sink, ArcMapping::Scalar).unwrap();
        b.arc(bb, sink, ArcMapping::Scalar).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn diamond_ready_counts() {
        let p = diamond();
        assert_eq!(p.initial_rc(Instance::scalar(ThreadId(0))), 0); // src
        assert_eq!(p.initial_rc(Instance::scalar(ThreadId(1))), 1); // a
        assert_eq!(p.initial_rc(Instance::scalar(ThreadId(3))), 2); // sink
                                                                    // outlet waits on all 4 app instances
        let outlet = p.blocks()[0].outlet;
        assert_eq!(p.initial_rc(Instance::scalar(outlet)), 4);
        // inlet is free to run
        let inlet = p.blocks()[0].inlet;
        assert_eq!(p.initial_rc(Instance::scalar(inlet)), 0);
    }

    #[test]
    fn loop_thread_fan_in_from_broadcast() {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let src = b.thread(blk, ThreadSpec::scalar("src"));
        let work = b.thread(blk, ThreadSpec::new("work", 8));
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        b.arc(src, work, ArcMapping::Broadcast).unwrap();
        b.arc(work, sink, ArcMapping::Reduction).unwrap();
        let p = b.build().unwrap();
        for c in 0..8 {
            assert_eq!(p.initial_rc(Instance::new(work, Context(c))), 1);
        }
        assert_eq!(p.initial_rc(Instance::scalar(sink)), 8);
        assert_eq!(p.total_instances(), 1 + 8 + 1 + 2); // + inlet/outlet
        assert_eq!(p.block_instances(BlockId(0)), 11); // apps + outlet
    }

    #[test]
    fn cross_block_arc_rejected() {
        let mut b = ProgramBuilder::new();
        let b0 = b.block();
        let t0 = b.thread(b0, ThreadSpec::scalar("x"));
        let b1 = b.block();
        let t1 = b.thread(b1, ThreadSpec::scalar("y"));
        assert!(matches!(
            b.arc(t0, t1, ArcMapping::Scalar),
            Err(CoreError::CrossBlockArc { .. })
        ));
    }

    #[test]
    fn cycle_rejected() {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let t0 = b.thread(blk, ThreadSpec::scalar("x"));
        let t1 = b.thread(blk, ThreadSpec::scalar("y"));
        b.arc(t0, t1, ArcMapping::Scalar).unwrap();
        b.arc(t1, t0, ArcMapping::Scalar).unwrap();
        assert!(matches!(b.build(), Err(CoreError::CyclicBlock(_))));
    }

    #[test]
    fn self_arc_rejected() {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let t0 = b.thread(blk, ThreadSpec::new("x", 4));
        b.arc(t0, t0, ArcMapping::Offset(1)).unwrap();
        assert!(matches!(b.build(), Err(CoreError::CyclicBlock(_))));
    }

    #[test]
    fn duplicate_arc_rejected() {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let t0 = b.thread(blk, ThreadSpec::scalar("x"));
        let t1 = b.thread(blk, ThreadSpec::scalar("y"));
        b.arc(t0, t1, ArcMapping::Scalar).unwrap();
        assert!(matches!(
            b.arc(t0, t1, ArcMapping::Scalar),
            Err(CoreError::DuplicateArc { .. })
        ));
    }

    #[test]
    fn empty_program_and_block_rejected() {
        assert!(matches!(
            ProgramBuilder::new().build(),
            Err(CoreError::EmptyProgram)
        ));
        let mut b = ProgramBuilder::new();
        b.block();
        assert!(matches!(b.build(), Err(CoreError::EmptyBlock(_))));
    }

    #[test]
    fn zero_arity_rejected() {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        b.thread(blk, ThreadSpec::new("z", 0));
        assert!(matches!(b.build(), Err(CoreError::ZeroArity(_))));
    }

    #[test]
    fn unknown_thread_rejected() {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let t0 = b.thread(blk, ThreadSpec::scalar("x"));
        assert!(matches!(
            b.arc(t0, ThreadId(99), ArcMapping::Scalar),
            Err(CoreError::UnknownThread(_))
        ));
    }

    #[test]
    fn multi_block_program_builds() {
        let mut b = ProgramBuilder::new();
        for _ in 0..3 {
            let blk = b.block();
            b.thread(blk, ThreadSpec::new("w", 4));
        }
        let p = b.build().unwrap();
        assert_eq!(p.blocks().len(), 3);
        // every block has its own inlet/outlet
        for blk in p.blocks() {
            assert_eq!(p.thread(blk.inlet).kind, ThreadKind::Inlet);
            assert_eq!(p.thread(blk.outlet).kind, ThreadKind::Outlet);
            assert_eq!(p.block_of(blk.inlet), blk.id);
            assert_eq!(p.block_instances(blk.id), 5);
        }
    }
}
