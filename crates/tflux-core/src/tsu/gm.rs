//! Graph Memory: the read-only program view inside the TSU.
//!
//! §3.3/Fig. 4 of the paper draw the TSU as separate units; the Graph
//! Memory holds what never changes during a run — the DThread templates,
//! their consumer lists, the DDM-block structure and the thread→kernel
//! placement function. Because it is immutable it is freely shareable by
//! `&` (and is `Copy`): every kernel thread can resolve consumer lists and
//! instance ownership without any synchronization.

use crate::ids::{BlockId, Instance, KernelId, ThreadId};
use crate::program::{Arc, DdmProgram};
use crate::thread::ThreadKind;

/// A cloneable handle to a [`DdmProgram`].
///
/// The TSU units are generic over *how* the program is held so the same
/// code serves both the single-run drivers (which borrow the caller's
/// program: `P = &DdmProgram`, making the units `Copy` as before) and a
/// long-lived multi-program server (which needs `'static` arenas:
/// `P = std::sync::Arc<DdmProgram>`).
pub trait ProgramHandle: Clone {
    /// Borrow the underlying program.
    fn get(&self) -> &DdmProgram;
}

impl ProgramHandle for &DdmProgram {
    #[inline]
    fn get(&self) -> &DdmProgram {
        self
    }
}

impl ProgramHandle for std::sync::Arc<DdmProgram> {
    #[inline]
    fn get(&self) -> &DdmProgram {
        self
    }
}

/// The immutable program view shared by every TSU unit.
///
/// A `GraphMemory` is a cheap handle (`Copy` when the program handle is,
/// i.e. for borrowed programs): it holds the program and carries the kernel
/// count, which together determine the *owning kernel* of every instance
/// ([`owner_of`](Self::owner_of)) — the key the queue units index by.
#[derive(Clone, Copy)]
pub struct GraphMemory<P: ProgramHandle> {
    program: P,
    kernels: u32,
}

impl<P: ProgramHandle> GraphMemory<P> {
    /// View `program` as executed by `kernels` kernels (clamped to ≥ 1,
    /// the rule every platform configuration applies).
    pub fn new(program: P, kernels: u32) -> Self {
        GraphMemory {
            program,
            kernels: kernels.max(1),
        }
    }

    /// The underlying program.
    #[inline]
    pub fn program(&self) -> &DdmProgram {
        self.program.get()
    }

    /// Number of kernels the placement function maps onto.
    #[inline]
    pub fn kernels(&self) -> u32 {
        self.kernels
    }

    /// The kernel an instance is placed on (its affinity resolved against
    /// the kernel count): the queue unit a ready instance is pushed on,
    /// and the `updater` identity of the line-transfer statistic.
    #[inline]
    pub fn owner_of(&self, i: Instance) -> KernelId {
        self.program.get().kernel_of(i, self.kernels)
    }

    /// The kind (App / Inlet / Outlet) of a thread.
    #[inline]
    pub fn kind(&self, t: ThreadId) -> ThreadKind {
        self.program.get().thread(t).kind
    }

    /// The consumer list of a thread — the Graph Memory rows walked during
    /// the Post-Processing Phase.
    #[inline]
    pub fn consumers(&self, t: ThreadId) -> &[Arc] {
        self.program.get().consumers(t)
    }

    /// The block a thread belongs to.
    #[inline]
    pub fn block_of(&self, t: ThreadId) -> BlockId {
        self.program.get().block_of(t)
    }

    /// Residency cost of a block in Synchronization Memory entries.
    #[inline]
    pub fn block_instances(&self, b: BlockId) -> usize {
        self.program.get().block_instances(b)
    }

    /// The inlet instance of the first block — what arms a fresh TSU.
    #[inline]
    pub fn first_inlet(&self) -> Instance {
        Instance::scalar(self.program.get().blocks()[0].inlet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::ArcMapping;
    use crate::program::ProgramBuilder;
    use crate::thread::{Affinity, ThreadSpec};

    #[test]
    fn owner_respects_fixed_affinity() {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let t = b.thread(
            blk,
            ThreadSpec::new("w", 4).with_affinity(Affinity::Fixed(KernelId(2))),
        );
        let p = b.build().unwrap();
        let gm = GraphMemory::new(&p, 4);
        for c in 0..4 {
            assert_eq!(
                gm.owner_of(Instance::new(t, crate::ids::Context(c))),
                KernelId(2)
            );
        }
    }

    #[test]
    fn first_inlet_is_block_zero_inlet() {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let src = b.thread(blk, ThreadSpec::scalar("src"));
        let snk = b.thread(blk, ThreadSpec::scalar("snk"));
        b.arc(src, snk, ArcMapping::All).unwrap();
        let p = b.build().unwrap();
        let gm = GraphMemory::new(&p, 2);
        assert_eq!(gm.first_inlet(), Instance::scalar(p.blocks()[0].inlet));
        assert_eq!(gm.kind(gm.first_inlet().thread), ThreadKind::Inlet);
    }
}
