//! Identifier newtypes for the DDM model.
//!
//! Everything in the model is addressed by small dense integers so that the
//! TSU state machine can use flat arrays instead of hash maps — the paper's
//! hardware TSU does exactly this with its Synchronization Memory.

use std::fmt;

/// Identifier of a DThread *template* (a node of the synchronization graph).
///
/// Thread ids are dense: the `ProgramBuilder` assigns them in creation order
/// across the whole program, so a `ThreadId` can index a `Vec`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

/// Instance index of a loop DThread (the DDM *context*).
///
/// Scalar DThreads have a single instance with context `0`; a loop DThread
/// of arity `n` has contexts `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Context(pub u32);

/// A concrete schedulable unit: a DThread template plus a context.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Instance {
    /// The DThread template.
    pub thread: ThreadId,
    /// The instance index within the template.
    pub context: Context,
}

/// Identifier of a DDM block (dense, in program order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// Identifier of an execution kernel (one per CPU devoted to DThreads).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(pub u32);

/// Identifier of an admitted program (a *tenant*) in a multi-program server.
///
/// Program ids are assigned monotonically by the admitting server and are
/// never reused, so a stale id can always be detected after eviction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProgramId(pub u64);

/// One streaming iteration of a program through its dataflow graph.
///
/// Epochs are assigned monotonically per Synchronization Memory: epoch 0 is
/// the one-shot run every program gets at construction, and each
/// `open_epoch` credits one more pass. The full 64-bit id never wraps; the
/// 30-bit tag packed into each slot's lifecycle word is `epoch mod 2^30`,
/// which is ample to reject any late completion a real schedule can produce.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Epoch(pub u64);

impl ThreadId {
    /// The id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl Context {
    /// The context as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl BlockId {
    /// The id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl KernelId {
    /// The id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl ProgramId {
    /// The id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl Instance {
    /// Build an instance from raw parts.
    #[inline]
    pub fn new(thread: ThreadId, context: Context) -> Self {
        Instance { thread, context }
    }

    /// The single instance of a scalar thread.
    #[inline]
    pub fn scalar(thread: ThreadId) -> Self {
        Instance::new(thread, Context(0))
    }
}

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Debug for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.c{}", self.thread.0, self.context.0)
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.c{}", self.thread.0, self.context.0)
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

impl fmt::Debug for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "K{}", self.0)
    }
}

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "K{}", self.0)
    }
}

impl fmt::Debug for ProgramId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Debug for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

impl fmt::Display for ProgramId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_ordering_is_thread_major() {
        let a = Instance::new(ThreadId(1), Context(9));
        let b = Instance::new(ThreadId(2), Context(0));
        assert!(a < b);
    }

    #[test]
    fn debug_formats_are_compact() {
        let i = Instance::new(ThreadId(3), Context(7));
        assert_eq!(format!("{i:?}"), "T3.c7");
        assert_eq!(format!("{:?}", BlockId(2)), "B2");
        assert_eq!(format!("{:?}", KernelId(5)), "K5");
        assert_eq!(format!("{:?}", ProgramId(7)), "P7");
    }

    #[test]
    fn scalar_instance_has_context_zero() {
        assert_eq!(Instance::scalar(ThreadId(4)).context, Context(0));
    }
}
