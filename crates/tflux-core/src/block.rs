//! DDM blocks: TSU-sized partitions of a program.
//!
//! A program with an arbitrarily large synchronization graph is split into
//! *DDM blocks* so that only one block's metadata needs to live in the TSU
//! at a time (§2 of the paper). Each block carries two synthetic DThreads:
//! the **Inlet**, whose completion loads the block's metadata into the TSU,
//! and the **Outlet**, which becomes ready once every application DThread of
//! the block has completed and whose completion frees the TSU entries and
//! chains the next block's inlet (or terminates the kernels for the last
//! block).

use crate::ids::{BlockId, ThreadId};

/// One DDM block: a subset of the program's DThreads plus its inlet/outlet.
#[derive(Clone, Debug)]
pub struct DdmBlock {
    /// Dense block id (blocks execute in id order).
    pub id: BlockId,
    /// The application DThreads that belong to this block.
    pub threads: Vec<ThreadId>,
    /// The synthetic inlet DThread.
    pub inlet: ThreadId,
    /// The synthetic outlet DThread.
    pub outlet: ThreadId,
}

impl DdmBlock {
    /// Iterate over every thread of the block including inlet and outlet.
    pub fn all_threads(&self) -> impl Iterator<Item = ThreadId> + '_ {
        std::iter::once(self.inlet)
            .chain(self.threads.iter().copied())
            .chain(std::iter::once(self.outlet))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_threads_orders_inlet_first_outlet_last() {
        let b = DdmBlock {
            id: BlockId(0),
            threads: vec![ThreadId(1), ThreadId(2)],
            inlet: ThreadId(0),
            outlet: ThreadId(3),
        };
        let v: Vec<_> = b.all_threads().collect();
        assert_eq!(v, vec![ThreadId(0), ThreadId(1), ThreadId(2), ThreadId(3)]);
    }
}
