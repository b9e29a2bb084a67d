//! Error types for program construction and TSU operation.

use crate::ids::{BlockId, Epoch, Instance, KernelId, ThreadId};
use std::fmt;

/// Errors raised while building or executing a DDM program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An arc referenced a thread id that was never declared.
    UnknownThread(ThreadId),
    /// An arc connected threads living in different DDM blocks.
    ///
    /// Cross-block dependencies are expressed by block ordering (the paper's
    /// Inlet/Outlet chaining), not by explicit arcs.
    CrossBlockArc {
        /// The producer side of the offending arc.
        producer: ThreadId,
        /// The consumer side of the offending arc.
        consumer: ThreadId,
    },
    /// An arc mapping is incompatible with the producer/consumer arities.
    ArityMismatch {
        /// The producer side of the offending arc.
        producer: ThreadId,
        /// The consumer side of the offending arc.
        consumer: ThreadId,
        /// Human-readable description of the incompatibility.
        detail: String,
    },
    /// A thread was declared with arity zero.
    ZeroArity(ThreadId),
    /// The synchronization graph of a block contains a dependency cycle.
    CyclicBlock(BlockId),
    /// A block holds more instances than the TSU capacity allows.
    BlockTooLarge {
        /// The offending block.
        block: BlockId,
        /// Number of instances the block needs loaded at once.
        instances: usize,
        /// The TSU capacity that was exceeded.
        capacity: usize,
    },
    /// The program has no blocks.
    EmptyProgram,
    /// A block has no application threads.
    EmptyBlock(BlockId),
    /// `complete` was called for an instance that is not currently running.
    NotRunning(Instance),
    /// `dispatch` was called for an instance that is not resident in the
    /// Synchronization Memory (its block is not loaded, it already ran, or
    /// it is already running).
    NotResident(Instance),
    /// The Synchronization Memory was poisoned: a kernel died mid-update
    /// (or a protocol invariant was violated mid-flight), so the ready
    /// counts can no longer be trusted. All subsequent operations fail
    /// with this error instead of silently continuing on half-applied
    /// state.
    SmPoisoned,
    /// A duplicate arc was inserted between the same pair of threads.
    DuplicateArc {
        /// The producer side of the offending arc.
        producer: ThreadId,
        /// The consumer side of the offending arc.
        consumer: ThreadId,
    },
    /// An operation carried an epoch token older than the state it touched:
    /// a late completion from a retired epoch raced a re-armed slot, or an
    /// epoch was retired twice. The stale side always loses — exactly one
    /// winner per slot and per retirement.
    StaleEpoch {
        /// The epoch the stale operation belonged to.
        epoch: Epoch,
        /// The epoch the Synchronization Memory is currently running.
        current: Epoch,
    },
    /// `retire_epoch` was called for an epoch that has not finished its
    /// pass yet, or out of order — epochs retire oldest-first.
    EpochNotDrained(Epoch),
    /// `open_epoch` found every credit in the window spoken for: the
    /// feeder must wait for a completion to retire an epoch and return a
    /// credit before streaming another pass.
    WindowExhausted {
        /// The configured credit window (maximum in-flight epochs).
        window: usize,
    },
    /// A single-owner drain polled every kernel and none could fetch,
    /// with the program unfinished. Unreachable for a validated
    /// (acyclic) program whose completions are all reported.
    Deadlock {
        /// Resident instances still waiting on producers.
        waiting: usize,
    },
    /// A fetch or completion named a kernel the TSU does not serve. Every
    /// kernel id owns one queue unit and one single-writer counter row;
    /// serving a stranger from somebody else's would put two owners on one
    /// Chase-Lev deque.
    UnknownKernel {
        /// The id that was presented.
        kernel: KernelId,
        /// Kernels the TSU serves: valid ids are `0..kernels`.
        kernels: u32,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownThread(t) => write!(f, "unknown thread {t}"),
            CoreError::CrossBlockArc { producer, consumer } => write!(
                f,
                "arc {producer} -> {consumer} crosses DDM block boundaries; \
                 order the blocks instead"
            ),
            CoreError::ArityMismatch {
                producer,
                consumer,
                detail,
            } => write!(f, "arc {producer} -> {consumer}: {detail}"),
            CoreError::ZeroArity(t) => write!(f, "thread {t} declared with arity 0"),
            CoreError::CyclicBlock(b) => {
                write!(f, "block {b:?} contains a dependency cycle")
            }
            CoreError::BlockTooLarge {
                block,
                instances,
                capacity,
            } => write!(
                f,
                "block {block:?} needs {instances} TSU entries but capacity is {capacity}; \
                 split it into more blocks"
            ),
            CoreError::EmptyProgram => write!(f, "program has no DDM blocks"),
            CoreError::EmptyBlock(b) => write!(f, "block {b:?} has no application threads"),
            CoreError::NotRunning(i) => {
                write!(f, "instance {i} completed but was never fetched")
            }
            CoreError::NotResident(i) => {
                write!(f, "instance {i} dispatched but its block is not loaded")
            }
            CoreError::SmPoisoned => write!(
                f,
                "synchronization memory poisoned by a kernel death mid-update; \
                 ready counts are no longer trustworthy"
            ),
            CoreError::DuplicateArc { producer, consumer } => {
                write!(f, "duplicate arc {producer} -> {consumer}")
            }
            CoreError::StaleEpoch { epoch, current } => write!(
                f,
                "stale update from epoch {epoch} rejected; the table is at epoch {current}"
            ),
            CoreError::EpochNotDrained(e) => write!(
                f,
                "epoch {e} cannot retire: it has not drained yet (epochs retire oldest-first)"
            ),
            CoreError::WindowExhausted { window } => write!(
                f,
                "epoch credit window of {window} exhausted; retire a completed epoch first"
            ),
            CoreError::Deadlock { waiting } => write!(
                f,
                "no kernel can make progress: every queue is empty with {waiting} instances waiting"
            ),
            CoreError::UnknownKernel { kernel, kernels } => {
                write!(f, "{kernel} is not one of this TSU's {kernels} kernels")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::BlockTooLarge {
            block: BlockId(1),
            instances: 100,
            capacity: 64,
        };
        let s = e.to_string();
        assert!(s.contains("100"));
        assert!(s.contains("64"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&CoreError::EmptyProgram);
    }
}
