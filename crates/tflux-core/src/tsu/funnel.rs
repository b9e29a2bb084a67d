//! The per-kernel completion funnel: local accumulation of App
//! completions, flushed in batches through [`Tsu::complete_batch`].
//!
//! A `Reduction` arc sends every producer's ready-count decrement at the
//! *same* sink slot; with K kernels completing producers concurrently
//! that slot's cache line ping-pongs K ways. The funnel is the classic
//! combining cure: each kernel parks its completions here (keyed by
//! `(consumer thread, context)` once combined by the Synchronization
//! Memory) and hands them over as one batch, so the sink sees one
//! `fetch_sub(n)` per flush instead of n separate RMWs.
//!
//! The funnel itself is deliberately dumb — a bounded pending list and a
//! policy. All protocol knowledge (state transitions, combining, the n→0
//! publication rule) lives behind [`Tsu::complete_batch`], so the same
//! funnel fronts the threaded runtime, the simulated hardware TSU and the
//! Cell machine.

use crate::error::CoreError;
use crate::ids::{Epoch, Instance, KernelId};

use super::config::FlushPolicy;
use super::gm::ProgramHandle;
use super::Tsu;

/// Per-kernel accumulator of App completions awaiting a batched flush.
///
/// Under [`FlushPolicy::Direct`] the funnel never accumulates:
/// [`push`](Self::push) reports every completion as an immediate flush of
/// one. Under [`FlushPolicy::Batch`] completions park until the batch
/// size is reached — and the *kernel* must also flush at any point where
/// it might block or give up the CPU (a fetch that returns `Wait`, a
/// block transition, loop exit), or the deferred decrements would
/// deadlock the very consumers the kernel is waiting on.
///
/// A batch carries one epoch token for all its completions. That is an
/// invariant, not a restriction: block transitions (and therefore epoch
/// wraps, which ride the final outlet completion) flush every funnel
/// before the next pass dispatches, so a kernel can never park
/// completions from two different epochs.
#[derive(Debug)]
pub struct CompletionFunnel {
    pending: Vec<Instance>,
    /// Epoch of every parked completion (set by the first push of a
    /// batch).
    epoch: Epoch,
    /// Completions per automatic flush; 1 on the direct path.
    batch: usize,
}

impl CompletionFunnel {
    /// A funnel obeying `policy`.
    pub fn new(policy: FlushPolicy) -> Self {
        let batch = policy.batch_size().unwrap_or(1);
        CompletionFunnel {
            pending: Vec::with_capacity(batch),
            epoch: Epoch(0),
            batch,
        }
    }

    /// Whether this funnel actually batches (false under
    /// [`FlushPolicy::Direct`]).
    pub fn batching(&self) -> bool {
        self.batch > 1
    }

    /// Completions currently parked.
    pub fn pending(&self) -> &[Instance] {
        &self.pending
    }

    /// Whether nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Park a completion fetched under `epoch`. Returns `true` when the
    /// batch is full and the caller must [`flush`](Self::flush) now. The
    /// first push of a batch fixes the batch's epoch; mixing epochs in
    /// one batch is a kernel protocol bug (block transitions flush before
    /// any epoch wrap, so it cannot happen in a well-behaved kernel).
    #[must_use]
    pub fn push(&mut self, inst: Instance, epoch: Epoch) -> bool {
        if self.pending.is_empty() {
            self.epoch = epoch;
        } else {
            debug_assert_eq!(
                self.epoch, epoch,
                "completion funnel batch spans an epoch boundary"
            );
        }
        self.pending.push(inst);
        self.pending.len() >= self.batch
    }

    /// Hand everything parked to `tsu` as one batch performed by
    /// `kernel`, the kernel this funnel belongs to; newly-ready
    /// instances land in `ready` (cleared first; cleared even when the
    /// funnel is empty, so callers can rely on it). On error the funnel
    /// is left empty — the TSU has poisoned itself and replaying the
    /// batch would only fail again.
    pub fn flush<P: ProgramHandle>(
        &mut self,
        kernel: KernelId,
        tsu: &Tsu<P>,
        ready: &mut Vec<Instance>,
    ) -> Result<(), CoreError> {
        if self.pending.is_empty() {
            ready.clear();
            return Ok(());
        }
        let result = tsu.complete_batch(kernel, &self.pending, self.epoch, ready);
        self.pending.clear();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Context, ThreadId};
    use crate::mapping::ArcMapping;
    use crate::program::ProgramBuilder;
    use crate::thread::ThreadSpec;
    use crate::tsu::{FetchResult, TsuConfig};

    fn wide_reduction(arity: u32) -> crate::program::DdmProgram {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let work = b.thread(blk, ThreadSpec::new("w", arity));
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        b.arc(work, sink, ArcMapping::Reduction).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn direct_policy_flushes_every_push() {
        let mut f = CompletionFunnel::new(FlushPolicy::Direct);
        assert!(!f.batching());
        assert!(f.push(Instance::new(ThreadId(0), Context(0)), Epoch(0)));
    }

    #[test]
    fn batch_policy_fills_before_demanding_a_flush() {
        let mut f = CompletionFunnel::new(FlushPolicy::Batch { size: 3 });
        assert!(f.batching());
        assert!(!f.push(Instance::new(ThreadId(0), Context(0)), Epoch(0)));
        assert!(!f.push(Instance::new(ThreadId(0), Context(1)), Epoch(0)));
        assert!(f.push(Instance::new(ThreadId(0), Context(2)), Epoch(0)));
        assert_eq!(f.pending().len(), 3);
    }

    #[test]
    fn zero_batch_size_is_clamped_to_direct() {
        let mut f = CompletionFunnel::new(FlushPolicy::Batch { size: 0 });
        assert!(!f.batching());
        assert!(f.push(Instance::new(ThreadId(0), Context(0)), Epoch(0)));
    }

    #[test]
    fn flush_drives_a_tsu_and_empties_the_funnel() {
        let p = wide_reduction(4);
        let tsu = Tsu::new(&p, 1, TsuConfig::default());
        let mut f = CompletionFunnel::new(FlushPolicy::Batch { size: 8 });
        let mut ready = Vec::new();
        // run the inlet directly, park every work completion
        let FetchResult::Thread(inlet, ep) = tsu.fetch(KernelId(0)).unwrap() else {
            panic!("inlet not ready");
        };
        tsu.complete(KernelId(0), inlet, ep, &mut ready).unwrap();
        for _ in 0..4 {
            let FetchResult::Thread(i, ep) = tsu.fetch(KernelId(0)).unwrap() else {
                panic!("work not ready");
            };
            let _ = f.push(i, ep);
        }
        assert_eq!(f.pending().len(), 4);
        f.flush(KernelId(0), &tsu, &mut ready).unwrap();
        assert!(f.is_empty());
        // the flush published the sink onto the TSU's queues
        let FetchResult::Thread(sink, _) = tsu.fetch(KernelId(0)).unwrap() else {
            panic!("sink not ready after flush");
        };
        assert_eq!(sink.thread, ThreadId(1));
        // flushing an empty funnel is a no-op that still clears `ready`
        ready.push(sink);
        f.flush(KernelId(0), &tsu, &mut ready).unwrap();
        assert!(ready.is_empty());
    }
}
