//! The per-kernel completion funnel, and the rule by which a finished
//! DThread reaches the Synchronization Memory on the threaded runtime and
//! the Cell PPE.
//!
//! A `Reduction` arc sends every producer's ready-count decrement at the
//! *same* sink slot; with K kernels completing producers concurrently
//! that slot's cache line ping-pongs K ways. The funnel is the classic
//! combining cure: each kernel parks its App completions here and hands
//! them over as one batch ([`Tsu::complete_batch`]), so the sink sees one
//! `fetch_sub(n)` per flush instead of n separate RMWs.
//!
//! Whether a run batches at all is read off the program, once, by
//! [`funnel_batch`]: combining pays exactly when some reduction sink will
//! absorb updates from every kernel. `Runtime::run`'s kernels, the Cell PPE
//! and [`drain_sequential`](super::drain_sequential) build their funnels
//! from it; a funnel of batch size 1 is the direct path.
//!
//! [`CompletionFunnel::complete`] is the rule itself: an App completion
//! parks when the funnel batches and flushes the funnel when it is full;
//! anything else flushes the funnel, then completes directly. The PPE
//! charges each Synchronization Memory operation it reports. All protocol
//! knowledge (state transitions, combining, the n→0 publication rule)
//! lives behind [`Tsu`].

use crate::error::CoreError;
use crate::graph::hot_sinks;
use crate::ids::{Epoch, Instance, KernelId};
use crate::program::DdmProgram;
use crate::thread::ThreadKind;

use super::access::Access;
use super::gm::ProgramHandle;
use super::Tsu;

/// Completions per automatic flush of a batching funnel.
pub const FUNNEL_BATCH: usize = 8;

/// The batch size of the funnels that run `program` on `kernels` kernels:
/// [`FUNNEL_BATCH`] when more than one kernel will feed some sink whose
/// fan-in is at least the kernel count (that sink's cache line is worth
/// funneling), 1 — the direct path — otherwise.
pub fn funnel_batch(program: &DdmProgram, kernels: u32) -> usize {
    if kernels > 1 && hot_sinks(program, kernels).next().is_some() {
        FUNNEL_BATCH
    } else {
        1
    }
}

/// Per-kernel accumulator of App completions awaiting a batched flush.
///
/// At batch size 1 the funnel never accumulates. Above it App
/// completions park until the batch size is reached — and the *kernel*
/// must also [`flush`](Self::flush) at any
/// point where it might block or give up the CPU (a fetch that returns
/// `Wait`, loop exit), or the deferred decrements would deadlock the very
/// consumers the kernel is waiting on. Block transitions flush inside
/// [`complete`](Self::complete).
///
/// A batch carries one epoch token for all its completions. That is an
/// invariant, not a restriction: block transitions (and therefore epoch
/// wraps, which ride the final outlet completion) flush every funnel
/// before the next pass dispatches, so a kernel can never park
/// completions from two different epochs.
#[derive(Debug)]
pub struct CompletionFunnel {
    pending: Vec<Instance>,
    /// Epoch of every parked completion (set by the first park of a
    /// batch).
    epoch: Epoch,
    /// Completions per automatic flush; 1 on the direct path.
    batch: usize,
}

impl CompletionFunnel {
    /// A funnel that flushes every `batch` App completions (clamped to
    /// ≥ 1; 1 completes each on its own).
    pub fn new(batch: usize) -> Self {
        let batch = batch.max(1);
        CompletionFunnel {
            pending: Vec::with_capacity(batch),
            epoch: Epoch(0),
            batch,
        }
    }

    /// Whether nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Hand `tsu` the completion of `inst`, which `kernel` (the kernel this
    /// funnel belongs to) fetched under `epoch` and ran. An App completion
    /// parks when the funnel batches, and a full funnel flushes; anything
    /// else flushes the funnel, then completes directly — a block
    /// transition's post-processing must see every decrement parked before
    /// it. Returns how many Synchronization Memory operations that took:
    /// none for a parked completion, at most a flush then a completion.
    /// `ready` is the scratch their newly-ready instances land in; it is
    /// cleared first, so after a successful call it holds the last
    /// operation's ready list.
    ///
    /// Allocates nothing. On error nothing follows the operation that
    /// failed.
    pub fn complete<P: ProgramHandle, M: Access>(
        &mut self,
        kernel: KernelId,
        tsu: &Tsu<P, M>,
        inst: Instance,
        epoch: Epoch,
        ready: &mut Vec<Instance>,
    ) -> Result<u32, CoreError> {
        ready.clear();
        let parks = self.batch > 1 && tsu.graph().kind(inst.thread) == ThreadKind::App;
        if parks {
            if self.pending.is_empty() {
                self.epoch = epoch;
            } else {
                debug_assert_eq!(
                    self.epoch, epoch,
                    "completion funnel batch spans an epoch boundary"
                );
            }
            self.pending.push(inst);
            if self.pending.len() < self.batch {
                return Ok(0);
            }
        }
        let flushes = !self.pending.is_empty();
        if flushes {
            self.flush(kernel, tsu, ready)?;
        }
        if !parks {
            tsu.complete(kernel, inst, epoch, ready)?;
        }
        Ok(flushes as u32 + !parks as u32)
    }

    /// Hand everything parked to `tsu` as one batch performed by
    /// `kernel`, the kernel this funnel belongs to; newly-ready
    /// instances land in `ready` (cleared first; cleared even when the
    /// funnel is empty, so callers can rely on it). On error the funnel
    /// is left empty — the TSU has poisoned itself and replaying the
    /// batch would only fail again.
    pub fn flush<P: ProgramHandle, M: Access>(
        &mut self,
        kernel: KernelId,
        tsu: &Tsu<P, M>,
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
    use crate::ids::ThreadId;
    use crate::mapping::ArcMapping;
    use crate::program::ProgramBuilder;
    use crate::thread::ThreadSpec;
    use crate::tsu::{FetchResult, Owned, TsuConfig};

    fn wide_reduction(arity: u32) -> DdmProgram {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let work = b.thread(blk, ThreadSpec::new("w", arity));
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        b.arc(work, sink, ArcMapping::Reduction).unwrap();
        b.build().unwrap()
    }

    /// A one-kernel TSU for `wide_reduction(arity)`, with its inlet
    /// completed: every work instance is ready.
    fn loaded(p: &DdmProgram) -> Tsu<&DdmProgram, Owned> {
        let tsu = Tsu::new(p, 1, TsuConfig::default());
        let FetchResult::Thread(inlet, ep) = tsu.fetch(KernelId(0)).unwrap() else {
            panic!("inlet not ready");
        };
        let mut ready = Vec::new();
        tsu.complete(KernelId(0), inlet, ep, &mut ready).unwrap();
        tsu
    }

    /// Fetch the next instance and complete it through `f`; returns the
    /// number of operations performed and the last one's ready count.
    fn step(tsu: &Tsu<&DdmProgram, Owned>, f: &mut CompletionFunnel) -> (Instance, (u32, usize)) {
        let FetchResult::Thread(i, ep) = tsu.fetch(KernelId(0)).unwrap() else {
            panic!("nothing ready");
        };
        let mut ready = Vec::new();
        let ops = f.complete(KernelId(0), tsu, i, ep, &mut ready).unwrap();
        (i, (ops, ready.len()))
    }

    #[test]
    fn the_batch_is_read_off_the_program() {
        // a sink fed by at least every kernel, on two or more kernels
        let hot = wide_reduction(8);
        assert_eq!(funnel_batch(&hot, 2), FUNNEL_BATCH);
        assert_eq!(funnel_batch(&hot, 8), FUNNEL_BATCH);
        // one kernel: nothing to combine
        assert_eq!(funnel_batch(&hot, 1), 1);
        // no sink with fan-in ≥ kernels: nothing worth combining
        assert_eq!(funnel_batch(&hot, 9), 1);
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        b.thread(blk, ThreadSpec::new("w", 8));
        assert_eq!(funnel_batch(&b.build().unwrap(), 2), 1);
    }

    #[test]
    fn direct_policy_completes_every_instance_on_its_own() {
        for batch in [1, 0] {
            let p = wide_reduction(2);
            let tsu = loaded(&p);
            let mut f = CompletionFunnel::new(batch);
            assert_eq!(step(&tsu, &mut f).1, (1, 0));
            assert!(f.is_empty(), "batch {batch} must never park");
        }
    }

    #[test]
    fn batch_policy_parks_until_full_then_flushes_once() {
        let p = wide_reduction(3);
        let tsu = loaded(&p);
        let mut f = CompletionFunnel::new(3);
        assert_eq!(step(&tsu, &mut f).1, (0, 0));
        assert_eq!(step(&tsu, &mut f).1, (0, 0));
        assert_eq!(f.pending.len(), 2);
        // the third fills the batch: one flush, which readies the sink
        assert_eq!(step(&tsu, &mut f).1, (1, 1));
        assert!(f.is_empty());
    }

    #[test]
    fn parked_completions_gate_the_block_transition() {
        let p = wide_reduction(4);
        let tsu = loaded(&p);
        let mut f = CompletionFunnel::new(FUNNEL_BATCH);
        let mut ready = Vec::new();
        for _ in 0..4 {
            assert_eq!(step(&tsu, &mut f).1, (0, 0));
        }
        // nothing is ready until the parked work reaches the SM
        assert_eq!(tsu.fetch(KernelId(0)).unwrap(), FetchResult::Wait);
        f.flush(KernelId(0), &tsu, &mut ready).unwrap();
        assert!(f.is_empty());
        // the sink is App too: it parks, and holds the outlet back
        let (sink, ops) = step(&tsu, &mut f);
        assert_eq!((sink.thread, ops), (ThreadId(1), (0, 0)));
        assert_eq!(tsu.fetch(KernelId(0)).unwrap(), FetchResult::Wait);
        f.flush(KernelId(0), &tsu, &mut ready).unwrap();
        // the outlet is not App: it completes on its own, readying nothing
        let (outlet, ops) = step(&tsu, &mut f);
        assert_eq!(outlet, Instance::scalar(p.blocks()[0].outlet));
        assert_eq!(ops, (1, 0));
        assert!(tsu.finished());
        // flushing an empty funnel is a no-op that still clears `ready`
        ready.push(outlet);
        f.flush(KernelId(0), &tsu, &mut ready).unwrap();
        assert!(ready.is_empty());
    }
}
