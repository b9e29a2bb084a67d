//! The Thread Synchronization Unit, decomposed into the paper's units.
//!
//! §3.3/Fig. 4 of the paper describe the TSU as distinct components, and
//! this module mirrors that structure one type per unit:
//!
//! * [`GraphMemory`] — the immutable program view: DThread templates,
//!   consumer lists, block structure, instance placement. Shareable by `&`.
//! * [`SyncMemory`] — per-instance *Ready Counts* and the Post-Processing
//!   Phase, held in a lock-free table of atomic slots so concurrent
//!   completions never contend on a lock (only block transitions are
//!   serialized).
//! * a [`ReadyQueue`] per kernel — a Chase-Lev work-stealing deque of
//!   ready instances ([`StealDeque`]), sized once from the committed
//!   graph, plus one locked FIFO inbox for runs
//!   pushed by other kernels; idle kernels steal the oldest entry of a
//!   sibling. A queue receives its share of each publication as one run,
//!   and is told when the run comes from its own kernel, so it need not
//!   leave that kernel. No queue blocks: [`FetchResult`] is answered here,
//!   and a platform decides how its idle kernels wait.
//!
//! [`Tsu`] composes the three, once, with the same types on every
//! platform — which is what keeps TFluxSoft, TFluxHard and TFluxCell
//! directly comparable. Every operation takes `&self`, so the same state
//! machine is driven by one thread in the deterministic platforms and the
//! reference executor ([`drain_sequential`]), built by [`Tsu::new`], and
//! shared by `&` between kernel threads in TFluxSoft, built by
//! [`Tsu::threaded`]. The two differ only in the units' [`Access`] mode:
//! [`Owned`] units make each synchronizing step a plain load and store and
//! cannot leave their thread; [`Shared`] units synchronize internally. Every
//! fetch and completion names the kernel performing it: that selects the
//! queue it owns and the one counter row only it writes, which the SM keeps
//! for the SM's columns and the scheduler's alike.

mod access;
mod config;
mod funnel;
mod gm;
mod queue;
mod sync;

pub use access::{Access, Owned, Shared};
pub use config::{TsuConfig, TsuStats, WaitingInstance};
pub use funnel::{funnel_batch, CompletionFunnel, FUNNEL_BATCH};
pub use gm::{GraphMemory, ProgramHandle};
pub use queue::{EventCount, FetchResult, ReadyQueue, Steal, StealDeque};
use sync::CounterRow;
pub use sync::SyncMemory;

use crate::error::CoreError;
use crate::ids::{Epoch, Instance, KernelId};
use crate::policy::{first_victim, StealBackoff};
use crate::program::DdmProgram;
use crate::rng::SplitMix64;
use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The TSU: Graph Memory + Synchronization Memory + one [`ReadyQueue`] per
/// kernel.
///
/// This is the one scheduler of the workspace. Built by [`Tsu::new`] it is
/// the state machine behind the simulated hardware TSU (`tflux-sim`), the
/// Cell PPE (`tflux-cell`) and the sequential reference executor, in the
/// [`Owned`] access mode; built by [`Tsu::threaded`] it is the TSU kernel
/// threads and server arenas share by `&`, in the [`Shared`] one. The
/// protocol is one copy of code; `M` supplies only the synchronizing
/// steps.
///
/// Every instance is dispatched (marked in flight in the Synchronization
/// Memory) *before* it is pushed onto a queue, so a popped or stolen entry
/// can never fail, `fetches` and `completions` pair up exactly, and stall
/// forensics can name an instance that was queued but never popped.
pub struct Tsu<P: ProgramHandle, M: Access = Shared> {
    gm: GraphMemory<P>,
    sm: SyncMemory<P, M>,
    queues: Vec<ReadyQueue<M>>,
    /// Whether a kernel whose own queue misses probes its siblings.
    steal: bool,
    /// The one victim-draw stream of this TSU, seeded from the kernel
    /// count: single-owner runs replay exactly. Concurrent thieves may
    /// interleave their load/store pairs and draw the same victim, which
    /// costs a probe, not correctness.
    steal_rng: AtomicU64,
}

impl<P: ProgramHandle> Tsu<P, Owned> {
    /// Create a TSU for `program` serving `kernels` kernels (clamped to
    /// ≥ 1) and arm it: the inlet of the first block is dispatched and
    /// queued. One queue per kernel, with stealing if configured and there
    /// is anyone to steal from. Each queue's deque is sized here, once, for
    /// the most instances one block places on its kernel, at least 1; it
    /// never needs more (the queue module's "Sizing").
    ///
    /// This is the TSU one thread drives, playing every kernel id: each run
    /// is then its owner's, so it goes straight onto the deque bottom,
    /// rings nothing, and no inbox is ever used. Nothing paces an idle
    /// kernel's victim scans but the TSU itself, so a kernel whose steals
    /// keep missing skips scans under an exponential backoff.
    ///
    /// Its units are [`Owned`]: every CAS, `fetch_sub` and fence of the
    /// protocol is a `Relaxed` load and store or nothing, as the paper's
    /// one serializing TSU unit needs no more. So the TSU is `!Sync`, and
    /// handing it to a second thread does not compile:
    ///
    /// ```compile_fail,E0277
    /// use tflux_core::prelude::*;
    ///
    /// let mut b = ProgramBuilder::new();
    /// let blk = b.block();
    /// b.thread(blk, ThreadSpec::new("work", 4));
    /// let program = b.build().unwrap();
    /// let tsu = Tsu::new(&program, 2, TsuConfig::default());
    /// std::thread::scope(|s| {
    ///     s.spawn(|| tsu.fetch(KernelId(1)));
    ///     tsu.fetch(KernelId(0))
    /// });
    /// ```
    ///
    /// Kernel threads share a [`Tsu::threaded`].
    pub fn new(program: P, kernels: u32, config: TsuConfig) -> Self {
        Self::build(program, kernels, config)
    }
}

impl<P: ProgramHandle> Tsu<P, Shared> {
    /// [`new`](Tsu::new), with the same queues, for kernel ids that are
    /// each a thread parking on its own queue's [`bell`](ReadyQueue::bell).
    /// Its units are [`Shared`]: the protocol's steps are atomic
    /// read-modify-writes and fences, so threads may share it by `&`. A run
    /// goes onto the deque only when the completing kernel owns it; any
    /// other lands in the owner's inbox and rings it. Victim scans are
    /// never skipped: the timed park between rescans already is the
    /// pacing, and a skip window on top of it would be a steal blackout.
    pub fn threaded(program: P, kernels: u32, config: TsuConfig) -> Self {
        Self::build(program, kernels, config)
    }
}

impl<P: ProgramHandle, M: Access> Tsu<P, M> {
    fn build(program: P, kernels: u32, config: TsuConfig) -> Self {
        let sm = SyncMemory::build(program, kernels, config.capacity, config.window);
        let gm = sm.graph();
        let kernels = gm.kernels();
        let queues = queue_bounds(&gm);
        let tsu = Tsu {
            gm,
            sm,
            queues: queues.into_iter().map(ReadyQueue::with_capacity).collect(),
            steal: config.steal && kernels > 1,
            steal_rng: AtomicU64::new(0x5EED_0000 ^ ((kernels as u64) << 8)),
        };
        // a fresh Synchronization Memory is unpoisoned and holds exactly
        // the armed inlet resident, so this cannot fail; were that ever
        // broken, the latched poison makes the first fetch report it
        if tsu.publish(None, &[tsu.sm.armed_inlet()]).is_err() {
            tsu.sm.poison();
        }
        tsu
    }

    /// The program this TSU executes.
    pub fn program(&self) -> &DdmProgram {
        self.gm.program()
    }

    /// Number of kernels served.
    pub fn kernels(&self) -> u32 {
        self.gm.kernels()
    }

    /// The read-only Graph Memory view.
    pub fn graph(&self) -> &GraphMemory<P> {
        &self.gm
    }

    /// The queues, one per kernel. Kernel threads park on their own; stall
    /// forensics read the depths.
    pub fn queues(&self) -> &[ReadyQueue<M>] {
        &self.queues
    }

    /// The epoch currently executing.
    pub fn current_epoch(&self) -> Epoch {
        self.sm.current_epoch()
    }

    /// The epoch ledger: `(opened, completed, retired)` pass counts.
    pub fn epoch_ledger(&self) -> (u64, u64, u64) {
        self.sm.epoch_ledger()
    }

    /// Whether the last block's outlet has completed.
    pub fn finished(&self) -> bool {
        self.sm.finished()
    }

    /// Completions processed so far — the watchdog's progress probe.
    pub fn completions(&self) -> u64 {
        self.sm.completions()
    }

    /// Total ready instances across all queue units.
    pub fn ready_len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Operation counters, summed over every kernel's row.
    pub fn stats(&self) -> TsuStats {
        self.sm.stats()
    }

    /// The counters of the operations `kernel` performed: its fetches,
    /// waits and steals, and the completions and ready-count updates it
    /// applied ([`SyncMemory::kernel_stats`]).
    pub fn kernel_stats(&self, kernel: KernelId) -> TsuStats {
        self.sm.kernel_stats(kernel)
    }

    /// Stall forensics from one pass over the Synchronization Memory:
    /// every resident instance whose ready count is still above zero, and
    /// every instance dispatched but not yet completed (queued, stolen or
    /// executing). Both ordered thread-major, context-minor.
    pub fn forensics(&self) -> (Vec<WaitingInstance>, Vec<Instance>) {
        self.sm.forensics()
    }

    /// Poison the Synchronization Memory: a kernel died mid-completion, so
    /// the ready counts can no longer be trusted. Every subsequent
    /// fetch/complete fails with [`CoreError::SmPoisoned`].
    pub fn poison(&self) {
        self.sm.poison();
    }

    /// Dispatch every newly-ready instance, then hand each owning kernel's
    /// queue its run of them in one call (Thread Indexing via Graph
    /// Memory). Placement keeps an owner's share of a thread contiguous,
    /// so a block load is one run per (owner, thread), each a sub-slice of
    /// `ready`; one epoch covers the whole publication, because a pass
    /// cannot end while its own instances are still being published. A
    /// failed dispatch still hands over the run dispatched before it, so
    /// every dispatched instance is queued. `by` is the kernel whose
    /// completion readied them, `None` for a caller that is no kernel.
    fn publish(&self, by: Option<KernelId>, ready: &[Instance]) -> Result<(), CoreError> {
        let hand_over = |run: &[Instance], owner: KernelId, epoch| {
            if !run.is_empty() {
                let by_owner = !M::SHARED || by == Some(owner);
                self.queues[owner.idx()].push_run(run, epoch, by_owner);
            }
        };
        // `ready[start..n]` is dispatched, all for `owner`, under `epoch`
        let (mut start, mut owner, mut epoch) = (0, KernelId(0), Epoch(0));
        for (n, &i) in ready.iter().enumerate() {
            let o = self.gm.owner_of(i);
            if o != owner {
                hand_over(&ready[start..n], owner, epoch);
                (start, owner) = (n, o);
            }
            match self.sm.dispatch(by, i) {
                Ok(ep) => {
                    debug_assert!(n == start || ep == epoch, "a publication spans epochs");
                    epoch = ep;
                }
                Err(e) => {
                    hand_over(&ready[start..n], owner, epoch);
                    return Err(e);
                }
            }
        }
        hand_over(&ready[start..], owner, epoch);
        Ok(())
    }

    /// Ask for the next DThread on behalf of `kernel`: its own queue
    /// first, then (if stealing is on) a steal. Non-blocking — `Wait`
    /// means nothing is runnable anywhere right now. Fails with
    /// [`CoreError::SmPoisoned`] when the Synchronization Memory can no
    /// longer be trusted, [`CoreError::UnknownKernel`] for an id outside
    /// `0..kernels()`.
    pub fn fetch(&self, kernel: KernelId) -> Result<FetchResult, CoreError> {
        Ok(self.fetch_traced(kernel)?.0)
    }

    /// [`fetch`](Self::fetch) with provenance: the flag is `true` when the
    /// instance was stolen from a sibling queue rather than served
    /// from `kernel`'s own. Device models use this to charge a steal
    /// latency on migrated fetches.
    pub fn fetch_traced(&self, kernel: KernelId) -> Result<(FetchResult, bool), CoreError> {
        let row = self.sm.kernel_row(kernel)?;
        if self.sm.is_poisoned() {
            return Err(CoreError::SmPoisoned);
        }
        if self.sm.finished() {
            return Ok((FetchResult::Exit, false));
        }
        let own = kernel.idx();
        if let Some((i, ep)) = self.queues[own].take() {
            return Ok((FetchResult::Thread(i, ep), false));
        }
        if self.steal {
            // adaptive backoff (one-thread drivers only, see `Tsu::new`):
            // a kernel whose recent probes all missed skips the victim
            // scan on most attempts, so an idle machine stops paying for
            // empty sweeps; one hit re-arms eager probing
            if M::SHARED || row.backoff(StealBackoff::should_probe) {
                let stolen = self.steal_for(row, own);
                if !M::SHARED {
                    row.backoff(|b| b.record(stolen.is_some()));
                }
                if let Some((i, ep)) = stolen {
                    return Ok((FetchResult::Thread(i, ep), true));
                }
            } else {
                row.add(|r| &r.steal_skips, 1);
            }
        }
        row.add(|r| &r.waits, 1);
        Ok((FetchResult::Wait, false))
    }

    /// One steal pass on behalf of the owner of queue `own`: one
    /// random-victim probe (spreads concurrent thieves across victims),
    /// then repeatedly the longest non-empty sibling, ties to the lowest
    /// index, until every victim answers [`Steal::Empty`]. A victim
    /// drained between its length snapshot and the steal is a clean miss;
    /// a lost CAS re-scans — the entry went to someone, so the machine
    /// made progress.
    fn steal_for(&self, row: &CounterRow, own: usize) -> Option<(Instance, Epoch)> {
        let n = self.queues.len();
        let mut rng = SplitMix64(self.steal_rng.load(Relaxed));
        let mut victim = first_victim(own, n, &mut rng);
        self.steal_rng.store(rng.0, Relaxed);
        loop {
            let v = victim.take().or_else(|| {
                (0..n)
                    .filter(|&q| q != own)
                    .map(|q| (Reverse(self.queues[q].len()), q))
                    .filter(|&(Reverse(len), _)| len > 0)
                    .min()
                    .map(|(_, q)| q)
            })?;
            match self.queues[v].steal() {
                Steal::Success(e) => {
                    row.add(|r| &r.steals, 1);
                    return Some(e);
                }
                Steal::Empty => row.add(|r| &r.steal_misses, 1),
                Steal::Retry => row.add(|r| &r.steal_races, 1),
            }
        }
    }

    /// Record completion of `inst`, which `kernel` fetched under `epoch`
    /// and ran: perform the Post-Processing Phase on that kernel and
    /// schedule everything it made ready.
    /// The newly-ready instances are also reported in `ready` (cleared
    /// first), so device models can inspect *who* became ready — e.g. to
    /// charge cross-TSU-shard update messages. A late completion whose
    /// token predates a re-armed slot fails with
    /// [`CoreError::StaleEpoch`] instead of corrupting the next pass, a
    /// `kernel` outside `0..kernels()` with [`CoreError::UnknownKernel`].
    pub fn complete(
        &self,
        kernel: KernelId,
        inst: Instance,
        epoch: Epoch,
        ready: &mut Vec<Instance>,
    ) -> Result<(), CoreError> {
        self.sm.complete(kernel, inst, epoch, ready)?;
        self.publish(Some(kernel), ready)
    }

    /// Record a funnel flush by `kernel`: a batch of App completions, all
    /// fetched under `epoch`, whose combined ready-count decrements hit
    /// each consumer slot once. Scheduling and `ready` are as in
    /// [`complete`](Self::complete). Inlet/Outlet completions drive block
    /// transitions and are never batched.
    pub fn complete_batch(
        &self,
        kernel: KernelId,
        done: &[Instance],
        epoch: Epoch,
        ready: &mut Vec<Instance>,
    ) -> Result<(), CoreError> {
        self.sm.complete_batch(kernel, done, epoch, ready)?;
        self.publish(Some(kernel), ready)
    }

    /// Credit one more streaming pass. If the current pass has already
    /// finished, the graph re-arms now and the resident inlet is scheduled
    /// (and reported in `ready`); otherwise the credit is banked and the
    /// wrap happens when the running pass completes. Fails with
    /// [`CoreError::WindowExhausted`] when the configured credit window is
    /// full — retire a drained epoch first.
    pub fn open_epoch(&self, ready: &mut Vec<Instance>) -> Result<Epoch, CoreError> {
        let ep = self.sm.open_epoch(ready)?;
        self.publish(None, ready)?;
        Ok(ep)
    }

    /// Return the credit of a completed epoch. Epochs retire oldest-first,
    /// exactly once: a premature or out-of-order retirement fails with
    /// [`CoreError::EpochNotDrained`], a duplicate with
    /// [`CoreError::StaleEpoch`].
    pub fn retire_epoch(&self, epoch: Epoch) -> Result<(), CoreError> {
        self.sm.retire_epoch(epoch)
    }

    /// Retire every fully drained epoch, oldest first, freeing its window
    /// credit. A no-op when nothing completed since the last call.
    pub fn retire_drained(&self) -> Result<(), CoreError> {
        loop {
            let (_, completed, retired) = self.epoch_ledger();
            if retired >= completed {
                return Ok(());
            }
            self.retire_epoch(Epoch(retired))?;
        }
    }
}

/// Per kernel, the most instances any one block of the program places on
/// it: the block's app threads plus its outlet
/// ([`block_instances`](GraphMemory::block_instances)), at least 1 for a
/// lone inlet. O(threads × kernels), from
/// [`Affinity::share`](crate::Affinity::share).
fn queue_bounds<P: ProgramHandle>(gm: &GraphMemory<P>) -> Vec<usize> {
    let (program, kernels) = (gm.program(), gm.kernels());
    let mut bounds = vec![1; kernels as usize];
    for blk in program.blocks() {
        for (k, bound) in bounds.iter_mut().enumerate() {
            let share = |&t| {
                let spec = program.thread(t);
                spec.affinity.share(KernelId(k as u32), spec.arity, kernels) as usize
            };
            let load = blk.threads.iter().chain([&blk.outlet]).map(share).sum();
            *bound = (*bound).max(load);
        }
    }
    bounds
}

/// Drive a TSU to completion single-threadedly, round-robining fetches over
/// the kernels; returns the execution order. Each kernel completes through
/// its own [`CompletionFunnel`], batching as [`funnel_batch`] reads the
/// program, and flushes it before it concedes a `Wait`: the rule the
/// threaded runtime follows.
/// A protocol error ends the drain; so does a full round of kernels all
/// answering `Wait` with nothing to flush ([`CoreError::Deadlock`]), which
/// a validated program cannot produce.
///
/// This is the reference executor used by tests, the benches and the
/// graph-analysis tooling; platforms implement their own drivers.
pub fn drain_sequential<P: ProgramHandle, M: Access>(
    tsu: &Tsu<P, M>,
) -> Result<Vec<Instance>, CoreError> {
    drain_funneled(tsu, funnel_batch(tsu.program(), tsu.kernels()))
}

/// [`drain_sequential`] through funnels of batch size `batch`.
fn drain_funneled<P: ProgramHandle, M: Access>(
    tsu: &Tsu<P, M>,
    batch: usize,
) -> Result<Vec<Instance>, CoreError> {
    let kernels = tsu.kernels();
    let mut funnels: Vec<_> = (0..kernels).map(|_| CompletionFunnel::new(batch)).collect();
    let mut order = Vec::with_capacity(tsu.graph().program().total_instances());
    let mut scratch = Vec::new();
    let (mut k, mut idle) = (0u32, 0u32);
    loop {
        let (kernel, funnel) = (KernelId(k), &mut funnels[k as usize]);
        match tsu.fetch(kernel)? {
            FetchResult::Thread(i, ep) => {
                idle = 0;
                order.push(i);
                funnel.complete(kernel, tsu, i, ep, &mut scratch)?;
            }
            FetchResult::Wait => {
                // a flush is progress: the decrements it lands may ready work
                idle = if funnel.is_empty() { idle + 1 } else { 0 };
                funnel.flush(kernel, tsu, &mut scratch)?;
                if idle > kernels {
                    return Err(CoreError::Deadlock {
                        waiting: tsu.forensics().0.len(),
                    });
                }
            }
            FetchResult::Exit => return Ok(order),
        }
        k = (k + 1) % kernels;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Context;
    use crate::mapping::ArcMapping;
    use crate::program::ProgramBuilder;
    use crate::thread::ThreadSpec;
    use std::collections::HashSet;

    fn fork_join(arity: u32, blocks: u32) -> DdmProgram {
        let mut b = ProgramBuilder::new();
        for _ in 0..blocks {
            let blk = b.block();
            let src = b.thread(blk, ThreadSpec::scalar("src"));
            let work = b.thread(blk, ThreadSpec::new("work", arity));
            let sink = b.thread(blk, ThreadSpec::scalar("sink"));
            b.arc(src, work, ArcMapping::Broadcast).unwrap();
            b.arc(work, sink, ArcMapping::Reduction).unwrap();
        }
        b.build().unwrap()
    }

    /// One block whose `arity` work instances all sit on `kernel`'s queue.
    fn pinned(arity: u32, kernel: u32) -> DdmProgram {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let on = crate::thread::Affinity::Fixed(KernelId(kernel));
        b.thread(blk, ThreadSpec::new("w", arity).with_affinity(on));
        b.build().unwrap()
    }

    /// Complete `i` as kernel 0.
    fn complete<M: Access>(
        tsu: &Tsu<&DdmProgram, M>,
        i: Instance,
        ep: Epoch,
    ) -> Result<(), CoreError> {
        tsu.complete(KernelId(0), i, ep, &mut Vec::new())
    }

    #[test]
    fn drains_every_instance_exactly_once() {
        let p = fork_join(16, 3);
        let tsu = Tsu::new(&p, 4, TsuConfig::default());
        let order = drain_sequential(&tsu).unwrap();
        assert_eq!(order.len(), p.total_instances());
        let set: HashSet<_> = order.iter().collect();
        assert_eq!(set.len(), order.len(), "duplicate execution");
        assert!(tsu.finished());
    }

    #[test]
    fn respects_producer_consumer_order() {
        let p = fork_join(8, 2);
        let tsu = Tsu::new(&p, 3, TsuConfig::default());
        let order = drain_sequential(&tsu).unwrap();
        let pos = |i: &Instance| order.iter().position(|x| x == i).unwrap();
        for blk in p.blocks() {
            let src = blk.threads[0];
            let work = blk.threads[1];
            let sink = blk.threads[2];
            for c in 0..8 {
                let w = Instance::new(work, Context(c));
                assert!(pos(&Instance::scalar(src)) < pos(&w));
                assert!(pos(&w) < pos(&Instance::scalar(sink)));
            }
            // inlet first in block, outlet last
            let inlet = pos(&Instance::scalar(blk.inlet));
            let outlet = pos(&Instance::scalar(blk.outlet));
            for &t in &blk.threads {
                for c in 0..p.thread(t).arity {
                    let i = pos(&Instance::new(t, Context(c)));
                    assert!(inlet < i && i < outlet);
                }
            }
        }
    }

    #[test]
    fn blocks_execute_in_order() {
        let p = fork_join(4, 3);
        let tsu = Tsu::new(&p, 2, TsuConfig::default());
        let order = drain_sequential(&tsu).unwrap();
        let block_seq: Vec<u32> = order.iter().map(|i| p.block_of(i.thread).0).collect();
        let mut sorted = block_seq.clone();
        sorted.sort_unstable();
        assert_eq!(block_seq, sorted, "block interleaving detected");
    }

    #[test]
    fn capacity_enforced_at_block_load() {
        let p = fork_join(32, 1); // block residency = 32 + 2 + 1 outlet
        let tsu = Tsu::new(
            &p,
            2,
            TsuConfig {
                capacity: 8,
                ..Default::default()
            },
        );
        // inlet fits; its completion tries to load the block and must fail
        let FetchResult::Thread(inlet, ep) = tsu.fetch(KernelId(0)).unwrap() else {
            panic!("inlet not ready");
        };
        let err = complete(&tsu, inlet, ep).unwrap_err();
        assert!(matches!(err, CoreError::BlockTooLarge { .. }));
    }

    #[test]
    fn double_completion_rejected() {
        let p = fork_join(2, 1);
        let tsu = Tsu::new(&p, 1, TsuConfig::default());
        let FetchResult::Thread(i, ep) = tsu.fetch(KernelId(0)).unwrap() else {
            panic!()
        };
        complete(&tsu, i, ep).unwrap();
        assert!(matches!(
            complete(&tsu, i, ep),
            Err(CoreError::NotRunning(_))
        ));
    }

    #[test]
    fn completion_without_fetch_rejected() {
        let p = fork_join(2, 1);
        let tsu = Tsu::new(&p, 1, TsuConfig::default());
        let work = p.blocks()[0].threads[1];
        let ep = tsu.current_epoch();
        assert!(matches!(
            complete(&tsu, Instance::new(work, Context(0)), ep),
            Err(CoreError::NotRunning(_))
        ));
    }

    #[test]
    fn steal_lets_idle_kernel_progress() {
        // all work pinned to kernel 0; kernel 1 must steal
        let p = pinned(8, 0);
        let tsu = Tsu::new(&p, 2, TsuConfig::default());
        // prime: run the inlet
        let FetchResult::Thread(inlet, ep) = tsu.fetch(KernelId(0)).unwrap() else {
            panic!()
        };
        complete(&tsu, inlet, ep).unwrap();
        match tsu.fetch(KernelId(1)).unwrap() {
            FetchResult::Thread(..) => {}
            other => panic!("kernel 1 should have stolen, got {other:?}"),
        }
        assert_eq!(tsu.stats().steals, 1);
    }

    #[test]
    fn idle_kernel_backs_off_probing_after_consecutive_misses() {
        use crate::policy::StealBackoff;
        let p = pinned(8, 0);
        let tsu = Tsu::new(&p, 2, TsuConfig::default());
        // kernel 1 steals the armed inlet and sits on it (dispatched, never
        // completed): both queues are now empty, so every further probe by
        // kernel 1 can only miss
        let FetchResult::Thread(inlet, ep) = tsu.fetch(KernelId(1)).unwrap() else {
            panic!("kernel 1 should steal the armed inlet")
        };
        for _ in 0..64 {
            assert_eq!(tsu.fetch(KernelId(1)).unwrap(), FetchResult::Wait);
        }
        let s = tsu.stats();
        assert!(
            s.steal_skips > 0,
            "repeatedly-missing thief must start skipping probes: {s:?}"
        );
        assert!(
            s.steal_misses < 64 / 2,
            "backoff must cut the empty sweeps well below one per fetch, got {}",
            s.steal_misses
        );
        // completing the inlet readies work on kernel 0's queue; the
        // backed-off thief must reach it within its bounded skip run and a
        // hit re-arms eager probing
        complete(&tsu, inlet, ep).unwrap();
        let mut fetched = None;
        for _ in 0..=1u32 << StealBackoff::MAX_SHIFT {
            if let FetchResult::Thread(i, e) = tsu.fetch(KernelId(1)).unwrap() {
                fetched = Some((i, e));
                break;
            }
        }
        assert!(
            fetched.is_some(),
            "a backed-off thief must still probe within 2^MAX_SHIFT attempts"
        );
        assert!(tsu.stats().steals >= 2);
    }

    #[test]
    fn no_steal_policy_makes_idle_kernel_wait() {
        let p = pinned(8, 0);
        let tsu = Tsu::new(
            &p,
            2,
            TsuConfig {
                steal: false,
                ..Default::default()
            },
        );
        assert!(!tsu.steal);
        let FetchResult::Thread(inlet, ep) = tsu.fetch(KernelId(0)).unwrap() else {
            panic!()
        };
        complete(&tsu, inlet, ep).unwrap();
        assert_eq!(tsu.fetch(KernelId(1)).unwrap(), FetchResult::Wait);
        assert!(tsu.stats().waits >= 1);
    }

    #[test]
    fn default_config_steals() {
        // a derived `Default` would silently turn stealing off
        assert!(TsuConfig::default().steal);
        let p = fork_join(2, 1);
        assert!(Tsu::new(&p, 2, TsuConfig::default()).steal);
        assert!(
            !Tsu::new(&p, 1, TsuConfig::default()).steal,
            "nobody to steal from"
        );
    }

    #[test]
    fn stats_count_operations() {
        let p = fork_join(4, 2);
        let tsu = Tsu::new(&p, 2, TsuConfig::default());
        drain_funneled(&tsu, 1).unwrap();
        let s = tsu.stats();
        assert_eq!(s.completions as usize, p.total_instances());
        assert_eq!(s.fetches as usize, p.total_instances());
        assert_eq!(s.blocks_loaded, 2);
        assert!(s.rc_updates > 0);
        // the direct path issues one physical RMW per logical decrement
        assert_eq!(s.rc_rmws, s.rc_updates);
        assert!(p
            .blocks()
            .iter()
            .all(|b| s.max_resident >= p.block_instances(b.id)));
        // two kernels round-robin completions, so the sink slots change
        // hands between kernels — counted as line transfers
        assert!(s.sm_contended > 0);
    }

    #[test]
    fn single_kernel_run_is_uncontended() {
        // one kernel: no CAS can race and no line ever changes hands
        let p = fork_join(4, 2);
        let tsu = Tsu::new(&p, 1, TsuConfig::default());
        drain_sequential(&tsu).unwrap();
        assert_eq!(tsu.stats().sm_contended, 0);
    }

    #[test]
    fn batched_drain_matches_direct_counters() {
        let p = fork_join(8, 2);
        let drained = |batch| {
            let tsu = Tsu::new(&p, 2, TsuConfig::default());
            assert_eq!(
                drain_funneled(&tsu, batch).unwrap().len(),
                p.total_instances()
            );
            tsu.stats()
        };
        // the same program, once with every App completion funneled
        let d = drained(1);
        let b = drained(4);
        // conservation: batching changes *when* decrements land, not how
        // many, and the physical RMW count shrinks
        assert_eq!(b.rc_updates, d.rc_updates);
        assert_eq!(b.completions, d.completions);
        assert!(b.rc_rmws < d.rc_rmws, "{} !< {}", b.rc_rmws, d.rc_rmws);
    }

    #[test]
    fn concurrently_emptied_victim_is_a_clean_miss() {
        // successor to the PR 5 stale-steal-plan regression: with steals
        // queue-native, a victim that drains between the thief's length
        // probe and the steal must answer `Empty` — no panic, no
        // double-pop — and the fetch path must report `Wait`
        let p = pinned(2, 1);
        let tsu = Tsu::new(&p, 2, TsuConfig::default());
        let FetchResult::Thread(inlet, ep) = tsu.fetch(KernelId(0)).unwrap() else {
            panic!("inlet not ready");
        };
        complete(&tsu, inlet, ep).unwrap();
        // queue 1 holds both work instances; a thief would target it...
        assert_eq!(tsu.queues[1].len(), 2);
        // ...but it drains before the steal lands
        while tsu.queues[1].take().is_some() {}
        assert_eq!(tsu.queues[1].steal(), Steal::Empty, "must be a clean miss");
        assert_eq!(tsu.stats().steals, 0);
        // the public fetch path reports Wait (and counts the miss)
        assert_eq!(tsu.fetch(KernelId(0)).unwrap(), FetchResult::Wait);
        let s = tsu.stats();
        assert_eq!(s.steals, 0);
        assert!(s.steal_misses >= 1, "the emptied probe must be counted");
        assert_eq!(s.steal_races, 0, "single-owner TSU cannot lose a CAS");
    }

    #[test]
    fn traced_fetch_reports_steal_provenance() {
        // same pinned-work shape as steal_lets_idle_kernel_progress, but
        // through the traced surface the sim uses to charge steal latency
        let p = pinned(2, 0);
        let tsu = Tsu::new(&p, 2, TsuConfig::default());
        let (FetchResult::Thread(inlet, ep), stolen) = tsu.fetch_traced(KernelId(0)).unwrap()
        else {
            panic!("inlet not ready");
        };
        assert!(!stolen, "own-queue fetch is local");
        complete(&tsu, inlet, ep).unwrap();
        let (r, stolen) = tsu.fetch_traced(KernelId(1)).unwrap();
        assert!(matches!(r, FetchResult::Thread(..)));
        assert!(stolen, "kernel 1 served from kernel 0's queue");
        let (r, stolen) = tsu.fetch_traced(KernelId(0)).unwrap();
        assert!(matches!(r, FetchResult::Thread(..)));
        assert!(!stolen);
    }

    #[test]
    fn outlet_frees_block_resources() {
        // regression: app-thread SM entries must be freed when the block's
        // outlet completes, or multi-block programs exceed capacity
        let p = fork_join(8, 3); // block residency: 8 + 2 scalars + outlet = 11
        let tsu = Tsu::new(
            &p,
            2,
            TsuConfig {
                capacity: 12,
                ..Default::default()
            },
        );
        let order = drain_sequential(&tsu).unwrap();
        assert_eq!(order.len(), p.total_instances());
        assert!(tsu.stats().max_resident <= 12);
    }

    #[test]
    fn forensics_views_track_waiting_and_running() {
        let p = fork_join(4, 1);
        let tsu = Tsu::new(&p, 1, TsuConfig::default());
        // the armed inlet is dispatched *before* it is queued: already in
        // flight while no kernel has popped it — this is what lets a
        // watchdog name a never-popped instance in its forensics
        let inlet = tsu.graph().first_inlet();
        assert_eq!(tsu.ready_len(), 1);
        assert_eq!(tsu.forensics(), (vec![], vec![inlet]));
        assert_eq!(tsu.stats().fetches, 1);
        let FetchResult::Thread(fetched, ep) = tsu.fetch(KernelId(0)).unwrap() else {
            panic!("inlet not ready");
        };
        // popping it changes neither view
        assert_eq!(fetched, inlet);
        assert_eq!(tsu.forensics(), (vec![], vec![inlet]));
        complete(&tsu, inlet, ep).unwrap();
        // block loaded: src (rc 0) is ready — queued, hence running; each
        // work instance waits on the src broadcast, the sink on 4 work
        // completions, the outlet on all 6 app instances
        let (waiting, running) = tsu.forensics();
        let src = p.blocks()[0].threads[0];
        let work = p.blocks()[0].threads[1];
        let sink = p.blocks()[0].threads[2];
        assert!(waiting.iter().all(|w| w.instance.thread != src));
        for c in 0..4 {
            assert!(waiting
                .iter()
                .any(|w| w.instance == Instance::new(work, Context(c)) && w.remaining == 1));
        }
        assert!(waiting
            .iter()
            .any(|w| w.instance == Instance::scalar(sink) && w.remaining == 4));
        assert_eq!(running, vec![Instance::scalar(src)]);
        // completing src moves the work instances from waiting to running
        // (queued), all four at once
        let FetchResult::Thread(first, ep) = tsu.fetch(KernelId(0)).unwrap() else {
            panic!("no ready instance");
        };
        assert_eq!(first, Instance::scalar(src));
        complete(&tsu, first, ep).unwrap();
        let (waiting, running) = tsu.forensics();
        assert_eq!(running.len(), 4);
        assert!(running.iter().all(|i| i.thread == work));
        assert_eq!(tsu.ready_len(), 4);
        assert!(waiting.iter().all(|w| w.instance.thread != work));
        // draining the rest empties both views
        drain_sequential(&tsu).unwrap();
        assert_eq!(tsu.forensics(), (vec![], vec![]));
        let s = tsu.stats();
        assert_eq!(s.fetches, s.completions);
    }

    #[test]
    fn exit_reported_to_all_kernels_after_finish() {
        let p = fork_join(2, 1);
        let tsu = Tsu::new(&p, 4, TsuConfig::default());
        drain_sequential(&tsu).unwrap();
        for k in 0..4 {
            assert_eq!(tsu.fetch(KernelId(k)).unwrap(), FetchResult::Exit);
        }
    }

    #[test]
    fn steals_are_counted_per_kernel() {
        // all work pinned to kernel 1; only kernel 0 fetches, so every
        // work instance reaches it by stealing
        let p = pinned(4, 1);
        let tsu = Tsu::new(&p, 2, TsuConfig::default());
        let mut done = 0usize;
        while !tsu.finished() {
            match tsu.fetch(KernelId(0)).unwrap() {
                FetchResult::Thread(i, ep) => {
                    complete(&tsu, i, ep).unwrap();
                    done += 1;
                }
                other => panic!("kernel 0 should always find work: {other:?}"),
            }
        }
        assert_eq!(done, p.total_instances());
        assert_eq!(tsu.kernel_stats(KernelId(0)).steals, 4, "the 4 pinned");
        assert_eq!(tsu.kernel_stats(KernelId(1)).steals, 0);
        assert_eq!(tsu.stats().steals, 4);
        // one row per kernel plus the shared one hold every counter: each
        // column of the rows sums to the aggregate
        let mut rows: Vec<_> = (0..2).map(|k| tsu.kernel_stats(KernelId(k))).collect();
        rows.push(tsu.sm.shared_stats());
        let total = tsu.stats();
        type Column = fn(&TsuStats) -> u64;
        let columns: [(&str, Column); 10] = [
            ("fetches", |s| s.fetches),
            ("waits", |s| s.waits),
            ("completions", |s| s.completions),
            ("rc_updates", |s| s.rc_updates),
            ("rc_rmws", |s| s.rc_rmws),
            ("steals", |s| s.steals),
            ("steal_misses", |s| s.steal_misses),
            ("steal_races", |s| s.steal_races),
            ("steal_skips", |s| s.steal_skips),
            ("sm_contended", |s| s.sm_contended),
        ];
        for (name, column) in columns {
            assert_eq!(
                rows.iter().map(column).sum::<u64>(),
                column(&total),
                "{name}"
            );
        }
        // kernel 0 performed every completion; only the armed inlet's
        // dispatch, made before any kernel ran, sits on the shared row
        assert_eq!(rows[0].completions as usize, p.total_instances());
        assert_eq!((rows[2].fetches, rows[2].completions), (1, 0));
    }

    #[test]
    fn poisoned_sm_fails_fetch_and_completion() {
        let p = fork_join(2, 1);
        let tsu = Tsu::new(&p, 1, TsuConfig::default());
        tsu.poison();
        assert_eq!(tsu.fetch(KernelId(0)), Err(CoreError::SmPoisoned));
        assert_eq!(
            complete(&tsu, tsu.graph().first_inlet(), Epoch(0)),
            Err(CoreError::SmPoisoned)
        );
        assert_eq!(drain_sequential(&tsu), Err(CoreError::SmPoisoned));
    }

    /// A 2-kernel TSU with its inlet fetched by kernel 0, and the error
    /// every entry point must answer kernel id 2 with.
    fn stranger_case(p: &DdmProgram) -> (Tsu<&DdmProgram, Owned>, Instance, Epoch, CoreError) {
        let tsu = Tsu::new(p, 2, TsuConfig::default());
        let FetchResult::Thread(inlet, ep) = tsu.fetch(KernelId(0)).unwrap() else {
            panic!("inlet not ready");
        };
        let unknown = CoreError::UnknownKernel {
            kernel: KernelId(2),
            kernels: 2,
        };
        (tsu, inlet, ep, unknown)
    }

    #[test]
    fn fetch_by_an_unknown_kernel_is_a_typed_error() {
        let p = fork_join(2, 1);
        let (tsu, _, _, unknown) = stranger_case(&p);
        assert_eq!(tsu.fetch(KernelId(2)), Err(unknown));
        // not counted as a wait on anybody's slot
        assert_eq!(tsu.stats().waits, 0);
    }

    #[test]
    fn complete_by_an_unknown_kernel_is_a_typed_error() {
        let p = fork_join(2, 1);
        let (tsu, inlet, ep, unknown) = stranger_case(&p);
        let mut ready = Vec::new();
        assert_eq!(
            tsu.complete(KernelId(2), inlet, ep, &mut ready),
            Err(unknown)
        );
        // the inlet is still in flight and completes for a real kernel
        assert_eq!(tsu.completions(), 0);
        tsu.complete(KernelId(1), inlet, ep, &mut ready).unwrap();
        assert_eq!(
            drain_sequential(&tsu).unwrap().len(),
            p.total_instances() - 1
        );
    }

    #[test]
    fn complete_batch_by_an_unknown_kernel_is_a_typed_error() {
        let p = fork_join(2, 1);
        let (tsu, inlet, ep, unknown) = stranger_case(&p);
        complete(&tsu, inlet, ep).unwrap();
        let FetchResult::Thread(src, ep) = tsu.fetch(KernelId(0)).unwrap() else {
            panic!("src not ready");
        };
        let mut ready = Vec::new();
        assert_eq!(
            tsu.complete_batch(KernelId(2), &[src], ep, &mut ready),
            Err(unknown)
        );
        // rejected before anything retired: no poison, and the batch lands
        // when its own kernel hands it in
        tsu.complete_batch(KernelId(0), &[src], ep, &mut ready)
            .unwrap();
        assert_eq!(ready.len(), 2);
    }

    #[test]
    fn a_round_of_waits_is_a_typed_deadlock() {
        // kernel 0 holds the inlet and never completes it: every further
        // fetch waits, and the drain reports it instead of panicking
        let p = fork_join(2, 1);
        let tsu = Tsu::new(&p, 2, TsuConfig::default());
        assert!(matches!(
            tsu.fetch(KernelId(0)).unwrap(),
            FetchResult::Thread(..)
        ));
        assert_eq!(
            drain_sequential(&tsu),
            Err(CoreError::Deadlock { waiting: 0 })
        );
    }

    #[test]
    fn sequential_streaming_replays_the_schedule() {
        let p = fork_join(4, 2);
        let tsu = Tsu::new(&p, 2, TsuConfig::default());
        let first = drain_sequential(&tsu).unwrap();
        assert!(tsu.finished());
        // credit a second pass: the graph re-arms and the drain replays
        // the exact same deterministic schedule
        let mut out = Vec::new();
        assert_eq!(tsu.open_epoch(&mut out).unwrap(), Epoch(1));
        assert_eq!(out, vec![tsu.sm.armed_inlet()]);
        assert!(!tsu.finished());
        let second = drain_sequential(&tsu).unwrap();
        assert_eq!(second, first);
        tsu.retire_epoch(Epoch(0)).unwrap();
        tsu.retire_epoch(Epoch(1)).unwrap();
        let s = tsu.stats();
        assert_eq!(s.epochs, 2);
        assert_eq!(s.completions as usize, 2 * p.total_instances());
        assert_eq!(tsu.epoch_ledger(), (2, 2, 2));
    }

    #[test]
    fn retire_drained_closes_only_the_drained_epochs() {
        let p = fork_join(4, 2);
        let window = TsuConfig {
            window: 3,
            ..TsuConfig::default()
        };
        let tsu = Tsu::new(&p, 2, window);
        let mut out = Vec::new();
        drain_sequential(&tsu).unwrap();
        tsu.open_epoch(&mut out).unwrap();
        drain_sequential(&tsu).unwrap();
        // the third epoch re-arms but never runs, and the window is full
        tsu.open_epoch(&mut out).unwrap();
        assert_eq!(tsu.epoch_ledger(), (3, 2, 0));
        assert_eq!(
            tsu.open_epoch(&mut out),
            Err(CoreError::WindowExhausted { window: 3 })
        );
        tsu.retire_drained().unwrap();
        assert_eq!(tsu.epoch_ledger(), (3, 2, 2));
        tsu.retire_drained().unwrap();
        assert_eq!(tsu.epoch_ledger(), (3, 2, 2));
    }

    #[test]
    fn publication_hands_each_owner_one_run_per_thread() {
        // three independent 8-wide threads: all ready when the block loads
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        for _ in 0..3 {
            b.thread(blk, ThreadSpec::new("w", 8));
        }
        let p = b.build().unwrap();
        let tsu = Tsu::threaded(&p, 2, TsuConfig::default());
        let rings = |k: usize| tsu.queues[k].handover_counts().0;
        // arming the inlet publishes one instance, for no kernel: one ring
        assert_eq!((rings(0), rings(1)), (1, 0));
        // kernel 0 completes the inlet: its own share of each thread goes
        // onto its deque and rings nothing; kernel 1 receives its share of
        // each thread as one run, rung once
        let FetchResult::Thread(i, ep) = tsu.fetch(KernelId(0)).unwrap() else {
            panic!("inlet not ready");
        };
        complete(&tsu, i, ep).unwrap();
        assert_eq!((rings(0), rings(1)), (1, 3));
        assert_eq!((tsu.queues[0].len(), tsu.queues[1].len()), (12, 12));
        // each run is one thread's contexts in order: kernel 0 runs its own
        // newest first, then steals kernel 1's oldest first
        let threads = &p.blocks()[0].threads;
        let at = |t: usize, c| Instance::new(threads[t], Context(c));
        let mut expect = Vec::new();
        for t in (0..3).rev() {
            expect.extend((0..4).rev().map(|c| (at(t, c), false)));
        }
        for t in 0..3 {
            expect.extend((4..8).map(|c| (at(t, c), true)));
        }
        let mut got = Vec::new();
        for _ in 0..24 {
            let (FetchResult::Thread(i, ep), stolen) = tsu.fetch_traced(KernelId(0)).unwrap()
            else {
                panic!("App instance not ready");
            };
            complete(&tsu, i, ep).unwrap();
            got.push((i, stolen));
        }
        assert_eq!(got, expect);
        // of the App completions only the last publishes: the outlet,
        // kernel 0's own, which rings nobody
        let outlet = Instance::scalar(p.blocks()[0].outlet);
        assert_eq!(tsu.graph().owner_of(outlet), KernelId(0));
        assert_eq!(tsu.queues[0].len(), 1);
        assert_eq!((rings(0), rings(1)), (1, 3));
    }
}
