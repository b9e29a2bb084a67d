//! The shared software TSU of TFluxSoft: Graph Memory + lock-free
//! Synchronization Memory + per-kernel ready queues, behind
//! [`TsuBackend`].
//!
//! This is the direct-update redesign of §4.2: instead of funnelling every
//! completion through the single TSU-Emulator thread, kernels publish
//! *application* completions straight into the
//! [`SyncMemory`] — now a lock-free table of
//! atomic ready-count slots, so kernels completing producers decrement
//! their consumers' counts without taking any lock. Only Inlet/Outlet completions
//! (block loading/unloading, which the paper serializes anyway: a block
//! loads only after the previous outlet) still travel through the
//! [TUB](crate::tub::Tub) to the emulator, which also keeps the watchdog.
//!
//! `SoftTsu` is shared by `&` between the kernels and the emulator; the
//! [`TsuBackend`] impl therefore lives on `&SoftTsu`, mirroring how
//! `&std::fs::File` implements `io::Write`.

use crate::sm::ReadyQueue;
use crate::sync::lock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tflux_core::error::CoreError;
use tflux_core::ids::{BlockId, Epoch, Instance, KernelId};
use tflux_core::policy::{SchedulingPolicy, StealPolicy};
use tflux_core::rng::SplitMix64;
use tflux_core::tsu::{
    FetchResult, FlushPolicy, GraphMemory, ProgramHandle, ShardStats, Steal, SyncMemory,
    TsuBackend, TsuConfig, TsuStats, WaitingInstance,
};

/// The concurrent TSU shared by all TFluxSoft kernels and the emulator.
///
/// Construction arms the first block's inlet on its owning kernel's queue.
/// Every instance is dispatched (marked in-flight in the Synchronization
/// Memory) *before* it is pushed onto a ready queue, so `fetches` and
/// `completions` pair up exactly and stall forensics can name every
/// dispatched-but-unfinished instance.
pub struct SoftTsu<P: ProgramHandle> {
    sm: SyncMemory<P>,
    policy: SchedulingPolicy,
    /// Completion-funnel flush policy the kernels should obey.
    flush: FlushPolicy,
    steal: bool,
    steal_policy: StealPolicy,
    queues: Vec<ReadyQueue>,
    /// Per-kernel steal counters (indexed by kernel id): successful takes
    /// from a sibling queue.
    kernel_steals: Vec<AtomicU64>,
    /// Per-kernel victim probes that found the victim empty.
    kernel_steal_misses: Vec<AtomicU64>,
    /// Per-kernel steal CAS attempts lost to the owner or another thief.
    kernel_steal_races: Vec<AtomicU64>,
    /// Per-kernel victim-draw RNG state (each kernel thread owns its
    /// slot; plain load/store, no RMW needed).
    kernel_rng: Vec<AtomicU64>,
    /// Fetches that found no runnable instance anywhere.
    waits: AtomicU64,
    /// First TSU protocol error raised by a kernel on the direct path; the
    /// emulator collects it and aborts the run.
    protocol: Mutex<Option<CoreError>>,
}

impl<P: ProgramHandle> SoftTsu<P> {
    /// A software TSU for `program` serving `kernels` kernels.
    ///
    /// `GlobalFifo` uses one shared queue; `LocalityFirst` a queue per
    /// kernel (with stealing if configured and there is anyone to steal
    /// from).
    pub fn new(program: P, kernels: u32, config: TsuConfig) -> Self {
        let kernels = kernels.max(1);
        let (nqueues, steal) = match config.policy {
            SchedulingPolicy::GlobalFifo => (1usize, false),
            SchedulingPolicy::LocalityFirst { steal } => (kernels as usize, steal && kernels > 1),
        };
        let sm = SyncMemory::with_window(program, kernels, config.capacity, config.window);
        let flush = config.flush.resolve(sm.graph().program(), kernels);
        // inbox sized at the resident bound (+ slack for the re-armed
        // inlet of the next streaming pass), so the mutex overflow valve
        // behind it is never hit in a correct run
        let qcap = sm.graph().program().max_block_instances() + 2;
        let shared = matches!(config.policy, SchedulingPolicy::GlobalFifo);
        let soft = SoftTsu {
            sm,
            policy: config.policy,
            flush,
            steal,
            steal_policy: config.steal_policy,
            queues: (0..nqueues)
                .map(|_| {
                    if shared {
                        ReadyQueue::new_shared(qcap)
                    } else {
                        ReadyQueue::with_capacity(qcap)
                    }
                })
                .collect(),
            kernel_steals: (0..kernels).map(|_| AtomicU64::new(0)).collect(),
            kernel_steal_misses: (0..kernels).map(|_| AtomicU64::new(0)).collect(),
            kernel_steal_races: (0..kernels).map(|_| AtomicU64::new(0)).collect(),
            kernel_rng: (0..kernels)
                .map(|k| AtomicU64::new(0x5EED_0000 ^ ((k as u64) << 8)))
                .collect(),
            waits: AtomicU64::new(0),
            protocol: Mutex::new(None),
        };
        let inlet = soft.sm.armed_inlet();
        let ep = soft.sm.dispatch(inlet).expect("armed inlet is resident");
        soft.queues[soft.queue_of(inlet)].push(inlet, ep);
        soft
    }

    /// The read-only Graph Memory view.
    pub fn graph(&self) -> GraphMemory<P> {
        self.sm.graph()
    }

    /// Whether idle kernels steal from sibling queues.
    pub fn stealing(&self) -> bool {
        self.steal
    }

    /// The *resolved* completion-funnel flush policy kernels build their
    /// funnels from (`Auto` is resolved against the program at
    /// construction).
    pub fn flush_policy(&self) -> FlushPolicy {
        self.flush
    }

    /// The epoch currently executing.
    pub fn current_epoch(&self) -> Epoch {
        self.sm.current_epoch()
    }

    /// The epoch ledger: `(opened, completed, retired)` pass counts.
    pub fn epoch_ledger(&self) -> (u64, u64, u64) {
        self.sm.epoch_ledger()
    }

    /// Which queue `inst` belongs on (Thread Indexing via Graph Memory).
    fn queue_of(&self, inst: Instance) -> usize {
        match self.policy {
            SchedulingPolicy::GlobalFifo => 0,
            SchedulingPolicy::LocalityFirst { .. } => self
                .sm
                .graph()
                .owner_of(inst)
                .idx()
                .min(self.queues.len() - 1),
        }
    }

    /// The queue index `kernel` pops as its own (its Local TSU).
    pub fn queue_index(&self, kernel: KernelId) -> usize {
        match self.policy {
            SchedulingPolicy::GlobalFifo => 0,
            SchedulingPolicy::LocalityFirst { .. } => kernel.idx().min(self.queues.len() - 1),
        }
    }

    /// Direct access to a ready queue (kernels hold their own for blocking
    /// pops; tests drive inline kernels through it).
    pub fn queue(&self, idx: usize) -> &ReadyQueue {
        &self.queues[idx]
    }

    /// Current depth of every ready queue (stall forensics).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.queues.iter().map(|q| q.len()).collect()
    }

    /// Shut every queue down so all kernels terminate after draining.
    pub fn shutdown(&self) {
        for q in &self.queues {
            q.shutdown();
        }
    }

    /// Whether the last block's outlet has completed.
    pub fn finished(&self) -> bool {
        self.sm.finished()
    }

    /// Completions processed so far — the watchdog's progress probe.
    pub fn completions(&self) -> u64 {
        self.sm.completions()
    }

    /// The currently loaded block, if any.
    pub fn loaded_block(&self) -> Option<BlockId> {
        self.sm.loaded_block()
    }

    /// Post-process a completion and schedule everything it made ready:
    /// each newly-ready instance is dispatched and pushed on its owning
    /// kernel's queue. `scratch` is a reusable buffer (cleared here).
    ///
    /// This is the whole direct-update path: an App completion runs it on
    /// the completing kernel's thread; Inlet/Outlet completions run it on
    /// the emulator thread after a TUB hop.
    pub fn handle_completion(
        &self,
        inst: Instance,
        epoch: Epoch,
        scratch: &mut Vec<Instance>,
    ) -> Result<(), CoreError> {
        self.sm.complete(inst, epoch, scratch)?;
        for &r in scratch.iter() {
            let ep = self.sm.dispatch(r)?;
            self.queues[self.queue_of(r)].push(r, ep);
        }
        Ok(())
    }

    /// Post-process a funnel flush: a batch of App completions combined
    /// into one ready-count update per consumer slot. Scheduling is
    /// identical to [`handle_completion`](Self::handle_completion) —
    /// every newly-ready instance is dispatched *before* it is pushed.
    pub fn handle_batch(
        &self,
        done: &[Instance],
        epoch: Epoch,
        scratch: &mut Vec<Instance>,
    ) -> Result<(), CoreError> {
        self.sm.complete_batch(done, epoch, scratch)?;
        for &r in scratch.iter() {
            let ep = self.sm.dispatch(r)?;
            self.queues[self.queue_of(r)].push(r, ep);
        }
        Ok(())
    }

    /// Credit one more streaming pass. If the current pass has already
    /// finished, the graph re-arms now: the resident inlet is dispatched
    /// and pushed on its owning kernel's queue (and reported in
    /// `scratch`), exactly like construction arms the first pass.
    pub fn open_epoch(&self, scratch: &mut Vec<Instance>) -> Result<Epoch, CoreError> {
        let ep = self.sm.open_epoch(scratch)?;
        for &r in scratch.iter() {
            let dep = self.sm.dispatch(r)?;
            self.queues[self.queue_of(r)].push(r, dep);
        }
        Ok(ep)
    }

    /// Return the credit of a completed epoch (oldest-first, exactly
    /// once).
    pub fn retire_epoch(&self, epoch: Epoch) -> Result<(), CoreError> {
        self.sm.retire_epoch(epoch)
    }

    /// Poison the Synchronization Memory: a kernel died mid-completion, so
    /// the ready counts can no longer be trusted. Every subsequent
    /// dispatch/complete/fetch fails with [`CoreError::SmPoisoned`].
    pub fn poison(&self) {
        self.sm.poison();
    }

    /// Non-blocking fetch: own queue first, then (if enabled) a
    /// queue-native steal — one random-victim probe, then a
    /// longest-queue-first rescan. Instances are dispatched when *pushed*
    /// (see [`handle_completion`](Self::handle_completion)), so the only
    /// failure here is a poisoned Synchronization Memory.
    fn try_fetch(&self, kernel: KernelId) -> Result<FetchResult, CoreError> {
        if self.sm.is_poisoned() {
            return Err(CoreError::SmPoisoned);
        }
        let own = self.queue_index(kernel);
        match self.queues[own].try_pop() {
            FetchResult::Wait => {}
            r => return Ok(r),
        }
        if self.steal {
            let k = kernel.idx().min(self.kernel_steals.len() - 1);
            if let Some((i, ep)) = self.steal_for(k, own) {
                return Ok(FetchResult::Thread(i, ep));
            }
        }
        self.waits.fetch_add(1, Ordering::Relaxed);
        Ok(FetchResult::Wait)
    }

    /// One steal pass on behalf of kernel `k` (owner of queue `own`):
    /// probe a random sibling first (spreads concurrent thieves across
    /// victims), then rescan siblings longest-queue-first until every
    /// victim answers [`Steal::Empty`]. Lost CAS races re-scan — the entry
    /// went to someone, so the machine made progress.
    fn steal_for(&self, k: usize, own: usize) -> Option<(Instance, Epoch)> {
        let n = self.queues.len();
        let mut rng = SplitMix64(self.kernel_rng[k].load(Ordering::Relaxed));
        let first = self.steal_policy.first_victim(own, n, &mut rng);
        self.kernel_rng[k].store(rng.0, Ordering::Relaxed);
        if let Some(v) = first {
            match self.queues[v].steal() {
                Steal::Success((i, ep)) => {
                    self.kernel_steals[k].fetch_add(1, Ordering::Relaxed);
                    return Some((i, ep));
                }
                Steal::Empty => {
                    self.kernel_steal_misses[k].fetch_add(1, Ordering::Relaxed);
                }
                Steal::Retry => {
                    self.kernel_steal_races[k].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        loop {
            let victim = (0..n)
                .filter(|&q| q != own && !self.queues[q].is_empty())
                .max_by_key(|&q| self.queues[q].len());
            let v = victim?;
            match self.queues[v].steal() {
                Steal::Success((i, ep)) => {
                    self.kernel_steals[k].fetch_add(1, Ordering::Relaxed);
                    return Some((i, ep));
                }
                Steal::Empty => {
                    // drained between the length snapshot and the steal —
                    // a clean miss; the rescan drops it from the victims
                    self.kernel_steal_misses[k].fetch_add(1, Ordering::Relaxed);
                }
                Steal::Retry => {
                    self.kernel_steal_races[k].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Instances `kernel` took from sibling queues so far.
    pub fn steals_of(&self, kernel: KernelId) -> u64 {
        self.kernel_steals[kernel.idx().min(self.kernel_steals.len() - 1)].load(Ordering::Relaxed)
    }

    /// Victim probes by `kernel` that found the victim empty.
    pub fn steal_misses_of(&self, kernel: KernelId) -> u64 {
        self.kernel_steal_misses[kernel.idx().min(self.kernel_steal_misses.len() - 1)]
            .load(Ordering::Relaxed)
    }

    /// Steal CAS attempts by `kernel` lost to the owner or another thief.
    pub fn steal_races_of(&self, kernel: KernelId) -> u64 {
        self.kernel_steal_races[kernel.idx().min(self.kernel_steal_races.len() - 1)]
            .load(Ordering::Relaxed)
    }

    /// Record a TSU protocol error raised on a kernel's direct path (first
    /// one wins); the emulator picks it up and aborts the run.
    pub fn record_protocol(&self, e: CoreError) {
        let mut g = lock(&self.protocol);
        if g.is_none() {
            *g = Some(e);
        }
    }

    /// Take the recorded protocol error, if any.
    pub fn take_protocol_error(&self) -> Option<CoreError> {
        lock(&self.protocol).take()
    }

    /// Aggregate TSU counters, with the scheduler's waits and steals folded
    /// in.
    pub fn stats(&self) -> TsuStats {
        let mut s = self.sm.stats();
        s.waits = self.waits.load(Ordering::Relaxed);
        s.steals = self
            .kernel_steals
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum();
        s.steal_misses = self
            .kernel_steal_misses
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum();
        s.steal_races = self
            .kernel_steal_races
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum();
        s
    }

    /// Per-shard Synchronization Memory counters, indexed by owning kernel.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.sm.shard_stats()
    }

    /// Stall forensics: resident instances still waiting on producers.
    pub fn waiting_instances(&self) -> Vec<WaitingInstance> {
        self.sm.waiting_instances()
    }

    /// Stall forensics: instances dispatched but never completed.
    pub fn running_instances(&self) -> Vec<Instance> {
        self.sm.running_instances()
    }
}

impl<P: ProgramHandle> TsuBackend for &SoftTsu<P> {
    fn load_block(&mut self, block: BlockId, ready: &mut Vec<Instance>) -> Result<(), CoreError> {
        ready.clear();
        self.sm.load_block(block, ready)?;
        for &r in ready.iter() {
            let ep = self.sm.dispatch(r)?;
            self.queues[self.queue_of(r)].push(r, ep);
        }
        Ok(())
    }

    fn fetch(&mut self, kernel: KernelId) -> Result<FetchResult, CoreError> {
        self.try_fetch(kernel)
    }

    fn complete(
        &mut self,
        inst: Instance,
        epoch: Epoch,
        ready: &mut Vec<Instance>,
    ) -> Result<(), CoreError> {
        self.handle_completion(inst, epoch, ready)
    }

    fn complete_batch(
        &mut self,
        done: &[Instance],
        epoch: Epoch,
        ready: &mut Vec<Instance>,
    ) -> Result<(), CoreError> {
        self.handle_batch(done, epoch, ready)
    }

    fn open_epoch(&mut self, ready: &mut Vec<Instance>) -> Result<Epoch, CoreError> {
        SoftTsu::open_epoch(self, ready)
    }

    fn retire_epoch(&mut self, epoch: Epoch) -> Result<(), CoreError> {
        SoftTsu::retire_epoch(self, epoch)
    }

    fn drain_stats(&mut self) -> TsuStats {
        self.stats()
    }

    fn waiting_instances(&self) -> Vec<WaitingInstance> {
        (**self).waiting_instances()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tflux_core::prelude::*;

    fn fork_join(arity: u32) -> DdmProgram {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let src = b.thread(blk, ThreadSpec::scalar("src"));
        let work = b.thread(blk, ThreadSpec::new("work", arity));
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        b.arc(src, work, ArcMapping::Broadcast).unwrap();
        b.arc(work, sink, ArcMapping::Reduction).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn single_owner_drains_whole_program_via_backend() {
        let p = fork_join(4);
        let soft = SoftTsu::new(&p, 2, TsuConfig::default());
        let mut backend = &soft;
        let mut scratch = Vec::new();
        let mut done = 0usize;
        // round-robin both kernels through the trait
        while !soft.finished() {
            let mut idle = true;
            for k in 0..2 {
                if let FetchResult::Thread(i, ep) = backend.fetch(KernelId(k)).unwrap() {
                    backend.complete(i, ep, &mut scratch).unwrap();
                    done += 1;
                    idle = false;
                }
            }
            assert!(!idle, "no kernel can make progress");
        }
        assert_eq!(done, p.total_instances());
        let s = soft.stats();
        assert_eq!(s.completions as usize, p.total_instances());
        assert_eq!(s.fetches, s.completions);
        assert_eq!(
            s.rc_updates,
            soft.shard_stats().iter().map(|s| s.rc_updates).sum::<u64>()
        );
    }

    #[test]
    fn armed_inlet_is_dispatched_and_queued() {
        let p = fork_join(2);
        let soft = SoftTsu::new(&p, 1, TsuConfig::default());
        assert_eq!(soft.queue_depths(), vec![1]);
        // already in flight before any kernel pops it — this is what lets
        // the watchdog name a never-popped inlet in its forensics
        assert_eq!(soft.running_instances(), vec![soft.graph().first_inlet()]);
    }

    #[test]
    fn protocol_error_is_latched_once() {
        let p = fork_join(2);
        let soft = SoftTsu::new(&p, 1, TsuConfig::default());
        soft.record_protocol(CoreError::NotRunning(Instance::new(
            ThreadId(1),
            Context(0),
        )));
        soft.record_protocol(CoreError::NotRunning(Instance::new(
            ThreadId(2),
            Context(9),
        )));
        match soft.take_protocol_error() {
            Some(CoreError::NotRunning(i)) => assert_eq!(i.thread, ThreadId(1)),
            other => panic!("{other:?}"),
        }
        assert!(soft.take_protocol_error().is_none());
    }

    #[test]
    fn steals_are_counted_per_kernel() {
        // all work pinned to kernel 1; kernel 0 steals it
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let w = b.thread(
            blk,
            ThreadSpec::new("w", 4).with_affinity(Affinity::Fixed(KernelId(1))),
        );
        let _ = w;
        let p = b.build().unwrap();
        let soft = SoftTsu::new(
            &p,
            2,
            TsuConfig {
                capacity: 0,
                policy: SchedulingPolicy::LocalityFirst { steal: true },
                ..Default::default()
            },
        );
        let mut backend = &soft;
        let mut scratch = Vec::new();
        let mut done = 0usize;
        while !soft.finished() {
            match backend.fetch(KernelId(0)).unwrap() {
                FetchResult::Thread(i, ep) => {
                    backend.complete(i, ep, &mut scratch).unwrap();
                    done += 1;
                }
                other => panic!("kernel 0 should always find work: {other:?}"),
            }
        }
        assert_eq!(done, p.total_instances());
        assert_eq!(soft.steals_of(KernelId(0)), 4, "the 4 pinned instances");
        assert_eq!(soft.steals_of(KernelId(1)), 0);
        assert_eq!(soft.stats().steals, 4);
    }

    #[test]
    fn poisoned_sm_fails_fetch_and_completion() {
        let p = fork_join(2);
        let soft = SoftTsu::new(&p, 1, TsuConfig::default());
        soft.poison();
        let mut backend = &soft;
        assert_eq!(backend.fetch(KernelId(0)), Err(CoreError::SmPoisoned));
        let mut scratch = Vec::new();
        assert_eq!(
            soft.handle_completion(soft.graph().first_inlet(), Epoch(0), &mut scratch),
            Err(CoreError::SmPoisoned)
        );
    }

    #[test]
    fn global_fifo_uses_one_queue_for_all_kernels() {
        let p = fork_join(3);
        let soft = SoftTsu::new(
            &p,
            4,
            TsuConfig {
                capacity: 0,
                policy: SchedulingPolicy::GlobalFifo,
                ..Default::default()
            },
        );
        assert_eq!(soft.queue_depths().len(), 1);
        assert_eq!(soft.queue_index(KernelId(3)), 0);
        assert!(!soft.stealing());
    }
}
