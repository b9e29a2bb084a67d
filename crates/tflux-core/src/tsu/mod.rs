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
//! * [`StealDeque`] — one Chase-Lev work-stealing deque of ready
//!   instances per kernel, speaking the shared [`FetchResult`]
//!   vocabulary; idle kernels steal the oldest entry of a sibling.
//!
//! [`CoreTsu`] composes the three into the single-owner TSU used by the
//! deterministic platforms and the reference executor
//! ([`drain_sequential`]); the threaded runtime composes the same units
//! with concurrent queues instead. Every platform drives its composition
//! through the [`TsuBackend`] trait, which is what keeps TFluxSoft,
//! TFluxHard and TFluxCell directly comparable.

mod backend;
mod funnel;
mod gm;
mod queue;
mod sync;

pub use backend::{
    FlushPolicy, ShardStats, TsuBackend, TsuConfig, TsuStats, WaitingInstance, AUTO_BATCH_SIZE,
};
pub use funnel::CompletionFunnel;
pub use gm::{GraphMemory, ProgramHandle};
pub use queue::{FetchResult, MpmcRing, ServiceRotor, Steal, StealDeque};
pub use sync::SyncMemory;

use crate::error::CoreError;
use crate::ids::{BlockId, Epoch, Instance, KernelId};
use crate::policy::{SchedulingPolicy, StealPolicy};
use crate::program::DdmProgram;
use crate::rng::SplitMix64;

/// The single-owner TSU: Graph Memory + Synchronization Memory + one
/// [`StealDeque`] per kernel, driven by one caller.
///
/// This is the composition used by the simulated hardware TSU
/// (`tflux-sim`), the Cell machine (`tflux-cell`) and the sequential
/// reference executor. The threaded runtime builds its own composition of
/// the same units around concurrent queues.
pub struct CoreTsu<P: ProgramHandle> {
    gm: GraphMemory<P>,
    sm: SyncMemory<P>,
    queues: Vec<StealDeque>,
    policy: SchedulingPolicy,
    steal_policy: StealPolicy,
    steal_rng: SplitMix64,
    /// Per-kernel adaptive probe gate: a kernel whose steals keep missing
    /// backs off its victim scans until a hit resets it.
    backoff: Vec<crate::policy::StealBackoff>,
    flush: FlushPolicy,
    waits: u64,
    steals: u64,
    steal_misses: u64,
    steal_races: u64,
    steal_skips: u64,
}

impl<P: ProgramHandle> CoreTsu<P> {
    /// Create a TSU for `program` serving `kernels` kernels and arm it:
    /// the inlet of the first block is made ready.
    pub fn new(program: P, kernels: u32, config: TsuConfig) -> Self {
        let gm = GraphMemory::new(program.clone(), kernels);
        let sm = SyncMemory::with_window(program, kernels, config.capacity, config.window);
        let nqueues = match config.policy {
            SchedulingPolicy::GlobalFifo => 1,
            _ => kernels as usize,
        };
        let flush = config.flush.resolve(gm.program(), kernels);
        let mut tsu = CoreTsu {
            gm,
            sm,
            queues: (0..nqueues).map(|_| StealDeque::new()).collect(),
            policy: config.policy,
            steal_policy: config.steal_policy,
            // deterministic per-TSU seed: single-owner runs replay exactly
            steal_rng: SplitMix64(0x5EED_0000 ^ ((kernels as u64) << 8)),
            backoff: vec![crate::policy::StealBackoff::new(); nqueues],
            flush,
            waits: 0,
            steals: 0,
            steal_misses: 0,
            steal_races: 0,
            steal_skips: 0,
        };
        let inlet = tsu.sm.armed_inlet();
        tsu.push_ready(inlet);
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

    /// The *resolved* completion-funnel flush policy (`Auto` is resolved
    /// against the program's sink fan-in at construction, so this is
    /// always `Direct` or `Batch`). Device models poll this to decide
    /// whether to build per-core funnels in front of the TSU.
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

    /// Whether the last block's outlet has completed.
    pub fn finished(&self) -> bool {
        self.sm.finished()
    }

    /// The currently loaded block, if any.
    pub fn loaded_block(&self) -> Option<BlockId> {
        self.sm.loaded_block()
    }

    /// Total ready instances across all queue units.
    pub fn ready_len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Operation counters: the Synchronization Memory's, plus the waits
    /// and steals observed by this scheduler.
    pub fn stats(&self) -> TsuStats {
        let mut s = self.sm.stats();
        s.waits = self.waits;
        s.steals = self.steals;
        s.steal_misses = self.steal_misses;
        s.steal_races = self.steal_races;
        s.steal_skips = self.steal_skips;
        s
    }

    /// Stall forensics: resident instances still waiting on producers.
    pub fn waiting_instances(&self) -> Vec<WaitingInstance> {
        self.sm.waiting_instances()
    }

    /// Stall forensics: instances dispatched but not yet completed.
    pub fn running_instances(&self) -> Vec<Instance> {
        self.sm.running_instances()
    }

    fn queue_of(&self, i: Instance) -> usize {
        match self.policy {
            SchedulingPolicy::GlobalFifo => 0,
            _ => self.gm.owner_of(i).idx(),
        }
    }

    fn push_ready(&mut self, i: Instance) {
        let q = self.queue_of(i);
        let ep = self.sm.current_epoch();
        self.queues[q].push(i, ep);
    }

    /// Ask for the next DThread on behalf of `kernel`. Fails with
    /// [`CoreError::NotResident`] when a queued instance is not resident
    /// (a scheduler protocol bug) or [`CoreError::SmPoisoned`] when the
    /// Synchronization Memory can no longer be trusted.
    pub fn fetch_ready(&mut self, kernel: KernelId) -> Result<FetchResult, CoreError> {
        Ok(self.fetch_ready_traced(kernel)?.0)
    }

    /// [`fetch_ready`](Self::fetch_ready) with provenance: the flag is
    /// `true` when the instance was stolen from a sibling queue rather
    /// than served from `kernel`'s own. Device models use this to charge
    /// a steal latency on migrated fetches.
    pub fn fetch_ready_traced(
        &mut self,
        kernel: KernelId,
    ) -> Result<(FetchResult, bool), CoreError> {
        if self.sm.finished() {
            return Ok((FetchResult::Exit, false));
        }
        let own = match self.policy {
            SchedulingPolicy::GlobalFifo => 0,
            _ => kernel.idx().min(self.queues.len() - 1),
        };
        if let Some((i, _)) = self.queues[own].pop() {
            let ep = self.sm.dispatch(i)?;
            return Ok((FetchResult::Thread(i, ep), false));
        }
        if let SchedulingPolicy::LocalityFirst { steal: true } = self.policy {
            // adaptive backoff: a kernel whose recent probes all missed
            // skips the victim scan entirely on most attempts, so an idle
            // machine stops paying for empty sweeps; one hit re-arms
            // eager probing
            if self.backoff[own].should_probe() {
                let stolen = self.steal_ready(own);
                self.backoff[own].record(stolen.is_some());
                if let Some((i, _)) = stolen {
                    let ep = self.sm.dispatch(i)?;
                    return Ok((FetchResult::Thread(i, ep), true));
                }
            } else {
                self.steal_skips += 1;
            }
        }
        self.waits += 1;
        Ok((FetchResult::Wait, false))
    }

    /// Steal on behalf of the owner of queue `own`: one random-victim
    /// probe (under [`StealPolicy::RandomThenLongest`]), then a
    /// longest-queue-first scan of the remaining siblings. A victim
    /// drained between its length snapshot and the steal is a clean miss
    /// ([`Steal::Empty`]) and falls through to the next; this TSU is
    /// single-owner so [`Steal::Retry`] cannot occur, but the loop handles
    /// it anyway for symmetry with the concurrent runtime.
    fn steal_ready(&mut self, own: usize) -> Option<(Instance, Epoch)> {
        let n = self.queues.len();
        if let Some(v) = self.steal_policy.first_victim(own, n, &mut self.steal_rng) {
            match self.queues[v].steal() {
                Steal::Success(e) => {
                    self.steals += 1;
                    return Some(e);
                }
                Steal::Empty => self.steal_misses += 1,
                Steal::Retry => self.steal_races += 1,
            }
        }
        let mut victims: Vec<usize> = (0..n)
            .filter(|&q| q != own && !self.queues[q].is_empty())
            .collect();
        victims.sort_by_key(|&q| std::cmp::Reverse(self.queues[q].len()));
        for v in victims {
            loop {
                match self.queues[v].steal() {
                    Steal::Success(e) => {
                        self.steals += 1;
                        return Some(e);
                    }
                    Steal::Empty => {
                        self.steal_misses += 1;
                        break;
                    }
                    Steal::Retry => self.steal_races += 1,
                }
            }
        }
        None
    }

    /// Record completion of `inst`; newly-ready instances go onto the
    /// internal queue units *and* are reported in `out` (cleared first),
    /// so device models can inspect who became ready — e.g. to charge
    /// cross-TSU-shard update messages.
    pub fn complete_queued(
        &mut self,
        inst: Instance,
        epoch: Epoch,
        out: &mut Vec<Instance>,
    ) -> Result<(), CoreError> {
        self.sm.complete(inst, epoch, out)?;
        for &i in out.iter() {
            self.push_ready(i);
        }
        Ok(())
    }

    /// Record a funnel flush: a batch of App completions whose combined
    /// ready-count decrements hit each consumer slot once. Newly-ready
    /// instances go onto the internal queue units *and* are reported in
    /// `out` (cleared first), like
    /// [`complete_queued`](Self::complete_queued).
    pub fn complete_batch_queued(
        &mut self,
        done: &[Instance],
        epoch: Epoch,
        out: &mut Vec<Instance>,
    ) -> Result<(), CoreError> {
        self.sm.complete_batch(done, epoch, out)?;
        for &i in out.iter() {
            self.push_ready(i);
        }
        Ok(())
    }

    /// Credit one more streaming pass; if the graph has already finished,
    /// it re-arms now and the resident inlet is queued (and reported in
    /// `out`).
    pub fn open_epoch_queued(&mut self, out: &mut Vec<Instance>) -> Result<Epoch, CoreError> {
        let ep = self.sm.open_epoch(out)?;
        for &i in out.iter() {
            self.push_ready(i);
        }
        Ok(ep)
    }

    /// Return the credit of a completed epoch (oldest-first, exactly
    /// once).
    pub fn retire_epoch(&mut self, epoch: Epoch) -> Result<(), CoreError> {
        self.sm.retire_epoch(epoch)
    }
}

impl<P: ProgramHandle> TsuBackend for CoreTsu<P> {
    fn load_block(&mut self, block: BlockId, ready: &mut Vec<Instance>) -> Result<(), CoreError> {
        ready.clear();
        self.sm.load_block(block, ready)?;
        for &i in ready.iter() {
            self.push_ready(i);
        }
        Ok(())
    }

    fn fetch(&mut self, kernel: KernelId) -> Result<FetchResult, CoreError> {
        self.fetch_ready(kernel)
    }

    fn complete(
        &mut self,
        inst: Instance,
        epoch: Epoch,
        ready: &mut Vec<Instance>,
    ) -> Result<(), CoreError> {
        self.complete_queued(inst, epoch, ready)
    }

    fn complete_batch(
        &mut self,
        done: &[Instance],
        epoch: Epoch,
        ready: &mut Vec<Instance>,
    ) -> Result<(), CoreError> {
        self.complete_batch_queued(done, epoch, ready)
    }

    fn open_epoch(&mut self, ready: &mut Vec<Instance>) -> Result<Epoch, CoreError> {
        self.open_epoch_queued(ready)
    }

    fn retire_epoch(&mut self, epoch: Epoch) -> Result<(), CoreError> {
        CoreTsu::retire_epoch(self, epoch)
    }

    fn drain_stats(&mut self) -> TsuStats {
        self.stats()
    }

    fn waiting_instances(&self) -> Vec<WaitingInstance> {
        self.sm.waiting_instances()
    }
}

/// Drive a TSU to completion single-threadedly, round-robining fetches over
/// the kernels; returns the execution order. Panics on protocol errors.
///
/// This is the reference executor used by tests and by the graph-analysis
/// tooling; platforms implement their own drivers.
pub fn drain_sequential<P: ProgramHandle>(tsu: &mut CoreTsu<P>) -> Vec<Instance> {
    let mut order = Vec::new();
    let mut scratch = Vec::new();
    let kernels = tsu.kernels();
    let mut k = 0u32;
    let mut idle_rounds = 0u32;
    loop {
        match tsu.fetch_ready(KernelId(k)).expect("protocol error") {
            FetchResult::Thread(i, ep) => {
                idle_rounds = 0;
                order.push(i);
                tsu.complete_queued(i, ep, &mut scratch)
                    .expect("protocol error");
            }
            FetchResult::Wait => {
                idle_rounds += 1;
                assert!(
                    idle_rounds <= kernels,
                    "deadlock: no kernel can make progress"
                );
            }
            FetchResult::Exit => return order,
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

    fn complete(tsu: &mut CoreTsu<&DdmProgram>, i: Instance, ep: Epoch) -> Result<(), CoreError> {
        let mut out = Vec::new();
        tsu.complete_queued(i, ep, &mut out)
    }

    #[test]
    fn drains_every_instance_exactly_once() {
        let p = fork_join(16, 3);
        let mut tsu = CoreTsu::new(&p, 4, TsuConfig::default());
        let order = drain_sequential(&mut tsu);
        assert_eq!(order.len(), p.total_instances());
        let set: HashSet<_> = order.iter().collect();
        assert_eq!(set.len(), order.len(), "duplicate execution");
        assert!(tsu.finished());
    }

    #[test]
    fn respects_producer_consumer_order() {
        let p = fork_join(8, 2);
        let mut tsu = CoreTsu::new(&p, 3, TsuConfig::default());
        let order = drain_sequential(&mut tsu);
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
        let mut tsu = CoreTsu::new(&p, 2, TsuConfig::default());
        let order = drain_sequential(&mut tsu);
        let block_seq: Vec<u32> = order.iter().map(|i| p.block_of(i.thread).0).collect();
        let mut sorted = block_seq.clone();
        sorted.sort_unstable();
        assert_eq!(block_seq, sorted, "block interleaving detected");
    }

    #[test]
    fn capacity_enforced_at_block_load() {
        let p = fork_join(32, 1); // block residency = 32 + 2 + 1 outlet
        let mut tsu = CoreTsu::new(
            &p,
            2,
            TsuConfig {
                capacity: 8,
                policy: SchedulingPolicy::default(),
                ..Default::default()
            },
        );
        // inlet fits; its completion tries to load the block and must fail
        let FetchResult::Thread(inlet, ep) = tsu.fetch_ready(KernelId(0)).unwrap() else {
            panic!("inlet not ready");
        };
        let err = complete(&mut tsu, inlet, ep).unwrap_err();
        assert!(matches!(err, CoreError::BlockTooLarge { .. }));
    }

    #[test]
    fn double_completion_rejected() {
        let p = fork_join(2, 1);
        let mut tsu = CoreTsu::new(&p, 1, TsuConfig::default());
        let FetchResult::Thread(i, ep) = tsu.fetch_ready(KernelId(0)).unwrap() else {
            panic!()
        };
        complete(&mut tsu, i, ep).unwrap();
        assert!(matches!(
            complete(&mut tsu, i, ep),
            Err(CoreError::NotRunning(_))
        ));
    }

    #[test]
    fn completion_without_fetch_rejected() {
        let p = fork_join(2, 1);
        let mut tsu = CoreTsu::new(&p, 1, TsuConfig::default());
        let work = p.blocks()[0].threads[1];
        let ep = tsu.current_epoch();
        assert!(matches!(
            complete(&mut tsu, Instance::new(work, Context(0)), ep),
            Err(CoreError::NotRunning(_))
        ));
    }

    #[test]
    fn steal_lets_idle_kernel_progress() {
        // all work pinned to kernel 0; kernel 1 must steal
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        b.thread(
            blk,
            ThreadSpec::new("w", 8).with_affinity(crate::thread::Affinity::Fixed(KernelId(0))),
        );
        let p = b.build().unwrap();
        let mut tsu = CoreTsu::new(&p, 2, TsuConfig::default());
        // prime: run the inlet
        let FetchResult::Thread(inlet, ep) = tsu.fetch_ready(KernelId(0)).unwrap() else {
            panic!()
        };
        complete(&mut tsu, inlet, ep).unwrap();
        match tsu.fetch_ready(KernelId(1)).unwrap() {
            FetchResult::Thread(..) => {}
            other => panic!("kernel 1 should have stolen, got {other:?}"),
        }
        assert_eq!(tsu.stats().steals, 1);
    }

    #[test]
    fn idle_kernel_backs_off_probing_after_consecutive_misses() {
        use crate::policy::StealBackoff;
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        b.thread(
            blk,
            ThreadSpec::new("w", 8).with_affinity(crate::thread::Affinity::Fixed(KernelId(0))),
        );
        let p = b.build().unwrap();
        let mut tsu = CoreTsu::new(&p, 2, TsuConfig::default());
        // kernel 1 steals the armed inlet and sits on it (dispatched, never
        // completed): both queues are now empty, so every further probe by
        // kernel 1 can only miss
        let FetchResult::Thread(inlet, ep) = tsu.fetch_ready(KernelId(1)).unwrap() else {
            panic!("kernel 1 should steal the armed inlet")
        };
        for _ in 0..64 {
            assert_eq!(tsu.fetch_ready(KernelId(1)).unwrap(), FetchResult::Wait);
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
        complete(&mut tsu, inlet, ep).unwrap();
        let mut fetched = None;
        for _ in 0..=1u32 << StealBackoff::MAX_SHIFT {
            if let FetchResult::Thread(i, e) = tsu.fetch_ready(KernelId(1)).unwrap() {
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
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        b.thread(
            blk,
            ThreadSpec::new("w", 8).with_affinity(crate::thread::Affinity::Fixed(KernelId(0))),
        );
        let p = b.build().unwrap();
        let mut tsu = CoreTsu::new(
            &p,
            2,
            TsuConfig {
                capacity: 0,
                policy: SchedulingPolicy::LocalityFirst { steal: false },
                ..Default::default()
            },
        );
        let FetchResult::Thread(inlet, ep) = tsu.fetch_ready(KernelId(0)).unwrap() else {
            panic!()
        };
        complete(&mut tsu, inlet, ep).unwrap();
        assert_eq!(tsu.fetch_ready(KernelId(1)).unwrap(), FetchResult::Wait);
        assert!(tsu.stats().waits >= 1);
    }

    #[test]
    fn global_fifo_serves_everyone_from_one_queue() {
        let p = fork_join(6, 1);
        let mut tsu = CoreTsu::new(
            &p,
            3,
            TsuConfig {
                capacity: 0,
                policy: SchedulingPolicy::GlobalFifo,
                ..Default::default()
            },
        );
        let order = drain_sequential(&mut tsu);
        assert_eq!(order.len(), p.total_instances());
        assert_eq!(tsu.stats().steals, 0);
    }

    #[test]
    fn stats_count_operations() {
        let p = fork_join(4, 2);
        let mut tsu = CoreTsu::new(&p, 2, TsuConfig::default());
        drain_sequential(&mut tsu);
        let s = tsu.stats();
        assert_eq!(s.completions as usize, p.total_instances());
        assert_eq!(s.fetches as usize, p.total_instances());
        assert_eq!(s.blocks_loaded, 2);
        assert!(s.rc_updates > 0);
        // the direct path issues one physical RMW per logical decrement
        assert_eq!(s.rc_rmws, s.rc_updates);
        assert!(s.max_resident >= p.max_block_instances());
        // two kernels round-robin completions, so the sink slots change
        // hands between kernels — counted as line transfers
        assert!(s.sm_contended > 0);
    }

    #[test]
    fn single_kernel_run_is_uncontended() {
        // one kernel: no CAS can race and no line ever changes hands
        let p = fork_join(4, 2);
        let mut tsu = CoreTsu::new(&p, 1, TsuConfig::default());
        drain_sequential(&mut tsu);
        assert_eq!(tsu.stats().sm_contended, 0);
    }

    #[test]
    fn batched_drain_matches_direct_counters() {
        let p = fork_join(8, 2);
        let mut direct = CoreTsu::new(&p, 2, TsuConfig::default());
        drain_sequential(&mut direct);

        // same program, but every App completion funneled through batches
        let mut tsu = CoreTsu::new(
            &p,
            2,
            TsuConfig {
                flush: FlushPolicy::Batch { size: 4 },
                ..TsuConfig::default()
            },
        );
        let mut funnels = [
            CompletionFunnel::new(tsu.flush_policy()),
            CompletionFunnel::new(tsu.flush_policy()),
        ];
        let mut scratch = Vec::new();
        let mut executed = 0usize;
        let mut k = 0usize;
        let mut idle = 0u32;
        loop {
            match tsu.fetch_ready(KernelId(k as u32)).unwrap() {
                FetchResult::Thread(i, ep) => {
                    idle = 0;
                    executed += 1;
                    if tsu.program().thread(i.thread).kind == crate::thread::ThreadKind::App {
                        if funnels[k].push(i, ep) {
                            funnels[k].flush(&mut tsu, &mut scratch).unwrap();
                        }
                    } else {
                        // block transitions flush first, then complete
                        funnels[k].flush(&mut tsu, &mut scratch).unwrap();
                        tsu.complete_queued(i, ep, &mut scratch).unwrap();
                    }
                }
                FetchResult::Wait => {
                    // flush before idling or the parked decrements deadlock
                    funnels[k].flush(&mut tsu, &mut scratch).unwrap();
                    idle += 1;
                    assert!(idle <= 4, "deadlock");
                }
                FetchResult::Exit => break,
            }
            k = (k + 1) % 2;
        }
        assert_eq!(executed, p.total_instances());
        let (d, b) = (direct.stats(), tsu.stats());
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
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        b.thread(
            blk,
            ThreadSpec::new("w", 2).with_affinity(crate::thread::Affinity::Fixed(KernelId(1))),
        );
        let p = b.build().unwrap();
        let mut tsu = CoreTsu::new(&p, 2, TsuConfig::default());
        let FetchResult::Thread(inlet, ep) = tsu.fetch_ready(KernelId(0)).unwrap() else {
            panic!("inlet not ready");
        };
        complete(&mut tsu, inlet, ep).unwrap();
        // queue 1 holds both work instances; a thief would target it...
        assert_eq!(tsu.queues[1].len(), 2);
        // ...but it drains before the steal lands
        while tsu.queues[1].pop().is_some() {}
        assert_eq!(tsu.queues[1].steal(), Steal::Empty, "must be a clean miss");
        assert_eq!(tsu.stats().steals, 0);
        // the public fetch path reports Wait (and counts the miss)
        assert_eq!(tsu.fetch_ready(KernelId(0)).unwrap(), FetchResult::Wait);
        let s = tsu.stats();
        assert_eq!(s.steals, 0);
        assert!(s.steal_misses >= 1, "the emptied probe must be counted");
        assert_eq!(s.steal_races, 0, "single-owner TSU cannot lose a CAS");
    }

    #[test]
    fn traced_fetch_reports_steal_provenance() {
        // same pinned-work shape as steal_lets_idle_kernel_progress, but
        // through the traced surface the sim uses to charge steal latency
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        b.thread(
            blk,
            ThreadSpec::new("w", 2).with_affinity(crate::thread::Affinity::Fixed(KernelId(0))),
        );
        let p = b.build().unwrap();
        let mut tsu = CoreTsu::new(&p, 2, TsuConfig::default());
        let (FetchResult::Thread(inlet, ep), stolen) = tsu.fetch_ready_traced(KernelId(0)).unwrap()
        else {
            panic!("inlet not ready");
        };
        assert!(!stolen, "own-queue fetch is local");
        complete(&mut tsu, inlet, ep).unwrap();
        let (r, stolen) = tsu.fetch_ready_traced(KernelId(1)).unwrap();
        assert!(matches!(r, FetchResult::Thread(..)));
        assert!(stolen, "kernel 1 served from kernel 0's queue");
        let (r, stolen) = tsu.fetch_ready_traced(KernelId(0)).unwrap();
        assert!(matches!(r, FetchResult::Thread(..)));
        assert!(!stolen);
    }

    #[test]
    fn outlet_frees_block_resources() {
        // regression: app-thread SM entries must be freed when the block's
        // outlet completes, or multi-block programs exceed capacity
        let p = fork_join(8, 3); // block residency: 8 + 2 scalars + outlet = 11
        let mut tsu = CoreTsu::new(
            &p,
            2,
            TsuConfig {
                capacity: 12,
                policy: SchedulingPolicy::default(),
                ..Default::default()
            },
        );
        let order = drain_sequential(&mut tsu);
        assert_eq!(order.len(), p.total_instances());
        assert!(tsu.stats().max_resident <= 12);
    }

    #[test]
    fn forensics_views_track_waiting_and_running() {
        let p = fork_join(4, 1);
        let mut tsu = CoreTsu::new(&p, 1, TsuConfig::default());
        // before the inlet runs, nothing but the inlet is resident; it is
        // ready (rc 0) so the waiting view is empty
        assert!(tsu.waiting_instances().is_empty());
        let FetchResult::Thread(inlet, ep) = tsu.fetch_ready(KernelId(0)).unwrap() else {
            panic!("inlet not ready");
        };
        // the inlet is dispatched but not completed
        assert_eq!(tsu.running_instances(), vec![inlet]);
        complete(&mut tsu, inlet, ep).unwrap();
        // block loaded: src (rc 0) is ready; each work instance waits on the
        // src broadcast, the sink on 4 work completions, the outlet on all
        // 6 app instances
        let waiting = tsu.waiting_instances();
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
        assert!(tsu.running_instances().is_empty());
        // dispatch src: it shows as running until completed, and its
        // completion unblocks the work instances
        let FetchResult::Thread(first, ep) = tsu.fetch_ready(KernelId(0)).unwrap() else {
            panic!("no ready instance");
        };
        assert_eq!(first, Instance::scalar(src));
        assert_eq!(tsu.running_instances(), vec![first]);
        complete(&mut tsu, first, ep).unwrap();
        assert!(tsu.running_instances().is_empty());
        assert!(tsu
            .waiting_instances()
            .iter()
            .all(|w| w.instance.thread != work));
        // draining the rest empties both views
        drain_sequential(&mut tsu);
        assert!(tsu.waiting_instances().is_empty());
        assert!(tsu.running_instances().is_empty());
    }

    #[test]
    fn exit_reported_to_all_kernels_after_finish() {
        let p = fork_join(2, 1);
        let mut tsu = CoreTsu::new(&p, 4, TsuConfig::default());
        drain_sequential(&mut tsu);
        for k in 0..4 {
            assert_eq!(tsu.fetch_ready(KernelId(k)).unwrap(), FetchResult::Exit);
        }
    }

    #[test]
    fn backend_trait_drives_a_full_program() {
        // the same drain loop, written against the trait object surface
        fn drain<B: TsuBackend>(tsu: &mut B, kernels: u32) -> Vec<Instance> {
            let mut order = Vec::new();
            let mut scratch = Vec::new();
            let mut k = 0u32;
            let mut idle = 0u32;
            loop {
                match tsu.fetch(KernelId(k)).unwrap() {
                    FetchResult::Thread(i, ep) => {
                        idle = 0;
                        order.push(i);
                        tsu.complete(i, ep, &mut scratch).unwrap();
                    }
                    FetchResult::Wait => {
                        idle += 1;
                        assert!(idle <= kernels, "deadlock");
                    }
                    FetchResult::Exit => return order,
                }
                k = (k + 1) % kernels;
            }
        }
        let p = fork_join(6, 2);
        let mut tsu = CoreTsu::new(&p, 3, TsuConfig::default());
        let order = drain(&mut tsu, 3);
        assert_eq!(order.len(), p.total_instances());
        let stats = tsu.drain_stats();
        assert_eq!(stats.completions as usize, p.total_instances());
        assert_eq!(stats.fetches, stats.completions);
        assert!(TsuBackend::waiting_instances(&tsu).is_empty());
    }

    #[test]
    fn sequential_streaming_replays_the_schedule() {
        let p = fork_join(4, 2);
        let mut tsu = CoreTsu::new(&p, 2, TsuConfig::default());
        let first = drain_sequential(&mut tsu);
        assert!(tsu.finished());
        // credit a second pass: the graph re-arms and the drain replays
        // the exact same deterministic schedule
        let mut out = Vec::new();
        assert_eq!(tsu.open_epoch_queued(&mut out).unwrap(), Epoch(1));
        assert_eq!(out, vec![tsu.sm.armed_inlet()]);
        assert!(!tsu.finished());
        let second = drain_sequential(&mut tsu);
        assert_eq!(second, first);
        tsu.retire_epoch(Epoch(0)).unwrap();
        tsu.retire_epoch(Epoch(1)).unwrap();
        let s = tsu.stats();
        assert_eq!(s.epochs, 2);
        assert_eq!(s.completions as usize, 2 * p.total_instances());
        assert_eq!(tsu.epoch_ledger(), (2, 2, 2));
    }

    #[test]
    fn auto_flush_resolves_from_the_program() {
        // hot reduction sink + multiple kernels: Auto turns batching on
        let p = fork_join(8, 1);
        let tsu = CoreTsu::new(&p, 2, TsuConfig::default());
        assert_eq!(
            tsu.flush_policy(),
            FlushPolicy::Batch {
                size: AUTO_BATCH_SIZE
            }
        );
        // one kernel: nothing to combine, Auto stays direct
        let tsu = CoreTsu::new(&p, 1, TsuConfig::default());
        assert_eq!(tsu.flush_policy(), FlushPolicy::Direct);
        // an explicit policy overrides the heuristic
        let tsu = CoreTsu::new(
            &p,
            2,
            TsuConfig {
                flush: FlushPolicy::Direct,
                ..TsuConfig::default()
            },
        );
        assert_eq!(tsu.flush_policy(), FlushPolicy::Direct);
    }
}
