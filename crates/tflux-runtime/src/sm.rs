//! Per-kernel ready queues — the runtime face of the TSU Queue Units.
//!
//! Each kernel owns one [`ReadyQueue`] ("Local TSU" in Fig. 4 of the
//! paper): the concurrent counterpart of the single-owner
//! [`StealDeque`] — in fact it is built *on* one. It is the [`QueueUnit`]
//! that turns the one [`Tsu`] of `tflux-core` into the shared software TSU
//! of TFluxSoft ([`SoftTsu`]): completion handlers push instances whose
//! ready count reached zero; the kernel takes them; idle siblings steal.
//! Nothing here blocks — a kernel with nothing to run parks on its queue's
//! bell (`kernel.rs`).
//!
//! # Structure
//!
//! Every push is a *run*: the owner's contiguous share of one publication
//! (a whole block load's share of a thread, or a single instance), handed
//! over in one call. The push/take fast path takes **no mutex**:
//!
//! * a [`StealDeque`] the owner works LIFO at the bottom of, thieves CAS
//!   the top of. A run pushed *by the owner* — the kernel whose completion
//!   readied it is the kernel that will run it, the common case under
//!   range placement — goes straight onto the bottom: no CAS, no ring,
//!   nothing leaves the kernel;
//! * an [`MpmcRing`] *inbox* that receives every other run (another
//!   kernel ran the producer, or the caller is no kernel at all), since
//!   Chase-Lev bottoms are owner-only: one `tail` CAS reserves as much of
//!   the run as there are free slots. The owner drains the inbox into
//!   its deque before popping; thieves may pop the inbox directly, so
//!   work pushed at a kernel that never fetches is still stealable;
//! * a `Mutex<VecDeque>` *overflow valve* behind an atomic length that
//!   takes the rest of a run, under one lock, when the inbox is full. The
//!   inbox is at most [`INBOX_SLOTS`] long whatever the program, so this
//!   is where the foreign part of a wide block load waits; no push is
//!   ever lost or spun on. When its deque runs dry the owner moves the
//!   whole valve onto the deque bottom, in order and under one lock, where
//!   thieves reach it too;
//! * a *bell*, the waiter-aware eventcount of `sync.rs`: every foreign
//!   run rings it once, after the run's last entry is visible, so it
//!   wakes the owner if it parked and costs one atomic increment if not.
//!
//! A run is observably its pushes made one at a time, in order: the same
//! entries land in the inbox and the valve, and takes and steals see them
//! in the same order.

use crate::sync::{lock, EventCount};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use tflux_core::ids::{Epoch, Instance};
use tflux_core::tsu::{MpmcRing, ProgramHandle, QueueUnit, Steal, StealDeque, Tsu};

/// The shared software TSU of TFluxSoft: the one [`Tsu`] on
/// [`ReadyQueue`]s, shared by `&` between kernel threads.
///
/// This is the direct-update redesign of §4.2: instead of funnelling every
/// completion through a single TSU-Emulator thread, kernels publish every
/// completion straight into the lock-free Synchronization Memory; Inlet and
/// Outlet completions (block loading/unloading) serialize on its `block`
/// mutex, not on a thread.
pub type SoftTsu<P> = Tsu<P, ReadyQueue>;

/// Ring every kernel's bell: a kernel parked on its own queue wakes, and
/// its next fetch answers `Exit` for a finished program or an evicted arena.
pub(crate) fn ring_all<P: ProgramHandle>(tsu: &SoftTsu<P>) {
    for q in tsu.queues() {
        q.bell.ring();
    }
}

/// The longest inbox a queue is built with. Both buffers start small and
/// the program's resident bound is only a hint: the deque grows on demand
/// and the valve takes what the inbox cannot, so constructing the queues
/// costs the same for a 65 536-wide block as for an 8-wide one.
pub const INBOX_SLOTS: usize = 1024;

/// A lock-free MPMC ready queue for one kernel, with queue-native
/// stealing.
pub struct ReadyQueue {
    /// Owner-side deque: LIFO for the owner, who also pushes what its own
    /// completions ready straight onto it; FIFO for thieves.
    deque: StealDeque,
    /// Pushes by anyone but the owner land here; drained into `deque` by
    /// the owner, poppable by thieves.
    inbox: MpmcRing,
    /// Valve for the part of a run that finds the inbox full. `overflow_len`
    /// gates it so nobody locks the mutex while it is empty — the common
    /// case.
    overflow: Mutex<VecDeque<(Instance, Epoch)>>,
    overflow_len: AtomicUsize,
    /// Acquisitions of `overflow`, bumped by the holder (never an RMW).
    valve_locks: AtomicU64,
    /// Rung once per foreign run, after its last entry is published; the
    /// owner parks on it.
    bell: EventCount,
}

impl QueueUnit for ReadyQueue {
    /// Kernel threads pace their victim rescans by parking on the bell,
    /// never by skipping them.
    const BACKOFF: bool = false;

    /// An empty queue: a default-sized deque, and an inbox of `cap`
    /// entries, at most [`INBOX_SLOTS`], before the overflow valve engages.
    fn new(cap: usize) -> Self {
        ReadyQueue {
            deque: StealDeque::new(),
            inbox: MpmcRing::with_capacity(cap.min(INBOX_SLOTS)),
            overflow: Mutex::new(VecDeque::new()),
            overflow_len: AtomicUsize::new(0),
            valve_locks: AtomicU64::new(0),
            bell: EventCount::default(),
        }
    }

    /// A run of one.
    fn push(&self, inst: Instance, epoch: Epoch, by_owner: bool) {
        self.push_run(std::slice::from_ref(&inst), epoch, by_owner)
    }

    /// Enqueue a run of ready instances with the epoch they were
    /// dispatched under (completion-handler side; any thread). The owner's
    /// own run is Chase-Lev bottom pushes and rings nothing: the only
    /// thread that parks on this queue is the one pushing. Anyone else's
    /// takes one inbox reservation, puts what does not fit in the valve
    /// under one lock, and rings the bell once.
    fn push_run(&self, run: &[Instance], epoch: Epoch, by_owner: bool) {
        if by_owner {
            for &i in run {
                self.deque.push(i, epoch);
            }
            return;
        }
        let queued = self.inbox.push_run(run, epoch);
        if queued < run.len() {
            let mut ovf = self.valve();
            ovf.extend(run[queued..].iter().map(|&i| (i, epoch)));
            self.overflow_len.store(ovf.len(), Ordering::SeqCst);
        }
        self.bell.ring();
    }

    /// One take by this queue's consumer: drain the inbox into the deque
    /// and pop LIFO; a dry deque first takes over the whole valve.
    fn take(&self) -> Option<(Instance, Epoch)> {
        while let Some((i, ep)) = self.inbox.pop() {
            self.deque.push(i, ep);
        }
        self.deque.pop().or_else(|| {
            if self.overflow_len.load(Ordering::SeqCst) == 0 {
                return None;
            }
            let mut ovf = self.valve();
            for (i, ep) in ovf.drain(..) {
                self.deque.push(i, ep);
            }
            self.overflow_len.store(0, Ordering::SeqCst);
            drop(ovf);
            self.deque.pop()
        })
    }

    /// One steal attempt by a foreign kernel: the deque top first (oldest
    /// owner-side entry), then the inbox, then the overflow valve.
    /// [`Steal::Retry`] means a CAS was lost to the owner or another
    /// thief — the caller counts the race and may retry or move on.
    fn steal(&self) -> Steal {
        match self.deque.steal() {
            Steal::Empty => {}
            hit_or_race => return hit_or_race,
        }
        if let Some(e) = self.inbox.pop() {
            return Steal::Success(e);
        }
        match self.pop_overflow() {
            Some(e) => Steal::Success(e),
            None => Steal::Empty,
        }
    }

    fn len(&self) -> usize {
        self.deque.len() + self.inbox.len() + self.overflow_len.load(Ordering::SeqCst)
    }
}

impl ReadyQueue {
    /// Where this queue's owner parks: read its `epoch` before looking for
    /// work, `wait` on it after a miss.
    pub(crate) fn bell(&self) -> &EventCount {
        &self.bell
    }

    /// `(bell rings, overflow-valve lock acquisitions)` since construction:
    /// what the hand-over of foreign runs has cost this queue.
    pub fn handover_counts(&self) -> (u64, u64) {
        (self.bell.epoch(), self.valve_locks.load(Ordering::Relaxed))
    }

    fn valve(&self) -> MutexGuard<'_, VecDeque<(Instance, Epoch)>> {
        let ovf = lock(&self.overflow);
        let n = self.valve_locks.load(Ordering::Relaxed);
        self.valve_locks.store(n + 1, Ordering::Relaxed);
        ovf
    }

    fn pop_overflow(&self) -> Option<(Instance, Epoch)> {
        if self.overflow_len.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let mut ovf = self.valve();
        let e = ovf.pop_front();
        self.overflow_len.store(ovf.len(), Ordering::SeqCst);
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use tflux_core::prelude::*;

    fn inst(t: u32) -> Instance {
        Instance::new(ThreadId(t), Context(0))
    }

    const E0: Epoch = Epoch(0);

    #[test]
    fn owner_pops_lifo_thieves_steal_fifo() {
        // the Chase-Lev contract: the owner runs its newest (cache-warm)
        // entry, a thief migrates the oldest
        let q = ReadyQueue::new(256);
        q.push(inst(1), E0, false);
        q.push(inst(2), E0, false);
        q.push(inst(3), E0, false);
        assert_eq!(q.steal(), Steal::Success((inst(1), E0)));
        assert_eq!(q.take(), Some((inst(3), E0)));
        assert_eq!(q.take(), Some((inst(2), E0)));
        assert_eq!(q.steal(), Steal::Empty);
        assert_eq!(q.take(), None);
    }

    #[test]
    fn overflow_valve_loses_nothing() {
        // an undersized inbox pushes the excess through the mutex valve;
        // every entry still comes out, and len() sees all of them
        let q = ReadyQueue::new(4);
        for t in 0..20 {
            q.push(inst(t), E0, false);
        }
        assert_eq!(q.len(), 20);
        let mut got = Vec::new();
        while let Some((i, _)) = q.take() {
            got.push(i.thread.0);
            // interleave thief traffic through the same valve
            if let Steal::Success((i, _)) = q.steal() {
                got.push(i.thread.0);
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    /// Contexts `lo..hi` of one thread.
    fn entries(lo: u32, hi: u32) -> Vec<Instance> {
        (lo..hi)
            .map(|c| Instance::new(ThreadId(1), Context(c)))
            .collect()
    }

    /// The owner pushes `0..n` and pops every other time while two foreign
    /// kernels steal; every entry must be claimed exactly once across the
    /// parties. With `owner_path` the owner's pushes are Chase-Lev bottom
    /// pushes. Each of `runs` is one more producer, as a sibling kernel's
    /// completions would be: meanwhile it pushes `n` entries of its own
    /// through the 8-slot inbox, in runs of that length, so a run longer
    /// than the inbox spills into the valve.
    fn race_thieves_against_the_owner(owner_path: bool, runs: &[usize]) {
        let n = 5_000u32;
        let total = n * (1 + runs.len() as u32);
        let q = Arc::new(ReadyQueue::new(8));
        let done = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let q = Arc::clone(&q);
            let done = Arc::clone(&done);
            handles.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                loop {
                    match q.steal() {
                        Steal::Success((i, _)) => mine.push(i.context.0),
                        Steal::Retry => {}
                        Steal::Empty => {
                            if done.load(Ordering::SeqCst) && q.steal() == Steal::Empty {
                                break;
                            }
                        }
                    }
                }
                mine
            }));
        }
        let producers: Vec<_> = (1..)
            .zip(runs)
            .map(|(p, &len)| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for run in entries(p * n, (p + 1) * n).chunks(len) {
                        q.push_run(run, E0, false);
                    }
                })
            })
            .collect();
        let mut mine = Vec::new();
        for c in 0..n {
            q.push(Instance::new(ThreadId(1), Context(c)), E0, owner_path);
            if c % 2 == 0 {
                if let Some((i, _)) = q.take() {
                    mine.push(i.context.0);
                }
            }
        }
        for p in producers {
            p.join().unwrap();
        }
        while let Some((i, _)) = q.take() {
            mine.push(i.context.0);
        }
        done.store(true, Ordering::SeqCst);
        for h in handles {
            mine.extend(h.join().unwrap());
        }
        assert_eq!(mine.len(), total as usize, "lost or duplicated entries");
        mine.sort_unstable();
        mine.dedup();
        assert_eq!(mine.len(), total as usize, "duplicated entries");
        if runs.iter().any(|&len| len > q.inbox.capacity()) {
            assert!(q.handover_counts().1 > 0, "no run reached the valve");
        }
    }

    #[test]
    fn racing_thieves_and_owner_drain_exactly_once() {
        race_thieves_against_the_owner(false, &[]);
    }

    #[test]
    fn owner_path_pushes_race_thieves_and_an_inbox_pusher() {
        race_thieves_against_the_owner(true, &[1]);
    }

    #[test]
    fn foreign_runs_race_the_owner_and_thieves_through_the_valve() {
        race_thieves_against_the_owner(true, &[3, 50]);
    }

    /// Push `runs` at one queue as runs and at another one entry at a
    /// time, by a foreign kernel unless `by_owner`, with an owner take
    /// after each; then let a thief and the owner take turns until both
    /// queues are empty. Every take and steal must see the same entry on
    /// both. Returns each queue's `(rings, valve locks)`.
    fn as_runs_and_as_pushes(runs: &[Vec<Instance>], by_owner: bool) -> [(u64, u64); 2] {
        let (batched, single) = (ReadyQueue::new(8), ReadyQueue::new(8));
        for run in runs {
            batched.push_run(run, E0, by_owner);
            for &i in run {
                single.push(i, E0, by_owner);
            }
            assert_eq!(batched.len(), single.len());
            assert_eq!(batched.take(), single.take());
        }
        loop {
            let turn = (batched.steal(), batched.take());
            assert_eq!(turn, (single.steal(), single.take()));
            if turn == (Steal::Empty, None) {
                break;
            }
        }
        [batched.handover_counts(), single.handover_counts()]
    }

    #[test]
    fn a_foreign_run_rings_once_and_reads_as_its_pushes() {
        // below the 8-slot inbox: no valve either way
        let [(rings, locks), single] = as_runs_and_as_pushes(&[entries(0, 5)], false);
        assert_eq!((rings, locks, single), (1, 0, (5, 0)));
        // above it: the rest of the run spills under one lock, and the
        // owner's dry deque takes the valve over under one more
        let [(rings, locks), (single_rings, single_locks)] =
            as_runs_and_as_pushes(&[entries(0, 40)], false);
        assert_eq!((rings, locks, single_rings), (1, 2, 40));
        assert!(
            single_locks > 32,
            "one lock per spilled push: {single_locks}"
        );
        // runs interleaved with single pushes, the inbox filling up
        let mixed = [(0, 1), (1, 6), (6, 7), (7, 30), (30, 31), (31, 45)];
        let mixed: Vec<_> = mixed.iter().map(|&(lo, hi)| entries(lo, hi)).collect();
        let [(rings, _), (single_rings, _)] = as_runs_and_as_pushes(&mixed, false);
        assert_eq!((rings, single_rings), (6, 45));
        // the owner's run goes onto its deque and rings nothing
        let [owner, single] = as_runs_and_as_pushes(&[entries(0, 40)], true);
        assert_eq!((owner, single), ((0, 0), (0, 0)));
        // the valve reaches the deque bottom in order: the owner takes the
        // inbox's share newest first, then the spilled rest newest first
        let q = ReadyQueue::new(8);
        q.push_run(&entries(0, 40), E0, false);
        let taken: Vec<u32> = std::iter::from_fn(|| q.take())
            .map(|(i, _)| i.context.0)
            .collect();
        assert_eq!(taken, (0..8).rev().chain((8..40).rev()).collect::<Vec<_>>());
    }

    #[test]
    fn owner_pushes_stay_off_the_inbox_and_wake_nobody() {
        let q = ReadyQueue::new(8);
        // a foreign push rings the owner's bell exactly once, through the
        // valve too; an owner push rings nothing
        let rings = |push: &dyn Fn()| {
            let seen = q.bell.epoch();
            push();
            q.bell.epoch() - seen
        };
        assert_eq!(rings(&|| q.push(inst(1), E0, true)), 0);
        assert_eq!(rings(&|| q.push(inst(2), E0, false)), 1);
        assert_eq!(rings(&|| q.push(inst(3), E0, true)), 0);
        assert_eq!((q.deque.len(), q.inbox.pushes()), (2, 1));
        assert_eq!(q.len(), 3);
        // the owner's next take drains the inbox onto the bottom, on top
        // of whatever the owner pushed in the meantime
        assert_eq!(q.take(), Some((inst(2), E0)));
        assert_eq!(q.steal(), Steal::Success((inst(1), E0)));
        assert_eq!(q.take(), Some((inst(3), E0)));
        assert_eq!(q.take(), None);
        for t in 0..q.inbox.capacity() as u32 + 4 {
            assert_eq!(rings(&|| q.push(inst(t), E0, false)), 1);
        }
        assert!(q.overflow_len.load(Ordering::SeqCst) > 0);
    }

    /// `program` on a 1-kernel `SoftTsu`, drained by that kernel.
    fn drained_by_one_kernel(program: &DdmProgram) -> SoftTsu<&DdmProgram> {
        let tsu = SoftTsu::with_queue_unit(program, 1, TsuConfig::default());
        let order = tflux_core::tsu::drain_sequential(&tsu).unwrap();
        assert_eq!(order.len(), program.total_instances());
        tsu
    }

    #[test]
    fn one_kernel_pushes_only_the_armed_inlet_through_the_inbox() {
        // two blocks: the Outlet → Inlet hand-over is a kernel's push too
        let mut b = ProgramBuilder::new();
        for _ in 0..2 {
            let blk = b.block();
            let work = b.thread(blk, ThreadSpec::new("work", 300));
            let sink = b.thread(blk, ThreadSpec::scalar("sink"));
            b.arc(work, sink, ArcMapping::Reduction).unwrap();
        }
        let p = b.build().unwrap();
        let tsu = drained_by_one_kernel(&p);
        // armed by the constructor, which is no kernel; every other ready
        // instance was readied by kernel 0 for kernel 0
        assert_eq!(tsu.queues()[0].inbox.pushes(), 1);
        assert_eq!(tsu.stats().fetches as usize, p.total_instances());
        // so is a pass opened after the drain, by whoever feeds the stream
        tsu.open_epoch(&mut Vec::new()).unwrap();
        tflux_core::tsu::drain_sequential(&tsu).unwrap();
        assert_eq!(tsu.queues()[0].inbox.pushes(), 2);
        assert_eq!(tsu.stats().completions as usize, 2 * p.total_instances());
    }

    #[test]
    fn queue_units_start_small_whatever_the_block() {
        // `soft_fine`'s fanout_reduce: a 65 539-instance block
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        for _ in 0..8 {
            let fan = b.thread(blk, ThreadSpec::new("fan", 8192));
            b.arc(fan, sink, ArcMapping::Reduction).unwrap();
        }
        let p = b.build().unwrap();
        assert_eq!(p.max_block_instances(), 8 * 8192 + 2);
        let tsu = SoftTsu::with_queue_unit(&p, 2, TsuConfig::default());
        for q in tsu.queues() {
            assert!(q.inbox.capacity() <= INBOX_SLOTS);
            assert_eq!(q.deque.capacity(), 64);
        }
        // and both grow or spill as the block loads: nothing is lost
        let order = tflux_core::tsu::drain_sequential(&tsu).unwrap();
        assert_eq!(order.len(), p.total_instances());
        assert!(tsu.queues()[0].deque.capacity() >= 8 * 8192 / 2);
    }
}
