//! Per-kernel ready queues — the runtime face of the TSU Queue Units.
//!
//! Each kernel owns one [`ReadyQueue`] ("Local TSU" in Fig. 4 of the
//! paper): the concurrent counterpart of the single-owner
//! [`StealDeque`] — in fact it is built *on* one. It is the [`QueueUnit`]
//! that turns the one [`Tsu`] of `tflux-core` into the shared software TSU
//! of TFluxSoft ([`SoftTsu`]): completion handlers push instances whose
//! ready count reached zero; the kernel pops them, blocking when empty;
//! idle siblings steal. All three answers speak the shared [`FetchResult`]
//! vocabulary.
//!
//! # Structure
//!
//! The push/pop fast path takes **no mutex**:
//!
//! * a [`StealDeque`] the owner works LIFO at the bottom of, thieves CAS
//!   the top of. A push made *by the owner* — the kernel whose completion
//!   readied an instance is the kernel that will run it, the common case
//!   under range placement — goes straight onto the bottom: no CAS, no
//!   wake, nothing leaves the kernel;
//! * an [`MpmcRing`] *inbox* that receives every other push (another
//!   kernel ran the producer, or the caller is no kernel at all), since
//!   Chase-Lev bottoms are owner-only. The owner drains the inbox into
//!   its deque before popping; thieves may pop the inbox directly, so
//!   work pushed at a kernel that never fetches is still stealable;
//! * a `Mutex<VecDeque>` *overflow valve* behind an atomic length that is
//!   only touched when the inbox is full. The inbox is at most
//!   [`INBOX_SLOTS`] long whatever the program, so this is where the
//!   foreign part of a wide block load waits; no push is ever lost or
//!   spun on;
//! * a parker: `Mutex<()>` + `Condvar`, demoted to the slow path. A
//!   consumer that misses registers itself in `parked` (SeqCst), re-checks
//!   the queues, and only then waits; a pusher publishes its entry, runs a
//!   `SeqCst` fence and reads `parked` — the Dekker handshake means either
//!   the pusher observes the parker (and notifies under the park lock) or
//!   the parker's re-check observes the entry. A 50 ms timed wait backstops
//!   lost wakeups.

use crate::sync::{lock, wait_timeout};
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use tflux_core::ids::{Epoch, Instance};
use tflux_core::tsu::{FetchResult, MpmcRing, ProgramHandle, QueueUnit, Steal, StealDeque, Tsu};

/// The shared software TSU of TFluxSoft: the one [`Tsu`] on blocking
/// [`ReadyQueue`]s, shared by `&` between kernel threads.
///
/// This is the direct-update redesign of §4.2: instead of funnelling every
/// completion through a single TSU-Emulator thread, kernels publish every
/// completion straight into the lock-free Synchronization Memory; Inlet and
/// Outlet completions (block loading/unloading) serialize on its `block`
/// mutex, not on a thread.
pub type SoftTsu<P> = Tsu<P, ReadyQueue>;

/// Shut every queue of `tsu` down so all kernels terminate after draining.
pub fn shutdown<P: ProgramHandle>(tsu: &SoftTsu<P>) {
    for q in tsu.queues() {
        q.shutdown();
    }
}

/// The longest inbox a queue is built with. Both buffers start small and
/// the program's resident bound is only a hint: the deque grows on demand
/// and the valve takes what the inbox cannot, so constructing the queues
/// costs the same for a 65 536-wide block as for an 8-wide one.
pub const INBOX_SLOTS: usize = 1024;

/// How long a blocked pop sleeps before re-checking on its own — the
/// backstop against a lost wakeup, not the normal wake path.
const PARK_BACKSTOP: Duration = Duration::from_millis(50);

/// A blocking MPMC ready queue for one kernel, with a lock-free fast path
/// and queue-native stealing.
pub struct ReadyQueue {
    /// Owner-side deque: LIFO for the owner, who also pushes what its own
    /// completions ready straight onto it; FIFO for thieves.
    deque: StealDeque,
    /// Pushes by anyone but the owner land here; drained into `deque` by
    /// the owner, poppable by thieves.
    inbox: MpmcRing,
    /// Valve for pushes that find the inbox full. `overflow_len` gates it
    /// so nobody locks the mutex while it is empty — the common case.
    overflow: Mutex<VecDeque<(Instance, Epoch)>>,
    overflow_len: AtomicUsize,
    exit: AtomicBool,
    /// Consumers currently inside the park protocol.
    parked: AtomicUsize,
    park_lock: Mutex<()>,
    available: Condvar,
    /// Time consumers spent blocked on an empty queue, in nanoseconds.
    wait_ns: AtomicU64,
    /// Number of pop calls that had to block at least once.
    blocked_pops: AtomicU64,
}

enum WaitMode {
    /// Return `Wait` immediately on a miss.
    Now,
    /// Block until work, exit, or the deadline (`None` = forever).
    Until(Option<Instant>),
}

impl QueueUnit for ReadyQueue {
    /// Kernel threads pace their victim rescans by parking on this queue
    /// ([`pop_timeout`](ReadyQueue::pop_timeout)), never by skipping them.
    const BACKOFF: bool = false;

    /// An empty queue: a default-sized deque, and an inbox of `cap`
    /// entries, at most [`INBOX_SLOTS`], before the overflow valve engages.
    fn new(cap: usize) -> Self {
        ReadyQueue {
            deque: StealDeque::new(),
            inbox: MpmcRing::with_capacity(cap.min(INBOX_SLOTS)),
            overflow: Mutex::new(VecDeque::new()),
            overflow_len: AtomicUsize::new(0),
            exit: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
            park_lock: Mutex::new(()),
            available: Condvar::new(),
            wait_ns: AtomicU64::new(0),
            blocked_pops: AtomicU64::new(0),
        }
    }

    /// Enqueue a ready instance with the epoch it was dispatched under
    /// (completion-handler side; any thread). The owner's own push is a
    /// Chase-Lev bottom push and wakes nobody: the only thread that parks
    /// on this queue is the one pushing. Anyone else's is lock-free
    /// unless the inbox is full or the owner is parked.
    fn push(&self, inst: Instance, epoch: Epoch, by_owner: bool) {
        if by_owner {
            self.deque.push(inst, epoch);
            return;
        }
        if !self.inbox.push(inst, epoch) {
            let mut ovf = lock(&self.overflow);
            ovf.push_back((inst, epoch));
            self.overflow_len.store(ovf.len(), Ordering::SeqCst);
        }
        self.wake();
    }

    fn take(&self) -> FetchResult {
        self.try_pop()
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
    /// Tell consumers to exit once the queue drains.
    pub fn shutdown(&self) {
        self.exit.store(true, Ordering::SeqCst);
        self.wake();
    }

    /// The pusher half of the Dekker handshake: entry already published,
    /// notify iff somebody is (or is about to be) parked.
    fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            // taking the lock orders the notify after the parker's
            // registered-but-not-yet-waiting window closes
            let _guard = lock(&self.park_lock);
            self.available.notify_all();
        }
    }

    fn pop_overflow(&self) -> Option<(Instance, Epoch)> {
        if self.overflow_len.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let mut ovf = lock(&self.overflow);
        let e = ovf.pop_front();
        self.overflow_len.store(ovf.len(), Ordering::SeqCst);
        e
    }

    /// One take attempt by this queue's consumer: drain the inbox into
    /// the deque, then pop LIFO.
    fn take(&self) -> Option<(Instance, Epoch)> {
        while let Some((i, ep)) = self.inbox.pop() {
            self.deque.push(i, ep);
        }
        self.deque.pop().or_else(|| self.pop_overflow())
    }

    /// The one wait loop behind [`pop`](Self::pop),
    /// [`pop_timeout`](Self::pop_timeout) and [`try_pop`](Self::try_pop),
    /// so the `wait_nanos`/`blocked_pops` accounting cannot drift between
    /// the three entry points.
    fn pop_inner(&self, mode: WaitMode) -> FetchResult {
        let mut counted = false;
        loop {
            // read exit *before* taking: if the flag is up, anything
            // pushed before shutdown is already visible, so a miss after
            // a true flag really means drained
            let exiting = self.exit.load(Ordering::SeqCst);
            if let Some((i, ep)) = self.take() {
                return FetchResult::Thread(i, ep);
            }
            if exiting {
                return FetchResult::Exit;
            }
            let deadline = match mode {
                WaitMode::Now => return FetchResult::Wait,
                WaitMode::Until(d) => d,
            };
            let now = Instant::now();
            let wait_for = match deadline {
                Some(d) => match d.checked_duration_since(now) {
                    Some(left) => left.min(PARK_BACKSTOP),
                    None => return FetchResult::Wait,
                },
                None => PARK_BACKSTOP,
            };
            if !counted {
                counted = true;
                self.blocked_pops.fetch_add(1, Ordering::Relaxed);
            }
            // park: register, re-check, then wait (the parker half of the
            // Dekker handshake — see `wake`)
            let mut guard = lock(&self.park_lock);
            self.parked.fetch_add(1, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if self.is_empty() && !self.exit.load(Ordering::SeqCst) {
                guard = wait_timeout(&self.available, guard, wait_for);
            }
            self.parked.fetch_sub(1, Ordering::SeqCst);
            drop(guard);
            self.wait_ns
                .fetch_add(now.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Dequeue the next instance, blocking while the queue is empty and the
    /// program is still running — never returns [`FetchResult::Wait`]. Exit
    /// is reported only after the queue is empty, so no ready instance is
    /// ever abandoned.
    pub fn pop(&self) -> FetchResult {
        self.pop_inner(WaitMode::Until(None))
    }

    /// Pop with a bounded wait: returns [`FetchResult::Wait`] when
    /// `timeout` elapses with the queue still empty and the program still
    /// running. Used by the work-stealing kernel loop, which must
    /// periodically rescan victim queues instead of blocking on its own
    /// queue forever.
    pub fn pop_timeout(&self, timeout: Duration) -> FetchResult {
        self.pop_inner(WaitMode::Until(Instant::now().checked_add(timeout)))
    }

    /// Non-blocking pop: [`FetchResult::Wait`] when the queue is empty and
    /// the program is still running.
    pub fn try_pop(&self) -> FetchResult {
        self.pop_inner(WaitMode::Now)
    }

    /// Nanoseconds consumers spent blocked waiting for work.
    pub fn wait_nanos(&self) -> u64 {
        self.wait_ns.load(Ordering::Relaxed)
    }

    /// Number of pop calls that found the queue empty and blocked (each
    /// blocking call counts once, however many times it re-checks).
    pub fn blocked_pops(&self) -> u64 {
        self.blocked_pops.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(q.pop(), FetchResult::Thread(inst(3), E0));
        assert_eq!(q.pop(), FetchResult::Thread(inst(2), E0));
        assert_eq!(q.steal(), Steal::Empty);
        assert_eq!(q.try_pop(), FetchResult::Wait);
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
        loop {
            match q.try_pop() {
                FetchResult::Thread(i, _) => got.push(i.thread.0),
                FetchResult::Wait => break,
                FetchResult::Exit => unreachable!(),
            }
            // interleave thief traffic through the same valve
            if let Steal::Success((i, _)) = q.steal() {
                got.push(i.thread.0);
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn exit_reported_only_after_drain() {
        let q = ReadyQueue::new(256);
        q.push(inst(1), E0, false);
        q.shutdown();
        assert_eq!(q.pop(), FetchResult::Thread(inst(1), E0));
        assert_eq!(q.pop(), FetchResult::Exit);
        assert_eq!(q.pop(), FetchResult::Exit);
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let q = Arc::new(ReadyQueue::new(256));
        let handle = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.push(inst(7), E0, false);
        assert_eq!(handle.join().unwrap(), FetchResult::Thread(inst(7), E0));
        assert!(q.blocked_pops() >= 1);
        assert!(q.wait_nanos() > 0);
    }

    #[test]
    fn blocking_pop_wakes_on_shutdown() {
        let q = Arc::new(ReadyQueue::new(256));
        let handle = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(10));
        q.shutdown();
        assert_eq!(handle.join().unwrap(), FetchResult::Exit);
    }

    #[test]
    fn pop_timeout_expires_and_delivers() {
        let q = ReadyQueue::new(256);
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), FetchResult::Wait);
        q.push(inst(4), E0, false);
        assert_eq!(
            q.pop_timeout(Duration::from_millis(5)),
            FetchResult::Thread(inst(4), E0)
        );
        q.shutdown();
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), FetchResult::Exit);
    }

    #[test]
    fn try_pop_states() {
        let q = ReadyQueue::new(256);
        assert_eq!(q.try_pop(), FetchResult::Wait);
        q.push(inst(3), E0, false);
        assert_eq!(q.try_pop(), FetchResult::Thread(inst(3), E0));
        q.shutdown();
        assert_eq!(q.try_pop(), FetchResult::Exit);
        // a blocked-pop counter is only charged by calls that block
        assert_eq!(q.blocked_pops(), 0);
    }

    /// The owner pushes `0..n` and pops every other time while two foreign
    /// kernels steal; every entry must be claimed exactly once across the
    /// parties. With `owner_path` the owner's pushes are Chase-Lev bottom
    /// pushes and a fourth thread pushes `n..2n` through the inbox
    /// meanwhile, as a sibling kernel's completions would.
    fn race_thieves_against_the_owner(owner_path: bool) {
        let n = 5_000u32;
        let total = if owner_path { 2 * n } else { n };
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
        let foreign = owner_path.then(|| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for c in n..2 * n {
                    q.push(Instance::new(ThreadId(1), Context(c)), E0, false);
                }
            })
        });
        let mut mine = Vec::new();
        for c in 0..n {
            q.push(Instance::new(ThreadId(1), Context(c)), E0, owner_path);
            if c % 2 == 0 {
                if let FetchResult::Thread(i, _) = q.try_pop() {
                    mine.push(i.context.0);
                }
            }
        }
        if let Some(foreign) = foreign {
            foreign.join().unwrap();
        }
        while let FetchResult::Thread(i, _) = q.try_pop() {
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
    }

    #[test]
    fn racing_thieves_and_owner_drain_exactly_once() {
        race_thieves_against_the_owner(false);
    }

    #[test]
    fn owner_path_pushes_race_thieves_and_an_inbox_pusher() {
        race_thieves_against_the_owner(true);
    }

    #[test]
    fn owner_pushes_stay_off_the_inbox_and_wake_nobody() {
        let q = ReadyQueue::new(8);
        q.push(inst(1), E0, true);
        q.push(inst(2), E0, false);
        q.push(inst(3), E0, true);
        assert_eq!((q.deque.len(), q.inbox.pushes()), (2, 1));
        assert_eq!(q.len(), 3);
        // the owner's next take drains the inbox onto the bottom, on top
        // of whatever the owner pushed in the meantime
        assert_eq!(q.try_pop(), FetchResult::Thread(inst(2), E0));
        assert_eq!(q.steal(), Steal::Success((inst(1), E0)));
        assert_eq!(q.try_pop(), FetchResult::Thread(inst(3), E0));
        assert_eq!(q.try_pop(), FetchResult::Wait);
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
