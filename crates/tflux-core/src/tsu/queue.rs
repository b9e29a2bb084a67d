//! The per-kernel Queue Unit and the one fetch-result vocabulary.
//!
//! §3.3/Fig. 4: each processor gets its own queue of ready DThreads, fed by
//! the Synchronization Memory and drained by the kernel. [`ReadyQueue`] is
//! that queue, the same type on every platform. Its core is a
//! [`StealDeque`]: a Chase-Lev deque whose owner pushes and pops at the
//! bottom with plain loads/stores plus fences, while idle kernels *steal*
//! the oldest entry by CAS-ing the top — stealing is a queue-native
//! operation, not a scheduler hack layered on a `VecDeque`. Entries are
//! epoch-tagged `(Instance, Epoch)` pairs so streaming tokens ride the
//! steal path unchanged. Runs pushed by anyone but the owner land in one
//! locked FIFO inbox and ring the queue's [`EventCount`] bell. Only
//! [`EventCount::wait`] ever blocks.
//!
//! # Memory ordering of the deque
//!
//! Everything below is the [`Shared`] mode, the deque threads share. In the
//! [`Owned`](super::Owned) mode one thread is owner and every thief, so
//! program order alone orders each step: the fences are nothing, and each
//! `top` CAS is a `Relaxed` load, compare and store that cannot lose
//! ([`Access`]). The steps themselves are the same code in both modes.
//!
//! The implementation follows the C11 formulation of Chase-Lev (Lê,
//! Pop, Cohen, Zappa Nardelli, *Correct and Efficient Work-Stealing for
//! Weak Memory Models*, PPoPP 2013), with one deliberate deviation: slot
//! data lives in per-slot atomics read/written `Relaxed` instead of raw
//! (racy) loads. A thief may therefore read a slot concurrently with the
//! owner overwriting it — the read value is garbage only in executions
//! where the subsequent `top` CAS fails, so the value is discarded; because
//! the read is atomic the race is defined behavior and ThreadSanitizer
//! stays quiet. The orderings that carry the algorithm:
//!
//! * **push**: slot write, then `Release` fence, then the `bottom` store —
//!   a thief that observes the new `bottom` (via its `Acquire` load) also
//!   observes the slot contents.
//! * **pop**: `bottom` is decremented, then a `SeqCst` fence orders that
//!   store before the `top` load. Paired with the thief's `SeqCst` fence
//!   (between its `top` and `bottom` loads), owner and thief cannot both
//!   miss each other's claim on the last entry; they race through a
//!   `SeqCst` CAS on `top` for it, and exactly one wins.
//! * **steal**: `Acquire` `top`, `SeqCst` fence, `Acquire` `bottom`, slot
//!   read, then the `SeqCst` CAS on `top`. A failed CAS is
//!   [`Steal::Retry`] — somebody else took index `top` — and the read
//!   value is dropped on the floor. An owned deque never returns it.
//! * **full**: the ring's size is fixed. A push that finds `bottom - top`
//!   at the capacity hands its entry back and writes nothing. A stale
//!   `top` is only ever low, so the check errs towards "full", never
//!   towards overwriting a live slot.
//!
//! # Sizing
//!
//! [`Tsu`](super::Tsu) sizes each kernel's ring once, for the most
//! instances one block places on that kernel (app threads plus outlet, at
//! least 1 for a lone inlet), and the ring never fills: a deque receives
//! only its own kernel's instances (anyone else's run lands in the inbox);
//! every entry is dispatched before it is pushed; and one block and one
//! epoch are resident at a time ([`SyncMemory`](super::SyncMemory),
//! "Streaming epochs"), so a block's entries are pushed only after its
//! predecessor's outlet, which waited for every earlier entry to be
//! claimed. Nor can a stale `top` make a legal push look full: a steal of
//! an earlier block's entry happens-before its completion, whose `AcqRel`
//! ready-count decrement happens-before the outlet's dispatch and the
//! block transition that precedes any push of the next block. So the
//! owner's `Acquire` load of `top` reads at least the value at which the
//! deque emptied, and `bottom - top` counts only this block's pushes. (An
//! owned deque has no stale `top`: its one thread made every steal.)

use super::access::{Access, Shared};
use crate::ids::{Epoch, Instance, ThreadId};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Result of a kernel's request for its next DThread.
///
/// Every backend answers a fetch with one of these three words; only the
/// [`Tsu`](super::Tsu) and the runtime's arenas produce them, a queue unit
/// answers with an entry or nothing. A fetched instance carries the epoch
/// it was dispatched under; the kernel hands that token back with the
/// completion so a late completion can never corrupt a re-armed slot of a
/// later streaming pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchResult {
    /// Run this instance next; report its completion with this epoch.
    Thread(Instance, Epoch),
    /// No ready DThread right now; the kernel must wait and retry.
    Wait,
    /// The program has finished; the kernel exits.
    Exit,
}

/// Outcome of one [`StealDeque::steal`] attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Steal {
    /// The oldest entry, claimed exactly once.
    Success((Instance, Epoch)),
    /// The deque was observed empty — a clean miss. A victim emptied
    /// between the thief's length probe and the steal lands here, never in
    /// a panic or a double-pop.
    Empty,
    /// Lost the `top` CAS to the owner or another thief; the entry went to
    /// someone else. Retry here or move to another victim.
    Retry,
}

/// An `(Instance, Epoch)` entry packed into two per-slot atomics.
///
/// `inst` packs `thread` in the high 32 bits and `context` in the low 32;
/// `epoch` carries the full 64-bit epoch id. The two words are read
/// separately by thieves, and a torn pair (one word old, one new) can only
/// be observed in executions where the claiming CAS fails — the pair is
/// then discarded, so tearing is never visible to a caller.
#[derive(Default)]
struct Slot {
    inst: AtomicU64,
    epoch: AtomicU64,
}

#[inline]
fn pack(i: Instance) -> u64 {
    ((i.thread.0 as u64) << 32) | i.context.0 as u64
}

#[inline]
fn unpack(x: u64) -> Instance {
    Instance::new(ThreadId((x >> 32) as u32), crate::ids::Context(x as u32))
}

/// The core of a [`ReadyQueue`]: a Chase-Lev work-stealing deque of
/// epoch-tagged ready instances, in a fixed power-of-two ring.
///
/// The *owner* (the kernel the queue belongs to, or the single scheduler
/// thread in the single-owner platforms) calls [`push`](Self::push) and
/// [`pop`](Self::pop); any other thread calls [`steal`](Self::steal). The
/// owner works LIFO at the bottom — the entry it just made ready is the one
/// most likely to be warm in its cache — while thieves take the *oldest*
/// entry at the top, preserving the paper's FIFO service order for
/// migrated work.
///
/// Owner operations take `&self` (all state is atomic, so misuse cannot
/// cause undefined behavior) but must come from one thread at a time:
/// concurrent owner calls may lose or duplicate entries. [`ReadyQueue`]
/// upholds this by routing every push that is not the owner's own through
/// its inbox.
///
/// `M` is the [access mode](Access): a [`Shared`] deque is the one
/// thieves on other threads reach; an [`Owned`](super::Owned) one is
/// driven by one thread, owner and thieves alike, and can reach no other.
pub struct StealDeque<M: Access = Shared> {
    bottom: AtomicI64,
    top: AtomicI64,
    /// Capacity − 1: the unbounded counter `i` lives in slot `i & mask`.
    mask: i64,
    slots: Box<[Slot]>,
    mode: PhantomData<M>,
}

impl StealDeque {
    /// An empty [`Shared`] deque holding at most `cap` entries, rounded up
    /// to a power of two (at least 1). The size is fixed for the deque's
    /// lifetime.
    pub fn with_capacity(cap: usize) -> Self {
        Self::ring(cap)
    }
}

impl<M: Access> StealDeque<M> {
    /// [`with_capacity`](StealDeque::with_capacity), in either mode.
    fn ring(cap: usize) -> Self {
        let cap = cap.next_power_of_two();
        StealDeque {
            bottom: AtomicI64::new(0),
            top: AtomicI64::new(0),
            mask: cap as i64 - 1,
            slots: (0..cap).map(|_| Slot::default()).collect(),
            mode: PhantomData,
        }
    }

    #[inline]
    fn read(&self, i: i64) -> (u64, u64) {
        let s = &self.slots[(i & self.mask) as usize];
        (
            s.inst.load(Ordering::Relaxed),
            s.epoch.load(Ordering::Relaxed),
        )
    }

    /// Enqueue a ready instance at the bottom (owner side). A full ring
    /// hands the entry back untouched.
    pub fn push(&self, inst: Instance, epoch: Epoch) -> Result<(), (Instance, Epoch)> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b - t > self.mask {
            return Err((inst, epoch));
        }
        let s = &self.slots[(b & self.mask) as usize];
        s.inst.store(pack(inst), Ordering::Relaxed);
        s.epoch.store(epoch.0, Ordering::Relaxed);
        M::fence(Ordering::Release);
        self.bottom.store(b + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Dequeue the *newest* entry from the bottom (owner side). On the
    /// last entry the owner races the thieves through the `top` CAS;
    /// losing is a clean `None`, never a double-pop.
    pub fn pop(&self) -> Option<(Instance, Epoch)> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        M::fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t <= b {
            let (x, e) = self.read(b);
            if t == b {
                // last entry: claim it against concurrent thieves
                let won =
                    M::compare_exchange(&self.top, t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                        .is_ok();
                self.bottom.store(b + 1, Ordering::Relaxed);
                if !won {
                    return None;
                }
            }
            Some((unpack(x), Epoch(e)))
        } else {
            self.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Steal the *oldest* entry from the top (any thread). One attempt:
    /// [`Steal::Retry`] reports a lost CAS, [`Steal::Empty`] an empty (or
    /// concurrently emptied) victim.
    pub fn steal(&self) -> Steal {
        let t = self.top.load(Ordering::Acquire);
        M::fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let (x, e) = self.read(t);
        if M::compare_exchange(&self.top, t, t + 1, Ordering::SeqCst, Ordering::Relaxed).is_err() {
            return Steal::Retry;
        }
        Steal::Success((unpack(x), Epoch(e)))
    }

    /// Slots in the ring: the most entries the deque holds.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Entries currently queued (a racy snapshot under concurrency; exact
    /// when quiescent).
    pub fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Whether the deque is (momentarily) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// `std::sync` locking without poisoning: every mutex here guards data
/// that is valid after each individual update.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A waiter-aware eventcount: `ring` is one atomic increment unless a
/// thread is (or is about to be) asleep in `wait`. A Dekker handshake: the
/// ringer bumps `seq` then reads `sleepers`, the waiter bumps `sleepers`
/// then re-reads `seq`, all `SeqCst`, so at least one side sees the other.
/// The one parking primitive of the workspace: every kernel thread parks on
/// its own queue's bell or a server's pool eventcount, every supervising
/// thread on its own.
#[derive(Default)]
pub struct EventCount {
    seq: AtomicU64,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl EventCount {
    /// Rings so far. Read it *before* looking for work; pass it to `wait`.
    pub fn epoch(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Count one event and wake every thread asleep in [`wait`](Self::wait).
    pub fn ring(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // taking the lock orders the notify after the sleeper's
            // registered-but-not-yet-waiting window closes
            let _guard = lock(&self.lock);
            self.cv.notify_all();
        }
    }

    /// Sleep until a ring moves the count past `seen` or `timeout` elapses
    /// (or spuriously — callers loop).
    pub fn wait(&self, seen: u64, timeout: Duration) {
        let guard = lock(&self.lock);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.seq.load(Ordering::SeqCst) == seen {
            drop(self.cv.wait_timeout(guard, timeout));
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One kernel's Queue Unit ("Local TSU" in Fig. 4), on every platform.
///
/// Every push is a *run*: the owner's contiguous share of one publication
/// (a whole block load's share of a thread, or a single instance), handed
/// over in one call. Two buffers and a bell:
///
/// * a [`StealDeque`] the owner works LIFO at the bottom of, thieves CAS
///   the top of. A run pushed *by the owner* — the kernel whose completion
///   readied it is the kernel that will run it, or one thread drives every
///   kernel — goes straight onto the bottom: no ring, and no lock while
///   the inbox is empty;
/// * a `Mutex<VecDeque>` *inbox* that receives every other run, since
///   Chase-Lev bottoms are owner-only: one lock per run, whatever its
///   length. An atomic length gates the owner's drain and a thief's pop,
///   so neither locks it while it is empty — the common case. Thieves may
///   pop its front, so work pushed at a kernel that never fetches is still
///   stealable;
/// * a *bell*, an [`EventCount`]: every foreign run rings it once, after
///   the run is visible, so it wakes the owner if it parked and costs one
///   atomic increment if not.
///
/// The deque is sized for its kernel's largest block share ("Sizing"
/// above), so a push it refuses is a broken invariant and panics.
///
/// Entries keep their **arrival order**: the owner moves the inbox onto
/// its deque bottom, under one lock, before each of its own pushes and
/// takes, so the deque holds what arrived before the inbox. When one
/// thread drives the queue, every take therefore answers the newest entry
/// and every steal the oldest, exactly as a [`StealDeque`] fed the same pushes
/// would; a run is its pushes made one at a time.
///
/// `M` is the deque's [access mode](Access), the [`Tsu`](super::Tsu)'s.
pub struct ReadyQueue<M: Access = Shared> {
    deque: StealDeque<M>,
    /// Runs by anyone but the owner, oldest first; moved onto `deque` by
    /// the owner, poppable by thieves.
    inbox: Mutex<VecDeque<(Instance, Epoch)>>,
    /// `inbox`'s length, stored by whoever holds the lock.
    inbox_len: AtomicUsize,
    /// Acquisitions of `inbox`, bumped by the holder (never an RMW).
    inbox_locks: AtomicU64,
    /// Rings once per foreign run, after it is in the inbox; the owner
    /// parks on it.
    bell: EventCount,
}

impl<M: Access> ReadyQueue<M> {
    /// An empty queue whose deque holds `cap` entries (rounded up to a
    /// power of two), and an empty inbox.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        ReadyQueue {
            deque: StealDeque::ring(cap),
            inbox: Mutex::default(),
            inbox_len: AtomicUsize::new(0),
            inbox_locks: AtomicU64::new(0),
            bell: EventCount::default(),
        }
    }

    /// Enqueue a run of dispatched instances, all under `epoch`, from any
    /// thread. `by_owner` says the caller is the one thread that
    /// [`take`](Self::take)s from this queue: its run goes onto the deque
    /// bottom, behind everything that arrived before it, and rings nothing.
    /// Anyone else's joins the inbox under one lock and rings the bell once.
    pub fn push_run(&self, run: &[Instance], epoch: Epoch, by_owner: bool) {
        if by_owner {
            self.drain();
            for &i in run {
                self.push_owned(i, epoch);
            }
            return;
        }
        let mut inbox = self.inbox();
        inbox.extend(run.iter().map(|&i| (i, epoch)));
        self.inbox_len.store(inbox.len(), Ordering::SeqCst);
        drop(inbox);
        self.bell.ring();
    }

    /// One non-blocking take by this queue's owner: the newest entry.
    pub fn take(&self) -> Option<(Instance, Epoch)> {
        self.drain();
        self.deque.pop()
    }

    /// Move the inbox onto the deque bottom in arrival order (owner side,
    /// under one lock, and only when the inbox is non-empty).
    fn drain(&self) {
        if self.inbox_len.load(Ordering::SeqCst) > 0 {
            let mut inbox = self.inbox();
            for (i, ep) in inbox.drain(..) {
                self.push_owned(i, ep);
            }
            self.inbox_len.store(0, Ordering::SeqCst);
        }
    }

    /// Push onto the deque bottom (owner side), within its bound.
    fn push_owned(&self, i: Instance, epoch: Epoch) {
        self.deque
            .push(i, epoch)
            .expect("a Queue Unit holds at most its kernel's largest share of one block");
    }

    /// One steal attempt by a foreign kernel: the deque top first (the
    /// oldest entry the owner moved there), then the inbox front.
    /// [`Steal::Retry`] means a CAS was lost to the owner or another thief
    /// — the caller counts the race and may retry or move on.
    pub fn steal(&self) -> Steal {
        match self.deque.steal() {
            Steal::Empty => {}
            hit_or_race => return hit_or_race,
        }
        if self.inbox_len.load(Ordering::SeqCst) == 0 {
            return Steal::Empty;
        }
        let mut inbox = self.inbox();
        let e = inbox.pop_front();
        self.inbox_len.store(inbox.len(), Ordering::SeqCst);
        e.map_or(Steal::Empty, Steal::Success)
    }

    /// Entries currently queued (a racy snapshot under concurrency; exact
    /// when quiescent).
    pub fn len(&self) -> usize {
        self.deque.len() + self.inbox_len.load(Ordering::SeqCst)
    }

    /// Whether the queue is (momentarily) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots in the deque's ring, fixed when the [`Tsu`](super::Tsu) is
    /// built.
    pub fn capacity(&self) -> usize {
        self.deque.capacity()
    }

    /// Where this queue's owner parks: read its `epoch` before looking for
    /// work, `wait` on it after a miss.
    pub fn bell(&self) -> &EventCount {
        &self.bell
    }

    /// `(bell rings, inbox lock acquisitions)` since construction: what
    /// the hand-over of foreign runs has cost this queue.
    pub fn handover_counts(&self) -> (u64, u64) {
        (self.bell.epoch(), self.inbox_locks.load(Ordering::Relaxed))
    }

    fn inbox(&self) -> MutexGuard<'_, VecDeque<(Instance, Epoch)>> {
        let inbox = lock(&self.inbox);
        let n = self.inbox_locks.load(Ordering::Relaxed);
        self.inbox_locks.store(n + 1, Ordering::Relaxed);
        inbox
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::tsu::drain_sequential;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Instant;

    fn inst(t: u32, c: u32) -> Instance {
        Instance::new(ThreadId(t), Context(c))
    }

    const E0: Epoch = Epoch(0);

    /// Contexts `lo..hi` of one thread.
    fn entries(lo: u32, hi: u32) -> Vec<Instance> {
        (lo..hi).map(|c| inst(1, c)).collect()
    }

    /// A queue whose deque no test below fills.
    fn queue() -> ReadyQueue {
        ReadyQueue::with_capacity(1 << 14)
    }

    /// One foreign push of `i`.
    fn foreign(q: &ReadyQueue, i: Instance) {
        q.push_run(&[i], E0, false)
    }

    #[test]
    fn one_thread_driving_a_ready_queue_sees_a_steal_deque() {
        // one thread feeds a queue and a bare deque the same random
        // sequence: owner runs, foreign runs (some long), takes and
        // steals. Arrival order makes every answer the deque's.
        let mut inbox_locks = 0;
        crate::rng::cases(64, |rng| {
            let (q, model) = (queue(), StealDeque::with_capacity(1 << 14));
            let mut next = 0;
            for _ in 0..300 {
                match rng.below(6) {
                    0..=2 => {
                        let longest = if rng.chance(1, 4) { 20 } else { 4 };
                        let len = rng.range(1..longest);
                        let (run, epoch) = (entries(next, next + len), Epoch(rng.below(3)));
                        next += len;
                        q.push_run(&run, epoch, rng.chance(1, 2));
                        run.iter().for_each(|&i| model.push(i, epoch).unwrap());
                    }
                    3 | 4 => assert_eq!(q.take(), model.pop()),
                    _ => assert_eq!(q.steal(), model.steal()),
                }
                assert_eq!(q.len(), model.len());
            }
            while let Some(e) = q.take() {
                assert_eq!(Some(e), model.pop());
            }
            assert!(model.is_empty());
            inbox_locks += q.handover_counts().1;
        });
        assert!(inbox_locks > 0, "no run reached the inbox");
    }

    #[test]
    fn ready_queue_pops_lifo_and_steals_fifo() {
        // the Chase-Lev contract: the owner runs its newest (cache-warm)
        // entry, a thief migrates the oldest
        let q = queue();
        for t in 1..=3 {
            foreign(&q, inst(t, 0));
        }
        assert_eq!(q.steal(), Steal::Success((inst(1, 0), E0)));
        assert_eq!(q.take(), Some((inst(3, 0), E0)));
        assert_eq!(q.take(), Some((inst(2, 0), E0)));
        assert_eq!(q.steal(), Steal::Empty);
        assert_eq!(q.take(), None);
    }

    /// The owner pushes `0..n` and pops every other time while two foreign
    /// kernels steal; every entry must be claimed exactly once across the
    /// parties. With `owner_path` the owner's pushes are Chase-Lev bottom
    /// pushes. Each of `runs` is one more producer, as a sibling kernel's
    /// completions would be: meanwhile it pushes `n` entries of its own
    /// through the inbox, in runs of that length.
    fn race_thieves_against_the_owner(owner_path: bool, runs: &[usize]) {
        let n = 5_000u32;
        let total = n * (1 + runs.len() as u32);
        let q = Arc::new(queue());
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
            q.push_run(&[inst(1, c)], E0, owner_path);
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
    fn foreign_runs_race_the_owner_and_thieves_through_the_inbox() {
        race_thieves_against_the_owner(true, &[3, 50]);
    }

    /// Push `runs` at one queue as runs and at another one entry at a
    /// time, by a foreign kernel unless `by_owner`, with an owner take
    /// after each; then let a thief and the owner take turns until both
    /// queues are empty. Every take and steal must see the same entry on
    /// both. Returns each queue's `(rings, inbox locks)`.
    fn as_runs_and_as_pushes(runs: &[Vec<Instance>], by_owner: bool) -> [(u64, u64); 2] {
        let (batched, single) = (queue(), queue());
        for run in runs {
            batched.push_run(run, E0, by_owner);
            for &i in run {
                single.push_run(&[i], E0, by_owner);
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
        // a run of any length is one lock and one ring, and the owner's
        // next take moves it over under one more lock; its pushes one at
        // a time pay a lock and a ring each
        let [batched, single] = as_runs_and_as_pushes(&[entries(0, 40)], false);
        assert_eq!((batched, single), ((1, 2), (40, 41)));
        // runs interleaved with single pushes
        let mixed = [(0, 1), (1, 6), (6, 7), (7, 30), (30, 31), (31, 45)];
        let mixed: Vec<_> = mixed.iter().map(|&(lo, hi)| entries(lo, hi)).collect();
        let [batched, single] = as_runs_and_as_pushes(&mixed, false);
        assert_eq!((batched, single), ((6, 12), (45, 51)));
        // the owner's run goes onto its deque and rings nothing
        let [owner, single] = as_runs_and_as_pushes(&[entries(0, 40)], true);
        assert_eq!((owner, single), ((0, 0), (0, 0)));
        // the inbox reaches the deque bottom ahead of the owner's next
        // run, in arrival order: the owner takes everything newest first
        let q = queue();
        q.push_run(&entries(0, 40), E0, false);
        q.push_run(&entries(40, 45), E0, true);
        assert_eq!(q.handover_counts(), (1, 2), "one ring; run + move");
        let taken: Vec<u32> = std::iter::from_fn(|| q.take())
            .map(|(i, _)| i.context.0)
            .collect();
        assert_eq!(taken, (0..45).rev().collect::<Vec<_>>());
    }

    #[test]
    fn owner_pushes_stay_off_the_inbox_and_wake_nobody() {
        let q = queue();
        // a foreign push rings the owner's bell exactly once; an owner
        // push rings nothing
        let rings = |push: &dyn Fn()| {
            let seen = q.bell.epoch();
            push();
            q.bell.epoch() - seen
        };
        assert_eq!(rings(&|| q.push_run(&[inst(1, 0)], E0, true)), 0);
        assert_eq!(rings(&|| foreign(&q, inst(2, 0))), 1);
        assert_eq!(rings(&|| q.push_run(&[inst(3, 0)], E0, true)), 0);
        // the owner's push first moved the inbox onto the bottom, behind
        // which its own entry lands
        let inbox_len = q.inbox_len.load(Ordering::SeqCst);
        assert_eq!(
            (q.deque.len(), inbox_len, q.handover_counts()),
            (3, 0, (1, 2))
        );
        assert_eq!(q.len(), 3);
        // so the owner's next take is its own newest push, and a thief
        // still takes the oldest, neither of them locking the empty inbox
        assert_eq!(q.take(), Some((inst(3, 0), E0)));
        assert_eq!(q.steal(), Steal::Success((inst(1, 0), E0)));
        assert_eq!(q.take(), Some((inst(2, 0), E0)));
        assert_eq!(q.take(), None);
        assert_eq!(q.steal(), Steal::Empty);
        assert_eq!(q.handover_counts(), (1, 2));
    }

    /// `program` on a 1-kernel threaded `Tsu`, drained by that kernel.
    fn drained_by_one_kernel(program: &DdmProgram) -> Tsu<&DdmProgram> {
        let tsu = Tsu::threaded(program, 1, TsuConfig::default());
        let order = drain_sequential(&tsu).unwrap();
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
        assert_eq!(tsu.queues()[0].handover_counts().0, 1);
        assert_eq!(tsu.stats().fetches as usize, p.total_instances());
        // so is a pass opened after the drain, by whoever feeds the stream
        tsu.open_epoch(&mut Vec::new()).unwrap();
        drain_sequential(&tsu).unwrap();
        assert_eq!(tsu.queues()[0].handover_counts().0, 2);
        assert_eq!(tsu.stats().completions as usize, 2 * p.total_instances());
        // one thread driving every kernel id sends nothing through the inbox
        let single = Tsu::new(&p, 1, TsuConfig::default());
        assert_eq!(
            drain_sequential(&single).unwrap().len(),
            p.total_instances()
        );
        assert_eq!(single.queues()[0].handover_counts(), (0, 0));
    }

    #[test]
    fn queue_units_are_sized_from_the_block() {
        // `soft_fine`'s fanout_reduce: a 65 539-instance block. At two
        // kernels, kernel 0 gets half of each fan thread plus the sink and
        // the outlet (32 770), kernel 1 the other halves (32 768)
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        for _ in 0..8 {
            let fan = b.thread(blk, ThreadSpec::new("fan", 8192));
            b.arc(fan, sink, ArcMapping::Reduction).unwrap();
        }
        let p = b.build().unwrap();
        assert_eq!(p.block_instances(p.blocks()[0].id), 8 * 8192 + 2);
        fn check<M: Access>(tsu: Tsu<&DdmProgram, M>) {
            // both constructors build the same queues; the armed inlet is
            // the one entry either has queued, and the threaded one's is
            // in its owner's inbox, handed over by no kernel
            assert_eq!(tsu.ready_len(), 1);
            let slots: Vec<usize> = tsu.queues().iter().map(|q| q.capacity()).collect();
            assert_eq!(slots, [65_536, 32_768]);
            assert!(tsu.queues().iter().all(|q| lock(&q.inbox).len() <= 1));
            // the whole block loads at once, and nothing overflows
            let order = drain_sequential(&tsu).unwrap();
            assert_eq!(order.len(), tsu.program().total_instances());
            assert_eq!(tsu.queues()[0].capacity(), 65_536);
        }
        check(Tsu::new(&p, 2, TsuConfig::default()));
        check(Tsu::threaded(&p, 2, TsuConfig::default()));
    }

    const LONG: Duration = Duration::from_secs(10);

    #[test]
    fn ring_before_wait_returns_at_once() {
        let ec = EventCount::default();
        let seen = ec.epoch();
        ec.ring();
        assert_eq!(ec.epoch(), seen + 1);
        let t0 = Instant::now();
        ec.wait(seen, LONG);
        assert!(t0.elapsed() < LONG / 2);
    }

    #[test]
    fn wait_without_a_ring_times_out() {
        let ec = EventCount::default();
        let t0 = Instant::now();
        ec.wait(ec.epoch(), Duration::from_millis(5));
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!(ec.sleepers.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn ring_with_no_sleeper_takes_no_lock() {
        let ec = EventCount::default();
        // were `ring` to touch the mutex it would block behind this guard
        let held = lock(&ec.lock);
        std::thread::scope(|s| {
            let (tx, rx) = std::sync::mpsc::channel();
            let ec = &ec;
            s.spawn(move || {
                ec.ring();
                tx.send(()).unwrap();
            });
            let rang = rx.recv_timeout(LONG);
            drop(held); // let a blocked ringer finish so the scope can join
            rang.expect("ring blocked on the sleeper lock with nobody asleep");
        });
        assert_eq!(ec.epoch(), 1);
    }

    /// One waiter, one ringer, and the ringer fires the moment the waiter
    /// has read its epoch — i.e. inside the waiter's register-then-recheck
    /// window. Either the ringer sees the registration and notifies under
    /// the lock, or the waiter's recheck sees the ring; a round that sleeps
    /// out its timeout is a lost wake-up.
    #[test]
    fn racing_rings_never_lose_a_wakeup() {
        let rounds: u64 = if cfg!(debug_assertions) {
            20_000
        } else {
            200_000
        };
        let ec = EventCount::default();
        let armed = AtomicU64::new(0); // the round the waiter is about to wait in
        const STOP: u64 = u64::MAX;
        let mut slowest = Duration::ZERO;
        std::thread::scope(|s| {
            s.spawn(|| {
                for round in 1..=rounds {
                    loop {
                        match armed.load(Ordering::Acquire) {
                            r if r == round => break,
                            STOP => return,
                            _ => std::hint::spin_loop(),
                        }
                    }
                    // vary where in the window the ring lands, up to
                    // after the waiter is asleep
                    for _ in 0..(round % 8) * 64 {
                        std::hint::spin_loop();
                    }
                    ec.ring();
                }
            });
            for round in 1..=rounds {
                let seen = ec.epoch();
                armed.store(round, Ordering::Release);
                let t0 = Instant::now();
                ec.wait(seen, LONG);
                slowest = slowest.max(t0.elapsed());
                if slowest >= LONG / 2 {
                    armed.store(STOP, Ordering::Release);
                    break;
                }
                // the ring of this round must have landed before the next
                // epoch is read, or that one would count it
                while ec.epoch() == seen {
                    std::hint::spin_loop();
                }
            }
        });
        assert!(slowest < LONG / 2, "a wait slept {slowest:?}: lost wake-up");
        assert_eq!(ec.epoch(), rounds);
    }

    #[test]
    fn owner_pops_newest_thieves_steal_oldest() {
        let q = StealDeque::with_capacity(4);
        for i in [inst(1, 0), inst(1, 1), inst(2, 0)] {
            q.push(i, E0).unwrap();
        }
        assert_eq!(q.len(), 3);
        // thief side is FIFO: the oldest entry migrates first
        assert_eq!(q.steal(), Steal::Success((inst(1, 0), E0)));
        // owner side is LIFO: the newest (cache-warm) entry runs first
        assert_eq!(q.pop(), Some((inst(2, 0), E0)));
        assert_eq!(q.pop(), Some((inst(1, 1), E0)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.steal(), Steal::Empty);
        assert!(q.is_empty());
    }

    #[test]
    fn epoch_tags_ride_the_steal_path() {
        let q = StealDeque::with_capacity(2);
        q.push(inst(3, 0), Epoch(7)).unwrap();
        q.push(inst(3, 1), Epoch(8)).unwrap();
        assert_eq!(q.steal(), Steal::Success((inst(3, 0), Epoch(7))));
        assert_eq!(q.pop(), Some((inst(3, 1), Epoch(8))));
    }

    #[test]
    fn a_full_ring_hands_the_push_back_and_keeps_its_order() {
        // a ring wrapped past its first lap, then filled: the refused
        // entry comes back and nothing queued moves
        let q = StealDeque::with_capacity(3);
        assert_eq!(q.capacity(), 4);
        for c in 0..6 {
            q.push(inst(1, c), Epoch(c as u64)).unwrap();
            if c < 2 {
                assert!(matches!(q.steal(), Steal::Success(_)));
            }
        }
        assert_eq!(q.len(), 4);
        let extra = (inst(2, 0), Epoch(9));
        assert_eq!(q.push(extra.0, extra.1), Err(extra));
        assert_eq!(q.len(), 4);
        let e = |c: u32| (inst(1, c), Epoch(c as u64));
        assert_eq!(q.steal(), Steal::Success(e(2)));
        assert_eq!(q.pop(), Some(e(5)));
        assert_eq!(q.steal(), Steal::Success(e(3)));
        assert_eq!(q.pop(), Some(e(4)));
        assert_eq!((q.pop(), q.steal()), (None, Steal::Empty));
    }

    #[test]
    fn racing_thieves_claim_each_entry_exactly_once() {
        // two thief threads race the owner popping on a ring that wraps
        // thousands of times: every entry must be claimed exactly once
        // across the three parties
        use std::sync::atomic::{AtomicBool, Ordering as O};
        let n = 10_000u32;
        let q = StealDeque::with_capacity(4);
        let done = AtomicBool::new(false);
        let taken: Mutex<Vec<u32>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    while !done.load(O::Relaxed) {
                        if let Steal::Success((i, _)) = q.steal() {
                            mine.push(i.context.0);
                        }
                    }
                    // final sweep after the owner finishes
                    loop {
                        match q.steal() {
                            Steal::Success((i, _)) => mine.push(i.context.0),
                            Steal::Empty => break,
                            Steal::Retry => {}
                        }
                    }
                    taken.lock().unwrap().extend(mine);
                });
            }
            let mut mine = Vec::new();
            for i in 0..n {
                // the ring wraps: a refused push waits for a take
                while q.push(inst(1, i), E0).is_err() {
                    mine.extend(q.pop().map(|(p, _)| p.context.0));
                }
                if i % 2 == 0 {
                    if let Some((p, _)) = q.pop() {
                        mine.push(p.context.0);
                    }
                }
            }
            while let Some((p, _)) = q.pop() {
                mine.push(p.context.0);
            }
            done.store(true, O::Relaxed);
            taken.lock().unwrap().extend(mine);
        });
        let mut all = taken.into_inner().unwrap();
        assert_eq!(all.len(), n as usize, "lost or duplicated entries");
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n as usize, "duplicate claims");
    }
}
