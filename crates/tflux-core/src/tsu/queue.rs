//! The per-kernel Queue Unit — a work-stealing deque — and the one
//! fetch-result vocabulary.
//!
//! §3.3/Fig. 4: each processor gets its own queue of ready DThreads, fed by
//! the Synchronization Memory and drained by the kernel. [`StealDeque`] is
//! that queue: a Chase-Lev deque whose owner pushes and pops at the bottom
//! with plain loads/stores plus fences, while idle kernels *steal* the
//! oldest entry by CAS-ing the top — stealing is a queue-native operation,
//! not a scheduler hack layered on a `VecDeque`. Entries are epoch-tagged
//! `(Instance, Epoch)` pairs so streaming tokens ride the steal path
//! unchanged. The threaded runtime builds its `ReadyQueue` on the same
//! deque (pushes by the unit's own kernel) plus the [`MpmcRing`] inbox
//! (everybody else's); both are a [`QueueUnit`] — the one parameter of the
//! [`Tsu`](super::Tsu) — and neither ever blocks.
//!
//! # Memory ordering
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
//!   value is dropped on the floor.
//! * **growth**: the owner initializes the next rung of a geometric
//!   buffer *ladder* (each rung doubles the capacity), copies
//!   `top..bottom` into it and publishes it with a `Release` store of the
//!   rung index. Retired rungs stay initialized for the deque's lifetime,
//!   so a thief still reading through a stale index touches valid memory
//!   holding entries identical at the indices it may reach — which also
//!   keeps the whole structure free of `unsafe`. ABA cannot occur: `top`
//!   is a monotonic counter that never reuses values, regardless of how
//!   often the rung is swapped.

use crate::ids::{Epoch, Instance, ProgramId, ThreadId};
use std::sync::atomic::{fence, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

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

impl Steal {
    /// The stolen entry, if the attempt succeeded.
    pub fn success(self) -> Option<(Instance, Epoch)> {
        match self {
            Steal::Success(e) => Some(e),
            _ => None,
        }
    }
}

/// What the [`Tsu`](super::Tsu) needs from a per-kernel Queue Unit — the
/// only thing that differs between platforms.
///
/// [`StealDeque`] is the unit of the single-owner device models (the
/// simulated hardware TSU, the Cell PPE, the sequential reference drain);
/// the threaded runtime's `ReadyQueue` is the unit kernel threads and
/// server arenas share. The [`Tsu`](super::Tsu) enqueues only through
/// [`push_run`](Self::push_run), one call per owner's contiguous share of
/// a publication: a block load's share of a thread, or one instance.
pub trait QueueUnit {
    /// Whether a kernel whose steals keep missing gates its victim scans
    /// with [`StealBackoff`](crate::policy::StealBackoff). A polled unit
    /// needs it — nothing else stops an idle device from sweeping empty
    /// siblings on every fetch. A unit whose kernel parks between rescans
    /// must not have it: the timed park already is the pacing, and a skip
    /// window on top of it is a steal blackout.
    const BACKOFF: bool;

    /// An empty unit. `cap` is the program's resident bound — a sizing
    /// hint, not a promise: units start small (the runtime's clamps it to
    /// 1 024 inbox slots) and grow or spill on demand.
    fn new(cap: usize) -> Self;

    /// Enqueue a dispatched instance with its epoch token. `by_owner`
    /// says the calling thread is the one that [`take`](Self::take)s from
    /// this unit, which a concurrent unit may serve without leaving the
    /// kernel; `false` is always correct.
    fn push(&self, inst: Instance, epoch: Epoch, by_owner: bool);

    /// Enqueue a run of dispatched instances, all under `epoch`. To takes
    /// and steals it must be indistinguishable from pushing the entries
    /// one at a time, in order, which is all this default does (the
    /// deque's way); the runtime's unit hands a foreign run over at once
    /// (one inbox reservation, at most one valve lock, one wake-up).
    fn push_run(&self, run: &[Instance], epoch: Epoch, by_owner: bool) {
        for &inst in run {
            self.push(inst, epoch, by_owner);
        }
    }

    /// One non-blocking take by the unit's consumer; `None` when empty.
    fn take(&self) -> Option<(Instance, Epoch)>;

    /// One steal attempt by a foreign kernel.
    fn steal(&self) -> Steal;

    /// Entries currently queued (a racy snapshot under concurrency).
    fn len(&self) -> usize;

    /// Whether the unit is (momentarily) empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl QueueUnit for StealDeque {
    const BACKOFF: bool = true;

    /// The deque grows on demand, so the hint is unused.
    fn new(_cap: usize) -> Self {
        StealDeque::new()
    }

    /// One thread drives every kernel id of a device model, so each push
    /// is an owner-side push whoever it is made for.
    fn push(&self, inst: Instance, epoch: Epoch, _by_owner: bool) {
        StealDeque::push(self, inst, epoch)
    }

    fn take(&self) -> Option<(Instance, Epoch)> {
        self.pop()
    }

    fn steal(&self) -> Steal {
        StealDeque::steal(self)
    }

    fn len(&self) -> usize {
        StealDeque::len(self)
    }
}

/// An `(Instance, Epoch)` entry packed into two per-slot atomics.
///
/// `inst` packs `thread` in the high 32 bits and `context` in the low 32;
/// `epoch` carries the full 64-bit epoch id. The two words are read
/// separately by thieves, and a torn pair (one word old, one new) can only
/// be observed in executions where the claiming CAS fails — the pair is
/// then discarded, so tearing is never visible to a caller.
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

/// A circular power-of-two buffer of slots, indexed by the unbounded
/// `top`/`bottom` counters modulo its capacity.
struct Buffer {
    mask: i64,
    slots: Box<[Slot]>,
}

impl Buffer {
    fn new(cap: usize) -> Buffer {
        let cap = cap.next_power_of_two().max(2);
        Buffer {
            mask: cap as i64 - 1,
            slots: (0..cap)
                .map(|_| Slot {
                    inst: AtomicU64::new(0),
                    epoch: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    #[inline]
    fn cap(&self) -> i64 {
        self.mask + 1
    }

    #[inline]
    fn read(&self, i: i64) -> (u64, u64) {
        let s = &self.slots[(i & self.mask) as usize];
        (
            s.inst.load(Ordering::Relaxed),
            s.epoch.load(Ordering::Relaxed),
        )
    }

    #[inline]
    fn write(&self, i: i64, inst: u64, epoch: u64) {
        let s = &self.slots[(i & self.mask) as usize];
        s.inst.store(inst, Ordering::Relaxed);
        s.epoch.store(epoch, Ordering::Relaxed);
    }
}

/// One kernel's Queue Unit: a Chase-Lev work-stealing deque of epoch-tagged
/// ready instances.
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
/// concurrent owner calls may lose or duplicate entries. The concurrent
/// runtime upholds this by routing every push that is not the owner's own
/// through its inbox ring.
pub struct StealDeque {
    bottom: AtomicI64,
    top: AtomicI64,
    /// Index of the live rung in `ladder`.
    cur: AtomicUsize,
    /// Geometric buffer ladder: rung `i` holds `base << i` slots, where
    /// `base` is rung 0's capacity. Growth initializes the next rung,
    /// copies the live window and publishes the new index; retired rungs
    /// stay initialized for the deque's lifetime so a thief holding a
    /// stale index always reads valid memory.
    ladder: Box<[OnceLock<Buffer>]>,
}

impl Default for StealDeque {
    fn default() -> Self {
        StealDeque::new()
    }
}

impl StealDeque {
    /// An empty deque with the default initial capacity (it grows).
    pub fn new() -> Self {
        StealDeque::with_capacity(64)
    }

    /// An empty deque whose initial buffer holds `cap` entries (rounded up
    /// to a power of two). The buffer doubles when full, so this is a
    /// sizing hint, not a limit.
    pub fn with_capacity(cap: usize) -> Self {
        let base = Buffer::new(cap);
        // enough rungs to double from `base` up to 2^62 entries — far past
        // any reachable occupancy, so growth can never fall off the ladder
        let rungs = 63 - (base.cap() as u64).ilog2() as usize;
        let ladder: Box<[OnceLock<Buffer>]> = (0..rungs).map(|_| OnceLock::new()).collect();
        let _ = ladder[0].set(base);
        StealDeque {
            bottom: AtomicI64::new(0),
            top: AtomicI64::new(0),
            cur: AtomicUsize::new(0),
            ladder,
        }
    }

    #[inline]
    fn rung(&self, i: usize) -> &Buffer {
        self.ladder[i].get().expect("published rung is initialized")
    }

    /// Enqueue a ready instance at the bottom (owner side).
    pub fn push(&self, inst: Instance, epoch: Epoch) {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        let mut buf = self.rung(self.cur.load(Ordering::Relaxed));
        if b - t >= buf.cap() {
            buf = self.grow(t, b);
        }
        buf.write(b, pack(inst), epoch.0);
        fence(Ordering::Release);
        self.bottom.store(b + 1, Ordering::Relaxed);
    }

    /// Climb one rung: initialize the doubled buffer, copy the live
    /// window, publish the new index (owner-only slow path).
    fn grow(&self, t: i64, b: i64) -> &Buffer {
        let cur = self.cur.load(Ordering::Relaxed);
        let old = self.rung(cur);
        let base = self.rung(0).cap() as usize;
        let new = self.ladder[cur + 1].get_or_init(|| Buffer::new(base << (cur + 1)));
        for i in t..b {
            let (x, e) = old.read(i);
            new.write(i, x, e);
        }
        self.cur.store(cur + 1, Ordering::Release);
        new
    }

    /// Dequeue the *newest* entry from the bottom (owner side). On the
    /// last entry the owner races the thieves through the `top` CAS;
    /// losing is a clean `None`, never a double-pop.
    pub fn pop(&self) -> Option<(Instance, Epoch)> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        let buf = self.rung(self.cur.load(Ordering::Relaxed));
        self.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t <= b {
            let (x, e) = buf.read(b);
            if t == b {
                // last entry: claim it against concurrent thieves
                let won = self
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
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
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let buf = self.rung(self.cur.load(Ordering::Acquire));
        let (x, e) = buf.read(t);
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return Steal::Retry;
        }
        Steal::Success((unpack(x), Epoch(e)))
    }

    /// Slots of the live buffer: what the deque holds before it next grows.
    pub fn capacity(&self) -> usize {
        self.rung(self.cur.load(Ordering::Acquire)).cap() as usize
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

/// A bounded lock-free MPMC ring of epoch-tagged instances (Vyukov's
/// sequence-numbered design): the *inbox* the threaded runtime pairs with
/// each kernel's [`StealDeque`].
///
/// Chase-Lev pushes are owner-only, but in the threaded runtime any
/// completing kernel may make an instance ready on *another* kernel's
/// queue. Those foreign pushes — and only those — land here; the owner
/// drains the inbox into its deque when it next pops, and thieves may pop
/// the inbox directly, so work pushed at a kernel that never runs is still
/// stealable.
///
/// Each slot carries a sequence number: a producer reserves a run of
/// slots with one CAS on `tail` and publishes each with `seq = pos + 1`
/// (`Release`), consumers CAS `head` after observing that sequence
/// (`Acquire`) and recycle the slot with `seq = pos + cap`. A run longer
/// than the free slots is cut short — callers keep an overflow valve —
/// and all data lives in atomics, so the ring is exactly as
/// ThreadSanitizer-clean as the deque.
pub struct MpmcRing {
    head: AtomicUsize,
    tail: AtomicUsize,
    mask: usize,
    slots: Box<[RingSlot]>,
}

struct RingSlot {
    seq: AtomicUsize,
    inst: AtomicU64,
    epoch: AtomicU64,
}

impl MpmcRing {
    /// A ring holding up to `cap` entries (rounded up to a power of two).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(2);
        MpmcRing {
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            mask: cap - 1,
            slots: (0..cap)
                .map(|i| RingSlot {
                    seq: AtomicUsize::new(i),
                    inst: AtomicU64::new(0),
                    epoch: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Entries accepted over the ring's lifetime (`tail` never wraps back).
    pub fn pushes(&self) -> usize {
        self.tail.load(Ordering::Relaxed)
    }

    /// Enqueue the longest prefix of `run` the free slots hold, in order,
    /// from any thread: one `tail` CAS reserves the whole prefix. Returns
    /// its length; the caller's overflow path takes the rest.
    ///
    /// A slot at position `p` is free when its sequence reads `p`. Only a
    /// producer that moved `tail` past `p` can make a free slot busy
    /// again, so the prefix found free from `pos` is still free when the
    /// CAS from `pos` succeeds.
    pub fn push_run(&self, run: &[Instance], epoch: Epoch) -> usize {
        if run.is_empty() {
            return 0;
        }
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let seq_at = |k: usize| {
                self.slots[pos.wrapping_add(k) & self.mask]
                    .seq
                    .load(Ordering::Acquire)
            };
            let dif = seq_at(0) as isize - pos as isize;
            if dif < 0 {
                return 0; // full
            }
            if dif > 0 {
                pos = self.tail.load(Ordering::Relaxed);
                continue;
            }
            let free = 1
                + (1..run.len().min(self.capacity()))
                    .take_while(|&k| seq_at(k) == pos.wrapping_add(k))
                    .count();
            match self.tail.compare_exchange_weak(
                pos,
                pos.wrapping_add(free),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    for (k, &inst) in run[..free].iter().enumerate() {
                        let p = pos.wrapping_add(k);
                        let slot = &self.slots[p & self.mask];
                        slot.inst.store(pack(inst), Ordering::Relaxed);
                        slot.epoch.store(epoch.0, Ordering::Relaxed);
                        slot.seq.store(p.wrapping_add(1), Ordering::Release);
                    }
                    return free;
                }
                Err(p) => pos = p,
            }
        }
    }

    /// Dequeue from any thread; `None` when empty.
    pub fn pop(&self) -> Option<(Instance, Epoch)> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos.wrapping_add(1) as isize;
            match dif {
                0 => {
                    match self.head.compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            let x = slot.inst.load(Ordering::Relaxed);
                            let e = slot.epoch.load(Ordering::Relaxed);
                            slot.seq
                                .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                            return Some((unpack(x), Epoch(e)));
                        }
                        Err(p) => pos = p,
                    }
                }
                d if d < 0 => return None, // empty
                _ => pos = self.head.load(Ordering::Relaxed),
            }
        }
    }

    /// Entries currently queued (a racy snapshot under concurrency).
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Relaxed);
        tail.wrapping_sub(head).min(self.capacity())
    }

    /// Whether the ring is (momentarily) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Weighted round-robin service order over admitted programs.
///
/// When one kernel pool serves many co-resident programs (the
/// multi-program server in `tflux-runtime`), fetch attempts must not let
/// one tenant monopolize the pool. The rotor fixes a circular service
/// order over the admitted [`ProgramId`]s and grants each tenant `weight`
/// consecutive turns per round before moving to the next — weight 1 for
/// plain round-robin, higher weights for proportional shares.
///
/// Unlike the queues, the rotor is single-owner: each kernel keeps its
/// own copy of the admitted set and rotates independently, so no lock is
/// taken on the fetch path.
#[derive(Clone, Debug, Default)]
pub struct ServiceRotor {
    /// `(tenant, weight)` in admission order.
    entries: Vec<(ProgramId, u32)>,
    /// Index of the tenant currently being served.
    cursor: usize,
    /// Turns already granted to the current tenant this round.
    served: u32,
}

impl ServiceRotor {
    /// An empty rotor.
    pub fn new() -> Self {
        ServiceRotor::default()
    }

    /// Add a tenant with the given weight (clamped to at least 1).
    /// Re-admitting an id updates its weight instead of duplicating it.
    pub fn admit(&mut self, id: ProgramId, weight: u32) {
        let weight = weight.max(1);
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == id) {
            e.1 = weight;
        } else {
            self.entries.push((id, weight));
        }
    }

    /// Remove a tenant from the rotation. Unknown ids are ignored.
    pub fn evict(&mut self, id: ProgramId) {
        let Some(idx) = self.entries.iter().position(|e| e.0 == id) else {
            return;
        };
        self.entries.remove(idx);
        if idx < self.cursor {
            self.cursor -= 1;
        } else if idx == self.cursor {
            self.served = 0;
        }
        if self.cursor >= self.entries.len() {
            self.cursor = 0;
        }
    }

    /// Whether a tenant is in the rotation.
    pub fn contains(&self, id: ProgramId) -> bool {
        self.entries.iter().any(|e| e.0 == id)
    }

    /// Number of tenants in the rotation.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the rotation is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Grants in one full round: the sum of the weights. The grant
    /// sequence repeats with this period, so *any* window of this many
    /// consecutive [`next`](Self::next) calls names every tenant at least
    /// once, wherever the cursor stands — the sweep length after which a
    /// server may conclude that no tenant has work.
    pub fn round_len(&self) -> usize {
        self.entries.iter().map(|e| e.1 as usize).sum()
    }

    /// The tenant to serve next. Each call grants one turn; a tenant of
    /// weight `w` receives `w` consecutive turns per round.
    #[allow(clippy::should_implement_trait)] // a rotor never ends; `None` means empty now
    pub fn next(&mut self) -> Option<ProgramId> {
        if self.entries.is_empty() {
            return None;
        }
        if self.cursor >= self.entries.len() {
            self.cursor = 0;
            self.served = 0;
        }
        let (id, weight) = self.entries[self.cursor];
        self.served += 1;
        if self.served >= weight {
            self.cursor = (self.cursor + 1) % self.entries.len();
            self.served = 0;
        }
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Context, ThreadId};
    use std::collections::HashSet;
    use std::sync::Mutex;

    fn inst(t: u32, c: u32) -> Instance {
        Instance::new(ThreadId(t), Context(c))
    }

    const E0: Epoch = Epoch(0);

    #[test]
    fn owner_pops_newest_thieves_steal_oldest() {
        let q = StealDeque::new();
        q.push(inst(1, 0), E0);
        q.push(inst(1, 1), E0);
        q.push(inst(2, 0), E0);
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
        let q = StealDeque::new();
        q.push(inst(3, 0), Epoch(7));
        q.push(inst(3, 1), Epoch(8));
        assert_eq!(q.steal(), Steal::Success((inst(3, 0), Epoch(7))));
        assert_eq!(q.pop(), Some((inst(3, 1), Epoch(8))));
    }

    #[test]
    fn growth_preserves_every_entry() {
        // push far past the initial capacity with interleaved steals so
        // the live window straddles several growths
        let q = StealDeque::with_capacity(2);
        let mut expect = HashSet::new();
        for i in 0..500u32 {
            q.push(inst(9, i), Epoch(i as u64));
            expect.insert(i);
            if i % 3 == 0 {
                if let Steal::Success((s, ep)) = q.steal() {
                    assert_eq!(ep.0, s.context.0 as u64, "epoch must ride its entry");
                    assert!(expect.remove(&s.context.0));
                }
            }
        }
        while let Some((s, ep)) = q.pop() {
            assert_eq!(ep.0, s.context.0 as u64);
            assert!(expect.remove(&s.context.0), "duplicate {s}");
        }
        assert!(expect.is_empty(), "lost entries: {expect:?}");
    }

    #[test]
    fn racing_thieves_claim_each_entry_exactly_once() {
        // two thief threads race the owner popping: every entry must be
        // claimed exactly once across the three parties
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
                q.push(inst(1, i), E0);
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

    #[test]
    fn ring_is_fifo_and_bounded() {
        let r = MpmcRing::with_capacity(4);
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.push_run(&[inst(1, 0)], E0), 1);
        assert_eq!(r.push_run(&[inst(1, 1)], Epoch(5)), 1);
        // a run takes the free prefix; a full ring refuses
        let run = [inst(1, 2), inst(1, 3), inst(1, 4)];
        assert_eq!(r.push_run(&run, E0), 2);
        assert_eq!(r.push_run(&run[2..], E0), 0, "full ring must refuse");
        assert_eq!(r.len(), 4);
        assert_eq!(r.pop(), Some((inst(1, 0), E0)));
        assert_eq!(r.pop(), Some((inst(1, 1), Epoch(5))));
        assert_eq!(r.push_run(&run[2..], E0), 1, "slots recycle");
        assert_eq!(r.pop(), Some((inst(1, 2), E0)));
        assert_eq!(r.pop(), Some((inst(1, 3), E0)));
        assert_eq!(r.pop(), Some((inst(1, 4), E0)));
        assert_eq!(r.pop(), None);
        assert!(r.is_empty());
    }

    #[test]
    fn ring_survives_concurrent_producers_and_consumers() {
        let r = MpmcRing::with_capacity(64);
        let n = 4_000u32;
        let got: Mutex<Vec<u32>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for p in 0..2u32 {
                let r = &r;
                s.spawn(move || {
                    // runs of 5, each reserving what is free and retrying
                    // the rest
                    let mine: Vec<_> = (0..n).map(|i| inst(p, i)).collect();
                    for mut run in mine.chunks(5) {
                        while !run.is_empty() {
                            let queued = r.push_run(run, Epoch(p as u64));
                            if queued == 0 {
                                std::thread::yield_now();
                            }
                            run = &run[queued..];
                        }
                    }
                });
            }
            for _ in 0..2 {
                let (r, got) = (&r, &got);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    while mine.len() < n as usize {
                        if let Some((i, ep)) = r.pop() {
                            assert_eq!(ep.0, i.thread.0 as u64, "epoch rides its entry");
                            mine.push(i.thread.0 * n + i.context.0);
                        }
                    }
                    got.lock().unwrap().extend(mine);
                });
            }
        });
        let mut all = got.into_inner().unwrap();
        assert_eq!(all.len(), 2 * n as usize);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 2 * n as usize, "duplicate or lost entries");
    }

    #[test]
    fn rotor_round_robins_equal_weights() {
        let mut r = ServiceRotor::new();
        r.admit(ProgramId(0), 1);
        r.admit(ProgramId(1), 1);
        r.admit(ProgramId(2), 1);
        let turns: Vec<u64> = (0..6).map(|_| r.next().unwrap().0).collect();
        assert_eq!(turns, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn rotor_grants_weighted_shares() {
        let mut r = ServiceRotor::new();
        r.admit(ProgramId(0), 2);
        r.admit(ProgramId(1), 1);
        let turns: Vec<u64> = (0..6).map(|_| r.next().unwrap().0).collect();
        assert_eq!(turns, vec![0, 0, 1, 0, 0, 1]);
    }

    #[test]
    fn rotor_eviction_keeps_rotation_sound() {
        let mut r = ServiceRotor::new();
        for p in 0..3 {
            r.admit(ProgramId(p), 1);
        }
        assert_eq!(r.next(), Some(ProgramId(0)));
        // evict the tenant *before* the cursor and the one *at* it
        r.evict(ProgramId(0));
        r.evict(ProgramId(1));
        assert_eq!(r.len(), 1);
        assert_eq!(r.next(), Some(ProgramId(2)));
        assert_eq!(r.next(), Some(ProgramId(2)));
        r.evict(ProgramId(2));
        assert_eq!(r.next(), None);
        assert!(r.is_empty());
        // evicting an unknown id is a no-op
        r.evict(ProgramId(9));
    }

    #[test]
    fn every_window_of_one_round_names_every_tenant() {
        fn assert_windows_cover(r: &mut ServiceRotor, ids: &[u64]) {
            let n = r.round_len();
            let grants: Vec<u64> = (0..3 * n).map(|_| r.next().unwrap().0).collect();
            for w in grants.windows(n) {
                for id in ids {
                    assert!(w.contains(id), "window {w:?} of {n} grants misses {id}");
                }
            }
        }
        let mut r = ServiceRotor::new();
        r.admit(ProgramId(0), 3);
        r.admit(ProgramId(1), 1);
        assert_eq!(r.round_len(), 4);
        // a window of `len()` grants is too short: the heavy tenant's turn
        // absorbs it whole and the light one goes unnamed
        let short: Vec<u64> = (0..r.len()).map(|_| r.next().unwrap().0).collect();
        assert_eq!(short, vec![0, 0]);
        // the cursor now stands mid-turn (2 of tenant 0's 3 grants spent)
        assert_windows_cover(&mut r, &[0, 1]);
        // admission mid-turn lengthens the round
        r.next();
        r.admit(ProgramId(2), 2);
        assert_eq!(r.round_len(), 6);
        assert_windows_cover(&mut r, &[0, 1, 2]);
        // evicting the tenant under the cursor mid-turn shortens it
        while r.next() != Some(ProgramId(0)) {}
        r.evict(ProgramId(0));
        assert_eq!(r.round_len(), 3);
        assert_windows_cover(&mut r, &[1, 2]);
        // lowering a weight under a mid-turn cursor
        assert_eq!(r.next(), Some(ProgramId(1)));
        assert_eq!(r.next(), Some(ProgramId(2)));
        r.admit(ProgramId(2), 1);
        assert_windows_cover(&mut r, &[1, 2]);
        r.evict(ProgramId(1));
        r.evict(ProgramId(2));
        assert_eq!(r.round_len(), 0);
    }

    #[test]
    fn rotor_readmission_updates_weight() {
        let mut r = ServiceRotor::new();
        r.admit(ProgramId(7), 1);
        r.admit(ProgramId(7), 3);
        assert_eq!(r.len(), 1);
        let turns: Vec<u64> = (0..3).map(|_| r.next().unwrap().0).collect();
        assert_eq!(turns, vec![7, 7, 7]);
        // zero weight clamps to one turn per round
        r.admit(ProgramId(8), 0);
        assert!(r.contains(ProgramId(8)));
    }
}
