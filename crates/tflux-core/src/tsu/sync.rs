//! Synchronization Memory: a lock-free ready-count table and the
//! Post-Processing Phase.
//!
//! §3.3/Fig. 4: the Synchronization Memory holds the per-instance *Ready
//! Counts* of the loaded DDM block. The paper's hardware TSU performs
//! ready-count decrements as independent memory-mapped updates with no
//! global lock; this software SM matches that with a dense slab of atomic
//! slots, one per `(ThreadId, Context)` pair, laid out once from the Graph
//! Memory at construction (ThreadIds and arities are static, so each
//! thread gets a fixed base offset into the slab).
//!
//! Each slot carries two words:
//!
//! * an `AtomicU32` **ready count**, decremented with `fetch_sub` during
//!   the Post-Processing Phase — the producer that observes the 1→0
//!   transition (and only that producer) publishes the consumer as ready;
//! * an `AtomicU32` **state word** cycling `Vacant → Resident → Running →
//!   Done → Vacant`, advanced by CAS so dispatch/complete protocol errors
//!   (double dispatch, completion without fetch, non-resident dispatch)
//!   are still caught exactly, without any lock on the hot path.
//!
//! Only the block-transition slow path (Inlet/Outlet completions, already
//! serialized by program structure) takes the `block` mutex.
//!
//! The CAS, the `fetch_sub` and the shared row's `fetch_add` are the
//! [`Shared`] mode's, the one kernel threads share. An
//! [`Owned`](super::Owned) table, which one thread drives, makes the same
//! steps as `Relaxed` loads and stores ([`Access`]): with one thread, each
//! step sees every earlier one by program order, so every rule below
//! holds unchanged.
//!
//! Every counter of the TSU lives in one cache-line-padded row per kernel,
//! written by the kernel *performing* the operation — which is why
//! `dispatch`, `complete` and `complete_batch` take it — with a `Relaxed`
//! load + store: the thread driving a kernel id is the row's only writer,
//! so nothing is lost and no counter costs a locked instruction. The same
//! row carries the scheduler's columns (waits, steals and the packed steal
//! backoff), which [`Tsu`](super::Tsu) writes through
//! [`kernel_row`](SyncMemory::kernel_row) on the same kernel's fetches. A
//! completion's only shared RMWs are then the ones the paper's SM performs:
//! its own state word and its consumers' ready counts. Callers that are no
//! kernel (the constructor arming the first inlet, `open_epoch` from a
//! supervisor) share one extra row and pay a `fetch_add` on it. Readers sum
//! the rows ([`stats`](SyncMemory::stats)) or read one
//! ([`kernel_stats`](SyncMemory::kernel_stats)): monotone while kernels
//! run, exact once they are quiescent. `rc_updates` counts *logical*
//! decrements (`rc_rmws` the combined updates, each one RMW on a shared
//! TSU, which batching makes fewer);
//! `sm_contended` counts weak-CAS retries on state transitions plus
//! cross-kernel ready-count line transfers (a decrement from a producer
//! placed on a different kernel than the slot's previous one).
//!
//! [`complete_batch`](SyncMemory::complete_batch) is the reduction-funnel
//! flush path: a kernel's accumulated App completions arrive as one call
//! and their decrements are combined locally, one `fetch_sub(n)` per
//! slot. There is deliberately no cross-kernel combining structure behind
//! it: every flush already arrives combined, so merging two flushes could
//! save at most one RMW on the sink line and would pay shared-node
//! synchronization to do it. The 1→0 publication rule generalizes to
//! `n→0`: exactly one flusher observes zero and enqueues the consumer.
//!
//! A kernel that dies mid-update (or any unwind out of a mutating
//! section) **poisons** the SM: the `poisoned` flag latches, and every
//! subsequent `dispatch`/`complete`/`complete_batch` fails with
//! [`CoreError::SmPoisoned`] instead of silently trusting half-applied
//! ready counts.
//!
//! # Streaming epochs
//!
//! The slot lifecycle *wraps around*: the table is not consumed by one
//! program pass but re-armed for the next. Each pass is an [`Epoch`]. The
//! state word packs a 30-bit epoch tag above the 2-bit phase, so a `Done`
//! slot of epoch *e* re-arms to `tag(e+1)|Vacant → tag(e+1)|Resident` and a
//! late completion still holding an epoch-*e* token fails its CAS on the
//! tag bits — rejected as [`CoreError::StaleEpoch`] instead of corrupting
//! epoch *e+1*'s ready counts. This extends the 1→0 / n→0 publication
//! ownership to time: exactly one completion wins each slot *per epoch*.
//!
//! Flow control is a credit window ([`SyncMemory::with_window`]):
//! [`open_epoch`](SyncMemory::open_epoch) takes a credit (failing with
//! [`CoreError::WindowExhausted`] when `opened - retired` hits the window)
//! and [`retire_epoch`](SyncMemory::retire_epoch) returns one, oldest
//! epoch first, exactly once. At most one epoch *executes* at a time —
//! epochs are sequential passes of the same graph, the window only bounds
//! how far the feeder may run ahead of the retirement acknowledgments.

use crate::error::CoreError;
use crate::ids::{BlockId, Context, Epoch, Instance, KernelId, ThreadId};
use crate::policy::StealBackoff;
use crate::thread::ThreadKind;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use super::access::{Access, Shared};
use super::config::{TsuStats, WaitingInstance};
use super::gm::{GraphMemory, ProgramHandle};

/// Slot state machine: the lifecycle *phase* of one instance in the SM,
/// stored in the low 2 bits of the state word.
const VACANT: u32 = 0;
/// Resident: its block is loaded; the ready count is live.
const RESIDENT: u32 = 1;
/// Dispatched to a kernel, awaiting `complete`.
const RUNNING: u32 = 2;
/// Completed; stays `Done` until its thread is unloaded.
const DONE: u32 = 3;

/// Low bits of the state word holding the phase.
const PHASE_MASK: u32 = 0b11;
/// Bits of the state word holding the epoch tag (`epoch mod 2^30`).
const TAG_BITS: u32 = 30;
/// Mask for the (unshifted) epoch tag.
const TAG_MASK: u32 = (1 << TAG_BITS) - 1;

/// Pack an epoch tag and a phase into one state word.
#[inline]
const fn word(tag: u32, phase: u32) -> u32 {
    (tag << 2) | phase
}

/// The lifecycle phase of a state word.
#[inline]
const fn phase(word: u32) -> u32 {
    word & PHASE_MASK
}

/// The epoch tag of a state word.
#[inline]
const fn word_tag(word: u32) -> u32 {
    word >> 2
}

/// The 30-bit tag of a full 64-bit epoch id.
#[inline]
const fn tag_of(epoch: u64) -> u32 {
    (epoch as u32) & TAG_MASK
}

/// Sentinel for [`Slot::updater`]: no kernel has decremented this slot's
/// ready count since it became resident.
const NO_UPDATER: u32 = u32::MAX;

/// One entry of the ready-count table.
#[derive(Debug)]
struct Slot {
    /// Remaining producer completions before this instance is ready.
    rc: AtomicU32,
    /// Lifecycle word: `VACANT`/`RESIDENT`/`RUNNING`/`DONE`.
    state: AtomicU32,
    /// The kernel whose update last touched this ready count. A decrement
    /// arriving from a *different* kernel would, on real hardware, pull
    /// the slot's cache line across cores — counted as a contention event
    /// so the measure is deterministic on any host. A statistic, not a
    /// protocol word: read, and stored only when it changes.
    updater: AtomicU32,
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            rc: AtomicU32::new(0),
            state: AtomicU32::new(VACANT),
            updater: AtomicU32::new(NO_UPDATER),
        }
    }
}

/// One writer's counters, on cache lines of their own: the columns of
/// [`TsuStats`] that a kernel's operations move. The table itself is not
/// sharded — a row only says which kernel *performed* the traffic.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(super) struct CounterRow {
    /// Successful dispatches.
    fetches: AtomicU64,
    /// Completions processed.
    completions: AtomicU64,
    /// Logical ready-count decrements (invariant under batching).
    rc_updates: AtomicU64,
    /// Combined ready-count updates (one per flush entry): `fetch_sub`
    /// RMWs on a shared TSU.
    rc_rmws: AtomicU64,
    /// Weak-CAS retries on state transitions plus cross-kernel
    /// ready-count line transfers.
    contended: AtomicU64,
    // the scheduler's columns, moved by `Tsu`'s fetches (see `TsuStats`)
    pub(super) waits: AtomicU64,
    pub(super) steals: AtomicU64,
    pub(super) steal_misses: AtomicU64,
    pub(super) steal_races: AtomicU64,
    pub(super) steal_skips: AtomicU64,
    /// A packed [`StealBackoff`].
    backoff: AtomicU64,
}

impl CounterRow {
    /// Add `n` to a counter of a kernel's own row: its one writer needs no
    /// RMW (see the module docs).
    #[inline]
    pub(super) fn add(&self, counter: impl FnOnce(&Self) -> &AtomicU64, n: u64) {
        let c = counter(self);
        c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    /// Run `f` on this kernel's steal backoff and store the result back.
    pub(super) fn backoff<R>(&self, f: impl FnOnce(&mut StealBackoff) -> R) -> R {
        let mut b = StealBackoff::from_bits(self.backoff.load(Ordering::Relaxed));
        let r = f(&mut b);
        self.backoff.store(b.to_bits(), Ordering::Relaxed);
        r
    }

    /// Add this row's columns onto `s`.
    fn add_to(&self, s: &mut TsuStats) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        s.fetches += load(&self.fetches);
        s.completions += load(&self.completions);
        s.rc_updates += load(&self.rc_updates);
        s.rc_rmws += load(&self.rc_rmws);
        s.sm_contended += load(&self.contended);
        s.waits += load(&self.waits);
        s.steals += load(&self.steals);
        s.steal_misses += load(&self.steal_misses);
        s.steal_races += load(&self.steal_races);
        s.steal_skips += load(&self.steal_skips);
    }
}

/// The counter row an operation writes, resolved once per call.
struct Writer<'a, M> {
    row: &'a CounterRow,
    /// The non-kernel row: any thread may be writing it.
    shared: bool,
    mode: PhantomData<M>,
}

impl<M> Clone for Writer<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Writer<'_, M> {}

impl<M: Access> Writer<'_, M> {
    #[inline]
    fn add(self, counter: impl FnOnce(&CounterRow) -> &AtomicU64, n: u64) {
        if self.shared {
            M::fetch_add(counter(self.row), n, Ordering::Relaxed);
        } else {
            self.row.add(counter, n);
        }
    }
}

/// Block residency bookkeeping — serialized because Inlet/Outlet
/// completions are serialized by the program structure anyway (a block
/// loads only after the previous outlet completed).
#[derive(Debug, Default)]
struct BlockState {
    loaded: Option<BlockId>,
    resident: usize,
    max_resident: usize,
    blocks_loaded: u64,
    /// Epochs credited so far (epoch 0 is implicitly opened at
    /// construction, so a fresh table starts at 1).
    opened: u64,
    /// Epochs whose final outlet has completed.
    completed: u64,
    /// Epochs acknowledged by `retire_epoch` — credits returned to the
    /// window. Always `retired <= completed <= opened`.
    retired: u64,
}

/// Sets the poisoned flag if dropped while armed — armed around every
/// mutating section so an unwind (kernel panic mid-`post_process`,
/// protocol-invariant violation) cannot leave half-applied state that
/// later operations silently trust.
struct PoisonGuard<'a> {
    flag: &'a AtomicBool,
    armed: bool,
}

impl<'a> PoisonGuard<'a> {
    fn arm(flag: &'a AtomicBool) -> Self {
        PoisonGuard { flag, armed: true }
    }

    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.flag.store(true, Ordering::Release);
        }
    }
}

/// The Synchronization Memory for one program execution: a dense slab of
/// atomic ready-count slots indexed by `(ThreadId, Context)`.
///
/// All operations take `&self`: kernels on different threads may call
/// [`dispatch`](Self::dispatch) and [`complete`](Self::complete)
/// concurrently, and App completions never take a lock. The single
/// `block` mutex only guards block transitions. That is the [`Shared`]
/// [access mode](Access), which [`new`](SyncMemory::new) builds; a
/// [`Tsu::new`](super::Tsu::new) holds an [`Owned`](super::Owned) one,
/// which one thread drives.
pub struct SyncMemory<P: ProgramHandle, M: Access = Shared> {
    gm: GraphMemory<P>,
    capacity: usize,
    /// Credit window: maximum `opened - retired` epochs in flight
    /// (`0` = unbounded).
    window: usize,
    /// The epoch currently executing (full 64-bit id; its low 30 bits are
    /// the tag packed into every live state word).
    epoch: AtomicU64,
    /// `base[t]` is the slab offset of `(t, Context(0))`; contexts are
    /// contiguous, so slot lookup is one add and one index.
    base: Vec<u32>,
    slots: Vec<Slot>,
    /// One row per kernel, then the row of callers that are no kernel.
    rows: Vec<CounterRow>,
    finished: AtomicBool,
    poisoned: AtomicBool,
    block: Mutex<BlockState>,
    mode: PhantomData<M>,
}

impl<P: ProgramHandle> SyncMemory<P> {
    /// Create the Synchronization Memory for `program` executed by
    /// `kernels` kernels, and arm it: the first block's inlet is made
    /// resident (but not dispatched). `capacity` bounds resident instances
    /// (`0` = unlimited). The epoch credit window is unbounded — the
    /// one-shot shape; see [`with_window`](Self::with_window) for streams.
    pub fn new(program: P, kernels: u32, capacity: usize) -> Self {
        Self::with_window(program, kernels, capacity, 0)
    }

    /// Like [`new`](Self::new), but bounding in-flight epochs to `window`
    /// credits (`0` = unbounded). The slot layout is computed here, once,
    /// from the Graph Memory — arities are static, so the table never
    /// reallocates, no matter how many epochs stream through it.
    pub fn with_window(program: P, kernels: u32, capacity: usize, window: usize) -> Self {
        Self::build(program, kernels, capacity, window)
    }
}

impl<P: ProgramHandle, M: Access> SyncMemory<P, M> {
    /// [`with_window`](SyncMemory::with_window), in either mode.
    pub(super) fn build(program: P, kernels: u32, capacity: usize, window: usize) -> Self {
        let gm = GraphMemory::new(program, kernels);
        let kernels = gm.kernels(); // clamped to ≥ 1
        let mut base = Vec::with_capacity(gm.program().threads().len());
        let mut next = 0u32;
        for spec in gm.program().threads() {
            base.push(next);
            next += spec.arity;
        }
        let slots = (0..next).map(|_| Slot::default()).collect();
        let sm = SyncMemory {
            gm,
            capacity,
            window,
            epoch: AtomicU64::new(0),
            base,
            slots,
            rows: (0..=kernels).map(|_| CounterRow::default()).collect(),
            finished: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            block: Mutex::new(BlockState {
                // epoch 0 is opened by construction: the armed inlet below
                // is its first instance
                opened: 1,
                ..BlockState::default()
            }),
            mode: PhantomData,
        };
        let mut guard = sm.block.lock().expect("fresh mutex");
        sm.mark_resident(sm.gm.first_inlet().thread, &mut guard);
        drop(guard);
        sm
    }

    /// The Graph Memory view this SM was built against.
    pub fn graph(&self) -> GraphMemory<P> {
        self.gm.clone()
    }

    /// The armed first-block inlet — resident and ready (ready count 0)
    /// from construction, waiting to be dispatched by a scheduler.
    pub fn armed_inlet(&self) -> Instance {
        self.gm.first_inlet()
    }

    /// Whether the last block's outlet has completed.
    pub fn finished(&self) -> bool {
        self.finished.load(Ordering::Acquire)
    }

    /// Whether the SM is poisoned (a kernel died mid-update, or a
    /// protocol invariant was violated mid-flight). Once set, every
    /// `dispatch`/`complete`/`complete_batch` fails with
    /// [`CoreError::SmPoisoned`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Poison the SM explicitly — the runtime calls this when a kernel
    /// unwinds out of a completion, before the kernel thread dies.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    fn check_poisoned(&self) -> Result<(), CoreError> {
        if self.is_poisoned() {
            Err(CoreError::SmPoisoned)
        } else {
            Ok(())
        }
    }

    /// Completions processed so far — the progress probe watchdogs poll.
    pub fn completions(&self) -> u64 {
        self.sum(|r| &r.completions)
    }

    fn sum(&self, counter: impl Fn(&CounterRow) -> &AtomicU64) -> u64 {
        let load = |r| counter(r).load(Ordering::Relaxed);
        self.rows.iter().map(load).sum()
    }

    /// `kernel`'s own counter row, or [`CoreError::UnknownKernel`] for an
    /// id this SM has no row for, which would otherwise put a second writer
    /// on somebody's (the shared last row) or have no queue to serve.
    pub(super) fn kernel_row(&self, kernel: KernelId) -> Result<&CounterRow, CoreError> {
        let kernels = self.gm.kernels();
        if kernel.0 >= kernels {
            return Err(CoreError::UnknownKernel { kernel, kernels });
        }
        Ok(&self.rows[kernel.idx()])
    }

    /// The row `by` writes: [`kernel_row`](Self::kernel_row) for a kernel,
    /// the shared last one for `None`.
    fn writer(&self, by: Option<KernelId>) -> Result<Writer<'_, M>, CoreError> {
        let row = match by {
            Some(kernel) => self.kernel_row(kernel)?,
            None => &self.rows[self.gm.kernels() as usize],
        };
        Ok(Writer {
            row,
            shared: by.is_none(),
            mode: PhantomData,
        })
    }

    #[inline]
    fn slot(&self, i: Instance) -> &Slot {
        &self.slots[self.base[i.thread.idx()] as usize + i.context.idx()]
    }

    /// Advance `inst`'s state word `from → to` by CAS. Spurious weak-CAS
    /// failures retry and are counted as contention on `by`'s row; a
    /// genuine mismatch returns the observed state.
    fn transition(&self, by: Writer<'_, M>, inst: Instance, from: u32, to: u32) -> Result<(), u32> {
        let slot = self.slot(inst);
        loop {
            match M::compare_exchange_weak(
                &slot.state,
                from,
                to,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) if actual == from => by.add(|r| &r.contended, 1),
                Err(actual) => return Err(actual),
            }
        }
    }

    /// Take the block mutex, surfacing OS-level poisoning as
    /// [`CoreError::SmPoisoned`] instead of swallowing it: a thread that
    /// panicked while holding this lock left the residency bookkeeping in
    /// an unknown state.
    fn lock_block(&self) -> Result<MutexGuard<'_, BlockState>, CoreError> {
        match self.block.lock() {
            Ok(g) => Ok(g),
            Err(_) => {
                self.poison();
                Err(CoreError::SmPoisoned)
            }
        }
    }

    /// Forensic view of the block state for stats and stall reports —
    /// never fails, but still latches the poisoned flag so the *next*
    /// operation reports the corruption.
    fn block_forensics(&self) -> MutexGuard<'_, BlockState> {
        self.block.lock().unwrap_or_else(|p: PoisonError<_>| {
            self.poison();
            p.into_inner()
        })
    }

    /// Mark every instance of `t` resident with its initial ready counts,
    /// fresh from Graph Memory, tagged with the current epoch. Caller
    /// holds the block lock (passed as `guard`).
    fn mark_resident(&self, t: ThreadId, guard: &mut MutexGuard<'_, BlockState>) {
        let tag = tag_of(self.epoch.load(Ordering::Relaxed));
        let arity = self.gm.program().thread(t).arity;
        let rcs = self.gm.program().initial_rcs(t);
        for c in 0..arity {
            let slot = self.slot(Instance::new(t, Context(c)));
            debug_assert_eq!(
                phase(slot.state.load(Ordering::Relaxed)),
                VACANT,
                "thread {t} loaded while still resident"
            );
            slot.rc.store(rcs[c as usize], Ordering::Relaxed);
            slot.updater.store(NO_UPDATER, Ordering::Relaxed);
            // Release: a consumer decrementing this rc after seeing the
            // instance resident must see the initial count. The store also
            // overwrites the stale tag a previous epoch left in the word.
            slot.state.store(word(tag, RESIDENT), Ordering::Release);
        }
        guard.resident += arity as usize;
        guard.max_resident = guard.max_resident.max(guard.resident);
    }

    /// Drop every instance of `t` from the SM ("the purpose of the
    /// [Outlet] is to clear the allocated resources").
    fn unload_thread(&self, t: ThreadId, guard: &mut MutexGuard<'_, BlockState>) {
        let tag = tag_of(self.epoch.load(Ordering::Relaxed));
        let arity = self.gm.program().thread(t).arity;
        for c in 0..arity {
            let slot = self.slot(Instance::new(t, Context(c)));
            slot.rc.store(0, Ordering::Relaxed);
            slot.updater.store(NO_UPDATER, Ordering::Relaxed);
            slot.state.store(word(tag, VACANT), Ordering::Release);
        }
        guard.resident -= arity as usize;
    }

    /// Mark `inst` as dispatched to a kernel and return the epoch it runs
    /// in — the token a later [`complete`](Self::complete) must present.
    /// `by` is the kernel whose completion made `inst` ready, `None` for a
    /// caller that is no kernel (see the module docs).
    /// Fails with [`CoreError::NotResident`] if `inst`'s block is not
    /// loaded or the instance already ran (or is running) — a scheduler
    /// bug surfaces here instead of corrupting consumer counts later.
    ///
    /// Only the current epoch ever holds `Resident` slots (an epoch cannot
    /// advance while any of its instances is in flight — the outlet's
    /// ready count sees to that), so the epoch read here always matches
    /// the tag the CAS observed.
    pub fn dispatch(&self, by: Option<KernelId>, inst: Instance) -> Result<Epoch, CoreError> {
        self.check_poisoned()?;
        let by = self.writer(by)?;
        let epoch = self.epoch.load(Ordering::Acquire);
        let tag = tag_of(epoch);
        self.transition(by, inst, word(tag, RESIDENT), word(tag, RUNNING))
            .map_err(|_| CoreError::NotResident(inst))?;
        by.add(|r| &r.fetches, 1);
        Ok(Epoch(epoch))
    }

    /// Classify a failed `Running → Done` CAS: a tag mismatch means the
    /// completion's epoch token is stale (the slot was re-armed for a
    /// later epoch — the exactly-one-winner rule across the wrap-around),
    /// a phase mismatch within the same epoch is the classic
    /// completion-without-dispatch protocol error.
    fn classify(&self, inst: Instance, epoch: Epoch, observed: u32) -> CoreError {
        if word_tag(observed) != tag_of(epoch.0) {
            CoreError::StaleEpoch {
                epoch,
                current: Epoch(self.epoch.load(Ordering::Acquire)),
            }
        } else {
            CoreError::NotRunning(inst)
        }
    }

    /// Load block `b` for its Inlet's completion: make its instances
    /// resident and append the initially-ready ones (ready count 0) to
    /// `out`. The caller has validated capacity, holds the block lock and
    /// has armed a poison guard.
    fn load_block_locked(
        &self,
        b: BlockId,
        out: &mut Vec<Instance>,
        guard: &mut MutexGuard<'_, BlockState>,
    ) {
        guard.blocks_loaded += 1;
        let block = &self.gm.program().blocks()[b.idx()];
        for &t in &block.threads {
            self.mark_resident(t, guard);
            for (c, &rc) in self.gm.program().initial_rcs(t).iter().enumerate() {
                if rc == 0 {
                    out.push(Instance::new(t, Context(c as u32)));
                }
            }
        }
        self.mark_resident(block.outlet, guard);
        guard.loaded = Some(b);
    }

    /// The Post-Processing Phase, performed by `kernel`: record completion
    /// of `inst`, decrement its consumers' ready counts, and append
    /// newly-ready instances to `out` (cleared first).
    ///
    /// Inlet completions load their block (appending every initially-ready
    /// application instance); outlet completions unload the block and
    /// append the next block's inlet, or mark the program finished.
    ///
    /// Inlet completion is transactional: the next block's capacity is
    /// validated *before* anything mutates, so a failing load leaves the
    /// inlet running and every counter untouched — a retried completion
    /// (PR 1's `RetryPolicy`) observes the same state it started from.
    ///
    /// `epoch` is the token the matching [`dispatch`](Self::dispatch)
    /// returned. A completion whose epoch is older than the slot's current
    /// tag is rejected with [`CoreError::StaleEpoch`]: a late duplicate
    /// from a finished pass must not touch a re-armed table.
    pub fn complete(
        &self,
        kernel: KernelId,
        inst: Instance,
        epoch: Epoch,
        out: &mut Vec<Instance>,
    ) -> Result<(), CoreError> {
        out.clear();
        self.check_poisoned()?;
        let by = self.writer(Some(kernel))?;
        let t = inst.thread;
        let tag = tag_of(epoch.0);
        match self.gm.kind(t) {
            ThreadKind::Inlet => {
                let mut guard = self.lock_block()?;
                let b = self.gm.block_of(t);
                let observed = self.slot(inst).state.load(Ordering::Acquire);
                if observed != word(tag, RUNNING) {
                    return Err(self.classify(inst, epoch, observed));
                }
                let instances = self.gm.block_instances(b);
                // `- 1`: the inlet itself unloads as part of this
                // completion, freeing its own entry for the block.
                if self.capacity != 0 && guard.resident - 1 + instances > self.capacity {
                    return Err(CoreError::BlockTooLarge {
                        block: b,
                        instances,
                        capacity: self.capacity,
                    });
                }
                self.transition(by, inst, word(tag, RUNNING), word(tag, DONE))
                    .map_err(|w| self.classify(inst, epoch, w))?;
                by.add(|r| &r.completions, 1);
                let sentinel = PoisonGuard::arm(&self.poisoned);
                self.unload_thread(t, &mut guard);
                self.load_block_locked(b, out, &mut guard);
                sentinel.disarm();
            }
            ThreadKind::Outlet => {
                let mut guard = self.lock_block()?;
                self.transition(by, inst, word(tag, RUNNING), word(tag, DONE))
                    .map_err(|w| self.classify(inst, epoch, w))?;
                by.add(|r| &r.completions, 1);
                let sentinel = PoisonGuard::arm(&self.poisoned);
                let block = self.gm.block_of(t);
                for &at in &self.gm.program().blocks()[block.idx()].threads {
                    self.unload_thread(at, &mut guard);
                }
                self.unload_thread(t, &mut guard);
                guard.loaded = None;
                let next = BlockId(block.0 + 1);
                if next.idx() < self.gm.program().blocks().len() {
                    let inlet = Instance::scalar(self.gm.program().blocks()[next.idx()].inlet);
                    self.mark_resident(inlet.thread, &mut guard);
                    out.push(inlet);
                } else {
                    // the last block's outlet closes one epoch: either a
                    // further epoch was already credited — wrap the table
                    // around and stream on — or the pass drains
                    guard.completed += 1;
                    if guard.completed < guard.opened {
                        self.advance_epoch(&mut guard, out);
                    } else {
                        self.finished.store(true, Ordering::Release);
                    }
                }
                sentinel.disarm();
            }
            ThreadKind::App => {
                // The hot path: no lock anywhere.
                self.transition(by, inst, word(tag, RUNNING), word(tag, DONE))
                    .map_err(|w| self.classify(inst, epoch, w))?;
                by.add(|r| &r.completions, 1);
                let sentinel = PoisonGuard::arm(&self.poisoned);
                self.post_process(by, inst, out);
                sentinel.disarm();
            }
        }
        Ok(())
    }

    /// Re-arm the table for the next epoch: bump the epoch counter, mark
    /// the first block's inlet resident under the *new* tag, and publish
    /// it so the scheduler restarts the dataflow. Caller holds the block
    /// lock; every slot is vacant at this point (the closing outlet just
    /// unloaded the last block).
    fn advance_epoch(&self, guard: &mut MutexGuard<'_, BlockState>, out: &mut Vec<Instance>) {
        debug_assert_eq!(guard.resident, 0, "advance with instances resident");
        let next = self.epoch.load(Ordering::Relaxed) + 1;
        // Release: the re-armed inlet's dispatcher must observe the new
        // epoch id after seeing the inlet published.
        self.epoch.store(next, Ordering::Release);
        let inlet = self.gm.first_inlet();
        self.mark_resident(inlet.thread, guard);
        out.push(inlet);
    }

    /// Credit one more streaming pass. Returns the epoch id the credit
    /// pays for; ids are dense and monotonic, with epoch 0 the implicit
    /// one-shot pass of construction. Fails with
    /// [`CoreError::WindowExhausted`] when the credit window is full — the
    /// feeder must wait for [`retire_epoch`](Self::retire_epoch).
    ///
    /// If the stream had already drained (the last credited epoch
    /// finished and [`finished`](Self::finished) latched), the table
    /// re-arms here and the newly resident first inlet is appended to
    /// `out` — the caller must hand it to its scheduler exactly like an
    /// instance published by a completion. Otherwise the wrap-around
    /// happens on the closing outlet's completion and `out` stays empty.
    pub fn open_epoch(&self, out: &mut Vec<Instance>) -> Result<Epoch, CoreError> {
        out.clear();
        self.check_poisoned()?;
        let mut guard = self.lock_block()?;
        if self.window != 0 && (guard.opened - guard.retired) as usize >= self.window {
            return Err(CoreError::WindowExhausted {
                window: self.window,
            });
        }
        let id = guard.opened;
        guard.opened += 1;
        if self.finished.swap(false, Ordering::AcqRel) {
            let sentinel = PoisonGuard::arm(&self.poisoned);
            self.advance_epoch(&mut guard, out);
            sentinel.disarm();
        }
        Ok(Epoch(id))
    }

    /// Acknowledge a completed epoch and return its credit to the window.
    /// Epochs retire oldest-first and exactly once: a second retirement of
    /// the same epoch loses with [`CoreError::StaleEpoch`] (one winner,
    /// same rule as slot completions), an out-of-order or premature one
    /// with [`CoreError::EpochNotDrained`].
    pub fn retire_epoch(&self, epoch: Epoch) -> Result<(), CoreError> {
        self.check_poisoned()?;
        let mut guard = self.lock_block()?;
        if epoch.0 < guard.retired {
            return Err(CoreError::StaleEpoch {
                epoch,
                current: Epoch(self.epoch.load(Ordering::Acquire)),
            });
        }
        if epoch.0 != guard.retired || epoch.0 >= guard.completed {
            return Err(CoreError::EpochNotDrained(epoch));
        }
        guard.retired += 1;
        Ok(())
    }

    /// The epoch currently executing.
    pub fn current_epoch(&self) -> Epoch {
        Epoch(self.epoch.load(Ordering::Acquire))
    }

    /// The epoch ledger `(opened, completed, retired)` — the streaming
    /// bookkeeping invariant `retired <= completed <= opened` that stress
    /// tests assert between chaos rounds.
    pub fn epoch_ledger(&self) -> (u64, u64, u64) {
        let guard = self.block_forensics();
        (guard.opened, guard.completed, guard.retired)
    }

    fn post_process(&self, by: Writer<'_, M>, inst: Instance, out: &mut Vec<Instance>) {
        let t = inst.thread;
        let pa = self.gm.program().thread(t).arity;
        let updater = self.gm.owner_of(inst);
        // Consumer lists live in Graph Memory; each decrement is one
        // `fetch_sub` on the consumer's slot. The producer that observes
        // the 1→0 edge — exactly one: by atomicity in the shared mode, by
        // program order in the owned one — publishes it.
        for arc in self.gm.consumers(t) {
            let ca = self.gm.program().thread(arc.consumer).arity;
            for c in arc.mapping.consumers(inst.context, pa, ca) {
                let ci = Instance::new(arc.consumer, c);
                if self.apply_rc_sub(by, ci, 1, updater) {
                    out.push(ci);
                }
            }
        }
    }

    /// One combined ready-count update covering `n` logical decrements of
    /// `ci`, counted on `by`'s row: one `fetch_sub` RMW in the shared mode,
    /// a load and a store in the owned one. Returns whether this update
    /// observed the `n→0` edge — exactly one does: in the shared mode by
    /// atomicity of `fetch_sub`, in the owned mode by program order, one
    /// thread making every update — and so owns publishing the consumer;
    /// this generalizes the direct path's 1→0 ownership rule. An update whose `updater` (the
    /// producer's owning kernel) differs from the slot's previous one
    /// counts one contention event: the line would migrate between cores
    /// on real hardware.
    fn apply_rc_sub(&self, by: Writer<'_, M>, ci: Instance, n: u32, updater: KernelId) -> bool {
        by.add(|r| &r.rc_updates, n as u64);
        by.add(|r| &r.rc_rmws, 1);
        let slot = self.slot(ci);
        assert_ne!(
            phase(slot.state.load(Ordering::Acquire)),
            VACANT,
            "consumer {ci:?} not resident"
        );
        let prev_updater = slot.updater.load(Ordering::Relaxed);
        if prev_updater != updater.0 {
            slot.updater.store(updater.0, Ordering::Relaxed);
            if prev_updater != NO_UPDATER {
                by.add(|r| &r.contended, 1);
            }
        }
        let prev = M::fetch_sub(&slot.rc, n, Ordering::AcqRel);
        assert!(prev >= n, "ready count underflow at {ci:?}");
        prev == n
    }

    /// Record a batch of *application* completions performed by `kernel` —
    /// the funnel flush path. The batch's decrements are combined locally
    /// (one entry per consumer slot, so K completions hitting one Reduction
    /// sink become a single `fetch_sub(K)`) and applied to the table in
    /// slot order. The combining happens in `out`, so a flush allocates
    /// nothing once the caller's buffer has grown to its batches.
    ///
    /// Unlike [`complete`](Self::complete), a protocol error inside a
    /// batch (an instance that was never dispatched, a non-App instance)
    /// poisons the SM: earlier instances of the batch have already
    /// retired, so there is no state to roll back to.
    pub fn complete_batch(
        &self,
        kernel: KernelId,
        done: &[Instance],
        epoch: Epoch,
        out: &mut Vec<Instance>,
    ) -> Result<(), CoreError> {
        out.clear();
        self.check_poisoned()?;
        let by = self.writer(Some(kernel))?;
        let Some(&first) = done.first() else {
            return Ok(());
        };
        let tag = tag_of(epoch.0);
        let updater = self.gm.owner_of(first);
        let sentinel = PoisonGuard::arm(&self.poisoned);
        // `out` collects every consumer decrement first, then is
        // compacted in place to the instances published
        for &inst in done {
            assert_eq!(
                self.gm.kind(inst.thread),
                ThreadKind::App,
                "only App completions may be funneled: {inst:?}"
            );
            if let Err(w) = self.transition(by, inst, word(tag, RUNNING), word(tag, DONE)) {
                out.clear();
                return Err(self.classify(inst, epoch, w));
            }
            by.add(|r| &r.completions, 1);
            let pa = self.gm.program().thread(inst.thread).arity;
            for arc in self.gm.consumers(inst.thread) {
                let ca = self.gm.program().thread(arc.consumer).arity;
                out.extend(
                    arc.mapping
                        .consumers(inst.context, pa, ca)
                        .map(|c| Instance::new(arc.consumer, c)),
                );
            }
        }
        out.sort_unstable();
        let (mut run, mut published) = (0, 0);
        while run < out.len() {
            let ci = out[run];
            let n = out[run..].iter().take_while(|&&c| c == ci).count();
            run += n;
            if self.apply_rc_sub(by, ci, n as u32, updater) {
                out[published] = ci;
                published += 1;
            }
        }
        out.truncate(published);
        sentinel.disarm();
        Ok(())
    }

    /// Stall forensics, one pass over the slots: every resident instance
    /// whose ready count is still above zero, and every instance
    /// dispatched to a kernel but not yet completed. Both ordered
    /// thread-major, context-minor. Reached through
    /// [`Tsu::forensics`](super::Tsu::forensics).
    pub(super) fn forensics(&self) -> (Vec<WaitingInstance>, Vec<Instance>) {
        let (mut waiting, mut running) = (Vec::new(), Vec::new());
        for (t, spec) in self.gm.program().threads().iter().enumerate() {
            for c in 0..spec.arity {
                let instance = Instance::new(ThreadId(t as u32), Context(c));
                let slot = self.slot(instance);
                match phase(slot.state.load(Ordering::Acquire)) {
                    RUNNING => running.push(instance),
                    RESIDENT => {
                        let remaining = slot.rc.load(Ordering::Acquire);
                        if remaining > 0 {
                            waiting.push(WaitingInstance {
                                instance,
                                remaining,
                            });
                        }
                    }
                    _ => {}
                }
            }
        }
        (waiting, running)
    }

    /// Aggregate operation counters: every column of every row, plus the
    /// block bookkeeping.
    pub fn stats(&self) -> TsuStats {
        let guard = self.block_forensics();
        let mut s = TsuStats {
            blocks_loaded: guard.blocks_loaded,
            max_resident: guard.max_resident,
            epochs: guard.completed,
            ..TsuStats::default()
        };
        for row in &self.rows {
            row.add_to(&mut s);
        }
        s
    }

    /// The counters of `kernel`'s own row. The block columns
    /// (`blocks_loaded`, `max_resident`, `epochs`) belong to no row and
    /// read 0, as does every column of an id with no row. Over every
    /// kernel's row plus the shared one of callers that are no kernel, the
    /// columns sum to [`stats`](Self::stats).
    pub fn kernel_stats(&self, kernel: KernelId) -> TsuStats {
        let mut s = TsuStats::default();
        if let Ok(row) = self.kernel_row(kernel) {
            row.add_to(&mut s);
        }
        s
    }

    /// The counters of the shared row of callers that are no kernel.
    #[cfg(test)]
    pub(super) fn shared_stats(&self) -> TsuStats {
        let mut s = TsuStats::default();
        self.rows[self.gm.kernels() as usize].add_to(&mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::ArcMapping;
    use crate::program::{DdmProgram, ProgramBuilder};
    use crate::thread::ThreadSpec;

    /// The kernel single-threaded tests perform every operation as.
    const K0: KernelId = KernelId(0);

    fn fork_join() -> DdmProgram {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let src = b.thread(blk, ThreadSpec::scalar("src"));
        let work = b.thread(blk, ThreadSpec::new("work", 4));
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        b.arc(src, work, ArcMapping::Broadcast).unwrap();
        b.arc(work, sink, ArcMapping::Reduction).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn shared_reference_drives_a_full_block() {
        let p = fork_join();
        let sm = SyncMemory::new(&p, 2, 0);
        let sm = &sm; // everything below goes through &SyncMemory
        let mut ready = Vec::new();
        let mut queue = vec![sm.armed_inlet()];
        let mut done = 0usize;
        while let Some(i) = queue.pop() {
            let ep = sm.dispatch(Some(K0), i).unwrap();
            sm.complete(K0, i, ep, &mut ready).unwrap();
            done += 1;
            queue.append(&mut ready);
        }
        assert_eq!(done, p.total_instances());
        assert!(sm.finished());
        let s = sm.stats();
        assert_eq!(s.completions as usize, p.total_instances());
        assert_eq!(s.fetches, s.completions);
        assert_eq!(s.blocks_loaded, 1);
    }

    #[test]
    fn rc_updates_land_on_the_row_of_the_kernel_that_applied_them() {
        // kernel 1 of 2 performs every completion of a program placed by
        // the default affinities: every decrement is counted on row 1,
        // whoever owns the consumer, and kernel 0's row stays untouched
        let p = fork_join();
        let sm = SyncMemory::new(&p, 2, 0);
        let k1 = KernelId(1);
        let mut ready = Vec::new();
        let mut queue = vec![sm.armed_inlet()];
        while let Some(i) = queue.pop() {
            let ep = sm.dispatch(Some(k1), i).unwrap();
            sm.complete(k1, i, ep, &mut ready).unwrap();
            queue.append(&mut ready);
        }
        let (k1, total) = (sm.kernel_stats(k1), sm.stats());
        assert_eq!(sm.kernel_stats(K0), TsuStats::default());
        assert_eq!(k1.rc_updates, total.rc_updates);
        assert_eq!(k1.rc_rmws, total.rc_rmws);
        // src → 4 work, 4 work → sink, and all 6 onto the implicit outlet
        assert_eq!(total.rc_updates, 4 + 4 + 6);
        assert_eq!(total.fetches as usize, p.total_instances());
    }

    #[test]
    fn a_kernel_without_a_row_is_a_typed_error_not_an_alias() {
        let p = fork_join();
        let sm = SyncMemory::new(&p, 2, 0);
        let (inlet, stranger) = (sm.armed_inlet(), KernelId(2));
        let unknown = CoreError::UnknownKernel {
            kernel: stranger,
            kernels: 2,
        };
        let mut out = Vec::new();
        assert_eq!(sm.dispatch(Some(stranger), inlet), Err(unknown.clone()));
        let ep = sm.dispatch(None, inlet).unwrap();
        assert_eq!(
            sm.complete(stranger, inlet, ep, &mut out),
            Err(unknown.clone())
        );
        assert_eq!(
            sm.complete_batch(stranger, &[inlet], ep, &mut out),
            Err(unknown)
        );
        // nothing moved: the one dispatch sits on the non-kernel row, the
        // inlet is still in flight and the table is not poisoned
        assert_eq!((sm.stats().fetches, sm.completions()), (1, 0));
        assert_eq!(sm.shared_stats().fetches, 1);
        for k in [K0, KernelId(1), stranger] {
            assert_eq!(sm.kernel_stats(k), TsuStats::default(), "{k:?}");
        }
        sm.complete(K0, inlet, ep, &mut out).unwrap();
    }

    #[test]
    fn completion_without_dispatch_is_a_protocol_error() {
        let p = fork_join();
        let sm = SyncMemory::new(&p, 1, 0);
        let mut ready = Vec::new();
        let err = sm
            .complete(K0, sm.armed_inlet(), sm.current_epoch(), &mut ready)
            .unwrap_err();
        assert!(matches!(err, CoreError::NotRunning(_)));
    }

    #[test]
    fn dispatch_of_non_resident_instance_is_rejected() {
        let p = fork_join();
        let sm = SyncMemory::new(&p, 1, 0);
        // the block is not loaded yet: dispatching an application instance
        // must fail instead of silently marking it running
        let work = Instance::new(ThreadId(1), Context(0));
        assert_eq!(
            sm.dispatch(Some(K0), work),
            Err(CoreError::NotResident(work))
        );
        // double dispatch of the armed inlet is rejected too
        let inlet = sm.armed_inlet();
        sm.dispatch(Some(K0), inlet).unwrap();
        assert_eq!(
            sm.dispatch(Some(K0), inlet),
            Err(CoreError::NotResident(inlet))
        );
        // only the successful dispatch was counted
        assert_eq!(sm.stats().fetches, 1);
    }

    #[test]
    fn failed_block_load_leaves_inlet_completion_untouched() {
        // fork_join's block needs 7 entries (4+1+1 apps + outlet); with
        // capacity 6 the inlet (1 entry) fits but its block does not. The
        // completion must fail *transactionally*: no counter advanced, the
        // inlet still running, so PR 1's RetryPolicy replay is idempotent.
        let p = fork_join();
        let sm = SyncMemory::new(&p, 1, 6);
        let inlet = sm.armed_inlet();
        let ep = sm.dispatch(Some(K0), inlet).unwrap();
        let mut ready = Vec::new();
        let err = sm.complete(K0, inlet, ep, &mut ready).unwrap_err();
        assert!(matches!(err, CoreError::BlockTooLarge { .. }), "{err:?}");
        // nothing mutated: progress counters untouched, inlet still in
        // flight, no block loaded
        assert_eq!(sm.completions(), 0);
        assert_eq!(sm.forensics().1, vec![inlet]);
        assert_eq!(sm.block_forensics().loaded, None);
        assert_eq!(sm.stats().blocks_loaded, 0);
        // replaying the completion observes the same state and the same
        // error — not a protocol error about a missing instance
        let again = sm.complete(K0, inlet, ep, &mut ready).unwrap_err();
        assert_eq!(err, again);
    }

    #[test]
    fn poisoned_sm_surfaces_from_next_operation() {
        let p = fork_join();
        let sm = SyncMemory::new(&p, 1, 0);
        let inlet = sm.armed_inlet();
        let ep = sm.dispatch(Some(K0), inlet).unwrap();
        // a kernel dies while holding the block mutex: the OS-level poison
        // must latch and surface, not be swallowed by into_inner
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = sm.block.lock().unwrap();
            panic!("kernel death mid-transition");
        }));
        assert!(result.is_err());
        let mut ready = Vec::new();
        assert_eq!(
            sm.complete(K0, inlet, ep, &mut ready),
            Err(CoreError::SmPoisoned)
        );
        assert!(sm.is_poisoned());
        // every subsequent operation keeps failing loudly
        assert_eq!(sm.dispatch(Some(K0), inlet), Err(CoreError::SmPoisoned));
        assert_eq!(
            sm.complete_batch(K0, &[inlet], ep, &mut ready),
            Err(CoreError::SmPoisoned)
        );
        // forensics still work on a poisoned SM
        assert_eq!(sm.forensics().1, vec![inlet]);
    }

    #[test]
    fn protocol_violation_mid_post_process_poisons_the_table() {
        // completing an App instance whose consumer is not resident is a
        // protocol-invariant violation: the panic must leave the SM
        // poisoned so nothing trusts the half-applied decrements
        let p = fork_join();
        let sm = SyncMemory::new(&p, 1, 0);
        let mut ready = Vec::new();
        let inlet = sm.armed_inlet();
        let ep = sm.dispatch(Some(K0), inlet).unwrap();
        sm.complete(K0, inlet, ep, &mut ready).unwrap();
        let src = Instance::new(ThreadId(0), Context(0));
        let ep = sm.dispatch(Some(K0), src).unwrap();
        // fake a corrupted table: vacate the consumer behind the SM's back
        let work0 = Instance::new(ThreadId(1), Context(0));
        sm.slot(work0).state.store(VACANT, Ordering::Release);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = Vec::new();
            let _ = sm.complete(K0, src, ep, &mut out);
        }));
        assert!(result.is_err(), "vacant consumer must still panic");
        assert!(sm.is_poisoned());
        assert_eq!(sm.dispatch(Some(K0), work0), Err(CoreError::SmPoisoned));
    }

    #[test]
    fn concurrent_completions_from_many_threads_are_exact() {
        // a wide fan-in: many producers all decrementing one consumer's
        // ready count from different threads; the count must come out exact
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let work = b.thread(blk, ThreadSpec::new("w", 64));
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        b.arc(work, sink, ArcMapping::Reduction).unwrap();
        let p = b.build().unwrap();

        let sm = SyncMemory::new(&p, 4, 0);
        let mut ready = Vec::new();
        let inlet = sm.armed_inlet();
        let ep = sm.dispatch(Some(K0), inlet).unwrap();
        sm.complete(K0, inlet, ep, &mut ready).unwrap();
        assert_eq!(ready.len(), 64);

        let newly: Mutex<Vec<Instance>> = Mutex::new(Vec::new());
        let (sm, newly_ref) = (&sm, &newly);
        std::thread::scope(|s| {
            for (k, chunk) in ready.chunks(16).enumerate() {
                s.spawn(move || {
                    let k = KernelId(k as u32);
                    let mut local = Vec::new();
                    for &i in chunk {
                        let ep = sm.dispatch(Some(k), i).unwrap();
                        sm.complete(k, i, ep, &mut local).unwrap();
                        newly_ref.lock().unwrap().extend(local.drain(..));
                    }
                });
            }
        });
        let newly = newly.into_inner().unwrap();
        // exactly one instance (the sink) became ready, exactly once
        assert_eq!(newly, vec![Instance::scalar(sink)]);
        // 64 reduction decrements on the sink + 64 implicit All decrements
        // on the outlet (the sink itself never completes in this test),
        // a quarter of them on each kernel's single-writer row
        assert_eq!(sm.stats().rc_updates, 64 + 64);
        for k in 0..4 {
            assert_eq!(sm.kernel_stats(KernelId(k)).rc_updates, 16 + 16);
        }
        assert_eq!(sm.completions(), 1 + 64);
    }

    /// Wide reduction used by the funnel tests: `work[arity] -> sink`.
    fn wide_reduction(arity: u32) -> DdmProgram {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let work = b.thread(blk, ThreadSpec::new("w", arity));
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        b.arc(work, sink, ArcMapping::Reduction).unwrap();
        b.build().unwrap()
    }

    /// Load the first block and dispatch every initially-ready instance.
    fn armed_block(sm: &SyncMemory<&DdmProgram>) -> Vec<Instance> {
        let mut ready = Vec::new();
        let inlet = sm.armed_inlet();
        let ep = sm.dispatch(Some(K0), inlet).unwrap();
        sm.complete(K0, inlet, ep, &mut ready).unwrap();
        for &i in &ready {
            sm.dispatch(Some(K0), i).unwrap();
        }
        ready
    }

    /// `work[16] -> sink` (Reduction) and `work -> gather[4]` (All): a
    /// flush decrements five consumer slots, each several times.
    fn reduction_and_all_set() -> DdmProgram {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let work = b.thread(blk, ThreadSpec::new("w", 16));
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        let gather = b.thread(blk, ThreadSpec::new("gather", 4));
        b.arc(work, sink, ArcMapping::Reduction).unwrap();
        b.arc(work, gather, ArcMapping::All).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn batched_completion_matches_direct_path() {
        // (program, slots each work completion decrements: its consumers
        // plus the implicit outlet)
        for (p, slots) in [(wide_reduction(16), 2u64), (reduction_and_all_set(), 6)] {
            let (direct, batched) = (SyncMemory::new(&p, 2, 0), SyncMemory::new(&p, 2, 0));
            let work = armed_block(&direct);
            assert_eq!(work, armed_block(&batched));
            let ep = direct.current_epoch();
            let (mut direct_ready, mut batched_ready) = (Vec::new(), Vec::new());
            let mut scratch = Vec::new();
            // direct: one decrement per completion; batched: the same 16
            // completions in two flushes of 8
            for half in work.chunks(8) {
                for &i in half {
                    direct.complete(K0, i, ep, &mut scratch).unwrap();
                    direct_ready.extend_from_slice(&scratch);
                }
                batched.complete_batch(K0, half, ep, &mut scratch).unwrap();
                batched_ready.extend_from_slice(&scratch);
                // the same ready count left on every consumer slot
                assert_eq!(direct.forensics(), batched.forensics());
            }

            // same consumers published in the same order, same logical
            // decrements (conservation)...
            assert_eq!(direct_ready.len() as u64, slots - 1);
            assert_eq!(direct_ready, batched_ready);
            let (d, b) = (direct.stats(), batched.stats());
            assert_eq!(d.rc_updates, b.rc_updates);
            assert_eq!(d.completions, b.completions);
            // ...but far fewer physical RMWs: one per slot per flush
            // against one per slot per completion
            assert_eq!(d.rc_rmws, 16 * slots);
            assert_eq!(b.rc_rmws, 2 * slots);
        }
    }

    #[test]
    fn batch_publishes_the_n_to_zero_edge_exactly_once() {
        let p = wide_reduction(8);
        let sink = ThreadId(1);
        let sm = SyncMemory::new(&p, 2, 0);
        let work = armed_block(&sm);
        let ep = sm.current_epoch();
        let mut out = Vec::new();
        // first 7 as one batch: sink not yet ready
        sm.complete_batch(K0, &work[..7], ep, &mut out).unwrap();
        assert!(out.is_empty(), "{out:?}");
        // the final completion crosses 1→0 and publishes the sink once
        sm.complete_batch(K0, &work[7..], ep, &mut out).unwrap();
        assert_eq!(out, vec![Instance::scalar(sink)]);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let p = wide_reduction(4);
        let sm = SyncMemory::new(&p, 2, 0);
        let mut out = vec![Instance::scalar(ThreadId(0))];
        sm.complete_batch(K0, &[], sm.current_epoch(), &mut out)
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(sm.completions(), 0);
    }

    #[test]
    fn batch_protocol_error_poisons_the_table() {
        // a batch holding a never-dispatched instance cannot roll back the
        // instances that already retired, so it must poison
        let p = wide_reduction(4);
        let sm = SyncMemory::new(&p, 2, 0);
        let work = armed_block(&sm);
        let ep = sm.current_epoch();
        let bogus = Instance::new(ThreadId(0), Context(3));
        let batch = [work[0], work[1], bogus];
        // `bogus` is dispatched... but completed twice within one batch
        sm.complete(K0, bogus, ep, &mut Vec::new()).unwrap();
        let mut out = Vec::new();
        let err = sm.complete_batch(K0, &batch, ep, &mut out).unwrap_err();
        assert_eq!(err, CoreError::NotRunning(bogus));
        assert!(sm.is_poisoned());
        assert_eq!(
            sm.complete_batch(K0, &[work[2]], ep, &mut out),
            Err(CoreError::SmPoisoned)
        );
    }

    #[test]
    fn single_kernel_updates_never_count_as_contended() {
        let p = wide_reduction(32);
        let sm = SyncMemory::new(&p, 1, 0);
        let work = armed_block(&sm);
        let ep = sm.current_epoch();
        let mut scratch = Vec::new();
        for &i in &work {
            sm.complete(K0, i, ep, &mut scratch).unwrap();
        }
        assert_eq!(sm.stats().sm_contended, 0);
    }

    #[test]
    fn cross_kernel_updates_count_line_transfers() {
        // 2 kernels alternate decrements of the same sink slot: every RMW
        // after the first arrives from "the other" kernel, so the line
        // ping-pongs — with 2 kernels the owner split is contexts 0..16
        // on K0 and 16..32 on K1, so the single K0→K1 handover plus the
        // outlet slot's transfer are the deterministic floor
        let p = wide_reduction(32);
        let sm = SyncMemory::new(&p, 2, 0);
        let work = armed_block(&sm);
        let ep = sm.current_epoch();
        let mut scratch = Vec::new();
        // interleave kernels: K0 owns first half, K1 second half
        for pair in work[..16].iter().zip(work[16..].iter()) {
            sm.complete(K0, *pair.0, ep, &mut scratch).unwrap();
            sm.complete(K0, *pair.1, ep, &mut scratch).unwrap();
        }
        let contended = sm.stats().sm_contended;
        // 32 alternating updates on the sink slot → 31 transfers, plus 31
        // on the implicit outlet slot
        assert_eq!(contended, 62);

        // funneled: each kernel flushes its half as one batch → the sink
        // line changes hands once (and the outlet line once)
        let sm2 = SyncMemory::new(&p, 2, 0);
        let work = armed_block(&sm2);
        let ep = sm2.current_epoch();
        sm2.complete_batch(K0, &work[..16], ep, &mut scratch)
            .unwrap();
        sm2.complete_batch(K0, &work[16..], ep, &mut scratch)
            .unwrap();
        assert_eq!(sm2.stats().sm_contended, 2);
    }

    /// Drain the table from `seed` until nothing is ready. Streams across
    /// epoch boundaries: a closing outlet that wraps the table around
    /// publishes the re-armed inlet, which lands back on the queue.
    fn drain_from(sm: &SyncMemory<&DdmProgram>, seed: Vec<Instance>) -> usize {
        let mut ready = Vec::new();
        let mut queue = seed;
        let mut done = 0usize;
        while let Some(i) = queue.pop() {
            let ep = sm.dispatch(Some(K0), i).unwrap();
            sm.complete(K0, i, ep, &mut ready).unwrap();
            done += 1;
            queue.append(&mut ready);
        }
        done
    }

    #[test]
    fn streaming_epochs_rearm_and_replay() {
        let p = fork_join();
        let sm = SyncMemory::new(&p, 2, 0);
        let mut out = Vec::new();
        // credit two more passes up front; epoch 0 is still running, so
        // nothing re-arms yet and the drain streams through all three
        assert_eq!(sm.open_epoch(&mut out).unwrap(), Epoch(1));
        assert!(out.is_empty());
        assert_eq!(sm.open_epoch(&mut out).unwrap(), Epoch(2));
        let done = drain_from(&sm, vec![sm.armed_inlet()]);
        assert_eq!(done, 3 * p.total_instances());
        assert!(sm.finished());
        assert_eq!(sm.current_epoch(), Epoch(2));
        assert_eq!(sm.epoch_ledger(), (3, 3, 0));
        let s = sm.stats();
        assert_eq!(s.epochs, 3);
        assert_eq!(s.completions as usize, 3 * p.total_instances());
        assert_eq!(s.blocks_loaded, 3);
        // a fourth pass after the drain: this open re-arms immediately and
        // hands the caller the resident inlet to schedule
        assert_eq!(sm.open_epoch(&mut out).unwrap(), Epoch(3));
        assert_eq!(out, vec![sm.armed_inlet()]);
        assert!(!sm.finished());
        assert_eq!(drain_from(&sm, out.clone()), p.total_instances());
        assert!(sm.finished());
    }

    #[test]
    fn stale_completion_from_a_finished_epoch_is_rejected() {
        let p = wide_reduction(4);
        let sm = SyncMemory::new(&p, 1, 0);
        let mut out = Vec::new();
        sm.open_epoch(&mut out).unwrap();
        let work = armed_block(&sm);
        let e0 = sm.current_epoch();
        let mut ready = Vec::new();
        let mut queue: Vec<Instance> = Vec::new();
        for &i in &work {
            sm.complete(K0, i, e0, &mut ready).unwrap();
            queue.append(&mut ready);
        }
        // sink, then the outlet whose completion wraps into epoch 1
        while let Some(i) = queue.pop() {
            let ep = sm.dispatch(Some(K0), i).unwrap();
            sm.complete(K0, i, ep, &mut ready).unwrap();
            if sm.current_epoch() != e0 {
                break;
            }
            queue.append(&mut ready);
        }
        assert_eq!(sm.current_epoch(), Epoch(1));
        let inlet = sm.armed_inlet();
        let e1 = sm.dispatch(Some(K0), inlet).unwrap();
        assert_eq!(e1, Epoch(1));
        sm.complete(K0, inlet, e1, &mut ready).unwrap();
        // a late duplicate still holding its epoch-0 token loses on the
        // tag bits — the re-armed slot is untouched
        assert_eq!(
            sm.complete(K0, work[0], e0, &mut ready),
            Err(CoreError::StaleEpoch {
                epoch: Epoch(0),
                current: Epoch(1),
            })
        );
        // a same-epoch protocol error still classifies as NotRunning
        assert_eq!(
            sm.complete(K0, work[0], e1, &mut ready),
            Err(CoreError::NotRunning(work[0]))
        );
        // and the instance runs epoch 1 normally afterwards
        let ep = sm.dispatch(Some(K0), work[0]).unwrap();
        assert_eq!(ep, Epoch(1));
        sm.complete(K0, work[0], ep, &mut ready).unwrap();
    }

    #[test]
    fn credit_window_bounds_in_flight_epochs() {
        let p = fork_join();
        let sm = SyncMemory::with_window(&p, 1, 0, 2);
        let mut out = Vec::new();
        // epoch 0 holds one credit from construction; one more fits
        assert_eq!(sm.open_epoch(&mut out).unwrap(), Epoch(1));
        assert_eq!(
            sm.open_epoch(&mut out),
            Err(CoreError::WindowExhausted { window: 2 })
        );
        // run both epochs and retire the first: a credit frees up
        let done = drain_from(&sm, vec![sm.armed_inlet()]);
        assert_eq!(done, 2 * p.total_instances());
        sm.retire_epoch(Epoch(0)).unwrap();
        assert_eq!(sm.open_epoch(&mut out).unwrap(), Epoch(2));
        assert_eq!(out, vec![sm.armed_inlet()]);
    }

    #[test]
    fn epochs_retire_oldest_first_exactly_once() {
        let p = fork_join();
        let sm = SyncMemory::new(&p, 1, 0);
        let mut out = Vec::new();
        sm.open_epoch(&mut out).unwrap();
        // nothing has completed yet: retiring is premature
        assert_eq!(
            sm.retire_epoch(Epoch(0)),
            Err(CoreError::EpochNotDrained(Epoch(0)))
        );
        drain_from(&sm, vec![sm.armed_inlet()]);
        // out of order: epoch 1 cannot retire before epoch 0
        assert_eq!(
            sm.retire_epoch(Epoch(1)),
            Err(CoreError::EpochNotDrained(Epoch(1)))
        );
        sm.retire_epoch(Epoch(0)).unwrap();
        // exactly one winner: a duplicate retirement is stale
        assert_eq!(
            sm.retire_epoch(Epoch(0)),
            Err(CoreError::StaleEpoch {
                epoch: Epoch(0),
                current: Epoch(1),
            })
        );
        sm.retire_epoch(Epoch(1)).unwrap();
        assert_eq!(sm.epoch_ledger(), (2, 2, 2));
    }
}
