//! Multi-tenant program server: many DDM programs sharing one kernel pool,
//! with per-program fault isolation, bounded admission, and overload
//! shedding.
//!
//! The single-program [`Runtime`](crate::Runtime) owns its kernels for the
//! duration of one `run`. A [`ProgramServer`] instead keeps a pool of
//! kernel OS threads alive and lets callers *submit* programs while others
//! drain. Each admitted program (a *tenant*) gets a *private arena* — the
//! one `Runtime::run` builds (`arena.rs`): its own threaded `Tsu`, panic sink,
//! error latch and per-kernel counters — so no scheduling state is shared
//! between programs.
//!
//! **Division of labour.** This file is the arena code's second thin
//! driver. A pool kernel sweeps the resident arenas, giving each one
//! *turn* per sweep: a non-blocking `fetch` + `step` repeated until the
//! tenant has nothing runnable or a weight-`w` tenant has run `w ×`
//! [`TURN`] instances. It completes every DThread it ran, Inlet and
//! Outlet included, on its own thread. One
//! supervisor thread keeps what needs a single owner: admission, stream
//! credits, and per resident one `supervise` (latched error, deadline,
//! finish → report, watchdog) followed by eviction.
//!
//! **Wake-ups.** Kernels and the supervisor park on two instances of one
//! waiter-aware eventcount ([`EventCount`]; a ring is one atomic
//! increment unless somebody sleeps), rung by this table and nothing
//! else; the timed waits are the lost-wakeup backstop and the
//! watchdog/deadline tick:
//!
//! | event | rings |
//! |---|---|
//! | a submission was queued; `poison()`; an error was latched | supervisor |
//! | an Outlet completed (the pass may be over, a credit may have freed) | supervisor |
//! | a completion or `open_epoch` published ≥ 1 ready instance | pool |
//! | a tenant was admitted or evicted; `done` | pool |
//! | shutdown | both |
//!
//! **Fault isolation.** A body panic, a poisoned Synchronization Memory,
//! a TSU protocol error, a per-program deadline, or a watchdog expiry
//! cancels and evicts *only* the affected tenant: kernels stop fetching
//! from it, its in-flight bodies drain (late completions are discarded, never
//! published into the dead arena), and its submitter receives the
//! [`RuntimeError`] through the [`Admission`] handle — while co-resident
//! programs run to correct completion on the same kernels.
//!
//! **Admission control.** The pending queue is bounded
//! ([`ServerConfig::queue_depth`]); at most
//! [`ServerConfig::max_resident`] programs hold arenas at once. When the
//! queue is full, [`Submit::Block`] parks the submitter and
//! [`Submit::Reject`] sheds the load with a structured
//! [`SubmitError::Overloaded`] — never a stall or a panic.
//!
//! One caveat, by design: a kernel wedged *inside* a DThread body (a body
//! that never returns) cannot be reclaimed — eviction stops the tenant's
//! scheduling, not a non-cooperative body. Co-resident tenants keep
//! progressing on the remaining kernels, so pool sizing (`kernels ≥ 2`)
//! bounds the blast radius of a single wedged body.

use crate::arena::{add, Arena, KernelCtx, Watch};
use crate::body::BodyTable;
use crate::faults::FaultPlan;
use crate::kernel::KERNEL_BACKSTOP;
use crate::runtime::{RetryPolicy, RuntimeError};
use crate::stats::TenantReport;
use crate::sync::{lock, wait};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;
use tflux_core::{
    CoreError, DdmProgram, EventCount, FetchResult, Instance, KernelId, ProgramId, Tsu, TsuConfig,
};

/// Instances a weight-1 tenant may run in one turn of a pool kernel; a
/// weight-`w` tenant may run `w × TURN`. The bound is what keeps a tenant
/// with endless work (a long stream) from holding a kernel while its
/// co-residents wait; 16 and 64 measured alike (EXPERIMENTS.md).
pub(crate) const TURN: u32 = 16;

/// Configuration of a [`ProgramServer`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Kernel threads in the shared pool.
    pub kernels: u32,
    /// Programs that may hold arenas concurrently; further admissions wait
    /// in the pending queue.
    pub max_resident: usize,
    /// Bound of the pending admission queue; a full queue blocks or sheds
    /// submitters depending on their [`Submit`] mode.
    pub queue_depth: usize,
    /// TSU capacity, stealing and epoch window of every tenant arena.
    pub tsu: TsuConfig,
    /// Evict a tenant when none of its DThreads completes for this long.
    pub watchdog: Duration,
    /// What pool kernels do with panicking bodies.
    pub retry: RetryPolicy,
}

impl ServerConfig {
    /// Defaults with `kernels` pool threads: 8 resident programs, a
    /// 32-deep admission queue, unlimited TSU capacity, 30 s watchdog, no
    /// panic retry.
    pub fn with_kernels(kernels: u32) -> Self {
        ServerConfig {
            kernels: kernels.max(1),
            max_resident: 8,
            queue_depth: 32,
            tsu: TsuConfig::default(),
            watchdog: Duration::from_secs(30),
            retry: RetryPolicy::default(),
        }
    }

    /// Override the resident-program bound (clamped to ≥ 1).
    pub fn max_resident(mut self, n: usize) -> Self {
        self.max_resident = n.max(1);
        self
    }

    /// Override the pending-queue bound (clamped to ≥ 1).
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = n.max(1);
        self
    }

    /// Override the per-tenant TSU configuration.
    pub fn tsu(mut self, tsu: TsuConfig) -> Self {
        self.tsu = tsu;
        self
    }

    /// Override the per-tenant watchdog interval.
    pub fn watchdog(mut self, watchdog: Duration) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Override the panic retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// What `submit` does when the admission queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Submit {
    /// Park the submitting thread until a queue slot frees up (or the
    /// server shuts down).
    Block,
    /// Shed the load: return [`SubmitError::Overloaded`] immediately.
    Reject,
}

/// Why a submission was not accepted. Shedding is structured and
/// non-destructive: the submission simply never entered the server.
#[derive(Debug)]
pub enum SubmitError {
    /// The admission queue is full and the submitter chose
    /// [`Submit::Reject`].
    Overloaded {
        /// Programs currently holding arenas.
        resident: usize,
        /// Submissions waiting in the pending queue.
        queued: usize,
        /// The configured [`ServerConfig::queue_depth`] bound.
        limit: usize,
    },
    /// The body table does not match the program (same check as the
    /// single-program runtime, made before the submission is queued).
    BodyTableMismatch {
        /// Threads the program declares.
        expected: usize,
        /// Slots the body table holds.
        got: usize,
    },
    /// The server is shutting down and accepts no new programs.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded {
                resident,
                queued,
                limit,
            } => write!(
                f,
                "server overloaded: {resident} resident, {queued}/{limit} queued"
            ),
            SubmitError::BodyTableMismatch { expected, got } => write!(
                f,
                "body table has {got} slots but the program declares {expected} threads"
            ),
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One program offered to a [`ProgramServer`]: the program, its bodies,
/// and per-tenant scheduling/fault knobs.
pub struct Submission {
    program: Arc<DdmProgram>,
    bodies: BodyTable<'static>,
    weight: u32,
    deadline: Option<Duration>,
    faults: FaultPlan,
    epochs: u64,
}

impl Submission {
    /// A submission with weight 1, no deadline, no injected faults, and a
    /// single execution epoch (classic one-shot run).
    ///
    /// Bodies must be `'static` (capture owned state, e.g. `Arc`s): unlike
    /// the scoped single-program runtime, server kernels outlive the
    /// submitting stack frame.
    pub fn new(program: Arc<DdmProgram>, bodies: BodyTable<'static>) -> Self {
        Submission {
            program,
            bodies,
            weight: 1,
            deadline: None,
            faults: FaultPlan::default(),
            epochs: 1,
        }
    }

    /// Make this tenant a long-lived stream: the program graph is replayed
    /// for `epochs` consecutive passes (clamped to ≥ 1) over re-armed
    /// contexts, never re-admitted. The supervisor banks upcoming epochs up
    /// to the arena's credit window ([`TsuConfig::window`]) and retires
    /// drained ones, so at most `window` passes are ever in flight.
    pub fn stream(mut self, epochs: u64) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// Set the fairness weight: a weight-`w` tenant's turn on a pool
    /// kernel runs up to `16 × w` instances (`w` clamped to ≥ 1).
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Set a deadline, measured from admission: a tenant still running
    /// after `deadline` is cancelled and evicted with
    /// [`RuntimeError::Stalled`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Thread a seeded fault plan through this tenant's fault sites only —
    /// co-resident tenants see none of its faults.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }
}

/// Handle returned by a successful submission. Dropping it does not cancel
/// the program; the result is simply discarded on delivery.
pub struct Admission {
    id: ProgramId,
    rx: mpsc::Receiver<Result<TenantReport, RuntimeError>>,
}

impl Admission {
    /// The id the server assigned this program.
    pub fn id(&self) -> ProgramId {
        self.id
    }

    /// Block until the program finishes or is evicted.
    ///
    /// # Panics
    /// If the server's supervisor died without delivering a result — a
    /// server bug, never a consequence of program faults (those are
    /// delivered as `Err`).
    pub fn wait(self) -> Result<TenantReport, RuntimeError> {
        self.rx
            .recv()
            .expect("program server dropped without delivering a result")
    }
}

/// A queued-but-not-yet-admitted submission.
struct Pending {
    id: ProgramId,
    submission: Submission,
    tx: mpsc::Sender<Result<TenantReport, RuntimeError>>,
}

/// One admitted program: a private arena plus its bookkeeping.
struct Tenant {
    id: ProgramId,
    weight: u32,
    /// Total streaming passes this tenant runs (1 = one-shot).
    epochs: u64,
    /// This tenant's whole execution state.
    arena: Arena<Arc<DdmProgram>>,
    bodies: BodyTable<'static>,
    faults: FaultPlan,
    /// The supervisor's deadline and watchdog state; nobody else locks it.
    watch: Mutex<Watch>,
    done: Mutex<Option<mpsc::Sender<Result<TenantReport, RuntimeError>>>>,
}

impl Tenant {
    fn new(p: Pending, cfg: &ServerConfig) -> Self {
        let Pending { id, submission, tx } = p;
        let Submission {
            program,
            bodies,
            weight,
            deadline,
            faults,
            epochs,
        } = submission;
        let soft = Tsu::threaded(program, cfg.kernels, cfg.tsu);
        Tenant {
            id,
            weight,
            epochs,
            arena: Arena::new(soft, cfg.retry),
            bodies,
            faults,
            watch: Mutex::new(Watch::new(cfg.watchdog, deadline, epochs)),
            done: Mutex::new(Some(tx)),
        }
    }
}

/// Read-only counters of a [`ProgramServer`] — the micro layer under a
/// throughput number (see the wake table in the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Programs given an arena so far.
    pub admitted: u64,
    /// Tenants that ran to completion and delivered a [`TenantReport`].
    pub finished: u64,
    /// Tenants removed with an error (fault, deadline, watchdog).
    pub evicted: u64,
    /// Rings of the eventcount the pool kernels park on.
    pub pool_rings: u64,
    /// Rings of the eventcount the supervisor parks on.
    pub supervisor_rings: u64,
    /// Passes the supervisor made over the resident set. Unlike the other
    /// counters this one depends on timing (the timed waits tick it).
    pub supervisor_rounds: u64,
    /// Turns the pool kernels gave tenants (each tried at least one
    /// fetch). Timing-dependent, like `supervisor_rounds`.
    pub turns: u64,
    /// Turns that ran nothing: the tenant had no runnable instance.
    pub empty_turns: u64,
}

/// One pool kernel's turn counters. Written only by that kernel, so an
/// update is a `Relaxed` load + store; one cache line per kernel.
#[derive(Default)]
#[repr(align(64))]
struct PoolSlot {
    turns: AtomicU64,
    empty_turns: AtomicU64,
}

/// State shared by the pool kernels, the supervisor, and submitters.
struct ServerShared {
    config: ServerConfig,
    next_id: AtomicU64,
    /// The resident tenants; only the supervisor adds and removes. Kernels
    /// snapshot it on generation change.
    registry: Mutex<Vec<Arc<Tenant>>>,
    /// Bumped on every admit/evict so kernels re-snapshot the registry.
    generation: AtomicU64,
    pending: Mutex<VecDeque<Pending>>,
    /// Rung when a pending slot frees up (and at shutdown).
    pending_cv: Condvar,
    /// Where idle pool kernels park: rung when ready instances were
    /// published or the resident set changed.
    pool: EventCount,
    /// Where the supervisor parks: rung when there is something to admit,
    /// evict or credit.
    supervisor: EventCount,
    shutdown: AtomicBool,
    /// Set by the supervisor after the last tenant drained; kernels exit.
    done: AtomicBool,
    /// [`ServerStats`] counters the eventcounts do not already hold;
    /// written by the supervisor only.
    admitted: AtomicU64,
    finished: AtomicU64,
    evicted: AtomicU64,
    rounds: AtomicU64,
    /// One per pool kernel, indexed by kernel id.
    slots: Vec<PoolSlot>,
}

/// A shared kernel pool serving many DDM programs with per-program fault
/// isolation. See the module docs for the architecture.
pub struct ProgramServer {
    shared: Arc<ServerShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ProgramServer {
    /// Launch the kernel pool and the supervisor.
    pub fn start(config: ServerConfig) -> Self {
        let config = ServerConfig {
            kernels: config.kernels.max(1),
            max_resident: config.max_resident.max(1),
            queue_depth: config.queue_depth.max(1),
            ..config
        };
        let shared = Arc::new(ServerShared {
            config,
            next_id: AtomicU64::new(0),
            registry: Mutex::new(Vec::new()),
            generation: AtomicU64::new(0),
            pending: Mutex::new(VecDeque::new()),
            pending_cv: Condvar::new(),
            pool: EventCount::default(),
            supervisor: EventCount::default(),
            shutdown: AtomicBool::new(false),
            done: AtomicBool::new(false),
            admitted: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            slots: (0..config.kernels).map(|_| PoolSlot::default()).collect(),
        });
        let mut threads = Vec::with_capacity(config.kernels as usize + 1);
        for k in 0..config.kernels {
            let sh = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                run_pool_kernel(&sh, KernelId(k))
            }));
        }
        let sh = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || run_supervisor(&sh)));
        ProgramServer { shared, threads }
    }

    /// Offer a program. On success the submission is queued (and admitted
    /// by the supervisor as soon as a resident slot frees); the returned
    /// [`Admission`] delivers the result.
    pub fn submit(&self, submission: Submission, mode: Submit) -> Result<Admission, SubmitError> {
        let expected = submission.program.threads().len();
        if submission.bodies.len() != expected {
            return Err(SubmitError::BodyTableMismatch {
                expected,
                got: submission.bodies.len(),
            });
        }
        let mut pending = lock(&self.shared.pending);
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                return Err(SubmitError::ShuttingDown);
            }
            if pending.len() < self.shared.config.queue_depth {
                break;
            }
            match mode {
                Submit::Reject => {
                    return Err(SubmitError::Overloaded {
                        resident: lock(&self.shared.registry).len(),
                        queued: pending.len(),
                        limit: self.shared.config.queue_depth,
                    });
                }
                Submit::Block => {
                    pending = wait(&self.shared.pending_cv, pending);
                }
            }
        }
        let id = ProgramId(self.shared.next_id.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = mpsc::channel();
        pending.push_back(Pending { id, submission, tx });
        drop(pending);
        self.shared.supervisor.ring(); // admission
        Ok(Admission { id, rx })
    }

    /// Programs currently holding arenas.
    pub fn resident(&self) -> usize {
        lock(&self.shared.registry).len()
    }

    /// Submissions waiting in the admission queue.
    pub fn queued(&self) -> usize {
        lock(&self.shared.pending).len()
    }

    /// Snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        let sh = &self.shared;
        let sum = |f: fn(&PoolSlot) -> &AtomicU64| -> u64 {
            sh.slots.iter().map(|s| f(s).load(Ordering::Relaxed)).sum()
        };
        ServerStats {
            admitted: sh.admitted.load(Ordering::Relaxed),
            finished: sh.finished.load(Ordering::Relaxed),
            evicted: sh.evicted.load(Ordering::Relaxed),
            pool_rings: sh.pool.epoch(),
            supervisor_rings: sh.supervisor.epoch(),
            supervisor_rounds: sh.rounds.load(Ordering::Relaxed),
            turns: sum(|s| &s.turns),
            empty_turns: sum(|s| &s.empty_turns),
        }
    }

    /// Poison a resident program's Synchronization Memory, exactly as a
    /// kernel dying mid-update would. The tenant is evicted with
    /// [`RuntimeError::Protocol`]`(`[`CoreError::SmPoisoned`]`)`;
    /// co-resident programs are untouched. Returns `false` if `id` is not
    /// resident (never admitted, already finished, or already evicted).
    pub fn poison(&self, id: ProgramId) -> bool {
        let tenant = lock(&self.shared.registry)
            .iter()
            .find(|t| t.id == id)
            .cloned();
        match tenant {
            Some(t) => {
                t.arena.soft.poison();
                t.arena.latch(CoreError::SmPoisoned);
                self.shared.supervisor.ring();
                true
            }
            None => false,
        }
    }

    /// Stop accepting submissions, drain every queued and resident
    /// program to its result, and join the pool.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.pending_cv.notify_all(); // blocked submitters: ShuttingDown
        self.shared.supervisor.ring();
        self.shared.pool.ring();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ProgramServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Fetch one instance of `tenant` and `step` it, then ring what the step
/// asks for (the wake table in the module docs). Returns whether anything
/// was executed.
fn serve_one(shared: &ServerShared, tenant: &Tenant, ctx: &mut KernelCtx) -> bool {
    let fetched = match tenant.arena.fetch(ctx, &tenant.faults) {
        Ok(FetchResult::Thread(instance, epoch)) => (instance, epoch),
        // Wait: nothing runnable here; Exit: between streamed passes, or
        // the tenant was evicted
        Ok(_) => return false,
        Err(_) => {
            // poisoned arena, latched for the supervisor to evict on; move
            // on to the next tenant — this kernel is fine
            shared.supervisor.ring();
            return false;
        }
    };
    let stepped = tenant
        .arena
        .step(ctx, fetched, &tenant.bodies, &tenant.faults);
    if stepped.ready {
        shared.pool.ring();
    }
    if stepped.outlet || stepped.latched {
        shared.supervisor.ring();
    }
    true
}

/// One pool kernel: sweep the resident arenas, one turn each, parking on
/// the pool eventcount after a sweep in which no tenant had work.
fn run_pool_kernel(shared: &ServerShared, kernel: KernelId) {
    let slot = &shared.slots[kernel.0 as usize];
    let mut snapshot: Vec<Arc<Tenant>> = Vec::new();
    let mut seen_gen = u64::MAX; // force the first snapshot
    let mut cursor = 0usize;
    // one funnel of batch size 1 for all tenants: every completion is
    // published at once
    let mut ctx = KernelCtx::new(kernel, 1);
    loop {
        // read before looking: whatever is published after this rings past it
        let epoch = shared.pool.epoch();
        let gen = shared.generation.load(Ordering::Acquire);
        if gen != seen_gen {
            seen_gen = gen;
            snapshot = lock(&shared.registry).clone();
        }
        if shared.done.load(Ordering::Acquire) {
            break;
        }
        // one sweep gives every resident one turn, in circular order from
        // where the last sweep stopped. A turn ends when its tenant has
        // nothing runnable or its `weight × TURN` budget is spent; every
        // turn fetches at least once, so a sweep that ran nothing proves no
        // tenant had work and the kernel may park. An admission or
        // eviction ends the sweep at once (weights are unbounded, so a
        // turn can be long) and the kernel re-snapshots without parking
        let (mut did_work, mut moved) = (false, false);
        let n = snapshot.len();
        for _ in 0..n {
            let tenant = &snapshot[cursor % n];
            let budget = tenant.weight.saturating_mul(TURN);
            let mut served = 0u32;
            while served < budget {
                if shared.generation.load(Ordering::Acquire) != seen_gen {
                    moved = true;
                    break;
                }
                if !serve_one(shared, tenant, &mut ctx) {
                    break;
                }
                served += 1;
            }
            // a turn cut short before its first fetch is no turn
            if moved && served == 0 {
                break;
            }
            cursor = cursor % n + 1;
            add(&slot.turns, 1);
            add(&slot.empty_turns, u64::from(served == 0));
            did_work |= served > 0;
            if moved {
                break;
            }
        }
        if !did_work && !moved {
            shared.pool.wait(epoch, KERNEL_BACKSTOP);
        }
    }
}

/// Remove an evicted `tenant` (`Arena::supervise` has latched the flag)
/// from the registry and deliver `result` to the submitter.
fn evict_tenant(
    shared: &ServerShared,
    tenant: &Arc<Tenant>,
    result: Result<TenantReport, RuntimeError>,
) {
    // a long-lived stream may hold banked epochs at eviction: retire every
    // fully drained one so the ledger closes before the arena is torn down
    // (epochs cut short mid-pass are abandoned with the arena)
    let _ = tenant.arena.soft.retire_drained();
    lock(&shared.registry).retain(|t| t.id != tenant.id);
    shared.generation.fetch_add(1, Ordering::Release);
    shared.pool.ring();
    let outcome = if result.is_ok() {
        &shared.finished
    } else {
        &shared.evicted
    };
    outcome.fetch_add(1, Ordering::Relaxed);
    if let Some(tx) = lock(&tenant.done).take() {
        let _ = tx.send(result);
    }
}

/// Advance a streaming tenant's epoch ledger: retire what drained, then
/// bank upcoming passes until the stream's total is reached or the credit
/// window pushes back. A re-armed inlet is published straight onto the
/// tenant's ready queues by [`Tsu::open_epoch`]; the return value says
/// whether one was (the pool needs a ring). A protocol error is latched
/// for the tenant's next `supervise`.
fn stream_advance(tenant: &Tenant, scratch: &mut Vec<Instance>) -> bool {
    let soft = &tenant.arena.soft;
    let mut published = false;
    let mut advance = || {
        soft.retire_drained()?;
        while soft.epoch_ledger().0 < tenant.epochs {
            match soft.open_epoch(scratch) {
                Ok(_) => published |= !scratch.is_empty(),
                Err(CoreError::WindowExhausted { .. }) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    };
    if let Err(e) = advance() {
        tenant.arena.latch(e);
    }
    published
}

/// Admit pending submissions while resident slots are free.
fn admit_pending(shared: &ServerShared) {
    let mut scratch: Vec<Instance> = Vec::new();
    loop {
        if lock(&shared.registry).len() >= shared.config.max_resident {
            break;
        }
        let Some(p) = lock(&shared.pending).pop_front() else {
            break;
        };
        // a queue slot freed: wake blocked submitters
        shared.pending_cv.notify_all();
        let tenant = Arc::new(Tenant::new(p, &shared.config));
        // a streaming tenant banks its upcoming epochs (window permitting)
        // right at admission so the closing Outlet of each pass re-arms the
        // next one on the kernel that ran it
        if tenant.epochs > 1 {
            stream_advance(&tenant, &mut scratch);
        }
        lock(&shared.registry).push(tenant);
        shared.generation.fetch_add(1, Ordering::Release);
        shared.admitted.fetch_add(1, Ordering::Relaxed);
        shared.pool.ring();
    }
}

/// One supervisor visit to a resident tenant: keep a stream's pipeline
/// primed — retire passes that fully drained, bank new ones the moment
/// window credits free up — then `Arena::supervise`. `Some` is the result
/// the (already evicted) tenant leaves with.
fn supervise(
    shared: &ServerShared,
    tenant: &Tenant,
    scratch: &mut Vec<Instance>,
) -> Option<Result<TenantReport, RuntimeError>> {
    if tenant.epochs > 1 && stream_advance(tenant, scratch) {
        shared.pool.ring(); // a re-armed inlet is runnable
    }
    let mut watch = lock(&tenant.watch);
    let verdict = tenant.arena.supervise(&mut watch, &tenant.faults)?;
    Some(verdict.map(|()| {
        let report = tenant.arena.report(watch.elapsed());
        TenantReport {
            id: tenant.id,
            executed: report.total_executed(),
            wall: report.wall,
            tsu: report.tsu,
            kernels: report.kernels,
        }
    }))
}

/// The supervisor: admission, stream credits, per-tenant watchdog and
/// deadline, eviction, and result delivery. It completes nothing — block
/// transitions run on the pool kernels.
fn run_supervisor(shared: &ServerShared) {
    let mut scratch: Vec<Instance> = Vec::new();
    loop {
        // read before looking: whatever changes after this rings past it
        let epoch = shared.supervisor.epoch();
        shared.rounds.fetch_add(1, Ordering::Relaxed);
        admit_pending(shared);
        let resident: Vec<Arc<Tenant>> = lock(&shared.registry).clone();
        let mut freed_a_slot = false;
        for tenant in &resident {
            if let Some(result) = supervise(shared, tenant, &mut scratch) {
                evict_tenant(shared, tenant, result);
                freed_a_slot = true;
            }
        }
        if shared.shutdown.load(Ordering::Acquire)
            && lock(&shared.registry).is_empty()
            && lock(&shared.pending).is_empty()
        {
            break;
        }
        // after an eviction go round again to admit into the freed slot;
        // everything else that could need this thread rings
        if !freed_a_slot {
            shared.supervisor.wait(epoch, Duration::from_micros(500));
        }
    }
    shared.done.store(true, Ordering::Release);
    shared.pool.ring();
    shared.pending_cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StallCause;
    use std::sync::atomic::AtomicU64;
    use std::time::Instant;
    use tflux_core::prelude::*;

    fn fork_join(arity: u32) -> (Arc<DdmProgram>, ThreadId, ThreadId) {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let src = b.thread(blk, ThreadSpec::scalar("src"));
        let work = b.thread(blk, ThreadSpec::new("work", arity));
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        b.arc(src, work, ArcMapping::Broadcast).unwrap();
        b.arc(work, sink, ArcMapping::Reduction).unwrap();
        (Arc::new(b.build().unwrap()), work, sink)
    }

    /// A submission whose work thread sums squares into `total`.
    fn sum_of_squares(arity: u32) -> (Submission, Arc<AtomicU64>, usize) {
        let (p, work, sink) = fork_join(arity);
        let partial = Arc::new(crate::shared::SharedVar::<u64>::new(arity));
        let total = Arc::new(AtomicU64::new(0));
        let mut bodies = BodyTable::new(&p);
        {
            let partial = Arc::clone(&partial);
            bodies.set(work, move |c| {
                partial.put(c.context, (c.context.0 as u64).pow(2));
            });
        }
        {
            let total = Arc::clone(&total);
            bodies.set(sink, move |_| {
                total.store(partial.iter().sum(), Ordering::Relaxed);
            });
        }
        let instances = p.total_instances();
        (Submission::new(p, bodies), total, instances)
    }

    fn expected(arity: u64) -> u64 {
        (0..arity).map(|i| i * i).sum()
    }

    #[test]
    fn one_program_round_trips() {
        let server = ProgramServer::start(ServerConfig::with_kernels(2));
        let (sub, total, instances) = sum_of_squares(16);
        let adm = server.submit(sub, Submit::Block).unwrap();
        assert_eq!(adm.id(), ProgramId(0));
        let report = adm.wait().unwrap();
        assert_eq!(report.id, ProgramId(0));
        assert_eq!(report.executed as usize, instances);
        assert_eq!(report.tsu.completions as usize, instances);
        assert_eq!(total.load(Ordering::Relaxed), expected(16));
        server.shutdown();
    }

    #[test]
    fn many_programs_share_the_pool() {
        let server = ProgramServer::start(
            ServerConfig::with_kernels(3)
                .max_resident(4)
                .queue_depth(64),
        );
        let mut waits = Vec::new();
        for i in 0..12u32 {
            let (sub, total, _) = sum_of_squares(4 + i);
            waits.push((server.submit(sub, Submit::Block).unwrap(), total, 4 + i));
        }
        for (adm, total, arity) in waits {
            let report = adm.wait().unwrap();
            assert!(report.executed > 0, "{:?} starved", report.id);
            assert_eq!(total.load(Ordering::Relaxed), expected(arity as u64));
        }
        assert_eq!(server.resident(), 0);
        server.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_structured_error() {
        let server =
            ProgramServer::start(ServerConfig::with_kernels(1).max_resident(1).queue_depth(1));
        // tenant 0 occupies the one resident slot for a while
        let (p, work, _) = fork_join(2);
        let mut bodies = BodyTable::new(&p);
        bodies.set(work, |_| std::thread::sleep(Duration::from_millis(150)));
        let slow = server
            .submit(Submission::new(p, bodies), Submit::Block)
            .unwrap();
        while server.resident() == 0 {
            std::thread::yield_now();
        }
        // tenant 1 fills the queue; tenant 2 must be shed, not stalled
        let (sub1, total1, _) = sum_of_squares(4);
        let queued = server.submit(sub1, Submit::Block).unwrap();
        let (sub2, _, _) = sum_of_squares(4);
        match server.submit(sub2, Submit::Reject) {
            Err(SubmitError::Overloaded {
                queued: q, limit, ..
            }) => {
                assert_eq!(limit, 1);
                assert_eq!(q, 1);
            }
            other => panic!("expected Overloaded, got {:?}", other.map(|a| a.id())),
        }
        slow.wait().unwrap();
        queued.wait().unwrap();
        assert_eq!(total1.load(Ordering::Relaxed), expected(4));
        server.shutdown();
    }

    #[test]
    fn body_table_mismatch_is_rejected_up_front() {
        let server = ProgramServer::start(ServerConfig::with_kernels(1));
        // a table shaped for a 1-thread program (3 slots with inlet+outlet)
        // offered with a fork-join (5 slots): rejected before queueing
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        b.thread(blk, ThreadSpec::scalar("w"));
        let tiny = Arc::new(b.build().unwrap());
        let bodies = BodyTable::new(&tiny);
        let (p, _, _) = fork_join(2);
        match server.submit(Submission::new(p, bodies), Submit::Block) {
            Err(SubmitError::BodyTableMismatch { expected, got }) => {
                assert_eq!(expected, 5);
                assert_eq!(got, 3);
            }
            other => panic!("expected mismatch, got ok={}", other.is_ok()),
        }
        server.shutdown();
    }

    #[test]
    fn body_panic_evicts_only_the_faulty_tenant() {
        let server = ProgramServer::start(ServerConfig::with_kernels(2).max_resident(4));
        let (p, work, _) = fork_join(8);
        let mut bodies = BodyTable::new(&p);
        bodies.set(work, |c| {
            if c.context.0 == 3 {
                panic!("tenant fault");
            }
        });
        let faulty = server
            .submit(Submission::new(p, bodies), Submit::Block)
            .unwrap();
        let (good_sub, total, _) = sum_of_squares(16);
        let good = server.submit(good_sub, Submit::Block).unwrap();
        match faulty.wait() {
            Err(RuntimeError::BodyPanicked { panics }) => {
                assert_eq!(panics.len(), 1);
                assert!(panics[0].message.contains("tenant fault"));
            }
            other => panic!("expected BodyPanicked, got ok={}", other.is_ok()),
        }
        good.wait().unwrap();
        assert_eq!(total.load(Ordering::Relaxed), expected(16));
        server.shutdown();
    }

    #[test]
    fn poisoned_arena_is_isolated_to_its_tenant() {
        let server = ProgramServer::start(ServerConfig::with_kernels(2).max_resident(4));
        // victim: long-running so the poison lands while resident
        let (p, work, _) = fork_join(4);
        let mut bodies = BodyTable::new(&p);
        bodies.set(work, |_| std::thread::sleep(Duration::from_millis(40)));
        let victim = server
            .submit(Submission::new(p, bodies), Submit::Block)
            .unwrap();
        let victim_id = victim.id();
        while server.resident() == 0 {
            std::thread::yield_now();
        }
        let (good_sub, total, _) = sum_of_squares(16);
        let good = server.submit(good_sub, Submit::Block).unwrap();
        assert!(server.poison(victim_id));
        match victim.wait() {
            Err(RuntimeError::Protocol(CoreError::SmPoisoned)) => {}
            other => panic!("expected SmPoisoned, got ok={}", other.is_ok()),
        }
        // the co-resident tenant is bit-correct and saw no poison
        good.wait().unwrap();
        assert_eq!(total.load(Ordering::Relaxed), expected(16));
        assert!(!server.poison(victim_id), "evicted tenant is gone");
        server.shutdown();
    }

    #[test]
    fn deadline_cancels_a_running_tenant() {
        let server = ProgramServer::start(ServerConfig::with_kernels(1).max_resident(2));
        let (p, work, _) = fork_join(64);
        let mut bodies = BodyTable::new(&p);
        // steady progress, but far too slow for the deadline
        bodies.set(work, |_| std::thread::sleep(Duration::from_millis(10)));
        let adm = server
            .submit(
                Submission::new(p, bodies).deadline(Duration::from_millis(60)),
                Submit::Block,
            )
            .unwrap();
        match adm.wait() {
            Err(RuntimeError::Stalled { report }) => {
                assert!(!report.in_flight.is_empty() || !report.waiting.is_empty());
                // the tenant was making progress: nothing blames a watchdog
                assert_eq!(report.cause, StallCause::Deadline);
                assert!(format!("{report}").starts_with("run cancelled: deadline passed"));
            }
            other => panic!("expected Stalled, got ok={}", other.is_ok()),
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_programs() {
        let server =
            ProgramServer::start(ServerConfig::with_kernels(2).max_resident(1).queue_depth(8));
        let mut waits = Vec::new();
        for _ in 0..5 {
            let (sub, total, _) = sum_of_squares(8);
            waits.push((server.submit(sub, Submit::Block).unwrap(), total));
        }
        server.shutdown(); // must drain all five, not abandon them
        for (adm, total) in waits {
            adm.wait().unwrap();
            assert_eq!(total.load(Ordering::Relaxed), expected(8));
        }
    }

    #[test]
    fn streaming_tenant_replays_the_program() {
        let server = ProgramServer::start(ServerConfig::with_kernels(2).tsu(TsuConfig {
            window: 2,
            ..Default::default()
        }));
        let (p, work, _) = fork_join(8);
        let count = Arc::new(AtomicU64::new(0));
        let mut bodies = BodyTable::new(&p);
        {
            let count = Arc::clone(&count);
            bodies.set(work, move |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        let instances = p.total_instances();
        let report = server
            .submit(Submission::new(p, bodies).stream(4), Submit::Block)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(report.executed as usize, 4 * instances);
        assert_eq!(report.tsu.epochs, 4);
        assert_eq!(report.tsu.completions as usize, 4 * instances);
        assert_eq!(count.load(Ordering::Relaxed), 4 * 8);
        server.shutdown();
    }

    #[test]
    fn evicted_stream_drains_and_spares_cotenants() {
        let server = ProgramServer::start(ServerConfig::with_kernels(2).max_resident(2));
        let (p, work, _) = fork_join(4);
        let mut bodies = BodyTable::new(&p);
        bodies.set(work, |_| std::thread::sleep(Duration::from_millis(15)));
        let stream = server
            .submit(
                Submission::new(p, bodies)
                    .stream(1_000)
                    .deadline(Duration::from_millis(80)),
                Submit::Block,
            )
            .unwrap();
        let (good_sub, total, _) = sum_of_squares(16);
        let good = server.submit(good_sub, Submit::Block).unwrap();
        match stream.wait() {
            Err(RuntimeError::Stalled { .. }) => {}
            other => panic!("expected mid-stream eviction, got ok={}", other.is_ok()),
        }
        good.wait().unwrap();
        assert_eq!(total.load(Ordering::Relaxed), expected(16));
        server.shutdown();
    }

    #[test]
    fn idle_pool_kernel_steals_within_the_tenant_arena() {
        // All `work` instances are pinned to kernel 0's queue in the
        // tenant's arena. Kernel 1's turn finds its own queue empty,
        // so the only way it can ever execute anything is to steal inside
        // the arena; the slow bodies guarantee kernel 0 cannot drain the
        // queue alone before kernel 1 sweeps.
        let server = ProgramServer::start(ServerConfig::with_kernels(2));
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let src = b.thread(blk, ThreadSpec::scalar("src"));
        let work = b.thread(
            blk,
            ThreadSpec::new("work", 8).with_affinity(Affinity::Fixed(KernelId(0))),
        );
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        b.arc(src, work, ArcMapping::Broadcast).unwrap();
        b.arc(work, sink, ArcMapping::Reduction).unwrap();
        let p = Arc::new(b.build().unwrap());
        let mut bodies = BodyTable::new(&p);
        bodies.set(work, |_| std::thread::sleep(Duration::from_millis(5)));
        let report = server
            .submit(Submission::new(p, bodies), Submit::Block)
            .unwrap()
            .wait()
            .unwrap();
        assert!(
            report.tsu.steals > 0,
            "expected arena-internal steals, stats: {:?}",
            report.tsu
        );
        assert_eq!(report.executed, 8 + 2 + 2); // work + src/sink + inlet/outlet
        server.shutdown();
    }

    /// A one-way gate a test opens to release bodies parked in `pass`, so
    /// an interleaving is forced rather than slept for.
    #[derive(Default)]
    struct Gate {
        open: Mutex<bool>,
        cv: Condvar,
    }

    impl Gate {
        fn open(&self) {
            *lock(&self.open) = true;
            self.cv.notify_all();
        }

        fn pass(&self) {
            let mut open = lock(&self.open);
            while !*open {
                open = wait(&self.cv, open);
            }
        }
    }

    /// The resident tenant `id`, once the supervisor has admitted it.
    fn resident_tenant(server: &ProgramServer, id: ProgramId) -> Arc<Tenant> {
        loop {
            if let Some(t) = lock(&server.shared.registry).iter().find(|t| t.id == id) {
                return Arc::clone(t);
            }
            std::thread::yield_now();
        }
    }

    /// One `work(arity) → sink` block per entry of `arities`. Each sink
    /// adds its block's sum of squares to that block's total, so `e`
    /// streamed passes leave `e × expected(arity)` there. A `gate` holds
    /// the first block's `work` context 0 until the test opens it.
    fn reductions(
        arities: &[u32],
        gate: Option<Arc<Gate>>,
    ) -> (Arc<DdmProgram>, BodyTable<'static>, Arc<Vec<AtomicU64>>) {
        let mut b = ProgramBuilder::new();
        let mut threads = Vec::new();
        for &arity in arities {
            let blk = b.block();
            let work = b.thread(blk, ThreadSpec::new("work", arity));
            let sink = b.thread(blk, ThreadSpec::scalar("sink"));
            b.arc(work, sink, ArcMapping::Reduction).unwrap();
            threads.push((work, sink));
        }
        let p = Arc::new(b.build().unwrap());
        let totals: Arc<Vec<AtomicU64>> =
            Arc::new(arities.iter().map(|_| AtomicU64::new(0)).collect());
        let mut bodies = BodyTable::new(&p);
        for (blk, (&(work, sink), &arity)) in threads.iter().zip(arities).enumerate() {
            let cells: Arc<Vec<AtomicU64>> =
                Arc::new((0..arity).map(|_| AtomicU64::new(0)).collect());
            let gate = gate.clone().filter(|_| blk == 0);
            {
                let cells = Arc::clone(&cells);
                bodies.set(work, move |c| {
                    if let (Some(gate), 0) = (&gate, c.context.0) {
                        gate.pass();
                    }
                    cells[c.context.0 as usize]
                        .store((c.context.0 as u64).pow(2), Ordering::Relaxed);
                });
            }
            let totals = Arc::clone(&totals);
            bodies.set(sink, move |_| {
                let sum: u64 = cells.iter().map(|c| c.load(Ordering::Relaxed)).sum();
                totals[blk].fetch_add(sum, Ordering::Relaxed);
            });
        }
        (p, bodies, totals)
    }

    /// Run one `reductions` tenant alone on a fresh 2-kernel server and
    /// return its report and the server's counters once it is delivered.
    fn run_alone(arities: &[u32], epochs: u64, window: usize) -> (TenantReport, ServerStats) {
        let server = ProgramServer::start(ServerConfig::with_kernels(2).tsu(TsuConfig {
            window,
            ..Default::default()
        }));
        let (p, bodies, totals) = reductions(arities, None);
        let report = server
            .submit(Submission::new(p, bodies).stream(epochs), Submit::Block)
            .unwrap()
            .wait()
            .unwrap();
        for (total, &arity) in totals.iter().zip(arities) {
            assert_eq!(
                total.load(Ordering::Relaxed),
                epochs * expected(arity as u64)
            );
        }
        // every ring the tenant causes is issued right behind a completion
        // that precedes its delivery, and shutdown (which rings both) has
        // not happened yet
        let stats = server.stats();
        server.shutdown();
        (report, stats)
    }

    #[test]
    fn wake_ups_follow_the_table_exactly() {
        // (arities, epochs, credit window); the windowed stream makes the
        // supervisor bank credits mid-run, the unwindowed one banks all
        // at admission
        let cases: [(&[u32], u64, usize); 4] = [
            (&[64], 1, 0),
            (&[64, 16], 1, 0),
            (&[16], 4, 0),
            (&[16], 4, 2),
        ];
        for (arities, epochs, window) in cases {
            let be = arities.len() as u64 * epochs;
            let instances: u64 = arities.iter().map(|&a| a as u64 + 3).sum();
            for run in 0..2 {
                let (report, stats) = run_alone(arities, epochs, window);
                let case = format!("{arities:?} x{epochs} window {window} run {run}");
                assert_eq!(report.executed, epochs * instances, "{case}");
                assert_eq!(report.tsu.completions, epochs * instances, "{case}");
                // pool: admission, eviction, and per block pass the inlet
                // (loads the block), the last `work` (readies the sink), the
                // sink (readies the outlet) and — unless it is the final one
                // — the outlet (next inlet, or the re-armed first one)
                assert_eq!(stats.pool_rings, 4 * be + 1, "{case}");
                // supervisor: the submission and every outlet
                assert_eq!(stats.supervisor_rings, be + 1, "{case}");
                // the budget any re-pin of the two lines above must stay under
                assert!(stats.pool_rings + stats.supervisor_rings <= 6 * be + 3);
                assert_eq!(
                    (stats.admitted, stats.finished, stats.evicted),
                    (1, 1, 0),
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn a_tenant_draws_every_fault_site() {
        // the sites are bound in the arena code, so a tenant's plan reaches
        // all of them: stalls before its fetches, a delay at each of its
        // block transitions, every Outlet's supervisor ring dropped (the
        // timed wait must notice the end), jitter on the supervisor's visits
        let server = ProgramServer::start(ServerConfig::with_kernels(2));
        let gate = Arc::new(Gate::default());
        let (arities, epochs) = ([8u32, 12], 3u64);
        let (p, bodies, totals) = reductions(&arities, Some(Arc::clone(&gate)));
        let instances = p.total_instances() as u64;
        let tick = Duration::from_micros(10);
        let plan = FaultPlan::new(7)
            .body_delay(1000, tick)
            .kernel_stall(1000, tick)
            .transition_delay(1000, tick)
            .dropped_bell(1000)
            .drain_jitter(1000, tick);
        let adm = server
            .submit(
                Submission::new(p, bodies).stream(epochs).faults(plan),
                Submit::Block,
            )
            .unwrap();
        // the gated body keeps the tenant resident until we hold its arena
        let tenant = resident_tenant(&server, adm.id());
        gate.open();
        adm.wait().unwrap();
        let counts = tenant.faults.counts();
        let transitions = 2 * arities.len() as u64 * epochs;
        assert_eq!(counts.transition_delays, transitions);
        assert_eq!(counts.dropped_bells, transitions / 2, "one per Outlet");
        assert_eq!(counts.body_delays, epochs * instances);
        assert!(counts.kernel_stalls >= epochs * instances, "{counts:?}");
        assert!(counts.drain_jitters > 0, "{counts:?}");
        for (total, &arity) in totals.iter().zip(&arities) {
            assert_eq!(
                total.load(Ordering::Relaxed),
                epochs * expected(arity as u64)
            );
        }
        server.shutdown();
    }

    #[test]
    fn outlet_completion_after_eviction_is_discarded_as_late() {
        // direct transitions under eviction: the deadline evicts the
        // tenant while its Outlet's body is still running on a kernel; when
        // the body returns, the kernel must drop the completion instead of
        // unloading a block of the dead arena
        let server = ProgramServer::start(ServerConfig::with_kernels(2).max_resident(2));
        let (p, mut bodies, _) = reductions(&[4], None);
        let gate = Arc::new(Gate::default());
        {
            let gate = Arc::clone(&gate);
            bodies.set(p.blocks()[0].outlet, move |_| gate.pass());
        }
        let instances = p.total_instances() as u64;
        let victim = server
            .submit(
                Submission::new(p, bodies).deadline(Duration::from_millis(30)),
                Submit::Block,
            )
            .unwrap();
        let tenant = resident_tenant(&server, victim.id());
        let (good_sub, total, _) = sum_of_squares(16);
        let good = server.submit(good_sub, Submit::Block).unwrap();
        let verdict = victim.wait();
        good.wait().unwrap();
        // only now does the Outlet's body return (before any assertion, so
        // a failure reports instead of leaving a kernel blocked)
        gate.open();
        let t0 = Instant::now();
        while tenant.arena.late() == 0 && t0.elapsed() < Duration::from_secs(10) {
            std::thread::yield_now();
        }
        match verdict {
            Err(RuntimeError::Stalled { report }) => {
                let outlet = tenant.arena.soft.program().blocks()[0].outlet;
                assert!(report.in_flight.iter().any(|f| f.instance.thread == outlet));
            }
            other => panic!("expected deadline eviction, got ok={}", other.is_ok()),
        }
        assert_eq!(total.load(Ordering::Relaxed), expected(16));
        assert_eq!(tenant.arena.late(), 1);
        let executed = tenant.arena.report(Duration::ZERO).total_executed();
        assert_eq!(executed, instances);
        // the arena never saw the Outlet complete: the pass is not over
        assert_eq!(tenant.arena.soft.completions(), instances - 1);
        assert!(!tenant.arena.soft.finished());
        assert_eq!(server.stats().evicted, 1);
        server.shutdown();
    }

    #[test]
    fn light_tenant_is_served_while_a_heavy_one_has_nothing_runnable() {
        // Tenant A (weight 3) has one instance, blocked in its body on one
        // kernel, and nothing else runnable. Tenant B (weight 1) is a long
        // stream the *other* kernel must run alone. A sweep of `len()`
        // grants goes [A, A], [A, B], [A, A], … — every other sweep finds
        // no work and parks for the full 1 ms backstop, since nobody is
        // left to ring. A sweep of one rotor round always reaches B.
        let server = ProgramServer::start(ServerConfig::with_kernels(2).max_resident(2));
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let w = b.thread(blk, ThreadSpec::scalar("blocked"));
        let pa = Arc::new(b.build().unwrap());
        let gate = Arc::new(Gate::default());
        let (entered_tx, entered_rx) = mpsc::channel();
        let mut bodies = BodyTable::new(&pa);
        {
            let gate = Arc::clone(&gate);
            let entered_tx = Mutex::new(entered_tx);
            bodies.set(w, move |_| {
                lock(&entered_tx).send(()).unwrap();
                gate.pass();
            });
        }
        let heavy = server
            .submit(Submission::new(pa, bodies).weight(3), Submit::Block)
            .unwrap();
        entered_rx.recv().unwrap();
        // B: 300 passes × (inlet, work, sink, outlet), each a dependent hop
        let passes = 300u64;
        let (pb, bodies, totals) = reductions(&[1], None);
        let t0 = Instant::now();
        let report = server
            .submit(Submission::new(pb, bodies).stream(passes), Submit::Block)
            .unwrap()
            .wait()
            .unwrap();
        let took = t0.elapsed();
        // release A before asserting, so a failure reports instead of
        // leaving a kernel blocked under the server's drop
        gate.open();
        heavy.wait().unwrap();
        server.shutdown();
        assert_eq!(report.executed, 4 * passes);
        assert_eq!(totals[0].load(Ordering::Relaxed), 0, "0² per pass");
        // parking every other sweep costs ≥ 1 ms per two instances, i.e.
        // ≥ 600 ms here; served without parks it is a few milliseconds
        assert!(
            took < Duration::from_millis(300),
            "{} dependent instances took {took:?}: the kernel parked past runnable work",
            4 * passes
        );
    }

    #[test]
    fn a_huge_weight_does_not_hide_the_next_admission() {
        // a sweep is Σ weights grants long; when the heavy tenant is
        // evicted mid-sweep the kernels must re-snapshot at once, not spend
        // the remaining ≈ 4 · 10⁹ grants on a tenant that is gone
        let server = ProgramServer::start(ServerConfig::with_kernels(2));
        let (heavy, heavy_total, _) = sum_of_squares(8);
        let heavy = server.submit(heavy.weight(u32::MAX), Submit::Block);
        heavy.unwrap().wait().unwrap();
        let t0 = Instant::now();
        let (next, next_total, _) = sum_of_squares(8);
        server.submit(next, Submit::Block).unwrap().wait().unwrap();
        let took = t0.elapsed();
        server.shutdown();
        assert_eq!(heavy_total.load(Ordering::Relaxed), expected(8));
        assert_eq!(next_total.load(Ordering::Relaxed), expected(8));
        assert!(
            took < Duration::from_secs(1),
            "the next program waited {took:?} behind an evicted tenant's grants"
        );
    }

    #[test]
    fn a_turn_is_bounded_by_weight_times_turn() {
        // One kernel, two tenants of weights 1 and 3, each a wide block
        // whose bodies log the tenant's index. While both have runnable
        // work, the kernel alternates one turn each: no run of a tenant in
        // the log is longer than its `weight × TURN` budget, and every
        // window of the two budgets plus one names both.
        const WEIGHTS: [u32; 2] = [1, 3];
        let server = ProgramServer::start(ServerConfig::with_kernels(1));
        let log = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new(Gate::default());
        let (entered_tx, entered_rx) = mpsc::channel();
        let entered_tx = Arc::new(Mutex::new(Some(entered_tx)));
        let mut waits = Vec::new();
        for (tenant, weight) in WEIGHTS.into_iter().enumerate() {
            let mut b = ProgramBuilder::new();
            let blk = b.block();
            let work = b.thread(blk, ThreadSpec::new("work", 256));
            let p = Arc::new(b.build().unwrap());
            let mut bodies = BodyTable::new(&p);
            let (log, gate, entered_tx) =
                (Arc::clone(&log), Arc::clone(&gate), Arc::clone(&entered_tx));
            bodies.set(work, move |_| {
                // the first body holds the only kernel until both are resident
                if let Some(tx) = lock(&entered_tx).take() {
                    tx.send(()).unwrap();
                    gate.pass();
                }
                lock(&log).push(tenant);
            });
            let sub = Submission::new(p, bodies).weight(weight);
            waits.push(server.submit(sub, Submit::Block).unwrap());
            if tenant == 0 {
                entered_rx.recv().unwrap();
            }
        }
        // `admitted` counts after the generation bump the kernel checks
        while server.stats().admitted < 2 {
            std::thread::yield_now();
        }
        gate.open();
        for adm in waits {
            adm.wait().unwrap();
        }
        let stats = server.stats();
        server.shutdown();
        let log = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
        assert_eq!(log.len(), 2 * 256);
        assert!(stats.turns > stats.empty_turns, "{stats:?}");
        // the prefix in which both tenants still had work to log
        let last = |t: usize| log.iter().rposition(|&x| x == t).unwrap();
        let both = &log[..last(0).min(last(1)) + 1];
        // the longest run of each tenant is exactly its budget: a turn
        // never overruns it, and a tenant with work uses all of it
        for (tenant, weight) in WEIGHTS.into_iter().enumerate() {
            let longest = both
                .chunk_by(|a, b| a == b)
                .filter(|run| run[0] == tenant)
                .map(<[usize]>::len)
                .max();
            let budget = (weight * TURN) as usize;
            assert_eq!(longest, Some(budget), "tenant {tenant}: {log:?}");
        }
        let window = ((WEIGHTS[0] + WEIGHTS[1]) * TURN) as usize + 1;
        assert!(
            both.len() > window,
            "the tenants never shared the kernel: {log:?}"
        );
        for w in both.windows(window) {
            assert!(
                w.contains(&0) && w.contains(&1),
                "a window misses a tenant: {log:?}"
            );
        }
    }

    #[test]
    fn weighted_tenants_all_finish() {
        let server = ProgramServer::start(ServerConfig::with_kernels(2).max_resident(6));
        let mut waits = Vec::new();
        for i in 0..6u32 {
            let (sub, total, _) = sum_of_squares(8);
            waits.push((
                server.submit(sub.weight(1 + i % 3), Submit::Block).unwrap(),
                total,
            ));
        }
        for (adm, total) in waits {
            let report = adm.wait().unwrap();
            assert!(report.executed > 0);
            assert_eq!(total.load(Ordering::Relaxed), expected(8));
        }
        server.shutdown();
    }
}
