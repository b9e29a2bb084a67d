//! One resident program, and the three things a driver does to it.
//!
//! An [`Arena`] is a program's execution state: its threaded [`Tsu`], panic
//! sink, error latch and per-kernel counters. Its two drivers —
//! [`Runtime::run`](crate::Runtime) (scoped kernels that park on their
//! own queue's bell, the calling thread supervising) and the
//! [`ProgramServer`](crate::ProgramServer) (a persistent pool multiplexing
//! over many arenas, one supervisor thread) — do only this to it:
//!
//! * [`fetch`](Arena::fetch): one non-blocking fetch for a kernel;
//! * [`step`](Arena::step): run one fetched instance and complete it —
//!   whatever its kind, Inlet and Outlet included — on the calling kernel;
//! * [`supervise`](Arena::supervise): one visit by whoever owns the
//!   verdict: latched error → deadline → finished → watchdog.
//!
//! Nothing else completes an instance, so a block transition never waits
//! for another thread; of the paper's TSU Emulator (§4.2) what is left is
//! `supervise`, which completes nothing.

use crate::body::BodyTable;
use crate::faults::FaultInjector;
use crate::kernel::{execute_body, BodyPanic, PanicSink};
use crate::runtime::{RetryPolicy, RuntimeError};
use crate::stats::{
    InFlightInstance, KernelStats, RunReport, StallCause, StallReport, TubSnapshot,
};
use crate::sync::lock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tflux_core::{
    CompletionFunnel, CoreError, Epoch, FetchResult, FlushPolicy, Instance, KernelId,
    ProgramHandle, ThreadKind, Tsu,
};

/// Ring every kernel's bell: a kernel parked on its own queue wakes, and
/// its next fetch answers `Exit` for a finished program or an evicted arena.
pub(crate) fn ring_all<P: ProgramHandle>(tsu: &Tsu<P>) {
    for q in tsu.queues() {
        q.bell().ring();
    }
}

/// One kernel's execution counters in one arena. Written only by the
/// thread driving that kernel id, so an update is a `Relaxed` load + store
/// and never an RMW; one cache line per kernel, summed at report time.
#[derive(Default)]
#[repr(align(64))]
struct KernelSlot {
    executed: AtomicU64,
    retries: AtomicU64,
    poisoned: AtomicU64,
    /// Completions of bodies that outlived the eviction, discarded.
    late: AtomicU64,
    /// Nanoseconds parked on the kernel's own bell (`Runtime::run` only).
    wait_ns: AtomicU64,
    /// Parks on it: `Wait` fetches the kernel slept after.
    blocked_pops: AtomicU64,
}

pub(crate) fn add(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// A kernel thread's own state, carried from one [`Arena::step`] to the
/// next. A pool kernel keeps one across all the arenas it serves.
pub(crate) struct KernelCtx {
    kernel: KernelId,
    /// App completions park here under [`FlushPolicy::Batch`] and reach
    /// the SM as combined batches; inert under `Direct`.
    funnel: CompletionFunnel,
    scratch: Vec<Instance>,
    /// Fetches so far: the kernel-stall fault site's argument.
    fetches: u64,
}

impl KernelCtx {
    pub(crate) fn new(kernel: KernelId, flush: FlushPolicy) -> Self {
        KernelCtx {
            kernel,
            funnel: CompletionFunnel::new(flush),
            scratch: Vec::new(),
            fetches: 0,
        }
    }
}

/// An error was latched in the arena: ring whoever runs
/// [`Arena::supervise`].
#[derive(Debug)]
pub(crate) struct Latched;

/// What one [`Arena::step`] asks its driver to ring. The dropped-bell fault
/// site has already been applied: a suppressed ring reads `false` here.
#[derive(Default)]
pub(crate) struct Stepped {
    /// The completion published ≥ 1 ready instance.
    pub ready: bool,
    /// An Outlet completed: the pass may be over, a stream credit may have
    /// freed.
    pub outlet: bool,
    /// An error was latched for `supervise` to evict on.
    pub latched: bool,
}

/// The supervising thread's view of one arena: when it was admitted, what
/// ends it, and the watchdog's progress probe.
pub(crate) struct Watch {
    admitted_at: Instant,
    deadline: Option<Duration>,
    watchdog: Duration,
    /// Passes the program runs before it is finished (1 = one-shot).
    epochs: u64,
    last_progress: Instant,
    seen_completions: u64,
    /// Visits so far: the drain-jitter fault site's argument.
    rounds: u64,
}

impl Watch {
    pub(crate) fn new(watchdog: Duration, deadline: Option<Duration>, epochs: u64) -> Self {
        let now = Instant::now();
        Watch {
            admitted_at: now,
            deadline,
            watchdog,
            epochs,
            last_progress: now,
            seen_completions: 0,
            rounds: 0,
        }
    }

    /// Time since the arena was admitted.
    pub(crate) fn elapsed(&self) -> Duration {
        self.admitted_at.elapsed()
    }
}

/// One resident program. See the module docs.
pub(crate) struct Arena<P: ProgramHandle> {
    /// The program's whole scheduling state.
    pub(crate) soft: Tsu<P>,
    retry: RetryPolicy,
    /// First TSU protocol error raised on a kernel, for `supervise`.
    error: Mutex<Option<CoreError>>,
    panics: PanicSink,
    /// Latched with the verdict; kernels stop fetching and discard late
    /// completions once set.
    evicted: AtomicBool,
    slots: Vec<KernelSlot>,
}

impl<P: ProgramHandle> Arena<P> {
    pub(crate) fn new(soft: Tsu<P>, retry: RetryPolicy) -> Self {
        let slots = (0..soft.kernels()).map(|_| KernelSlot::default()).collect();
        Arena {
            soft,
            retry,
            error: Mutex::new(None),
            panics: PanicSink::default(),
            evicted: AtomicBool::new(false),
            slots,
        }
    }

    /// Latch a protocol error (first one wins).
    pub(crate) fn latch(&self, e: CoreError) -> Latched {
        lock(&self.error).get_or_insert(e);
        Latched
    }

    /// Run one Post-Processing operation with its failures contained and
    /// latched. A typed protocol error leaves the SM as it was; an unwind
    /// has already poisoned it (its drop-guard latches the flag), so every
    /// later fetch fails too — either way the kernel thread carries on and
    /// `supervise` ends the program.
    fn contained(&self, op: impl FnOnce() -> Result<(), CoreError>) -> Result<(), Latched> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)) {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(self.latch(e)),
            Err(_) => {
                self.soft.poison();
                Err(self.latch(CoreError::SmPoisoned))
            }
        }
    }

    /// Hand the kernel's parked completions to the SM as one batch. A
    /// kernel calls this before it parks: the parked decrements may be
    /// the very ones it (or a sibling) would wait on.
    pub(crate) fn flush(&self, ctx: &mut KernelCtx) -> Result<(), Latched> {
        if ctx.funnel.is_empty() {
            return Ok(());
        }
        let KernelCtx {
            kernel,
            funnel,
            scratch,
            ..
        } = ctx;
        self.contained(|| funnel.flush(*kernel, &self.soft, scratch))
    }

    /// One non-blocking fetch on behalf of `ctx`'s kernel, behind the
    /// *kernel stall* fault site: own queue first, then a steal. `Exit`
    /// also answers for an evicted arena; a poisoned one is latched.
    pub(crate) fn fetch<F: FaultInjector>(
        &self,
        ctx: &mut KernelCtx,
        injector: &F,
    ) -> Result<FetchResult, Latched> {
        ctx.fetches += 1;
        if let Some(d) = injector.kernel_stall(ctx.kernel, ctx.fetches) {
            std::thread::sleep(d);
        }
        if self.evicted.load(Ordering::Acquire) {
            return Ok(FetchResult::Exit);
        }
        self.soft.fetch(ctx.kernel).map_err(|e| self.latch(e))
    }

    /// Count one park of `kernel` on its bell, `waited` long.
    pub(crate) fn parked(&self, kernel: KernelId, waited: Duration) {
        let slot = &self.slots[kernel.idx()];
        add(&slot.wait_ns, waited.as_nanos() as u64);
        add(&slot.blocked_pops, 1);
    }

    /// Run one fetched instance and complete it on the calling kernel.
    ///
    /// The body is a direct closure call (§3.2: no OS involvement per
    /// DThread) under panic containment and retry. The completion goes
    /// through the kernel's funnel ([`CompletionFunnel::complete`]), Inlet
    /// and Outlet behind the *transition delay* fault site. A completion
    /// that outlived the arena's eviction is discarded, never published
    /// into the dead (maybe poisoned) arena.
    pub(crate) fn step<F: FaultInjector>(
        &self,
        ctx: &mut KernelCtx,
        (instance, epoch): (Instance, Epoch),
        bodies: &BodyTable<'_>,
        injector: &F,
    ) -> Stepped {
        let slot = &self.slots[ctx.kernel.idx()];
        let outcome = execute_body(
            ctx.kernel,
            instance,
            bodies,
            &self.panics,
            injector,
            self.retry,
        );
        add(&slot.retries, outcome.retries);
        add(&slot.executed, 1);
        if self.evicted.load(Ordering::Acquire) {
            add(&slot.late, 1);
            return Stepped::default();
        }
        if !outcome.publish {
            add(&slot.poisoned, 1);
            return Stepped::default();
        }
        let kind = self.soft.graph().kind(instance.thread);
        if kind != ThreadKind::App {
            if let Some(d) = injector.transition_delay(instance) {
                std::thread::sleep(d);
            }
        }
        let KernelCtx {
            kernel,
            funnel,
            scratch,
            ..
        } = ctx;
        let applied = self.contained(|| {
            funnel
                .complete(*kernel, &self.soft, instance, epoch, scratch)
                .map(drop)
        });
        let (outlet, latched) = (kind == ThreadKind::Outlet, applied.is_err());
        // the *dropped bell* site: the supervisor's timed wait must recover
        let rung = (outlet || latched) && !injector.drop_bell(instance);
        Stepped {
            ready: !ctx.scratch.is_empty(),
            outlet: outlet && rung,
            latched: latched && rung,
        }
    }

    /// One visit by the supervising thread, behind the *drain jitter*
    /// fault site: latched error → deadline → finished → watchdog. `Some`
    /// is the verdict, and the arena is evicted with it: kernels stop
    /// fetching from it, and a kernel parked on its bell wakes to `Exit`.
    /// The deadline cancels even a program that is making progress; the
    /// watchdog only fires on genuine idleness, progress being any
    /// completion.
    pub(crate) fn supervise<F: FaultInjector>(
        &self,
        watch: &mut Watch,
        injector: &F,
    ) -> Option<Result<(), RuntimeError>> {
        watch.rounds += 1;
        if let Some(d) = injector.drain_jitter(watch.rounds) {
            std::thread::sleep(d);
        }
        let verdict = if let Some(e) = lock(&self.error).take() {
            Err(RuntimeError::Protocol(e))
        } else {
            let stalled = if watch.deadline.is_some_and(|d| watch.elapsed() >= d) {
                Some(StallCause::Deadline)
            } else if self.soft.finished() && self.soft.epoch_ledger().1 >= watch.epochs {
                // `finished` alone is also what a stream looks like between
                // passes when the window held the next credit back
                None
            } else {
                let completions = self.soft.completions();
                if completions != watch.seen_completions {
                    watch.seen_completions = completions;
                    watch.last_progress = Instant::now();
                    return None;
                }
                if watch.last_progress.elapsed() < watch.watchdog {
                    return None;
                }
                Some(StallCause::Watchdog)
            };
            let panics = std::mem::take(&mut *lock(&self.panics));
            match stalled {
                Some(cause) => Err(RuntimeError::Stalled {
                    report: Box::new(self.stall_report(cause, watch, panics)),
                }),
                None if panics.is_empty() => Ok(()),
                None => Err(RuntimeError::BodyPanicked { panics }),
            }
        };
        self.evicted.store(true, Ordering::Release);
        ring_all(&self.soft);
        Some(verdict)
    }

    /// Forensics: walk the Synchronization Memory before tearing it down,
    /// so the abort names the stuck instances instead of discarding the
    /// evidence.
    fn stall_report(
        &self,
        cause: StallCause,
        watch: &Watch,
        panics: Vec<BodyPanic>,
    ) -> StallReport {
        let gm = self.soft.graph();
        let (waiting, running) = self.soft.forensics();
        StallReport {
            cause,
            idle: watch.last_progress.elapsed(),
            stats: self.soft.stats(),
            waiting,
            in_flight: running
                .into_iter()
                .map(|instance| InFlightInstance {
                    instance,
                    kernel: gm.owner_of(instance),
                })
                .collect(),
            queue_depths: self.soft.queues().iter().map(|q| q.len()).collect(),
            kernels: self.kernel_stats(),
            panics,
        }
    }

    /// Per-kernel counters so far, indexed by kernel id.
    fn kernel_stats(&self) -> Vec<KernelStats> {
        self.slots
            .iter()
            .enumerate()
            .map(|(k, slot)| {
                let sched = self.soft.kernel_stats(KernelId(k as u32));
                KernelStats {
                    executed: slot.executed.load(Ordering::Relaxed),
                    wait_ns: slot.wait_ns.load(Ordering::Relaxed),
                    blocked_pops: slot.blocked_pops.load(Ordering::Relaxed),
                    steals: sched.steals,
                    steal_misses: sched.steal_misses,
                    steal_races: sched.steal_races,
                    retries: slot.retries.load(Ordering::Relaxed),
                    poisoned: slot.poisoned.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// The report of a program `supervise` found finished.
    pub(crate) fn report(&self, wall: Duration) -> RunReport {
        RunReport {
            wall,
            tsu: self.soft.stats(),
            tub: TubSnapshot::default(),
            kernels: self.kernel_stats(),
            sm_shards: self.soft.shard_stats(),
        }
    }

    /// Late completions discarded so far, over all kernels.
    #[cfg(test)]
    pub(crate) fn late(&self) -> u64 {
        let late = |s: &KernelSlot| s.late.load(Ordering::Relaxed);
        self.slots.iter().map(late).sum()
    }
}

/// `step` and `supervise` are tested once, against both of their drivers.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, NoFaults};
    use crate::server::{ProgramServer, ServerConfig, Submission, Submit};
    use crate::{Runtime, RuntimeConfig};
    use std::sync::Arc;
    use tflux_core::prelude::*;
    use tflux_core::TsuStats;

    #[derive(Clone, Copy, Debug)]
    enum Driver {
        Runtime,
        Server,
    }

    const DRIVERS: [Driver; 2] = [Driver::Runtime, Driver::Server];

    /// What a test varies; the same value configures either driver.
    struct Knobs {
        retry: RetryPolicy,
        watchdog: Duration,
        tsu: TsuConfig,
        plan: FaultPlan,
    }

    impl Default for Knobs {
        fn default() -> Self {
            Knobs {
                retry: RetryPolicy::default(),
                watchdog: Duration::from_secs(30),
                tsu: TsuConfig::default(),
                plan: FaultPlan::default(),
            }
        }
    }

    /// Run `program` on two kernels of `driver` — `Runtime::run_with`, or
    /// alone on a `ProgramServer` — and return its counters or its error.
    /// Either way no kernel is still inside a body on return.
    fn run_on(
        driver: Driver,
        program: &Arc<DdmProgram>,
        bodies: BodyTable<'static>,
        knobs: Knobs,
    ) -> Result<(TsuStats, Vec<KernelStats>), RuntimeError> {
        let Knobs {
            retry,
            watchdog,
            tsu,
            plan,
        } = knobs;
        match driver {
            Driver::Runtime => {
                let config = RuntimeConfig::with_kernels(2)
                    .retry(retry)
                    .watchdog(watchdog)
                    .tsu(tsu);
                let report = Runtime::new(config).run_with(program, &bodies, &plan)?;
                Ok((report.tsu, report.kernels))
            }
            Driver::Server => {
                let config = ServerConfig::with_kernels(2)
                    .retry(retry)
                    .watchdog(watchdog)
                    .tsu(tsu);
                let server = ProgramServer::start(config);
                let submission = Submission::new(Arc::clone(program), bodies).faults(plan);
                let result = server.submit(submission, Submit::Block).unwrap().wait();
                server.shutdown(); // joins the pool
                let report = result?;
                assert_eq!(
                    report.executed,
                    report.kernels.iter().map(|k| k.executed).sum::<u64>()
                );
                Ok((report.tsu, report.kernels))
            }
        }
    }

    /// `src → work(arity) → sink`, with the ids of `work` and `sink`.
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

    /// The panics of a run that must have ended in `BodyPanicked`.
    fn panics_of(result: Result<(TsuStats, Vec<KernelStats>), RuntimeError>) -> Vec<BodyPanic> {
        match result {
            Err(RuntimeError::BodyPanicked { panics }) => panics,
            Err(other) => panic!("expected BodyPanicked, got {other}"),
            Ok(_) => panic!("expected BodyPanicked, got a report"),
        }
    }

    /// The report of a run that must have ended in `Stalled`.
    fn stall_of(result: Result<(TsuStats, Vec<KernelStats>), RuntimeError>) -> Box<StallReport> {
        match result {
            Err(RuntimeError::Stalled { report }) => report,
            Err(other) => panic!("expected Stalled, got {other}"),
            Ok(_) => panic!("expected Stalled, got a report"),
        }
    }

    #[test]
    fn panicking_body_is_contained_and_reported() {
        for driver in DRIVERS {
            let (p, work, _) = fork_join(8);
            let ran = Arc::new(AtomicU64::new(0));
            let mut bodies = BodyTable::new(&p);
            let counted = Arc::clone(&ran);
            bodies.set(work, move |c| {
                if c.context.0 == 3 {
                    panic!("body exploded");
                }
                counted.fetch_add(1, Ordering::Relaxed);
            });
            // a generous budget must not apply without the idempotent flag
            let knobs = Knobs {
                retry: RetryPolicy::attempts(3),
                ..Knobs::default()
            };
            let panics = panics_of(run_on(driver, &p, bodies, knobs));
            // the panic killed no kernel and the completion was still
            // published: the program drained instead of hanging
            assert_eq!(ran.load(Ordering::Relaxed), 7, "{driver:?}");
            assert_eq!(panics.len(), 1, "{driver:?}");
            assert_eq!(panics[0].instance, Instance::new(work, Context(3)));
            assert!(panics[0].message.contains("exploded"), "{driver:?}");
            assert_eq!(panics[0].attempts, 1, "{driver:?}");
        }
    }

    #[test]
    fn idempotent_body_retry_recovers() {
        for driver in DRIVERS {
            let (p, work, _) = fork_join(8);
            let attempts = Arc::new(AtomicU64::new(0));
            let mut bodies = BodyTable::new(&p);
            let first = Arc::clone(&attempts);
            bodies.set_idempotent(work, move |c| {
                // context 2 fails exactly once, then succeeds on retry
                if c.context.0 == 2 && first.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("transient failure");
                }
            });
            let knobs = Knobs {
                retry: RetryPolicy::attempts(3),
                ..Knobs::default()
            };
            let (tsu, kernels) = run_on(driver, &p, bodies, knobs).unwrap();
            assert_eq!(kernels.iter().map(|k| k.retries).sum::<u64>(), 1);
            assert_eq!(kernels.iter().map(|k| k.poisoned).sum::<u64>(), 0);
            assert_eq!(tsu.completions as usize, p.total_instances());
            assert_eq!(attempts.load(Ordering::Relaxed), 2, "{driver:?}");
        }
    }

    #[test]
    fn exhausted_retries_surface_the_attempt_count() {
        for driver in DRIVERS {
            let (p, work, _) = fork_join(4);
            let mut bodies = BodyTable::new(&p);
            bodies.set_idempotent(work, |c| {
                if c.context.0 == 1 {
                    panic!("permanent failure");
                }
            });
            let knobs = Knobs {
                retry: RetryPolicy::attempts(3),
                ..Knobs::default()
            };
            let panics = panics_of(run_on(driver, &p, bodies, knobs));
            assert_eq!(panics.len(), 1, "{driver:?}");
            assert_eq!(panics[0].attempts, 3, "{driver:?}");
        }
    }

    #[test]
    fn poison_on_exhaust_ends_in_a_forensic_stall() {
        for driver in DRIVERS {
            let (p, work, sink) = fork_join(2);
            let mut bodies = BodyTable::new(&p);
            bodies.set_idempotent(work, |c| {
                if c.context.0 == 0 {
                    panic!("producer keeps failing");
                }
            });
            let knobs = Knobs {
                retry: RetryPolicy::attempts(2).poison_on_exhaust(true),
                watchdog: Duration::from_millis(100),
                ..Knobs::default()
            };
            let report = stall_of(run_on(driver, &p, bodies, knobs));
            assert_eq!(report.cause, StallCause::Watchdog, "{driver:?}");
            assert!(report.idle >= Duration::from_millis(100), "{driver:?}");
            // the withheld completion: dispatched, never completed, and
            // its consumer one decrement short
            let poisoned = Instance::new(work, Context(0));
            assert!(report.in_flight.iter().any(|f| f.instance == poisoned));
            let waiting = report.waiting.iter().find(|w| w.instance.thread == sink);
            assert_eq!(waiting.map(|w| w.remaining), Some(1), "{report}");
            assert_eq!(report.panics.len(), 1, "{driver:?}");
            assert_eq!(report.panics[0].attempts, 2, "{driver:?}");
            assert_eq!(report.kernels.iter().map(|k| k.poisoned).sum::<u64>(), 1);
            assert!(format!("{report}").contains("(watchdog fired)"));
        }
    }

    #[test]
    fn late_completion_after_eviction_is_discarded() {
        for driver in DRIVERS {
            let (p, work, sink) = fork_join(2);
            let sink_ran = Arc::new(AtomicBool::new(false));
            let mut bodies = BodyTable::new(&p);
            // a body that outlives the watchdog
            bodies.set(work, |c| {
                if c.context.0 == 0 {
                    std::thread::sleep(Duration::from_millis(400));
                }
            });
            let flag = Arc::clone(&sink_ran);
            bodies.set(sink, move |_| flag.store(true, Ordering::Relaxed));
            let knobs = Knobs {
                watchdog: Duration::from_millis(50),
                ..Knobs::default()
            };
            let report = stall_of(run_on(driver, &p, bodies, knobs));
            let sleeper = Instance::new(work, Context(0));
            assert!(
                report.in_flight.iter().any(|f| f.instance == sleeper),
                "{driver:?}: {report}"
            );
            assert_eq!(report.kernels.len(), 2, "{driver:?}");
            assert!(report.panics.is_empty(), "{driver:?}");
            // the sleeper has returned by now; had its completion been
            // published into the evicted arena, the sink would have run
            assert!(!sink_ran.load(Ordering::Relaxed), "{driver:?}");
        }
    }

    #[test]
    fn latched_protocol_error_aborts() {
        for driver in DRIVERS {
            // the block does not fit the TSU: its Inlet's completion fails
            // on the kernel that ran it and is latched for `supervise`
            let (p, _, _) = fork_join(64);
            let knobs = Knobs {
                tsu: TsuConfig {
                    capacity: 4,
                    ..TsuConfig::default()
                },
                ..Knobs::default()
            };
            match run_on(driver, &p, BodyTable::new(&p), knobs) {
                Err(RuntimeError::Protocol(CoreError::BlockTooLarge { .. })) => {}
                Err(other) => panic!("{driver:?}: {other}"),
                Ok(_) => panic!("{driver:?}: an oversized block ran"),
            }
        }
    }

    #[test]
    fn dropped_bells_stalls_and_jitter_delay_but_never_lose_the_verdict() {
        for driver in DRIVERS {
            let (p, _, _) = fork_join(8);
            // every ring suppressed: only the timed waits can notice the end
            let plan = FaultPlan::new(3)
                .dropped_bell(1000)
                .kernel_stall(500, Duration::from_micros(50))
                .drain_jitter(500, Duration::from_micros(200));
            let knobs = Knobs {
                plan,
                ..Knobs::default()
            };
            let (tsu, _) = run_on(driver, &p, BodyTable::new(&p), knobs).unwrap();
            assert_eq!(tsu.completions as usize, p.total_instances());
        }
    }

    #[test]
    fn all_six_fault_sites_are_bound_in_the_arena() {
        let (p, work, _) = fork_join(8);
        let plan = FaultPlan::new(9)
            .panic_at(Instance::new(work, Context(0)))
            .body_delay(1000, Duration::from_micros(10))
            .kernel_stall(1000, Duration::from_micros(10))
            .transition_delay(1000, Duration::from_micros(10))
            .dropped_bell(1000)
            .drain_jitter(1000, Duration::from_micros(10));
        let bodies = BodyTable::new(&p);
        let result = Runtime::new(RuntimeConfig::with_kernels(2)).run_with(&p, &bodies, &plan);
        assert!(matches!(result, Err(RuntimeError::BodyPanicked { .. })));
        let counts = plan.counts();
        assert_eq!(counts.body_panics, 1, "{counts:?}");
        assert_eq!(counts.body_delays as usize, p.total_instances() - 1);
        assert!(counts.kernel_stalls > 0, "{counts:?}");
        assert_eq!(
            counts.transition_delays, 2,
            "one Inlet, one Outlet: {counts:?}"
        );
        assert_eq!(counts.dropped_bells, 1, "the finishing Outlet: {counts:?}");
        assert!(counts.drain_jitters > 0, "{counts:?}");
    }

    /// An arena nobody runs: the armed Inlet sits on kernel 0's queue.
    fn idle_arena(p: &DdmProgram) -> Arena<&DdmProgram> {
        let soft = Tsu::threaded(p, 1, TsuConfig::default());
        Arena::new(soft, RetryPolicy::default())
    }

    #[test]
    fn watchdog_names_the_never_popped_inlet() {
        let (p, _, _) = fork_join(2);
        let arena = idle_arena(&p);
        let mut watch = Watch::new(Duration::from_millis(50), None, 1);
        let verdict = loop {
            match arena.supervise(&mut watch, &NoFaults) {
                Some(verdict) => break verdict,
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        let report = stall_of(verdict.map(|()| unreachable!()));
        assert_eq!(report.cause, StallCause::Watchdog);
        assert!(report.idle >= Duration::from_millis(50));
        // dispatched at construction, never completed; the block never
        // loaded, so nothing waits on producers yet
        let inlet = p.blocks()[0].inlet;
        assert!(report.in_flight.iter().any(|f| f.instance.thread == inlet));
        assert!(report.waiting.is_empty(), "{:?}", report.waiting);
        assert_eq!(report.queue_depths, vec![1]);
        // the verdict evicted the arena: a kernel arriving now is sent away
        let mut ctx = KernelCtx::new(KernelId(0), FlushPolicy::Direct);
        let fetched = arena.fetch(&mut ctx, &NoFaults).unwrap();
        assert_eq!(fetched, FetchResult::Exit);
    }

    #[test]
    fn deadline_cancels_with_its_own_cause() {
        let (p, _, _) = fork_join(2);
        let arena = idle_arena(&p);
        let deadline = Some(Duration::ZERO);
        let mut watch = Watch::new(Duration::from_secs(30), deadline, 1);
        let verdict = arena.supervise(&mut watch, &NoFaults).unwrap();
        let report = stall_of(verdict.map(|()| unreachable!()));
        assert_eq!(report.cause, StallCause::Deadline);
        let text = format!("{report}");
        assert!(text.starts_with("run cancelled: deadline passed"), "{text}");
    }

    #[test]
    fn first_latched_error_wins_and_is_the_verdict() {
        let (p, work, _) = fork_join(2);
        let arena = idle_arena(&p);
        let first = Instance::new(work, Context(0));
        arena.latch(CoreError::NotRunning(first));
        arena.latch(CoreError::NotRunning(Instance::new(work, Context(1))));
        let mut watch = Watch::new(Duration::from_secs(30), None, 1);
        match arena.supervise(&mut watch, &NoFaults) {
            Some(Err(RuntimeError::Protocol(CoreError::NotRunning(i)))) => assert_eq!(i, first),
            other => panic!("unexpected verdict {other:?}"),
        }
    }
}
