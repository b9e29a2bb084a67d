//! The TFluxSoft runtime: one program, `n` scoped kernel threads.
//!
//! §3.1: "The runtime support starts its execution by launching n Kernels,
//! where n is the maximum number of DThreads that can execute in parallel in
//! the machine." [`Runtime::run`] is the scoped driver of the one arena
//! code (`arena.rs`): it spawns the kernels, each running
//! `kernel::run_kernel`, and the calling thread supervises — watchdog,
//! latched errors, the report — parked on an eventcount the kernels ring
//! when the program finished or failed. It completes nothing: the paper's
//! TSU Emulator thread and its TUB (§4.2, Fig. 4) exist only as `tflux-sim`
//! models — the software-TSU costs behind Fig. 6 and the segmented-TUB port
//! behind `figures -- tub` (DESIGN.md §4).

use crate::arena::{Arena, Watch};
use crate::body::BodyTable;
use crate::faults::{FaultInjector, NoFaults};
use crate::kernel::run_kernel;
use crate::stats::{RunReport, StallReport};
use crate::sync;
use std::time::{Duration, Instant};
use tflux_core::{
    funnel_batch, CoreError, DdmProgram, EventCount, ExecTrace, KernelId, Tsu, TsuConfig,
};

/// What a kernel does with a DThread body that panics.
///
/// A body that opted in as idempotent (see
/// [`BodyTable::mark_idempotent`](crate::BodyTable::mark_idempotent)) is
/// re-dispatched in place up to `max_attempts` total attempts. When the
/// budget is exhausted (or the body never opted in), the panic is recorded
/// and, by default, the completion is still published so the program drains
/// and the run ends with
/// [`RuntimeError::BodyPanicked`]. With `poison_on_exhaust`
/// the completion is withheld instead: the failed instance's consumers
/// never fire, the watchdog trips, and the run ends with a forensic
/// [`StallReport`] naming the poisoned instance — the mode to use when a
/// made-up completion would silently corrupt downstream results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per instance, counting the first (minimum 1).
    pub max_attempts: u32,
    /// Withhold the completion of an instance whose retries are exhausted
    /// instead of publishing it anyway.
    pub poison_on_exhaust: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            poison_on_exhaust: false,
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `max_attempts` total attempts (clamped to ≥ 1).
    pub fn attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::default()
        }
    }

    /// Set whether exhausted instances are poisoned (completion withheld).
    pub fn poison_on_exhaust(mut self, poison: bool) -> Self {
        self.poison_on_exhaust = poison;
        self
    }
}

/// Configuration of a TFluxSoft runtime.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Number of kernel threads (execution nodes).
    pub kernels: u32,
    /// TSU capacity, stealing and epoch window. Whether the kernels'
    /// completion funnels batch is read off each program
    /// ([`tflux_core::funnel_batch`]).
    pub tsu: TsuConfig,
    /// Abort the run if no DThread completes for this long.
    pub watchdog: Duration,
    /// What kernels do with panicking bodies.
    pub retry: RetryPolicy,
}

impl RuntimeConfig {
    /// Defaults with `kernels` kernel threads: unlimited TSU capacity,
    /// 30 s watchdog, no panic retry.
    pub fn with_kernels(kernels: u32) -> Self {
        RuntimeConfig {
            kernels,
            tsu: TsuConfig::default(),
            watchdog: Duration::from_secs(30),
            retry: RetryPolicy::default(),
        }
    }

    /// Override the TSU configuration.
    pub fn tsu(mut self, tsu: TsuConfig) -> Self {
        self.tsu = tsu;
        self
    }

    /// Override the watchdog interval.
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

/// Errors a run can end with.
#[derive(Debug)]
pub enum RuntimeError {
    /// The body table does not match the program.
    BodyTableMismatch {
        /// Threads the program declares.
        expected: usize,
        /// Slots the body table holds.
        got: usize,
    },
    /// A TSU protocol error surfaced during execution.
    Protocol(CoreError),
    /// The watchdog fired: some DThread never completed. The report names
    /// the stuck instances and their remaining ready counts.
    Stalled {
        /// Forensics gathered from the TSU at the moment of the stall.
        report: Box<StallReport>,
    },
    /// One or more DThread bodies panicked. The run still drained (the
    /// kernels contain body panics and publish completions), but the
    /// results must be considered invalid.
    BodyPanicked {
        /// The captured panics, in completion order.
        panics: Vec<crate::kernel::BodyPanic>,
    },
    /// A kernel thread itself died — not a contained body panic but a bug
    /// in the runtime machinery (the kernel loop never unwinds otherwise).
    KernelDied {
        /// The kernel whose thread could not be joined.
        kernel: KernelId,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::BodyTableMismatch { expected, got } => write!(
                f,
                "body table has {got} slots but the program declares {expected} threads"
            ),
            RuntimeError::Protocol(e) => write!(f, "TSU protocol error: {e}"),
            RuntimeError::Stalled { report } => write!(f, "{report}"),
            RuntimeError::BodyPanicked { panics } => write!(
                f,
                "{} DThread bod{} panicked; first: {} at {}",
                panics.len(),
                if panics.len() == 1 { "y" } else { "ies" },
                panics[0].message,
                panics[0].instance
            ),
            RuntimeError::KernelDied { kernel } => write!(
                f,
                "kernel thread {kernel} panicked outside a DThread body (runtime bug)"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            // the TSU protocol error is the underlying cause — expose it so
            // `anyhow`-style chains print "TSU protocol error: …: <cause>"
            RuntimeError::Protocol(e) => Some(e),
            // the stall report and panic list are forensics, not errors;
            // the remaining variants are root causes themselves
            _ => None,
        }
    }
}

/// The TFluxSoft runtime. Create one with a [`RuntimeConfig`], then run DDM
/// programs on it. `run` is synchronous: it launches the kernels, executes
/// the program to completion and joins everything.
#[derive(Clone, Copy, Debug)]
pub struct Runtime {
    config: RuntimeConfig,
}

impl Runtime {
    /// A runtime with the given configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        Runtime { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Execute `program` with `bodies` to completion, fault-free.
    ///
    /// Equivalent to [`run_with`](Self::run_with) with [`NoFaults`]; the
    /// injector hooks compile down to nothing on this path.
    pub fn run(
        &self,
        program: &DdmProgram,
        bodies: &BodyTable<'_>,
    ) -> Result<RunReport, RuntimeError> {
        self.run_with(program, bodies, &NoFaults)
    }

    /// Execute `program` with `bodies` to completion, threading `injector`
    /// through every fault site (see [`FaultInjector`]). Pass a
    /// seeded [`FaultPlan`](crate::FaultPlan) to rehearse failures
    /// deterministically.
    pub fn run_with<F: FaultInjector>(
        &self,
        program: &DdmProgram,
        bodies: &BodyTable<'_>,
        injector: &F,
    ) -> Result<RunReport, RuntimeError> {
        if !bodies_match(bodies, program) {
            return Err(RuntimeError::BodyTableMismatch {
                expected: program.threads().len(),
                got: bodies.len(),
            });
        }
        let kernels = self.config.kernels.max(1);
        // The shared software TSU: Graph Memory, Synchronization Memory
        // and the per-kernel ready queues, armed with the first block's
        // inlet.
        let soft = Tsu::threaded(program, kernels, self.config.tsu);
        let arena = Arena::new(soft, self.config.retry);
        let batch = funnel_batch(program, kernels);
        let bell = EventCount::default();
        let mut watch = Watch::new(self.config.watchdog, None, 1);
        let start = Instant::now();
        let (verdict, dead) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..kernels)
                .map(|k| {
                    let (arena, bell) = (&arena, &bell);
                    s.spawn(move || run_kernel(arena, KernelId(k), batch, bodies, bell, injector))
                })
                .collect();
            let verdict = loop {
                // read before looking: whatever changes after this rings
                // past it; the timed wait is the lost-wakeup backstop and
                // the watchdog tick
                let seen = bell.epoch();
                if let Some(verdict) = arena.supervise(&mut watch, injector) {
                    break verdict;
                }
                bell.wait(seen, SUPERVISE_BACKSTOP);
            };
            // body panics are contained in `step`; an unwinding kernel
            // thread means the machinery itself is broken
            let dead = handles
                .into_iter()
                .enumerate()
                .filter_map(|(k, h)| h.join().is_err().then_some(KernelId(k as u32)))
                .min();
            (verdict, dead)
        });
        let wall = start.elapsed();
        if let Some(kernel) = dead {
            return Err(RuntimeError::KernelDied { kernel });
        }
        verdict.map(|()| arena.report(wall))
    }
}

impl Runtime {
    /// Like [`run`](Self::run), additionally recording a span (kernel,
    /// start, end) for every executed DThread body, in nanoseconds since
    /// the run started — the runtime counterpart of the simulator's
    /// `Machine::run_traced` in `tflux-sim`, with the same trace type.
    pub fn run_traced(
        &self,
        program: &DdmProgram,
        bodies: &BodyTable<'_>,
    ) -> Result<(RunReport, ExecTrace), RuntimeError> {
        let epoch = Instant::now();
        let trace = std::sync::Mutex::new(ExecTrace::new("ns"));
        let mut wrapped = BodyTable::new(program);
        for t in 0..program.threads().len() {
            let t = tflux_core::ThreadId(t as u32);
            if bodies.idempotent(t) {
                wrapped.mark_idempotent(t);
            }
            let trace = &trace;
            wrapped.set(t, move |ctx| {
                let start = epoch.elapsed().as_nanos() as u64;
                (bodies.get(ctx.instance.thread))(ctx);
                let end = epoch.elapsed().as_nanos() as u64;
                sync::lock(trace).record(ctx.kernel.0, ctx.instance, start, end);
            });
        }
        let report = self.run(program, &wrapped)?;
        drop(wrapped);
        Ok((report, sync::into_inner(trace)))
    }
}

/// How long the supervising thread sleeps between rounds when nobody rings.
const SUPERVISE_BACKSTOP: Duration = Duration::from_millis(1);

fn bodies_match(bodies: &BodyTable<'_>, program: &DdmProgram) -> bool {
    bodies.len() == program.threads().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::SharedVar;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use tflux_core::prelude::*;

    fn fork_join(arity: u32, blocks: u32) -> (DdmProgram, Vec<ThreadId>) {
        let mut b = ProgramBuilder::new();
        let mut works = Vec::new();
        for _ in 0..blocks {
            let blk = b.block();
            let src = b.thread(blk, ThreadSpec::scalar("src"));
            let work = b.thread(blk, ThreadSpec::new("work", arity));
            let sink = b.thread(blk, ThreadSpec::scalar("sink"));
            b.arc(src, work, ArcMapping::Broadcast).unwrap();
            b.arc(work, sink, ArcMapping::Reduction).unwrap();
            works.push(work);
        }
        (b.build().unwrap(), works)
    }

    #[test]
    fn runs_fork_join_on_multiple_kernels() {
        let (p, works) = fork_join(32, 1);
        let counter = AtomicU64::new(0);
        let mut bodies = BodyTable::new(&p);
        bodies.set(works[0], |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        let report = Runtime::new(RuntimeConfig::with_kernels(4))
            .run(&p, &bodies)
            .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 32);
        assert_eq!(report.tsu.completions as usize, p.total_instances());
        assert_eq!(report.total_executed() as usize, p.total_instances());
        assert_eq!(report.tsu.blocks_loaded, 1);
    }

    #[test]
    fn multi_block_program_runs_blocks_in_order() {
        let (p, works) = fork_join(8, 3);
        let seq = AtomicUsize::new(0);
        let order = std::sync::Mutex::new(Vec::new());
        let mut bodies = BodyTable::new(&p);
        for (bi, &w) in works.iter().enumerate() {
            let seq = &seq;
            let order = &order;
            bodies.set(w, move |_| {
                let n = seq.fetch_add(1, Ordering::Relaxed);
                order.lock().unwrap().push((bi, n));
            });
        }
        Runtime::new(RuntimeConfig::with_kernels(3))
            .run(&p, &bodies)
            .unwrap();
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 24);
        // all block-0 work precedes block-1 work precedes block-2 work
        let mut max_seen = 0usize;
        let mut per_block_max = [0usize; 3];
        for &(bi, n) in order.iter() {
            per_block_max[bi] = per_block_max[bi].max(n);
            max_seen = max_seen.max(n);
        }
        let mut per_block_min = [usize::MAX; 3];
        for &(bi, n) in order.iter() {
            per_block_min[bi] = per_block_min[bi].min(n);
        }
        assert!(per_block_max[0] < per_block_min[1]);
        assert!(per_block_max[1] < per_block_min[2]);
    }

    #[test]
    fn thirty_two_block_transitions_complete_on_the_kernels() {
        // 64 block transitions and no thread but a kernel to apply them:
        // the supervising thread has no completion path at all
        // (`Arena::supervise` takes no ready list and `Tsu::complete` has
        // one call site, in `Arena::step`), so what can be observed is that
        // every block loaded and nothing travelled through a TUB
        let (p, _) = fork_join(4, 32);
        let report = Runtime::new(RuntimeConfig::with_kernels(2))
            .run(&p, &BodyTable::new(&p))
            .unwrap();
        assert_eq!(report.tsu.blocks_loaded, 32);
        assert_eq!(report.tsu.completions as usize, p.total_instances());
        assert_eq!(report.tub, crate::stats::TubSnapshot::default());
    }

    #[test]
    fn shared_var_pipeline_produces_correct_result() {
        // work[c] = c^2; sink sums — classic reduction through SharedVar
        let (p, works) = fork_join(16, 1);
        let sink = ThreadId(works[0].0 + 1);
        let partial = SharedVar::<u64>::new(16);
        let total = AtomicU64::new(0);
        let mut bodies = BodyTable::new(&p);
        let partial_ref = &partial;
        let total_ref = &total;
        bodies.set(works[0], move |c| {
            partial_ref.put(c.context, (c.context.0 as u64).pow(2));
        });
        bodies.set(sink, move |_| {
            total_ref.store(partial_ref.iter().sum(), Ordering::Relaxed);
        });
        Runtime::new(RuntimeConfig::with_kernels(2))
            .run(&p, &bodies)
            .unwrap();
        assert_eq!(
            total.load(Ordering::Relaxed),
            (0..16u64).map(|i| i * i).sum()
        );
    }

    #[test]
    fn one_kernel_is_equivalent_to_sequential() {
        let (p, works) = fork_join(10, 2);
        let hits = AtomicU64::new(0);
        let mut bodies = BodyTable::new(&p);
        for &w in &works {
            let hits = &hits;
            bodies.set(w, move |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        let report = Runtime::new(RuntimeConfig::with_kernels(1))
            .run(&p, &bodies)
            .unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 20);
        assert_eq!(report.kernels.len(), 1);
        assert_eq!(report.kernels[0].executed as usize, p.total_instances());
    }

    #[test]
    fn report_counts_are_consistent() {
        let (p, works) = fork_join(20, 1);
        let mut bodies = BodyTable::new(&p);
        bodies.set(works[0], |_| {});
        let report = Runtime::new(RuntimeConfig::with_kernels(3))
            .run(&p, &bodies)
            .unwrap();
        assert_eq!(report.tsu.fetches, report.tsu.completions);
        assert_eq!(report.total_executed(), report.tsu.completions);
        assert_eq!(report.tsu.blocks_loaded, 1);
        // the per-kernel ledger sums to the aggregate rc-update counter
        assert_eq!(
            report.kernels.iter().map(|k| k.rc_updates).sum::<u64>(),
            report.tsu.rc_updates
        );
        assert!(report.wall > Duration::ZERO);
    }

    #[test]
    fn work_stealing_rebalances_pinned_work() {
        // all 24 instances pinned to kernel 0; with stealing enabled and a
        // slow body, other kernels must take a share
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let w = b.thread(
            blk,
            ThreadSpec::new("w", 24)
                .with_affinity(tflux_core::Affinity::Fixed(tflux_core::KernelId(0))),
        );
        let p = b.build().unwrap();
        let mut bodies = BodyTable::new(&p);
        bodies.set(w, |_| {
            std::thread::sleep(Duration::from_micros(400));
        });
        let report = Runtime::new(RuntimeConfig::with_kernels(4))
            .run(&p, &bodies)
            .unwrap();
        let total_steals: u64 = report.kernels.iter().map(|k| k.steals).sum();
        assert!(total_steals > 0, "no steals despite pinned work");
        let helpers = report
            .kernels
            .iter()
            .skip(1)
            .filter(|k| k.executed > 0)
            .count();
        assert!(helpers >= 1, "no helper kernels executed anything");
    }

    #[test]
    fn no_steal_policy_keeps_pinned_work_on_owner() {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let _w = b.thread(
            blk,
            ThreadSpec::new("w", 12)
                .with_affinity(tflux_core::Affinity::Fixed(tflux_core::KernelId(0))),
        );
        let p = b.build().unwrap();
        let bodies = BodyTable::new(&p);
        let report = Runtime::new(RuntimeConfig::with_kernels(3).tsu(TsuConfig {
            steal: false,
            ..Default::default()
        }))
        .run(&p, &bodies)
        .unwrap();
        assert_eq!(report.kernels[0].executed as usize, p.total_instances());
        assert!(report.kernels[1..].iter().all(|k| k.executed == 0));
    }

    #[test]
    fn run_traced_records_every_body() {
        let (p, works) = fork_join(20, 1);
        let mut bodies = BodyTable::new(&p);
        bodies.set(works[0], |_| {
            std::thread::sleep(Duration::from_micros(50));
        });
        let (report, trace) = Runtime::new(RuntimeConfig::with_kernels(3))
            .run_traced(&p, &bodies)
            .unwrap();
        assert_eq!(trace.unit, "ns");
        assert_eq!(trace.len(), p.total_instances());
        assert_eq!(report.total_executed() as usize, trace.len());
        for s in &trace.spans {
            assert!(s.end >= s.start);
            assert!(s.core < 3);
        }
        // spans on one kernel never overlap (bodies run serially per kernel)
        assert_eq!(trace.find_overlap(), None);
    }

    #[test]
    fn multi_kernel_panics_drain_and_report_under_both_policies() {
        // several panicking instances across 3 kernels: the run must drain
        // fully (no stall) and report every panic, stealing or not
        for steal in [false, true] {
            let (p, works) = fork_join(16, 1);
            let mut bodies = BodyTable::new(&p);
            bodies.set(works[0], |c| {
                if c.context.0 % 4 == 0 {
                    panic!("chaos at {:?}", c.context);
                }
            });
            let err = Runtime::new(RuntimeConfig::with_kernels(3).tsu(TsuConfig {
                steal,
                ..Default::default()
            }))
            .run(&p, &bodies)
            .unwrap_err();
            match err {
                RuntimeError::BodyPanicked { panics } => {
                    let mut contexts: Vec<u32> = panics
                        .iter()
                        .map(|b| {
                            assert_eq!(b.instance.thread, works[0]);
                            assert_eq!(b.attempts, 1);
                            b.instance.context.0
                        })
                        .collect();
                    contexts.sort_unstable();
                    assert_eq!(contexts, vec![0, 4, 8, 12], "steal {steal}");
                }
                other => panic!("steal {steal}: unexpected {other}"),
            }
        }
    }

    #[test]
    fn many_kernels_more_than_work_still_terminate() {
        let (p, _) = fork_join(2, 1);
        let bodies = BodyTable::new(&p);
        let report = Runtime::new(RuntimeConfig::with_kernels(8))
            .run(&p, &bodies)
            .unwrap();
        assert_eq!(report.kernels.len(), 8);
        assert_eq!(report.total_executed() as usize, p.total_instances());
    }
}
