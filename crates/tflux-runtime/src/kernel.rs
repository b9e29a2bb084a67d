//! The Kernel loop (Fig. 2 of the paper).
//!
//! A kernel is "a simple user-level process" — here an OS thread — that
//! alternates between the *FindReadyThread* loop and application DThread
//! code. `run_kernel` is that loop as [`Runtime::run`](crate::Runtime)
//! spawns it: fetch from the arena's threaded `Tsu` (own ready
//! queue first, then, policy permitting, a steal), park on the own queue's
//! bell when nothing is runnable anywhere, and hand every fetched instance
//! to the arena's `step` (`arena.rs`), which runs the body and completes
//! it — block transitions included — right here, on this kernel.
//!
//! Parking is the read-before-look protocol of the server's pool kernels:
//! after a `Wait` the kernel flushes its funnel, reads the bell's epoch,
//! fetches once more, and only then waits on that epoch. A foreign run
//! published after the read rings past it; one published before it is
//! found by the fetch — as is whatever the flush readied, since an owner
//! run rings nothing.

use crate::arena::{ring_all, Arena, KernelCtx};
use crate::body::{BodyCtx, BodyTable};
use crate::faults::{BodyFault, FaultInjector};
use crate::runtime::RetryPolicy;
use crate::sync::lock;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tflux_core::{EventCount, FetchResult, Instance, KernelId, ProgramHandle};

/// A panic captured from a DThread body. The kernel contains the panic,
/// retries it if the body opted in as idempotent and the
/// [`RetryPolicy`] allows, records the final failure
/// here, and (unless the policy poisons exhausted instances) still
/// publishes the completion so the program drains instead of deadlocking;
/// the runtime reports the failure after the run (see
/// [`RuntimeError::BodyPanicked`](crate::RuntimeError)).
#[derive(Debug, Clone)]
pub struct BodyPanic {
    /// The instance whose body panicked.
    pub instance: Instance,
    /// The panic payload of the last attempt, stringified.
    pub message: String,
    /// How many attempts were made (1 = no retries).
    pub attempts: u32,
}

/// Shared collector for body panics across kernels.
pub(crate) type PanicSink = Mutex<Vec<BodyPanic>>;

/// How long an idle kernel of either driver parks before it looks again
/// on its own: the backstop against a lost wake-up, and the pace of a
/// stealer's victim rescans, which no ring announces.
pub(crate) const KERNEL_BACKSTOP: Duration = Duration::from_millis(1);

/// Outcome of one body execution under panic containment and retry.
pub(crate) struct BodyOutcome {
    /// Whether the completion should be published to the TSU. `false`
    /// means the retry policy poisoned the instance on exhaust.
    pub publish: bool,
    /// Retries consumed before the final attempt.
    pub retries: u64,
}

/// Run one DThread body with panic containment: a panicking idempotent
/// body is re-dispatched up to the retry budget; the final failure lands
/// in `panics` and the completion is still published unless the policy
/// poisons exhausted instances.
pub(crate) fn execute_body<F: FaultInjector>(
    kernel: KernelId,
    instance: Instance,
    bodies: &BodyTable<'_>,
    panics: &PanicSink,
    injector: &F,
    retry: RetryPolicy,
) -> BodyOutcome {
    let ctx = BodyCtx {
        instance,
        context: instance.context,
        kernel,
    };
    let mut retries = 0u64;
    let mut attempt = 0u32;
    let publish = loop {
        attempt += 1;
        let fault = injector.before_body(kernel, instance, attempt);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match fault {
                BodyFault::Pass => {}
                BodyFault::Delay(d) => std::thread::sleep(d),
                BodyFault::Panic => std::panic::panic_any(format!(
                    "injected fault: body panic at {instance} (attempt {attempt})"
                )),
            }
            (bodies.get(instance.thread))(&ctx)
        }));
        match result {
            Ok(()) => break true,
            Err(payload) => {
                if bodies.idempotent(instance.thread) && attempt < retry.max_attempts {
                    retries += 1;
                    continue;
                }
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                lock(panics).push(BodyPanic {
                    instance,
                    message,
                    attempts: attempt,
                });
                break !retry.poison_on_exhaust;
            }
        }
    };
    BodyOutcome { publish, retries }
}

/// Run one kernel of a scoped run to completion.
///
/// The loop mirrors Fig. 2: the first instance a kernel receives is (for
/// kernel 0) the first block's Inlet; every completion jumps back to the
/// FindReadyThread point. A kernel whose fetch answers `Exit` — the
/// program finished or the arena was evicted — rings every bell so the
/// parked kernels see it too, which "forces [every] Kernel to exit".
/// `supervisor` is rung when the program finished or an error was latched,
/// nothing else. The kernel completes through a funnel of batch size
/// `batch`.
pub(crate) fn run_kernel<P: ProgramHandle, F: FaultInjector>(
    arena: &Arena<P>,
    kernel: KernelId,
    batch: usize,
    bodies: &BodyTable<'_>,
    supervisor: &EventCount,
    injector: &F,
) {
    let tsu = &arena.soft;
    let mut ctx = KernelCtx::new(kernel, batch);
    let bell = tsu.queues()[kernel.idx()].bell();
    // the bell's epoch, read after a `Wait`: the next fetch is the look
    // that decides whether to park
    let mut seen = None;
    loop {
        let fetched = match arena.fetch(&mut ctx, injector) {
            Ok(r) => r,
            Err(_) => {
                supervisor.ring();
                break;
            }
        };
        match fetched {
            FetchResult::Thread(instance, epoch) => {
                seen = None;
                let stepped = arena.step(&mut ctx, (instance, epoch), bodies, injector);
                if stepped.latched || (stepped.outlet && tsu.finished()) {
                    supervisor.ring();
                }
            }
            FetchResult::Exit => {
                ring_all(tsu);
                break;
            }
            FetchResult::Wait => match seen {
                Some(epoch) => {
                    let parked = Instant::now();
                    bell.wait(epoch, KERNEL_BACKSTOP);
                    arena.parked(kernel, parked.elapsed());
                    seen = Some(bell.epoch());
                }
                None => {
                    // the parked decrements may be the very ones this
                    // kernel (or a sibling) would wait on
                    if arena.flush(&mut ctx).is_err() {
                        supervisor.ring();
                        break;
                    }
                    seen = Some(bell.epoch());
                }
            },
        }
    }
    // drain anything still parked (a break on a latched error) so no
    // completion is silently dropped; a failure here is latched like any
    let _ = arena.flush(&mut ctx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::NoFaults;
    use std::sync::atomic::{AtomicU64, Ordering};
    use tflux_core::prelude::*;

    /// An arena over `p` for `kernels` kernels, no retry.
    fn arena(p: &DdmProgram, kernels: u32, tsu: TsuConfig) -> Arena<&DdmProgram> {
        let soft = Tsu::threaded(p, kernels, tsu);
        Arena::new(soft, RetryPolicy::default())
    }

    /// `run_kernel` with no injected faults, batching as `Runtime::run`
    /// does. Nobody supervises: a kernel completes everything it runs, so
    /// the program ends on the kernels alone.
    fn run(arena: &Arena<&DdmProgram>, kernel: u32, bodies: &BodyTable<'_>) {
        let bell = EventCount::default();
        let batch = tflux_core::funnel_batch(arena.soft.program(), arena.soft.kernels());
        run_kernel(arena, KernelId(kernel), batch, bodies, &bell, &NoFaults);
    }

    #[test]
    fn body_ctx_reports_kernel_and_context() {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let w = b.thread(blk, ThreadSpec::new("w", 2));
        let p = b.build().unwrap();
        let seen = Mutex::new(Vec::new());
        let mut bodies = BodyTable::new(&p);
        bodies.set(w, |c| {
            seen.lock().unwrap().push((c.kernel, c.context));
        });
        // kernel 3 of 4 running alone: it steals what it does not own
        run(&arena(&p, 4, TsuConfig::default()), 3, &bodies);
        drop(bodies); // release the body closure's borrow of `seen`
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|&(_, c)| c);
        assert_eq!(
            seen,
            vec![(KernelId(3), Context(0)), (KernelId(3), Context(1))]
        );
    }

    #[test]
    fn stealing_kernel_takes_work_from_the_loaded_victim() {
        // all app work pinned to kernel 1, but only kernel 0 runs: every
        // work instance must arrive by stealing
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let w = b.thread(
            blk,
            ThreadSpec::new("w", 6).with_affinity(Affinity::Fixed(KernelId(1))),
        );
        let p = b.build().unwrap();
        let count = AtomicU64::new(0);
        let mut bodies = BodyTable::new(&p);
        bodies.set(w, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        let arena = arena(&p, 2, TsuConfig::default());
        run(&arena, 0, &bodies);
        let kernel0 = &arena.report(Duration::ZERO).kernels[0];
        assert_eq!(kernel0.executed as usize, p.total_instances());
        assert_eq!(kernel0.steals, 6);
        assert_eq!(count.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn funneled_kernels_drain_a_reduction_program() {
        // a wide reduction on two kernels batches: the flushes must still
        // drive the program to completion with exact counters
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let w = b.thread(blk, ThreadSpec::new("w", 32));
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        b.arc(w, sink, ArcMapping::Reduction).unwrap();
        let p = b.build().unwrap();
        let count = AtomicU64::new(0);
        let mut bodies = BodyTable::new(&p);
        bodies.set(w, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        let arena = arena(&p, 2, TsuConfig::default());
        std::thread::scope(|s| {
            s.spawn(|| run(&arena, 0, &bodies));
            run(&arena, 1, &bodies);
        });
        let report = arena.report(Duration::ZERO);
        assert_eq!(report.total_executed() as usize, p.total_instances());
        assert!(arena.soft.finished());
        assert_eq!(count.load(Ordering::Relaxed), 32);
        assert_eq!(report.tsu.completions as usize, p.total_instances());
        // batching really combined decrements: fewer physical RMWs than
        // logical updates
        assert!(
            report.tsu.rc_rmws < report.tsu.rc_updates,
            "{} !< {}",
            report.tsu.rc_rmws,
            report.tsu.rc_updates
        );
    }

    #[test]
    fn a_foreign_push_wakes_its_parked_owner() {
        // a 2 000-link chain whose every link is pinned to the other
        // kernel, no stealing: each hand-over is a foreign push, and a
        // lost wake-up costs its link a full backstop (2 s in all)
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let mut prev = None;
        for link in 0..2_000u32 {
            let on = Affinity::Fixed(KernelId(link % 2));
            let t = b.thread(blk, ThreadSpec::scalar("link").with_affinity(on));
            if let Some(p) = prev {
                b.arc(p, t, ArcMapping::OneToOne).unwrap();
            }
            prev = Some(t);
        }
        let p = b.build().unwrap();
        let tsu = TsuConfig {
            steal: false,
            ..TsuConfig::default()
        };
        let runtime = crate::Runtime::new(crate::RuntimeConfig::with_kernels(2).tsu(tsu));
        let report = runtime.run(&p, &BodyTable::new(&p)).unwrap();
        assert_eq!(report.total_executed() as usize, p.total_instances());
        assert!(report.wall < Duration::from_secs(1), "{:?}", report.wall);
        let parks: u64 = report.kernels.iter().map(|k| k.blocked_pops).sum();
        let waited: u64 = report.kernels.iter().map(|k| k.wait_ns).sum();
        assert!(parks > 0 && waited > 0, "{:?}", report.kernels);
        // a park ends on its ring, not on the backstop
        let mean = Duration::from_nanos(waited / parks);
        assert!(mean < KERNEL_BACKSTOP / 2, "{mean:?} per park");
    }

    #[test]
    fn a_lone_kernel_never_parks() {
        // kernel 0 of 2 running alone: 30 producers under batches of 8
        // leave 6 parked at the last `Wait`; their flush readies the sink
        // (a scalar, so kernel 0's) on this kernel's own queue, which rings
        // nothing, so only the look after the flush finds it
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let w = b.thread(blk, ThreadSpec::new("w", 30));
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        b.arc(w, sink, ArcMapping::Reduction).unwrap();
        let p = b.build().unwrap();
        let arena = arena(&p, 2, TsuConfig::default());
        assert_eq!(tflux_core::funnel_batch(&p, 2), tflux_core::FUNNEL_BATCH);
        run(&arena, 0, &BodyTable::new(&p));
        let report = arena.report(Duration::ZERO);
        assert_eq!(report.total_executed() as usize, p.total_instances());
        assert!(
            report.tsu.rc_rmws < report.tsu.rc_updates,
            "batches applied"
        );
        assert_eq!(report.kernels[0].blocked_pops, 0);
        assert_eq!(report.kernels[0].wait_ns, 0);
    }
}
