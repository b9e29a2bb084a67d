//! The Kernel loop (Fig. 2 of the paper).
//!
//! A kernel is "a simple user-level process" — here an OS thread — that
//! alternates between the *FindReadyThread* loop and application DThread
//! code. Fetching goes through the shared [`SoftTsu`]: own ready queue
//! first, then (policy permitting) stealing from the most loaded sibling.
//!
//! Completion is split by DThread kind. *Application* completions take the
//! direct-update path: the kernel runs the Post-Processing Phase itself
//! through the lock-free Synchronization Memory and pushes newly-ready
//! instances on their owners' queues — no TUB hop, no emulator round-trip.
//! *Inlet*/*Outlet* completions (block loading and unloading) are published
//! into the segmented [TUB](crate::tub::Tub) for the TSU Emulator, which
//! serializes block transitions and keeps the watchdog.

use crate::body::{BodyCtx, BodyTable};
use crate::faults::{BodyFault, FaultInjector};
use crate::runtime::RetryPolicy;
use crate::sm::SoftTsu;
use crate::stats::KernelStats;
use crate::sync::lock;
use crate::tub::Tub;
use std::sync::Mutex;
use std::time::Duration;
use tflux_core::error::CoreError;
use tflux_core::ids::{Epoch, Instance, KernelId};
use tflux_core::thread::ThreadKind;
use tflux_core::tsu::{CompletionFunnel, FetchResult, ProgramHandle};

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
pub type PanicSink = Mutex<Vec<BodyPanic>>;

/// How long a stealing kernel blocks on its own queue between victim
/// rescans.
const STEAL_RESCAN: Duration = Duration::from_millis(1);

/// Run one Post-Processing operation on the shared TSU with its failures
/// contained. A typed protocol error is reported through the TUB for the
/// emulator and the caller keeps going — its next fetch surfaces the abort.
/// An unwind has already poisoned the Synchronization Memory (its
/// drop-guard latches the flag); containing it here lets the kernel
/// surface the typed error and exit cleanly instead of dying mid-update:
/// `Err(())` tells it to break out of its loop. Shared by the
/// single-program kernel loop below and the multi-program server's kernel
/// pool.
pub(crate) fn contained<P: ProgramHandle>(
    tsu: &SoftTsu<P>,
    tub: &Tub,
    op: impl FnOnce() -> Result<(), CoreError>,
) -> Result<(), ()> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)) {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => {
            tub.raise(e);
            Ok(())
        }
        Err(_) => {
            tsu.poison();
            tub.raise(CoreError::SmPoisoned);
            Err(())
        }
    }
}

/// Flush a kernel's completion funnel through the shared TSU, failures
/// [`contained`].
fn flush_funnel<P: ProgramHandle>(
    funnel: &mut CompletionFunnel,
    tsu: &SoftTsu<P>,
    tub: &Tub,
    scratch: &mut Vec<Instance>,
) -> Result<(), ()> {
    if funnel.is_empty() {
        return Ok(());
    }
    contained(tsu, tub, || funnel.flush(tsu, scratch))
}

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
/// poisons exhausted instances. Shared by the single-program kernel loop
/// below and the multi-program server's kernel pool.
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

/// Publish one completion, split by DThread kind. An *App* completion is
/// the direct update: post-processed on the calling kernel's thread,
/// failures [`contained`]. *Inlet*/*Outlet* completions stay serialized
/// through the emulator and travel by TUB.
fn publish_completion<P: ProgramHandle, F: FaultInjector>(
    tsu: &SoftTsu<P>,
    tub: &Tub,
    instance: Instance,
    epoch: Epoch,
    injector: &F,
    scratch: &mut Vec<Instance>,
) -> Result<(), ()> {
    match tsu.graph().kind(instance.thread) {
        ThreadKind::App => contained(tsu, tub, || tsu.complete(instance, epoch, scratch)),
        ThreadKind::Inlet | ThreadKind::Outlet => {
            tub.push_with(instance, epoch, injector);
            Ok(())
        }
    }
}

/// Run one kernel to completion. Returns this kernel's counters.
///
/// The loop mirrors Fig. 2: the first instance a kernel receives is (for
/// kernel 0) the first block's Inlet; every completion jumps back to the
/// FindReadyThread point; the Exit signal raised after the last block's
/// Outlet "forces its Kernel to exit".
pub fn run_kernel<P: ProgramHandle, F: FaultInjector>(
    kernel: KernelId,
    tsu: &SoftTsu<P>,
    bodies: &BodyTable<'_>,
    tub: &Tub,
    panics: &PanicSink,
    injector: &F,
    retry: RetryPolicy,
) -> KernelStats {
    let mut executed = 0u64;
    let mut retries = 0u64;
    let mut poisoned = 0u64;
    let mut iterations = 0u64;
    let mut scratch: Vec<Instance> = Vec::new();
    // App completions park here under FlushPolicy::Batch and reach the SM
    // as combined batches; under the Direct policy the funnel stays empty.
    let mut funnel = CompletionFunnel::new(tsu.flush_policy());
    let queue = &tsu.queues()[tsu.queue_index(kernel)];

    loop {
        iterations += 1;
        if let Some(d) = injector.kernel_stall(kernel, iterations) {
            std::thread::sleep(d);
        }
        // non-blocking fetch (own queue, then steal); fall back to a
        // blocking pop on the own queue when nothing is runnable anywhere —
        // bounded for stealers, which must periodically rescan victims
        let fetched = match tsu.fetch(kernel) {
            Ok(FetchResult::Wait) => {
                // flush before blocking: the parked decrements may be the
                // very ones this kernel (or a sibling) is waiting on
                if flush_funnel(&mut funnel, tsu, tub, &mut scratch).is_err() {
                    break;
                }
                if tsu.stealing() {
                    queue.pop_timeout(STEAL_RESCAN)
                } else {
                    queue.pop()
                }
            }
            Ok(r) => r,
            Err(e) => {
                // poisoned SM or a scheduler protocol bug: abort the run
                tub.raise(e);
                break;
            }
        };
        let (instance, epoch) = match fetched {
            FetchResult::Thread(i, ep) => (i, ep),
            FetchResult::Exit => break,
            FetchResult::Wait => continue,
        };

        // Direct closure call: kernel→DThread transition without OS
        // involvement, as in §3.2. A panicking body is contained: if the
        // body is idempotent it is re-dispatched up to the retry budget;
        // otherwise the completion is still published (the alternative is a
        // deadlocked program, unless the policy poisons the instance on
        // purpose) and the failure is reported after the run.
        let outcome = execute_body(kernel, instance, bodies, panics, injector, retry);
        retries += outcome.retries;
        executed += 1;
        if !outcome.publish {
            poisoned += 1;
            continue;
        }
        if funnel.batching() && tsu.graph().kind(instance.thread) == ThreadKind::App {
            // park the completion; a full funnel flushes as one batch
            if funnel.push(instance, epoch)
                && flush_funnel(&mut funnel, tsu, tub, &mut scratch).is_err()
            {
                break;
            }
            continue;
        }
        // a block transition flushes the funnel first, so the emulator's
        // post-processing sees every App decrement this kernel produced
        if flush_funnel(&mut funnel, tsu, tub, &mut scratch).is_err()
            || publish_completion(tsu, tub, instance, epoch, injector, &mut scratch).is_err()
        {
            break;
        }
    }
    // drain anything still parked (e.g. a break on a reported protocol
    // error) so no completion is silently dropped; failures here have
    // already been reported by the helper
    let _ = flush_funnel(&mut funnel, tsu, tub, &mut scratch);
    let sched = tsu.kernel_stats(kernel);
    KernelStats {
        executed,
        wait_ns: queue.wait_nanos(),
        blocked_pops: queue.blocked_pops(),
        steals: sched.steals,
        steal_misses: sched.steal_misses,
        steal_races: sched.steal_races,
        retries,
        poisoned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::BodyTable;
    use crate::faults::NoFaults;
    use crate::sm::shutdown;
    use std::sync::atomic::{AtomicU64, Ordering};
    use tflux_core::prelude::*;
    use tflux_core::tsu::QueueUnit;

    /// A minimal emulator stand-in: drain the TUB, post-process block
    /// transitions, shut the queues down when the program finishes.
    fn drive(soft: &SoftTsu<&DdmProgram>, tub: &Tub) {
        let mut batch = Vec::new();
        let mut scratch = Vec::new();
        while !soft.finished() {
            if tub.take_error().is_some() {
                break;
            }
            batch.clear();
            if tub.drain_into(&mut batch) == 0 {
                tub.wait(Duration::from_millis(1));
                continue;
            }
            for &(i, ep) in batch.iter() {
                soft.complete(i, ep, &mut scratch).unwrap();
            }
        }
        shutdown(soft);
    }

    /// `run_kernel` with no injected faults and the default retry policy.
    fn run(
        kernel: u32,
        soft: &SoftTsu<&DdmProgram>,
        bodies: &BodyTable<'_>,
        tub: &Tub,
        panics: &PanicSink,
    ) -> KernelStats {
        let retry = RetryPolicy::default();
        run_kernel(
            KernelId(kernel),
            soft,
            bodies,
            tub,
            panics,
            &NoFaults,
            retry,
        )
    }

    fn work_program(arity: u32) -> (DdmProgram, ThreadId) {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let w = b.thread(blk, ThreadSpec::new("w", arity));
        (b.build().unwrap(), w)
    }

    #[test]
    fn kernel_runs_a_program_end_to_end() {
        let (p, w) = work_program(4);
        let hits = AtomicU64::new(0);
        let mut bodies = BodyTable::new(&p);
        bodies.set(w, |c| {
            hits.fetch_add(1 + c.context.0 as u64, Ordering::Relaxed);
        });
        let soft = SoftTsu::with_queue_unit(&p, 1, TsuConfig::default());
        let tub = Tub::new(2);
        let stats = std::thread::scope(|s| {
            let h = s.spawn(|| run(0, &soft, &bodies, &tub, &PanicSink::default()));
            drive(&soft, &tub);
            h.join().unwrap()
        });
        assert_eq!(stats.executed as usize, p.total_instances());
        assert_eq!(hits.load(Ordering::Relaxed), 4 + 1 + 2 + 3);
        assert!(soft.finished());
        assert_eq!(soft.completions() as usize, p.total_instances());
    }

    #[test]
    fn panicking_body_is_contained_and_reported() {
        let (p, w) = work_program(3);
        let mut bodies = BodyTable::new(&p);
        bodies.set(w, |c| {
            if c.context.0 == 1 {
                panic!("boom at {:?}", c.context);
            }
        });
        let soft = SoftTsu::with_queue_unit(&p, 1, TsuConfig::default());
        let tub = Tub::new(1);
        let sink = PanicSink::default();
        let stats = std::thread::scope(|s| {
            let h = s.spawn(|| run(0, &soft, &bodies, &tub, &sink));
            drive(&soft, &tub);
            h.join().unwrap()
        });
        // the panic did not kill the kernel, and the completion was still
        // published so the whole program drained
        assert_eq!(stats.executed as usize, p.total_instances());
        assert!(soft.finished());
        let panics = sink.into_inner().unwrap();
        assert_eq!(panics.len(), 1);
        assert_eq!(panics[0].instance, Instance::new(w, Context(1)));
        assert!(panics[0].message.contains("boom"));
    }

    #[test]
    fn kernel_with_shut_down_queue_exits_cleanly() {
        let (p, _) = work_program(2);
        let bodies = BodyTable::new(&p);
        let soft = SoftTsu::with_queue_unit(
            &p,
            2,
            TsuConfig {
                steal: false,
                ..Default::default()
            },
        );
        let tub = Tub::new(1);
        shutdown(&soft);
        // kernel 1's queue is empty (the armed inlet sits on kernel 0's)
        let stats = run(1, &soft, &bodies, &tub, &PanicSink::default());
        assert_eq!(stats.executed, 0);
    }

    #[test]
    fn body_ctx_reports_kernel_and_context() {
        let (p, w) = work_program(2);
        let seen = Mutex::new(Vec::new());
        let mut bodies = BodyTable::new(&p);
        bodies.set(w, |c| {
            seen.lock().unwrap().push((c.kernel, c.context));
        });
        let soft = SoftTsu::with_queue_unit(&p, 1, TsuConfig::default());
        let tub = Tub::new(1);
        std::thread::scope(|s| {
            // kernel id 3 on a 1-queue TSU: the clamp routes it to queue 0
            let h = s.spawn(|| run(3, &soft, &bodies, &tub, &PanicSink::default()));
            drive(&soft, &tub);
            h.join().unwrap()
        });
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
        let soft = SoftTsu::with_queue_unit(&p, 2, TsuConfig::default());
        let tub = Tub::new(1);
        let stats = std::thread::scope(|s| {
            let h = s.spawn(|| run(0, &soft, &bodies, &tub, &PanicSink::default()));
            drive(&soft, &tub);
            h.join().unwrap()
        });
        assert_eq!(stats.executed as usize, p.total_instances());
        assert_eq!(stats.steals, 6);
        assert_eq!(count.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn funneled_kernels_drain_a_reduction_program() {
        // wide reduction with the funnels on: batched flushes must still
        // drive the program to completion with exact counters
        use tflux_core::tsu::FlushPolicy;
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
        let soft = SoftTsu::with_queue_unit(
            &p,
            2,
            TsuConfig {
                flush: FlushPolicy::Batch { size: 8 },
                ..TsuConfig::default()
            },
        );
        let tub = Tub::new(2);
        let sink_panics = PanicSink::default();
        let executed: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2u32)
                .map(|k| {
                    let (soft, bodies, tub, sink_panics) = (&soft, &bodies, &tub, &sink_panics);
                    s.spawn(move || run(k, soft, bodies, tub, sink_panics))
                })
                .collect();
            drive(&soft, &tub);
            handles
                .into_iter()
                .map(|h| h.join().unwrap().executed)
                .sum()
        });
        assert_eq!(executed as usize, p.total_instances());
        assert!(soft.finished());
        assert_eq!(count.load(Ordering::Relaxed), 32);
        let stats = soft.stats();
        assert_eq!(stats.completions as usize, p.total_instances());
        // batching really combined decrements: fewer physical RMWs than
        // logical updates
        assert!(
            stats.rc_rmws < stats.rc_updates,
            "{} !< {}",
            stats.rc_rmws,
            stats.rc_updates
        );
    }

    #[test]
    fn non_stealing_kernel_ignores_other_queues() {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let w = b.thread(
            blk,
            ThreadSpec::new("w", 3).with_affinity(Affinity::Fixed(KernelId(1))),
        );
        let p = b.build().unwrap();
        let executed_w = AtomicU64::new(0);
        let mut bodies = BodyTable::new(&p);
        bodies.set(w, |_| {
            executed_w.fetch_add(1, Ordering::Relaxed);
        });
        let soft = SoftTsu::with_queue_unit(
            &p,
            2,
            TsuConfig {
                steal: false,
                ..Default::default()
            },
        );
        let tub = Tub::new(1);
        let stats = std::thread::scope(|s| {
            let soft = &soft;
            let tub = &tub;
            let bodies = &bodies;
            let h = s.spawn(move || run(0, soft, bodies, tub, &PanicSink::default()));
            // process the inlet's TUB entry so the block loads and the
            // pinned work lands on kernel 1's (unserved) queue
            let mut batch = Vec::new();
            let mut scratch = Vec::new();
            while soft.queues()[1].len() < 3 {
                batch.clear();
                tub.drain_into(&mut batch);
                for &(i, ep) in batch.iter() {
                    soft.complete(i, ep, &mut scratch).unwrap();
                }
                std::thread::yield_now();
            }
            // give the non-stealing kernel a moment to (not) take it
            std::thread::sleep(Duration::from_millis(20));
            shutdown(soft);
            h.join().unwrap()
        });
        assert_eq!(stats.executed, 1, "only the inlet runs on kernel 0");
        assert_eq!(stats.steals, 0);
        assert_eq!(executed_w.load(Ordering::Relaxed), 0);
        assert_eq!(soft.queues()[1].len(), 3, "victim queue untouched");
    }
}
