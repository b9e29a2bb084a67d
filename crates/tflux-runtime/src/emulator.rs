//! The TSU Emulator (§4.2 of the paper), after the direct-update split.
//!
//! "The code of the TSU Emulator is executed by an independent POSIX
//! thread." It used to own the whole TSU state machine; with the
//! Synchronization Memory sharded and shared (see [`SoftTsu`]), kernels
//! post-process *application* completions themselves, and the emulator's
//! job shrinks to what genuinely needs one owner:
//!
//! * draining the [TUB](crate::tub::Tub) of Inlet/Outlet completions and
//!   running the block transitions they trigger (loading the next DDM
//!   block, unloading a finished one — serialized by program structure
//!   anyway);
//! * the watchdog: declaring the run stalled, with forensics, when no
//!   completion happens for too long;
//! * collecting TSU protocol errors the kernels raise on their direct
//!   path (latched in the TUB).
//!
//! For robustness the drain loop still accepts *any* completion kind from
//! the TUB — an inline test kernel may publish everything through it.

use crate::faults::FaultInjector;
use crate::sm::{shutdown, SoftTsu};
use crate::stats::{InFlightInstance, StallReport};
use crate::tub::Tub;
use std::time::{Duration, Instant};
use tflux_core::error::CoreError;
use tflux_core::ids::{Epoch, Instance};
use tflux_core::tsu::{ProgramHandle, QueueUnit, TsuStats};

/// Why the emulator stopped.
#[derive(Debug)]
pub enum EmulatorExit {
    /// The last block's outlet completed; the program is done.
    Finished(TsuStats),
    /// A TSU protocol error (e.g. a block larger than the TSU capacity),
    /// raised here on a block transition or latched by a kernel on the
    /// direct-update path.
    Protocol(CoreError),
    /// No completion arrived within the watchdog interval while DThreads
    /// were outstanding — some kernel or body is stuck. The report walks
    /// the TSU state at the moment the watchdog fired; the runtime fills
    /// in the per-kernel counters and recorded panics after joining.
    Stalled {
        /// Forensics gathered from the TSU Synchronization Memory.
        report: Box<StallReport>,
    },
}

/// Watchdog forensics: walk the Synchronization Memory before tearing it
/// down, so the abort names the stuck instances instead of discarding the
/// evidence. Per-kernel counters and panics are filled in by the caller
/// after joining its kernels. Shared with the multi-program server's
/// supervisor, which keeps the watchdog for every tenant.
pub(crate) fn stall_report<P: ProgramHandle>(
    soft: &SoftTsu<P>,
    tub: &Tub,
    idle: Duration,
) -> StallReport {
    let gm = soft.graph();
    StallReport {
        idle,
        stats: soft.stats(),
        tub: tub.stats().snapshot(),
        waiting: soft.waiting_instances(),
        in_flight: soft
            .running_instances()
            .into_iter()
            .map(|i| InFlightInstance {
                instance: i,
                kernel: gm.owner_of(i),
            })
            .collect(),
        queue_depths: soft.queues().iter().map(|q| q.len()).collect(),
        kernels: Vec::new(),
        panics: Vec::new(),
    }
}

/// Run the TSU Emulator until the program finishes or fails.
///
/// On any exit path the kernels' queues are shut down, so kernel threads
/// always terminate. Progress, for the watchdog, is any completion — the
/// direct-update counter covers the kernels' App completions, the TUB
/// drain covers block transitions. The `injector` can jitter the drain
/// loop (`drain_jitter` site); pass [`NoFaults`](crate::faults::NoFaults)
/// for a production run.
pub fn run_emulator<P: ProgramHandle, F: FaultInjector>(
    soft: &SoftTsu<P>,
    tub: &Tub,
    watchdog: Duration,
    injector: &F,
) -> EmulatorExit {
    let mut batch: Vec<(Instance, Epoch)> = Vec::new();
    let mut scratch: Vec<Instance> = Vec::new();
    let mut last_progress = Instant::now();
    let mut seen_completions = soft.completions();
    let mut round = 0u64;
    loop {
        round += 1;
        if let Some(d) = injector.drain_jitter(round) {
            std::thread::sleep(d);
        }
        // a kernel hit a protocol error on the direct path and kicked us
        if let Some(e) = tub.take_error() {
            shutdown(soft);
            return EmulatorExit::Protocol(e);
        }
        batch.clear();
        let drained = tub.drain_into(&mut batch);
        for &(done, ep) in batch.iter() {
            if let Err(e) = soft.complete(done, ep, &mut scratch) {
                shutdown(soft);
                return EmulatorExit::Protocol(e);
            }
        }
        if soft.finished() {
            shutdown(soft);
            return EmulatorExit::Finished(soft.stats());
        }
        let completions = soft.completions();
        if drained > 0 || completions != seen_completions {
            seen_completions = completions;
            last_progress = Instant::now();
            continue;
        }
        if last_progress.elapsed() >= watchdog {
            let report = stall_report(soft, tub, last_progress.elapsed());
            shutdown(soft);
            return EmulatorExit::Stalled {
                report: Box::new(report),
            };
        }
        tub.wait(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::NoFaults;
    use std::sync::atomic::{AtomicU64, Ordering};
    use tflux_core::prelude::*;
    use tflux_core::tsu::{FetchResult, TsuConfig};

    fn fork_join(arity: u32) -> DdmProgram {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let src = b.thread(blk, ThreadSpec::scalar("src"));
        let work = b.thread(blk, ThreadSpec::new("work", arity));
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        b.arc(src, work, ArcMapping::Broadcast).unwrap();
        b.arc(work, sink, ArcMapping::Reduction).unwrap();
        b.build().unwrap()
    }

    /// Emulator + an inline "kernel" on a test thread that publishes every
    /// completion — App included — through the TUB: the drain loop must
    /// accept all kinds, not just block transitions.
    #[test]
    fn emulator_drives_single_inline_kernel() {
        let p = fork_join(4);
        let soft = SoftTsu::with_queue_unit(&p, 1, TsuConfig::default());
        let tub = Tub::new(2);
        let executed = AtomicU64::new(0);

        std::thread::scope(|s| {
            let softref = &soft;
            let tubref = &tub;
            let exec = &executed;
            s.spawn(move || {
                while let FetchResult::Thread(i, ep) = softref.queues()[0].pop() {
                    exec.fetch_add(1, Ordering::Relaxed);
                    tubref.push(i, ep);
                }
            });
            let exit = run_emulator(softref, tubref, Duration::from_secs(30), &NoFaults);
            match exit {
                EmulatorExit::Finished(stats) => {
                    assert_eq!(stats.completions as usize, p.total_instances());
                }
                other => panic!("unexpected exit {other:?}"),
            }
        });
        assert_eq!(
            executed.load(Ordering::Relaxed) as usize,
            p.total_instances()
        );
    }

    #[test]
    fn watchdog_fires_when_kernels_never_complete() {
        let p = fork_join(2);
        let soft = SoftTsu::with_queue_unit(&p, 1, TsuConfig::default());
        let tub = Tub::new(1);
        // no kernel is running: the inlet is dispatched but never completes
        let exit = run_emulator(&soft, &tub, Duration::from_millis(50), &NoFaults);
        match exit {
            EmulatorExit::Stalled { report } => {
                assert!(report.idle >= Duration::from_millis(50));
                // the inlet was dispatched (armed at construction) and
                // never completed
                let inlet = p.blocks()[0].inlet;
                assert!(
                    report.in_flight.iter().any(|f| f.instance.thread == inlet),
                    "inlet should be in flight: {:?}",
                    report.in_flight
                );
                // the block never loaded (its inlet never completed), so
                // nothing is waiting on producers yet — the in-flight inlet
                // is the whole story
                assert!(report.waiting.is_empty(), "{:?}", report.waiting);
                assert_eq!(report.queue_depths.len(), 1);
            }
            other => panic!("unexpected exit {other:?}"),
        }
        // queue was shut down: a kernel popping now drains then exits
        assert!(matches!(
            soft.queues()[0].try_pop(),
            FetchResult::Thread(..) | FetchResult::Exit
        ));
    }

    #[test]
    fn protocol_error_reported_for_oversized_block() {
        let p = fork_join(64);
        let soft = SoftTsu::with_queue_unit(
            &p,
            1,
            TsuConfig {
                capacity: 8,
                ..Default::default()
            },
        );
        let tub = Tub::new(1);
        std::thread::scope(|s| {
            let softref = &soft;
            let tubref = &tub;
            s.spawn(move || {
                while let FetchResult::Thread(i, ep) = softref.queues()[0].pop() {
                    tubref.push(i, ep);
                }
            });
            let exit = run_emulator(softref, tubref, Duration::from_secs(5), &NoFaults);
            assert!(matches!(
                exit,
                EmulatorExit::Protocol(CoreError::BlockTooLarge { .. })
            ));
        });
    }

    #[test]
    fn latched_kernel_protocol_error_aborts_the_run() {
        let p = fork_join(2);
        let soft = SoftTsu::with_queue_unit(&p, 1, TsuConfig::default());
        let tub = Tub::new(1);
        let bogus = Instance::new(ThreadId(1), Context(0));
        tub.raise(CoreError::NotRunning(bogus));
        let exit = run_emulator(&soft, &tub, Duration::from_secs(5), &NoFaults);
        match exit {
            EmulatorExit::Protocol(CoreError::NotRunning(i)) => assert_eq!(i, bogus),
            other => panic!("unexpected exit {other:?}"),
        }
    }
}
