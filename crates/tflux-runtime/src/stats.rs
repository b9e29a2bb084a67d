//! Execution reports for TFluxSoft runs, and the stall forensics report
//! assembled when the watchdog fires or a deadline passes.

use crate::kernel::BodyPanic;
use std::fmt;
use std::time::Duration;
use tflux_core::{Instance, KernelId, ProgramId, TsuStats, WaitingInstance};

/// Per-kernel counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// DThread instances this kernel executed.
    pub executed: u64,
    /// Nanoseconds spent parked on the kernel's own queue's bell.
    pub wait_ns: u64,
    /// `Wait` fetches after which the kernel parked: one per park, each
    /// ended by a ring or the 1 ms backstop.
    pub blocked_pops: u64,
    /// Instances this kernel took from sibling queues and executed
    /// (successful steals). `executed - steals` is therefore the count of
    /// locally-served completions: together they are the stolen-vs-local
    /// split of this kernel's work.
    pub steals: u64,
    /// Victim probes that found the victim empty — including victims
    /// drained between the thief's length snapshot and the steal (the
    /// clean-miss path). High misses with low steals means this kernel
    /// kept scanning an idle machine.
    pub steal_misses: u64,
    /// Steal CAS attempts lost to the victim's owner or another thief.
    /// Each race is a wasted CAS, not lost work — the entry went to the
    /// winner. High races mean thieves piled onto the same victim.
    pub steal_races: u64,
    /// Logical ready-count decrements this kernel's completions applied.
    pub rc_updates: u64,
    /// Physical ready-count RMWs that carried them: fewer than
    /// `rc_updates` when the completion funnel batches.
    pub rc_rmws: u64,
    /// Contention events this kernel met in the Synchronization Memory:
    /// slot-state CAS retries plus updates of a slot whose previous update
    /// came from a producer on a different kernel. High sums mean many
    /// kernels' completions pile into the same consumer slots — the
    /// signature batching completion funnels flatten.
    pub sm_contended: u64,
    /// Panicked body attempts that were re-dispatched under the
    /// [`RetryPolicy`](crate::RetryPolicy).
    pub retries: u64,
    /// Instances whose completion was withheld after retry exhaustion
    /// (`poison_on_exhaust`); their consumers never fire.
    pub poisoned: u64,
}

/// The counters the frozen bench reads off [`RunReport::tub`]. No run path
/// publishes through a TUB, so both read zero; the type leaves with that
/// field in ROADMAP item 1. `figures -- tub` simulates the segmented TUB
/// (`tflux_sim::simulate_tub`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TubSnapshot {
    /// Completions published.
    pub pushes: u64,
    /// Segment `try_lock` attempts that found the segment busy.
    pub busy_hits: u64,
}

/// The result of one [`crate::Runtime::run`].
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Wall-clock duration of the whole run (kernel launch to last join).
    pub wall: Duration,
    /// TSU state-machine counters (completions, ready-count updates, …).
    pub tsu: TsuStats,
    /// All zero, kept for the frozen bench: leaves with ROADMAP item 1.
    pub tub: TubSnapshot,
    /// Per-kernel counters, indexed by kernel id.
    pub kernels: Vec<KernelStats>,
}

impl RunReport {
    /// Total DThread instances executed across kernels.
    pub fn total_executed(&self) -> u64 {
        self.kernels.iter().map(|k| k.executed).sum()
    }

    /// Total successful steals across kernels (instances executed away
    /// from their owning kernel's queue).
    pub fn total_steals(&self) -> u64 {
        self.kernels.iter().map(|k| k.steals).sum()
    }
}

/// The result of one program's run through a
/// [`ProgramServer`](crate::server::ProgramServer): the per-tenant analogue
/// of [`RunReport`], assembled by the same code from the tenant's private
/// arena — so every counter is exact, not shared with co-resident programs.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// The id the server assigned this program at admission.
    pub id: ProgramId,
    /// Wall-clock duration from admission to the finishing completion.
    pub wall: Duration,
    /// This tenant's TSU counters.
    pub tsu: TsuStats,
    /// What each pool kernel did for this tenant, indexed by kernel id
    /// (`wait_ns` and `blocked_pops` stay 0: pool kernels park on the
    /// pool's eventcount, never on a tenant's queue).
    pub kernels: Vec<KernelStats>,
    /// DThread instances of this program executed by the kernel pool: the
    /// sum of `kernels[].executed`.
    pub executed: u64,
}

/// An instance that was dispatched but never completed — the prime suspect
/// in a stall (its body may be stuck, its completion may have been
/// poisoned after retry exhaustion, or — instances are dispatched before
/// they are queued — no kernel ever popped it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InFlightInstance {
    /// The dispatched-but-unfinished instance.
    pub instance: Instance,
    /// The instance's *owning* kernel, whose ready queue it was pushed on
    /// — not necessarily the executor: a thief may have taken it.
    pub kernel: KernelId,
}

/// Why a program was cancelled with a [`StallReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallCause {
    /// No DThread completed for the whole watchdog interval.
    Watchdog,
    /// The submission's deadline passed; the program may well have been
    /// making progress.
    Deadline,
}

/// Forensic snapshot assembled when the watchdog declares a run stalled or
/// its deadline cancels it.
///
/// Instead of discarding the runtime state at abort, the supervisor walks
/// the TSU Synchronization Memory and reports *who* is stuck and *why*:
/// every resident instance still waiting on producers (with its remaining
/// ready count), every instance dispatched to a kernel that never published
/// a completion, the ready-queue depths, and the TSU/kernel counters at the
/// moment of the verdict. Carried by
/// [`RuntimeError::Stalled`](crate::RuntimeError) and pretty-printed by its
/// [`Display`](fmt::Display) impl.
#[derive(Clone, Debug)]
pub struct StallReport {
    /// What ended the program.
    pub cause: StallCause,
    /// How long ago the last completion was seen.
    pub idle: Duration,
    /// TSU counters at the moment of the stall.
    pub stats: TsuStats,
    /// Resident instances still waiting on producer completions.
    pub waiting: Vec<WaitingInstance>,
    /// Instances dispatched to a kernel but never completed.
    pub in_flight: Vec<InFlightInstance>,
    /// Ready-queue depth per kernel at the moment of the stall.
    pub queue_depths: Vec<usize>,
    /// Per-kernel counters at the moment of the stall.
    pub kernels: Vec<KernelStats>,
    /// Body panics recorded before the stall (a poisoned producer is the
    /// most common stall cause).
    pub panics: Vec<BodyPanic>,
}

/// How many waiting / in-flight / panicked entries [`StallReport`]'s
/// `Display` lists before truncating with an "… and N more" line.
const STALL_DISPLAY_CAP: usize = 8;

/// One `line` per item, up to [`STALL_DISPLAY_CAP`], then "… and N more".
fn list<T>(
    f: &mut fmt::Formatter<'_>,
    items: &[T],
    mut line: impl FnMut(&mut fmt::Formatter<'_>, &T) -> fmt::Result,
) -> fmt::Result {
    for item in items.iter().take(STALL_DISPLAY_CAP) {
        line(f, item)?;
    }
    match items.len().saturating_sub(STALL_DISPLAY_CAP) {
        0 => Ok(()),
        more => writeln!(f, "    … and {more} more"),
    }
}

fn plural(n: u64) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.cause {
            StallCause::Watchdog => writeln!(
                f,
                "run stalled: no completion for {:?} (watchdog fired)",
                self.idle
            )?,
            StallCause::Deadline => writeln!(
                f,
                "run cancelled: deadline passed (last completion {:?} ago)",
                self.idle
            )?,
        }
        writeln!(f, "  waiting instances: {}", self.waiting.len())?;
        list(f, &self.waiting, |f, w| {
            let (n, s) = (w.remaining, plural(w.remaining as u64));
            writeln!(f, "    {} needs {n} more completion{s}", w.instance)
        })?;
        writeln!(
            f,
            "  dispatched but never completed: {}",
            self.in_flight.len()
        )?;
        list(f, &self.in_flight, |f, i| {
            writeln!(f, "    {} on {}", i.instance, i.kernel)
        })?;
        writeln!(f, "  ready-queue depths: {:?}", self.queue_depths)?;
        writeln!(
            f,
            "  tsu: {} completions, {} fetches, {} rc updates, {} blocks loaded",
            self.stats.completions,
            self.stats.fetches,
            self.stats.rc_updates,
            self.stats.blocks_loaded
        )?;
        let poisoned: u64 = self.kernels.iter().map(|k| k.poisoned).sum();
        writeln!(
            f,
            "  kernels: {}, {poisoned} poisoned instance{}",
            self.kernels.len(),
            plural(poisoned)
        )?;
        writeln!(f, "  body panics before the stall: {}", self.panics.len())?;
        list(f, &self.panics, |f, p| {
            let (n, s) = (p.attempts, plural(p.attempts as u64));
            writeln!(f, "    {} after {n} attempt{s}: {}", p.instance, p.message)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_retries(r: &RunReport) -> u64 {
        r.kernels.iter().map(|k| k.retries).sum()
    }

    fn total_poisoned(r: &RunReport) -> u64 {
        r.kernels.iter().map(|k| k.poisoned).sum()
    }

    /// Coefficient of variation of per-kernel executed counts — a quick
    /// load-balance indicator (0 = perfectly balanced).
    fn load_imbalance(r: &RunReport) -> f64 {
        let n = r.kernels.len() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let mean = r.total_executed() as f64 / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = r
            .kernels
            .iter()
            .map(|k| {
                let d = k.executed as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    }

    #[test]
    fn imbalance_zero_when_balanced() {
        let r = RunReport {
            wall: Duration::from_millis(1),
            tsu: TsuStats::default(),
            tub: TubSnapshot::default(),
            kernels: vec![
                KernelStats {
                    executed: 5,
                    ..Default::default()
                },
                KernelStats {
                    executed: 5,
                    ..Default::default()
                },
            ],
        };
        assert_eq!(r.total_executed(), 10);
        assert_eq!(load_imbalance(&r), 0.0);
    }

    #[test]
    fn imbalance_positive_when_skewed() {
        let r = RunReport {
            wall: Duration::from_millis(1),
            tsu: TsuStats::default(),
            tub: TubSnapshot::default(),
            kernels: vec![
                KernelStats {
                    executed: 10,
                    ..Default::default()
                },
                KernelStats {
                    executed: 0,
                    ..Default::default()
                },
            ],
        };
        assert!(load_imbalance(&r) > 0.9);
    }

    #[test]
    fn stall_report_display_names_the_stuck_instances() {
        use tflux_core::{Context, ThreadId};
        let mut report = StallReport {
            cause: StallCause::Watchdog,
            idle: Duration::from_millis(250),
            stats: TsuStats::default(),
            waiting: vec![WaitingInstance {
                instance: Instance::new(ThreadId(1), Context(0)),
                remaining: 1,
            }],
            in_flight: vec![InFlightInstance {
                instance: Instance::new(ThreadId(0), Context(0)),
                kernel: KernelId(2),
            }],
            queue_depths: vec![0, 0, 1],
            kernels: vec![KernelStats {
                poisoned: 1,
                ..Default::default()
            }],
            panics: vec![BodyPanic {
                instance: Instance::new(ThreadId(0), Context(0)),
                message: "boom".into(),
                attempts: 2,
            }],
        };
        let text = format!("{report}");
        assert!(text.starts_with("run stalled: no completion for 250ms (watchdog fired)\n"));
        assert!(text.contains(&format!("{}", Instance::new(ThreadId(1), Context(0)))));
        assert!(text.contains("needs 1 more completion"));
        assert!(text.contains(&format!("on {}", KernelId(2))));
        assert!(text.contains("1 poisoned instance"));
        assert!(text.contains("after 2 attempts: boom"));
        // a deadline says so instead of blaming a watchdog that never fired
        report.cause = StallCause::Deadline;
        let text = format!("{report}");
        assert!(text.starts_with("run cancelled: deadline passed (last completion 250ms ago)\n"));
        assert!(!text.contains("watchdog"));
    }

    #[test]
    fn retry_totals_sum_over_kernels() {
        let r = RunReport {
            wall: Duration::ZERO,
            tsu: TsuStats::default(),
            tub: TubSnapshot::default(),
            kernels: vec![
                KernelStats {
                    retries: 2,
                    poisoned: 1,
                    ..Default::default()
                },
                KernelStats {
                    retries: 3,
                    ..Default::default()
                },
            ],
        };
        assert_eq!(total_retries(&r), 5);
        assert_eq!(total_poisoned(&r), 1);
    }

    #[test]
    fn single_kernel_has_no_imbalance() {
        let r = RunReport {
            wall: Duration::ZERO,
            tsu: TsuStats::default(),
            tub: TubSnapshot::default(),
            kernels: vec![KernelStats {
                executed: 3,
                ..Default::default()
            }],
        };
        assert_eq!(load_imbalance(&r), 0.0);
    }
}
