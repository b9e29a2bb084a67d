//! Deterministic fault injection for the TFluxSoft runtime.
//!
//! The paper's claim is that DDM scheduling runs reliably on a purely
//! software TSU (§4.2). To test that claim under adverse timing — not just
//! on the happy path — a [`FaultInjector`] is consulted at six *named
//! sites*, each bound once in the arena code both drivers share, so
//! [`Runtime::run`](crate::Runtime) and every
//! [`ProgramServer`](crate::ProgramServer) tenant see all six:
//!
//! | site | where (`arena.rs`) | effect |
//! |---|---|---|
//! | body panic   | `step`, before a DThread body | the body panics instead of running |
//! | body delay   | `step`, before a DThread body | the body is delayed |
//! | kernel stall | `fetch`, before a kernel looks for work | the kernel sleeps (descheduled CPU) |
//! | transition delay | `step`, before an Inlet/Outlet completion is applied | the block transition happens late |
//! | dropped bell | `step`, after an Outlet completed or an error was latched | the supervisor is *not* rung (lost wakeup) |
//! | drain jitter | `supervise`, top of every visit | finish, error and watchdog are noticed late |
//!
//! Everything is driven by a [`FaultPlan`]: a *seeded, deterministic*
//! schedule with no ambient randomness. Every decision is a pure function
//! of `(seed, site, arguments)` — rerunning the same plan against the same
//! program makes the same per-instance decisions, the discipline
//! deterministic simulators (MGSim-style) bring applied to a threaded
//! runtime. The default injector, [`NoFaults`], is a zero-sized type whose
//! methods are inlined constants; code monomorphized over it compiles to
//! the unfaulted hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use tflux_core::{mix, Instance, KernelId};

/// What the injector tells a kernel to do before it runs a DThread body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BodyFault {
    /// Run the body normally.
    Pass,
    /// Sleep for the given duration, then run the body.
    Delay(Duration),
    /// Panic instead of running the body (the kernel's containment,
    /// retry and poisoning machinery treat it exactly like a body panic).
    Panic,
}

/// A source of injected faults, consulted at each named site.
///
/// All methods have no-op defaults, so an injector only overrides the sites
/// it cares about. Implementations must be [`Sync`]: one injector is shared
/// by every kernel thread and the supervisor. The runtime is monomorphized
/// over the injector type, so the [`NoFaults`] default adds no overhead.
pub trait FaultInjector: Sync {
    /// Site *body panic* / *body delay*: consulted by a kernel right before
    /// dispatching `instance`'s body. `attempt` is 1-based and increments
    /// across [`RetryPolicy`](crate::RetryPolicy) re-dispatches, so a plan
    /// can make an instance fail its first attempts and then recover.
    #[inline]
    fn before_body(&self, _kernel: KernelId, _instance: Instance, _attempt: u32) -> BodyFault {
        BodyFault::Pass
    }

    /// Site *kernel stall*: consulted before every fetch a kernel makes;
    /// `iteration` counts that kernel thread's fetches. Returning a
    /// duration deschedules the kernel for that long.
    #[inline]
    fn kernel_stall(&self, _kernel: KernelId, _iteration: u64) -> Option<Duration> {
        None
    }

    /// Site *transition delay*: consulted before a kernel applies an
    /// Inlet/Outlet completion. Returning a duration delays the block
    /// transition (a block load or unload).
    #[inline]
    fn transition_delay(&self, _instance: Instance) -> Option<Duration> {
        None
    }

    /// Site *dropped bell*: consulted after an Outlet completed or an
    /// error was latched. Returning `true` suppresses the supervisor's
    /// wakeup — the classic lost-wakeup failure mode. (Its timed wait must
    /// recover; the chaos suites verify it does.)
    #[inline]
    fn drop_bell(&self, _instance: Instance) -> bool {
        false
    }

    /// Site *drain jitter*: consulted at the top of every supervisor visit
    /// to a program; `round` counts the visits. Returning a duration delays
    /// the visit, and with it the verdict.
    #[inline]
    fn drain_jitter(&self, _round: u64) -> Option<Duration> {
        None
    }
}

/// The zero-cost default injector: never injects anything.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoFaults;

impl FaultInjector for NoFaults {}

/// Site tags keep decisions at different sites independent for one seed.
const SITE_BODY_PANIC: u64 = 0x9147_11FB_6C8F_0001;
const SITE_BODY_DELAY: u64 = 0x9147_11FB_6C8F_0002;
const SITE_KERNEL_STALL: u64 = 0x9147_11FB_6C8F_0003;
const SITE_TRANSITION_DELAY: u64 = 0x9147_11FB_6C8F_0004;
const SITE_DROPPED_BELL: u64 = 0x9147_11FB_6C8F_0005;
const SITE_DRAIN_JITTER: u64 = 0x9147_11FB_6C8F_0006;

#[inline]
fn instance_key(i: Instance) -> u64 {
    ((i.thread.0 as u64) << 32) | i.context.0 as u64
}

/// Counts of faults a plan actually injected, per site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Bodies made to panic.
    pub body_panics: u64,
    /// Bodies delayed.
    pub body_delays: u64,
    /// Kernel fetch-loop stalls.
    pub kernel_stalls: u64,
    /// Block transitions delayed.
    pub transition_delays: u64,
    /// Supervisor wakeups suppressed.
    pub dropped_bells: u64,
    /// Supervisor visits delayed.
    pub drain_jitters: u64,
}

impl FaultCounts {
    /// Total faults injected across all sites.
    pub fn total(&self) -> u64 {
        self.body_panics
            + self.body_delays
            + self.kernel_stalls
            + self.transition_delays
            + self.dropped_bells
            + self.drain_jitters
    }
}

#[derive(Debug, Default)]
struct Counters {
    body_panics: AtomicU64,
    body_delays: AtomicU64,
    kernel_stalls: AtomicU64,
    transition_delays: AtomicU64,
    dropped_bells: AtomicU64,
    drain_jitters: AtomicU64,
}

/// One probabilistic fault arm: fires with probability `per_mille`/1000.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Arm {
    per_mille: u32,
    max_delay: Duration,
}

/// A seeded, deterministic fault schedule.
///
/// Built with the fluent methods below; all rates are per-mille (0–1000).
/// Decisions are pure functions of the seed and the site's arguments: the
/// same plan run against the same program targets the same instances,
/// regardless of thread interleaving. Delays are derived from the same hash,
/// uniformly in `[0, max)`.
///
/// ```
/// use std::time::Duration;
/// use tflux_runtime::FaultPlan;
///
/// let plan = FaultPlan::new(42)
///     .body_panic(50)                                   // 5% of attempts
///     .body_delay(200, Duration::from_micros(100))      // 20% delayed
///     .dropped_bell(300);                               // 30% lost wakeups
/// # let _ = plan;
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    body_panic: u32,
    body_delay: Arm,
    kernel_stall: Arm,
    transition_delay: Arm,
    drain_jitter: Arm,
    dropped_bell: u32,
    always_panic: Vec<Instance>,
    panic_first: Vec<(Instance, u32)>,
    counters: Counters,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// The seed this plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Make each body attempt panic with probability `per_mille`/1000.
    /// Decisions vary by attempt, so retried instances can recover.
    pub fn body_panic(mut self, per_mille: u32) -> Self {
        self.body_panic = per_mille.min(1000);
        self
    }

    /// Delay body dispatch with probability `per_mille`/1000, by a
    /// deterministic duration in `[0, max)`.
    pub fn body_delay(mut self, per_mille: u32, max: Duration) -> Self {
        self.body_delay = Arm {
            per_mille: per_mille.min(1000),
            max_delay: max,
        };
        self
    }

    /// Stall a kernel with probability `per_mille`/1000 per fetch, for a
    /// deterministic duration in `[0, max)`.
    pub fn kernel_stall(mut self, per_mille: u32, max: Duration) -> Self {
        self.kernel_stall = Arm {
            per_mille: per_mille.min(1000),
            max_delay: max,
        };
        self
    }

    /// Delay Inlet/Outlet completions with probability `per_mille`/1000,
    /// by a deterministic duration in `[0, max)`.
    pub fn transition_delay(mut self, per_mille: u32, max: Duration) -> Self {
        self.transition_delay = Arm {
            per_mille: per_mille.min(1000),
            max_delay: max,
        };
        self
    }

    /// Delay supervisor visits with probability `per_mille`/1000 per
    /// visit, by a deterministic duration in `[0, max)`.
    pub fn drain_jitter(mut self, per_mille: u32, max: Duration) -> Self {
        self.drain_jitter = Arm {
            per_mille: per_mille.min(1000),
            max_delay: max,
        };
        self
    }

    /// Suppress the supervisor's wakeup after an Outlet or a latched error
    /// with probability `per_mille`/1000.
    pub fn dropped_bell(mut self, per_mille: u32) -> Self {
        self.dropped_bell = per_mille.min(1000);
        self
    }

    /// Target one instance: its body panics on *every* attempt (retries
    /// can never save it — the way to provoke poisoning and stalls).
    pub fn panic_at(mut self, instance: Instance) -> Self {
        self.always_panic.push(instance);
        self
    }

    /// Target one instance: its body panics on the first `attempts`
    /// attempts, then succeeds (the way to provoke and verify retries).
    pub fn panic_first(mut self, instance: Instance, attempts: u32) -> Self {
        self.panic_first.push((instance, attempts));
        self
    }

    /// Snapshot of how many faults this plan has injected so far.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            body_panics: self.counters.body_panics.load(Ordering::Relaxed),
            body_delays: self.counters.body_delays.load(Ordering::Relaxed),
            kernel_stalls: self.counters.kernel_stalls.load(Ordering::Relaxed),
            transition_delays: self.counters.transition_delays.load(Ordering::Relaxed),
            dropped_bells: self.counters.dropped_bells.load(Ordering::Relaxed),
            drain_jitters: self.counters.drain_jitters.load(Ordering::Relaxed),
        }
    }

    #[inline]
    fn roll(&self, site: u64, key: u64) -> u64 {
        mix(self.seed ^ mix(site ^ key))
    }

    #[inline]
    fn hit(&self, site: u64, key: u64, per_mille: u32) -> bool {
        per_mille > 0 && self.roll(site, key) % 1000 < per_mille as u64
    }

    #[inline]
    fn scaled(&self, site: u64, key: u64, max: Duration) -> Duration {
        let span = max.as_nanos().min(u64::MAX as u128) as u64;
        if span == 0 {
            return Duration::ZERO;
        }
        // reuse the hash of a shifted key so the delay is independent of
        // the hit decision
        Duration::from_nanos(self.roll(site, key.wrapping_add(1)) % span)
    }
}

impl FaultInjector for FaultPlan {
    fn before_body(&self, _kernel: KernelId, instance: Instance, attempt: u32) -> BodyFault {
        if self.always_panic.contains(&instance) {
            self.counters.body_panics.fetch_add(1, Ordering::Relaxed);
            return BodyFault::Panic;
        }
        if self
            .panic_first
            .iter()
            .any(|&(i, n)| i == instance && attempt <= n)
        {
            self.counters.body_panics.fetch_add(1, Ordering::Relaxed);
            return BodyFault::Panic;
        }
        let key = instance_key(instance) ^ mix(attempt as u64);
        if self.hit(SITE_BODY_PANIC, key, self.body_panic) {
            self.counters.body_panics.fetch_add(1, Ordering::Relaxed);
            return BodyFault::Panic;
        }
        if self.hit(SITE_BODY_DELAY, key, self.body_delay.per_mille) {
            self.counters.body_delays.fetch_add(1, Ordering::Relaxed);
            return BodyFault::Delay(self.scaled(SITE_BODY_DELAY, key, self.body_delay.max_delay));
        }
        BodyFault::Pass
    }

    fn kernel_stall(&self, kernel: KernelId, iteration: u64) -> Option<Duration> {
        let key = ((kernel.0 as u64) << 48) ^ iteration;
        if self.hit(SITE_KERNEL_STALL, key, self.kernel_stall.per_mille) {
            self.counters.kernel_stalls.fetch_add(1, Ordering::Relaxed);
            Some(self.scaled(SITE_KERNEL_STALL, key, self.kernel_stall.max_delay))
        } else {
            None
        }
    }

    fn transition_delay(&self, instance: Instance) -> Option<Duration> {
        let key = instance_key(instance);
        if self.hit(SITE_TRANSITION_DELAY, key, self.transition_delay.per_mille) {
            self.counters
                .transition_delays
                .fetch_add(1, Ordering::Relaxed);
            Some(self.scaled(SITE_TRANSITION_DELAY, key, self.transition_delay.max_delay))
        } else {
            None
        }
    }

    fn drop_bell(&self, instance: Instance) -> bool {
        if self.hit(SITE_DROPPED_BELL, instance_key(instance), self.dropped_bell) {
            self.counters.dropped_bells.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn drain_jitter(&self, round: u64) -> Option<Duration> {
        if self.hit(SITE_DRAIN_JITTER, round, self.drain_jitter.per_mille) {
            self.counters.drain_jitters.fetch_add(1, Ordering::Relaxed);
            Some(self.scaled(SITE_DRAIN_JITTER, round, self.drain_jitter.max_delay))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tflux_core::{Context, ThreadId};

    fn inst(t: u32, c: u32) -> Instance {
        Instance::new(ThreadId(t), Context(c))
    }

    #[test]
    fn no_faults_injects_nothing() {
        let f = NoFaults;
        assert_eq!(f.before_body(KernelId(0), inst(1, 2), 1), BodyFault::Pass);
        assert_eq!(f.kernel_stall(KernelId(0), 7), None);
        assert_eq!(f.transition_delay(inst(1, 2)), None);
        assert!(!f.drop_bell(inst(1, 2)));
        assert_eq!(f.drain_jitter(3), None);
    }

    #[test]
    fn zero_rate_plan_never_fires() {
        let plan = FaultPlan::new(99);
        for t in 0..8 {
            for c in 0..8 {
                assert_eq!(
                    plan.before_body(KernelId(0), inst(t, c), 1),
                    BodyFault::Pass
                );
                // qualified: the `FaultPlan` builder method of the same
                // name would otherwise shadow the injector trait method
                assert_eq!(FaultInjector::transition_delay(&plan, inst(t, c)), None);
                assert!(!plan.drop_bell(inst(t, c)));
            }
        }
        assert_eq!(plan.counts().total(), 0);
    }

    #[test]
    fn full_rate_plan_always_fires() {
        let plan = FaultPlan::new(7).body_panic(1000).dropped_bell(1000);
        for t in 0..8 {
            assert_eq!(
                plan.before_body(KernelId(0), inst(t, 0), 1),
                BodyFault::Panic
            );
            assert!(plan.drop_bell(inst(t, 0)));
        }
        let c = plan.counts();
        assert_eq!(c.body_panics, 8);
        assert_eq!(c.dropped_bells, 8);
        assert_eq!(c.total(), 16);
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = FaultPlan::new(1234).body_panic(300).dropped_bell(300);
        let b = FaultPlan::new(1234).body_panic(300).dropped_bell(300);
        for t in 0..16 {
            for c in 0..16 {
                assert_eq!(
                    a.before_body(KernelId(1), inst(t, c), 1),
                    b.before_body(KernelId(1), inst(t, c), 1)
                );
                assert_eq!(a.drop_bell(inst(t, c)), b.drop_bell(inst(t, c)));
            }
        }
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let a = FaultPlan::new(1).body_panic(500);
        let b = FaultPlan::new(2).body_panic(500);
        let differs = (0..64).any(|t| {
            a.before_body(KernelId(0), inst(t, 0), 1) != b.before_body(KernelId(0), inst(t, 0), 1)
        });
        assert!(differs, "seeds 1 and 2 made identical panic decisions");
    }

    #[test]
    fn rate_is_roughly_respected() {
        let plan = FaultPlan::new(42).dropped_bell(250);
        let fired = (0..4000)
            .filter(|&k| plan.drop_bell(inst(k / 64, k % 64)))
            .count();
        // 25% ± generous slack; the point is "not 0% and not 100%"
        assert!((600..1400).contains(&fired), "fired {fired}/4000");
    }

    #[test]
    fn targeted_panics_fire_exactly_as_asked() {
        let plan = FaultPlan::new(0)
            .panic_at(inst(3, 1))
            .panic_first(inst(4, 0), 2);
        // always_panic: every attempt
        for attempt in 1..5 {
            assert_eq!(
                plan.before_body(KernelId(0), inst(3, 1), attempt),
                BodyFault::Panic
            );
        }
        // panic_first: attempts 1 and 2 fail, 3 succeeds
        assert_eq!(
            plan.before_body(KernelId(0), inst(4, 0), 1),
            BodyFault::Panic
        );
        assert_eq!(
            plan.before_body(KernelId(0), inst(4, 0), 2),
            BodyFault::Panic
        );
        assert_eq!(
            plan.before_body(KernelId(0), inst(4, 0), 3),
            BodyFault::Pass
        );
        // untargeted instances untouched
        assert_eq!(
            plan.before_body(KernelId(0), inst(5, 0), 1),
            BodyFault::Pass
        );
    }

    #[test]
    fn delays_are_bounded_and_deterministic() {
        let plan = FaultPlan::new(9).body_delay(1000, Duration::from_micros(50));
        for t in 0..32 {
            match plan.before_body(KernelId(0), inst(t, 0), 1) {
                BodyFault::Delay(d) => {
                    assert!(d < Duration::from_micros(50));
                    // deterministic replay
                    assert_eq!(
                        plan.before_body(KernelId(0), inst(t, 0), 1),
                        BodyFault::Delay(d)
                    );
                }
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }
}
