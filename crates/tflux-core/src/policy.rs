//! Ready-thread selection policies.
//!
//! §3.1 of the paper: *"If more than one ready DThreads exist the TSU
//! returns the one which, based on its internal policy, is most likely to
//! maximize the spatial locality."* TFlux achieves this by assigning
//! instances to kernels statically (the [`crate::thread::Affinity`] /
//! Thread-to-Kernel Table) and serving each kernel from its own ready queue
//! first. The policy here decides what happens beyond that.

use crate::rng::SplitMix64;

/// Policy used by the TSU when a kernel asks for its next DThread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// Serve the kernel's own ready queue first (spatial locality); if it is
    /// empty and `steal` is set, take the oldest entry from the most loaded
    /// other queue.
    LocalityFirst {
        /// Whether an idle kernel may take work owned by another kernel.
        steal: bool,
    },
    /// A single FIFO shared by all kernels — no locality preference.
    ///
    /// Used as a baseline in the scheduling ablation.
    GlobalFifo,
}

impl Default for SchedulingPolicy {
    fn default() -> Self {
        SchedulingPolicy::LocalityFirst { steal: true }
    }
}

/// How a thief picks its victim queue once its own queue misses.
///
/// Stealing is now a queue-native operation (see
/// [`StealDeque`](crate::tsu::StealDeque)); this policy only decides the
/// *order* in which sibling queues are probed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StealPolicy {
    /// Probe one uniformly-drawn sibling first — randomization spreads
    /// concurrent thieves across victims so they do not all CAS the same
    /// `top` — then fall back to scanning siblings longest-queue-first.
    #[default]
    RandomThenLongest,
    /// Skip the random probe and always scan longest-queue-first. More
    /// deterministic, but concurrent thieves pile onto the same victim.
    LongestFirst,
}

/// Adaptive backoff for victim probing.
///
/// On an idle machine every fetch misses its own queue and then walks the
/// sibling queues, burning cycles (and, in the concurrent runtime, cache
/// lines) on an empty scan — it shows up as `steal_misses ≫ steals`. This
/// state machine gates the probe: below
/// [`THRESHOLD`](Self::THRESHOLD) consecutive misses every attempt probes;
/// from the threshold on, each further miss doubles the number of attempts
/// skipped before the next probe (capped at 2^[`MAX_SHIFT`](Self::MAX_SHIFT)).
/// Any hit resets the machine to eager probing, so a thief that finds work
/// keeps stealing at full rate.
///
/// Purely deterministic — no clocks, no randomness — so single-owner
/// simulations replay exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StealBackoff {
    /// Consecutive failed steal attempts since the last hit.
    misses: u32,
    /// Attempts left to skip before the next probe.
    skip: u32,
}

impl StealBackoff {
    /// Consecutive misses tolerated before probes start being skipped.
    pub const THRESHOLD: u32 = 4;
    /// Cap on the exponential skip count: at most `2^MAX_SHIFT` attempts
    /// (64) are skipped between probes, so a thief re-checks an idle
    /// machine at a bounded, if lazy, rate.
    pub const MAX_SHIFT: u32 = 6;

    /// A fresh, eagerly-probing backoff.
    pub fn new() -> Self {
        StealBackoff::default()
    }

    /// Whether this fetch attempt should probe victims. Consumes one skip
    /// credit when the probe is gated off.
    pub fn should_probe(&mut self) -> bool {
        if self.skip > 0 {
            self.skip -= 1;
            return false;
        }
        true
    }

    /// Record the outcome of a probe that ran: a hit resets to eager
    /// probing, a miss extends the backoff schedule.
    pub fn record(&mut self, hit: bool) {
        if hit {
            *self = StealBackoff::new();
        } else {
            self.misses = self.misses.saturating_add(1);
            if self.misses >= Self::THRESHOLD {
                self.skip = 1 << (self.misses - Self::THRESHOLD).min(Self::MAX_SHIFT);
            }
        }
    }

    /// Consecutive misses recorded since the last hit.
    pub fn consecutive_misses(&self) -> u32 {
        self.misses
    }

    /// Pack the state into one word, so a TSU can keep it in an atomic
    /// per-kernel slot.
    pub(crate) fn to_bits(self) -> u64 {
        (self.misses as u64) << 32 | self.skip as u64
    }

    /// Inverse of [`to_bits`](Self::to_bits).
    pub(crate) fn from_bits(bits: u64) -> Self {
        StealBackoff {
            misses: (bits >> 32) as u32,
            skip: bits as u32,
        }
    }
}

impl StealPolicy {
    /// The first victim a thief owning queue `own` (of `n` queues) should
    /// probe: a random sibling under [`StealPolicy::RandomThenLongest`]
    /// (drawn from `rng`, which advances), `None` under
    /// [`StealPolicy::LongestFirst`] — the caller goes straight to the
    /// longest-queue scan.
    pub fn first_victim(self, own: usize, n: usize, rng: &mut SplitMix64) -> Option<usize> {
        if n < 2 || self == StealPolicy::LongestFirst {
            return None;
        }
        let r = rng.below(n as u64 - 1) as usize;
        Some(if r >= own { r + 1 } else { r })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_locality_with_steal() {
        assert_eq!(
            SchedulingPolicy::default(),
            SchedulingPolicy::LocalityFirst { steal: true }
        );
    }

    #[test]
    fn random_victim_never_picks_the_thief() {
        let mut state = SplitMix64(42);
        for own in 0..8usize {
            for _ in 0..64 {
                let v = StealPolicy::RandomThenLongest
                    .first_victim(own, 8, &mut state)
                    .unwrap();
                assert_ne!(v, own);
                assert!(v < 8);
            }
        }
    }

    #[test]
    fn victim_draws_are_deterministic_per_seed() {
        let mut a = SplitMix64(7);
        let mut b = SplitMix64(7);
        let va: Vec<_> = (0..32)
            .map(|_| StealPolicy::default().first_victim(0, 4, &mut a))
            .collect();
        let vb: Vec<_> = (0..32)
            .map(|_| StealPolicy::default().first_victim(0, 4, &mut b))
            .collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn backoff_follows_the_miss_hit_schedule() {
        let mut b = StealBackoff::new();
        // below the threshold every attempt probes
        for _ in 0..StealBackoff::THRESHOLD {
            assert!(b.should_probe());
            b.record(false);
        }
        // 4th consecutive miss: skip 1 attempt
        assert!(!b.should_probe());
        assert!(b.should_probe());
        b.record(false);
        // 5th: skip 2
        assert!(!b.should_probe());
        assert!(!b.should_probe());
        assert!(b.should_probe());
        b.record(false);
        // 6th: skip 4
        for _ in 0..4 {
            assert!(!b.should_probe());
        }
        assert!(b.should_probe());
        assert_eq!(b.consecutive_misses(), StealBackoff::THRESHOLD + 2);
        // a hit snaps straight back to eager probing
        b.record(true);
        assert_eq!(b.consecutive_misses(), 0);
        assert!(b.should_probe());
        b.record(false);
        assert!(b.should_probe(), "one miss after a hit must not gate");
    }

    #[test]
    fn backoff_skip_is_capped() {
        let mut b = StealBackoff::new();
        for _ in 0..10_000 {
            if b.should_probe() {
                b.record(false);
            }
        }
        b.record(false); // re-arm a full skip run from a known point
                         // long-idle thief still probes at least every 2^MAX_SHIFT attempts
        let mut gap = 0;
        while !b.should_probe() {
            gap += 1;
            assert!(gap <= 1 << StealBackoff::MAX_SHIFT);
        }
        assert!(gap > 0, "deep backoff must actually skip");
    }

    #[test]
    fn longest_first_and_single_queue_skip_the_random_probe() {
        let mut state = SplitMix64(1);
        assert_eq!(
            StealPolicy::LongestFirst.first_victim(0, 8, &mut state),
            None
        );
        assert_eq!(
            StealPolicy::RandomThenLongest.first_victim(0, 1, &mut state),
            None
        );
    }
}
