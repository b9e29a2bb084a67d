//! Ready-thread selection: the kernel's own queue first, then stealing.
//!
//! §3.1 of the paper: *"If more than one ready DThreads exist the TSU
//! returns the one which, based on its internal policy, is most likely to
//! maximize the spatial locality."* TFlux achieves this by assigning
//! instances to kernels statically (the [`crate::thread::Affinity`] /
//! Thread-to-Kernel Table) and serving each kernel from its own ready queue
//! first. Beyond that there is one rule, work stealing
//! ([`TsuConfig::steal`](crate::tsu::TsuConfig::steal)): this module holds
//! its victim order (`first_victim`) and its pacing ([`StealBackoff`]).

use crate::rng::SplitMix64;

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
pub(crate) struct StealBackoff {
    /// Consecutive failed steal attempts since the last hit.
    misses: u32,
    /// Attempts left to skip before the next probe.
    skip: u32,
}

impl StealBackoff {
    /// Consecutive misses tolerated before probes start being skipped.
    pub(crate) const THRESHOLD: u32 = 4;
    /// Cap on the exponential skip count: at most `2^MAX_SHIFT` attempts
    /// (64) are skipped between probes, so a thief re-checks an idle
    /// machine at a bounded, if lazy, rate.
    pub(crate) const MAX_SHIFT: u32 = 6;

    /// A fresh, eagerly-probing backoff.
    pub(crate) fn new() -> Self {
        StealBackoff::default()
    }

    /// Whether this fetch attempt should probe victims. Consumes one skip
    /// credit when the probe is gated off.
    pub(crate) fn should_probe(&mut self) -> bool {
        if self.skip > 0 {
            self.skip -= 1;
            return false;
        }
        true
    }

    /// Record the outcome of a probe that ran: a hit resets to eager
    /// probing, a miss extends the backoff schedule.
    pub(crate) fn record(&mut self, hit: bool) {
        if hit {
            *self = StealBackoff::new();
        } else {
            self.misses = self.misses.saturating_add(1);
            if self.misses >= Self::THRESHOLD {
                self.skip = 1 << (self.misses - Self::THRESHOLD).min(Self::MAX_SHIFT);
            }
        }
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

/// The first victim a thief owning queue `own` (of `n` queues) probes: one
/// uniformly-drawn sibling (drawn from `rng`, which advances), so
/// concurrent thieves spread across victims instead of all CASing the same
/// `top`. After it the caller scans siblings longest-queue-first. `None`
/// when there is no sibling.
pub(crate) fn first_victim(own: usize, n: usize, rng: &mut SplitMix64) -> Option<usize> {
    if n < 2 {
        return None;
    }
    let r = rng.below(n as u64 - 1) as usize;
    Some(if r >= own { r + 1 } else { r })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_victim_never_picks_the_thief() {
        let mut state = SplitMix64(42);
        for own in 0..8usize {
            for _ in 0..64 {
                let v = first_victim(own, 8, &mut state).unwrap();
                assert_ne!(v, own);
                assert!(v < 8);
            }
        }
    }

    #[test]
    fn victim_draws_are_deterministic_per_seed() {
        let mut a = SplitMix64(7);
        let mut b = SplitMix64(7);
        let va: Vec<_> = (0..32).map(|_| first_victim(0, 4, &mut a)).collect();
        let vb: Vec<_> = (0..32).map(|_| first_victim(0, 4, &mut b)).collect();
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
        assert_eq!(b.misses, StealBackoff::THRESHOLD + 2);
        // a hit snaps straight back to eager probing
        b.record(true);
        assert_eq!(b.misses, 0);
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
    fn a_single_queue_has_no_victim() {
        let mut state = SplitMix64(1);
        assert_eq!(first_victim(0, 1, &mut state), None);
        assert_eq!(state, SplitMix64(1), "no sibling, no draw");
    }
}
