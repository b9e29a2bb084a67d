//! Loop unrolling for DThreads.
//!
//! §5 of the paper: *"For both the sequential and the parallelized versions
//! of the benchmarks we evaluated variations with the basic loops being
//! unrolled from 1 to 64 times."* Unrolling a loop DThread by a factor `u`
//! coarsens its grain: the thread's arity shrinks from `n` iterations to
//! `ceil(n / u)` instances, each covering a contiguous iteration range. This
//! is the knob that amortizes per-DThread TSU overheads — TFluxHard
//! saturates at unroll 2–4 while TFluxSoft needs ≥ 16 and TFluxCell up
//! to 64 (MMULT).

use crate::ids::Context;
use std::ops::Range;

/// An unrolled view of a loop of `iterations` iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unroll {
    /// Total loop iterations before unrolling.
    pub iterations: u64,
    /// Unroll factor (iterations per DThread instance); must be ≥ 1.
    pub factor: u32,
}

impl Unroll {
    /// Unroll `iterations` by `factor` (clamped to ≥ 1).
    pub fn new(iterations: u64, factor: u32) -> Self {
        Unroll {
            iterations,
            factor: factor.max(1),
        }
    }

    /// The DThread arity after unrolling (`ceil(n / u)`), at least 1.
    pub fn arity(&self) -> u32 {
        let a = self.iterations.div_ceil(self.factor as u64).max(1);
        u32::try_from(a).expect("unrolled arity exceeds u32")
    }

    /// The iteration range covered by instance `ctx`.
    ///
    /// The last instance may cover fewer than `factor` iterations.
    pub fn range(&self, ctx: Context) -> Range<u64> {
        let lo = ctx.0 as u64 * self.factor as u64;
        let hi = (lo + self.factor as u64).min(self.iterations);
        lo..hi
    }

    /// Number of iterations instance `ctx` executes.
    pub fn len(&self, ctx: Context) -> u64 {
        let r = self.range(ctx);
        r.end.saturating_sub(r.start)
    }

    /// True when the loop has no iterations at all.
    pub fn is_empty(&self) -> bool {
        self.iterations == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        let u = Unroll::new(64, 4);
        assert_eq!(u.arity(), 16);
        assert_eq!(u.range(Context(0)), 0..4);
        assert_eq!(u.range(Context(15)), 60..64);
    }

    #[test]
    fn ragged_tail() {
        let u = Unroll::new(10, 4);
        assert_eq!(u.arity(), 3);
        assert_eq!(u.range(Context(2)), 8..10);
        assert_eq!(u.len(Context(2)), 2);
    }

    #[test]
    fn factor_clamped_to_one() {
        let u = Unroll::new(5, 0);
        assert_eq!(u.factor, 1);
        assert_eq!(u.arity(), 5);
    }

    #[test]
    fn ranges_cover_all_iterations_without_overlap() {
        for n in [1u64, 7, 64, 100, 1000] {
            for f in [1u32, 2, 3, 16, 64, 128] {
                let u = Unroll::new(n, f);
                let mut covered = 0u64;
                let mut expect_next = 0u64;
                for c in 0..u.arity() {
                    let r = u.range(Context(c));
                    assert_eq!(r.start, expect_next, "n={n} f={f} c={c}");
                    covered += r.end - r.start;
                    expect_next = r.end;
                }
                assert_eq!(covered, n, "n={n} f={f}");
            }
        }
    }

    #[test]
    fn empty_loop_has_one_empty_instance() {
        let u = Unroll::new(0, 8);
        assert!(u.is_empty());
        assert_eq!(u.arity(), 1);
        assert_eq!(u.len(Context(0)), 0);
    }
}
