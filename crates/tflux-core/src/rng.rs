//! The workspace's one deterministic generator: splitmix64.
//!
//! Steal-victim draws, `FaultPlan` decisions, the QSORT input and every
//! randomized test all draw from the stream defined here, so a seed
//! printed anywhere in the workspace reproduces bit for bit. [`cases`] is
//! the property-test runner built on it.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 output for state `z`: a stateless mixing function for
/// decisions keyed on a value (a seed, a site tag, an instance) rather
/// than drawn from a stream.
#[inline]
pub fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A splitmix64 stream. The field is the whole state, so a generator can
/// be parked in an atomic between draws and rebuilt from a printed seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 bits of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = mix(self.0);
        self.0 = self.0.wrapping_add(GAMMA);
        out
    }

    /// A draw from `0..n`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty draw range");
        self.next_u64() % n
    }

    /// A draw from the half-open integer range `r`, for any integer type.
    /// Panics if the range is empty.
    pub fn range<T>(&mut self, r: Range<T>) -> T
    where
        T: Copy + TryInto<i128> + TryFrom<i128>,
    {
        let widen = |v: T| v.try_into().ok().expect("every integer fits i128");
        let (lo, hi): (i128, i128) = (widen(r.start), widen(r.end));
        assert!(lo < hi, "empty draw range");
        let v = lo + (self.next_u64() as u128 % (hi - lo) as u128) as i128;
        T::try_from(v).ok().expect("draw lies inside the range")
    }

    /// `true` with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// A uniformly chosen element of `items`. Panics if it is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Run `property` on `n` independently seeded generators. If a case
/// panics, its index and seed are printed before the panic is re-raised;
/// `property(&mut SplitMix64(seed))` then re-runs that case alone. There
/// is no shrinking.
pub fn cases(n: u32, mut property: impl FnMut(&mut SplitMix64)) {
    for case in 0..n {
        let seed = mix(case as u64);
        let mut rng = SplitMix64(seed);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            eprintln!("property failed at case {case} of {n}: seed {seed:#018x}");
            resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_matches_the_reference_vectors() {
        // splitmix64 from state 0 (Vigna's reference implementation)
        let mut r = SplitMix64(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
        assert_eq!(mix(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn draws_stay_inside_their_bounds() {
        let mut r = SplitMix64(7);
        for _ in 0..1_000 {
            assert!(r.below(3) < 3);
            assert!((-4..5).contains(&r.range(-4i32..5)));
            assert!((1..9).contains(&r.range(1usize..9)));
            assert_eq!(r.range(u64::MAX - 1..u64::MAX), u64::MAX - 1);
            assert!([2u8, 3, 5].contains(r.pick(&[2u8, 3, 5])));
            assert!(!r.chance(0, 4));
            assert!(r.chance(4, 4));
        }
    }

    #[test]
    fn cases_are_distinct_and_reproducible() {
        let mut first = Vec::new();
        cases(16, |rng| first.push((*rng, rng.next_u64())));
        let mut again = Vec::new();
        cases(16, |rng| again.push((*rng, rng.next_u64())));
        assert_eq!(first, again);
        first.sort_unstable_by_key(|&(_, draw)| draw);
        first.dedup_by_key(|&mut (_, draw)| draw);
        assert_eq!(first.len(), 16);
        // the printed seed re-runs a case alone
        let (seed, draw) = again[5];
        assert_eq!(SplitMix64(seed.0).next_u64(), draw);
    }

    #[test]
    #[should_panic(expected = "case three")]
    fn a_failing_case_re_raises_its_own_panic() {
        let mut i = 0;
        cases(8, |_| {
            i += 1;
            assert!(i < 4, "case three");
        });
    }
}
