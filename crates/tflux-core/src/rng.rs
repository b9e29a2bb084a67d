//! The workspace's one deterministic generator: splitmix64.
//!
//! Steal-victim draws, `FaultPlan` decisions, the QSORT input and every
//! randomized test all draw from the stream defined here, so a seed
//! printed anywhere in the workspace reproduces bit for bit. [`cases`] is
//! the property-test runner built on it, and [`random_program`] the one graph
//! generator every randomized suite draws its programs from.

use crate::ids::KernelId;
use crate::mapping::ArcMapping;
use crate::program::{DdmProgram, ProgramBuilder};
use crate::thread::{Affinity, ThreadSpec};
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

/// A random valid program for `kernels` kernels (clamped to at least 1).
/// Each of its 1–3 blocks holds:
///
/// * a `src → wide → sink` spine through Broadcast and Reduction arcs,
///   `wide` drawn from `kernels..=4·kernels`, so a multi-kernel run meets
///   a hot sink and its funnels batch ([`funnel_batch`](crate::funnel_batch));
/// * 0–4 side threads of arity 1, `wide` or 1–8, each fed from a random
///   earlier thread of its block and, half the time, from a second,
///   distinct one: a join, whose ready counts sum several producers. Each
///   arc draws its own [`ArcMapping`] kind, a negative `Offset` included.
///   An arc the arities reject is skipped; a consumer left with none is
///   ready at block load.
///
/// Every thread draws its affinity: `Range`, `RoundRobin`, or (half the
/// time) `Fixed` on a kernel below `kernels`, so siblings must steal.
/// Arities are capped at `4·kernels + 1`, so with each block's inlet and
/// outlet a program has at most `12·(1 + kernels + max(4·kernels, 5))`
/// instances (84 at one kernel, 312 at five): a suite that wants small
/// graphs passes few kernels.
pub fn random_program(rng: &mut SplitMix64, kernels: u32) -> DdmProgram {
    let kernels = kernels.max(1);
    let spec = |rng: &mut SplitMix64, name: &str, arity: u32| {
        let affinity = match rng.below(4) {
            0 => Affinity::Range,
            1 => Affinity::RoundRobin,
            _ => Affinity::Fixed(KernelId(rng.range(0..kernels))),
        };
        ThreadSpec::new(name, arity.min(4 * kernels + 1)).with_affinity(affinity)
    };
    let mapping = |rng: &mut SplitMix64| {
        let factor = rng.range(1..5);
        [
            ArcMapping::All,
            ArcMapping::OneToOne,
            ArcMapping::Offset(rng.range(-2..3)),
            ArcMapping::Group { factor },
            ArcMapping::Expand { factor },
        ][rng.below(5) as usize]
    };
    let mut b = ProgramBuilder::new();
    for _ in 0..rng.range(1..4) {
        let blk = b.block();
        let wide = rng.range(kernels..4 * kernels + 1);
        let src = b.thread(blk, spec(rng, "src", 1));
        let work = b.thread(blk, spec(rng, "wide", wide));
        let sink = b.thread(blk, spec(rng, "sink", 1));
        b.arc(src, work, ArcMapping::Broadcast)
            .expect("broadcast fits");
        b.arc(work, sink, ArcMapping::Reduction)
            .expect("reduction fits");
        let mut threads = vec![src, work, sink];
        for i in 0..rng.range(0..5) {
            let arity = [1, wide, rng.range(1..9)][rng.below(3) as usize];
            let t = b.thread(blk, spec(rng, &format!("t{i}"), arity));
            let n = threads.len() as u64;
            let first = rng.below(n);
            let second = rng.chance(1, 2).then(|| (first + 1 + rng.below(n - 1)) % n);
            for producer in [Some(first), second].into_iter().flatten() {
                // arc() validates the arities; a rejected arc is no arc
                let _ = b.arc(threads[producer as usize], t, mapping(rng));
            }
            threads.push(t);
        }
    }
    b.build().expect("generated program validates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::hot_sinks;
    use crate::ids::ThreadId;
    use crate::thread::ThreadKind;
    use std::mem::discriminant;

    /// `random_program`'s size bound: three blocks of inlet, outlet,
    /// `src`, `sink`, a `wide` of `4·kernels` and four side threads at
    /// their cap.
    fn max_instances(kernels: u32) -> usize {
        let k = kernels as usize;
        3 * (4 + 4 * k + 4 * (4 * k).max(5))
    }

    #[test]
    fn generated_programs_reach_every_shape() {
        let (mut mappings, mut affinities) = (Vec::new(), Vec::new());
        let (mut negative_offset, mut multi_block, mut hot_at_two) = (false, false, false);
        let mut join = false;
        cases(256, |rng| {
            let kernels = rng.range(1..6);
            let p = random_program(rng, kernels);
            assert!(p.total_instances() <= max_instances(kernels));
            multi_block |= p.blocks().len() > 1;
            hot_at_two |= hot_sinks(&p, 2).next().is_some();
            for (t, spec) in p.threads().iter().enumerate() {
                affinities.push(discriminant(&spec.affinity));
                join |= spec.kind == ThreadKind::App && p.producers(ThreadId(t as u32)).len() >= 2;
                for arc in p.consumers(ThreadId(t as u32)) {
                    mappings.push(discriminant(&arc.mapping));
                    negative_offset |= matches!(arc.mapping, ArcMapping::Offset(k) if k < 0);
                }
            }
        });
        for m in [
            ArcMapping::All,
            ArcMapping::OneToOne,
            ArcMapping::Offset(0),
            ArcMapping::Group { factor: 1 },
            ArcMapping::Expand { factor: 1 },
        ] {
            assert!(mappings.contains(&discriminant(&m)), "{m:?} never drawn");
        }
        for a in [
            Affinity::Range,
            Affinity::RoundRobin,
            Affinity::Fixed(KernelId(0)),
        ] {
            assert!(affinities.contains(&discriminant(&a)), "{a:?} never drawn");
        }
        assert!(negative_offset && multi_block && hot_at_two && join);
        // no larger than the largest graph of the builders this replaced
        // (about 320 instances), whatever the seed
        assert_eq!(max_instances(5), 312);
    }

    #[test]
    fn program_is_a_function_of_the_seed() {
        let draw = |seed| format!("{:?}", random_program(&mut SplitMix64(seed), 3));
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

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
