//! Seeded input generation. Programs under test receive only what is
//! generated here; the seed itself never reaches a product crate.

/// splitmix64: small, fast, and good enough to vary benchmark inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        finish(self.0)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next() % (hi - lo + 1)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i as u64) as usize);
        }
    }
}

fn finish(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stateless two-input hash: what the generated DThread bodies compute
/// (a few ns), and what the oracles recompute sequentially.
#[inline]
pub fn mix(a: u64, b: u64) -> u64 {
    finish(a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b, mut c) = (Rng::new(7), Rng::new(7), Rng::new(8));
        let xs: Vec<u64> = (0..8).map(|_| a.next()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next()).collect::<Vec<_>>());
    }

    #[test]
    fn range_stays_in_bounds_and_shuffle_permutes() {
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| (3..=9).contains(&r.range(3, 9))));
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn mix_depends_on_both_inputs() {
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_eq!(mix(5, 6), mix(5, 6));
    }
}
