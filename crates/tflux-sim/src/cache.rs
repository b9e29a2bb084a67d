//! A set-associative, LRU cache model (tags only).
//!
//! The simulator tracks *presence* of cache lines, not data — workload
//! semantics run natively; the cache model only produces latencies and
//! miss classifications, like Simics' `gcache` modules the paper used.
//!
//! A set is `assoc` consecutive words holding its lines in recency order,
//! most recent first. A line is stored as `line + 1` and `0` is an empty
//! way, so a fresh tag store is all zeroes: `vec![0; n]` takes zeroed
//! pages from the allocator and a set nobody touches is never written.
//! The least-recent line of a full set is its last word; which way a line
//! occupies carries no meaning beyond that order.

use crate::config::CacheConfig;

/// Tag store of one cache.
#[derive(Debug)]
pub(crate) struct Cache {
    /// `ways[set * assoc..][..assoc]` is one set, laid out as the module
    /// docs say. `line + 1` cannot overflow: `MachineConfig::check`
    /// rejects lines under 2 bytes, so a line address has its top bit clear.
    ways: Vec<u64>,
    sets: u64,
    assoc: usize,
    /// Line size of *this* cache in bytes (lines are addressed in bytes /
    /// line further up; the cache re-derives its own tag granularity so an
    /// L2 with 128-byte lines can back an L1 with 64-byte lines).
    line_shift: u32,
}

impl Cache {
    /// Build a cache from its configuration.
    pub(crate) fn new(config: &CacheConfig) -> Self {
        let sets = config.sets();
        let assoc = config.assoc.max(1);
        Cache {
            ways: vec![0; sets * assoc],
            sets: sets as u64,
            assoc,
            line_shift: config.line.trailing_zeros(),
        }
    }

    /// Where `line_addr`'s set lies in `ways` (any set count, not only
    /// powers of two).
    #[inline]
    fn set_of(&self, line_addr: u64) -> std::ops::Range<usize> {
        let base = (line_addr % self.sets) as usize * self.assoc;
        base..base + self.assoc
    }

    /// Log2 of this cache's line size.
    #[inline]
    pub(crate) fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// Probe for a line (by this cache's line address); a hit makes it the
    /// set's most recent line.
    #[inline]
    pub(crate) fn probe(&mut self, line_addr: u64) -> bool {
        let key = line_addr + 1;
        let set = self.set_of(line_addr);
        let set = &mut self.ways[set];
        match set.iter().position(|&w| w == key) {
            Some(pos) => {
                set.copy_within(0..pos, 1);
                set[0] = key;
                true
            }
            None => false,
        }
    }

    /// Probe without touching the recency order.
    pub(crate) fn contains(&self, line_addr: u64) -> bool {
        self.ways[self.set_of(line_addr)].contains(&(line_addr + 1))
    }

    /// Insert a line as the set's most recent, evicting the least-recent
    /// line of a full set; returns the evicted line address, if any.
    pub(crate) fn insert(&mut self, line_addr: u64) -> Option<u64> {
        let key = line_addr + 1;
        let set = self.set_of(line_addr);
        let set = &mut self.ways[set];
        // the more-recent lines shift over the line's own word (a refill
        // race), else the first empty way, else the last: the least-recent
        let pos = set
            .iter()
            .position(|&w| w == key)
            .or_else(|| set.iter().position(|&w| w == 0))
            .unwrap_or(set.len() - 1);
        let old = set[pos];
        set.copy_within(0..pos, 1);
        set[0] = key;
        (old != 0 && old != key).then(|| old - 1)
    }

    /// Drop a line if present; returns whether it was present. The way it
    /// leaves empty stays where it is: the lines around it keep their
    /// order, and `insert` fills the first empty way before evicting.
    pub(crate) fn invalidate(&mut self, line_addr: u64) -> bool {
        let key = line_addr + 1;
        let set = self.set_of(line_addr);
        let way = self.ways[set].iter_mut().find(|w| **w == key);
        way.map(|w| *w = 0).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tflux_core::SplitMix64;

    fn geometry(size: usize, assoc: usize) -> CacheConfig {
        CacheConfig {
            size,
            line: 64,
            assoc,
            read_lat: 1,
            write_lat: 1,
        }
    }

    fn tiny() -> Cache {
        // 4 sets x 2 ways, 64B lines
        Cache::new(&geometry(512, 2))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.probe(7));
        c.insert(7);
        assert!(c.probe(7));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // lines 0, 4, 8 all map to set 0 (4 sets)
        c.insert(0);
        c.insert(4);
        c.probe(0); // 0 more recent than 4
        let evicted = c.insert(8);
        assert_eq!(evicted, Some(4));
        assert!(c.contains(0));
        assert!(c.contains(8));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.insert(3);
        assert!(c.invalidate(3));
        assert!(!c.contains(3));
        assert!(!c.invalidate(3));
    }

    #[test]
    fn reinsert_does_not_evict() {
        let mut c = tiny();
        c.insert(0);
        c.insert(4);
        assert_eq!(c.insert(0), None);
        assert!(c.contains(4));
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = tiny();
        for line in 0..4 {
            c.insert(line);
        }
        for line in 0..4 {
            assert!(c.contains(line), "line {line}");
        }
    }

    /// The stamped tag store the recency-ordered sets replaced: parallel
    /// `tags`/`stamps`, a `tick` bumped on every `probe`/`insert`, victim =
    /// smallest stamp, refill = lowest-numbered invalid way.
    struct Stamped {
        tags: Vec<u64>,
        stamps: Vec<u64>,
        sets: usize,
        assoc: usize,
        tick: u64,
    }

    impl Stamped {
        fn new(config: &CacheConfig) -> Self {
            let (sets, assoc) = (config.sets(), config.assoc);
            Stamped {
                tags: vec![u64::MAX; sets * assoc],
                stamps: vec![0; sets * assoc],
                sets,
                assoc,
                tick: 0,
            }
        }

        fn ways(&self, line: u64) -> std::ops::Range<usize> {
            let base = (line % self.sets as u64) as usize * self.assoc;
            base..base + self.assoc
        }

        /// The way of `line`'s set holding `tag` (`u64::MAX` = invalid).
        fn find(&self, line: u64, tag: u64) -> Option<usize> {
            self.ways(line).find(|&w| self.tags[w] == tag)
        }

        fn probe(&mut self, line: u64) -> bool {
            self.tick += 1;
            let hit = self.find(line, line);
            if let Some(w) = hit {
                self.stamps[w] = self.tick;
            }
            hit.is_some()
        }

        fn insert(&mut self, line: u64) -> Option<u64> {
            self.tick += 1;
            let w = self.find(line, line).or_else(|| self.find(line, u64::MAX));
            let w = w.unwrap_or_else(|| self.ways(line).min_by_key(|&w| self.stamps[w]).unwrap());
            let old = std::mem::replace(&mut self.tags[w], line);
            self.stamps[w] = self.tick;
            (old != u64::MAX && old != line).then_some(old)
        }

        fn invalidate(&mut self, line: u64) -> bool {
            let hit = self.find(line, line);
            if let Some(w) = hit {
                self.tags[w] = u64::MAX;
            }
            hit.is_some()
        }
    }

    #[test]
    fn recency_order_matches_the_stamped_reference() {
        // every return value (hit, victim, presence), step by step, on:
        // direct-mapped, a non-power-of-two set count (6), a single set,
        // and the two L1 shapes the presets use
        let shapes = [(256, 1), (64 * 12, 2), (512, 8), (1024, 4), (4096, 8)];
        for (seed, (size, assoc)) in shapes.into_iter().enumerate() {
            let config = geometry(size, assoc);
            let (mut new, mut old) = (Cache::new(&config), Stamped::new(&config));
            let mut rng = SplitMix64(0xCAC4E + seed as u64);
            // three lines per way: sets fill, evict and refill constantly
            let lines = 3 * (size / 64) as u64;
            for step in 0..20_000 {
                let line = rng.below(lines);
                let op = rng.below(8);
                let at = format!("{size}B/{assoc}-way step {step} op {op} line {line}");
                match op {
                    0..=2 => assert_eq!(new.probe(line), old.probe(line), "{at}"),
                    3..=5 => assert_eq!(new.insert(line), old.insert(line), "{at}"),
                    6 => assert_eq!(new.invalidate(line), old.invalidate(line), "{at}"),
                    _ => assert_eq!(new.contains(line), old.find(line, line).is_some(), "{at}"),
                }
            }
        }
    }
}
