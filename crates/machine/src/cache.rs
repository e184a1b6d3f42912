//! Set-associative LRU cache hierarchy simulator.
//!
//! Every load and store of every simulated iteration walks this structure,
//! or is credited as the L1 hit the walk would find (the executor's
//! same-line replay).
//! The model is deliberately simple — physical addressing, 64-byte lines,
//! LRU replacement, write-allocate, no writeback traffic accounting — but
//! it captures the first-order effect the paper's clustering must see:
//! working sets falling out of a 3 MB Core 2 L2 that fit a 12 MB Nehalem
//! L3, and so on.

use crate::arch::{Arch, CacheLevel, LINE};

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Index of the level that hit: `0` = L1, `1` = L2, ... and
    /// `levels()` = DRAM.
    pub level: usize,
}

#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
struct Level {
    /// `n_sets` runs of `assoc` tags, one run per set, most recently
    /// used first. A tag is its line address plus one, so a zeroed way is
    /// empty, and a set's empty ways always trail its occupied ones.
    tags: Vec<u64>,
    assoc: usize,
    set_mask: u64,
    hits: u64,
    misses: u64,
}

impl Level {
    fn new(cfg: &CacheLevel) -> Level {
        let lines = (cfg.size / LINE).max(1);
        let assoc = cfg.assoc.max(1) as u64;
        let mut n_sets = (lines / assoc).max(1);
        // Round down to a power of two so set indexing is a mask.
        n_sets = 1 << (63 - n_sets.leading_zeros());
        Level {
            tags: vec![0; (n_sets * assoc) as usize],
            assoc: assoc as usize,
            set_mask: n_sets - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Returns true on hit; on miss the line is inserted (LRU evict).
    #[inline]
    fn access(&mut self, line_addr: u64) -> bool {
        let tag = line_addr + 1;
        let start = (line_addr & self.set_mask) as usize * self.assoc;
        let ways = &mut self.tags[start..start + self.assoc];
        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            // Move to front (most-recently-used).
            ways[..=pos].rotate_right(1);
            self.hits += 1;
            true
        } else {
            // The last way (empty, or the LRU line) is evicted.
            ways.rotate_right(1);
            ways[0] = tag;
            self.misses += 1;
            false
        }
    }

    fn flush(&mut self) {
        self.tags.fill(0);
    }
}

/// The lines a cache hierarchy holds: every level's sets, each in LRU
/// order, without the statistics ([`crate::Machine::lines`]).
#[derive(Debug)]
pub struct Lines(Vec<Vec<u64>>);

/// A multi-level cache simulator configured from an [`Arch`].
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct CacheSim {
    levels: Vec<Level>,
}

impl CacheSim {
    /// Build the hierarchy described by `arch`.
    pub fn new(arch: &Arch) -> CacheSim {
        CacheSim {
            levels: arch.caches.iter().map(Level::new).collect(),
        }
    }

    /// Number of cache levels (DRAM is level `levels()`).
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Access `size` bytes at byte address `addr`. Returns the deepest
    /// level consulted: 0 for an L1 hit, `levels()` for DRAM.
    ///
    /// Accesses never straddle lines in practice (arrays are line-aligned
    /// and elements are power-of-two sized), but if one does, the worst
    /// outcome of the spanned lines is reported. The lines are counted
    /// from the offset within the first one, so an access ending past
    /// `u64::MAX` touches the lines after it rather than wrapping round.
    #[inline]
    pub fn access(&mut self, addr: u64, size: u64) -> AccessOutcome {
        let first = addr / LINE;
        let spanned = (addr % LINE + size.max(1) - 1) / LINE;
        let mut deepest = self.access_line(first);
        for k in 1..=spanned {
            deepest = deepest.max(self.access_line(first + k));
        }
        AccessOutcome { level: deepest }
    }

    #[inline]
    fn access_line(&mut self, line_addr: u64) -> usize {
        for (i, level) in self.levels.iter_mut().enumerate() {
            if level.access(line_addr) {
                // Hit at level i; line was refilled into shallower levels
                // already (miss path below inserts on the way down).
                return i;
            }
        }
        self.levels.len()
    }

    /// L1's associativity.
    pub(crate) fn l1_ways(&self) -> usize {
        self.levels[0].assoc
    }

    /// Count `n` L1 hits without touching any line: for accesses the
    /// caller knows hit lines already at the front of their sets, so the
    /// walk would leave every set as it is.
    pub(crate) fn credit_l1_hits(&mut self, n: u64) {
        self.levels[0].hits += n;
    }

    /// Count a run's hits and misses per level, L1 first, without
    /// touching any line: for a run the caller knows starts and ends in
    /// the state the cache is in.
    pub(crate) fn credit(&mut self, hits: &[u64], misses: &[u64]) {
        for ((level, &h), &m) in self.levels.iter_mut().zip(hits).zip(misses) {
            level.hits += h;
            level.misses += m;
        }
    }

    /// A copy of every level's tags, L1 first.
    pub(crate) fn lines(&self) -> Lines {
        Lines(self.levels.iter().map(|l| l.tags.clone()).collect())
    }

    /// Whether every level holds the lines of `lines`, in the same order.
    pub(crate) fn holds(&self, lines: &Lines) -> bool {
        self.levels.iter().map(|l| &l.tags).eq(&lines.0)
    }

    /// Hits and misses per level, L1 first.
    pub fn stats(&self) -> Vec<(u64, u64)> {
        self.levels.iter().map(|l| (l.hits, l.misses)).collect()
    }

    /// Drop all cached lines (counters are preserved).
    pub fn flush(&mut self) {
        for l in &mut self.levels {
            l.flush();
        }
    }

    /// Reset hit/miss counters.
    pub fn reset_stats(&mut self) {
        for l in &mut self.levels {
            l.hits = 0;
            l.misses = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{Arch, PARK_SCALE};
    use proptest::prelude::*;

    fn sim() -> CacheSim {
        CacheSim::new(&Arch::nehalem())
    }

    #[test]
    fn first_touch_misses_everywhere() {
        let mut c = sim();
        let o = c.access(0x1000, 8);
        assert_eq!(o.level, c.levels()); // DRAM
    }

    #[test]
    fn second_touch_hits_l1() {
        let mut c = sim();
        c.access(0x1000, 8);
        let o = c.access(0x1000, 8);
        assert_eq!(o.level, 0);
        // Same line, different element: still L1.
        let o = c.access(0x1008, 8);
        assert_eq!(o.level, 0);
    }

    #[test]
    fn capacity_eviction_falls_back_to_l2() {
        let mut c = sim();
        // Touch 64 KB (twice the 32 KB L1): first pass misses, second pass
        // should hit L2 (fits easily in 256 KB) but not L1 for the evicted
        // half.
        let n = 64 * 1024 / 64;
        for i in 0..n {
            c.access(i * 64, 8);
        }
        let mut l1_hits = 0;
        let mut l2_hits = 0;
        for i in 0..n {
            match c.access(i * 64, 8).level {
                0 => l1_hits += 1,
                1 => l2_hits += 1,
                _ => {}
            }
        }
        assert!(l2_hits > n / 2, "most of the second pass should hit L2");
        assert!(l1_hits < n / 2);
    }

    #[test]
    fn flush_forgets_lines_but_keeps_counter_history() {
        let mut c = sim();
        c.access(0x40, 8);
        c.flush();
        let o = c.access(0x40, 8);
        assert_eq!(o.level, c.levels());
        let (hits, misses) = c.stats()[0];
        assert_eq!(hits, 0);
        assert_eq!(misses, 2);
        c.reset_stats();
        assert_eq!(c.stats()[0], (0, 0));
    }

    #[test]
    fn hits_plus_misses_equals_accesses() {
        let mut c = sim();
        let n = 1000u64;
        for i in 0..n {
            c.access(i * 16, 8);
        }
        let (h, m) = c.stats()[0];
        assert_eq!(h + m, n);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut c = sim();
        c.access(60, 8); // spans lines 0 and 1
        let a = c.access(0, 8);
        let b = c.access(64, 8);
        assert_eq!(a.level, 0);
        assert_eq!(b.level, 0);
    }

    #[test]
    fn lru_keeps_hot_line() {
        let mut c = sim();
        // L1: 32 KB, 8-way, 64 sets. Lines mapping to set 0 are multiples
        // of 64*64 = 4096 bytes.
        let hot = 0u64;
        c.access(hot, 8);
        // Touch 7 more distinct lines in the same set: hot stays (8-way).
        for i in 1..8u64 {
            c.access(i * 4096, 8);
        }
        assert_eq!(c.access(hot, 8).level, 0);
        // Touch 8 further lines, now hot is evicted... but it was just
        // re-used (MRU), so 8 new insertions are needed to push it out.
        for i in 8..16u64 {
            c.access(i * 4096, 8);
        }
        assert!(c.access(hot, 8).level > 0);
    }

    #[test]
    fn access_ending_past_the_address_space_touches_two_lines() {
        let mut c = sim();
        assert_eq!(c.access(u64::MAX - 3, 8).level, c.levels());
        assert_eq!(c.stats()[0], (0, 2), "one L1 miss per spanned line");
        assert_eq!(c.access(u64::MAX - 3, 8).level, 0);
        assert_eq!(c.stats()[0], (2, 2));
    }

    /// A list-per-set LRU level, moved to front with `remove` +
    /// `insert(0, ..)`: the reference the flat layout must match access
    /// for access.
    #[derive(Debug, Clone)]
    struct NaiveLevel {
        /// `sets[s]` holds up to `assoc` line addresses, most recent first.
        sets: Vec<Vec<u64>>,
        assoc: usize,
        set_mask: u64,
        hits: u64,
        misses: u64,
    }

    impl NaiveLevel {
        fn new(cfg: &CacheLevel) -> NaiveLevel {
            let lines = (cfg.size / LINE).max(1);
            let assoc = cfg.assoc.max(1) as u64;
            let mut n_sets = (lines / assoc).max(1);
            n_sets = 1 << (63 - n_sets.leading_zeros());
            NaiveLevel {
                sets: vec![Vec::new(); n_sets as usize],
                assoc: assoc as usize,
                set_mask: n_sets - 1,
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, line_addr: u64) -> bool {
            let set = (line_addr & self.set_mask) as usize;
            let ways = &mut self.sets[set];
            if let Some(pos) = ways.iter().position(|&t| t == line_addr) {
                let t = ways.remove(pos);
                ways.insert(0, t);
                self.hits += 1;
                true
            } else {
                ways.insert(0, line_addr);
                if ways.len() > self.assoc {
                    ways.pop();
                }
                self.misses += 1;
                false
            }
        }
    }

    /// [`CacheSim`] over [`NaiveLevel`]s, walking the lines from `addr`
    /// to `addr + size - 1` (which must not wrap).
    struct NaiveSim {
        levels: Vec<NaiveLevel>,
    }

    impl NaiveSim {
        fn new(arch: &Arch) -> NaiveSim {
            NaiveSim {
                levels: arch.caches.iter().map(NaiveLevel::new).collect(),
            }
        }

        fn access(&mut self, addr: u64, size: u64) -> usize {
            let first = addr >> LINE.trailing_zeros();
            let last = (addr + size.max(1) - 1) >> LINE.trailing_zeros();
            (first..=last)
                .map(|line| {
                    self.levels
                        .iter_mut()
                        .position(|l| l.access(line))
                        .unwrap_or(self.levels.len())
                })
                .max()
                .unwrap_or(0)
        }

        fn stats(&self) -> Vec<(u64, u64)> {
            self.levels.iter().map(|l| (l.hits, l.misses)).collect()
        }

        fn flush(&mut self) {
            for l in &mut self.levels {
                l.sets.iter_mut().for_each(Vec::clear);
            }
        }

        fn reset_stats(&mut self) {
            for l in &mut self.levels {
                l.hits = 0;
                l.misses = 0;
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Step {
        Access(u64, u64),
        Flush,
        ResetStats,
    }

    /// A seeded stream of strided, random (some unaligned, so straddling
    /// lines) and set-conflicting accesses, with the odd flush and stats
    /// reset in between.
    fn stream(seed: u64, len: usize) -> Vec<Step> {
        let mut x = seed;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 11
        };
        let stride = [8u64, 64, 136, 4096 + 64, 1 << 15][next() as usize % 5];
        let footprint = 1u64 << (12 + next() % 12);
        let base = next() % (1 << 40);
        let mut cursor = 0u64;
        (0..len)
            .map(|_| {
                let r = next();
                match r % 200 {
                    0 => Step::Flush,
                    1 => Step::ResetStats,
                    2..=69 => {
                        cursor = (cursor + stride) % footprint;
                        Step::Access(base + cursor, 8)
                    }
                    70..=129 => Step::Access(
                        base + (r >> 8) % footprint,
                        [1, 4, 8, 16][(r >> 3) as usize % 4],
                    ),
                    // 24 lines 256 KiB apart share a set in every level
                    // of up to 4096 sets: more lines than any set has ways.
                    _ => Step::Access(base + ((r >> 8) % 24) * (1 << 18), 8),
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn flat_sets_match_the_list_oracle(seed in any::<u64>(), len in 1usize..4000) {
            let steps = stream(seed, len);
            for full in Arch::table1() {
                for arch in [full.clone().scaled(PARK_SCALE), full] {
                    let mut flat = CacheSim::new(&arch);
                    let mut naive = NaiveSim::new(&arch);
                    for (i, step) in steps.iter().enumerate() {
                        match *step {
                            Step::Access(addr, size) => prop_assert_eq!(
                                flat.access(addr, size).level,
                                naive.access(addr, size),
                                "{} step {i}: access({addr:#x}, {size})",
                                arch.name
                            ),
                            Step::Flush => {
                                flat.flush();
                                naive.flush();
                            }
                            Step::ResetStats => {
                                prop_assert_eq!(flat.stats(), naive.stats(), "{} step {i}", arch.name);
                                flat.reset_stats();
                                naive.reset_stats();
                            }
                        }
                    }
                    prop_assert_eq!(flat.stats(), naive.stats(), "{}", arch.name);
                }
            }
        }
    }
}
