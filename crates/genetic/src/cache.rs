//! The genome-keyed fitness cache.
//!
//! GA fitness here is a full subsetting pipeline run (cluster → select
//! representatives → predict two targets), so re-evaluating a genome the
//! population has already tried is pure waste. The cache memoises
//! `BitGenome → fitness` across generations — and, when shared, across
//! whole GA runs — and exposes hit/miss counters so the savings are
//! observable.
//!
//! Growth is eviction-free by design: the table can never exceed
//! `min(distinct evaluation requests, 2^genome_len)` entries, and at the
//! paper's scale (76-bit genomes, 100 × 1000 evaluations) that is at most
//! 100 000 `(genome, f64)` pairs — small enough to keep forever.
//!
//! One mutex guards the table. Only the GA's driver thread touches it
//! ([`crate::minimize_parallel`] looks a batch up before its pool map and
//! inserts after it), so the lock is never contended.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::genome::BitGenome;

/// A thread-safe, eviction-free `BitGenome → fitness` cache with hit/miss
/// counters.
#[derive(Debug, Default)]
pub struct FitnessCache {
    table: Mutex<HashMap<BitGenome, f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl FitnessCache {
    /// An empty cache.
    pub fn new() -> FitnessCache {
        FitnessCache::default()
    }

    /// The table. Nothing that can panic runs under the lock, so even a
    /// poisoned table is whole.
    fn table(&self) -> MutexGuard<'_, HashMap<BitGenome, f64>> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Cached fitness of `genome`, recording a hit or a miss.
    pub fn lookup(&self, genome: &BitGenome) -> Option<f64> {
        let found = self.peek(genome);
        match found {
            Some(_) => self.count_hit(),
            None => self.count_miss(),
        }
        found
    }

    /// Cached fitness without touching the counters (batch evaluation
    /// accounts hits and misses itself so the counters match what a
    /// serial one-at-a-time evaluation would have recorded).
    pub fn peek(&self, genome: &BitGenome) -> Option<f64> {
        self.table().get(genome).copied()
    }

    /// Record a hit accounted externally (see [`FitnessCache::peek`]).
    pub fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        fgbs_trace::counter("ga.cache_hits", 1);
    }

    /// Record a miss accounted externally.
    pub fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        fgbs_trace::counter("ga.cache_misses", 1);
    }

    /// Store the fitness of a genome evaluated by the caller.
    pub fn insert(&self, genome: BitGenome, fitness: f64) {
        self.table().insert(genome, fitness);
    }

    /// Snapshot every cached `(genome, fitness)` pair, for persisting
    /// warm starts across processes. Iteration order is unspecified —
    /// serialisers must sort.
    pub fn entries(&self) -> Vec<(BitGenome, f64)> {
        self.table().iter().map(|(g, &f)| (g.clone(), f)).collect()
    }

    /// Number of distinct genomes cached.
    pub fn len(&self) -> usize {
        self.table().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that required evaluating the fitness function.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(bits: &[bool]) -> BitGenome {
        BitGenome::from_bits(bits.to_vec())
    }

    #[test]
    fn hit_on_reseen_genome() {
        let c = FitnessCache::new();
        let a = g(&[true, false, true]);
        assert_eq!(c.lookup(&a), None);
        c.insert(a.clone(), 2.5);
        assert_eq!(c.lookup(&a), Some(2.5));
        // A clone is the same key.
        assert_eq!(c.lookup(&a.clone()), Some(2.5));
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn growth_is_bounded_by_distinct_genomes() {
        // 2^3 = 8 possible genomes; hammer the cache with 1000 requests.
        let c = FitnessCache::new();
        let mut evals = 0usize;
        for i in 0..1000usize {
            let genome = g(&[(i & 1) != 0, (i & 2) != 0, (i & 4) != 0]);
            if c.lookup(&genome).is_none() {
                evals += 1;
                c.insert(genome, i as f64);
            }
        }
        assert_eq!(evals, 8, "every genome evaluated exactly once");
        assert_eq!(c.len(), 8);
        assert_eq!(c.len(), evals.min(1 << 3));
        assert_eq!(c.misses(), 8);
        assert_eq!(c.hits(), 1000 - 8);
    }

    #[test]
    fn growth_bound_when_evals_are_the_minimum() {
        // Fewer requests than 2^len: the bound is the request count.
        let c = FitnessCache::new();
        for i in 0..5usize {
            let mut bits = vec![false; 20];
            bits[i] = true;
            c.insert(g(&bits), 0.0);
        }
        let (evals, genome_space) = (5usize, 1usize << 20);
        assert_eq!(c.len(), evals.min(genome_space));
    }

    #[test]
    fn counters_match_hand_computed_scenario() {
        // Scenario: evaluate A, B, A, C, B, A one at a time.
        //   A -> miss (evaluate), B -> miss, A -> hit, C -> miss,
        //   B -> hit, A -> hit.          => 3 misses, 3 hits, 3 entries.
        let c = FitnessCache::new();
        let (a, b, d) = (g(&[true]), g(&[false]), g(&[true, true]));
        for (genome, fit) in [(&a, 1.0), (&b, 2.0), (&a, 1.0), (&d, 3.0), (&b, 2.0), (&a, 1.0)] {
            match c.lookup(genome) {
                Some(v) => assert_eq!(v, fit),
                None => c.insert(genome.clone(), fit),
            }
        }
        assert_eq!(c.misses(), 3);
        assert_eq!(c.hits(), 3);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn peek_with_manual_accounting() {
        let c = FitnessCache::new();
        c.insert(g(&[true]), 9.0);
        assert_eq!(c.peek(&g(&[true])), Some(9.0));
        assert_eq!((c.hits(), c.misses()), (0, 0));
        c.count_hit();
        c.count_miss();
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }
}
