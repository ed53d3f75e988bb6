//! Bounded set-associative row cache with seeded random eviction.
//!
//! Zipfian traffic concentrates on a few hot vertices; caching their
//! synthesized neighbor rows turns the one O(deg) query into an O(deg)
//! memcpy (no factor-row walk, no index arithmetic). The cache is
//! deliberately simple and allocation-stable:
//!
//! * **Set-associative** (4 ways per set, power-of-two sets): a lookup
//!   touches one mutex and at most 4 tag compares — no global LRU list,
//!   no hash map, no per-access allocation.
//! * **Seeded random eviction**: when a set is full the victim way is
//!   drawn from a per-set splitmix64 stream seeded at construction.
//!   Random replacement is within a few percent of LRU under zipfian
//!   skew (the hot head is re-inserted immediately on its next hit-miss
//!   anyway) and its decision sequence is a pure function of the seed
//!   and the access order, which keeps seeded load runs reproducible.
//! * **Capacity-retaining slots**: an evicted slot's `Vec` keeps its
//!   allocation and is refilled in place, so steady-state inserts do not
//!   touch the allocator once slot capacities have warmed up to the
//!   working set's row lengths.
//!
//! Hit/miss/eviction counts are wired through `kron-obs` counters at the
//! call sites plus internal relaxed atomics (always on, so the load
//! harness can report a hit rate even with observability disabled).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use kron_graph::hash::{mix64, splitmix64};

const WAYS: usize = 4;

#[derive(Default)]
struct Way {
    /// `vertex + 1`; 0 = empty.
    tag: u64,
    row: Vec<u64>,
}

struct Set {
    ways: [Way; WAYS],
    rng: u64,
}

/// Cache hit/miss/eviction totals since construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a set.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Inserts that displaced a live row.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over lookups, 0.0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Bounded seeded-eviction neighbor-row cache (see module docs).
pub struct RowCache {
    sets: Vec<Mutex<Set>>,
    set_mask: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl RowCache {
    /// A cache holding about `capacity` rows (rounded up to a
    /// power-of-two set count times 4 ways; minimum one set).
    pub fn new(capacity: usize, seed: u64) -> RowCache {
        let sets = (capacity.max(WAYS) / WAYS).next_power_of_two();
        let mut seed_stream = seed;
        let sets: Vec<Mutex<Set>> = (0..sets)
            .map(|_| {
                Mutex::new(Set {
                    ways: Default::default(),
                    rng: splitmix64(&mut seed_stream),
                })
            })
            .collect();
        RowCache {
            set_mask: sets.len() as u64 - 1,
            sets,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Total row slots.
    pub fn capacity(&self) -> usize {
        self.sets.len() * WAYS
    }

    #[inline]
    fn set_of(&self, vertex: u64) -> &Mutex<Set> {
        &self.sets[(mix64(vertex) & self.set_mask) as usize]
    }

    /// On hit, copies the cached row into `out` (cleared first) and
    /// returns true.
    pub fn lookup(&self, vertex: u64, out: &mut Vec<u64>) -> bool {
        let set = self.set_of(vertex).lock().expect("cache poisoned");
        let tag = vertex + 1;
        for way in &set.ways {
            if way.tag == tag {
                out.clear();
                out.extend_from_slice(&way.row);
                self.hits.fetch_add(1, Ordering::Relaxed);
                kron_obs::counter!("serve.cache_hits").inc();
                return true;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        kron_obs::counter!("serve.cache_misses").inc();
        false
    }

    /// Stores `row` for `vertex`, evicting a seeded-random way if the
    /// set is full. A concurrent insert of the same vertex by another
    /// worker just overwrites — rows are pure functions of the vertex.
    pub fn insert(&self, vertex: u64, row: &[u64]) {
        let mut set = self.set_of(vertex).lock().expect("cache poisoned");
        let tag = vertex + 1;
        let slot = match set.ways.iter().position(|w| w.tag == tag || w.tag == 0) {
            Some(i) => i,
            None => {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                kron_obs::counter!("serve.cache_evictions").inc();
                (splitmix64(&mut set.rng) % WAYS as u64) as usize
            }
        };
        let way = &mut set.ways[slot];
        way.tag = tag;
        way.row.clear();
        way.row.extend_from_slice(row);
    }

    /// Zeroes the hit/miss/eviction totals (the `ResetStats` admin
    /// opcode); cached rows stay resident.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Totals since construction (or the last `reset_stats`).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_roundtrips_row() {
        let cache = RowCache::new(64, 1);
        let mut out = Vec::new();
        assert!(!cache.lookup(7, &mut out));
        cache.insert(7, &[1, 2, 3]);
        assert!(cache.lookup(7, &mut out));
        assert_eq!(out, vec![1, 2, 3]);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
    }

    #[test]
    fn reinsert_overwrites_in_place() {
        let cache = RowCache::new(16, 2);
        cache.insert(3, &[9, 9, 9, 9]);
        cache.insert(3, &[5]);
        let mut out = Vec::new();
        assert!(cache.lookup(3, &mut out));
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn eviction_is_bounded_and_deterministic() {
        // One set (capacity 4): inserting many distinct vertices must
        // evict, keep exactly WAYS live rows, and replay identically
        // under the same seed.
        let survivors = |seed: u64| -> Vec<u64> {
            let cache = RowCache::new(1, seed);
            assert_eq!(cache.capacity(), WAYS);
            for v in 0..64u64 {
                cache.insert(v, &[v]);
            }
            assert!(cache.stats().evictions >= 60 - WAYS as u64);
            let mut out = Vec::new();
            (0..64).filter(|&v| cache.lookup(v, &mut out)).collect()
        };
        let a = survivors(42);
        assert_eq!(a.len(), WAYS);
        assert_eq!(a, survivors(42), "same seed, same eviction decisions");
    }

    #[test]
    fn hit_rate_math() {
        let s = CacheStats { hits: 3, misses: 1, evictions: 0 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats { hits: 0, misses: 0, evictions: 0 }.hit_rate(), 0.0);
    }
}
