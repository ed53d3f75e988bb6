//! Reusable scratch-buffer arena for the kernel tier.
//!
//! The bitmap triangle kernel, the bitset multi-source BFS, and the
//! class-collapsed closeness batch all need short-lived scratch vectors
//! (anchor bitmaps, frontier words, match buffers, memo grids) whose
//! sizes repeat call after call. Allocating them fresh per call is pure
//! churn — the PR 5 measured-allocation profile showed thousands of
//! identical-size allocations per `closeness_batch` sweep. [`Arena`] is
//! a small typed pool: [`Arena::take_words`] / [`Arena::take_ints`]
//! hand out **zeroed** buffers recycled from earlier takes, and the RAII
//! guard returns the backing storage to the pool on drop.
//!
//! ## Determinism contract
//!
//! A recycled buffer is indistinguishable from a fresh one: every take
//! zeroes the requested prefix before handing it out, so no state leaks
//! between calls and results are bit-identical whether a take hits the
//! pool or allocates. The pool itself only affects *where* the bytes
//! live, never what they hold.
//!
//! ## Concurrency
//!
//! The pool is a mutex over a free list; takes happen once per kernel
//! call, never in inner loops, so the lock is uncontended in practice.
//! Guards are `Send`, so kernels called from several threads at once
//! (the test harness runs tests on parallel threads) can take and drop
//! buffers freely.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Maximum buffers kept per pool; extras are dropped on return so a burst
/// of oversubscribed workers cannot pin memory forever.
const POOL_CAP: usize = 32;

/// Cumulative take statistics (process lifetime, monotone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Takes served from the pool with sufficient capacity (no allocation).
    pub hits: u64,
    /// Takes that had to allocate or grow a buffer.
    pub misses: u64,
}

/// A typed pool of reusable scratch buffers (see module docs).
pub struct Arena {
    words: Mutex<Vec<Vec<u64>>>,
    ints: Mutex<Vec<Vec<u32>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Arena {
    /// An empty arena.
    pub const fn new() -> Self {
        Arena {
            words: Mutex::new(Vec::new()),
            ints: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The process-wide arena the built-in kernels draw from.
    pub fn global() -> &'static Arena {
        static GLOBAL: OnceLock<Arena> = OnceLock::new();
        GLOBAL.get_or_init(Arena::new)
    }

    /// Takes a zeroed `u64` buffer of exactly `len` entries.
    pub fn take_words(&self, len: usize) -> ArenaBuf<'_, u64> {
        Self::take_from(&self.words, &self.hits, &self.misses, len)
    }

    /// Takes a zeroed `u32` buffer of exactly `len` entries.
    pub fn take_ints(&self, len: usize) -> ArenaBuf<'_, u32> {
        Self::take_from(&self.ints, &self.hits, &self.misses, len)
    }

    fn take_from<'a, T: Copy + Default>(
        pool: &'a Mutex<Vec<Vec<T>>>,
        hits: &AtomicU64,
        misses: &AtomicU64,
        len: usize,
    ) -> ArenaBuf<'a, T> {
        // Best fit: the smallest pooled buffer whose capacity suffices;
        // otherwise recycle the largest (its capacity grows once) or
        // allocate fresh when the pool is empty.
        let mut guard = pool.lock().unwrap_or_else(|p| p.into_inner());
        let pick = guard
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i)
            .or_else(|| {
                guard
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, b)| b.capacity())
                    .map(|(i, _)| i)
            });
        let mut buf = match pick {
            Some(i) => guard.swap_remove(i),
            None => Vec::new(),
        };
        drop(guard);
        let hit = buf.capacity() >= len;
        if hit {
            hits.fetch_add(1, Ordering::Relaxed);
            kron_obs::counter!("arena.take_hits").add(1);
        } else {
            misses.fetch_add(1, Ordering::Relaxed);
            kron_obs::counter!("arena.take_misses").add(1);
        }
        // Zero the full requested prefix: recycled contents must never be
        // observable (determinism contract above).
        buf.clear();
        buf.resize(len, T::default());
        ArenaBuf { pool, buf }
    }

    /// Cumulative hit/miss counts for this arena.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl Default for Arena {
    fn default() -> Self {
        Arena::new()
    }
}

/// RAII scratch buffer: derefs to a slice, returns its storage to the
/// owning [`Arena`] pool on drop.
pub struct ArenaBuf<'a, T> {
    pool: &'a Mutex<Vec<Vec<T>>>,
    buf: Vec<T>,
}

impl<T> ArenaBuf<'_, T> {
    /// The buffer as a mutable vector, for the rare push-style use; the
    /// storage is still recycled on drop.
    pub fn as_vec_mut(&mut self) -> &mut Vec<T> {
        &mut self.buf
    }
}

impl<T> Deref for ArenaBuf<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.buf
    }
}

impl<T> DerefMut for ArenaBuf<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf
    }
}

impl<T> Drop for ArenaBuf<'_, T> {
    fn drop(&mut self) {
        let mut guard = self.pool.lock().unwrap_or_else(|p| p.into_inner());
        if guard.len() < POOL_CAP {
            guard.push(std::mem::take(&mut self.buf));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn takes_are_zeroed_even_after_reuse() {
        let arena = Arena::new();
        {
            let mut b = arena.take_words(8);
            b.iter_mut().for_each(|w| *w = u64::MAX);
        }
        let b = arena.take_words(8);
        assert!(b.iter().all(|&w| w == 0));
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn reuse_is_a_hit_fresh_is_a_miss() {
        let arena = Arena::new();
        drop(arena.take_words(16));
        let s0 = arena.stats();
        assert_eq!((s0.hits, s0.misses), (0, 1));
        drop(arena.take_words(10)); // fits in the recycled capacity
        let s1 = arena.stats();
        assert_eq!((s1.hits, s1.misses), (1, 1));
        drop(arena.take_words(1000)); // must grow: a miss
        let s2 = arena.stats();
        assert_eq!((s2.hits, s2.misses), (1, 2));
    }

    #[test]
    fn typed_pools_are_independent() {
        let arena = Arena::new();
        drop(arena.take_words(8));
        let i = arena.take_ints(8); // u32 pool is empty: a miss
        assert_eq!(arena.stats().misses, 2);
        assert_eq!(i.len(), 8);
    }

    #[test]
    fn zero_length_take() {
        let arena = Arena::new();
        let b = arena.take_ints(0);
        assert!(b.is_empty());
    }

    #[test]
    fn concurrent_takes_do_not_interfere() {
        let arena = Arena::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..16 {
                        let mut b = arena.take_words(64);
                        b.iter_mut().for_each(|w| *w = 7);
                        assert!(b.iter().all(|&w| w == 7));
                    }
                });
            }
        });
        let s = arena.stats();
        assert_eq!(s.hits + s.misses, 64);
    }
}
