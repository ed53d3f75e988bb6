//! Measured allocations (feature `measure-alloc`).
//!
//! With the feature on, this module installs a `#[global_allocator]`
//! wrapper around `std::alloc::System` that tracks **live bytes**, a
//! resettable **peak watermark**, and an allocation count in three
//! process-wide atomics. [`measure`] then attributes allocation to a
//! phase by the watermark trick: reset the peak to the current live
//! level, run the phase, and read back `peak - live_before` — the largest
//! amount of memory the phase ever held above its starting point,
//! regardless of what it freed again. Numbers are process-wide: a phase
//! that fans out to worker threads is charged for their allocations too,
//! which is the honest reading of "what did this phase cost the machine".
//!
//! With the feature off every probe returns
//! [`Measure { measured: false, .. }`](Measure) and no allocator is
//! installed, so the default build carries zero allocation overhead.
//! With it on, the overhead is three relaxed atomic ops per
//! allocation/deallocation — behaviour-neutral by construction (the
//! wrapper delegates straight to `System` and never inspects contents).

use serde::Serialize;

/// Allocation accounting of one measured phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Measure {
    /// `false` when built without `measure-alloc` (all numbers are 0 and
    /// meaningless).
    pub measured: bool,
    /// Peak bytes held above the phase's starting live level.
    pub peak_bytes: u64,
    /// Live-byte delta across the phase (what it left allocated).
    pub net_bytes: i64,
    /// Allocations performed during the phase.
    pub allocs: u64,
}

#[cfg(feature = "measure-alloc")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

    pub static LIVE: AtomicI64 = AtomicI64::new(0);
    pub static PEAK: AtomicI64 = AtomicI64::new(0);
    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// Counting wrapper over the system allocator.
    pub struct CountingAllocator;

    #[inline]
    fn on_alloc(size: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                on_alloc(layout.size());
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc_zeroed(layout);
            if !p.is_null() {
                on_alloc(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                ALLOCS.fetch_add(1, Ordering::Relaxed);
                let delta = new_size as i64 - layout.size() as i64;
                let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
                PEAK.fetch_max(live, Ordering::Relaxed);
            }
            p
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;
}

/// Whether this build measures allocations.
pub const fn measuring() -> bool {
    cfg!(feature = "measure-alloc")
}

/// Runs `f` and reports its allocation [`Measure`]. Nests: an inner
/// `measure` resets the shared watermark, so an outer phase's peak is
/// accurate only up to its own high-water point — measure sibling phases,
/// not ancestors, when exact peaks matter.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Measure) {
    #[cfg(feature = "measure-alloc")]
    {
        use std::sync::atomic::Ordering;
        let live0 = counting::LIVE.load(Ordering::Relaxed);
        let allocs0 = counting::ALLOCS.load(Ordering::Relaxed);
        counting::PEAK.store(live0, Ordering::Relaxed);
        let out = f();
        let peak = counting::PEAK.load(Ordering::Relaxed);
        let live1 = counting::LIVE.load(Ordering::Relaxed);
        let allocs1 = counting::ALLOCS.load(Ordering::Relaxed);
        (
            out,
            Measure {
                measured: true,
                peak_bytes: (peak - live0).max(0) as u64,
                net_bytes: live1 - live0,
                allocs: allocs1 - allocs0,
            },
        )
    }
    #[cfg(not(feature = "measure-alloc"))]
    {
        (f(), Measure::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_feature_state() {
        let (sum, m) = measure(|| {
            let v: Vec<u64> = (0..10_000).collect();
            v.iter().sum::<u64>()
        });
        assert_eq!(sum, (0..10_000).sum());
        assert_eq!(m.measured, measuring());
        if m.measured {
            // The 80 KB vector was allocated and freed inside the phase.
            assert!(m.peak_bytes >= 80_000, "peak {} too small", m.peak_bytes);
            assert!(m.allocs > 0);
        } else {
            assert_eq!(m, Measure::default());
        }
    }
}
