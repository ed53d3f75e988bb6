//! Property tests for the flight recorder (DESIGN.md §14): drains
//! return exactly the last `min(written, capacity)` events, the
//! overflow count is exact, nothing is lost below capacity, and the
//! drained merge is deterministic for quiesced producers regardless of
//! how recording threads interleaved.

use kron_obs::ring::{self, StageNs, ETYPE_QUERY, RING_CAPACITY};
use proptest::prelude::*;

/// The recorder is process-global state and the harness runs tests on
/// parallel threads, so every case takes this lock.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Single producer: `written` is exact, survivors are exactly the
    /// most recent `min(n, capacity)` events in write order, and
    /// `overflow == written - capacity` exactly (0 below capacity).
    #[test]
    fn drain_matches_written_mod_capacity(
        n in 0usize..3 * RING_CAPACITY,
        base in 0u64..1 << 32,
    ) {
        let _g = serial();
        ring::reset();
        for i in 0..n {
            ring::record_query(base + i as u64, 2, 0, 1, StageNs::default());
        }
        let snap = ring::snapshot();
        prop_assert_eq!(snap.total_written(), n as u64);
        prop_assert_eq!(snap.total_events(), n.min(RING_CAPACITY));
        prop_assert_eq!(
            snap.total_overflow(),
            (n as u64).saturating_sub(RING_CAPACITY as u64)
        );
        prop_assert!(snap.rings.iter().all(|r| r.torn == 0), "quiesced drain is exact");

        // The survivors are the LAST min(n, cap) ids, ascending.
        let got: Vec<u64> = snap
            .rings
            .iter()
            .flat_map(|r| &r.events)
            .filter(|e| e.etype == ETYPE_QUERY)
            .map(|e| e.id)
            .collect();
        let want: Vec<u64> =
            (n.saturating_sub(RING_CAPACITY)..n).map(|i| base + i as u64).collect();
        prop_assert_eq!(got, want);
    }

    /// Concurrent producers below capacity: zero events lost, every
    /// thread's events survive in its write order, and draining twice
    /// after quiescing yields bit-identical snapshots no matter how the
    /// threads interleaved.
    #[test]
    fn concurrent_producers_lose_nothing_and_merge_deterministically(
        counts in proptest::collection::vec(1usize..200, 1..4usize),
    ) {
        let _g = serial();
        ring::reset();
        let handles: Vec<_> = counts
            .iter()
            .enumerate()
            .map(|(t, &n)| {
                std::thread::spawn(move || {
                    for i in 0..n {
                        let id = ((t as u64) << 32) | i as u64;
                        ring::record_query(id, t as u8, 0, 1, StageNs::default());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("producer");
        }

        let snap1 = ring::snapshot();
        let snap2 = ring::snapshot();
        prop_assert_eq!(&snap1, &snap2, "quiesced drains are deterministic");

        let total: usize = counts.iter().sum();
        prop_assert_eq!(snap1.total_events(), total, "zero events lost below capacity");
        prop_assert_eq!(snap1.total_overflow(), 0);
        prop_assert_eq!(snap1.dropped_threads, 0);

        // Per-producer order is preserved by the (ring-ascending,
        // seq-ascending) merge even when ring reuse packs two producers
        // into one ring.
        for (t, &n) in counts.iter().enumerate() {
            let ids: Vec<u64> = snap1
                .rings
                .iter()
                .flat_map(|r| &r.events)
                .filter(|e| e.id >> 32 == t as u64)
                .map(|e| e.id & 0xffff_ffff)
                .collect();
            let want: Vec<u64> = (0..n as u64).collect();
            prop_assert_eq!(ids, want, "producer {} order preserved", t);
        }
    }
}
