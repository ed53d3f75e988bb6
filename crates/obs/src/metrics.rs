//! Metrics registry: counters and max-gauges, plus the one shared
//! log2-bucket quantile derivation.
//!
//! One global sharded registry: handles ([`Counter`], [`Gauge`]) are
//! interned once per site (the [`counter!`](crate::counter!) and
//! [`gauge!`](crate::gauge!) macros cache them in a `OnceLock`);
//! updates go to a thread-local shard as plain indexed arithmetic, and
//! shards fold into the global accumulator when a thread exits or on
//! [`flush_thread`]. Every merge operation is commutative — sum for
//! counters, max for gauges — and snapshots sort by name, so the merged
//! result is identical under any thread schedule. Disabled probes pay
//! one atomic load and a branch.
//!
//! Latency quantiles ([`quantiles_of`]) fold raw samples into log2
//! buckets: value `v` lands in bucket `ceil(log2(v + 1))`, i.e. bucket 0
//! holds exactly `v = 0`, bucket `i` holds `2^(i-1) <= v < 2^i`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use serde::Serialize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
}

/// One shard/accumulator slot.
#[derive(Debug, Clone, PartialEq)]
enum Slot {
    Counter(u64),
    Gauge(u64),
}

impl Slot {
    fn new(kind: Kind) -> Slot {
        match kind {
            Kind::Counter => Slot::Counter(0),
            Kind::Gauge => Slot::Gauge(0),
        }
    }

    /// Commutative fold of `other` into `self`.
    fn merge(&mut self, other: &Slot) {
        match (self, other) {
            (Slot::Counter(a), Slot::Counter(b)) => *a += *b,
            (Slot::Gauge(a), Slot::Gauge(b)) => *a = (*a).max(*b),
            _ => unreachable!("slot kinds fixed at registration"),
        }
    }
}

struct Intern {
    names: Vec<(&'static str, Kind)>,
    by_name: BTreeMap<&'static str, usize>,
}

fn intern() -> &'static Mutex<Intern> {
    static INTERN: OnceLock<Mutex<Intern>> = OnceLock::new();
    INTERN.get_or_init(|| Mutex::new(Intern { names: Vec::new(), by_name: BTreeMap::new() }))
}

/// Global accumulator: folded shards of exited/flushed threads.
fn accumulator() -> &'static Mutex<Vec<Slot>> {
    static ACC: OnceLock<Mutex<Vec<Slot>>> = OnceLock::new();
    ACC.get_or_init(|| Mutex::new(Vec::new()))
}

fn register(name: &'static str, kind: Kind) -> usize {
    let mut intern = intern().lock().expect("metric intern poisoned");
    if let Some(&id) = intern.by_name.get(name) {
        assert_eq!(
            intern.names[id].1, kind,
            "metric {name:?} registered twice with different kinds"
        );
        return id;
    }
    let id = intern.names.len();
    intern.names.push((name, kind));
    intern.by_name.insert(name, id);
    id
}

struct Shard {
    slots: Vec<Option<Slot>>,
}

impl Shard {
    fn slot(&mut self, id: usize, kind: Kind) -> &mut Slot {
        if self.slots.len() <= id {
            self.slots.resize(id + 1, None);
        }
        self.slots[id].get_or_insert_with(|| Slot::new(kind))
    }

    fn fold_into_global(&mut self) {
        if self.slots.iter().all(Option::is_none) {
            return;
        }
        let mut acc = accumulator().lock().expect("metric accumulator poisoned");
        for (id, slot) in self.slots.iter_mut().enumerate() {
            let Some(slot) = slot.take() else { continue };
            if acc.len() <= id {
                let kinds = intern().lock().expect("metric intern poisoned");
                while acc.len() <= id {
                    let kind = kinds.names[acc.len()].1;
                    acc.push(Slot::new(kind));
                }
            }
            acc[id].merge(&slot);
        }
        self.slots.clear();
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        // Thread exit: publish everything this thread recorded.
        self.fold_into_global();
    }
}

thread_local! {
    static SHARD: RefCell<Shard> = const { RefCell::new(Shard { slots: Vec::new() }) };
}

/// Monotonically increasing sum. `Copy`; intern once per site via
/// [`counter!`].
#[derive(Debug, Clone, Copy)]
pub struct Counter(usize);

impl Counter {
    /// Interns (or looks up) the counter named `name`.
    pub fn register(name: &'static str) -> Counter {
        Counter(register(name, Kind::Counter))
    }

    /// Adds `v`; no-op (one atomic load) when observability is disabled.
    #[inline]
    pub fn add(self, v: u64) {
        if !crate::enabled() {
            return;
        }
        SHARD.with(|s| {
            if let Slot::Counter(c) = s.borrow_mut().slot(self.0, Kind::Counter) {
                *c += v;
            }
        });
    }

    /// Adds one.
    #[inline]
    pub fn inc(self) {
        self.add(1);
    }
}

/// High-watermark gauge: merge takes the max across observations and
/// threads (use for depths and peaks; max is the commutative reading).
#[derive(Debug, Clone, Copy)]
pub struct Gauge(usize);

impl Gauge {
    /// Interns (or looks up) the gauge named `name`.
    pub fn register(name: &'static str) -> Gauge {
        Gauge(register(name, Kind::Gauge))
    }

    /// Raises the watermark to at least `v`.
    #[inline]
    pub fn observe(self, v: u64) {
        if !crate::enabled() {
            return;
        }
        SHARD.with(|s| {
            if let Slot::Gauge(g) = s.borrow_mut().slot(self.0, Kind::Gauge) {
                *g = (*g).max(v);
            }
        });
    }
}

/// Interns a [`Counter`] once per call site and returns the `Copy` handle.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::Counter::register($name))
    }};
}

/// Interns a [`Gauge`] once per call site and returns the `Copy` handle.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::metrics::Gauge> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::Gauge::register($name))
    }};
}

/// Folds the calling thread's shard into the global accumulator now
/// (normally this happens when the thread exits).
pub fn flush_thread() {
    SHARD.with(|s| s.borrow_mut().fold_into_global());
}

/// One named counter or gauge value in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NamedValue {
    /// Metric name.
    pub name: String,
    /// Merged value (sum for counters, max for gauges).
    pub value: u64,
}

/// Value range covered by log2 bucket `b`: `(0, 0)` for bucket 0, else
/// `(2^(b-1), 2^b - 1)` (saturating at `u64::MAX` for bucket 64).
fn bucket_bounds(b: u32) -> (u64, u64) {
    if b == 0 {
        return (0, 0);
    }
    let lo = 1u64 << (b - 1);
    let hi = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
    (lo, hi)
}

/// Quantiles derived from sparse log2 `(bucket, count)` pairs — the ONE
/// shared percentile implementation ([`quantiles_of`]; the `Stats` admin
/// reply and `kron-load`'s latency summary both route through it).
///
/// Interpolation rule (pinned by `quantile_interpolation_pinned`): the
/// quantile `q` of `n` samples is the nearest-rank sample
/// `r = clamp(ceil(q·n), 1, n)` (1-based); within the bucket holding
/// rank `r` — whose `c` samples are, for lack of finer information,
/// assumed evenly spread over the bucket's value range `[lo, hi]` — the
/// `j`-th of `c` samples is estimated as
/// `lo + (hi - lo) · (j - 1) / max(c - 1, 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct HistQuantiles {
    /// Total samples.
    pub count: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th percentile estimate.
    pub p90: u64,
    /// 99th percentile estimate.
    pub p99: u64,
    /// Upper edge of the highest non-empty bucket (a bound on the true
    /// maximum, which log2 buckets do not retain exactly).
    pub max: u64,
}

/// One quantile from sparse `(bucket, count)` pairs; see
/// [`HistQuantiles`] for the pinned rule. Returns 0 on an empty histogram.
fn quantile_from_buckets(buckets: &[(u32, u64)], q: f64) -> u64 {
    let count: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for &(b, c) in buckets {
        if seen + c >= rank {
            let (lo, hi) = bucket_bounds(b);
            let j = rank - seen; // 1-based position within this bucket
            let denom = c.saturating_sub(1).max(1);
            return lo + ((hi - lo) as u128 * (j - 1) as u128 / denom as u128) as u64;
        }
        seen += c;
    }
    bucket_bounds(buckets.last().map_or(0, |&(b, _)| b)).1
}

/// Derives the exported quantile set from sparse `(bucket, count)` pairs.
fn quantiles_from_buckets(buckets: &[(u32, u64)]) -> HistQuantiles {
    let count: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if count == 0 {
        return HistQuantiles::default();
    }
    let max = buckets
        .iter()
        .filter(|&&(_, c)| c > 0)
        .map(|&(b, _)| bucket_bounds(b).1)
        .max()
        .unwrap_or(0);
    HistQuantiles {
        count,
        p50: quantile_from_buckets(buckets, 0.50),
        p90: quantile_from_buckets(buckets, 0.90),
        p99: quantile_from_buckets(buckets, 0.99),
        max,
    }
}

/// Quantiles of raw samples: folds them into log2 buckets (see the
/// module docs) and derives [`HistQuantiles`] by the pinned rule.
pub fn quantiles_of(samples: impl IntoIterator<Item = u64>) -> HistQuantiles {
    let mut counts = [0u64; 65];
    for v in samples {
        counts[(64 - v.leading_zeros()) as usize] += 1;
    }
    let sparse: Vec<(u32, u64)> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(b, &c)| (b as u32, c))
        .collect();
    quantiles_from_buckets(&sparse)
}

/// Deterministic, name-sorted view of the merged global registry.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<NamedValue>,
    /// Max-gauges, sorted by name.
    pub gauges: Vec<NamedValue>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }
}

/// Flushes the calling thread's shard and snapshots the merged registry,
/// sorted by name. Worker threads that already exited are fully merged;
/// call from the thread that owns the run (after joins) for a complete
/// view.
pub fn snapshot() -> MetricsSnapshot {
    flush_thread();
    let intern = intern().lock().expect("metric intern poisoned");
    let acc = accumulator().lock().expect("metric accumulator poisoned");
    let mut ordered: Vec<(usize, &'static str, Kind)> = intern
        .names
        .iter()
        .enumerate()
        .map(|(id, &(name, kind))| (id, name, kind))
        .collect();
    ordered.sort_by_key(|&(_, name, _)| name);
    let mut snap = MetricsSnapshot::default();
    for (id, name, kind) in ordered {
        let Some(slot) = acc.get(id) else { continue };
        match (kind, slot) {
            (Kind::Counter, Slot::Counter(v)) => {
                snap.counters.push(NamedValue { name: name.to_string(), value: *v });
            }
            (Kind::Gauge, Slot::Gauge(v)) => {
                snap.gauges.push(NamedValue { name: name.to_string(), value: *v });
            }
            _ => unreachable!("slot kinds fixed at registration"),
        }
    }
    snap
}

/// Clears the global accumulator and the calling thread's shard. Handles
/// stay valid (interning survives; only values reset).
pub fn reset() {
    SHARD.with(|s| s.borrow_mut().slots.clear());
    accumulator().lock().expect("metric accumulator poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        // A sample's bucket shows as the upper edge of the derived max.
        let max_of = |v: u64| quantiles_of([v]).max;
        assert_eq!(max_of(0), 0);
        assert_eq!(max_of(1), 1);
        assert_eq!(max_of(2), 3);
        assert_eq!(max_of(3), 3);
        assert_eq!(max_of(4), 7);
        assert_eq!(max_of(u64::MAX), u64::MAX);
        let q = quantiles_of([0, 4, 5]);
        assert_eq!((q.count, q.p50, q.max), (3, 4, 7), "4 and 5 share bucket 3");
    }

    /// Pins the shared bucket-interpolation rule: nearest-rank
    /// `r = clamp(ceil(q·n), 1, n)`, then the `j`-th of `c` samples in a
    /// bucket `[lo, hi]` is `lo + (hi-lo)·(j-1)/max(c-1, 1)`.
    #[test]
    fn quantile_interpolation_pinned() {
        // Four samples in bucket 3 (values 4..=7).
        let one = [(3u32, 4u64)];
        assert_eq!(quantile_from_buckets(&one, 0.50), 5); // rank 2 → 4 + 3·1/3
        assert_eq!(quantile_from_buckets(&one, 0.90), 7); // rank 4 → 4 + 3·3/3
        let q = quantiles_from_buckets(&one);
        assert_eq!(q, HistQuantiles { count: 4, p50: 5, p90: 7, p99: 7, max: 7 });

        // Spread across buckets: {0}, {1}, two in bucket 4 (8..=15).
        let multi = [(0u32, 1u64), (1, 1), (4, 2)];
        assert_eq!(quantile_from_buckets(&multi, 0.50), 1); // rank 2 → bucket 1
        assert_eq!(quantile_from_buckets(&multi, 0.90), 15); // rank 4, j=2 of 2
        let q = quantiles_from_buckets(&multi);
        assert_eq!(q, HistQuantiles { count: 4, p50: 1, p90: 15, p99: 15, max: 15 });

        // Degenerate shapes.
        assert_eq!(quantiles_from_buckets(&[]), HistQuantiles::default());
        assert_eq!(
            quantiles_from_buckets(&[(0, 10)]),
            HistQuantiles { count: 10, p50: 0, p90: 0, p99: 0, max: 0 }
        );
        assert_eq!(
            quantiles_from_buckets(&[(5, 1)]),
            HistQuantiles { count: 1, p50: 16, p90: 16, p99: 16, max: 31 }
        );
        // Bucket 64 saturates at u64::MAX.
        assert_eq!(bucket_bounds(64).1, u64::MAX);
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(3), (4, 7));
    }

    /// Global-registry behaviour shares the process-wide toggle and
    /// accumulator with other tests, so everything runs in one body with
    /// unique metric names.
    #[test]
    fn global_registry_merges_across_threads() {
        let _serial = crate::test_serial();
        crate::set_enabled(true);
        let c = Counter::register("test.global.counter");
        let g = Gauge::register("test.global.gauge");
        let worker = std::thread::spawn(move || {
            c.add(10);
            g.observe(7);
        });
        worker.join().expect("worker");
        c.add(5);
        g.observe(3);
        let snap = snapshot();
        crate::set_enabled(false);
        assert_eq!(snap.counter("test.global.counter"), Some(15));
        assert_eq!(snap.gauge("test.global.gauge"), Some(7));

        // Disabled adds are dropped.
        c.add(100);
        assert_eq!(snapshot().counter("test.global.counter"), Some(15));
    }
}
