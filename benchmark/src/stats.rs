//! Exact sample statistics and process memory readings.

/// Nearest-rank percentile of ascending `sorted` samples: the sample at
/// 1-based rank `ceil(q·n)`. Exact (no bucketing); 0 for no samples.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Consecutive samples per latency window: enough that each window's
/// p99 has 20 samples beyond it.
pub const WINDOW: usize = 2000;

/// Latency samples summarized per window of [`WINDOW`] consecutive
/// samples: each closed window keeps only its exact nearest-rank p50 and
/// p99, so memory does not grow with the request count. The reported
/// percentiles are the medians over windows — a stall on a shared
/// machine then moves one window, not the whole run's tail.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    open: Vec<u64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    count: u64,
}

impl Latencies {
    /// Adds one sample, in arrival order.
    pub fn push(&mut self, ns: u64) {
        self.open.push(ns);
        self.count += 1;
        if self.open.len() == WINDOW {
            self.open.sort_unstable();
            self.p50.push(nearest_rank(&self.open, 0.50) as f64);
            self.p99.push(nearest_rank(&self.open, 0.99) as f64);
            self.open.clear();
        }
    }

    /// Adds another series' closed windows (and its partial window, which
    /// only counts while no window has closed).
    pub fn absorb(&mut self, other: Latencies) {
        self.p50.extend(other.p50);
        self.p99.extend(other.p99);
        self.open.extend(other.open);
        self.count += other.count;
    }

    /// Samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `(p50, p99)`: medians over closed windows, or the exact
    /// percentiles of the partial window when none has closed.
    pub fn percentiles(&self) -> (f64, f64) {
        if self.p50.is_empty() {
            let mut open = self.open.clone();
            open.sort_unstable();
            return (
                nearest_rank(&open, 0.50) as f64,
                nearest_rank(&open, 0.99) as f64,
            );
        }
        (median(&self.p50), median(&self.p99))
    }
}

/// Width of a throughput window.
pub const RATE_WINDOW_NS: u64 = 250_000_000;

/// Completion times over `[0, span)` in windows of [`RATE_WINDOW_NS`]:
/// count, first and last completion per window.
#[derive(Debug, Clone)]
pub struct Rates {
    span_ns: u64,
    inside: u64,
    windows: Vec<(u64, u64, u64)>,
}

impl Rates {
    /// Windows covering `[0, span_ns)`.
    pub fn new(span_ns: u64) -> Rates {
        let n = (span_ns / RATE_WINDOW_NS) as usize;
        Rates {
            span_ns,
            inside: 0,
            windows: vec![(0, u64::MAX, 0); n],
        }
    }

    /// Records one completion `t_ns` after the span opened.
    pub fn record(&mut self, t_ns: u64) {
        if t_ns < self.span_ns {
            self.inside += 1;
        }
        if let Some((count, first, last)) = self.windows.get_mut((t_ns / RATE_WINDOW_NS) as usize) {
            *count += 1;
            *first = (*first).min(t_ns);
            *last = (*last).max(t_ns);
        }
    }

    /// Adds another recorder's completions over the same span.
    pub fn absorb(&mut self, other: &Rates) {
        self.inside += other.inside;
        for (w, o) in self.windows.iter_mut().zip(&other.windows) {
            *w = (w.0 + o.0, w.1.min(o.1), w.2.max(o.2));
        }
    }

    /// Median over whole windows of each window's rate (completions per
    /// second between its first and last completion); the plain rate
    /// when the span holds no whole window.
    pub fn rate(&self) -> f64 {
        if self.windows.is_empty() {
            return ratio(self.inside as f64, self.span_ns as f64 / 1e9);
        }
        let rates: Vec<f64> = self
            .windows
            .iter()
            .map(|&(count, first, last)| {
                if count < 2 {
                    0.0
                } else {
                    (count - 1) as f64 / ((last - first).max(1) as f64 / 1e9)
                }
            })
            .collect();
        median(&rates)
    }
}

/// Returns the heap's free memory to the system, then resets this
/// process's peak resident set size (`VmHWM`) to its current resident
/// size (Linux 4.0 and later), so the next [`peak_rss_mib`] is the peak
/// since now. Trimming first makes every iteration start from the same
/// resident baseline: without it, each one starts from whatever the
/// allocator kept of the last (200–270 MiB after a build iteration), and
/// its peak depends on how much of that it happens to reuse. Without the
/// reset, readings stay cumulative.
pub fn reset_peak_rss() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's malloc_trim takes a byte count by value, locks
        // each arena itself and only releases pages no allocation uses.
        unsafe { malloc_trim(0) };
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process since it started or since the
/// last [`reset_peak_rss`] (`VmHWM`), in MiB. Monotone in between, so
/// reading it after each stage attributes the peak to the stage that
/// raised it.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 0.5), 50);
        assert_eq!(nearest_rank(&s, 0.99), 99);
        assert_eq!(nearest_rank(&s, 1.0), 100);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn latency_windows_take_medians_of_window_percentiles() {
        let mut lat = Latencies::default();
        for w in 0..3u64 {
            for i in 1..=WINDOW as u64 {
                lat.push(i + w * 1_000_000 * u64::from(w == 2));
            }
        }
        lat.push(5);
        assert_eq!(lat.count(), 3 * WINDOW as u64 + 1);
        // Two ordinary windows and one shifted: the median ignores it.
        assert_eq!(lat.percentiles(), (1000.0, 1980.0));
        let mut few = Latencies::default();
        few.push(3);
        few.push(1);
        assert_eq!(few.percentiles(), (1.0, 3.0));
    }

    #[test]
    fn rates_are_per_window_medians() {
        let mut r = Rates::new(3 * RATE_WINDOW_NS);
        for w in 0..3 {
            for i in 0..=100u64 {
                r.record(w * RATE_WINDOW_NS + i * (RATE_WINDOW_NS / 200));
            }
        }
        assert!((r.rate() - 800.0).abs() < 1e-6, "{}", r.rate());
        let mut short = Rates::new(RATE_WINDOW_NS / 2);
        short.record(1);
        short.record(RATE_WINDOW_NS);
        assert_eq!(short.rate(), 8.0);
    }

    #[test]
    fn peak_rss_is_positive_and_resettable_on_linux() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let with_big = peak_rss_mib();
        drop(big);
        reset_peak_rss();
        assert!(peak_rss_mib() > 0.0);
        assert!(peak_rss_mib() < with_big - 32.0, "{with_big}");
    }
}
