//! Integer-valued histograms used for eccentricity/degree distributions
//! (Fig. 1 of the paper) and the closeness fast path.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A histogram of `u64` values with exact per-value counts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Builds from an iterator of samples.
    pub fn from_values<I: IntoIterator<Item = u64>>(values: I) -> Self {
        let mut h = Histogram::new();
        for v in values {
            h.add(v);
        }
        h
    }

    /// Records one sample.
    pub fn add(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.total += 1;
    }

    /// Records `count` samples of `value`.
    pub fn add_count(&mut self, value: u64, count: u64) {
        if count > 0 {
            *self.counts.entry(value).or_insert(0) += count;
            self.total += count;
        }
    }

    /// Multiplicity of `value`.
    pub fn count(&self, value: u64) -> u64 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct values.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Smallest recorded value.
    pub fn min(&self) -> Option<u64> {
        self.counts.keys().next().copied()
    }

    /// Largest recorded value.
    pub fn max(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// Mean of the samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let sum: u64 = self.counts.iter().map(|(&v, &c)| v * c).sum();
        Some(sum as f64 / self.total as f64)
    }

    /// Iterates `(value, count)` in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }

    /// Number of samples `≤ value`.
    pub fn cumulative(&self, value: u64) -> u64 {
        self.counts.range(..=value).map(|(_, &c)| c).sum()
    }

    /// Dense count vector over `0..=max` (empty when no samples).
    pub fn to_dense(&self) -> Vec<u64> {
        match self.max() {
            None => vec![],
            Some(max) => {
                let mut dense = vec![0u64; max as usize + 1];
                for (v, c) in self.iter() {
                    dense[v as usize] = c;
                }
                dense
            }
        }
    }
}

impl fmt::Display for Histogram {
    /// Renders an ASCII bar chart, one row per value.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let max_count = self.counts.values().copied().max().unwrap_or(0);
        for (v, c) in self.iter() {
            let width = (c * 50).checked_div(max_count).unwrap_or(0) as usize;
            writeln!(f, "{v:>6} | {:<50} {c}", "#".repeat(width))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accounting() {
        let h = Histogram::from_values([3, 1, 3, 3, 2]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.count(3), 3);
        assert_eq!(h.count(9), 0);
        assert_eq!(h.distinct(), 3);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(3));
        assert_eq!(h.mean(), Some(12.0 / 5.0));
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert!(h.to_dense().is_empty());
    }

    #[test]
    fn cumulative_counts() {
        let h = Histogram::from_values([1, 2, 2, 5]);
        assert_eq!(h.cumulative(0), 0);
        assert_eq!(h.cumulative(1), 1);
        assert_eq!(h.cumulative(2), 3);
        assert_eq!(h.cumulative(4), 3);
        assert_eq!(h.cumulative(5), 4);
    }

    #[test]
    fn add_count_accumulates() {
        let mut a = Histogram::from_values([1, 1]);
        a.add_count(1, 1);
        a.add_count(2, 1);
        assert_eq!(a.count(1), 3);
        assert_eq!(a.count(2), 1);
        assert_eq!(a.total(), 4);
        a.add_count(7, 0);
        assert_eq!(a.count(7), 0);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn dense_conversion() {
        let h = Histogram::from_values([0, 2, 2]);
        assert_eq!(h.to_dense(), vec![1, 0, 2]);
    }

    #[test]
    fn display_renders_rows() {
        let h = Histogram::from_values([1, 1, 2]);
        let text = h.to_string();
        assert!(text.contains("1 |"));
        assert!(text.contains("2 |"));
    }
}
