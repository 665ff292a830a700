//! Counters, histograms and running statistics.
//!
//! Simulators expose their measurements through these types; the experiment
//! harness reads them back out to regenerate the paper's tables and figures.
//!
//! # Examples
//!
//! ```
//! use iroram_sim_engine::stats::{Counter, Histogram, RunningStat};
//!
//! let mut c = Counter::new();
//! c.add(3);
//! c.inc();
//! assert_eq!(c.get(), 4);
//!
//! let mut h = Histogram::with_linear_bins(0, 100, 10);
//! h.record(42);
//! assert_eq!(h.count(), 1);
//!
//! let mut s = RunningStat::new();
//! s.push(1.0);
//! s.push(3.0);
//! assert_eq!(s.mean(), 2.0);
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A fixed-bin histogram over `u64` samples, with equal-width bins.
/// Out-of-range samples land in saturating edge bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: u64,
    hi: u64,
    bins: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with `n` equal-width bins covering `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `hi <= lo`.
    pub fn with_linear_bins(lo: u64, hi: u64, n: usize) -> Self {
        assert!(n > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be nonempty");
        Histogram {
            lo,
            hi,
            bins: vec![0; n],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bin_index(&self, v: u64) -> usize {
        let clamped = v.clamp(self.lo, self.hi - 1);
        let width = (self.hi - self.lo).div_ceil(self.bins.len() as u64);
        (((clamped - self.lo) / width) as usize).min(self.bins.len() - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = self.bin_index(v);
        self.bins[idx] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Smallest recorded sample, or `None` if empty.
    pub fn sample_min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` if empty.
    pub fn sample_max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Raw bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// An approximate quantile (`q` in `[0,1]`) from the bin structure, or
    /// `None` if empty. Returns the upper edge of the bin containing the
    /// quantile.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &b) in self.bins.iter().enumerate() {
            seen += b;
            if seen >= target {
                let width = (self.hi - self.lo).div_ceil(self.bins.len() as u64);
                return Some(self.lo + width * (i as u64 + 1));
            }
        }
        Some(self.hi)
    }
}

/// Welford-style running mean / variance over `f64` samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStat {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStat {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStat {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0.0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// A named collection of counters for report export.
///
/// Components register counters under dotted names
/// (`"oram.paths.dummy"`, `"dram.row_hits"`); the experiment harness
/// snapshots the registry into its output records.
#[derive(Debug, Clone, Default)]
pub struct StatsRegistry {
    counters: BTreeMap<String, u64>,
}

impl StatsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        StatsRegistry::default()
    }

    /// Adds `n` to the counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += n;
    }

    /// Adds one to the counter `name`.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Reads a counter (0 if never written).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a counter to an absolute value.
    pub fn set(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_owned(), v);
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Merges another registry into this one by summing counters.
    pub fn merge(&mut self, other: &StatsRegistry) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

impl fmt::Display for StatsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:48} {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 11);
        assert_eq!(c.to_string(), "11");
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn linear_histogram_binning() {
        let mut h = Histogram::with_linear_bins(0, 100, 10);
        h.record(0);
        h.record(9);
        h.record(10);
        h.record(99);
        h.record(1000); // clamps into last bin
        assert_eq!(h.bins()[0], 2);
        assert_eq!(h.bins()[1], 1);
        assert_eq!(h.bins()[9], 2);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sample_min(), Some(0));
        assert_eq!(h.sample_max(), Some(1000));
    }

    #[test]
    fn histogram_mean_and_quantile() {
        let mut h = Histogram::with_linear_bins(0, 10, 10);
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9] {
            h.record(v);
        }
        assert!((h.mean().unwrap() - 5.0).abs() < 1e-9);
        let median = h.quantile(0.5).unwrap();
        assert!((5..=6).contains(&median), "median bin edge {median}");
        assert!(Histogram::with_linear_bins(0, 10, 10)
            .quantile(0.5)
            .is_none());
    }

    #[test]
    fn running_stat_welford() {
        let mut s = RunningStat::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.count(), 8);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn running_stat_empty() {
        let s = RunningStat::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn registry_merge_and_display() {
        let mut a = StatsRegistry::new();
        a.inc("x");
        a.add("y", 5);
        let mut b = StatsRegistry::new();
        b.add("y", 3);
        b.set("z", 7);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 8);
        assert_eq!(a.get("z"), 7);
        assert_eq!(a.get("missing"), 0);
        let text = a.to_string();
        assert!(text.contains('x') && text.contains('z'));
    }
}
