//! Running statistics.
//!
//! The experiment harness folds per-cell samples into a [`RunningStat`] to
//! report their mean and spread.
//!
//! # Examples
//!
//! ```
//! use iroram_sim_engine::stats::RunningStat;
//!
//! let mut s = RunningStat::new();
//! s.push(1.0);
//! s.push(3.0);
//! assert_eq!(s.mean(), 2.0);
//! assert_eq!(s.stddev(), 1.0);
//! ```

/// Welford-style running mean / variance over `f64` samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStat {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStat {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStat::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stat_welford() {
        let mut s = RunningStat::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn running_stat_empty() {
        let s = RunningStat::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }
}
