//! Summary statistics over repeated measurements, timed set-ups, and the
//! rule for which latency percentile a sample supports.

use std::time::Instant;

use iroram_bench::hist::Histogram;

use crate::host::Paired;

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "a statistic needs at least one value");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values (non-empty); the mean of the middle two of an
/// even count.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of unsorted values (non-empty): the
/// `ceil(q * n)`-th smallest, as [`Histogram::value_at`] reads its
/// buckets.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Runs `setup` at least `min_reps` times and for at least `min_s`
/// seconds in all, dropping each result before the next run starts so
/// only one is ever resident. Returns every run's time, paired with the
/// reference kernel's, and the last result.
pub fn time_setups<T>(min_reps: usize, min_s: f64, mut setup: impl FnMut() -> T) -> (Paired, T) {
    let mut times = Paired::default();
    let mut last = None;
    while times.len() < min_reps.max(1) || times.secs().iter().sum::<f64>() < min_s {
        drop(last.take());
        let t0 = Instant::now();
        let built = setup();
        times.push(1.0, t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    (times, last.expect("at least one set-up ran"))
}

/// The percentiles the benchmark may report, highest first.
const TAILS: [(&str, f64); 3] = [("p999", 0.999), ("p99", 0.99), ("p50", 0.5)];

/// The highest of p50/p99/p999 that has at least ten of `n` samples
/// beyond it, as `(label, quantile)`; `None` below 20 samples.
pub fn supported_tail(n: u64) -> Option<(&'static str, f64)> {
    TAILS.into_iter().find(|&(_, q)| {
        let at = (q * n as f64).ceil() as u64;
        n.saturating_sub(at) >= 10
    })
}

/// `"<label>=<value><unit> (n=<count>)"` for the highest percentile the
/// histogram's sample supports, or `"n=<count>"` when none is.
pub fn tail_summary(h: &Histogram, scale: f64, unit: &str) -> String {
    match supported_tail(h.count()) {
        Some((label, q)) => format!(
            "{label}={:.1}{unit} (n={})",
            h.value_at(q) as f64 * scale,
            h.count()
        ),
        None => format!("n={}", h.count()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_range() {
        let v = [5.0, 1.0, 9.0, 3.0, 7.0];
        assert_eq!(median(&v), 5.0);
        assert_eq!((percentile(&v, 0.0), percentile(&v, 1.0)), (1.0, 9.0));
        assert_eq!(median(&[2.0, 4.0, 6.0, 100.0]), 5.0);
        assert_eq!(median(&[42.0]), 42.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 18.0);
        assert_eq!(percentile(&v, 0.1), 2.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 20.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn setups_repeat_to_the_floor_and_keep_the_last_result() {
        let mut runs = 0;
        let (times, last) = time_setups(3, 0.0, || {
            runs += 1;
            runs
        });
        assert_eq!((times.len(), last), (3, 3));
        // Three 0.1 s runs fall short of half a second, so more follow.
        let (times, _) = time_setups(3, 0.5, || {
            std::thread::sleep(std::time::Duration::from_millis(100))
        });
        assert!(times.len() > 3, "{} runs", times.len());
        assert!(times.secs().iter().all(|&t| t >= 0.1), "{times:?}");
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20).map(|t| t.0), Some("p50"));
        assert_eq!(supported_tail(999).map(|t| t.0), Some("p50"));
        assert_eq!(supported_tail(1_000).map(|t| t.0), Some("p99"));
        assert_eq!(supported_tail(9_999).map(|t| t.0), Some("p99"));
        assert_eq!(supported_tail(10_000).map(|t| t.0), Some("p999"));
    }

    #[test]
    fn tail_summary_names_the_percentile_and_count() {
        let mut h = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v * 1_000);
        }
        let s = tail_summary(&h, 1e-3, "us");
        assert!(s.starts_with("p99=") && s.ends_with("us (n=1000)"), "{s}");
        assert_eq!(tail_summary(&Histogram::new(), 1.0, "ns"), "n=0");
    }
}
