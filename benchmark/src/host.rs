//! The host's speed, read from a fixed reference kernel timed right after
//! each piece of the program's work.
//!
//! The benchmark host is a virtual machine that shares its cores with
//! other tenants. Their load slows it by up to a third, in spells from
//! milliseconds to minutes long, so runs of unchanged code minutes apart
//! differ by more than a regression bound. The program slows with such a
//! spell as a branchy sort does, and not as an ALU loop or a cache-miss
//! chase does. So each piece of work is followed by one run of the sort
//! below, and its time is divided by how much slower than on a quiet host
//! the sort ran. `README.md` has the measurements. The kernel is the
//! benchmark's own code with constant input, so no change to the program
//! changes what it measures.

use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time on a quiet host (the one in `README.md`),
/// seconds. Scaled times read as times on that host.
pub const QUIET_REF_S: f64 = 0.009;

/// Keys the reference kernel sorts per round: 256 KB, within a core's L2,
/// so the kernel adds little to the peak RSS.
const REF_KEYS: usize = 32_768;

/// Rounds of the reference kernel. Unit tests, built unoptimized, run one
/// so the smoke test stays fast.
const REF_ROUNDS: usize = if cfg!(test) { 1 } else { 16 };

/// Runs the reference kernel once, filling a buffer with [`REF_KEYS`]
/// pseudo-random keys from a constant seed and sorting it, [`REF_ROUNDS`]
/// times; returns its time in seconds.
pub fn reference_s() -> f64 {
    let t0 = Instant::now();
    let mut state = 0x5EED_u64;
    let mut keys = Vec::with_capacity(REF_KEYS);
    for _ in 0..REF_ROUNDS {
        keys.clear();
        keys.extend((0..REF_KEYS).map(|_| splitmix64(&mut state)));
        keys.sort_unstable();
        black_box(&keys);
    }
    t0.elapsed().as_secs_f64()
}

/// The SplitMix64 generator: the reference kernel's input, kept here so
/// that it never changes with the program's hash functions.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pieces of work, each timed together with a run of the reference kernel
/// right after it.
#[derive(Debug, Default)]
pub struct Paired {
    /// Work each piece did: operations, or 1 for a set-up.
    amounts: Vec<f64>,
    /// Wall time of each piece, seconds.
    secs: Vec<f64>,
    /// The reference kernel's time right after each piece, seconds.
    refs: Vec<f64>,
}

impl Paired {
    /// Records a piece that did `amount` work in `secs`, then runs the
    /// reference kernel and records its time.
    pub fn push(&mut self, amount: f64, secs: f64) {
        self.record(amount, secs, reference_s());
    }

    fn record(&mut self, amount: f64, secs: f64, ref_s: f64) {
        self.amounts.push(amount);
        self.secs.push(secs);
        self.refs.push(ref_s);
    }

    /// Appends `other`'s pieces.
    pub fn extend(&mut self, other: Paired) {
        self.amounts.extend(other.amounts);
        self.secs.extend(other.secs);
        self.refs.extend(other.refs);
    }

    /// Pieces recorded.
    pub fn len(&self) -> usize {
        self.secs.len()
    }

    /// Wall time of each piece, seconds.
    pub fn secs(&self) -> &[f64] {
        &self.secs
    }

    /// How many times slower than on a quiet host the reference kernel ran
    /// after each piece.
    pub fn slowdowns(&self) -> Vec<f64> {
        self.refs.iter().map(|r| r / QUIET_REF_S).collect()
    }

    /// Each piece's time on a quiet host: its wall time over the slowdown.
    pub fn scaled_secs(&self) -> Vec<f64> {
        self.secs
            .iter()
            .zip(self.slowdowns())
            .map(|(s, slow)| s / slow)
            .collect()
    }

    /// Each piece's work per wall-clock second.
    pub fn rates(&self) -> Vec<f64> {
        self.amounts
            .iter()
            .zip(&self.secs)
            .map(|(a, s)| a / s)
            .collect()
    }

    /// Each piece's work per second on a quiet host.
    pub fn scaled_rates(&self) -> Vec<f64> {
        self.amounts
            .iter()
            .zip(self.scaled_secs())
            .map(|(a, s)| a / s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_the_reference_slowdown() {
        let mut p = Paired::default();
        p.record(100.0, 2.0, QUIET_REF_S);
        p.record(100.0, 3.0, 1.5 * QUIET_REF_S);
        assert_eq!(p.len(), 2);
        assert_eq!(p.secs(), &[2.0, 3.0]);
        assert_eq!(p.slowdowns(), vec![1.0, 1.5]);
        assert_eq!(p.scaled_secs(), vec![2.0, 2.0]);
        assert_eq!(p.rates(), vec![50.0, 100.0 / 3.0]);
        assert_eq!(p.scaled_rates(), vec![50.0, 50.0]);
    }

    #[test]
    fn reference_input_is_standard_splitmix64() {
        let mut state = 0;
        assert_eq!(splitmix64(&mut state), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut state), 0x6E78_9E6A_A1B9_65F4);
    }
}
