//! Synthetic access-pattern generators.

use iroram_hash::mix64;
use iroram_sim_engine::{SimRng, SnapError, SnapReader, SnapWriter};

use crate::{Bench, TraceRecord, WorkloadSpec};

/// Cold-region access patterns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// `streams` parallel sequential sweeps (streaming array kernels; high
    /// spatial locality → PosMap₁ and DRAM-row friendliness).
    Streaming {
        /// Number of concurrent streams.
        streams: usize,
    },
    /// Uniform random over the cold region (no locality at all).
    Uniform,
    /// Zipf-distributed reuse (skewed working sets such as gcc).
    Zipf {
        /// Skew parameter θ (0 = uniform, →1 = heavily skewed).
        theta: f64,
    },
    /// Serialized random dependent loads (mcf-style pointer chasing).
    PointerChase,
}

/// A deterministic workload generator.
///
/// Produces an infinite stream of [`TraceRecord`]s following a
/// [`WorkloadSpec`]; [`Bench::Mix`] interleaves mcf, lbm and gcc round-robin
/// over disjoint thirds of the address space (the paper's `mix` bar).
///
/// # Examples
///
/// ```
/// use iroram_trace::{Bench, WorkloadGen};
/// let mut g = WorkloadGen::for_bench(Bench::Lbm, 1 << 16, 7);
/// let first = g.next_record();
/// let second = g.next_record();
/// assert!(first.addr < 1 << 16 && second.addr < 1 << 16);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    spec: WorkloadSpec,
    rng: SimRng,
    // lint: allow(snapshot-drift, derived from the spec at construction)
    base: u64,
    /// Per-stream cursors for streaming mode.
    stream_pos: Vec<u64>,
    /// Pointer-chase state.
    chase: u64,
    /// Zipf sampling tables (none for other patterns).
    // lint: allow(snapshot-drift, sampling table derived from the spec at construction)
    zipf: Option<ZipfTable>,
    /// Sub-generators for Mix.
    mix: Vec<WorkloadGen>,
    mix_next: usize,
}

#[derive(Debug, Clone)]
struct ZipfTable {
    /// Cumulative probabilities over rank buckets.
    cdf: Vec<f64>,
    region: u64,
}

impl ZipfTable {
    /// Builds a bucketed Zipf CDF: 64 geometric rank buckets over `region`
    /// blocks — O(1) memory for arbitrarily large regions.
    fn new(region: u64, theta: f64) -> Self {
        const BUCKETS: usize = 64;
        let mut weights = Vec::with_capacity(BUCKETS);
        let mut lo = 0u64;
        for i in 0..BUCKETS {
            let hi = ((region as f64) * ((i + 1) as f64 / BUCKETS as f64).powf(2.0)) as u64;
            let hi = hi.clamp(lo + 1, region);
            // Zipf weight of ranks (lo, hi]: integral of r^-theta.
            let w = if theta == 1.0 {
                ((hi + 1) as f64 / (lo + 1) as f64).ln()
            } else {
                ((hi + 1) as f64).powf(1.0 - theta) - ((lo + 1) as f64).powf(1.0 - theta)
            };
            weights.push((w.max(0.0), lo, hi));
            lo = hi;
            if lo >= region {
                break;
            }
        }
        let total: f64 = weights.iter().map(|(w, _, _)| w).sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|(w, _, _)| {
                acc += w / total;
                acc
            })
            .collect();
        ZipfTable { cdf, region }
    }

    fn ranges(&self) -> Vec<(u64, u64)> {
        // Recompute the bucket boundaries the same way new() did.
        const BUCKETS: usize = 64;
        let mut out = Vec::new();
        let mut lo = 0u64;
        for i in 0..BUCKETS {
            let hi = ((self.region as f64) * ((i + 1) as f64 / BUCKETS as f64).powf(2.0)) as u64;
            let hi = hi.clamp(lo + 1, self.region);
            out.push((lo, hi));
            lo = hi;
            if lo >= self.region {
                break;
            }
        }
        out
    }

    fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.next_f64();
        let idx = self
            .cdf
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.cdf.len() - 1);
        let (lo, hi) = self.ranges()[idx];
        // Rank within the bucket, then a rank→address permutation so hot
        // ranks are scattered across the region (no artificial clustering).
        let rank = lo + rng.next_below(hi - lo);
        mix64(rank) % self.region
    }
}

impl WorkloadGen {
    /// Creates the generator for `bench` over `n_data` blocks, seeded
    /// deterministically.
    pub fn for_bench(bench: Bench, n_data: u64, seed: u64) -> Self {
        if bench == Bench::Mix {
            let third = n_data / 3;
            let members = [Bench::Mcf, Bench::Lbm, Bench::Gcc];
            let mix = members
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    let mut g = WorkloadGen::for_bench(b, third.max(64), seed ^ (i as u64 + 1));
                    g.base = third * i as u64;
                    g
                })
                .collect();
            let spec = WorkloadSpec::for_bench(bench, n_data);
            return WorkloadGen {
                spec,
                rng: SimRng::seed_from(seed),
                base: 0,
                stream_pos: Vec::new(),
                chase: 0,
                zipf: None,
                mix,
                mix_next: 0,
            };
        }
        let spec = WorkloadSpec::for_bench(bench, n_data);
        Self::from_spec(spec, seed)
    }

    /// Creates a generator from an explicit spec.
    pub fn from_spec(spec: WorkloadSpec, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed ^ mix64(spec.bench.name().len() as u64));
        let stream_pos = match spec.pattern {
            Pattern::Streaming { streams } => (0..streams)
                .map(|_| rng.next_below(spec.cold_blocks))
                .collect(),
            _ => Vec::new(),
        };
        let zipf = match spec.pattern {
            Pattern::Zipf { theta } => Some(ZipfTable::new(spec.cold_blocks, theta)),
            _ => None,
        };
        let chase = rng.next_below(spec.cold_blocks.max(1));
        WorkloadGen {
            spec,
            rng,
            base: 0,
            stream_pos,
            chase,
            zipf,
            mix: Vec::new(),
            mix_next: 0,
        }
    }

    /// The spec driving this generator.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Produces the next trace record.
    pub fn next_record(&mut self) -> TraceRecord {
        if !self.mix.is_empty() {
            let i = self.mix_next;
            self.mix_next = (self.mix_next + 1) % self.mix.len();
            let inner = &mut self.mix[i];
            let mut rec = inner.next_record();
            rec.addr += inner.base;
            return rec;
        }
        let spec = &self.spec;
        // Instruction gap: geometric-ish jitter around the mean.
        let mean = spec.mean_gap();
        let gap = (mean * (0.5 + self.rng.next_f64())) as u32;
        let cold = self.rng.chance(spec.cold_frac);
        if !cold {
            // Hot set: a tiny L1-resident region at the top of the space.
            let addr = self.spec.cold_blocks.saturating_sub(spec.hot_blocks)
                + self.rng.next_below(spec.hot_blocks);
            let is_write = !self.rng.chance(spec.hot_read_frac);
            return TraceRecord {
                addr: addr % spec.cold_blocks,
                is_write,
                gap,
            };
        }
        let is_write = !self.rng.chance(spec.cold_read_frac);
        let addr = match spec.pattern {
            Pattern::Streaming { .. } => {
                let s = self.rng.next_below(self.stream_pos.len() as u64) as usize;
                let a = self.stream_pos[s];
                self.stream_pos[s] = (a + 1) % spec.cold_blocks;
                a
            }
            Pattern::Uniform => self.rng.next_below(spec.cold_blocks),
            Pattern::Zipf { .. } => self
                .zipf
                .as_ref()
                .expect("zipf pattern has a table")
                .sample(&mut self.rng),
            Pattern::PointerChase => {
                // A serialized walk through a pseudo-random *sequence* of
                // nodes. (Iterating `mix(cur)` directly would fall into the
                // short cycles of a random functional graph; stepping a
                // counter through a mixer visits the whole region.)
                self.chase = self.chase.wrapping_add(1);
                mix64(self.chase) % spec.cold_blocks
            }
        };
        TraceRecord {
            addr,
            is_write,
            gap,
        }
    }

    /// Collects `n` records into a vector.
    pub fn take_records(&mut self, n: usize) -> Vec<TraceRecord> {
        (0..n).map(|_| self.next_record()).collect()
    }

    /// Serializes the generator's mutable cursors (RNG stream, per-stream
    /// positions, chase cursor, mix rotation) for a checkpoint, recursing
    /// into mix sub-generators. The spec, base offset, and Zipf tables are
    /// configuration-derived and are not written.
    pub fn save_state(&self, w: &mut SnapWriter) {
        for s in self.rng.state() {
            w.put_u64(s);
        }
        w.put_usize(self.stream_pos.len());
        for &p in &self.stream_pos {
            w.put_u64(p);
        }
        w.put_u64(self.chase);
        w.put_usize(self.mix.len());
        for g in &self.mix {
            g.save_state(w);
        }
        w.put_usize(self.mix_next);
    }

    /// Restores cursors written by [`WorkloadGen::save_state`] into this
    /// generator, which must have been built from the same bench/spec/seed.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] on truncation, or [`SnapError::Corrupt`] when the
    /// stream/mix counts disagree with this generator's configuration.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let mut rng_state = [0u64; 4];
        for s in &mut rng_state {
            *s = r.take_u64()?;
        }
        self.rng = SimRng::from_state(rng_state);
        let n = r.take_seq_len(8)?;
        if n != self.stream_pos.len() {
            return Err(SnapError::Corrupt("stream cursor count mismatch"));
        }
        for p in self.stream_pos.iter_mut() {
            *p = r.take_u64()?;
        }
        self.chase = r.take_u64()?;
        let n = r.take_seq_len(8)?;
        if n != self.mix.len() {
            return Err(SnapError::Corrupt("mix sub-generator count mismatch"));
        }
        for g in self.mix.iter_mut() {
            g.restore_state(r)?;
        }
        let next = r.take_usize()?;
        if !self.mix.is_empty() && next >= self.mix.len() {
            return Err(SnapError::Corrupt("mix rotation out of range"));
        }
        self.mix_next = next;
        Ok(())
    }
}

impl Iterator for WorkloadGen {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        Some(self.next_record())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_stay_in_range() {
        for bench in crate::ALL_BENCHES {
            let mut g = WorkloadGen::for_bench(bench, 1 << 14, 3);
            for _ in 0..5000 {
                let r = g.next_record();
                assert!(r.addr < 1 << 14, "{bench:?} addr {}", r.addr);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<_> = WorkloadGen::for_bench(Bench::Xz, 1 << 14, 9)
            .take(100)
            .collect();
        let b: Vec<_> = WorkloadGen::for_bench(Bench::Xz, 1 << 14, 9)
            .take(100)
            .collect();
        assert_eq!(a, b);
        let c: Vec<_> = WorkloadGen::for_bench(Bench::Xz, 1 << 14, 10)
            .take(100)
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn streaming_pattern_is_sequential() {
        let mut g = WorkloadGen::for_bench(Bench::Lbm, 1 << 14, 5);
        // Collect cold accesses; within a stream consecutive addresses
        // should frequently be +1 apart. Check global sequential fraction.
        let recs = g.take_records(20_000);
        let mut last_by_region: std::collections::HashMap<u64, u64> = Default::default();
        let mut seq = 0usize;
        let mut cold = 0usize;
        for r in recs {
            let region = r.addr >> 10;
            if let Some(prev) = last_by_region.insert(region, r.addr) {
                if r.addr == prev + 1 {
                    seq += 1;
                }
            }
            cold += 1;
        }
        assert!(seq * 3 > cold / 4, "streaming should look sequential ({seq}/{cold})");
    }

    #[test]
    fn write_fraction_tracks_table2() {
        let count_writes = |bench: Bench| {
            let mut g = WorkloadGen::for_bench(bench, 1 << 14, 11);
            let recs = g.take_records(50_000);
            recs.iter().filter(|r| r.is_write).count() as f64 / 50_000.0
        };
        assert!(count_writes(Bench::Lbm) > count_writes(Bench::Mcf));
        assert!(count_writes(Bench::Bla) < 0.5);
    }

    #[test]
    fn zipf_is_skewed() {
        let mut g = WorkloadGen::for_bench(Bench::Gcc, 1 << 14, 13);
        let mut counts: std::collections::HashMap<u64, u32> = Default::default();
        for r in g.take_records(50_000) {
            *counts.entry(r.addr).or_insert(0) += 1;
        }
        let mut freqs: Vec<u32> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = freqs.iter().take(10).sum();
        let total: u32 = freqs.iter().sum();
        assert!(
            top10 as f64 / total as f64 > 0.05,
            "zipf should concentrate mass ({top10}/{total})"
        );
    }

    #[test]
    fn mix_interleaves_three_regions() {
        let n = 3u64 << 12;
        let mut g = WorkloadGen::for_bench(Bench::Mix, n, 17);
        let recs = g.take_records(30_000);
        let third = n / 3;
        let mut seen = [false; 3];
        for r in &recs {
            assert!(r.addr < n);
            seen[(r.addr / third).min(2) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all three sub-regions touched");
    }

    #[test]
    fn gaps_reflect_intensity() {
        let heavy: u64 = WorkloadGen::for_bench(Bench::Xz, 1 << 14, 1)
            .take(10_000)
            .map(|r| r.gap as u64)
            .sum();
        let light: u64 = WorkloadGen::for_bench(Bench::Xal, 1 << 14, 1)
            .take(10_000)
            .map(|r| r.gap as u64)
            .sum();
        assert!(
            light > heavy,
            "lighter benchmark has larger gaps ({light} vs {heavy})"
        );
    }

    #[test]
    fn save_restore_resumes_every_bench_identically() {
        for bench in crate::ALL_BENCHES {
            let mut a = WorkloadGen::for_bench(bench, 1 << 14, 21);
            a.take_records(777);
            let mut w = SnapWriter::new();
            a.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut b = WorkloadGen::for_bench(bench, 1 << 14, 21);
            let mut r = SnapReader::new(&bytes);
            b.restore_state(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(a.take_records(500), b.take_records(500), "{bench:?}");
        }
    }

    #[test]
    fn restore_rejects_mismatched_generator_shape() {
        let mut a = WorkloadGen::for_bench(Bench::Mix, 3 << 12, 21);
        a.take_records(10);
        let mut w = SnapWriter::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        // A non-mix generator has no sub-generators: shape mismatch.
        let mut b = WorkloadGen::for_bench(Bench::Mcf, 3 << 12, 21);
        let mut r = SnapReader::new(&bytes);
        assert!(b.restore_state(&mut r).is_err());
    }

    #[test]
    fn iterator_interface() {
        let g = WorkloadGen::for_bench(Bench::RandomUniform, 1 << 12, 2);
        assert_eq!(g.take(5).count(), 5);
    }
}
