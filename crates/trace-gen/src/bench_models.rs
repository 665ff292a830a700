//! Per-benchmark workload models calibrated to the paper's Table II.

use crate::synth::Pattern;

/// The benchmarks of the paper's Table II, plus the synthetic workloads its
/// methodology sections use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bench {
    /// SPEC gcc — light, mixed, moderately local.
    Gcc,
    /// SPEC mcf — read-dominated pointer chasing (19.5 read MPKI).
    Mcf,
    /// SPEC xz — heavy mixed read/write streaming (24.9 / 29.6 MPKI).
    Xz,
    /// SPEC xalancbmk — very light.
    Xal,
    /// SPEC deepsjeng — write-leaning, moderate (5.7 write MPKI).
    Dee,
    /// SPEC bwaves — streaming writer (20.7 write MPKI).
    Bwa,
    /// SPEC lbm — the heaviest streaming writer (45.3 write MPKI).
    Lbm,
    /// SPEC cam4 — streaming writer (8.8 write MPKI).
    Cam,
    /// SPEC imagick — light writer with some reads.
    Ima,
    /// SPEC roms — streaming writer (23.0 write MPKI).
    Rom,
    /// PARSEC blackscholes — moderate reader.
    Bla,
    /// PARSEC streamcluster — moderate reader.
    Str,
    /// PARSEC freqmine — moderate reader.
    Fre,
    /// The paper's `mix` bar: three benchmarks interleaved (mcf, lbm, gcc).
    Mix,
    /// Uniform random reads over the whole data space (the worst case used
    /// for Fig. 3's trace tail, the Z search, and Fig. 16).
    RandomUniform,
}

/// All thirteen Table II benchmarks (excluding the synthetic entries).
pub const ALL_BENCHES: [Bench; 13] = [
    Bench::Gcc,
    Bench::Mcf,
    Bench::Xz,
    Bench::Xal,
    Bench::Dee,
    Bench::Bwa,
    Bench::Lbm,
    Bench::Cam,
    Bench::Ima,
    Bench::Rom,
    Bench::Bla,
    Bench::Str,
    Bench::Fre,
];

impl Bench {
    /// The short name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Bench::Gcc => "gcc",
            Bench::Mcf => "mcf",
            Bench::Xz => "xz",
            Bench::Xal => "xal",
            Bench::Dee => "dee",
            Bench::Bwa => "bwa",
            Bench::Lbm => "lbm",
            Bench::Cam => "cam",
            Bench::Ima => "ima",
            Bench::Rom => "rom",
            Bench::Bla => "bla",
            Bench::Str => "str",
            Bench::Fre => "fre",
            Bench::Mix => "mix",
            Bench::RandomUniform => "random",
        }
    }

    /// Table II read MPKI target.
    pub fn read_mpki(self) -> f64 {
        match self {
            Bench::Gcc => 0.1,
            Bench::Mcf => 19.5,
            Bench::Xz => 24.9,
            Bench::Xal => 0.05,
            Bench::Dee => 0.0,
            Bench::Bwa => 0.0,
            Bench::Lbm => 0.0,
            Bench::Cam => 0.01,
            Bench::Ima => 0.3,
            Bench::Rom => 0.02,
            Bench::Bla => 2.6,
            Bench::Str => 2.7,
            Bench::Fre => 2.1,
            Bench::Mix => (19.5 + 0.0 + 0.1) / 3.0,
            Bench::RandomUniform => 40.0,
        }
    }

    /// Table II write MPKI target.
    pub fn write_mpki(self) -> f64 {
        match self {
            Bench::Gcc => 0.3,
            Bench::Mcf => 0.1,
            Bench::Xz => 29.6,
            Bench::Xal => 0.1,
            Bench::Dee => 5.7,
            Bench::Bwa => 20.7,
            Bench::Lbm => 45.3,
            Bench::Cam => 8.8,
            Bench::Ima => 2.9,
            Bench::Rom => 23.0,
            Bench::Bla => 0.4,
            Bench::Str => 0.5,
            Bench::Fre => 0.4,
            Bench::Mix => (0.1 + 45.3 + 0.3) / 3.0,
            Bench::RandomUniform => 0.0,
        }
    }

    /// Combined MPKI target.
    pub fn total_mpki(self) -> f64 {
        self.read_mpki() + self.write_mpki()
    }

    /// The workload model for this benchmark over `n_data` protected
    /// blocks.
    pub fn spec(self, n_data: u64) -> WorkloadSpec {
        WorkloadSpec::for_bench(self, n_data)
    }
}

/// Parameters of a synthetic workload.
///
/// The model: a core retires `mem_ops_per_kinst` memory operations per 1000
/// instructions. Each op targets the *cold* region with probability
/// `cold_frac` (these miss the LLC by construction: the cold region is far
/// larger than the cache) and the hot set otherwise (cache-resident). The
/// cold pattern is benchmark-specific. Cold read/write mix follows the
/// Table II ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Which benchmark this models.
    pub bench: Bench,
    /// Memory operations per kilo-instruction.
    pub mem_ops_per_kinst: f64,
    /// Fraction of ops that target the cold (missing) region.
    pub cold_frac: f64,
    /// Fraction of *cold* ops that are reads.
    pub cold_read_frac: f64,
    /// Fraction of *hot* ops that are reads.
    pub hot_read_frac: f64,
    /// Cold-region access pattern.
    pub pattern: Pattern,
    /// Cold region size in blocks.
    pub cold_blocks: u64,
    /// Hot set size in blocks (must fit the L1 comfortably).
    pub hot_blocks: u64,
}

impl WorkloadSpec {
    /// Builds the calibrated model for `bench` over `n_data` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `n_data < 64`.
    pub fn for_bench(bench: Bench, n_data: u64) -> WorkloadSpec {
        assert!(n_data >= 64, "data space too small for workload models");
        // Memory intensity scales with the miss target so that cold_frac
        // stays in a plausible 0..0.45 band.
        let total = bench.total_mpki().max(0.02);
        let mem_ops_per_kinst = (total * 3.0).clamp(50.0, 200.0);
        let cold_frac = (total / mem_ops_per_kinst).min(0.45);
        let r = bench.read_mpki();
        let w = bench.write_mpki();
        let cold_read_frac = if r + w > 0.0 { r / (r + w) } else { 1.0 };
        let pattern = match bench {
            // Pointer-chasing reader.
            Bench::Mcf => Pattern::PointerChase,
            // Streaming writers sweep large arrays sequentially.
            Bench::Lbm | Bench::Bwa | Bench::Rom | Bench::Cam | Bench::Dee => {
                Pattern::Streaming { streams: 4 }
            }
            // xz mixes streaming with dictionary randomness.
            Bench::Xz => Pattern::Streaming { streams: 8 },
            // Light/irregular benchmarks reuse a skewed working set.
            Bench::Gcc | Bench::Xal | Bench::Ima | Bench::Fre => Pattern::Zipf { theta: 0.8 },
            // PARSEC kernels scan moderate working sets.
            Bench::Bla | Bench::Str => Pattern::Streaming { streams: 2 },
            Bench::Mix => Pattern::Uniform, // unused: Mix interleaves members
            Bench::RandomUniform => Pattern::Uniform,
        };
        // Cold working sets: streaming sweeps most of the space; irregular
        // benchmarks reuse a few percent of it.
        let cold_blocks = match bench {
            Bench::Gcc | Bench::Xal | Bench::Ima | Bench::Fre => (n_data / 16).max(64),
            Bench::Mcf => (n_data / 2).max(64),
            Bench::Bla | Bench::Str => (n_data / 8).max(64),
            _ => n_data,
        };
        WorkloadSpec {
            bench,
            mem_ops_per_kinst,
            cold_frac,
            cold_read_frac,
            hot_read_frac: 0.7,
            pattern,
            cold_blocks: cold_blocks.min(n_data),
            hot_blocks: 8,
        }
    }

    /// Mean instruction gap between memory operations.
    pub fn mean_gap(&self) -> f64 {
        1000.0 / self.mem_ops_per_kinst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_targets_match_paper() {
        assert_eq!(Bench::Mcf.read_mpki(), 19.5);
        assert_eq!(Bench::Lbm.write_mpki(), 45.3);
        assert_eq!(Bench::Xz.total_mpki(), 54.5);
        assert_eq!(Bench::Gcc.total_mpki(), 0.4);
    }

    #[test]
    fn all_benches_have_distinct_names() {
        let names: std::collections::HashSet<&str> = ALL_BENCHES.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), ALL_BENCHES.len());
    }

    #[test]
    fn specs_are_sane() {
        for b in ALL_BENCHES {
            let s = b.spec(1 << 18);
            assert!(s.cold_frac > 0.0 && s.cold_frac <= 0.45, "{b:?}");
            assert!((0.0..=1.0).contains(&s.cold_read_frac), "{b:?}");
            assert!(s.cold_blocks >= 64 && s.cold_blocks <= 1 << 18, "{b:?}");
            assert!(s.mean_gap() >= 5.0, "{b:?}");
        }
    }

    #[test]
    fn read_write_leanings() {
        // mcf is read-dominated; lbm write-dominated.
        assert!(Bench::Mcf.spec(1 << 18).cold_read_frac > 0.9);
        assert!(Bench::Lbm.spec(1 << 18).cold_read_frac < 0.05);
    }

    #[test]
    fn intensity_ordering_follows_mpki() {
        let light = Bench::Xal.spec(1 << 18);
        let heavy = Bench::Xz.spec(1 << 18);
        assert!(
            heavy.cold_frac * heavy.mem_ops_per_kinst
                > 50.0 * light.cold_frac * light.mem_ops_per_kinst
        );
    }
}
