//! Per-level bucket-size allocation — the IR-Alloc mechanism.
//!
//! Traditional Path ORAM uses one `Z` for every tree level. IR-Alloc
//! (paper Section IV-B) exploits the low space utilization of middle tree
//! levels (Fig. 3) to shrink their buckets, reducing the number of blocks
//! every path access must touch. This module provides:
//!
//! * [`ZAllocation`] — an explicit per-level `Z` vector with the paper's
//!   named configurations (`IR-Alloc1..4`, the integrated IR-ORAM setting)
//!   generalized to any tree height, and
//! * [`ZAllocation::greedy_search`] — the paper's offline search that lowers
//!   `Z` values level by level under two constraints: total space reduction
//!   within 1% and background-eviction increase within 15% on random traces
//!   (the worst case for middle-level utilization).

use crate::controller::{OramConfig, PathOram};
use iroram_sim_engine::SimRng;

/// Named allocation strategies from the paper's evaluation (Section VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocPreset {
    /// Uniform `Z=4` (the Baseline).
    Baseline,
    /// `Z=2` for rel. levels \[0,7), `Z=3` for \[7,10), `Z=4` below — PL=43
    /// at paper scale. Also the integrated IR-ORAM setting.
    IrAlloc1,
    /// `Z=2` for rel. levels \[0,9), `Z=4` below — PL=42 at paper scale.
    IrAlloc2,
    /// `Z=1` for rel. levels \[0,5), `Z=2` for \[5,9) — PL=37 at paper scale.
    IrAlloc3,
    /// `Z=1` for rel. levels \[0,6), `Z=2` for \[6,9) — PL=36 at paper
    /// scale. This is the standalone "IR-Alloc" bar of Fig. 10.
    IrAlloc4,
}

/// A per-level bucket capacity assignment.
///
/// # Examples
///
/// ```
/// use iroram_protocol::ZAllocation;
/// // The paper's IR-Alloc1 at full scale: 25 levels, top 10 cached on-chip.
/// let a = ZAllocation::preset(iroram_protocol::zalloc_preset::IR_ALLOC1, 25, 10);
/// assert_eq!(a.path_len(10), 43);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZAllocation {
    z: Vec<u32>,
}

/// Re-exported preset constants for ergonomic call sites.
pub mod preset_consts {
    pub use super::AllocPreset;
    /// Uniform `Z=4`.
    pub const BASELINE: AllocPreset = AllocPreset::Baseline;
    /// The IR-Alloc1 / integrated IR-ORAM setting.
    pub const IR_ALLOC1: AllocPreset = AllocPreset::IrAlloc1;
    /// The IR-Alloc2 setting.
    pub const IR_ALLOC2: AllocPreset = AllocPreset::IrAlloc2;
    /// The IR-Alloc3 setting.
    pub const IR_ALLOC3: AllocPreset = AllocPreset::IrAlloc3;
    /// The IR-Alloc4 / standalone IR-Alloc setting.
    pub const IR_ALLOC4: AllocPreset = AllocPreset::IrAlloc4;
}

impl ZAllocation {
    /// Uniform allocation: every level gets `z` slots.
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0` or `z == 0`.
    pub fn uniform(levels: usize, z: u32) -> Self {
        assert!(levels > 0, "tree needs at least one level");
        assert!(z > 0, "uniform Z must be nonzero");
        ZAllocation {
            z: vec![z; levels],
        }
    }

    /// Explicit per-level capacities.
    ///
    /// # Panics
    ///
    /// Panics if `z` is empty or the leaf level has zero capacity.
    pub fn from_z(z: Vec<u32>) -> Self {
        assert!(!z.is_empty(), "tree needs at least one level");
        assert!(
            *z.last().expect("nonempty") > 0,
            "leaf level must have nonzero capacity"
        );
        ZAllocation { z }
    }

    /// A named paper configuration mapped onto a tree of `levels` levels
    /// with the top `top_cached` levels held on-chip.
    ///
    /// At the paper's scale (`levels=25`, `top_cached=10`) this reproduces
    /// the exact ranges of Section VI; at other scales the range breakpoints
    /// are placed at the same fractions of the memory-resident region
    /// (15 levels at paper scale).
    ///
    /// # Panics
    ///
    /// Panics if `top_cached >= levels`.
    pub fn preset(preset: AllocPreset, levels: usize, top_cached: usize) -> Self {
        assert!(
            top_cached < levels,
            "cannot cache all {levels} levels on-chip"
        );
        let m = levels - top_cached; // memory-resident level count
        // Breakpoints expressed in fifteenths of the memory region, from the
        // paper's L=25/top=10 configuration.
        let frac = |n: usize| (n * m + 7) / 15; // round-half-up of n/15 × m
        let mut z = vec![4u32; levels];
        match preset {
            AllocPreset::Baseline => {}
            AllocPreset::IrAlloc1 => {
                for (i, slot) in z.iter_mut().enumerate().skip(top_cached) {
                    let rel = i - top_cached;
                    if rel < frac(7) {
                        *slot = 2;
                    } else if rel < frac(10) {
                        *slot = 3;
                    }
                }
            }
            AllocPreset::IrAlloc2 => {
                for (i, slot) in z.iter_mut().enumerate().skip(top_cached) {
                    let rel = i - top_cached;
                    if rel < frac(9) {
                        *slot = 2;
                    }
                }
            }
            AllocPreset::IrAlloc3 => {
                for (i, slot) in z.iter_mut().enumerate().skip(top_cached) {
                    let rel = i - top_cached;
                    if rel < frac(5) {
                        *slot = 1;
                    } else if rel < frac(9) {
                        *slot = 2;
                    }
                }
            }
            AllocPreset::IrAlloc4 => {
                for (i, slot) in z.iter_mut().enumerate().skip(top_cached) {
                    let rel = i - top_cached;
                    if rel < frac(6) {
                        *slot = 1;
                    } else if rel < frac(9) {
                        *slot = 2;
                    }
                }
            }
        }
        // Never shrink the leaf level (the paper always keeps Z=4 there).
        if let Some(last) = z.last_mut() {
            *last = 4;
        }
        ZAllocation { z }
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.z.len()
    }

    /// Capacity of `level`.
    #[inline]
    pub fn z_of(&self, level: usize) -> u32 {
        self.z[level]
    }

    /// The raw per-level vector.
    pub fn as_slice(&self) -> &[u32] {
        &self.z
    }

    /// Total logical slots.
    pub fn total_slots(&self) -> u64 {
        self.z
            .iter()
            .enumerate()
            .map(|(l, &z)| (1u64 << l) * z as u64)
            .sum()
    }

    /// Blocks per path access from `from_level` down (the paper's PL).
    pub fn path_len(&self, from_level: usize) -> u64 {
        self.z[from_level..].iter().map(|&z| z as u64).sum()
    }

    /// Fraction of slots lost relative to uniform `Z=4` on the same tree.
    pub fn space_reduction(&self) -> f64 {
        let full = ZAllocation::uniform(self.levels(), 4).total_slots();
        1.0 - self.total_slots() as f64 / full as f64
    }

    /// Returns a copy with `level`'s capacity replaced.
    pub fn with_level(&self, level: usize, z: u32) -> Self {
        let mut v = self.z.clone();
        v[level] = z;
        ZAllocation::from_z(v)
    }

    /// The paper's offline greedy `Z`-search (Section IV-B).
    ///
    /// Starting from the baseline, repeatedly lowers the capacity of
    /// memory-resident levels (top-down, never the leaf level) and accepts a
    /// change while (1) total space reduction stays within
    /// `max_space_reduction` and (2) the background-eviction count on a
    /// random trace stays within `(1 + max_bg_increase)` of baseline. The
    /// random trace is the worst case for middle-level utilization, so an
    /// allocation passing here is safe for program traces.
    ///
    /// `probe_cfg` supplies the tree geometry and search workload scale; its
    /// `zalloc` field is ignored.
    pub fn greedy_search(
        probe_cfg: &OramConfig,
        accesses: u64,
        max_space_reduction: f64,
        max_bg_increase: f64,
        seed: u64,
    ) -> GreedySearchOutcome {
        let levels = probe_cfg.levels;
        let top = probe_cfg.treetop.cached_levels();
        let baseline = ZAllocation::uniform(levels, 4);
        let baseline_bg = measure_bg(probe_cfg, &baseline, accesses, seed);
        let budget = ((baseline_bg as f64) * (1.0 + max_bg_increase)).ceil() as u64;

        let mut current = baseline.clone();
        let mut evaluated = 1usize;
        let mut current_bg = baseline_bg;
        // Walk memory levels from the top of the memory region toward the
        // leaves, lowering each as far as constraints allow.
        for level in top..levels - 1 {
            loop {
                let z = current.z_of(level);
                if z <= 1 {
                    break;
                }
                let cand = current.with_level(level, z - 1);
                if cand.space_reduction() > max_space_reduction {
                    break;
                }
                let bg = measure_bg(probe_cfg, &cand, accesses, seed);
                evaluated += 1;
                if bg <= budget {
                    current = cand;
                    current_bg = bg;
                } else {
                    break;
                }
            }
        }
        GreedySearchOutcome {
            chosen: current,
            candidates_evaluated: evaluated,
            baseline_bg_evictions: baseline_bg,
            chosen_bg_evictions: current_bg,
        }
    }
}

/// Result of [`ZAllocation::greedy_search`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GreedySearchOutcome {
    /// The allocation the search settled on.
    pub chosen: ZAllocation,
    /// How many candidate allocations were simulated.
    pub candidates_evaluated: usize,
    /// Background evictions of the uniform baseline on the probe trace.
    pub baseline_bg_evictions: u64,
    /// Background evictions of the chosen allocation on the probe trace.
    pub chosen_bg_evictions: u64,
}

fn measure_bg(probe_cfg: &OramConfig, zalloc: &ZAllocation, accesses: u64, seed: u64) -> u64 {
    let mut cfg = probe_cfg.clone();
    cfg.zalloc = zalloc.clone();
    cfg.seed = seed;
    let mut oram = PathOram::new(cfg);
    let mut rng = SimRng::seed_from(seed ^ 0x5eed);
    let n = oram.config().data_blocks;
    for _ in 0..accesses {
        let addr = rng.next_below(n);
        oram.run_access(crate::BlockAddr(addr), None);
    }
    oram.stats().bg_evict_paths
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_path_lengths() {
        // Section VI-B: PL = 43 / 42 / 37 / 36 for IR-Alloc1..4 at L=25 with
        // the top 10 levels cached.
        let pl = |p| ZAllocation::preset(p, 25, 10).path_len(10);
        assert_eq!(pl(AllocPreset::Baseline), 60);
        assert_eq!(pl(AllocPreset::IrAlloc1), 43);
        assert_eq!(pl(AllocPreset::IrAlloc2), 42);
        assert_eq!(pl(AllocPreset::IrAlloc3), 37);
        assert_eq!(pl(AllocPreset::IrAlloc4), 36);
    }

    #[test]
    fn paper_scale_exact_ranges() {
        let a = ZAllocation::preset(AllocPreset::IrAlloc1, 25, 10);
        for l in 0..10 {
            assert_eq!(a.z_of(l), 4, "cached level {l} untouched");
        }
        for l in 10..=16 {
            assert_eq!(a.z_of(l), 2, "level {l}");
        }
        for l in 17..=19 {
            assert_eq!(a.z_of(l), 3, "level {l}");
        }
        for l in 20..=24 {
            assert_eq!(a.z_of(l), 4, "level {l}");
        }
    }

    #[test]
    fn space_reduction_under_one_percent_at_paper_scale() {
        for p in [
            AllocPreset::IrAlloc1,
            AllocPreset::IrAlloc2,
            AllocPreset::IrAlloc3,
            AllocPreset::IrAlloc4,
        ] {
            let a = ZAllocation::preset(p, 25, 10);
            let red = a.space_reduction();
            assert!(
                red > 0.0 && red < 0.01,
                "{p:?} space reduction {red} out of the paper's <1% band"
            );
        }
    }

    #[test]
    fn scaled_presets_shrink_paths_proportionally() {
        let base = ZAllocation::preset(AllocPreset::Baseline, 17, 7);
        let ir1 = ZAllocation::preset(AllocPreset::IrAlloc1, 17, 7);
        let ir4 = ZAllocation::preset(AllocPreset::IrAlloc4, 17, 7);
        assert!(ir1.path_len(7) < base.path_len(7));
        assert!(ir4.path_len(7) < ir1.path_len(7));
        // Roughly the paper's 43/60 ≈ 0.72 and 36/60 = 0.6 ratios.
        let r1 = ir1.path_len(7) as f64 / base.path_len(7) as f64;
        let r4 = ir4.path_len(7) as f64 / base.path_len(7) as f64;
        assert!((0.6..0.85).contains(&r1), "ratio {r1}");
        assert!((0.5..0.75).contains(&r4), "ratio {r4}");
    }

    #[test]
    fn leaf_level_never_shrinks() {
        for p in [
            AllocPreset::IrAlloc1,
            AllocPreset::IrAlloc2,
            AllocPreset::IrAlloc3,
            AllocPreset::IrAlloc4,
        ] {
            for levels in [10usize, 13, 17, 25] {
                let a = ZAllocation::preset(p, levels, levels / 3);
                assert_eq!(a.z_of(levels - 1), 4, "{p:?} L={levels}");
            }
        }
    }

    #[test]
    fn with_level_is_non_destructive() {
        let a = ZAllocation::uniform(5, 4);
        let b = a.with_level(2, 1);
        assert_eq!(a.z_of(2), 4);
        assert_eq!(b.z_of(2), 1);
        assert_eq!(b.z_of(3), 4);
    }

    #[test]
    #[should_panic(expected = "leaf level")]
    fn rejects_zero_leaf_capacity() {
        let _ = ZAllocation::from_z(vec![4, 0]);
    }

    #[test]
    #[should_panic(expected = "cache all")]
    fn rejects_fully_cached_tree() {
        let _ = ZAllocation::preset(AllocPreset::Baseline, 5, 5);
    }
}
