//! Property-based tests over the substrate crates: the invariants every
//! higher layer silently relies on, fuzzed across configuration space.

use iroram_dram::{DramConfig, DramSystem, SubtreeLayout};
use iroram_protocol::{AllocPreset, Leaf, TreeLayout, ZAllocation};
use iroram_sim_engine::{Cycle, SimRng, SnapWriter};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The subtree layout is a bijection onto `[0, total_lines)` for any
    /// per-level Z assignment and group height.
    #[test]
    fn prop_subtree_layout_bijective(
        levels in 2usize..9,
        group in 1u32..5,
        zseed in any::<u64>(),
    ) {
        let mut rng = SimRng::seed_from(zseed);
        let z: Vec<u32> = (0..levels)
            .map(|_| rng.next_below(5) as u32) // 0..=4, zeros allowed
            .collect();
        let mut z = z;
        *z.last_mut().expect("nonempty") = 4; // leaf level always backed
        let layout = SubtreeLayout::new(&z, group);
        let mut seen = std::collections::HashSet::new();
        for (level, &zl) in z.iter().enumerate() {
            for bucket in 0..(1u64 << level) {
                for slot in 0..zl {
                    let a = layout.slot_addr(level, bucket, slot);
                    prop_assert!(a < layout.total_lines());
                    prop_assert!(seen.insert(a), "duplicate address {a}");
                }
            }
        }
        prop_assert_eq!(seen.len() as u64, layout.total_lines());
    }

    /// Every path through the layout touches exactly `path_len` lines, for
    /// every leaf — the obliviousness-critical constant footprint.
    #[test]
    fn prop_path_footprint_constant(
        levels in 2usize..9,
        group in 1u32..5,
        leaf_seed in any::<u64>(),
    ) {
        let z = vec![4u32; levels];
        let layout = SubtreeLayout::new(&z, group);
        let expect = layout.path_len(0) as usize;
        let mut rng = SimRng::seed_from(leaf_seed);
        for _ in 0..16 {
            let leaf = rng.next_below(1u64 << (levels - 1));
            let slots = layout.path_slots(leaf, 0);
            prop_assert_eq!(slots.len(), expect);
            // And all of them are distinct.
            let set: std::collections::HashSet<u64> = slots.iter().copied().collect();
            prop_assert_eq!(set.len(), expect);
        }
    }

    /// DRAM scheduling is causal (completion ≥ arrival) and deterministic,
    /// over a run of batches whose direction and arrival vary.
    #[test]
    fn prop_dram_causal_and_deterministic(
        n in 1usize..64,
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::seed_from(seed);
        let batches: Vec<(Vec<u64>, bool, Cycle)> = (0..1 + rng.next_below(4))
            .map(|_| {
                let lines = (0..n).map(|_| rng.next_below(1 << 16)).collect();
                (lines, rng.chance(0.4), Cycle(rng.next_below(10_000)))
            })
            .collect();
        let run = |batches: &[(Vec<u64>, bool, Cycle)]| {
            let mut d = DramSystem::new(DramConfig::default());
            let done: Vec<Cycle> = batches
                .iter()
                .map(|(lines, is_write, at)| d.schedule_lines(lines.iter().copied(), *is_write, *at))
                .collect();
            let mut w = SnapWriter::new();
            d.save_state(&mut w);
            (done, d.latency_underflows(), w.into_bytes())
        };
        let a = run(&batches);
        let b = run(&batches);
        prop_assert_eq!(&a, &b, "scheduling must be deterministic");
        // The scheduler counts every request that completes before it
        // arrives; each batch's last completion follows its arrival.
        prop_assert_eq!(a.1, 0, "completion before arrival");
        for (done, (_, _, at)) in a.0.iter().zip(&batches) {
            prop_assert!(done > at, "batch done at its arrival");
        }
        // Completions are unique per data-bus slot within a channel, so the
        // run's last completion bounds everything.
        let max = *a.0.iter().max().expect("nonempty");
        prop_assert!(max.raw() < 10_000 + 100_000, "runaway completion");
    }

    /// Every named allocation preset keeps the leaf level at Z=4 and
    /// shortens (or keeps) the path; at realistic tree heights the space
    /// loss stays under 2% (binary-tree geometry makes shrunken middles
    /// negligible only once the tree is deep enough — the paper's <1% claim
    /// is for L=25).
    #[test]
    fn prop_alloc_presets_sound(levels in 8usize..26, top_frac in 1usize..5) {
        let top = (levels * top_frac / 10).max(1).min(levels - 2);
        for preset in [
            AllocPreset::IrAlloc1,
            AllocPreset::IrAlloc2,
            AllocPreset::IrAlloc3,
            AllocPreset::IrAlloc4,
        ] {
            let a = ZAllocation::preset(preset, levels, top);
            prop_assert_eq!(a.z_of(levels - 1), 4);
            // The paper's <1% space claim holds when the memory-resident
            // region is at least as deep as its 15 levels (L=25, top 10):
            // the shrunken middle then sits ≥5 levels above the leaves and
            // binary-tree geometry makes it negligible.
            if levels - top >= 15 {
                prop_assert!(
                    a.space_reduction() < 0.02,
                    "{:?} loses {}",
                    preset,
                    a.space_reduction()
                );
            }
            let base = ZAllocation::uniform(levels, 4);
            prop_assert!(a.path_len(top) <= base.path_len(top));
        }
    }

    /// `common_depth` is symmetric, bounded by the tree height, and equals
    /// the leaf level iff the leaves coincide.
    #[test]
    fn prop_common_depth_algebra(levels in 2usize..16, s in any::<u64>()) {
        let layout = TreeLayout::new(ZAllocation::uniform(levels, 4));
        let n = layout.num_leaves();
        let mut rng = SimRng::seed_from(s);
        for _ in 0..32 {
            let a = Leaf(rng.next_below(n));
            let b = Leaf(rng.next_below(n));
            let d = layout.common_depth(a, b);
            prop_assert_eq!(d, layout.common_depth(b, a));
            prop_assert!(d < levels);
            prop_assert_eq!(d == levels - 1, a == b);
            // The bucket at the common depth really is shared.
            prop_assert_eq!(
                layout.bucket_on_path(a, d),
                layout.bucket_on_path(b, d)
            );
            // And one level deeper (if any) is not.
            if d + 1 < levels && a != b {
                prop_assert!(
                    layout.bucket_on_path(a, d + 1) != layout.bucket_on_path(b, d + 1)
                );
            }
        }
    }
}

/// Named regression for the fuzzer seed `levels = 8, top_frac = 1` — the
/// shallowest tree `prop_alloc_presets_sound` can draw. The top fraction
/// clamps to a single cached level, so every preset's shrunken middle sits
/// directly below the tree top, the tightest squeeze the presets allow.
/// Promoted to a deterministic unit test so the edge case runs on every
/// `cargo test`, not only when the fuzzer happens to re-draw it. (The
/// space-reduction bound is not asserted here: with `levels - top = 7 < 15`
/// the memory-resident region is too shallow for the paper's <1% claim.)
#[test]
fn alloc_presets_sound_at_min_depth_seed() {
    let (levels, top_frac) = (8usize, 1usize);
    let top = (levels * top_frac / 10).max(1).min(levels - 2);
    assert_eq!(top, 1, "seed must clamp to a single cached level");
    let base = ZAllocation::uniform(levels, 4);
    for preset in [
        AllocPreset::IrAlloc1,
        AllocPreset::IrAlloc2,
        AllocPreset::IrAlloc3,
        AllocPreset::IrAlloc4,
    ] {
        let a = ZAllocation::preset(preset, levels, top);
        assert_eq!(a.z_of(levels - 1), 4, "{preset:?} must keep leaf Z=4");
        assert!(
            a.path_len(top) <= base.path_len(top),
            "{preset:?} must not lengthen the memory path"
        );
    }
}

/// Deterministic end-to-end reproducibility across the whole stack: two
/// identical timed simulations produce byte-identical reports.
#[test]
fn full_stack_determinism() {
    use ir_oram::{RunLimit, Scheme, Simulation, SystemConfig};
    use iroram_trace::Bench;
    let mut cfg = SystemConfig::scaled(Scheme::IrOram);
    cfg.oram.levels = 11;
    cfg.oram.data_blocks = 1 << 12;
    cfg.oram.zalloc = ZAllocation::uniform(11, 4);
    cfg.oram.treetop = iroram_protocol::TreeTopMode::Dedicated { levels: 4 };
    let cfg = cfg.with_scheme(Scheme::IrOram);
    let a = Simulation::run_bench(&cfg, Bench::Mix, RunLimit::mem_ops(2_000));
    let b = Simulation::run_bench(&cfg, Bench::Mix, RunLimit::mem_ops(2_000));
    assert_eq!(
        debug_string(&a),
        debug_string(&b),
        "identical configs must give identical reports"
    );
}

fn debug_string(r: &ir_oram::SimReport) -> String {
    format!("{r:?}")
}
