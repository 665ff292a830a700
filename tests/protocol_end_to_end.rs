//! End-to-end functional tests of the Path ORAM protocol across every
//! configuration axis: correctness (read-your-writes), structural
//! invariants, the delayed-remap lifecycle, and the Z-search algorithm.

use iroram_protocol::{
    AllocPreset, BlockAddr, OramConfig, PathOram, RemapPolicy, TreeTopMode, ZAllocation,
};
use iroram_sim_engine::SimRng;
use proptest::prelude::*;

fn config_matrix() -> Vec<OramConfig> {
    let mut out = Vec::new();
    for treetop in [
        TreeTopMode::None,
        TreeTopMode::Dedicated { levels: 3 },
        TreeTopMode::IrStash {
            levels: 3,
            sets: 16,
            ways: 4,
        },
    ] {
        for remap in [RemapPolicy::Immediate, RemapPolicy::Delayed] {
            for zalloc in [
                ZAllocation::uniform(8, 4),
                ZAllocation::preset(AllocPreset::IrAlloc4, 8, 3),
            ] {
                out.push(OramConfig {
                    treetop,
                    remap,
                    zalloc,
                    ..OramConfig::tiny()
                });
            }
        }
    }
    out
}

#[test]
fn read_your_writes_over_full_matrix() {
    for cfg in config_matrix() {
        let label = format!("{:?}/{:?}", cfg.treetop, cfg.remap);
        let mut oram = PathOram::new(cfg);
        let n = oram.config().data_blocks;
        let mut rng = SimRng::seed_from(77);
        let mut model = std::collections::HashMap::new();
        for i in 0..600u64 {
            let addr = rng.next_below(n);
            if rng.chance(0.5) {
                oram.write(addr, i);
                model.insert(addr, i);
            } else {
                let got = oram.read(addr);
                let want = model.get(&addr).copied().unwrap_or(0);
                assert_eq!(got, want, "{label}: addr {addr} at op {i}");
            }
        }
        oram.check_invariants()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn stash_stays_bounded_under_uniform_load() {
    let mut oram = PathOram::new(OramConfig::tiny());
    let n = oram.config().data_blocks;
    let mut rng = SimRng::seed_from(5);
    for _ in 0..3_000 {
        oram.run_access(BlockAddr(rng.next_below(n)), None);
    }
    // Background eviction keeps the stash near its soft capacity; the hard
    // bound here is capacity + one path's worth of blocks.
    let cap = oram.config().stash_capacity;
    assert!(
        oram.stash_peak() <= cap + 40,
        "stash peaked at {} (cap {cap})",
        oram.stash_peak()
    );
}

/// Path ORAM's stash tail against theory: Stefanov et al. prove that
/// Pr[stash > R] falls geometrically in R, as 14 · 0.6002^R for Z ≥ 5,
/// and observe the same fall for Z = 4. A Z = 4 tree with no tree top,
/// filled about half like the standard configuration, runs uniform reads
/// with background eviction out of reach (a soft capacity no stash
/// meets), so after each access the stash holds exactly what the
/// write-backs left. Over R, the count of accesses that left more than R
/// blocks must stay under the geometric envelope `c₀ · 0.6^R` drawn from
/// R = 0, and the tail must reach several R so the envelope says
/// something.
#[test]
fn stash_tail_falls_geometrically_under_uniform_load() {
    let levels = 10;
    let cfg = OramConfig {
        levels,
        data_blocks: 1 << (levels + 1),
        zalloc: ZAllocation::uniform(levels, 4),
        treetop: TreeTopMode::None,
        stash_capacity: 1 << 20,
        encrypt_payloads: false,
        integrity: false,
        ..OramConfig::tiny()
    };
    let mut oram = PathOram::new(cfg);
    let n = oram.config().data_blocks;
    let mut rng = SimRng::seed_from(5);
    // `over[r]`: accesses that left more than `r` blocks in the stash.
    let mut over = [0u64; 24];
    for _ in 0..20_000 {
        oram.run_access(BlockAddr(rng.next_below(n)), None);
        for c in over.iter_mut().take(oram.stash_len()) {
            *c += 1;
        }
    }
    assert_eq!(oram.stats().bg_evict_paths, 0, "background eviction ran");
    let reached = over.iter().take_while(|&&c| c > 0).count();
    assert!(
        reached >= 4,
        "the tail reaches only R < {reached}: {over:?}"
    );
    let mut envelope = over[0] as f64;
    for (r, &c) in over.iter().enumerate() {
        assert!(
            c as f64 <= envelope,
            "Pr[stash > {r}] is above the geometric envelope: {over:?}"
        );
        envelope *= 0.6;
    }
}

#[test]
fn delayed_remap_lifecycle_is_consistent() {
    let cfg = OramConfig {
        remap: RemapPolicy::Delayed,
        ..OramConfig::tiny()
    };
    let mut oram = PathOram::new(cfg);
    let n = oram.config().data_blocks;
    let mut rng = SimRng::seed_from(9);
    // Access (escrow) a set of blocks, then write them all back.
    let addrs: Vec<u64> = (0..64).map(|_| rng.next_below(n)).collect();
    for &a in &addrs {
        oram.write(a, a + 1);
    }
    let escrowed: Vec<BlockAddr> = oram.escrowed().collect();
    assert!(!escrowed.is_empty());
    for a in escrowed {
        oram.delayed_writeback(a).unwrap();
    }
    assert_eq!(oram.escrowed().count(), 0);
    oram.check_invariants().unwrap();
    for &a in &addrs {
        assert_eq!(oram.read(a), a + 1);
    }
}

#[test]
fn posmap_traffic_shrinks_with_locality() {
    let mut oram = PathOram::new(OramConfig::tiny());
    // Sequential sweep: 16 consecutive blocks share one PosMap1 block.
    for a in 0..128u64 {
        oram.read(a);
    }
    let seq = oram.stats().posmap_paths();
    oram.reset_stats();
    let mut rng = SimRng::seed_from(31);
    let n = oram.config().data_blocks;
    for _ in 0..128 {
        oram.read(rng.next_below(n));
    }
    let rnd = oram.stats().posmap_paths();
    assert!(
        seq < rnd,
        "sequential access ({seq} PosMap paths) must beat random ({rnd})"
    );
}

#[test]
fn greedy_z_search_respects_constraints() {
    let probe = OramConfig {
        levels: 9,
        data_blocks: 1 << 10,
        zalloc: ZAllocation::uniform(9, 4),
        treetop: TreeTopMode::Dedicated { levels: 3 },
        ..OramConfig::tiny()
    };
    let outcome = ZAllocation::greedy_search(&probe, 2_000, 0.01, 0.15, 42);
    let chosen = &outcome.chosen;
    assert!(chosen.space_reduction() <= 0.01, "space constraint");
    assert!(
        outcome.chosen_bg_evictions as f64
            <= (outcome.baseline_bg_evictions as f64 * 1.15).ceil() + 1.0,
        "bg-eviction constraint: {} vs baseline {}",
        outcome.chosen_bg_evictions,
        outcome.baseline_bg_evictions
    );
    // The search should actually shrink something.
    assert!(
        chosen.path_len(3) < ZAllocation::uniform(9, 4).path_len(3),
        "search found no reduction"
    );
    assert!(outcome.candidates_evaluated >= 2);
    // And never the leaf level.
    assert_eq!(chosen.z_of(8), 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random operation sequences preserve both data and structure.
    #[test]
    fn prop_random_ops_sound(seed in 0u64..1000, ops in 50usize..200) {
        let mut oram = PathOram::new(OramConfig::tiny());
        let n = oram.config().data_blocks;
        let mut rng = SimRng::seed_from(seed);
        let mut model = std::collections::HashMap::new();
        for i in 0..ops as u64 {
            let addr = rng.next_below(n);
            if rng.chance(0.4) {
                oram.write(addr, i ^ seed);
                model.insert(addr, i ^ seed);
            } else {
                let want = model.get(&addr).copied().unwrap_or(0);
                prop_assert_eq!(oram.read(addr), want);
            }
        }
        prop_assert!(oram.check_invariants().is_ok());
    }

    /// Dummy paths never corrupt data.
    #[test]
    fn prop_dummies_preserve_data(seed in 0u64..1000) {
        let mut oram = PathOram::new(OramConfig::tiny());
        let mut rng = SimRng::seed_from(seed);
        let addrs: Vec<u64> = (0..16).map(|_| rng.next_below(256)).collect();
        for (i, &a) in addrs.iter().enumerate() {
            oram.write(a, i as u64 + 1000);
        }
        for _ in 0..100 {
            oram.dummy_path();
        }
        prop_assert!(oram.check_invariants().is_ok());
        let mut expected: std::collections::HashMap<u64, u64> = Default::default();
        for (i, &a) in addrs.iter().enumerate() {
            expected.insert(a, i as u64 + 1000); // later writes win
        }
        for (&a, &v) in &expected {
            prop_assert_eq!(oram.read(a), v);
        }
    }
}
