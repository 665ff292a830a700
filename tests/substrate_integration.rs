//! Cross-substrate integration: the DRAM model, address layouts, caches and
//! trace generators composing the way the full system relies on.

use iroram_cache::{HierarchyConfig, MemoryHierarchy};
use iroram_dram::{DramConfig, DramSystem, SubtreeLayout};
use iroram_sim_engine::{ClockRatio, Cycle, SimRng};
use iroram_trace::{Bench, WorkloadGen};

/// The subtree layout's whole purpose: path accesses enjoy far better
/// row-buffer locality than random block scatter.
#[test]
fn subtree_layout_beats_level_scatter_on_row_hits() {
    let z = vec![4u32; 15];
    let layout = SubtreeLayout::new(&z, 4);
    let mut rng = SimRng::seed_from(5);

    // Path-ordered traffic through the subtree layout.
    let mut dram = DramSystem::new(DramConfig::default());
    for _ in 0..200 {
        let leaf = rng.next_below(1 << 14);
        dram.schedule_lines(layout.path_slots(leaf, 0), false, Cycle(0));
    }
    let subtree_hits = dram.stats().row_hit_rate();

    // The same volume of uniformly random lines.
    let mut dram2 = DramSystem::new(DramConfig::default());
    let total = layout.total_lines();
    for _ in 0..200 {
        let lines: Vec<u64> = (0..60).map(|_| rng.next_below(total)).collect();
        dram2.schedule_lines(lines, false, Cycle(0));
    }
    let random_hits = dram2.stats().row_hit_rate();

    assert!(
        subtree_hits > random_hits + 0.2,
        "subtree {subtree_hits:.2} vs random {random_hits:.2}"
    );
}

/// IR-Alloc's shorter paths translate directly into shorter DRAM service:
/// the memory-intensity mechanism of the whole paper.
#[test]
fn shorter_paths_finish_sooner() {
    let uniform = SubtreeLayout::new(&[4u32; 15], 4);
    let mut shrunk_z = vec![4u32; 15];
    for z in shrunk_z.iter_mut().take(10).skip(5) {
        *z = 1;
    }
    let shrunk = SubtreeLayout::new(&shrunk_z, 4);
    assert!(shrunk.path_len(0) < uniform.path_len(0));

    let service = |layout: &SubtreeLayout| {
        let mut dram = DramSystem::new(DramConfig::default());
        let mut rng = SimRng::seed_from(8);
        let mut done = Cycle::ZERO;
        for i in 0..100u64 {
            let leaf = rng.next_below(1 << 14);
            let at = Cycle(i * 200);
            done = dram.schedule_lines(layout.path_slots(leaf, 0), false, at);
        }
        done
    };
    assert!(
        service(&shrunk) < service(&uniform),
        "fewer blocks per path must reduce service time"
    );
}

/// Clock-domain conversion round-trips through the DRAM path: a CPU-time
/// arrival scheduled in DRAM cycles completes at a CPU time no earlier than
/// it arrived.
#[test]
fn clock_conversion_is_causal() {
    let clock = ClockRatio::cpu_dram_default();
    let mut dram = DramSystem::new(DramConfig::default());
    for cpu_t in [0u64, 999, 1000, 12_345] {
        let arrival = clock.fast_to_slow(Cycle(cpu_t));
        let done = dram.schedule_lines([cpu_t], false, arrival);
        let done_cpu = clock.slow_to_fast(done);
        assert!(
            done_cpu >= Cycle(cpu_t),
            "completion {done_cpu:?} precedes arrival {cpu_t}"
        );
    }
}

/// The workload generators drive the cache hierarchy into the regimes the
/// benchmarks represent: streaming writers produce dirty write-backs,
/// pointer chasers produce clean read misses.
#[test]
fn workloads_exercise_cache_regimes() {
    let run = |bench: Bench| {
        let mut h = MemoryHierarchy::new(HierarchyConfig::scaled(64));
        let mut gen = WorkloadGen::for_bench(bench, 1 << 16, 3);
        for _ in 0..60_000 {
            let r = gen.next_record();
            h.access(r.addr, r.is_write);
        }
        *h.stats()
    };
    let lbm = run(Bench::Lbm);
    let mcf = run(Bench::Mcf);
    assert!(
        lbm.dirty_writebacks > mcf.dirty_writebacks * 3,
        "lbm {} vs mcf {} dirty write-backs",
        lbm.dirty_writebacks,
        mcf.dirty_writebacks
    );
    assert!(
        mcf.read_misses > mcf.write_misses * 10,
        "mcf should be read-dominated ({} vs {})",
        mcf.read_misses,
        mcf.write_misses
    );
}

/// MPKI intensity ordering survives the full cache stack (Table II's
/// qualitative content).
#[test]
fn mpki_ordering_matches_table2() {
    let mpki = |bench: Bench| {
        let mut h = MemoryHierarchy::new(HierarchyConfig::scaled(64));
        let mut gen = WorkloadGen::for_bench(bench, 1 << 16, 9);
        let mut insts = 0u64;
        for _ in 0..60_000 {
            let r = gen.next_record();
            insts += r.gap as u64 + 1;
            h.access(r.addr, r.is_write);
        }
        (h.stats().misses) as f64 * 1000.0 / insts as f64
    };
    let xz = mpki(Bench::Xz);
    let gcc = mpki(Bench::Gcc);
    let xal = mpki(Bench::Xal);
    assert!(xz > 10.0 * gcc, "xz {xz:.2} vs gcc {gcc:.2}");
    assert!(xz > 10.0 * xal, "xz {xz:.2} vs xal {xal:.2}");
    assert!(gcc < 5.0, "gcc should be light ({gcc:.2})");
}
