//! Security-property tests: the externally visible memory trace must not
//! depend on what the ORAM controller is doing internally.
//!
//! Section IV-E's two uniformity arguments, checked mechanically:
//!
//! 1. **Path accesses are indistinguishable** — every path access of a
//!    given configuration touches exactly the same number of blocks at each
//!    tree level, whatever its internal type (data / PosMap / dummy /
//!    converted), and leaf choices are uniform.
//! 2. **Access intensity is workload-independent** — with timing protection
//!    on, the slot *count per unit time* is a function of the configuration
//!    alone, not of the request stream.
//!
//! Under both sits Path ORAM's security definition (Stefanov et al.): the
//! trace is a function of the address stream alone, so one address stream
//! run with two value streams must take the same paths to the same leaves.

use ir_oram::{RunLimit, Scheme, Simulation, SystemConfig, ALL_SCHEMES};
use iroram_dram::SubtreeLayout;
use iroram_hash::mix64;
use iroram_protocol::{
    BlockAddr, OramConfig, PathOram, PathRecord, PathType, ProtocolStats, RemapPolicy, TreeTopMode,
};
use iroram_sim_engine::SimRng;
use iroram_trace::Bench;

fn tiny(scheme: Scheme) -> SystemConfig {
    let mut cfg = SystemConfig::scaled(scheme);
    cfg.oram.levels = 11;
    cfg.oram.data_blocks = 1 << 12;
    cfg.oram.zalloc = iroram_protocol::ZAllocation::uniform(11, 4);
    cfg.oram.treetop = iroram_protocol::TreeTopMode::Dedicated { levels: 4 };
    cfg.with_scheme(scheme)
}

/// Every path, whatever the leaf, reads the same number of memory blocks —
/// including under IR-Alloc's non-uniform (but public) bucket sizes.
#[test]
fn path_footprint_is_leaf_independent() {
    for scheme in [Scheme::Baseline, Scheme::IrAlloc, Scheme::IrOram] {
        let cfg = tiny(scheme);
        let cached = cfg.oram.treetop.cached_levels();
        let z = iroram_protocol::TreeLayout::new(cfg.oram.zalloc.clone());
        let layout = SubtreeLayout::new(&z.memory_z(cached), cfg.subtree_group);
        let expect = layout.path_slots(0, 0).len();
        let mut rng = SimRng::seed_from(3);
        for _ in 0..200 {
            let leaf = rng.next_below(1 << 10);
            assert_eq!(
                layout.path_slots(leaf, 0).len(),
                expect,
                "{scheme:?}: leaf {leaf} has a different footprint"
            );
        }
    }
}

/// Internal path types produce identical external shapes: same leaf-space,
/// same per-path block count. We drive the protocol and check that dummy
/// and real paths are drawn from statistically indistinguishable leaf
/// distributions (coarse chi-square on leaf high bits).
#[test]
fn dummy_and_real_leaves_are_equally_distributed() {
    let mut oram = PathOram::new(OramConfig::tiny());
    let n_leaves = oram.layout().num_leaves();
    let mut rng = SimRng::seed_from(17);
    const BUCKETS: usize = 8;
    let mut real = [0f64; BUCKETS];
    let mut dummy = [0f64; BUCKETS];
    for i in 0..4_000u64 {
        let bucket = |leaf: u64| (leaf * BUCKETS as u64 / n_leaves) as usize;
        if i % 2 == 0 {
            let rec = oram.run_access(
                iroram_protocol::BlockAddr(rng.next_below(oram.config().data_blocks)),
                None,
            );
            for p in rec.paths {
                real[bucket(p.leaf.0)] += 1.0;
            }
        } else {
            let p = oram.dummy_path();
            dummy[bucket(p.leaf.0)] += 1.0;
        }
    }
    let total_real: f64 = real.iter().sum();
    let total_dummy: f64 = dummy.iter().sum();
    assert!(total_real > 100.0 && total_dummy > 100.0, "need samples");
    // Two-sample chi-square over the 8 buckets.
    let mut chi2 = 0.0;
    for b in 0..BUCKETS {
        let expect_real = total_real / BUCKETS as f64;
        let expect_dummy = total_dummy / BUCKETS as f64;
        chi2 += (real[b] - expect_real).powi(2) / expect_real;
        chi2 += (dummy[b] - expect_dummy).powi(2) / expect_dummy;
    }
    // 14 degrees of freedom, p=0.001 critical value ≈ 36.1.
    assert!(
        chi2 < 36.1,
        "leaf distributions distinguishable: chi2 {chi2}"
    );
}

/// Every scheme's controllers keep both uniformity arguments at every
/// pipeline depth: over a fixed horizon, an idle (all-dummy) and a
/// saturated (all-real) controller issue the same number of slots, and
/// every slot carries exactly the same DRAM request count (for ρ, the same
/// count per slot of each tree) — so the externally visible address
/// *volume and rate* are request-content-independent at depths 1, 2 and
/// 4. Runs are audited, so the depth-k exact-schedule, conservation and
/// oracle checks all gate the overlapped schedules too.
#[test]
fn dram_traffic_is_workload_independent_at_every_pipeline_depth() {
    use ir_oram::TimedController;
    use iroram_cache::MemoryHierarchy;
    use iroram_sim_engine::Cycle;

    let horizon = Cycle(300_000);
    // ρ's (main slots, small slots, DRAM requests) per run.
    let mut rho_runs = Vec::new();
    for scheme in ALL_SCHEMES {
        for depth in [1u32, 2, 4] {
            let mut cfg = tiny(scheme);
            cfg.pipeline_depth = depth;
            cfg.audit = true;

            let mut idle = TimedController::new(&cfg);
            let mut h1 = MemoryHierarchy::new(cfg.hierarchy);
            idle.advance_until(horizon, &mut h1).unwrap();

            let mut busy = TimedController::new(&cfg);
            let mut h2 = MemoryHierarchy::new(cfg.hierarchy);
            let mut id = 0;
            // Each address twice: the repeat finds its block on-chip at
            // its data phase, so the front-hit arm is exercised too.
            for a in (0..4096u64).step_by(3).flat_map(|a| [a, a]) {
                if busy.front_try(BlockAddr(a), Cycle(0)).is_none() {
                    id += 1;
                    busy.submit(ir_oram::OramRequest {
                        id,
                        addr: BlockAddr(a),
                        arrival: Cycle(0),
                        blocking: false,
                    });
                }
            }
            busy.advance_until(horizon, &mut h2).unwrap();

            let at = format!("{scheme:?}/depth {depth}");
            // The pipelined controller legitimately holds one write batch
            // in its deferred buffer mid-run; count it so the per-slot
            // identities below stay exact.
            let [(idle_slots, idle_reqs), (busy_slots, busy_reqs)] = [&idle, &busy].map(|c| {
                (
                    c.slot_stats().total_slots,
                    c.dram_stats().requests + c.deferred_write_lines(),
                )
            });
            let lo = idle_slots.min(busy_slots) as f64;
            let hi = idle_slots.max(busy_slots) as f64;
            assert!(
                hi / lo < 1.05,
                "{at}: slot rate leaks load: idle {idle_slots} vs busy {busy_slots}"
            );
            if scheme == Scheme::Rho {
                for c in [&idle, &busy] {
                    let (main, small) = c.protocol_stats();
                    let small = small.expect("ρ has a small tree");
                    let (m, s) = (main.total_paths(), small.total_paths());
                    rho_runs.push((m, s, c.dram_stats().requests + c.deferred_write_lines()));
                }
            } else {
                // Every slot moves an identical number of DRAM lines
                // whatever it carries: requests-per-slot must match
                // exactly across workloads.
                assert_eq!(
                    idle_reqs * busy_slots,
                    busy_reqs * idle_slots,
                    "{at}: per-slot DRAM request count depends on the workload \
                     (idle {idle_reqs}/{idle_slots}, busy {busy_reqs}/{busy_slots})"
                );
            }
            for (name, ctl) in [("idle", &idle), ("busy", &busy)] {
                let report = ctl.audit_report().expect("audit enabled");
                assert!(
                    report.is_clean(),
                    "{at}: {name} audit violations: {:?}",
                    report.samples
                );
                assert!(report.checks > 0, "audit must actually run");
                // Every slot carries exactly one path that the protocol
                // performed (IR-DWB's converted paths are the controller's
                // own), and no path runs outside a slot.
                let slots = ctl.slot_stats();
                let (main, small) = ctl.protocol_stats();
                let paths = main.total_paths() + small.map_or(0, |s| s.total_paths());
                assert_eq!(
                    paths + slots.converted_slots,
                    slots.total_slots,
                    "{at}: {name} protocol paths and slots disagree"
                );
                // The stash-pressure throttle is the one place occupancy
                // reaches the schedule; a clean run never engages it.
                let pressure = ctl.stash_pressure();
                assert_eq!(
                    (pressure.degraded_slots, pressure.throttled_admissions),
                    (0, 0),
                    "{at}: {name} run crossed the stash watermark"
                );
            }
            assert_eq!(
                idle.pipeline_stats().is_some(),
                depth > 1,
                "{at}: only depth 1 runs the serial code path"
            );
            // A single-tree controller speculates on its queue front, which
            // is always the request it pops next, so every speculation is
            // consumed: the mismatch fallback stays as a guard only.
            if let (Some(pipe), false) = (busy.pipeline_stats(), scheme == Scheme::Rho) {
                assert_eq!(pipe.spec_misses, 0, "{at}: a speculation missed");
                assert!(pipe.spec_hits > 0, "{at}: nothing was speculated");
            }
        }
    }
    // ρ's 1 main : 2 small pattern splits an uneven slot count unevenly,
    // so its aggregate requests per slot differ between runs. Per tree
    // they must not: one (main, small) pair of per-slot request counts,
    // solved from the first two runs, must account for every run exactly.
    let (a1, b1, r1) = rho_runs[0];
    let (a2, b2, r2) = rho_runs[1];
    let det = a1 as i128 * b2 as i128 - a2 as i128 * b1 as i128;
    assert_ne!(det, 0, "ρ: the first two runs split their slots alike");
    let m = (r1 as i128 * b2 as i128 - r2 as i128 * b1 as i128) / det;
    let s = (a1 as i128 * r2 as i128 - a2 as i128 * r1 as i128) / det;
    assert!(m > 0 && s > 0, "ρ: per-slot request counts {m}, {s}");
    for &(a, b, r) in &rho_runs {
        assert_eq!(
            a as i128 * m + b as i128 * s,
            r as i128,
            "ρ: a run's DRAM requests depend on the workload \
             ({a} main slots x {m} + {b} small slots x {s} != {r})"
        );
    }
}

/// IR-DWB conversions must not change the external slot rate either.
#[test]
fn dwb_keeps_slot_rate() {
    use iroram_cache::MemoryHierarchy;
    use iroram_sim_engine::Cycle;

    let base_cfg = tiny(Scheme::Baseline);
    let dwb_cfg = tiny(Scheme::IrDwb);
    let horizon = Cycle(300_000);

    let mut base = ir_oram::TimedController::new(&base_cfg);
    let mut h1 = MemoryHierarchy::new(base_cfg.hierarchy);
    base.advance_until(horizon, &mut h1).unwrap();

    let mut dwb = ir_oram::TimedController::new(&dwb_cfg);
    let mut h2 = MemoryHierarchy::new(dwb_cfg.hierarchy);
    // Dirty some LLC lines so conversions actually happen.
    for a in 0..32u64 {
        h2.access(a, true);
    }
    dwb.advance_until(horizon, &mut h2).unwrap();

    let b = base.slot_stats().total_slots as f64;
    let d = dwb.slot_stats().total_slots as f64;
    assert!(
        (b - d).abs() / b < 0.05,
        "IR-DWB changed the external rate: {b} vs {d}"
    );
    assert!(
        dwb.slot_stats().converted_slots > 0,
        "conversions should have occurred"
    );
}

/// End-to-end: per-benchmark external path counts depend only on the time
/// horizon, not on which benchmark runs (fixed-rate discipline).
#[test]
fn paths_per_cycle_stable_across_benchmarks() {
    let cfg = tiny(Scheme::Baseline);
    let mut rates = Vec::new();
    for bench in [Bench::Xal, Bench::Lbm] {
        let r = Simulation::run_bench(&cfg, bench, RunLimit::mem_ops(2_000));
        rates.push(r.slots.total_slots as f64 / r.cycles as f64);
    }
    let (a, b) = (rates[0], rates[1]);
    assert!(
        (a - b).abs() / a.max(b) < 0.1,
        "slots per cycle differ: {a:.6} vs {b:.6}"
    );
}

/// Dummy paths are indistinguishable in *effect* too: they read and rewrite
/// a full path, so their DRAM footprint equals a real path's, both ways.
#[test]
fn dummy_dram_footprint_equals_real() {
    let mut oram = PathOram::new(OramConfig::tiny());
    let moved = |o: &PathOram| (o.stats().blocks_from_memory, o.stats().blocks_to_memory);
    let before = moved(&oram);
    oram.dummy_path();
    let after = moved(&oram);
    let dummy = (after.0 - before.0, after.1 - before.1);

    let before = moved(&oram);
    let rec = oram.run_access(BlockAddr(5), None);
    assert!(
        rec.paths
            .iter()
            .all(|p| !matches!(p.ptype, PathType::Dummy)),
        "a demand access issues no dummies"
    );
    let n = rec.paths.len() as u64;
    assert!(n > 0, "the cold access must take a path");
    let after = moved(&oram);
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (n * dummy.0, n * dummy.1),
        "dummy and real paths must move the same number of blocks each way"
    );
}

/// What the memory sees of one protocol op: the leaf of every path it
/// took, in order, and the protocol counters after it.
type OpView = (Vec<u64>, ProtocolStats);

/// Runs a fixed stream of reads, writes, read-modify-writes, delayed
/// write-backs and dummy paths, drawing every written value from `value`,
/// and returns each op's [`OpView`]. Along the way it checks the rules
/// every op keeps whatever the values: each path reads and writes one
/// path's worth of memory blocks, no path runs without a cause, and a
/// block already on-chip is served on-chip.
fn protocol_server_view(cfg: &OramConfig, value: impl Fn(u64) -> u64) -> Vec<OpView> {
    let mut oram = PathOram::new(cfg.clone());
    let per_path = oram.layout().path_len_memory(cfg.treetop.cached_levels());
    let mut rng = SimRng::seed_from(29);
    let mut view = Vec::new();
    for i in 0..1_500u64 {
        let before = oram.stats().clone();
        let addr = BlockAddr(rng.next_below(cfg.data_blocks));
        let kind = rng.next_below(5);
        // Where the block sits on-chip, before the op (for the rule below).
        let in_front = oram.stash().iter().any(|b| b.addr == addr) || oram.is_escrowed(addr);
        let in_top = oram.treetop_store().is_some_and(|t| {
            (0..t.cached_levels())
                .any(|l| (0..1u64 << l).any(|b| t.peek_bucket(l, b).iter().any(|x| x.addr == addr)))
        });
        let paths: Vec<PathRecord> = match kind {
            0 => oram.run_access(addr, None).paths.to_vec(),
            1 => oram.run_access(addr, Some(value(i))).paths.to_vec(),
            2 => oram.run_access_with(addr, |v| v ^ value(i)).paths.to_vec(),
            3 => {
                let held = oram.escrowed().next();
                match held {
                    Some(held) => oram.delayed_writeback(held).unwrap().paths.to_vec(),
                    None => oram.run_access(addr, None).paths.to_vec(),
                }
            }
            _ => vec![oram.dummy_path()],
        };
        let after = oram.stats();
        let n = paths.len() as u64;
        assert_eq!(
            (
                after.blocks_from_memory - before.blocks_from_memory,
                after.blocks_to_memory - before.blocks_to_memory
            ),
            (n * per_path, n * per_path),
            "op {i}: {n} path(s) must each move {per_path} blocks each way"
        );
        // No path without a cause: a dummy only when one is asked for, and
        // background eviction only once the stash can have overflowed.
        let of = |t: PathType| paths.iter().filter(|p| p.ptype == t).count();
        assert_eq!(of(PathType::Dummy), usize::from(kind == 4), "op {i}");
        if oram.stash_peak() <= cfg.stash_capacity {
            assert_eq!(of(PathType::BgEvict), 0, "op {i}: eviction with room");
        }
        // An on-chip block is served on-chip: one in the stash or escrow
        // before PosMap resolution, one in the tree top without a data path.
        if kind < 3 {
            let lookups = of(PathType::Pos1) + of(PathType::Pos2);
            let data = of(PathType::Data);
            assert!(
                !in_front || lookups + data == 0,
                "op {i}: front hit took a path"
            );
            assert!(
                !in_top || data == 0,
                "op {i}: tree-top hit took a data path"
            );
        }
        view.push((paths.iter().map(|p| p.leaf.0).collect(), after.clone()));
    }
    view
}

/// Path ORAM's security argument in its strongest form: the memory sees
/// a function of the address stream alone. One address stream, run once
/// writing only zeros and once writing odd pseudo-random values, must take
/// the same paths to the same leaves and leave the same counters after
/// every op — across tree-top modes, both remap policies, with and without
/// payload encryption. A branch on a block's contents anywhere on the
/// access path changes a path count, a leaf or a counter here. One more
/// mode has a stash too roomy to overflow, so every background eviction
/// there would be a stray path.
#[test]
fn protocol_server_view_is_payload_independent() {
    let ir_stash = TreeTopMode::IrStash {
        levels: 3,
        sets: 8,
        ways: 4,
    };
    let tiny = OramConfig::tiny();
    for cfg in [
        tiny.clone(),
        OramConfig {
            treetop: TreeTopMode::None,
            encrypt_payloads: false,
            ..tiny.clone()
        },
        OramConfig {
            treetop: ir_stash,
            remap: RemapPolicy::Delayed,
            ..tiny.clone()
        },
        OramConfig {
            treetop: ir_stash,
            encrypt_payloads: false,
            ..tiny.clone()
        },
        // Too roomy ever to overflow: no background eviction may run.
        OramConfig {
            stash_capacity: 1 << 12,
            ..tiny.clone()
        },
    ] {
        let zeros = protocol_server_view(&cfg, |_| 0);
        let odd = protocol_server_view(&cfg, |i| mix64(i) | 1);
        for (i, (z, o)) in zeros.iter().zip(&odd).enumerate() {
            assert_eq!(
                z, o,
                "{:?}/{:?}: op {i}'s server view depends on the values written",
                cfg.treetop, cfg.remap
            );
        }
    }
}
