//! Differential guard for the zero-allocation FR-FCFS scheduler.
//!
//! The DRAM scheduler was rewritten from a per-batch allocate-and-remove
//! loop into persistent per-channel scratch queues with an index-cursor
//! scan. The original naive algorithm is kept, verbatim, behind the
//! `reference-scheduler` feature, and a thread-local switch
//! ([`iroram_dram::reference::force`]) routes the public scheduling API
//! through it. These tests pin the rewrite to the reference:
//!
//! * every scheme's **full-system report** is byte-identical under either
//!   scheduler (the end-to-end contract the figures depend on), and
//! * random runs of uniform batches ([`DramSystem::schedule_lines`]: a
//!   batch's lines share one direction and one arrival, which change from
//!   batch to batch), and paths read and then written back
//!   ([`DramSystem::schedule_path`]), produce identical done times, stats,
//!   underflow counts and snapshot bytes after every batch straight at the
//!   [`DramSystem`] API (the unit-level contract, via proptest).
//!
//! Cells run with `jobs = 1`: the force switch is thread-local, so the
//! reference runs must stay on the calling thread.

use ir_oram::ALL_SCHEMES;
use iroram_dram::{reference, AddressMapping, DramConfig, DramSystem, Interleave};
use iroram_experiments::runner::{run_scheme, ExpOptions};
use iroram_sim_engine::{Cycle, SnapWriter};
use iroram_trace::Bench;
use proptest::prelude::*;

const BENCHES: [Bench; 2] = [Bench::Mcf, Bench::Gcc];

fn tiny_opts() -> ExpOptions {
    let mut o = ExpOptions::quick();
    o.mem_ops = 1_500;
    o.timed_levels = 10;
    o.jobs = 1; // the reference switch is thread-local
    o
}

#[test]
fn every_scheme_reports_identically_under_the_reference_scheduler() {
    let opts = tiny_opts();
    for scheme in ALL_SCHEMES {
        let fast = run_scheme(&opts, scheme, &BENCHES);
        reference::force(true);
        let naive = run_scheme(&opts, scheme, &BENCHES);
        reference::force(false);
        // SimReport intentionally has no PartialEq; the Debug form covers
        // every field of every nested stats struct.
        assert_eq!(
            format!("{fast:?}"),
            format!("{naive:?}"),
            "scheme {} diverged from the reference scheduler",
            scheme.name()
        );
    }
}

/// Depth 1 is the serial controller: it must report byte-identically at
/// any worker-pool size — `--jobs` is orthogonal to reported results. The
/// reference is the fully serial run (`jobs = 1`).
#[test]
fn depth_one_matches_the_serial_pipeline_twin_at_any_parallelism() {
    use ir_oram::Scheme;

    let depth_one = |jobs: usize| {
        let mut o = tiny_opts();
        o.jobs = jobs;
        o.overrides
            .push(("pipeline_depth".to_owned(), "1".to_owned()));
        o
    };
    // Rho covers the dual-tree chooser; IrOram covers DWB + the rest.
    for scheme in [Scheme::Baseline, Scheme::Rho, Scheme::IrOram] {
        let reference = format!("{:?}", run_scheme(&depth_one(1), scheme, &BENCHES));
        for jobs in [1usize, 4] {
            let got = run_scheme(&depth_one(jobs), scheme, &BENCHES);
            assert_eq!(
                format!("{got:?}"),
                reference,
                "scheme {} diverged from the serial reference at depth 1 (jobs={jobs})",
                scheme.name()
            );
        }
    }
}

/// The pipeline's reason to exist: in the service-bound regime the
/// read-phase floor, not `T`, paces the controller, so letting the floor
/// come from `depth` slots back — with the write-back batch deferred
/// behind the next read — must shorten a memory-bound (queue-saturated)
/// request stream. A serially dependent pointer-chase sees no benefit
/// (each access waits for the previous one's data), which is why this
/// measures a saturated queue rather than a blocking trace replay.
#[test]
fn depth_four_shortens_memory_bound_execution() {
    use ir_oram::{OramRequest, Scheme, SystemConfig, TimedController};
    use iroram_cache::MemoryHierarchy;
    use iroram_protocol::BlockAddr;
    use iroram_sim_engine::Cycle;

    let drain_time = |depth: u32| {
        let mut cfg = SystemConfig::scaled(Scheme::Baseline);
        cfg.oram.levels = 11;
        cfg.oram.data_blocks = 1 << 12;
        cfg.oram.zalloc = iroram_protocol::ZAllocation::uniform(11, 4);
        cfg.oram.treetop = iroram_protocol::TreeTopMode::Dedicated { levels: 4 };
        cfg.pipeline_depth = depth;
        let cfg = cfg.with_scheme(Scheme::Baseline);
        let mut ctl = TimedController::new(&cfg);
        let mut h = MemoryHierarchy::new(cfg.hierarchy);
        let mut id = 0;
        for a in (0..4096u64).step_by(7) {
            if ctl.front_try(BlockAddr(a), Cycle(0)).is_none() {
                id += 1;
                ctl.submit(OramRequest {
                    id,
                    addr: BlockAddr(a),
                    arrival: Cycle(0),
                    blocking: false,
                });
            }
        }
        ctl.drain(&mut h).expect("drain").raw()
    };

    let serial = drain_time(1);
    let pipelined = drain_time(4);
    assert!(
        pipelined < serial,
        "depth 4 must overlap accesses: {pipelined} vs serial {serial} cycles to drain"
    );
}

/// splitmix64 — expands one proptest-drawn seed into a whole batch stream
/// (the vendored proptest shim only draws scalars).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A batch from `seed`: its length, lines, direction and arrival. The
/// arrival may fall before or after the channels free up, so a batch may
/// find them busy or idle.
fn random_batch(seed: &mut u64) -> (Vec<u64>, bool, Cycle) {
    let n = splitmix(seed) % 96;
    let lines = (0..n).map(|_| splitmix(seed) % 50_000).collect();
    let is_write = splitmix(seed) & 1 == 1;
    (lines, is_write, Cycle(splitmix(seed) % 4_000))
}

fn snapshot(d: &DramSystem) -> Vec<u8> {
    let mut w = SnapWriter::new();
    d.save_state(&mut w);
    w.into_bytes()
}

/// One path's lines from `seed`: up to 160 lines in one strided run (a
/// path's buckets sit in a few rows). Alone on one channel, more than 64
/// entries queue at once.
fn path_lines(seed: &mut u64) -> Vec<u64> {
    let n = splitmix(seed) % 161;
    let base = splitmix(seed) % 50_000;
    let stride = 1 + splitmix(seed) % 8;
    (0..n).map(|i| base + i * stride).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_batches_match_the_reference_scheduler(
        cfg_pick in 0usize..12,
        window in 1usize..24,
        n_batches in 1usize..6,
        seed in any::<u64>(),
    ) {
        let channels = [1u32, 2, 4][cfg_pick % 3];
        let banks = [2u32, 8][(cfg_pick / 3) % 2];
        let interleave = [Interleave::CacheLine, Interleave::Row][cfg_pick / 6];
        let cfg = DramConfig {
            mapping: AddressMapping::new(channels, banks, 128, interleave),
            reorder_window: window,
            ..DramConfig::default()
        };
        let mut fast = DramSystem::new(cfg);
        let mut naive = DramSystem::new(cfg);
        let mut stream = seed;
        for _ in 0..n_batches {
            let (lines, is_write, at) = random_batch(&mut stream);
            let naive_done = naive.schedule_lines_reference(&lines, is_write, at);
            prop_assert_eq!(fast.schedule_lines(lines, is_write, at), naive_done);
            prop_assert_eq!(fast.stats(), naive.stats());
            prop_assert_eq!(fast.latency_underflows(), naive.latency_underflows());
            prop_assert_eq!(snapshot(&fast), snapshot(&naive));
            // A path the way the serial controller schedules it: the read
            // batch, then the write-back of the same lines once it is done.
            let lines = path_lines(&mut stream);
            let at = Cycle(splitmix(&mut stream) % 4_000);
            let read_done = naive.schedule_lines_reference(&lines, false, at);
            let write_done = naive.schedule_lines_reference(&lines, true, read_done);
            prop_assert_eq!(fast.schedule_path(lines, at), (read_done, write_done));
            prop_assert_eq!(fast.stats(), naive.stats());
            prop_assert_eq!(fast.latency_underflows(), naive.latency_underflows());
            prop_assert_eq!(snapshot(&fast), snapshot(&naive));
        }
    }
}
