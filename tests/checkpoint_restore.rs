//! Crash-consistency regressions for the checkpoint/restore subsystem.
//!
//! The contract under test: a run that snapshots every N slots produces a
//! report identical to an unsnapshotted run; a run *resumed* from any
//! mid-run snapshot finishes with that same report (every scheme, pipeline
//! depths 1 and 4, faults on and off); a controller saved mid-flight and
//! restored into a fresh twin is indistinguishable from the original from
//! then on; and a corrupted, truncated, or mismatched snapshot surfaces as
//! a typed [`SimError::Snapshot`], never a panic or silent misresume.
//!
//! The restores at many cuts are also what keeps every `save_state` /
//! `restore_state` pair complete: a field the pair leaves out keeps its
//! freshly built value in the restored twin, and some cut lands where that
//! value differs and the runs part ways.

use std::path::PathBuf;

use ir_oram::{
    CheckpointSpec, OramRequest, RunLimit, Scheme, SimError, Simulation, SystemConfig,
    TimedController, ALL_SCHEMES,
};
use iroram_cache::{HierarchyConfig, MemoryHierarchy};
use iroram_protocol::{BlockAddr, TreeTopMode, ZAllocation};
use iroram_sim_engine::{checkpoint, Cycle, SnapError, SnapReader, SnapWriter};
use iroram_trace::{Bench, WorkloadGen};
use proptest::prelude::*;

/// The tiny-but-real full-system scale the sim tests use.
fn tiny(scheme: Scheme) -> SystemConfig {
    let mut cfg = SystemConfig::scaled(scheme);
    cfg.oram.levels = 10;
    cfg.oram.data_blocks = 1 << 11;
    cfg.oram.zalloc = ZAllocation::uniform(10, 4);
    cfg.oram.treetop = TreeTopMode::Dedicated { levels: 4 };
    cfg.oram.plb_sets = 8;
    cfg.oram.plb_ways = 2;
    cfg.hierarchy = HierarchyConfig {
        l1_sets: 16,
        l1_assoc: 2,
        llc_sets: 64,
        llc_assoc: 4,
    };
    cfg.with_scheme(scheme)
}

/// A unique snapshot path under the system temp dir (no tempfile dep).
fn snap_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("iroram-ckpt-tests");
    std::fs::create_dir_all(&dir).expect("create snapshot test dir");
    dir.join(format!("{tag}-{}.snap", std::process::id()))
}

/// A run's report and audit results, as text.
fn run(cfg: &SystemConfig, bench: Bench, limit: RunLimit, spec: Option<&CheckpointSpec>) -> String {
    let gen = WorkloadGen::for_bench(bench, cfg.data_blocks(), cfg.seed);
    let (r, audit) =
        Simulation::try_run_checkpointed(cfg, gen, limit, bench.name(), spec).expect("run");
    format!("{r:?}{audit:?}")
}

/// One full equivalence cycle for `cfg` running `bench` and snapshotting
/// every `interval` slots: checkpointing must not perturb the report, and resuming from
/// each mid-run snapshot must reproduce the uninterrupted report exactly.
///
/// A run keeps only its last snapshot. That of the full run is the first
/// cut; with `step` below the run's length, more are collected by running
/// to successive multiples of `step` ops: each such run resumes from the
/// previous one's last snapshot and leaves a later one behind, which is
/// copied aside before the next.
fn assert_resume_equivalence(
    cfg: &SystemConfig,
    bench: Bench,
    interval: u64,
    step: u64,
    tag: &str,
) {
    const OPS: u64 = 1_500;
    let mut cfg = cfg.clone();
    cfg.checkpoint_interval = interval;
    let (scheme, depth) = (cfg.scheme, cfg.pipeline_depth);
    let limit = RunLimit::mem_ops(OPS);
    let straight = run(&cfg, bench, limit, None);

    let spec = CheckpointSpec {
        path: snap_path(tag),
        fingerprint: 0x1207_0000 ^ u64::from(depth) ^ interval << 8,
    };
    let _ = std::fs::remove_file(&spec.path);
    let with_ckpt = run(&cfg, bench, limit, Some(&spec));
    assert_eq!(
        with_ckpt, straight,
        "{scheme:?}/depth {depth}: snapshotting must not perturb the run"
    );
    let mut cuts = vec![std::fs::read(&spec.path).expect("a mid-run snapshot must remain")];
    let _ = std::fs::remove_file(&spec.path);
    for ops in (step..OPS).step_by(step as usize) {
        run(&cfg, bench, RunLimit::mem_ops(ops), Some(&spec));
        if let Ok(bytes) = std::fs::read(&spec.path) {
            if !cuts.contains(&bytes) {
                cuts.push(bytes);
            }
        }
    }
    let expected = (OPS / step / 2) as usize;
    assert!(
        cuts.len() > expected,
        "{scheme:?}/depth {depth}: only {} distinct cuts",
        cuts.len()
    );

    // Resume each cut with snapshotting off, so the continuation runs on
    // restored state alone.
    let mut resume_cfg = cfg.clone();
    resume_cfg.checkpoint_interval = 0;
    for bytes in &cuts {
        std::fs::write(&spec.path, bytes).expect("write snapshot");
        let header = checkpoint::read_header(&spec.path)
            .expect("snapshot header readable")
            .expect("snapshot present");
        assert!(header.slots_done > 0, "snapshot taken before any progress");
        assert_eq!(header.fingerprint, spec.fingerprint);
        let resumed = run(&resume_cfg, bench, limit, Some(&spec));
        assert_eq!(
            resumed, straight,
            "{scheme:?}/depth {depth}: run resumed at slot {} diverged from the uninterrupted one",
            header.slots_done
        );
    }
    let _ = std::fs::remove_file(&spec.path);
}

#[test]
fn resume_equals_straight_through_across_schemes_and_depths() {
    // The chooser-level state of every scheme is covered mid-flight below;
    // these runs cover what only a whole simulation holds (the core, the
    // workload generator, the caches, the IR-DWB scanner's LLC view, LLC
    // evictions into delayed remapping) under both choosers.
    for (i, (scheme, depth)) in [
        (Scheme::Baseline, 1),
        (Scheme::Rho, 4),
        (Scheme::IrDwb, 1),
        (Scheme::IrOram, 4),
        (Scheme::LlcD, 1),
        (Scheme::IrAllocStashOnLlcD, 4),
    ]
    .into_iter()
    .enumerate()
    {
        let mut cfg = tiny(scheme);
        cfg.pipeline_depth = depth;
        assert_resume_equivalence(&cfg, Bench::Mix, 32, 150, &format!("eq-{i}"));
    }
    // Faults on, audited: the trace and controller fault plans and the
    // injected-corruption ledger cross every cut. With the integrity layer
    // on, so does the checksum table, and a 1-block soft stash with a
    // 3-block hard limit keeps background eviction, storms and the
    // degraded mode's throttle busy. With it off, corrupted payloads reach
    // the audit oracle, which must remember every pre-cut read.
    for (scheme, integrity) in [(Scheme::IrAlloc, true), (Scheme::IrOram, false)] {
        let mut cfg = tiny(scheme);
        cfg.pipeline_depth = 4;
        cfg.audit = true;
        cfg.oram.integrity = integrity;
        if integrity {
            cfg.oram.stash_capacity = 1;
            cfg.stash_hard_limit = 3;
        }
        cfg.faults.dram_corruption = 0.1;
        cfg.faults.bank_stall = 0.02;
        cfg.faults.stash_storm = 0.01;
        cfg.faults.trace_mangle = 0.005;
        assert_resume_equivalence(&cfg, Bench::Mix, 32, 150, &format!("eq-faults-{integrity}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The equivalence holds at *any* checkpoint cadence, not just the one
    /// the fixed test uses: a snapshot is a consistent cut wherever it
    /// lands.
    #[test]
    fn resume_equivalence_at_any_cadence(
        interval in 1u64..24,
        scheme_idx in 0usize..3,
        depth_idx in 0usize..2,
    ) {
        let mut cfg = tiny([Scheme::Baseline, Scheme::Rho, Scheme::IrDwb][scheme_idx]);
        cfg.pipeline_depth = [1u32, 4][depth_idx];
        assert_resume_equivalence(
            &cfg,
            Bench::Gcc,
            interval,
            u64::MAX,
            &format!("prop-{scheme_idx}-{depth_idx}-{interval}"),
        );
    }
}

/// What a controller did from some cut to the end of a run.
struct Continuation {
    /// The snapshot at each later cut the run reached (a twin's: at the
    /// next one only), then the one at its end.
    snapshots: Vec<Vec<u8>>,
    /// Completions in the order they were taken.
    completions: Vec<(u64, Cycle)>,
    /// The drain cycle, or the error that ended the run.
    end: Result<Cycle, SimError>,
    /// Every statistic the controller reports, at the end.
    stats: String,
    /// The main tree's stash occupancy at each cut.
    occupancy: Vec<usize>,
}

/// When the second read of each address in [`continue_from`]'s stream
/// arrives.
#[derive(Debug, Clone, Copy)]
enum Rereads {
    /// 1000 cycles apart, like the first reads.
    Spread,
    /// All at once, right after the first reads: under delayed remapping
    /// their LLC evictions put blocks into the stash faster than
    /// background eviction takes them out.
    Burst,
}

/// Drives `c` over the cuts after `from` (all of them for `None`) and
/// then drains it, or stops at the first error. Before each cut it
/// submits the requests arriving by then — 48 requests in all, the first
/// 24 arriving 1000 cycles apart, the rest as `rereads` says, every third
/// blocking; request `i` reads `(i % 24) * 37`, and the second request
/// for an address follows its (every other time dirty) LLC eviction —
/// advances to the cut and saves a snapshot.
fn continue_from(
    c: &mut TimedController,
    hier: &mut MemoryHierarchy,
    cuts: &[u64],
    from: Option<usize>,
    rereads: Rereads,
) -> Continuation {
    let mut snapshots = Vec::new();
    let mut occupancy = Vec::new();
    // A run saves at a cut before it takes the completions there, so a
    // twin restored at that cut takes them first.
    let mut completions = c.take_completions();
    let first = from.map_or(0, |j| j + 1);
    let mut submitted_by = from.map(|j| cuts[j]);
    let mut failed = None;
    for &cut in &cuts[first..] {
        for i in 0..48u64 {
            let arrival = match rereads {
                Rereads::Spread => i * 1000,
                Rereads::Burst => i.min(24) * 1000,
            };
            if arrival <= cut && submitted_by.is_none_or(|s| arrival > s) {
                let addr = BlockAddr(i % 24 * 37);
                if i >= 24 {
                    c.on_llc_eviction(addr, i % 2 == 0, Cycle(arrival), 100 + i);
                }
                c.submit(OramRequest {
                    id: i + 1,
                    addr,
                    blocking: i % 3 == 0,
                    arrival: Cycle(arrival),
                });
            }
        }
        submitted_by = Some(cut);
        if let Err(e) = c.advance_until(Cycle(cut), hier) {
            failed = Some(e);
            break;
        }
        occupancy.push(c.protocol().stash_len());
        // A twin only needs its next snapshot; the straight run keeps
        // every one to restore from.
        if from.is_none() || snapshots.is_empty() {
            snapshots.push(save(c));
        }
        completions.extend(c.take_completions());
    }
    let end = match failed {
        Some(e) => Err(e),
        None => c.drain(hier),
    };
    completions.extend(c.take_completions());
    snapshots.push(save(c));
    let stats = format!(
        "{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}",
        c.slot_stats(),
        c.stash_pressure(),
        c.dram_stats(),
        c.protocol_stats(),
        c.protocol().plb_counters(),
        c.dwb_stats(),
        c.pipeline_stats(),
        c.audit_report(),
    );
    Continuation {
        snapshots,
        completions,
        end,
        stats,
        occupancy,
    }
}

/// A controller's snapshot bytes.
fn save(c: &TimedController) -> Vec<u8> {
    let mut w = SnapWriter::new();
    c.save_state(&mut w);
    w.into_bytes()
}

/// Runs `scheme` at pipeline `depth` (audit on) straight through the
/// request stream of [`continue_from`], snapshotting at every cycle in
/// `cuts`, and requires each cut's twin to match it (see
/// [`assert_twins_match`]).
fn assert_roundtrip_mid_flight(scheme: Scheme, depth: u32, cuts: &[u64]) {
    let mut cfg = tiny(scheme);
    cfg.pipeline_depth = depth;
    cfg.audit = true;
    let straight = run_straight(&cfg, cuts, Rereads::Spread);
    assert!(
        straight.end.is_ok(),
        "{scheme:?}/depth {depth}: the straight run failed: {:?}",
        straight.end
    );
    assert_twins_match(&cfg, cuts, Rereads::Spread, &straight, 0..cuts.len());
}

/// Runs a controller built from `cfg` straight through the request
/// stream of [`continue_from`], snapshotting at every cycle in `cuts`;
/// its audit must be clean.
fn run_straight(cfg: &SystemConfig, cuts: &[u64], rereads: Rereads) -> Continuation {
    let mut hier = MemoryHierarchy::new(cfg.hierarchy);
    let mut a = TimedController::new(cfg);
    let straight = continue_from(&mut a, &mut hier, cuts, None, rereads);
    let audit = a.audit_report().expect("audit on");
    assert!(
        audit.is_clean(),
        "{:?}/depth {}: audit violations {:?}",
        cfg.scheme,
        cfg.pipeline_depth,
        audit.samples
    );
    straight
}

/// For each cut index in `restore_at`, restores the `straight` run's
/// snapshot there into a freshly built twin, continues the twin the same
/// way, and requires it to match the straight run from there on: the
/// snapshot at the next cut and after the drain, the completions, the
/// drain cycle and every statistic. A field that
/// `save_state`/`restore_state` leave out keeps its freshly built value
/// in the twin, so the two part ways.
fn assert_twins_match(
    cfg: &SystemConfig,
    cuts: &[u64],
    rereads: Rereads,
    straight: &Continuation,
    restore_at: impl IntoIterator<Item = usize>,
) {
    for j in restore_at {
        let mut b = TimedController::new(cfg);
        let bytes = &straight.snapshots[j];
        let mut r = SnapReader::new(bytes);
        b.restore_state(&mut r).expect("restore");
        r.finish().expect("no trailing snapshot bytes");
        // The stream feeds its LLC evictions to the controller directly, so
        // the hierarchy stays as built.
        let mut hier_b = MemoryHierarchy::new(cfg.hierarchy);
        let resumed = continue_from(&mut b, &mut hier_b, cuts, Some(j), rereads);
        let at = format!(
            "{:?}/depth {}/cut {}",
            cfg.scheme, cfg.pipeline_depth, cuts[j]
        );
        let taken_before = straight
            .completions
            .len()
            .checked_sub(resumed.completions.len())
            .unwrap_or_else(|| panic!("{at}: the twin completed more requests"));
        assert_eq!(
            resumed.completions,
            straight.completions[taken_before..],
            "{at}: completion streams diverged after restore"
        );
        assert_eq!(
            resumed.end, straight.end,
            "{at}: run ends diverged after restore"
        );
        assert_eq!(
            resumed.stats, straight.stats,
            "{at}: controller statistics diverged after restore"
        );
        let (next, last) = (&resumed.snapshots[0], resumed.snapshots.last());
        assert!(
            next == &straight.snapshots[j + 1],
            "{at}: the next snapshot diverged after restore"
        );
        assert!(
            last == straight.snapshots.last(),
            "{at}: the snapshot after the drain diverged"
        );
    }
}

/// 30 cut points `spacing` cycles apart, spread over the whole run from
/// the first slots to the drain, so every kind of in-flight state is
/// crossed by some cut.
fn cuts(spacing: u64) -> Vec<u64> {
    (1..=30u64).map(|i| i * spacing).collect()
}

#[test]
fn timed_controller_roundtrips_mid_flight() {
    for scheme in ALL_SCHEMES.into_iter().filter(|&s| s != Scheme::Rho) {
        for depth in [1u32, 4] {
            assert_roundtrip_mid_flight(scheme, depth, &cuts(1_600));
        }
    }
}

/// The same mid-flight round trip through the ρ path chooser, whose
/// 1 main : 2 small slot pattern takes about twice as long to serve the
/// stream.
#[test]
fn rho_controller_roundtrips_mid_flight() {
    for depth in [1u32, 4] {
        assert_roundtrip_mid_flight(Scheme::Rho, depth, &cuts(3_300));
    }
}

/// Cuts inside the stretches a stash under pressure runs through. Under
/// IR-Stash + IR-Alloc on delayed remapping, a burst of LLC evictions
/// fills a 1-block soft stash past a 2-block hard limit, and cuts one
/// slot (200 cycles) apart put some inside each stretch: one where
/// background eviction was pending at the cut before and still is (a
/// twin that forgot it would count a fresh escalation), and one where
/// the stash sat over the hard limit at the cut before and still does at
/// the cut after (a twin that forgot its grace count would save a
/// smaller one there).
#[test]
fn stash_pressure_stretches_roundtrip_mid_flight() {
    let mut cfg = tiny(Scheme::IrAllocStashOnLlcD);
    cfg.audit = true;
    cfg.oram.stash_capacity = 1;
    cfg.stash_hard_limit = 2;
    let cuts: Vec<u64> = (1..=240).map(|i| i * 200).collect();
    let straight = run_straight(&cfg, &cuts, Rereads::Burst);
    assert!(
        straight.end.is_ok(),
        "the straight run failed: {:?}",
        straight.end
    );
    let occupancy = &straight.occupancy;
    let inside = |limit: usize| {
        (1..cuts.len() - 1)
            .find(|&j| occupancy[j - 1..=j + 1].iter().all(|&n| n > limit))
            .unwrap_or_else(|| panic!("no cut inside a stretch over {limit} blocks"))
    };
    let restore_at = [
        inside(cfg.oram.stash_capacity),
        inside(cfg.stash_hard_limit),
    ];
    assert_twins_match(&cfg, &cuts, Rereads::Burst, &straight, restore_at);
}

/// A cut inside an over-hard-limit grace stretch that runs out. A tree
/// given more blocks than its buckets hold leaves the overflow of its
/// construction in the stash, far past a 3-block hard limit, where
/// background eviction cannot drain it, and the run ends in
/// `StashOverflow` once the grace is spent. A twin restored at a cut
/// inside the stretch must end at the same slot (a twin that forgot its
/// grace count would run on).
#[test]
fn overflow_grace_roundtrips_mid_flight() {
    let mut cfg = tiny(Scheme::IrAlloc);
    cfg.audit = true;
    cfg.oram.data_blocks = 3 << 10;
    cfg.stash_hard_limit = 3;
    let cuts: Vec<u64> = (1..=30).map(|i| i * 1_000).collect();
    let straight = run_straight(&cfg, &cuts, Rereads::Spread);
    assert!(
        matches!(straight.end, Err(SimError::StashOverflow { .. })),
        "the grace must run out: {:?}",
        straight.end
    );
    // The stretch began before the cut; the run ends after the next one.
    let inside = (1..straight.occupancy.len() - 1)
        .find(|&j| straight.occupancy[j - 1] > cfg.stash_hard_limit)
        .expect("a cut inside the over-hard-limit stretch");
    assert_twins_match(&cfg, &cuts, Rereads::Spread, &straight, [inside]);
}

/// A snapshot of one path chooser never restores into the other: a ρ
/// engine state fed to a single-tree engine (and the reverse) is a typed
/// [`SnapError::Corrupt`], not a misread.
#[test]
fn snapshot_of_one_chooser_never_restores_into_the_other() {
    for (from, into) in [
        (Scheme::Rho, Scheme::Baseline),
        (Scheme::Baseline, Scheme::Rho),
    ] {
        let mut w = SnapWriter::new();
        TimedController::new(&tiny(from)).save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        match TimedController::new(&tiny(into)).restore_state(&mut r) {
            Err(SnapError::Corrupt(_)) => {}
            other => panic!("{from:?} snapshot into {into:?} must be Corrupt, got {other:?}"),
        }
    }
}

/// A restored pipeline path must lie in a tree the controller has, since
/// the deferred write-back's lines are rebuilt from its leaf: a depth-4
/// snapshot saved while a write-back is deferred is `Corrupt` once its
/// pending leaf is moved to the tree's leaf count or beyond, or onto a
/// small tree a single-tree controller lacks, and the whole snapshot is
/// `Corrupt` in a depth-1 controller, which has no pipeline to defer into.
#[test]
fn restored_pipeline_leaves_must_lie_in_their_tree() {
    let mut cfg = tiny(Scheme::Baseline);
    cfg.pipeline_depth = 4;
    let mut c = TimedController::new(&cfg);
    let mut hier = MemoryHierarchy::new(cfg.hierarchy);
    for i in 0..8u64 {
        c.submit(OramRequest {
            id: i + 1,
            addr: BlockAddr(i * 37),
            blocking: false,
            arrival: Cycle(0),
        });
    }
    c.advance_until(Cycle(2_000), &mut hier).expect("advance");
    assert!(c.deferred_write_lines() > 0, "no write-back is deferred");
    let bytes = save(&c);
    // The pipeline section ends with the pending write-back (tag 1, leaf,
    // small-tree flag, read completion) and then its four counters.
    let stats = c.pipeline_stats().expect("depth 4 has a pipeline");
    let counters: Vec<u8> = [
        stats.conflicts,
        stats.spec_hits,
        stats.spec_misses,
        stats.deferred_writes,
    ]
    .iter()
    .flat_map(|v| v.to_le_bytes())
    .collect();
    let at = bytes
        .windows(counters.len())
        .position(|w| w == counters)
        .expect("the pipeline counters are in the snapshot");
    let (leaf_at, small_at) = (at - 17, at - 9);
    assert_eq!((bytes[at - 18], bytes[small_at]), (1, 0), "pending layout");
    let leaf = u64::from_le_bytes(bytes[leaf_at..leaf_at + 8].try_into().unwrap());
    let leaves = 1u64 << (cfg.oram.levels - 1);
    assert!(leaf < leaves, "pending leaf {leaf} of {leaves}");

    let restore = |bytes: &[u8], cfg: &SystemConfig| {
        let mut r = SnapReader::new(bytes);
        TimedController::new(cfg).restore_state(&mut r)?;
        r.finish()
    };
    restore(&bytes, &cfg).expect("the saved snapshot restores");
    for bad in [leaves, u64::MAX] {
        let mut moved = bytes.clone();
        moved[leaf_at..leaf_at + 8].copy_from_slice(&bad.to_le_bytes());
        match restore(&moved, &cfg) {
            Err(SnapError::Corrupt(_)) => {}
            other => panic!("pending leaf {bad} must be Corrupt, got {other:?}"),
        }
    }
    let mut small = bytes.clone();
    small[small_at] = 1;
    match restore(&small, &cfg) {
        Err(SnapError::Corrupt(_)) => {}
        other => panic!("a small-tree write-back must be Corrupt, got {other:?}"),
    }
    let mut serial = cfg.clone();
    serial.pipeline_depth = 1;
    match restore(&bytes, &serial) {
        Err(SnapError::Corrupt(_)) => {}
        other => panic!("a deferred write-back at depth 1 must be Corrupt, got {other:?}"),
    }
}

/// Every way a snapshot can be damaged must surface as a typed
/// [`SimError::Snapshot`] from the resuming run — never a panic, never a
/// silent fresh start over bad state.
#[test]
fn damaged_snapshots_are_typed_errors() {
    let mut cfg = tiny(Scheme::Baseline);
    cfg.checkpoint_interval = 32;
    let limit = RunLimit::mem_ops(400);
    let fp = 0xC0FF_EE00u64;
    let path = snap_path("damaged");
    let try_resume = |path: &PathBuf, fp: u64| {
        let spec = CheckpointSpec {
            path: path.clone(),
            fingerprint: fp,
        };
        let gen = WorkloadGen::for_bench(Bench::Gcc, cfg.data_blocks(), cfg.seed);
        Simulation::try_run_checkpointed(&cfg, gen, limit, "gcc", Some(&spec)).map(|_| ())
    };

    // Well-framed snapshot whose payload is garbage: the restore path must
    // reject it structurally.
    checkpoint::persist(&path, fp, 7, &[0xAB; 64]).expect("persist garbage payload");
    match try_resume(&path, fp) {
        Err(SimError::Snapshot(_)) => {}
        other => panic!("garbage payload must be a typed snapshot error, got {other:?}"),
    }

    // Same file claimed by a different configuration: fingerprint mismatch.
    match try_resume(&path, fp ^ 1) {
        Err(SimError::Snapshot(SnapError::ConfigMismatch { .. })) => {}
        other => panic!("wrong fingerprint must be ConfigMismatch, got {other:?}"),
    }

    // A flipped payload byte: checksum failure.
    let mut bytes = std::fs::read(&path).expect("read frame");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write corrupted frame");
    match try_resume(&path, fp) {
        Err(SimError::Snapshot(SnapError::BadChecksum)) => {}
        other => panic!("flipped byte must be BadChecksum, got {other:?}"),
    }

    // A truncated file: torn write detected before any state is touched.
    bytes[last] ^= 0x40;
    bytes.truncate(bytes.len() - 10);
    std::fs::write(&path, &bytes).expect("write truncated frame");
    match try_resume(&path, fp) {
        Err(SimError::Snapshot(SnapError::Truncated)) => {}
        other => panic!("truncated frame must be Truncated, got {other:?}"),
    }

    // Garbage magic: a foreign file is never interpreted.
    std::fs::write(&path, b"definitely not a snapshot, sorry").expect("write foreign file");
    match try_resume(&path, fp) {
        Err(SimError::Snapshot(SnapError::BadMagic)) => {}
        other => panic!("foreign bytes must be BadMagic, got {other:?}"),
    }

    let _ = std::fs::remove_file(&path);
}
