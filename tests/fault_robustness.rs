//! Robustness regressions: fault-injection determinism, integrity
//! detection guarantees, typed-error recovery, worker-pool poison
//! tolerance, and resume-journal equivalence.
//!
//! The contract under test: a seeded fault plan produces the *same* faults
//! at any `--jobs` value; zero-rate fault configs (and the always-on
//! integrity checksums) perturb nothing; detected corruption is repaired
//! with a bounded, explicit timing penalty; and an interrupted, resumed
//! sweep reports exactly what an uninterrupted one would.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};

use ir_oram::{RunLimit, Scheme, SimError, Simulation, SystemConfig};
use iroram_cache::HierarchyConfig;
use iroram_experiments::runner::{par_map, run_cell_checked, run_matrix, ExpOptions};
use iroram_protocol::{TreeTopMode, ZAllocation};
use iroram_sim_engine::{FaultConfig, FaultPlan};
use iroram_trace::Bench;
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

fn low_faults() -> FaultConfig {
    let mut f = FaultConfig::none();
    f.dram_corruption = 0.01;
    f.bank_stall = 0.02;
    f.stash_storm = 0.005;
    f.trace_mangle = 0.005;
    f
}

#[test]
fn faulted_cells_are_identical_serial_and_parallel() {
    let cells: Vec<(Scheme, Bench)> = [Scheme::Baseline, Scheme::Rho, Scheme::IrOram]
        .iter()
        .flat_map(|&s| [Bench::Gcc, Bench::Mcf].iter().map(move |&b| (s, b)))
        .collect();
    let run = |jobs: usize| {
        par_map(jobs, cells.clone(), |(s, b)| {
            let mut cfg = tiny(s);
            cfg.faults = low_faults();
            Simulation::run_bench(&cfg, b, RunLimit::mem_ops(1_200))
        })
    };
    let serial = run(1);
    for jobs in [2, 8] {
        let par = run(jobs);
        assert_eq!(
            format!("{serial:?}"),
            format!("{par:?}"),
            "fault injection must be scheduling-independent (jobs={jobs})"
        );
    }
    // The faults actually fired, so the comparison was not vacuous.
    assert!(serial.iter().any(|r| r.faults.injected_corruptions > 0));
    assert!(serial.iter().any(|r| r.faults.bank_stalls > 0));
}

#[test]
fn zero_rate_faults_and_integrity_perturb_nothing() {
    for scheme in [Scheme::Baseline, Scheme::Rho, Scheme::IrOram] {
        // Default config: fault machinery compiled in, rates all zero,
        // integrity checksums maintained.
        let on = tiny(scheme);
        let mut off = tiny(scheme);
        off.oram.integrity = false;
        let r_on = Simulation::run_bench(&on, Bench::Gcc, RunLimit::mem_ops(1_500));
        let r_off = Simulation::run_bench(&off, Bench::Gcc, RunLimit::mem_ops(1_500));
        assert_eq!(
            format!("{r_on:?}"),
            format!("{r_off:?}"),
            "{scheme:?}: integrity checksums must not change any reported number"
        );
        assert_eq!(r_on.faults, ir_oram::FaultStats::default(), "{scheme:?}");
    }
}

#[test]
fn undetected_corruption_is_counted_when_integrity_is_off() {
    let mut cfg = tiny(Scheme::Baseline);
    cfg.faults.dram_corruption = 0.05;
    cfg.oram.integrity = false;
    let r = Simulation::run_bench(&cfg, Bench::Mcf, RunLimit::mem_ops(3_000));
    assert!(r.faults.injected_corruptions > 0, "faults must fire");
    assert_eq!(
        r.faults.detected, 0,
        "nothing can be detected without checksums"
    );
    assert!(
        r.faults.undetected > 0,
        "consumed corruption must be visible in the ledger"
    );

    // Same corruption stream with integrity on: all consumed corruption is
    // caught, repaired, and charged a penalty.
    let mut guarded = tiny(Scheme::Baseline);
    guarded.faults.dram_corruption = 0.05;
    let g = Simulation::run_bench(&guarded, Bench::Mcf, RunLimit::mem_ops(3_000));
    assert_eq!(g.faults.undetected, 0);
    assert!(g.faults.detected > 0);
    assert_eq!(g.faults.recovered, g.faults.detected);
    assert!(g.faults.refetch_penalty_cycles > 0);
}

#[test]
fn tight_hard_limit_degrades_gracefully_without_faults() {
    // A 1-block hard limit no longer kills the run outright: over the
    // degradation watermark new-work admission throttles so background
    // eviction can drain, and the bounded overflow grace absorbs short
    // excursions past the limit. The run completes, and the degradation is
    // visible (and deterministic) in the report.
    let mut cfg = tiny(Scheme::Baseline);
    cfg.stash_hard_limit = 1;
    let r = Simulation::try_run_bench(&cfg, Bench::Mcf, RunLimit::mem_ops(3_000))
        .expect("graceful degradation must absorb a tight hard limit");
    assert!(r.stash.degraded_slots > 0, "degraded slots must be counted");
    assert!(
        r.stash.throttled_admissions > 0,
        "the admission throttle must have deferred work"
    );
    let r2 = Simulation::try_run_bench(&cfg, Bench::Mcf, RunLimit::mem_ops(3_000)).unwrap();
    assert_eq!(
        format!("{r:?}"),
        format!("{r2:?}"),
        "degradation must be deterministic"
    );

    // An untightened run never crosses the watermark: degradation is
    // report-invisible on clean configurations.
    let clean = Simulation::try_run_bench(
        &tiny(Scheme::Baseline),
        Bench::Mcf,
        RunLimit::mem_ops(3_000),
    )
    .unwrap();
    assert_eq!(clean.stash.degraded_slots, 0);
    assert_eq!(clean.stash.throttled_admissions, 0);
}

/// A scale where background eviction is the *only* stash drain: Z=2
/// buckets (the classic unstable Path ORAM regime), a 4-block soft stash,
/// timing protection off (no dummy-path write-backs), and a hard limit
/// just above the soft capacity. Healthy runs drain via background
/// eviction; a storm that suppresses it pins the stash over the limit.
fn pinned_stash(scheme: Scheme) -> SystemConfig {
    let mut cfg = tiny(scheme);
    cfg.oram.data_blocks = 1 << 10;
    cfg.oram.zalloc = ZAllocation::uniform(10, 2);
    cfg.oram.stash_capacity = 4;
    cfg.stash_hard_limit = 6;
    cfg.timing_protection = false;
    cfg
}

#[test]
fn stash_hard_limit_is_a_typed_transient_error_with_bounded_retry() {
    // A permanent fault storm suppresses background eviction, so the
    // degradation path cannot drain the stash: once it sits over the hard
    // limit past the grace window, the typed transient error fires.
    let mut cfg = pinned_stash(Scheme::Baseline);
    cfg.faults.stash_storm = 1.0;
    cfg.faults.storm_slots = 5_000;
    let err = Simulation::try_run_bench(&cfg, Bench::Mcf, RunLimit::mem_ops(3_000))
        .expect_err("a storm-pinned stash must overflow past the grace window");
    assert!(
        matches!(err, SimError::StashOverflow { hard_limit: 6, .. }),
        "wrong error: {err}"
    );
    assert!(err.is_transient());

    // The error is storm-caused, not a property of the tight config: the
    // same scale without the storm completes (degraded but alive).
    let calm = Simulation::try_run_bench(
        &pinned_stash(Scheme::Baseline),
        Bench::Mcf,
        RunLimit::mem_ops(3_000),
    )
    .expect("without the storm, background eviction keeps the stash bounded");
    assert!(calm.stash.degraded_slots > 0);

    // With faults active the bounded retry runs fresh fault streams before
    // giving up; a rate-1.0 storm dooms every attempt.
    let e = run_cell_checked(&cfg, Bench::Mcf, RunLimit::mem_ops(3_000)).unwrap_err();
    assert!(e.transient);
    assert_eq!(
        e.attempts,
        iroram_experiments::MAX_CELL_RETRIES + 1,
        "retries must be bounded: {e}"
    );
}

#[test]
fn par_map_survives_a_panicking_closure_at_every_worker_count() {
    for jobs in [1usize, 2, 8] {
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(jobs, (0..16u64).collect::<Vec<_>>(), |x| {
                if x == 3 {
                    panic!("injected cell panic");
                }
                completed.fetch_add(1, Ordering::SeqCst);
                x * 2
            })
        }));
        assert!(result.is_err(), "the panic must propagate (jobs={jobs})");
        if jobs > 1 {
            // Poison-tolerant locks: the other workers finish the batch
            // before the panic is re-raised.
            assert_eq!(
                completed.load(Ordering::SeqCst),
                15,
                "surviving workers must drain the batch (jobs={jobs})"
            );
        }
    }
}

#[test]
fn resumed_sweep_equals_uninterrupted_sweep() {
    let dir = std::env::temp_dir().join(format!("iroram-resume-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    std::fs::remove_file(&path).ok();
    std::env::set_var("IRORAM_RESUME_PATH", &path);

    let mut opts = ExpOptions::quick();
    opts.mem_ops = 1_000;
    opts.timed_levels = 10;
    opts.jobs = 1;
    let schemes = [Scheme::Baseline, Scheme::IrOram];
    let benches = [Bench::Gcc, Bench::Mcf, Bench::Lbm];

    // The reference: no journal involved.
    let uninterrupted = run_matrix(&opts, &schemes, &benches);

    // A journaled run that "dies" after three cells: simulate the kill by
    // truncating the journal to its first three lines.
    let mut jopts = opts;
    jopts.resume = true;
    let full = run_matrix(&jopts, &schemes, &benches);
    assert_eq!(format!("{uninterrupted:?}"), format!("{full:?}"));
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 6, "every cell journaled once");
    let partial: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
    std::fs::write(&path, partial).unwrap();

    // The resumed run answers three cells from the journal, simulates the
    // other three, and must be byte-identical to the uninterrupted sweep.
    let resumed = run_matrix(&jopts, &schemes, &benches);
    assert_eq!(
        format!("{uninterrupted:?}"),
        format!("{resumed:?}"),
        "resume must reproduce the uninterrupted results exactly"
    );
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 6, "only the missing cells re-ran");

    std::env::remove_var("IRORAM_RESUME_PATH");
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two plans built from the same config and base seed emit the same
    /// decision sequence; a different attempt number emits a fresh one.
    #[test]
    fn fault_plan_decisions_are_seed_deterministic(
        seed in any::<u64>(),
        base in any::<u64>(),
        corruption_ppm in 0u64..200_000,
        stall_ppm in 0u64..200_000,
        storm_ppm in 0u64..100_000,
        mangle_ppm in 0u64..200_000,
    ) {
        let mut cfg = FaultConfig::none();
        cfg.seed = seed;
        cfg.dram_corruption = corruption_ppm as f64 / 1e6;
        cfg.bank_stall = stall_ppm as f64 / 1e6;
        cfg.stash_storm = storm_ppm as f64 / 1e6;
        cfg.trace_mangle = mangle_ppm as f64 / 1e6;
        type Decision = (Option<(u64, u64)>, u64, bool, Option<u64>);
        let drive = |cfg: &FaultConfig| -> Vec<Decision> {
            match FaultPlan::new(cfg, base) {
                None => Vec::new(),
                Some(mut p) => (0..200)
                    .map(|_| (p.corrupt_line(), p.bank_stall(), p.storm_active(), p.mangle_record()))
                    .collect(),
            }
        };
        let a = drive(&cfg);
        let b = drive(&cfg);
        prop_assert_eq!(&a, &b, "same config must replay the same faults");
        if cfg.is_active() {
            prop_assert!(!a.is_empty());
            let mut retry = cfg.clone();
            retry.attempt = 1;
            let c = drive(&retry);
            prop_assert_ne!(&a, &c, "a retry must see a fresh fault stream");
        } else {
            prop_assert!(a.is_empty(), "zero rates must build no plan");
        }
    }

    /// Zero-rate configs never perturb a full-system run, whatever the seed.
    #[test]
    fn zero_rate_plan_is_always_inert(seed in any::<u64>(), base in any::<u64>()) {
        let mut cfg = FaultConfig::none();
        cfg.seed = seed;
        prop_assert!(FaultPlan::new(&cfg, base).is_none());
    }
}

/// Fault handling composed with the k-deep access pipeline and mid-run
/// checkpointing: a faulted depth-4 cell is deterministic, detects every
/// injected corruption, and a run resumed from its last mid-run snapshot
/// reports identically to the uninterrupted one.
#[test]
fn faulted_depth4_cells_are_deterministic_and_resume_equivalent() {
    use ir_oram::CheckpointSpec;
    use iroram_experiments::journal::fingerprint;
    use iroram_trace::WorkloadGen;

    for (i, scheme) in [Scheme::Baseline, Scheme::Rho].into_iter().enumerate() {
        let mut cfg = tiny(scheme);
        cfg.pipeline_depth = 4;
        cfg.checkpoint_interval = 8;
        cfg.faults = low_faults();
        let limit = RunLimit::mem_ops(1_500);
        let run = |spec: Option<&CheckpointSpec>| {
            let gen = WorkloadGen::for_bench(Bench::Gcc, cfg.data_blocks(), cfg.seed);
            let (r, _) = Simulation::try_run_checkpointed(&cfg, gen, limit, "gcc", spec)
                .expect("faulted depth-4 run");
            r
        };
        let a = run(None);
        let b = run(None);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "faulted depth-4 run must be deterministic"
        );
        assert_eq!(a.faults.undetected, 0, "undetected corruption at depth 4");

        let path = std::env::temp_dir().join(format!(
            "iroram-fault-depth4-{i}-{}.snap",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let spec = CheckpointSpec {
            path: path.clone(),
            fingerprint: fingerprint(&cfg, Bench::Gcc, limit),
        };
        let ck = run(Some(&spec));
        assert_eq!(format!("{ck:?}"), format!("{a:?}"));
        assert!(path.exists(), "a mid-run snapshot must remain");
        let resumed = run(Some(&spec));
        assert_eq!(
            format!("{resumed:?}"),
            format!("{a:?}"),
            "resumed faulted depth-4 run diverged"
        );
        let _ = std::fs::remove_file(&path);
    }
}
