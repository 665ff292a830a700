//! Chaos harness for the checkpoint/restore subsystem: repeatedly
//! SIGKILLs a child simulation at seeded-random progress offsets and
//! asserts that the eventually-completed (killed, restored, resumed —
//! possibly several times) run reports **byte-identically** to an
//! uninterrupted run of the same cell.
//!
//! Each trial:
//! 1. spawns this binary in `--child` mode, which runs one cell with
//!    `checkpoint_interval` set and writes its final report to a file;
//! 2. polls the snapshot header ([`checkpoint::read_header`]) until the
//!    child's progress crosses a seeded-random slot target, then SIGKILLs
//!    it mid-cell;
//! 3. respawns until a child finally runs to completion (resuming from
//!    whatever snapshot the previous victim left behind);
//! 4. compares the survivor's report bytes against the reference.
//!
//! Exits nonzero on any divergence, on a child that fails for a reason
//! other than the kill, or if fewer kills landed than trials (a kill that
//! misses the run window proves nothing).
//!
//! Usage: `cargo run --release -p iroram-bench --bin chaos --
//! [--trials N] [--seed S]`

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use ir_oram::{CheckpointSpec, RunLimit, Scheme, Simulation, SystemConfig};
use iroram_experiments::journal::fingerprint;
use iroram_protocol::{TreeTopMode, ZAllocation};
use iroram_sim_engine::{checkpoint, SimRng};
use iroram_trace::{Bench, WorkloadGen};

/// Schemes the kills rotate over (one-tree, two-tree, full IR stack).
const SCHEMES: [Scheme; 3] = [Scheme::Baseline, Scheme::Rho, Scheme::IrOram];

/// Memory operations per cell: long enough that every trial has a wide
/// mid-run kill window at release-build speed.
const CELL_OPS: u64 = 120_000;

/// Checkpoint cadence in path slots (a cell runs ~1000 slots).
const CKPT_EVERY: u64 = 16;

/// A child that dies this many times without finishing fails the trial —
/// the harness kills each child once, so two spares is already generous.
const MAX_RESPAWNS: u32 = 30;

/// The cell a trial index runs (scheme rotates, bench fixed for byte
/// comparability across trials of the same scheme).
fn cell_config(trial: usize) -> (SystemConfig, Bench) {
    let scheme = SCHEMES[trial % SCHEMES.len()];
    let mut cfg = SystemConfig::scaled(scheme);
    cfg.oram.levels = 10;
    cfg.oram.data_blocks = 1 << 11;
    cfg.oram.zalloc = ZAllocation::uniform(10, 4);
    cfg.oram.treetop = TreeTopMode::Dedicated { levels: 4 };
    cfg.oram.plb_sets = 8;
    cfg.oram.plb_ways = 2;
    cfg.hierarchy = iroram_cache::HierarchyConfig {
        l1_sets: 16,
        l1_assoc: 2,
        llc_sets: 64,
        llc_assoc: 4,
    };
    let mut cfg = cfg.with_scheme(scheme);
    cfg.checkpoint_interval = CKPT_EVERY;
    (cfg, Bench::Gcc)
}

/// Child mode: run one cell with checkpointing, write the report's bytes.
fn run_child(trial: usize, snap: &str, out: &str) -> ! {
    let (cfg, bench) = cell_config(trial);
    let limit = RunLimit::mem_ops(CELL_OPS);
    let spec = CheckpointSpec {
        path: PathBuf::from(snap),
        fingerprint: fingerprint(&cfg, bench, limit),
    };
    let gen = WorkloadGen::for_bench(bench, cfg.data_blocks(), cfg.seed);
    match Simulation::try_run_checkpointed(&cfg, gen, limit, bench.name(), Some(&spec)) {
        Ok((report, _)) => {
            std::fs::write(out, format!("{report:?}")).expect("write report");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("child: {e}");
            std::process::exit(1);
        }
    }
}

/// The uninterrupted reference: same cell, same code path, no kills.
fn reference_report(trial: usize) -> String {
    let (cfg, bench) = cell_config(trial);
    let gen = WorkloadGen::for_bench(bench, cfg.data_blocks(), cfg.seed);
    let (report, _) = Simulation::try_run_checkpointed(
        &cfg,
        gen,
        RunLimit::mem_ops(CELL_OPS),
        bench.name(),
        None,
    )
    .expect("reference run");
    format!("{report:?}")
}

struct TrialResult {
    kills: u32,
    respawns: u32,
}

/// One kill-until-it-finishes trial. Panics on report divergence.
fn run_trial(trial: usize, rng: &mut SimRng, dir: &std::path::Path, expected: &str) -> TrialResult {
    let snap = dir.join(format!("trial-{trial}.snap"));
    let out = dir.join(format!("trial-{trial}.report"));
    let _ = std::fs::remove_file(&snap);
    let _ = std::fs::remove_file(&out);
    let exe = std::env::current_exe().expect("own path");
    let mut kills = 0u32;
    let mut respawns = 0u32;
    loop {
        let mut child = Command::new(&exe)
            .args([
                "--child",
                &trial.to_string(),
                snap.to_str().expect("snap path"),
                out.to_str().expect("out path"),
            ])
            .spawn()
            .expect("spawn child");
        respawns += 1;
        assert!(
            respawns <= MAX_RESPAWNS,
            "trial {trial}: child did not finish within {MAX_RESPAWNS} respawns"
        );
        // Kill when the child's journaled progress crosses a random slot
        // target — each respawn starts from the last snapshot, so targets
        // are drawn past the progress already banked.
        let banked = checkpoint::read_header(&snap)
            .ok()
            .flatten()
            .map_or(0, |h| h.slots_done);
        let target = banked + CKPT_EVERY + rng.next_below(40 * CKPT_EVERY);
        let deadline = Instant::now() + Duration::from_secs(60);
        let killed = loop {
            if let Some(status) = child.try_wait().expect("poll child") {
                // Finished (or died) before the kill landed.
                assert!(
                    status.success(),
                    "trial {trial}: child failed on its own: {status}"
                );
                break false;
            }
            let progressed = checkpoint::read_header(&snap)
                .ok()
                .flatten()
                .is_some_and(|h| h.slots_done >= target);
            if progressed {
                child.kill().expect("SIGKILL child");
                child.wait().expect("reap child");
                break true;
            }
            assert!(
                Instant::now() < deadline,
                "trial {trial}: child made no progress for 60s"
            );
            std::thread::sleep(Duration::from_millis(1));
        };
        if killed {
            kills += 1;
            continue;
        }
        let got = std::fs::read_to_string(&out).expect("read child report");
        assert_eq!(
            got, expected,
            "trial {trial}: restored run diverged from the uninterrupted reference"
        );
        let _ = std::fs::remove_file(&snap);
        let _ = std::fs::remove_file(&out);
        return TrialResult { kills, respawns };
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        let trial: usize = args[1].parse().expect("trial index");
        run_child(trial, &args[2], &args[3]);
    }

    let mut trials = 21usize;
    let mut seed = 0x0C0A_0500u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trials" => {
                trials = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--trials requires a number");
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed requires a number");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: chaos [--trials N] [--seed S]");
                std::process::exit(2);
            }
        }
    }

    let dir = std::env::temp_dir().join(format!("iroram-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create chaos dir");

    // One reference per scheme (the cell depends only on trial % SCHEMES).
    let refs: Vec<String> = (0..SCHEMES.len()).map(reference_report).collect();

    let mut rng = SimRng::seed_from(seed);
    let mut total_kills = 0u32;
    for trial in 0..trials {
        let r = run_trial(trial, &mut rng, &dir, &refs[trial % SCHEMES.len()]);
        total_kills += r.kills;
        println!(
            "trial {trial:>2} [{}]: {} kills, {} spawns, report identical",
            SCHEMES[trial % SCHEMES.len()].name(),
            r.kills,
            r.respawns
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        total_kills >= trials as u32,
        "only {total_kills} kills landed across {trials} trials — runs too \
         short for the kill window, results prove nothing"
    );
    println!(
        "chaos: {trials} trials, {total_kills} SIGKILLs, every restored report \
         byte-identical to its uninterrupted reference"
    );
}
