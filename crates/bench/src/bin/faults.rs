//! Fault-injection sweep: runs every scheme (`ALL_SCHEMES`: the paper's main
//! comparison plus Fig. 11's IR-Alloc+IR-Stash on LLC-D) across a
//! behaviourally diverse bench subset **under an active fault plan** (DRAM
//! line corruption, transient bank stalls, stash-pressure storms, mangled
//! trace records) with both the integrity layer and the audit subsystem on,
//! and verifies the robustness contract:
//!
//! - **zero undetected corruptions**: every injected DRAM corruption that
//!   a path read consumed was caught by the per-bucket checksums;
//! - **clean audits**: fault handling never breaks the functional oracle,
//!   the timing schedule, or DRAM conservation;
//! - **bounded slowdown**: re-fetch penalties and bank stalls cost real
//!   but bounded time against the same cell run fault-free.
//!
//! Exits nonzero on any violated clause — this is the CI gate for the
//! failure-model machinery.
//!
//! Usage: `cargo run --release -p iroram-bench --bin faults --
//! [--preset low|high] [--quick | --standard | --full] [--jobs N]`

use ir_oram::{Scheme, SimReport, ALL_SCHEMES};
use iroram_experiments::{par_map, run_cell_checked, ExpOptions};
use iroram_sim_engine::FaultConfig;
use iroram_trace::Bench;

/// Same behaviourally diverse subset as the audit sweep.
const BENCHES: [Bench; 5] = [
    Bench::Gcc,
    Bench::Mcf,
    Bench::Lbm,
    Bench::Mix,
    Bench::RandomUniform,
];

/// Faulted cells must finish within this factor of their clean twin.
/// Generous on purpose: the clause guards against unbounded recovery
/// loops, not against the (intended, measured) per-fault penalties.
const MAX_SLOWDOWN: f64 = 3.0;

/// A named fault intensity.
fn preset(name: &str) -> Option<FaultConfig> {
    let mut f = FaultConfig::none();
    match name {
        "low" => {
            f.dram_corruption = 0.002;
            f.bank_stall = 0.01;
            f.stash_storm = 0.001;
            f.trace_mangle = 0.001;
        }
        "high" => {
            f.dram_corruption = 0.02;
            f.bank_stall = 0.05;
            f.bank_stall_dram_cycles = 200;
            f.stash_storm = 0.01;
            f.storm_slots = 64;
            f.trace_mangle = 0.01;
        }
        _ => return None,
    }
    Some(f)
}

fn main() {
    // Peel off `--preset X` before handing the rest to the shared parser.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let mut preset_name = "low".to_owned();
    if let Some(i) = raw.iter().position(|a| a == "--preset") {
        if i + 1 >= raw.len() {
            eprintln!("error: --preset requires a value (low|high)");
            std::process::exit(2);
        }
        preset_name = raw.remove(i + 1);
        raw.remove(i);
    }
    let Some(faults) = preset(&preset_name) else {
        eprintln!("error: unknown preset `{preset_name}` (expected low|high)");
        std::process::exit(2);
    };
    let mut opts = match ExpOptions::parse(&raw) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}\n{}", iroram_experiments::runner::USAGE);
            std::process::exit(2);
        }
    };
    opts.audit = true;

    // Every cell runs at access-pipeline depths 1 and 4: fault recovery
    // (re-fetch penalties, storm throttling, record rejection) must hold
    // under the k-deep overlapped schedule, not just the serial one.
    let cells: Vec<(Scheme, Bench, u32)> = ALL_SCHEMES
        .into_iter()
        .flat_map(|s| {
            BENCHES
                .iter()
                .flat_map(move |&b| [1u32, 4].into_iter().map(move |d| (s, b, d)))
        })
        .collect();
    let results = par_map(opts.effective_jobs(), cells, |(scheme, bench, depth)| {
        // Clean twin first, then the faulted run of the same cell.
        let mut clean_cfg = opts.system(scheme);
        clean_cfg.pipeline_depth = depth;
        let clean = run_cell_checked(&clean_cfg, bench, opts.limit())
            .unwrap_or_else(|e| panic!("clean run: {e}"));
        let mut cfg = opts.system(scheme);
        cfg.pipeline_depth = depth;
        cfg.faults = faults.clone();
        let faulted = run_cell_checked(&cfg, bench, opts.limit())
            .unwrap_or_else(|e| panic!("faulted run: {e}"));
        (scheme, bench, depth, clean, faulted)
    });

    let mut failures = 0u64;
    println!(
        "{:<24} {:<14} {:>5} {:>9} {:>9} {:>11} {:>7} {:>7} {:>9} {:>9} {:>9}",
        "scheme",
        "bench",
        "depth",
        "injected",
        "detected",
        "undetected",
        "stalls",
        "storms",
        "rejected",
        "penalty",
        "slowdown"
    );
    for (scheme, bench, depth, clean, faulted) in &results {
        let f = &faulted.faults;
        let slowdown = faulted.cycles as f64 / clean.cycles.max(1) as f64;
        println!(
            "{:<24} {:<14} {:>5} {:>9} {:>9} {:>11} {:>7} {:>7} {:>9} {:>9} {:>9.3}",
            scheme.name(),
            bench.name(),
            depth,
            f.injected_corruptions,
            f.detected,
            f.undetected,
            f.bank_stalls,
            f.storms,
            f.rejected_records,
            f.refetch_penalty_cycles,
            slowdown
        );
        failures += check(scheme, bench, *depth, clean, faulted, slowdown);
    }
    let (injected, detected): (u64, u64) = results
        .iter()
        .fold((0, 0), |(i, d), (_, _, _, _, r)| {
            (i + r.faults.injected_corruptions, d + r.faults.detected)
        });
    println!(
        "\n{} cells, {} corruptions injected, {} detection events, {} clause failure(s)",
        results.len(),
        injected,
        detected,
        failures
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Checks the robustness clauses for one cell, printing each failure.
fn check(
    scheme: &Scheme,
    bench: &Bench,
    depth: u32,
    clean: &SimReport,
    faulted: &SimReport,
    slowdown: f64,
) -> u64 {
    let cell = format!("{}/{}/depth{}", scheme.name(), bench.name(), depth);
    let mut failures = 0;
    if faulted.faults.undetected > 0 {
        println!(
            "    ! {cell}: {} corruption(s) consumed undetected",
            faulted.faults.undetected
        );
        failures += 1;
    }
    if faulted.faults.recovered < faulted.faults.detected {
        println!(
            "    ! {cell}: {} detection(s) but only {} recovered",
            faulted.faults.detected, faulted.faults.recovered
        );
        failures += 1;
    }
    if slowdown > MAX_SLOWDOWN {
        println!("    ! {cell}: slowdown {slowdown:.2}x exceeds {MAX_SLOWDOWN}x");
        failures += 1;
    }
    if clean.faults != ir_oram::FaultStats::default() {
        println!("    ! {cell}: clean twin reported fault activity");
        failures += 1;
    }
    if faulted.mem_ops != clean.mem_ops {
        println!(
            "    ! {cell}: faulted run replayed {} ops vs {} clean",
            faulted.mem_ops, clean.mem_ops
        );
        failures += 1;
    }
    failures
}
