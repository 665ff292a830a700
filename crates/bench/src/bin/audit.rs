//! Full-system audit sweep: runs every scheme (`ALL_SCHEMES`: the paper's
//! main comparison plus Fig. 11's IR-Alloc+IR-Stash on LLC-D) across a
//! spread of synthetic benchmarks with the audit subsystem enabled
//! (functional oracle, timing schedule, DRAM conservation, structural
//! invariants, IR-DWB coherence), and exits nonzero if any cell reports a
//! violation.
//!
//! Usage: `cargo run --release -p iroram-bench --bin audit [--quick | --standard | --full] [--jobs N]`

use ir_oram::{Scheme, Simulation, ALL_SCHEMES};
use iroram_experiments::{par_map, ExpOptions};
use iroram_trace::Bench;

/// A behaviourally diverse bench subset: mixed (gcc), read pointer-chasing
/// (mcf), heavy streaming writes (lbm), the interleaved mix, and uniform
/// random — together they exercise every controller path (front hits,
/// demand misses, dirty evictions, delayed write-backs, DWB conversions,
/// dummies).
const BENCHES: [Bench; 5] = [
    Bench::Gcc,
    Bench::Mcf,
    Bench::Lbm,
    Bench::Mix,
    Bench::RandomUniform,
];

fn main() {
    let mut opts = ExpOptions::from_args();
    opts.audit = true;
    let cells: Vec<(Scheme, Bench)> = ALL_SCHEMES
        .into_iter()
        .flat_map(|s| BENCHES.iter().map(move |&b| (s, b)))
        .collect();
    let results = par_map(opts.effective_jobs(), cells, |(scheme, bench)| {
        let cfg = opts.system(scheme);
        let (_, audit) = Simulation::run_bench_audited(&cfg, bench, opts.limit());
        (scheme, bench, audit.expect("audit enabled"))
    });

    let mut total_checks = 0u64;
    let mut total_violations = 0u64;
    println!(
        "{:<24} {:<14} {:>10} {:>10}",
        "scheme", "bench", "checks", "violations"
    );
    for (scheme, bench, audit) in &results {
        total_checks += audit.checks;
        total_violations += audit.violations;
        println!(
            "{:<24} {:<14} {:>10} {:>10}",
            scheme.name(),
            bench.name(),
            audit.checks,
            audit.violations
        );
        for msg in &audit.samples {
            println!("    ! {msg}");
        }
    }
    println!(
        "\n{} cells, {} checks, {} violations",
        results.len(),
        total_checks,
        total_violations
    );
    if total_violations > 0 {
        std::process::exit(1);
    }
}
