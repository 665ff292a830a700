//! Shape regression tests: the qualitative claims of the paper's evaluation
//! hold at quick experiment scale. (The quantitative standard-scale results
//! live in EXPERIMENTS.md.)

use ir_oram::{RunLimit, Scheme, Simulation};
use iroram_experiments::{fig10, fig15, fig2, fig6, geomean, ExpOptions};
use iroram_trace::Bench;

fn opts() -> ExpOptions {
    ExpOptions::quick()
}

/// Fig. 10's headline, reduced: IR-ORAM beats Baseline on the memory-bound
/// benchmarks, and each standalone technique does not regress on average.
#[test]
fn fig10_shape_iroram_wins() {
    let opts = opts();
    let limit = RunLimit::mem_ops(6_000);
    let benches = [Bench::Mcf, Bench::Xz, Bench::Lbm];
    let mut iroram_speedups = Vec::new();
    let mut alloc_speedups = Vec::new();
    for bench in benches {
        let base = Simulation::run_bench(&opts.system(Scheme::Baseline), bench, limit);
        let ir = Simulation::run_bench(&opts.system(Scheme::IrOram), bench, limit);
        let alloc = Simulation::run_bench(&opts.system(Scheme::IrAlloc), bench, limit);
        iroram_speedups.push(ir.speedup_over(&base));
        alloc_speedups.push(alloc.speedup_over(&base));
    }
    let ir = geomean(&iroram_speedups);
    let alloc = geomean(&alloc_speedups);
    assert!(
        ir > 1.05,
        "IR-ORAM geomean speedup {ir:.3} ({iroram_speedups:?})"
    );
    assert!(alloc > 1.0, "IR-Alloc geomean speedup {alloc:.3}");
}

/// Fig. 2's composition: data paths dominate, PosMap traffic is
/// non-negligible, Pos1 ≥ Pos2, dummies exist for light benchmarks.
#[test]
fn fig2_shape_path_mix() {
    let opts = opts();
    let cfg = opts.system(Scheme::Baseline);
    let heavy = fig2::mix_of(&Simulation::run_bench(
        &cfg,
        Bench::Xz,
        RunLimit::mem_ops(5_000),
    ));
    assert!(heavy.data > 0.3, "data paths dominate: {heavy:?}");
    assert!(heavy.pos1 >= heavy.pos2, "{heavy:?}");
    assert!(
        heavy.pos1 + heavy.pos2 > 0.05,
        "PosMap non-negligible: {heavy:?}"
    );

    let light = fig2::mix_of(&Simulation::run_bench(
        &cfg,
        Bench::Xal,
        RunLimit::mem_ops(3_000),
    ));
    assert!(
        light.dummy > heavy.dummy,
        "light benchmarks have more dummies: {light:?} vs {heavy:?}"
    );
}

/// Fig. 6's claim: the tree top serves a disproportionate share of
/// requests relative to its size.
#[test]
fn fig6_shape_treetop_reuse() {
    let opts = opts();
    let h = fig6::collect(&opts);
    let levels = h.per_level.len();
    let top = levels * 2 / 5;
    let top_space_share = {
        let top_slots: u64 = (0..top).map(|l| (1u64 << l) * 4).sum();
        let all_slots: u64 = (0..levels).map(|l| (1u64 << l) * 4).sum();
        top_slots as f64 / all_slots as f64
    };
    let top_serve_share = h.top_fraction(top);
    assert!(
        top_serve_share > 10.0 * top_space_share,
        "top serves {top_serve_share:.3} with only {top_space_share:.4} of space"
    );
}

/// Fig. 15's claim: IR-DWB converts a visible share of dummies and lowers
/// the dummy fraction.
#[test]
fn fig15_shape_dummy_conversion() {
    let opts = opts();
    let rows = fig15::collect(&opts);
    let avg_dummy: f64 = rows.iter().map(|r| r.4).sum::<f64>() / rows.len() as f64;
    let avg_base_dummy: f64 = rows.iter().map(|r| r.5).sum::<f64>() / rows.len() as f64;
    let avg_conv: f64 = rows.iter().map(|r| r.3).sum::<f64>() / rows.len() as f64;
    assert!(
        avg_dummy < avg_base_dummy,
        "dummy share must drop: {avg_dummy:.3} vs {avg_base_dummy:.3}"
    );
    assert!(avg_conv > 0.0, "some slots must convert");
}

/// LLC-D's read-intensive pathology (Section VI-A): delayed remapping makes
/// mcf slower than the Baseline, because clean LLC evictions now cost
/// PosMap traffic.
#[test]
fn llcd_hurts_read_intensive_mcf() {
    let opts = opts();
    let limit = RunLimit::mem_ops(6_000);
    let base = Simulation::run_bench(&opts.system(Scheme::Baseline), Bench::Mcf, limit);
    let llcd = Simulation::run_bench(&opts.system(Scheme::LlcD), Bench::Mcf, limit);
    assert!(
        llcd.cycles > base.cycles,
        "LLC-D should slow mcf down ({} vs {})",
        llcd.cycles,
        base.cycles
    );
}

/// Fig. 10 companion claim: the improvements come from reduced memory
/// intensity — IR-ORAM moves fewer DRAM blocks than Baseline for the same
/// work.
#[test]
fn iroram_reduces_memory_intensity() {
    let opts = opts();
    let limit = RunLimit::mem_ops(5_000);
    let base = Simulation::run_bench(&opts.system(Scheme::Baseline), Bench::Mcf, limit);
    let ir = Simulation::run_bench(&opts.system(Scheme::IrOram), Bench::Mcf, limit);
    assert!(
        ir.dram.requests < base.dram.requests,
        "IR-ORAM {} vs Baseline {} DRAM requests",
        ir.dram.requests,
        base.dram.requests
    );
}

/// The full Fig. 10 pipeline runs end to end at quick scale and produces a
/// well-formed table (every scheme column, geomean row).
#[test]
fn fig10_table_renders() {
    let mut opts = opts();
    opts.mem_ops = 1_500;
    let data = fig10::collect(&opts);
    let table = fig10::render(&data);
    assert_eq!(table.rows.len(), data.benches.len() + 1);
    assert_eq!(table.headers.len(), fig10::FIG10_SCHEMES.len() + 1);
    // Baseline column is 1.000 everywhere.
    for row in &table.rows {
        assert_eq!(row[1], "1.000", "baseline normalization in {row:?}");
    }
}
