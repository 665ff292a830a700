//! Fig. 14 — PosMap access reduction from IR-Stash.
//!
//! Reports each benchmark's PosMap path accesses under IR-Stash normalized
//! to Baseline. Paper shape: ≈49% of Baseline on average, with near-total
//! elimination on locality-friendly benchmarks (94% reduction on dee) and
//! little change on mcf.

use ir_oram::Scheme;

use crate::render::{fmt_f, Table};
use crate::runner::{geomean, perf_benches, run_matrix};
use crate::ExpOptions;

/// `(bench, baseline posmap paths, irstash posmap paths)` rows.
pub fn collect(opts: &ExpOptions) -> Vec<(String, u64, u64)> {
    let benches = perf_benches();
    let mut rows = run_matrix(opts, &[Scheme::Baseline, Scheme::IrStash], &benches);
    let stash = rows.pop().expect("two scheme rows");
    let base = rows.pop().expect("two scheme rows");
    benches
        .iter()
        .zip(base.iter().zip(stash.iter()))
        .map(|(b, (rb, rs))| (b.name().to_owned(), rb.posmap_paths(), rs.posmap_paths()))
        .collect()
}

/// Builds the Fig. 14 table.
pub fn run(opts: &ExpOptions) -> Table {
    let rows = collect(opts);
    let mut t = Table::new(
        "Fig. 14: PosMap path accesses, IR-Stash normalized to Baseline",
        ["Benchmark", "Baseline", "IR-Stash", "normalized"],
    );
    let mut ratios = Vec::new();
    for (name, b, s) in rows {
        let ratio = s as f64 / b.max(1) as f64;
        ratios.push(ratio);
        t.row([name, b.to_string(), s.to_string(), fmt_f(ratio, 3)]);
    }
    t.row([
        "geomean".to_owned(),
        String::new(),
        String::new(),
        fmt_f(geomean(&ratios), 3),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_oram::{RunLimit, Simulation};
    use iroram_trace::Bench;

    #[test]
    fn irstash_reduces_posmap_paths() {
        let opts = ExpOptions::quick();
        let limit = RunLimit::mem_ops(20_000);
        // xz's streams revisit recently touched regions, which is where
        // IR-Stash's address-indexed front door pays off.
        let base = Simulation::run_bench(&opts.system(Scheme::Baseline), Bench::Xz, limit);
        let ir = Simulation::run_bench(&opts.system(Scheme::IrStash), Bench::Xz, limit);
        assert!(
            ir.protocol.sstash_hits > 0,
            "the S-Stash front door should serve some requests"
        );
        // The reduction is flat here: allow noise but forbid a real
        // regression. It is flat at standard scale too: EXPERIMENTS.md
        // records a geomean ratio of 1.002 against the paper's 0.49 (see
        // DESIGN.md deviation #2), so no scale of this test shows the
        // paper's large reduction.
        assert!(
            ir.posmap_paths() <= base.posmap_paths() * 21 / 20,
            "IR-Stash {} vs Baseline {}",
            ir.posmap_paths(),
            base.posmap_paths()
        );
    }
}
