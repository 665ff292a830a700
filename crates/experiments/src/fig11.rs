//! Fig. 11 — IR-Stash + IR-Alloc on the LLC-D baseline.
//!
//! Compares the delayed-remapping baseline (LLC-D) against LLC-D with
//! IR-Alloc and IR-Stash layered on top, reporting speedup (higher is
//! better). Paper shape: ≈1.72× average, with a 1.63× standout on mcf
//! (whose tree-top hits triple under delayed remapping).

use ir_oram::Scheme;

use crate::render::{fmt_f, Table};
use crate::runner::{geomean, perf_benches, run_matrix};
use crate::ExpOptions;

/// Builds the Fig. 11 table.
pub fn run(opts: &ExpOptions) -> Table {
    let benches = perf_benches();
    let mut rows = run_matrix(opts, &[Scheme::LlcD, Scheme::IrAllocStashOnLlcD], &benches);
    let improved = rows.pop().expect("two scheme rows");
    let base = rows.pop().expect("two scheme rows");
    let mut t = Table::new(
        "Fig. 11: IR-Stash+IR-Alloc speedup over the LLC-D baseline",
        ["Benchmark", "LLC-D cycles", "IR cycles", "speedup"],
    );
    let mut speedups = Vec::new();
    for ((bench, b), i) in benches.iter().zip(&base).zip(&improved) {
        let s = i.speedup_over(b);
        speedups.push(s);
        t.row([
            bench.name().to_owned(),
            b.cycles.to_string(),
            i.cycles.to_string(),
            fmt_f(s, 3),
        ]);
    }
    t.row([
        "geomean".to_owned(),
        String::new(),
        String::new(),
        fmt_f(geomean(&speedups), 3),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_oram::{RunLimit, Simulation};
    use iroram_trace::Bench;

    #[test]
    fn ir_on_llcd_improves_on_average() {
        let opts = ExpOptions::quick();
        let limit = RunLimit::mem_ops(6_000);
        // Geomean over a small representative set (single benchmarks can
        // regress at quick scale; the paper reports the average).
        let benches = [Bench::Mcf, Bench::Gcc, Bench::Bla];
        let mut speedups = Vec::new();
        for b in benches {
            let base = Simulation::run_bench(&opts.system(Scheme::LlcD), b, limit);
            let ir = Simulation::run_bench(&opts.system(Scheme::IrAllocStashOnLlcD), b, limit);
            speedups.push(ir.speedup_over(&base));
        }
        let g = geomean(&speedups);
        assert!(g > 0.95, "mean speedup {g} ({speedups:?})");
    }
}
