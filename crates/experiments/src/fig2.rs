//! Fig. 2 — the distribution of path-access types.
//!
//! Runs the Baseline with timing protection and reports, per benchmark, the
//! fraction of path accesses of each type: `PT_p` (Pos1), `PT_p` (Pos2),
//! `PT_d` (data + background eviction, which the baseline folds into its
//! real traffic), and `PT_m` (dummies). Paper shape: `PT_d` ≈ 56%, `PT_p` ≈
//! 33% with Pos1 ≈ 4× Pos2, `PT_m` ≈ 11% on average.

use crate::render::{fmt_pct, Table};
use crate::runner::{perf_benches, run_scheme};
use crate::ExpOptions;
use ir_oram::{Scheme, SimReport};

/// The per-benchmark breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct PathMix {
    /// Benchmark name.
    pub bench: String,
    /// Fraction of Pos1 paths.
    pub pos1: f64,
    /// Fraction of Pos2 paths.
    pub pos2: f64,
    /// Fraction of data (+ background-eviction) paths.
    pub data: f64,
    /// Fraction of dummy paths.
    pub dummy: f64,
}

/// Extracts the mix from a run report.
pub fn mix_of(report: &SimReport) -> PathMix {
    let p = &report.protocol;
    let total = p.total_paths().max(1) as f64;
    PathMix {
        bench: report.workload.clone(),
        pos1: p.pos1_paths as f64 / total,
        pos2: p.pos2_paths as f64 / total,
        data: (p.data_paths + p.bg_evict_paths) as f64 / total,
        dummy: p.dummy_paths as f64 / total,
    }
}

/// Runs the experiment.
pub fn collect(opts: &ExpOptions) -> Vec<PathMix> {
    let benches = perf_benches();
    run_scheme(opts, Scheme::Baseline, &benches)
        .iter()
        .map(mix_of)
        .collect()
}

/// Builds the Fig. 2 table.
pub fn run(opts: &ExpOptions) -> Table {
    let mixes = collect(opts);
    let mut t = Table::new(
        "Fig. 2: distribution of path accesses (Baseline, timing protection on)",
        ["Benchmark", "PTp(Pos1)", "PTp(Pos2)", "PTd", "PTm(dummy)"],
    );
    let n = mixes.len() as f64;
    let (mut a1, mut a2, mut ad, mut am) = (0.0, 0.0, 0.0, 0.0);
    for m in &mixes {
        a1 += m.pos1 / n;
        a2 += m.pos2 / n;
        ad += m.data / n;
        am += m.dummy / n;
        t.row([
            m.bench.clone(),
            fmt_pct(m.pos1),
            fmt_pct(m.pos2),
            fmt_pct(m.data),
            fmt_pct(m.dummy),
        ]);
    }
    t.row([
        "average".to_owned(),
        fmt_pct(a1),
        fmt_pct(a2),
        fmt_pct(ad),
        fmt_pct(am),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_oram::{RunLimit, Simulation};
    use iroram_trace::Bench;

    #[test]
    fn fractions_sum_to_one() {
        let opts = ExpOptions::quick();
        let cfg = opts.system(Scheme::Baseline);
        let r = Simulation::run_bench(&cfg, Bench::Mcf, RunLimit::mem_ops(2_000));
        let m = mix_of(&r);
        let sum = m.pos1 + m.pos2 + m.data + m.dummy;
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        assert!(m.data > 0.0);
    }

    #[test]
    fn pos1_exceeds_pos2() {
        // Pos1 misses are strictly more frequent than Pos2 misses (a Pos2
        // path only happens when Pos1 also missed).
        let opts = ExpOptions::quick();
        let cfg = opts.system(Scheme::Baseline);
        let r = Simulation::run_bench(&cfg, Bench::Xz, RunLimit::mem_ops(3_000));
        let m = mix_of(&r);
        assert!(m.pos1 >= m.pos2, "{m:?}");
    }
}
