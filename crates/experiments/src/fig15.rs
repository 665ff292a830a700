//! Fig. 15 — access-type distribution under IR-DWB.
//!
//! Shows, per benchmark, how IR-DWB repurposes dummy slots: the slot mix of
//! real paths, background evictions, converted (useful write-back) slots
//! and remaining dummies. Paper claim: the average dummy share drops from
//! 11% to 6%.

use ir_oram::Scheme;

use crate::render::{fmt_pct, Table};
use crate::runner::{perf_benches, run_matrix};
use crate::ExpOptions;

/// Per-benchmark slot shares `(name, real, bg, converted, dummy,
/// baseline_dummy)`.
pub fn collect(opts: &ExpOptions) -> Vec<(String, f64, f64, f64, f64, f64)> {
    let benches = perf_benches();
    let mut rows = run_matrix(opts, &[Scheme::Baseline, Scheme::IrDwb], &benches);
    let dwb = rows.pop().expect("two scheme rows");
    let base = rows.pop().expect("two scheme rows");
    benches
        .iter()
        .zip(base.iter().zip(dwb.iter()))
        .map(|(bench, (rb, rd))| {
            let t = rd.slots.total_slots.max(1) as f64;
            let tb = rb.slots.total_slots.max(1) as f64;
            (
                bench.name().to_owned(),
                rd.slots.real_slots as f64 / t,
                rd.slots.bg_slots as f64 / t,
                rd.slots.converted_slots as f64 / t,
                rd.slots.dummy_slots as f64 / t,
                rb.slots.dummy_slots as f64 / tb,
            )
        })
        .collect()
}

/// Builds the Fig. 15 table.
pub fn run(opts: &ExpOptions) -> Table {
    let rows = collect(opts);
    let mut t = Table::new(
        "Fig. 15: slot-type distribution under IR-DWB (vs Baseline dummy share)",
        [
            "Benchmark",
            "real",
            "bg-evict",
            "converted",
            "dummy",
            "Baseline dummy",
        ],
    );
    let n = rows.len() as f64;
    let (mut ar, mut ab, mut ac, mut ad, mut abd) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (name, real, bg, conv, dummy, base_dummy) in rows {
        ar += real / n;
        ab += bg / n;
        ac += conv / n;
        ad += dummy / n;
        abd += base_dummy / n;
        t.row([
            name,
            fmt_pct(real),
            fmt_pct(bg),
            fmt_pct(conv),
            fmt_pct(dummy),
            fmt_pct(base_dummy),
        ]);
    }
    t.row([
        "average".to_owned(),
        fmt_pct(ar),
        fmt_pct(ab),
        fmt_pct(ac),
        fmt_pct(ad),
        fmt_pct(abd),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_oram::{RunLimit, Simulation};
    use iroram_trace::Bench;

    #[test]
    fn dwb_reduces_dummy_share() {
        let opts = ExpOptions::quick();
        let limit = RunLimit::mem_ops(6_000);
        let base = Simulation::run_bench(&opts.system(Scheme::Baseline), Bench::Gcc, limit);
        let dwb = Simulation::run_bench(&opts.system(Scheme::IrDwb), Bench::Gcc, limit);
        let share =
            |r: &ir_oram::SimReport| r.slots.dummy_slots as f64 / r.slots.total_slots.max(1) as f64;
        assert!(
            share(&dwb) < share(&base),
            "dummy share {} vs {}",
            share(&dwb),
            share(&base)
        );
    }
}
