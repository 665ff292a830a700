//! Fig. 13 — per-level utilization under IR-Alloc.
//!
//! Same methodology as Fig. 3 but with the IR-Alloc allocation: shrunken
//! middle levels run *higher* utilization than Baseline (paper: benchmarks
//! stay moderate, random traces exceed 50% and nearly fill the top).

use iroram_protocol::{AllocPreset, ZAllocation};

use crate::fig3;
use crate::render::Table;
use crate::ExpOptions;

/// Runs Fig. 3's snapshot collection with the standalone IR-Alloc setting.
pub fn collect(opts: &ExpOptions) -> Vec<fig3::Snapshot> {
    fig3::collect(opts, |levels, top| {
        ZAllocation::preset(AllocPreset::IrAlloc4, levels, top)
    })
}

/// Builds the Fig. 13 table.
pub fn run(opts: &ExpOptions) -> Table {
    fig3::render(
        collect(opts),
        "Fig. 13: space utilization per tree level (IR-Alloc allocation)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iralloc_middle_levels_run_hotter_than_baseline() {
        let opts = ExpOptions::quick();
        let base = fig3::collect(&opts, |l, _| ZAllocation::uniform(l, 4));
        let ir = collect(&opts);
        let last_base = &base.last().unwrap().per_level;
        let last_ir = &ir.last().unwrap().per_level;
        let levels = last_base.len();
        // Compare mean utilization over the shrunken middle band.
        let mid = levels / 2..levels - 2;
        let mean = |v: &[f64]| v[mid.clone()].iter().sum::<f64>() / mid.len() as f64;
        assert!(
            mean(last_ir) > mean(last_base),
            "IR-Alloc middle {:.3} should exceed baseline {:.3}",
            mean(last_ir),
            mean(last_base)
        );
    }
}
