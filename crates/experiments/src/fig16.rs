//! Fig. 16 — IR-Alloc scalability across protected-space sizes.
//!
//! The paper evaluates IR-Alloc against Baseline at 1/2/4 GB of user data
//! (trees of 24/25/26 levels) on random traces — the worst case, which
//! "sets the performance lower bound while exhibiting high probability in
//! background eviction" — averaging 13 traces. Here the three points are
//! scaled tree heights; the speedup should stay stable (the paper's bars
//! are flat, ≈1.6×) with near-zero variance across traces.

use ir_oram::{Scheme, Simulation, SystemConfig};
use iroram_sim_engine::stats::RunningStat;
use iroram_trace::Bench;

use crate::render::{fmt_f, Table};
use crate::runner::par_map;
use crate::ExpOptions;

/// One scaling point: `(levels, mean speedup, stddev)`.
pub fn collect(opts: &ExpOptions) -> Vec<(usize, f64, f64)> {
    let base_levels = opts.system(Scheme::Baseline).oram.levels;
    let sizes = [base_levels - 2, base_levels - 1, base_levels];
    // Every (levels, trial) pair is one independent cell; the per-trial
    // seed makes each cell self-contained, so the whole grid parallelizes.
    let cells: Vec<(usize, u64)> = sizes
        .iter()
        .flat_map(|&levels| (0..opts.random_trials).map(move |t| (levels, t as u64)))
        .collect();
    let speedups = par_map(opts.effective_jobs(), cells, |(levels, trial)| {
        let make = |scheme| cell_config(opts, scheme, levels, trial);
        let limit = opts.limit();
        let base = Simulation::run_bench(&make(Scheme::Baseline), Bench::RandomUniform, limit);
        let ir = Simulation::run_bench(&make(Scheme::IrAlloc), Bench::RandomUniform, limit);
        ir.speedup_over(&base)
    });
    sizes
        .iter()
        .zip(speedups.chunks(opts.random_trials.max(1)))
        .map(|(&levels, chunk)| {
            let mut stat = RunningStat::new();
            for &s in chunk {
                stat.push(s);
            }
            (levels, stat.mean(), stat.stddev())
        })
        .collect()
}

/// The config of `scheme` in the cell of tree height `levels` and random
/// trace `trial`: the scale's config resized to `levels`, seeded per trial,
/// with the `--set` overrides applied last.
fn cell_config(opts: &ExpOptions, scheme: Scheme, levels: usize, trial: u64) -> SystemConfig {
    let seed = opts.seed ^ ((trial + 1) << 8);
    let mut cfg = opts.scaled_system(scheme);
    cfg.oram.levels = levels;
    cfg.oram.data_blocks = 1 << (levels + 1);
    cfg.oram.zalloc = iroram_protocol::ZAllocation::uniform(levels, 4);
    let top = (levels * 2 / 5).max(1);
    cfg.oram.treetop = iroram_protocol::TreeTopMode::Dedicated { levels: top };
    cfg.t_interval = SystemConfig::t_for(&cfg.oram);
    cfg.seed = seed;
    cfg.oram.seed = seed;
    opts.with_overrides(cfg.with_scheme(scheme))
}

/// Builds the Fig. 16 table.
pub fn run(opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Fig. 16: IR-Alloc speedup over Baseline vs protected-space size (random traces)",
        ["Tree levels", "user-data blocks", "speedup", "stddev"],
    );
    for (levels, mean, sd) in collect(opts) {
        t.row([
            levels.to_string(),
            (1u64 << (levels + 1)).to_string(),
            fmt_f(mean, 3),
            fmt_f(sd, 4),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overrides_reach_every_cell() {
        let mut opts = ExpOptions::quick();
        let plain = cell_config(&opts, Scheme::IrAlloc, 9, 0);
        assert_eq!(plain.t_interval, SystemConfig::t_for(&plain.oram));
        opts.overrides = vec![
            ("t_interval".to_owned(), "1234".to_owned()),
            ("seed".to_owned(), "77".to_owned()),
        ];
        let cfg = cell_config(&opts, Scheme::IrAlloc, 9, 0);
        assert_eq!((cfg.t_interval, cfg.seed), (1234, 77));
        // Everything the overrides leave alone is the cell's own.
        assert_eq!(cfg.oram, plain.oram);
    }

    #[test]
    fn speedup_is_stable_across_sizes() {
        let mut opts = ExpOptions::quick();
        opts.random_trials = 1;
        opts.mem_ops = 2_000;
        let points = collect(&opts);
        assert_eq!(points.len(), 3);
        for (levels, mean, _) in &points {
            assert!(
                *mean > 0.9,
                "IR-Alloc at L={levels} should not slow down ({mean})"
            );
        }
    }
}
