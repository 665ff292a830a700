//! Fig. 3 — space utilization at different tree levels over time.
//!
//! Replays the paper's methodology at reduced scale: initialize the tree by
//! accessing every block once in random order (done inside
//! [`iroram_protocol::PathOram::new`]), then run a benchmark-mix trace
//! followed by a random-trace tail, taking per-level utilization snapshots
//! along the way. Paper shape: top levels fluctuate, middle levels sit low
//! (≈20–30%), the last level is high (70–80%).

use iroram_protocol::{PathOram, ZAllocation};
use iroram_trace::{Bench, WorkloadGen};

use crate::render::{fmt_pct, Table};
use crate::ExpOptions;

/// One utilization snapshot: label + per-level ratios.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Snapshot label ("0B"-style position marker).
    pub label: String,
    /// Utilization per level, `used / capacity`.
    pub per_level: Vec<f64>,
}

fn snapshot(oram: &PathOram, label: String) -> Snapshot {
    Snapshot {
        label,
        per_level: oram
            .utilization_per_level()
            .into_iter()
            .map(|(u, c)| if c == 0 { 0.0 } else { u as f64 / c as f64 })
            .collect(),
    }
}

/// Runs the trace mix on an allocation produced by `zalloc_of`, returning
/// snapshots. Shared with Fig. 13 (which passes the IR-Alloc allocation).
pub fn collect(
    opts: &ExpOptions,
    zalloc_of: impl Fn(usize, usize) -> ZAllocation,
) -> Vec<Snapshot> {
    let cfg = opts.funct_oram(zalloc_of);
    let n = cfg.data_blocks;
    let mut oram = PathOram::new(cfg);
    let total_accesses = n * opts.funct_accesses_per_block;
    // Paper: benchmark accesses for [0, 3.7B], random for (3.7B, 4B].
    let mix_accesses = total_accesses * 37 / 40;
    let mut snaps = vec![snapshot(&oram, "0".into())];
    let mut gen = WorkloadGen::for_bench(Bench::Mix, n, opts.seed);
    let quarters = 4u64;
    for q in 1..=quarters {
        let upto = mix_accesses * q / quarters;
        let from = mix_accesses * (q - 1) / quarters;
        for _ in from..upto {
            let r = gen.next_record();
            oram.run_access(iroram_protocol::BlockAddr(r.addr), None);
        }
        snaps.push(snapshot(&oram, format!("mix-{}/4", q)));
    }
    let mut rnd = WorkloadGen::for_bench(Bench::RandomUniform, n, opts.seed ^ 1);
    for _ in mix_accesses..total_accesses {
        let r = rnd.next_record();
        oram.run_access(iroram_protocol::BlockAddr(r.addr), None);
    }
    snaps.push(snapshot(&oram, "random-tail".into()));
    snaps
}

/// Builds the Fig. 3 table (levels as rows, snapshots as columns).
pub fn run(opts: &ExpOptions) -> Table {
    let snaps = collect(opts, |l, _| ZAllocation::uniform(l, 4));
    render(
        snaps,
        "Fig. 3: space utilization per tree level (Baseline allocation)",
    )
}

/// Renders snapshots as a table (shared with Fig. 13).
pub fn render(snaps: Vec<Snapshot>, title: &str) -> Table {
    let mut headers = vec!["Level".to_owned()];
    headers.extend(snaps.iter().map(|s| s.label.clone()));
    let mut t = Table::new(title, headers);
    let levels = snaps[0].per_level.len();
    for l in 0..levels {
        let mut row = vec![l.to_string()];
        row.extend(snaps.iter().map(|s| fmt_pct(s.per_level[l])));
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_shape_matches_paper() {
        let opts = ExpOptions::quick();
        let snaps = collect(&opts, |l, _| ZAllocation::uniform(l, 4));
        let last = snaps.last().unwrap();
        let levels = last.per_level.len();
        // Bottom level clearly higher than the middle levels.
        let bottom = last.per_level[levels - 1];
        let middle: f64 = last.per_level[levels / 2..levels - 2].iter().sum::<f64>()
            / (levels - 2 - levels / 2) as f64;
        assert!(
            bottom > middle + 0.15,
            "bottom {bottom:.2} vs middle {middle:.2}"
        );
        // Everything in [0, 1].
        for s in &snaps {
            for &u in &s.per_level {
                assert!((0.0..=1.0).contains(&u));
            }
        }
    }

    #[test]
    fn snapshots_cover_run() {
        let opts = ExpOptions::quick();
        let snaps = collect(&opts, |l, _| ZAllocation::uniform(l, 4));
        assert_eq!(snaps.len(), 6); // init + 4 mix quarters + random tail
        assert_eq!(snaps[0].label, "0");
        assert_eq!(snaps.last().unwrap().label, "random-tail");
    }
}
