//! The benchmark's metric names and units, and how a workload's outcome is
//! printed: one `workload metric value unit` line per metric, then one JSON
//! object as the last line of standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const E2E: [(&str, &str); 4] = [
    // Simulated mem-ops per host second over a pass of each cell's median
    // run (sim), or the median closed-loop KV ops/s of a 0.2 s slice (kv),
    // with every piece's time scaled to a quiet host by the reference
    // kernel timed right after it.
    ("ops_per_s", "ops/s"),
    // ORAM paths (every type) moved per operation: the paper's memory
    // intensity.
    ("paths_per_op", "paths"),
    // Median time of a set-up, each scaled the same way.
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, named after the module that does the work; the
/// result object of a traced run carries these. Counts come from reports,
/// time shares from the traced half of the run. A layer a workload never
/// enters reads 0, which is why the times are shares of the traced time
/// and not seconds.
pub const PER_LAYER: [(&str, &str); 28] = [
    // Shares of the traced simulator cell time.
    ("dram-sim.sched_pct", "%"),
    ("oram-protocol.stash_pct", "%"),
    ("oram-protocol.posmap_pct", "%"),
    ("cache-sim.llc_pct", "%"),
    ("oram-ctrl.self_pct", "%"),
    // Shares of the traced KV service time (submit plus flush).
    ("kv.submit_pct", "%"),
    ("kv.shard_busy_pct", "%"),
    ("kv.flush_overhead_pct", "%"),
    // ORAM path traffic by the paper's path types, per operation.
    ("oram-protocol.pt_p_paths_per_op", "paths"),
    ("oram-protocol.pt_d_paths_per_op", "paths"),
    ("oram-protocol.pt_m_paths_per_op", "paths"),
    ("oram-protocol.bg_paths_per_op", "paths"),
    ("oram-protocol.plb_hit_ratio", "ratio"),
    ("oram-protocol.stash_peak", "blocks"),
    ("oram-ctrl.useful_slot_ratio", "ratio"),
    ("oram-ctrl.dwb_converted_slots", "count"),
    ("oram-ctrl.degraded_slots", "count"),
    ("dram-sim.requests_per_op", "requests"),
    ("dram-sim.row_hit_ratio", "ratio"),
    ("cache-sim.llc_misses_per_op", "misses"),
    ("cache-sim.dirty_writebacks_per_op", "writebacks"),
    ("sim.cycles_per_mem_op", "cycles"),
    ("sim.ir_oram_speedup", "x"),
    ("kv.kicks_per_put", "kicks/put"),
    ("kv.overflow_peak", "entries"),
    ("kv.hit_ratio", "ratio"),
    ("kv.shard_imbalance", "ratio"),
    ("bench.trace_overhead_pct", "%"),
];

/// Measurements printed as lines only, never gated: absolute layer times
/// and pass, window and sample counts.
pub const DETAIL: [(&str, &str); 15] = [
    ("dram-sim.sched_s", "s"),
    ("oram-protocol.stash_s", "s"),
    ("oram-protocol.posmap_s", "s"),
    ("cache-sim.llc_s", "s"),
    ("oram-ctrl.self_s", "s"),
    ("kv.submit_ns_per_op", "ns"),
    ("kv.flush_s", "s"),
    ("kv.shard_busy_s", "s"),
    ("kv.flush_overhead_s", "s"),
    ("bench.unscaled_ops_per_s", "ops/s"),
    ("bench.unscaled_setup_s", "s"),
    ("bench.host_slowdown", "x"),
    ("bench.passes", "count"),
    ("bench.closed_windows", "count"),
    ("bench.open_samples", "count"),
];

/// What one workload run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines (tails, trace overhead, self times).
    pub notes: Vec<String>,
    /// Operations attempted (KV ops, or simulated mem-ops).
    pub attempted: u64,
    /// Operations that failed: wrong or refused KV replies, mem-ops of
    /// failed or divergent simulation cells.
    pub failed: u64,
    /// Named built-in checks and whether each held.
    pub checks: Vec<(&'static str, bool)>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            values: BTreeMap::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a built-in check.
    pub fn check(&mut self, name: &'static str, held: bool) {
        self.checks.push((name, held));
    }

    /// Every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|&(_, ok)| ok)
    }

    /// The human-readable report: one `workload metric value unit` line per
    /// measured metric, the notes, then each check.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, unit) in E2E.iter().chain(&PER_LAYER).chain(&DETAIL) {
            if let Some(v) = self.values.get(name) {
                let _ = writeln!(out, "{} {name} {v} {unit}", self.workload);
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "{} {note}", self.workload);
        }
        for (name, ok) in &self.checks {
            let verdict = if *ok { "ok" } else { "FAILED" };
            let _ = writeln!(out, "{} check {name} {verdict}", self.workload);
        }
        let _ = writeln!(
            out,
            "{} attempted {} failed {}",
            self.workload, self.attempted, self.failed
        );
        out
    }

    /// The result object: `metrics` holds every metric of `set`, with 0 for
    /// one this workload does not measure (a layer it does not exercise).
    pub fn json(&self, set: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in set.iter().enumerate() {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Share by which `after` exceeds `before`, in percent.
pub fn pct_over(after: f64, before: f64) -> f64 {
    (after / before - 1.0) * 100.0
}

/// `part` as a percentage of `whole`.
pub fn pct_of(part: f64, whole: f64) -> f64 {
    part / whole * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in E2E.iter().chain(&PER_LAYER).chain(&DETAIL) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(unit.len() <= 16);
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    /// A per-layer metric reads 0 on workloads that never enter its layer,
    /// so none may carry a time unit: a time that reads the same on every
    /// run is taken for a made-up one.
    #[test]
    fn per_layer_metrics_carry_no_time_unit() {
        for (name, unit) in PER_LAYER {
            assert!(
                !["s", "ms", "us", "ns"].contains(&unit),
                "{name} is in {unit}"
            );
        }
    }

    #[test]
    fn json_fills_inapplicable_metrics_with_zero() {
        let mut o = Outcome::new("w");
        o.attempted = 3;
        o.set("ops_per_s", 1.5);
        o.check("c", true);
        let j = o.json(&E2E[..2]);
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1.5, \"unit\": \"ops/s\"}, \
             \"paths_per_op\": {\"value\": 0, \"unit\": \"paths\"}}}"
        );
        o.check("d", false);
        assert!(!o.correct());
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let line_of = |name: &str| {
            let tag = format!("\"name\": \"{name}\"");
            spec.lines()
                .find(|l| l.contains(&tag))
                .unwrap_or_else(|| panic!("{name} missing"))
                .to_owned()
        };
        for (name, unit) in E2E.iter().chain(&PER_LAYER) {
            assert!(
                line_of(name).contains(&format!("\"unit\": \"{unit}\"")),
                "{name} unit"
            );
        }
        let listed = spec.matches("\"unit\": ").count();
        assert_eq!(
            listed,
            E2E.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }
}
