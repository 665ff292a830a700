//! Simulator throughput harness: measures simulated memory operations per
//! second of wall-clock time for every scheme, and writes the results to
//! `BENCH_sim_throughput.json` at the repository root.
//!
//! Unlike the figure binaries (which report *simulated* metrics), this
//! measures the *simulator itself* — the number it reports is how fast the
//! experiment engine chews through work, which is what the hot-path kernels
//! and the `--jobs` worker pool exist to improve. Construction has its own
//! line: each scheme's `PathOram::new` is timed on its own (median of
//! [`BUILD_TRIALS`]) and reported as `build_seconds`. Typical use:
//!
//! ```text
//! cargo run --release --bin perfstat -- --quick
//! cargo run --release --bin perfstat -- --quick --jobs 8
//! ```

use std::time::Instant;

use ir_oram::ALL_SCHEMES;
use iroram_experiments::history::HistoryKey;
use iroram_experiments::journal::fingerprint;
use iroram_experiments::runner::{perf_benches, run_scheme};
use iroram_experiments::ExpOptions;
use iroram_protocol::{OramConfig, PathOram};
use iroram_sim_engine::profiler;

/// How much slower than the last recorded run of the same scale/jobs a
/// `--quick` run may be before the ratchet fails the step (CI perf gate).
const RATCHET_TOLERANCE: f64 = 0.10;

/// Constructions timed per scheme; the median is reported.
const BUILD_TRIALS: usize = 3;

/// Process exit code for a ratchet regression.
const EXIT_REGRESSION: i32 = 1;

/// Process exit code when the ratchet had no comparable baseline: the gate
/// passed *vacuously*, which must not read as a green perf check. Distinct
/// from [`EXIT_REGRESSION`] so CI can tell "got slower" from "measured
/// nothing". The run's own entry is appended before the verdict, so the
/// next run has a baseline and this self-heals.
const EXIT_NO_BASELINE: i32 = 2;

/// Verdict of the quick-scale perf ratchet, separated from process exit so
/// the decision logic is unit-testable.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ratchet {
    /// Rate is at or above the tolerance floor of the prior recorded run.
    Ok { prev: f64, floor: f64 },
    /// Rate fell more than `RATCHET_TOLERANCE` below the prior run.
    Regression { prev: f64, floor: f64 },
    /// No prior entry at the same scale and job count: nothing was gated.
    NoBaseline,
}

/// The ratchet decision: `None` when `scale` is not gated (only `--quick`
/// is — it is the scale the CI perf-smoke step runs).
fn ratchet_verdict(scale: &str, prior_rate: Option<f64>, rate: f64) -> Option<Ratchet> {
    if scale != "quick" {
        return None;
    }
    Some(match prior_rate {
        None => Ratchet::NoBaseline,
        Some(prev) => {
            let floor = prev * (1.0 - RATCHET_TOLERANCE);
            if rate < floor {
                Ratchet::Regression { prev, floor }
            } else {
                Ratchet::Ok { prev, floor }
            }
        }
    })
}

/// Short commit hash of the working tree, or `"unknown"` outside a checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

struct SchemeStat {
    scheme: &'static str,
    mem_ops: u64,
    wall_seconds: f64,
    ops_per_sec: f64,
    build_seconds: f64,
}

/// Median wall time of [`BUILD_TRIALS`] `PathOram::new(cfg)` calls: the
/// construction (random-order placement of every block) each cell pays
/// before its first access.
fn build_seconds(cfg: &OramConfig) -> f64 {
    let mut times: Vec<f64> = (0..BUILD_TRIALS)
        .map(|_| {
            let start = Instant::now();
            // Bound so its drop falls after the reading.
            let _oram = PathOram::new(cfg.clone());
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[BUILD_TRIALS / 2]
}

fn scale_name(opts: &ExpOptions) -> &'static str {
    let mut probe = opts.clone();
    for (name, base) in [
        ("quick", ExpOptions::quick()),
        ("standard", ExpOptions::standard()),
        ("full", ExpOptions::full()),
    ] {
        probe.jobs = base.jobs;
        probe.profile = base.profile;
        // `--set` overrides don't demote a run to "custom": the config
        // fingerprint in the history note (not the scale label) keys rate
        // comparability, so an overridden quick run is still a quick run —
        // and still ratchet-gated against its own baseline lineage.
        probe.overrides = base.overrides.clone();
        if probe == base {
            return name;
        }
    }
    "custom"
}

fn json_escape_free(s: &str) -> &str {
    debug_assert!(
        !s.contains(['"', '\\']),
        "scheme/bench names must not need JSON escaping"
    );
    s
}

fn main() {
    let opts = ExpOptions::from_args();
    let benches = perf_benches();
    let jobs = opts.effective_jobs();
    println!(
        "perfstat: {} schemes x {} benches at {} scale ({} mem-ops/cell, jobs={jobs})",
        ALL_SCHEMES.len(),
        benches.len(),
        scale_name(&opts),
        opts.mem_ops,
    );

    if opts.profile {
        profiler::set_enabled(true);
    }
    let mut stats: Vec<SchemeStat> = Vec::new();
    let total_start = Instant::now();
    for scheme in ALL_SCHEMES {
        if opts.profile {
            profiler::reset();
        }
        let start = Instant::now();
        let reports = run_scheme(&opts, scheme, &benches);
        let wall = start.elapsed().as_secs_f64();
        let mem_ops: u64 = reports.iter().map(|r| r.mem_ops).sum();
        let ops_per_sec = mem_ops as f64 / wall.max(1e-9);
        let build = build_seconds(&opts.system(scheme).oram);
        println!(
            "  {:<22} {:>9} mem-ops in {:>7.3}s  -> {:>12.0} ops/s   build {:>8.5}s",
            scheme.name(),
            mem_ops,
            wall,
            ops_per_sec,
            build
        );
        if opts.profile {
            for s in profiler::snapshot() {
                println!(
                    "      {:<14} {:>8.3}s {:>10} calls",
                    s.phase.name(),
                    s.seconds(),
                    s.calls
                );
            }
        }
        stats.push(SchemeStat {
            scheme: scheme.name(),
            mem_ops,
            wall_seconds: wall,
            ops_per_sec,
            build_seconds: build,
        });
    }
    let total_wall = total_start.elapsed().as_secs_f64();
    let total_ops: u64 = stats.iter().map(|s| s.mem_ops).sum();
    let total_rate = total_ops as f64 / total_wall.max(1e-9);
    let total_build: f64 = stats.iter().map(|s| s.build_seconds).sum();
    println!(
        "total: {total_ops} simulated mem-ops in {total_wall:.3}s -> {total_rate:.0} ops/s; \
         construction {total_build:.5}s"
    );

    // Hand-rolled JSON: the workspace has no serialization dependency, and
    // the shape here is flat enough that formatting directly is clearer.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"scale\": \"{}\",\n", scale_name(&opts)));
    json.push_str(&format!("  \"jobs\": {jobs},\n"));
    json.push_str(&format!("  \"mem_ops_per_cell\": {},\n", opts.mem_ops));
    json.push_str("  \"benches\": [");
    for (i, b) in benches.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!("\"{}\"", json_escape_free(b.name())));
    }
    json.push_str("],\n  \"schemes\": [\n");
    for (i, s) in stats.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"mem_ops\": {}, \"wall_seconds\": {:.6}, \"mem_ops_per_sec\": {:.1}, \"build_seconds\": {:.6}}}{}\n",
            json_escape_free(s.scheme),
            s.mem_ops,
            s.wall_seconds,
            s.ops_per_sec,
            s.build_seconds,
            if i + 1 < stats.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"total_mem_ops\": {total_ops},\n"));
    json.push_str(&format!("  \"total_wall_seconds\": {total_wall:.6},\n"));
    json.push_str(&format!("  \"total_mem_ops_per_sec\": {total_rate:.1},\n"));
    json.push_str(&format!("  \"total_build_seconds\": {total_build:.6}\n"));
    json.push_str("}\n");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_sim_throughput.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
    }

    // Append-only run history, so throughput regressions have a trail to
    // diff against (the snapshot file above only holds the latest run).
    // Each entry carries a `note` with the commit and a fingerprint folded
    // over every (scheme, bench) cell config, so a rate change is
    // attributable: same fingerprint = same simulated workload, so the
    // delta is the simulator; different fingerprint = the workload moved.
    let hist_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.jsonl");
    let scale = scale_name(&opts);

    let limit = opts.limit();
    let mut cfg_fp = 0u64;
    for scheme in ALL_SCHEMES {
        for &bench in &benches {
            cfg_fp =
                cfg_fp
                    .rotate_left(9)
                    .wrapping_add(fingerprint(&opts.system(scheme), bench, limit));
        }
    }

    // Ratchet baseline: the most recent prior entry of the same bench
    // family at the same scale, job count, *and* config fingerprint. Other
    // shapes are not rate-comparable — in particular, `--set` overrides
    // that change the simulated workload (e.g. `pipeline_depth`) get their
    // own baseline lineage instead of poisoning the default one, and
    // `kv_bench` entries in the same file can never match a sim key.
    let key = HistoryKey {
        bench: "sim".to_owned(),
        scale: scale.to_owned(),
        jobs: jobs as u64,
        cfg_fp,
    };
    let prior_rate = std::fs::read_to_string(hist_path)
        .ok()
        .and_then(|hist| key.latest_rate(&hist, "total_mem_ops_per_sec"));
    let epoch_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let builds: Vec<String> = stats
        .iter()
        .map(|s| format!("\"{}\": {:.6}", json_escape_free(s.scheme), s.build_seconds))
        .collect();
    let line = format!(
        "{{\"epoch_secs\": {epoch_secs}, \"bench\": \"sim\", \"scale\": \"{scale}\", \
         \"jobs\": {jobs}, \
         \"total_mem_ops\": {total_ops}, \"total_wall_seconds\": {total_wall:.6}, \
         \"total_mem_ops_per_sec\": {total_rate:.1}, \
         \"total_build_seconds\": {total_build:.6}, \"build_seconds\": {{{}}}, \
         \"note\": \"commit {}, cfg-fp {cfg_fp:016x}\"}}\n",
        builds.join(", "),
        git_commit()
    );
    use std::io::Write as _;
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(hist_path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    match appended {
        Ok(()) => println!("appended run to {hist_path}"),
        Err(e) => eprintln!("warning: could not append {hist_path}: {e}"),
    }

    // CI perf ratchet: a quick run that lands more than RATCHET_TOLERANCE
    // below the previous recorded quick run fails the step.
    match ratchet_verdict(scale, prior_rate, total_rate) {
        None => {}
        Some(Ratchet::Ok { prev, floor }) => {
            println!(
                "perf ratchet: ok — {total_rate:.0} ops/s vs previous {prev:.0} \
                 (floor {floor:.0})"
            );
        }
        Some(Ratchet::Regression { prev, floor }) => {
            eprintln!(
                "perf ratchet: FAIL — {total_rate:.0} ops/s is more than \
                 {:.0}% below the previous recorded run ({prev:.0} ops/s, \
                 floor {floor:.0})",
                RATCHET_TOLERANCE * 100.0
            );
            std::process::exit(EXIT_REGRESSION);
        }
        Some(Ratchet::NoBaseline) => {
            eprintln!(
                "perf ratchet: WARNING — no prior {scale}/jobs={jobs} entry in \
                 BENCH_history.jsonl; the gate passed vacuously, not green. \
                 This run was appended above, so the next run has a baseline. \
                 Exiting {EXIT_NO_BASELINE} so CI cannot mistake an unmeasured \
                 run for a passing one."
            );
            std::process::exit(EXIT_NO_BASELINE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_overrides_do_not_demote_the_scale() {
        let mut o = ExpOptions::quick();
        assert_eq!(scale_name(&o), "quick");
        // A `--set` run is still a quick run (its own cfg-fp lineage keys
        // the ratchet baseline) — it must not escape the gate as "custom".
        o.overrides
            .push(("pipeline_depth".to_owned(), "4".to_owned()));
        o.jobs = 1;
        assert_eq!(scale_name(&o), "quick");
        // A genuinely different shape still classifies as custom.
        o.mem_ops += 1;
        assert_eq!(scale_name(&o), "custom");
    }

    #[test]
    fn ratchet_gates_only_quick_scale() {
        assert_eq!(ratchet_verdict("standard", Some(100.0), 1.0), None);
        assert_eq!(ratchet_verdict("full", None, 1.0), None);
        assert!(ratchet_verdict("quick", Some(100.0), 100.0).is_some());
    }

    #[test]
    fn ratchet_accepts_within_tolerance_and_fails_below() {
        // 10% tolerance on a 100 ops/s baseline: floor is 90.
        match ratchet_verdict("quick", Some(100.0), 91.0) {
            Some(Ratchet::Ok { prev, floor }) => {
                assert_eq!(prev, 100.0);
                assert!((floor - 90.0).abs() < 1e-9);
            }
            other => panic!("expected Ok, got {other:?}"),
        }
        assert!(matches!(
            ratchet_verdict("quick", Some(100.0), 89.0),
            Some(Ratchet::Regression { .. })
        ));
        // Improvements obviously pass.
        assert!(matches!(
            ratchet_verdict("quick", Some(100.0), 250.0),
            Some(Ratchet::Ok { .. })
        ));
    }

    #[test]
    fn missing_baseline_is_distinct_from_both_pass_and_regression() {
        let v = ratchet_verdict("quick", None, 1e9);
        assert_eq!(v, Some(Ratchet::NoBaseline));
        assert_ne!(EXIT_NO_BASELINE, 0, "vacuous pass must not exit 0");
        assert_ne!(
            EXIT_NO_BASELINE, EXIT_REGRESSION,
            "CI must be able to tell 'got slower' from 'measured nothing'"
        );
    }

    #[test]
    fn writer_line_matches_its_own_history_key() {
        // Mirrors the format string in main(): if the writer's shape
        // drifts away from what HistoryKey::matches can parse, the ratchet
        // silently loses its baseline — catch that here.
        let line = format!(
            "{{\"epoch_secs\": 1754600000, \"bench\": \"sim\", \"scale\": \"quick\", \
             \"jobs\": 4, \
             \"total_mem_ops\": 936000, \"total_wall_seconds\": 12.500000, \
             \"total_mem_ops_per_sec\": 74880.0, \
             \"total_build_seconds\": 0.021000, \"build_seconds\": {{\"Baseline\": 0.002600}}, \
             \"note\": \"commit abc, cfg-fp {:016x}\"}}",
            0xffu64
        );
        let key = HistoryKey {
            bench: "sim".to_owned(),
            scale: "quick".to_owned(),
            jobs: 4,
            cfg_fp: 0xff,
        };
        assert!(key.matches(&line));
        assert_eq!(
            key.latest_rate(&line, "total_mem_ops_per_sec"),
            Some(74880.0)
        );
        assert_eq!(key.latest_rate(&line, "total_build_seconds"), Some(0.021));
        let kv = HistoryKey {
            bench: "kv".to_owned(),
            ..key
        };
        assert!(!kv.matches(&line), "kv ratchet must not see sim entries");
    }
}
