//! The repository benchmark: four workloads over the IR-ORAM simulator and
//! the oblivious KV service, end-to-end metrics measured with tracing off,
//! and per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! ```
//!
//! Each workload runs in its own child process (this binary re-spawned with
//! `--child`), one at a time; the parent only waits. Every metric prints as
//! `workload metric value unit`, and the last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (or, with `--trace 1`, the per-layer metrics). Summaries and
//! Chrome trace files go to `target/benchmark/`. See `README.md` for the
//! workloads, metrics and bounds.

mod gen;
mod host;
mod kv;
mod report;
mod sim;
mod stats;
mod trace;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use iroram_trace::Bench;

use kv::KvShape;
use report::{Outcome, E2E, PER_LAYER};
use sim::SimShape;
use trace::SpanStore;

/// Workload names, in run order.
const WORKLOADS: [&str; 4] = ["sim-read", "sim-write", "kv-small-zipf", "kv-large-uniform"];

/// Default seeds (the experiments' and `kv_bench`'s); `--seed` replaces both.
const SIM_SEED: u64 = 0xE0;
const KV_SEED: u64 = 0xC0FFEE;

/// Default measured seconds per workload (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

/// Spans kept for a trace file; totals stay exact beyond it.
const TRACE_CAPACITY: usize = 1 << 16;

/// Where summaries and traces are written, relative to the working
/// directory.
const OUT_DIR: &str = "target/benchmark";

const USAGE: &str = "usage: benchmark [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace [0|1]] [--smoke]\n  workloads: sim-read, sim-write, \
                     kv-small-zipf, kv-large-uniform (default: all)";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<&'static str>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Run the single workload in this process and print its result.
    child: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: None,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        child: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} requires a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                let w = WORKLOADS
                    .into_iter()
                    .find(|w| w == v)
                    .ok_or(format!("unknown workload `{v}`"))?;
                a.workloads.push(w);
            }
            "--seed" => {
                let v = value("--seed")?;
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                a.seed = Some(parsed.map_err(|_| format!("--seed expects an integer, got `{v}`"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!(
                        "--seconds expects a non-negative number, got `{v}`"
                    ))?;
            }
            "--trace" => {
                a.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--smoke" => a.smoke = true,
            "--child" => a.child = true,
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.to_vec();
    }
    if a.child && a.workloads.len() != 1 {
        return Err("--child runs exactly one workload".to_owned());
    }
    Ok(a)
}

/// Runs one workload in this process.
fn run_workload(
    name: &'static str,
    seed: Option<u64>,
    seconds: f64,
    trace: Option<&mut SpanStore>,
    smoke: bool,
) -> Outcome {
    let mut out = match name {
        "sim-read" | "sim-write" => {
            // Read-leaning vs write-leaning Table II benchmarks.
            let benches = if name == "sim-read" {
                [Bench::Mcf, Bench::Bla, Bench::Fre]
            } else {
                [Bench::Lbm, Bench::Bwa, Bench::Rom]
            };
            let seed = seed.unwrap_or(SIM_SEED);
            let shape = if smoke {
                SimShape::smoke(&benches, seed)
            } else {
                SimShape::standard(&benches, seed)
            };
            sim::run(name, &shape, seconds, trace)
        }
        _ => {
            let shape = if name == "kv-small-zipf" {
                KvShape::small_zipf()
            } else {
                KvShape::large_uniform()
            };
            let shape = if smoke { shape.smoke() } else { shape };
            kv::run(name, &shape, seed.unwrap_or(KV_SEED), seconds, trace)
        }
    };
    let rss = peak_rss_mb();
    out.check("peak RSS readable", rss.is_some());
    out.set("peak_rss_mb", rss.unwrap_or(0.0));
    out
}

/// This process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Writes `text` to `OUT_DIR/file`, warning on failure.
fn write_out(file: &str, text: &str) {
    let path = std::path::Path::new(OUT_DIR).join(file);
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Child mode: run the workload, print its lines and result.
fn child(args: &Args) -> ExitCode {
    let name = args.workloads[0];
    let mut store = args.trace.then(|| SpanStore::new(TRACE_CAPACITY));
    let mut out = run_workload(name, args.seed, args.seconds, store.as_mut(), args.smoke);
    if let Some(store) = &store {
        for (span, t) in store.totals() {
            out.notes.push(format!(
                "span.{span}.self_s {} s (total {} s, {} spans)",
                t.self_ns as f64 / 1e9,
                t.total_ns as f64 / 1e9,
                t.count
            ));
        }
        write_out(&format!("trace-{name}.json"), &store.to_chrome_json());
        out.notes.push(format!(
            "bench.trace_file {OUT_DIR}/trace-{name}.json ({} spans dropped)",
            store.dropped()
        ));
    }
    print!("{}", out.lines());
    let all: Vec<(&str, &str)> = E2E.iter().chain(&PER_LAYER).copied().collect();
    write_out(&format!("summary-{name}.json"), &(out.json(&all) + "\n"));
    println!("{}", out.json(if args.trace { &PER_LAYER } else { &E2E }));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The text after `"key": ` in a result line, up to the next comma.
fn json_field<'a>(json: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\": ");
    json.split_once(&tag)
        .map_or("", |(_, rest)| rest.split(',').next().unwrap_or(""))
}

/// One result object for several workloads: the checks and counts summed,
/// each workload's metrics nested under its name.
fn combine(results: &[(&str, String)]) -> String {
    let correct = results
        .iter()
        .all(|(_, j)| json_field(j, "correct") == "true");
    let sum = |key| -> u64 {
        results
            .iter()
            .map(|(_, j)| json_field(j, key).parse::<u64>().unwrap_or(0))
            .sum()
    };
    let metrics: Vec<String> = results
        .iter()
        .map(|(w, j)| {
            let m = j
                .split_once("\"metrics\": ")
                .map_or("{}", |(_, rest)| &rest[..rest.len() - 1]);
            format!("\"{w}\": {m}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        sum("attempted"),
        sum("failed"),
        metrics.join(", ")
    )
}

/// Parent mode: run each workload in a child, one at a time, passing its
/// lines through; the last line is the combined result.
fn parent(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut results = Vec::new();
    let mut all_ok = true;
    for &w in &args.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--child",
            "--workload",
            w,
            "--seconds",
            &args.seconds.to_string(),
        ]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(seed) = args.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        if args.smoke {
            cmd.arg("--smoke");
        }
        let mut child = match cmd.stdout(Stdio::piped()).spawn() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: cannot start workload {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut last: Option<String> = None;
        if let Some(stdout) = child.stdout.take() {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(prev) = last.replace(line) {
                    println!("{prev}");
                }
            }
        }
        let status = child.wait();
        let ok = status.as_ref().is_ok_and(|s| s.success());
        match last {
            Some(json) if json.starts_with('{') => {
                all_ok &= ok;
                results.push((w, json));
            }
            other => {
                if let Some(line) = other {
                    println!("{line}");
                }
                eprintln!("error: workload {w} ended without a result ({status:?})");
                return ExitCode::FAILURE;
            }
        }
    }
    match results.as_slice() {
        [(_, json)] => println!("{json}"),
        _ => println!("{}", combine(&results)),
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        child(&args)
    } else {
        parent(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::DETAIL;

    /// Whether `metric` measures a layer `workload` exercises: the KV
    /// service never enters the timed controller, DRAM or cache models, and
    /// the simulator has no KV layer, open loop or exposed PLB counters.
    fn applies(workload: &str, metric: &str) -> bool {
        let only_other: &[&str] = if workload.starts_with("sim-") {
            &["kv.", "bench.closed_", "bench.open_", "oram-protocol.plb_"]
        } else {
            &[
                "dram-sim.",
                "cache-sim.",
                "oram-ctrl.",
                "sim.",
                "bench.passes",
                "oram-protocol.stash_pct",
                "oram-protocol.stash_s",
                "oram-protocol.posmap_",
            ]
        };
        !only_other.iter().any(|p| metric.starts_with(p))
    }

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "kv-small-zipf",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workloads, vec!["kv-small-zipf"]);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.child),
            (Some(7), 10.0, false, false)
        );
        assert!(args(&["--trace", "1"]).unwrap().trace);
        assert!(args(&["--trace"]).unwrap().trace);
        assert_eq!(args(&["--seed", "0xE0"]).unwrap().seed, Some(0xE0));
        assert_eq!(args(&[]).unwrap().workloads, WORKLOADS.to_vec());
    }

    #[test]
    fn rejects_malformed_arguments() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload"],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--bogus"],
            &["--child"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn combine_nests_metrics_per_workload() {
        let a = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"m\": {\"value\": 1, \"unit\": \"s\"}}}";
        let b = "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": {\"m\": {\"value\": 2, \"unit\": \"s\"}}}";
        assert_eq!(
            combine(&[("a", a.to_owned()), ("b", b.to_owned())]),
            "{\"correct\": false, \"attempted\": 7, \"failed\": 1, \"metrics\": \
             {\"a\": {\"m\": {\"value\": 1, \"unit\": \"s\"}}, \"b\": {\"m\": {\"value\": 2, \"unit\": \"s\"}}}}"
        );
    }

    /// Every workload at smoke size, traced: each metric that applies is
    /// emitted and every built-in check holds.
    #[test]
    fn smoke_runs_every_workload_and_emits_every_metric() {
        for w in WORKLOADS {
            let mut store = SpanStore::new(4_096);
            let out = run_workload(w, None, 0.05, Some(&mut store), true);
            assert!(out.correct(), "{w} failed its checks:\n{}", out.lines());
            assert!(out.attempted > 0, "{w} attempted nothing");
            for (name, _) in E2E.iter().chain(&PER_LAYER).chain(&DETAIL) {
                if applies(w, name) {
                    assert!(out.values.contains_key(name), "{w} did not emit {name}");
                }
            }
            for (name, _) in E2E {
                assert!(
                    out.values[name] > 0.0,
                    "{w}: {name} is {}",
                    out.values[name]
                );
            }
            assert!(
                store.totals().contains_key("workload"),
                "{w} recorded no spans"
            );
        }
    }
}
