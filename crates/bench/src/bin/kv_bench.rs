//! KV serving-layer throughput and latency harness: drives the sharded
//! oblivious KV store (`iroram-kv`) through a load phase and two mixed
//! phases (uniform and Zipf key popularity), recording p50/p99/p999
//! latency histograms and per-shard throughput.
//!
//! Every invocation benchmarks the same workload at 1 shard and at 4
//! shards, writes `BENCH_kv_latency.json`, and appends provenance-stamped
//! entries (`"bench": "kv"`) to `BENCH_history.jsonl`. On the `--quick`
//! scale the 4-shard run is ratchet-gated against its own recorded
//! lineage (same exit conventions as `perfstat`: 1 = regression, 2 = no
//! baseline, i.e. a vacuous pass), and the 4-vs-1 shard scaling is
//! asserted to reach [`MIN_QUICK_SPEEDUP`]. Each run also records its
//! PosMap and data paths per KV op and its PLB hit ratio, so CI can check
//! that the warmed, map-sized PLB keeps PosMap traffic at zero.
//!
//! Two throughput views are reported, because they answer different
//! questions:
//!
//! * **wall-clock throughput** — mixed ops / elapsed seconds on *this*
//!   host. On a machine with ≥ 4 cores the 4-shard run overlaps its
//!   workers and this shows the parallel speedup directly; on a 1-core
//!   CI box it can only show the algorithmic gain from smaller
//!   per-shard trees.
//! * **aggregate service capacity** — Σ over shards of
//!   `ops_i / busy_i`, where `busy_i` is each shard's own uncontended
//!   serving time from the injected clock. Workers are clamped to the
//!   host's available parallelism, so shards never time-slice against
//!   each other and `busy_i` measures real per-shard service rate. This
//!   is the throughput the sharded layer delivers once each worker has
//!   a core, and it is the machine-independent quantity the scaling
//!   gate asserts on.
//!
//! ```text
//! cargo run --release --bin kv_bench -- --quick
//! cargo run --release --bin kv_bench -- --full     # 1M+ keys
//! ```

use std::time::Instant;

use iroram_bench::hist::Histogram;
use iroram_experiments::history::HistoryKey;
use iroram_hash::mix64;
use iroram_kv::{KvConfig, KvOp, KvService, ShardReport};
use iroram_sim_engine::SimRng;

/// How much slower than the last recorded quick run of the same shape the
/// gated run may be before the ratchet fails. Wider than perfstat's 10%:
/// wall-clock KV rates swing ±15% run-to-run on a shared 1-core host.
const RATCHET_TOLERANCE: f64 = 0.20;
const EXIT_REGRESSION: i32 = 1;
const EXIT_NO_BASELINE: i32 = 2;

/// The 4-shard quick run must beat the 1-shard run by at least this
/// factor in aggregate service capacity, or the sharding layer has
/// stopped paying for itself.
const MIN_QUICK_SPEEDUP: f64 = 1.5;

/// Zipf skew for the hot-key phase (the classic YCSB-style 0.99).
const ZIPF_S: f64 = 0.99;

#[derive(Debug, Clone)]
struct BenchOptions {
    scale: &'static str,
    keys: u64,
    mixed_ops: u64,
    seed: u64,
}

impl BenchOptions {
    fn from_args() -> Self {
        let mut o = BenchOptions {
            scale: "standard",
            keys: 262_144,
            mixed_ops: 131_072,
            seed: 0xC0FFEE,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => {
                    o.scale = "quick";
                    o.keys = 8_192;
                    o.mixed_ops = 32_768;
                }
                "--full" => {
                    o.scale = "full";
                    o.keys = 1_048_576;
                    o.mixed_ops = 262_144;
                }
                "--keys" => {
                    i += 1;
                    o.keys = args[i].parse().expect("--keys N");
                    o.scale = "custom";
                }
                "--ops" => {
                    i += 1;
                    o.mixed_ops = args[i].parse().expect("--ops N");
                    o.scale = "custom";
                }
                "--seed" => {
                    i += 1;
                    o.seed = args[i].parse().expect("--seed N");
                    o.scale = "custom";
                }
                other => {
                    eprintln!(
                        "unrecognized argument `{other}`\n\
                         usage: kv_bench [--quick|--full] [--keys N] [--ops N] [--seed N]"
                    );
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        o
    }
}

/// A Zipf(s) sampler over `1..=n` via precomputed CDF + binary search.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u64, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(s);
            cdf.push(acc);
        }
        Zipf { cdf }
    }

    /// Ranks are popularity order; scramble them through `mix64` so hot
    /// keys spread across shards instead of clustering at small ids.
    fn sample(&self, rng: &mut SimRng, keys: u64) -> u32 {
        let total = *self.cdf.last().expect("nonempty");
        let r = rng.next_f64() * total;
        let rank = self.cdf.partition_point(|&c| c < r) as u64;
        1 + (mix64(rank) % keys) as u32
    }
}

struct Phase {
    name: &'static str,
    ops: u64,
    wall_seconds: f64,
    hist: Histogram,
}

struct RunResult {
    shards: usize,
    load_seconds: f64,
    phases: Vec<Phase>,
    shard_ops: Vec<u64>,
    shard_busy_ns: Vec<u64>,
    reports: Vec<ShardReport>,
    /// PLB `(hits, misses)` summed over shards.
    plb: (u64, u64),
    mixed_ops_per_sec: f64,
}

impl RunResult {
    /// Σ per-shard service rate — the throughput the run delivers once
    /// each worker has its own core. Workers never exceed the host's
    /// parallelism (see [`run_one`]), so `busy` is uncontended time.
    fn capacity_ops_per_sec(&self) -> f64 {
        self.shard_ops
            .iter()
            .zip(&self.shard_busy_ns)
            .map(|(&ops, &busy)| ops as f64 / (busy as f64 / 1e9).max(1e-9))
            .sum()
    }

    /// `(PosMap paths, data paths)` per KV op over the whole run (load
    /// and mixed phases), summed over shards.
    fn paths_per_op(&self) -> (f64, f64) {
        let (mut ops, mut posmap, mut data) = (0u64, 0u64, 0u64);
        for r in &self.reports {
            ops += r.kv.puts + r.kv.gets + r.kv.deletes;
            posmap += r.oram.posmap_paths();
            data += r.oram.data_paths;
        }
        let ops = ops.max(1) as f64;
        (posmap as f64 / ops, data as f64 / ops)
    }

    /// Share of PLB lookups that hit.
    fn plb_hit_ratio(&self) -> f64 {
        let (hits, misses) = self.plb;
        hits as f64 / (hits + misses).max(1) as f64
    }
}

/// One full benchmark run at a given shard count: load phase, then the
/// uniform and Zipf mixed phases.
fn run_one(opts: &BenchOptions, shards: usize) -> RunResult {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut cfg = KvConfig::for_keys(opts.keys, shards);
    // More workers than cores would make shards time-slice against each
    // other, corrupting the per-shard busy-time measurement (and adding
    // switch overhead for nothing). Results are worker-count independent
    // by construction, so this only affects timing.
    cfg.workers = shards.min(cores);
    cfg.seed = opts.seed;
    let mut kv = KvService::new(cfg);
    let epoch = Instant::now();
    let clock = move || epoch.elapsed().as_nanos() as u64;

    // Load phase: insert every key in mix64-scrambled order.
    let t0 = Instant::now();
    let mut loaded = 0u64;
    let mut k = 0u64;
    while loaded < opts.keys {
        let mut window = 0;
        while loaded < opts.keys && window < 16_384 {
            k += 1;
            let key = 1 + (mix64(k) % opts.keys) as u32;
            if kv
                .submit(KvOp::Put {
                    key,
                    value: key.wrapping_mul(2_654_435_761),
                })
                .is_err()
            {
                break;
            }
            loaded += 1;
            window += 1;
        }
        kv.flush();
    }
    let load_seconds = t0.elapsed().as_secs_f64();

    // Mixed phases: 70% get / 25% put / 5% delete. Deleted keys are
    // eligible for re-insertion by later puts, so the store stays near
    // its loaded size.
    let zipf = Zipf::new(opts.keys, ZIPF_S);
    let mut rng = SimRng::seed_from(opts.seed ^ 0x4B56_4245_4E43); // "KVBENC"
    let mut phases = Vec::new();
    let mut shard_ops = vec![0u64; shards];
    let mut shard_busy_ns = vec![0u64; shards];
    let mut mixed_wall = 0.0f64;
    for name in ["uniform", "zipf"] {
        let mut hist = Histogram::new();
        let t0 = Instant::now();
        let mut done = 0u64;
        while done < opts.mixed_ops {
            let window = (opts.mixed_ops - done).min(16_384);
            for _ in 0..window {
                let key = match name {
                    "uniform" => 1 + rng.next_below(opts.keys) as u32,
                    _ => zipf.sample(&mut rng, opts.keys),
                };
                let op = match rng.next_below(100) {
                    0..=69 => KvOp::Get { key },
                    70..=94 => KvOp::Put {
                        key,
                        value: rng.next_u64() as u32,
                    },
                    _ => KvOp::Delete { key },
                };
                kv.submit(op).expect("queue sized for the window");
            }
            let outcome = kv.flush_with_clock(Some(&clock));
            for lat in outcome.latencies {
                hist.record(lat);
            }
            for (acc, ops) in shard_ops.iter_mut().zip(&outcome.shard_ops) {
                *acc += ops;
            }
            for (acc, busy) in shard_busy_ns.iter_mut().zip(&outcome.shard_busy) {
                *acc += busy;
            }
            done += window;
        }
        let wall_seconds = t0.elapsed().as_secs_f64();
        mixed_wall += wall_seconds;
        phases.push(Phase {
            name,
            ops: opts.mixed_ops,
            wall_seconds,
            hist,
        });
    }

    let total_mixed: u64 = phases.iter().map(|p| p.ops).sum();
    RunResult {
        shards,
        load_seconds,
        phases,
        shard_ops,
        shard_busy_ns,
        reports: kv.reports(),
        plb: kv.shards().iter().fold((0, 0), |(h, m), s| {
            let (sh, sm) = s.oram().plb_counters();
            (h + sh, m + sm)
        }),
        mixed_ops_per_sec: total_mixed as f64 / mixed_wall.max(1e-9),
    }
}

fn print_run(r: &RunResult) {
    println!(
        "  S={} load {:.2}s, mixed {:.0} ops/s wall, {:.0} ops/s aggregate capacity",
        r.shards,
        r.load_seconds,
        r.mixed_ops_per_sec,
        r.capacity_ops_per_sec()
    );
    let (posmap, data) = r.paths_per_op();
    println!(
        "    per op: {posmap:.3} PosMap paths, {data:.3} data paths, PLB hit ratio {:.4}",
        r.plb_hit_ratio()
    );
    for p in &r.phases {
        println!(
            "    {:<8} {:>7} ops in {:>6.2}s  {}",
            p.name,
            p.ops,
            p.wall_seconds,
            p.hist.summary("ns")
        );
    }
    for (i, (&ops, &busy)) in r.shard_ops.iter().zip(&r.shard_busy_ns).enumerate() {
        let tput = ops as f64 / (busy as f64 / 1e9).max(1e-9);
        println!(
            "    shard {i}: {ops} mixed ops, busy {:.2}s -> {tput:.0} ops/s \
             ({} ORAM accesses, stash peak {})",
            busy as f64 / 1e9,
            r.reports[i].oram.accesses,
            r.reports[i].stash_peak
        );
    }
}

fn json_run(r: &RunResult) -> String {
    let mut s = String::new();
    // PosMap paths and the PLB hit ratio print unrounded, so CI's exact
    // `== 0` / `== 1` checks cannot pass on a value that merely rounds.
    let (posmap, data) = r.paths_per_op();
    s.push_str(&format!(
        "    {{\"shards\": {}, \"load_seconds\": {:.6}, \"mixed_ops_per_sec\": {:.1}, \
         \"capacity_ops_per_sec\": {:.1},\n     \"posmap_paths_per_op\": {posmap}, \
         \"data_paths_per_op\": {data:.4}, \"plb_hit_ratio\": {},\n",
        r.shards,
        r.load_seconds,
        r.mixed_ops_per_sec,
        r.capacity_ops_per_sec(),
        r.plb_hit_ratio()
    ));
    s.push_str("     \"phases\": [");
    for (i, p) in r.phases.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"name\": \"{}\", \"ops\": {}, \"wall_seconds\": {:.6}, \
             \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}, \
             \"mean_ns\": {:.1}}}",
            p.name,
            p.ops,
            p.wall_seconds,
            p.hist.value_at(0.50),
            p.hist.value_at(0.99),
            p.hist.value_at(0.999),
            p.hist.max(),
            p.hist.mean()
        ));
    }
    s.push_str("],\n     \"shard_mixed_ops\": [");
    for (i, ops) in r.shard_ops.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&ops.to_string());
    }
    s.push_str("], \"shard_busy_seconds\": [");
    for (i, busy) in r.shard_busy_ns.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("{:.6}", *busy as f64 / 1e9));
    }
    s.push_str("]}");
    s
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

/// The workload fingerprint for history provenance: the service config
/// fold extended with the op counts that shape the run.
fn workload_fp(cfg: &KvConfig, opts: &BenchOptions) -> u64 {
    let mut fp = cfg.fingerprint();
    for field in [opts.keys, opts.mixed_ops, opts.seed] {
        fp = mix64(fp.rotate_left(9) ^ field);
    }
    fp
}

fn main() {
    let opts = BenchOptions::from_args();
    println!(
        "kv_bench: {} keys, {} mixed ops/phase (uniform + zipf {ZIPF_S}), scale {}",
        opts.keys, opts.mixed_ops, opts.scale
    );

    let runs: Vec<RunResult> = [1usize, 4]
        .iter()
        .map(|&shards| {
            println!("running S={shards}…");
            let r = run_one(&opts, shards);
            print_run(&r);
            r
        })
        .collect();
    let wall_speedup = runs[1].mixed_ops_per_sec / runs[0].mixed_ops_per_sec.max(1e-9);
    let capacity_speedup =
        runs[1].capacity_ops_per_sec() / runs[0].capacity_ops_per_sec().max(1e-9);
    println!(
        "4-shard vs 1-shard: {wall_speedup:.2}x wall-clock (host has {} core(s)), \
         {capacity_speedup:.2}x aggregate service capacity",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // Snapshot JSON for the latest run.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"scale\": \"{}\",\n", opts.scale));
    json.push_str(&format!("  \"keys\": {},\n", opts.keys));
    json.push_str(&format!("  \"mixed_ops_per_phase\": {},\n", opts.mixed_ops));
    json.push_str(&format!("  \"zipf_s\": {ZIPF_S},\n"));
    json.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&json_run(r));
        json.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"wall_speedup_4_vs_1\": {wall_speedup:.4},\n"));
    json.push_str(&format!(
        "  \"capacity_speedup_4_vs_1\": {capacity_speedup:.4}\n"
    ));
    json.push_str("}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kv_latency.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
    }

    // Append-only history entries, one per run, namespaced to the kv
    // bench family so the sim ratchet can never cross-match them.
    let hist_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.jsonl");
    let commit = git_commit();
    let epoch_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut gated: Option<(HistoryKey, f64)> = None;
    for r in &runs {
        let mut cfg = KvConfig::for_keys(opts.keys, r.shards);
        cfg.seed = opts.seed;
        let key = HistoryKey {
            bench: "kv".to_owned(),
            scale: opts.scale.to_owned(),
            jobs: r.shards as u64,
            cfg_fp: workload_fp(&cfg, &opts),
        };
        let line = format!(
            "{{\"epoch_secs\": {epoch_secs}, \"bench\": \"kv\", \"scale\": \"{}\", \
             \"jobs\": {}, \"kv_keys\": {}, \"kv_ops\": {}, \
             \"kv_ops_per_sec\": {:.1}, \"kv_capacity_ops_per_sec\": {:.1}, \
             \"note\": \"commit {commit}, {}\"}}\n",
            opts.scale,
            r.shards,
            opts.keys,
            opts.mixed_ops * 2,
            r.mixed_ops_per_sec,
            r.capacity_ops_per_sec(),
            key.fp_tag()
        );
        use std::io::Write as _;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(hist_path)
            .and_then(|mut f| {
                let prior = std::fs::read_to_string(hist_path).unwrap_or_default();
                if r.shards == 4 {
                    gated = Some((
                        key.clone(),
                        key.latest_rate(&prior, "kv_ops_per_sec").unwrap_or(-1.0),
                    ));
                }
                f.write_all(line.as_bytes())
            });
        match appended {
            Ok(()) => println!("appended S={} run to {hist_path}", r.shards),
            Err(e) => eprintln!("warning: could not append {hist_path}: {e}"),
        }
    }

    // Shard-scaling gate: the whole point of the sharded layer. Gated on
    // aggregate capacity (machine-independent); wall-clock speedup on a
    // box with fewer cores than shards only reflects the algorithmic
    // gain from smaller per-shard trees.
    if opts.scale == "quick" {
        if capacity_speedup < MIN_QUICK_SPEEDUP {
            eprintln!(
                "kv scaling: FAIL — 4 shards delivered only {capacity_speedup:.2}x \
                 the 1-shard service capacity (required {MIN_QUICK_SPEEDUP}x)"
            );
            std::process::exit(EXIT_REGRESSION);
        }
        println!(
            "kv scaling: ok — {capacity_speedup:.2}x capacity at 4 shards \
             (gate {MIN_QUICK_SPEEDUP}x)"
        );
    }

    // CI perf ratchet on the quick 4-shard lineage, perfstat conventions:
    // exit 1 = regression, exit 2 = vacuous pass (no baseline; this run's
    // entry was appended above, so the next run has one).
    if opts.scale == "quick" {
        let (key, prior) = gated.expect("4-shard run always present");
        let rate = runs[1].mixed_ops_per_sec;
        if prior < 0.0 {
            eprintln!(
                "kv ratchet: WARNING — no prior quick/jobs={} entry with {} in \
                 BENCH_history.jsonl; the gate passed vacuously, not green.",
                key.jobs,
                key.fp_tag()
            );
            std::process::exit(EXIT_NO_BASELINE);
        }
        let floor = prior * (1.0 - RATCHET_TOLERANCE);
        if rate < floor {
            eprintln!(
                "kv ratchet: FAIL — {rate:.0} ops/s is below the floor {floor:.0} \
                 (previous {prior:.0})"
            );
            std::process::exit(EXIT_REGRESSION);
        }
        println!("kv ratchet: ok — {rate:.0} ops/s vs previous {prior:.0} (floor {floor:.0})");
    }
}
