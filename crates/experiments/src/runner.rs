//! Shared experiment plumbing: scaling options, CLI parsing, and the
//! parallel cell engine batch runners are built on.
//!
//! # The cell model
//!
//! Every figure/table decomposes into independent *simulation cells* — one
//! `(scheme, bench, trial)` full-system run, or one functional study. Each
//! cell derives **all** of its randomness from its own configuration seed
//! (workload generation, ORAM remapping, initialization order), so cells
//! share no mutable state and their results cannot depend on scheduling.
//! [`par_map`] exploits that: it fans cells out across a worker pool and
//! returns results in input order, making any `--jobs N` run bit-identical
//! to the serial one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use ir_oram::{CheckpointSpec, RunLimit, Scheme, SimError, SimReport, Simulation, SystemConfig};
use iroram_protocol::{OramConfig, TreeTopMode, ZAllocation};
use iroram_trace::Bench;

use crate::journal::{self, Journal};

/// Bounded deterministic retries for cells that fail with a *transient*
/// [`SimError`] under fault injection (each retry re-runs the cell with a
/// fresh fault stream via [`iroram_sim_engine::FaultConfig::attempt`]).
pub const MAX_CELL_RETRIES: u32 = 3;

/// Environment variable overriding the `--resume` journal path
/// (default `iroram-resume.journal` in the working directory).
pub const RESUME_PATH_ENV: &str = "IRORAM_RESUME_PATH";

/// Environment variable that aborts the process (exit 3) after this many
/// cells have been journaled — a deterministic mid-run kill for exercising
/// `--resume` in tests and CI. Only honoured when `--resume` is on.
pub const ABORT_AFTER_ENV: &str = "IRORAM_ABORT_AFTER_CELLS";

/// Environment variable overriding the snapshot directory used when
/// `checkpoint_interval` is set (default `iroram-ckpt` in the working
/// directory). One snapshot file per cell, named by the cell fingerprint.
pub const CHECKPOINT_DIR_ENV: &str = "IRORAM_CHECKPOINT_DIR";

/// Usage text shared by every experiment binary.
pub const USAGE: &str = "\
usage: <experiment> [--quick | --standard | --full] [--jobs N] [--csv DIR] [--audit]
  --quick      smoke-test scale (seconds for the whole suite)
  --standard   the scale EXPERIMENTS.md records (default)
  --full       larger runs for tighter statistics
  --jobs N     worker threads for independent simulation cells
               (0 or omitted = one per available core)
  --csv DIR    also write each table as DIR/<name>.csv
  --audit      run every cell with the audit subsystem on and abort on any
               violation (results are identical; audits observe only)
  --resume     journal finished cells, one line each, and skip any cell the
               journal already holds (path: $IRORAM_RESUME_PATH, default
               iroram-resume.journal)
  --profile    time the simulator's steady-state phases (DRAM schedule,
               stash, posmap, LLC) and print a wall-time table to stderr;
               reports stay byte-identical
  --set K=V    override one scalar SystemConfig field in every cell
               (e.g. --set t_interval=2000; repeatable; applied after the
               scheme matrix, validated at parse time)
               --set checkpoint_interval=N snapshots the full simulation
               state every N path slots ($IRORAM_CHECKPOINT_DIR, default
               iroram-ckpt/), so a killed run restarted with the same
               arguments resumes each cell mid-run and finishes with
               byte-identical output; 0 (the default) disables it";

/// Scaling knobs for the experiments.
///
/// `quick()` shrinks everything for smoke tests and CI; `default()` is the
/// scale `EXPERIMENTS.md` reports; `full()` takes minutes per figure but
/// gets closer to the paper's statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpOptions {
    /// Memory operations replayed per timed run.
    pub mem_ops: u64,
    /// Tree height for timed (performance) runs.
    pub timed_levels: usize,
    /// Tree height for functional (utilization) studies.
    pub funct_levels: usize,
    /// Accesses per block for functional studies (the paper's 4 B accesses
    /// on 64 M blocks ≈ 60× its block count; we default lower).
    pub funct_accesses_per_block: u64,
    /// Random-trace repetitions where the paper averages several traces.
    pub random_trials: usize,
    /// Base seed.
    pub seed: u64,
    /// Worker threads for independent simulation cells; `0` means one per
    /// available core. Results are bit-identical for every value.
    pub jobs: usize,
    /// Run each timed cell with the audit subsystem enabled, aborting on
    /// the first cell reporting violations.
    pub audit: bool,
    /// Journal finished cells to [`resume_path`] and answer already-journaled
    /// cells from it, so an interrupted sweep can pick up where it died.
    pub resume: bool,
    /// Enable the wall-clock phase profiler (`iroram_sim_engine::profiler`)
    /// and print a phase table to stderr after the run. Never affects any
    /// report: profiling observes wall time only.
    pub profile: bool,
    /// `--set KEY=VALUE` overrides applied to every cell's [`SystemConfig`]
    /// (after the scheme matrix, in order). Keys are validated at parse
    /// time via [`SystemConfig::set_field`].
    pub overrides: Vec<(String, String)>,
}

impl ExpOptions {
    /// Tiny scale for smoke tests (seconds for the whole suite).
    pub fn quick() -> Self {
        ExpOptions {
            mem_ops: 4_000,
            timed_levels: 12,
            funct_levels: 11,
            funct_accesses_per_block: 4,
            random_trials: 2,
            seed: 0xE0,
            jobs: 0,
            audit: false,
            resume: false,
            profile: false,
            overrides: Vec::new(),
        }
    }

    /// The scale used for the recorded results.
    pub fn standard() -> Self {
        ExpOptions {
            mem_ops: 40_000,
            timed_levels: 17,
            funct_levels: 14,
            funct_accesses_per_block: 12,
            random_trials: 5,
            seed: 0xE0,
            jobs: 0,
            audit: false,
            resume: false,
            profile: false,
            overrides: Vec::new(),
        }
    }

    /// Larger runs for tighter statistics.
    pub fn full() -> Self {
        ExpOptions {
            mem_ops: 150_000,
            timed_levels: 17,
            funct_levels: 16,
            funct_accesses_per_block: 24,
            random_trials: 13,
            seed: 0xE0,
            jobs: 0,
            audit: false,
            resume: false,
            profile: false,
            overrides: Vec::new(),
        }
    }

    /// Parses the experiment CLI arguments, exiting with [`USAGE`] on
    /// anything unrecognized.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse(&args) {
            Ok(opts) => opts,
            Err(msg) => {
                eprintln!("error: {msg}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parses an argument list (`--quick`/`--standard`/`--full`, `--jobs N`,
    /// `--csv DIR`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unrecognized argument or
    /// malformed/missing flag value.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = ExpOptions::standard();
        let mut jobs: Option<usize> = None;
        let mut audit = false;
        let mut resume = false;
        let mut profile = false;
        let mut overrides: Vec<(String, String)> = Vec::new();
        // Scratch config for validating --set keys/values at parse time, so
        // a typo fails before any cell has simulated.
        let mut probe = SystemConfig::scaled(Scheme::Baseline);
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--audit" => audit = true,
                "--resume" => resume = true,
                "--profile" => profile = true,
                "--set" => {
                    i += 1;
                    let kv = args.get(i).ok_or("--set requires KEY=VALUE")?;
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("--set expects KEY=VALUE, got `{kv}`"))?;
                    probe.set_field(k, v)?;
                    overrides.push((k.to_owned(), v.to_owned()));
                }
                "--quick" => opts = ExpOptions::quick(),
                "--standard" => opts = ExpOptions::standard(),
                "--full" => opts = ExpOptions::full(),
                "--jobs" => {
                    i += 1;
                    let v = args.get(i).ok_or("--jobs requires a value")?;
                    jobs = Some(
                        v.parse::<usize>()
                            .map_err(|_| format!("--jobs expects a number, got `{v}`"))?,
                    );
                }
                s if s.starts_with("--jobs=") => {
                    let v = &s["--jobs=".len()..];
                    jobs = Some(
                        v.parse::<usize>()
                            .map_err(|_| format!("--jobs expects a number, got `{v}`"))?,
                    );
                }
                // The CSV directory itself is consumed by the binary
                // harness (`iroram_bench::csv_dir`); validate its presence
                // here so `--csv` without a directory fails loudly.
                "--csv" => {
                    i += 1;
                    if args.get(i).is_none() {
                        return Err("--csv requires a directory".to_owned());
                    }
                }
                other => return Err(format!("unrecognized argument `{other}`")),
            }
            i += 1;
        }
        if let Some(j) = jobs {
            opts.jobs = j;
        }
        opts.audit |= audit;
        opts.resume |= resume;
        opts.profile |= profile;
        opts.overrides = overrides;
        Ok(opts)
    }

    /// The worker count [`par_map`] will actually use: `jobs`, or one per
    /// available core when `jobs == 0`.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.jobs
        }
    }

    /// The timed-simulation system config for `scheme` at this scale,
    /// with the `--set` overrides applied.
    pub fn system(&self, scheme: Scheme) -> SystemConfig {
        self.with_overrides(self.scaled_system(scheme))
    }

    /// [`ExpOptions::system`] before the overrides, for a sweep that sets
    /// fields of its own per cell (Fig. 16's tree sizes) and then applies
    /// the overrides with [`ExpOptions::with_overrides`].
    pub(crate) fn scaled_system(&self, scheme: Scheme) -> SystemConfig {
        let mut cfg = SystemConfig::scaled(scheme);
        cfg.seed = self.seed;
        cfg.oram.seed = self.seed;
        if self.timed_levels != cfg.oram.levels {
            let levels = self.timed_levels;
            cfg.oram.levels = levels;
            cfg.oram.data_blocks = 1u64 << (levels + 1);
            cfg.oram.zalloc = ZAllocation::uniform(levels, 4);
            let top = (levels * 2 / 5).max(1);
            cfg.oram.treetop = TreeTopMode::Dedicated { levels: top };
            // Shrink the caches with the tree so miss behaviour scales,
            // but keep them big enough that workload hot sets stay resident
            // (tiny quick-scale caches would otherwise thrash).
            cfg.hierarchy =
                iroram_cache::HierarchyConfig::scaled((32usize << (17 - levels.min(17))).min(128));
            cfg.t_interval = SystemConfig::t_for(&cfg.oram);
        }
        cfg.audit = self.audit;
        cfg.with_scheme(scheme)
    }

    /// `cfg` with the `--set` overrides applied. Every cell's config goes
    /// through here last, so an override wins over any per-cell setting.
    pub(crate) fn with_overrides(&self, mut cfg: SystemConfig) -> SystemConfig {
        for (k, v) in &self.overrides {
            // Parse-time validation makes a failure here unreachable for
            // options built by `parse`; hand-built ExpOptions fail loudly.
            // lint: allow(panic, overrides are pre-validated by parse; invalid hand-built sets must abort)
            cfg.set_field(k, v)
                .unwrap_or_else(|e| panic!("invalid override: {e}"));
        }
        cfg
    }

    /// A functional-study ORAM config at this scale: `levels` high,
    /// `2^(levels+1)` data blocks (≈52% utilization), top ~40% of levels
    /// cached like the paper's 10-of-25.
    pub fn funct_oram(&self, zalloc_of: impl Fn(usize, usize) -> ZAllocation) -> OramConfig {
        let levels = self.funct_levels;
        let top = (levels * 2 / 5).max(1);
        OramConfig {
            levels,
            data_blocks: 1u64 << (levels + 1),
            zalloc: zalloc_of(levels, top),
            treetop: TreeTopMode::Dedicated { levels: top },
            stash_capacity: 200,
            plb_sets: 16,
            plb_ways: 4,
            remap: iroram_protocol::RemapPolicy::Immediate,
            max_bg_evicts_per_access: 8,
            encrypt_payloads: false,
            integrity: true,
            seed: self.seed,
        }
    }

    /// The run limit for timed simulations.
    pub fn limit(&self) -> RunLimit {
        RunLimit::mem_ops(self.mem_ops)
    }
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions::standard()
    }
}

/// Maps `f` over `items` on up to `jobs` worker threads, returning results
/// in input order.
///
/// This is the experiment engine's only parallel primitive. It guarantees
/// the output is **identical to the serial map for any worker count**: work
/// is distributed dynamically (an atomic cursor), but each result lands in
/// its input slot, and cells must not share mutable state (every simulation
/// cell seeds its own RNGs from its config).
///
/// # Panics
///
/// Propagates the first panic raised by `f` (after joining the pool).
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let f = &f;
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // Tolerate poisoned mutexes: if another worker's closure
                // panicked, the rest of the batch still completes, and
                // `thread::scope` re-raises the original panic afterwards.
                let item = work[i]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .expect("each cell claimed exactly once");
                let result = f(item);
                *out[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });
    out.into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Why a simulation cell failed, after any retries.
#[derive(Debug, Clone)]
pub struct CellError {
    /// Which cell: `"<scheme>/<bench>"`.
    pub cell: String,
    /// Human-readable failure description (the final attempt's).
    pub message: String,
    /// Whether the final error was a transient [`SimError`] (retries were
    /// exhausted) rather than a hard failure.
    pub transient: bool,
    /// Attempts consumed (1 = failed on the first try with no retry).
    pub attempts: u32,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} failed after {} attempt(s): {}",
            self.cell, self.attempts, self.message
        )
    }
}

/// One cell's result: the report, or a classified failure.
pub type CellOutcome = Result<SimReport, CellError>;

/// Runs one timed cell, catching panics and retrying transient
/// [`SimError`]s deterministically.
///
/// Each retry bumps [`iroram_sim_engine::FaultConfig::attempt`], which is
/// mixed into the fault plan's seed: the cell re-runs with a *fresh fault
/// stream* but everything else identical, which is the sound recovery for
/// modelled transient physical conditions (Path ORAM treats stash overflow
/// as probabilistic). With no active fault plan a retry would replay the
/// identical failure, so the cell fails immediately instead.
pub fn run_cell_checked(cfg: &SystemConfig, bench: Bench, limit: RunLimit) -> CellOutcome {
    run_cell_checked_at(cfg, bench, limit, None)
}

/// [`run_cell_checked`] with optional crash-consistent checkpointing: with
/// `Some(spec)` and `cfg.checkpoint_interval > 0` the cell snapshots its
/// state to `spec.path` and resumes from an existing matching snapshot. A
/// failed attempt deletes the snapshot before any retry — a retry models a
/// fresh fault stream, so resuming it from the failed attempt's mid-run
/// state would be unsound.
pub fn run_cell_checked_at(
    cfg: &SystemConfig,
    bench: Bench,
    limit: RunLimit,
    ckpt: Option<&CheckpointSpec>,
) -> CellOutcome {
    let cell = format!("{}/{}", cfg.scheme.name(), bench.name());
    let mut attempt: u32 = 0;
    loop {
        let mut acfg = cfg.clone();
        acfg.faults.attempt = cfg.faults.attempt + attempt;
        let run = catch_unwind(AssertUnwindSafe(|| try_run_cell(&acfg, bench, limit, ckpt)));
        let (message, transient) = match run {
            Ok(Ok(report)) => {
                // Cell done, report in hand: the last mid-run snapshot has
                // nothing left to resume.
                if let Some(spec) = ckpt {
                    let _ = std::fs::remove_file(&spec.path);
                }
                return Ok(report);
            }
            Ok(Err(e)) => (e.to_string(), e.is_transient()),
            Err(cause) => (panic_message(&cause), false),
        };
        if let Some(spec) = ckpt {
            let _ = std::fs::remove_file(&spec.path);
        }
        let retryable = transient && cfg.faults.is_active() && attempt < MAX_CELL_RETRIES;
        if !retryable {
            return Err(CellError {
                cell,
                message,
                transient,
                attempts: attempt + 1,
            });
        }
        attempt += 1;
    }
}

fn panic_message(cause: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = cause.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = cause.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_owned()
    }
}

fn try_run_cell(
    cfg: &SystemConfig,
    bench: Bench,
    limit: RunLimit,
    ckpt: Option<&CheckpointSpec>,
) -> Result<SimReport, SimError> {
    let gen = iroram_trace::WorkloadGen::for_bench(bench, cfg.data_blocks(), cfg.seed);
    let (report, audit) = Simulation::try_run_checkpointed(cfg, gen, limit, bench.name(), ckpt)?;
    if !cfg.audit {
        return Ok(report);
    }
    let audit = audit.expect("audit enabled in config");
    assert!(
        audit.is_clean(),
        "audit: {} violation(s) in {} on {} (first: {})",
        audit.violations,
        cfg.scheme.name(),
        bench.name(),
        audit.samples.first().map_or("<none>", String::as_str),
    );
    Ok(report)
}

/// The `--resume` journal path: [`RESUME_PATH_ENV`] if set, else
/// `iroram-resume.journal` in the working directory.
pub fn resume_path() -> PathBuf {
    // lint: allow(determinism, RESUME_PATH_ENV is the documented resume-journal knob; it picks a file path and cannot affect reported numbers)
    std::env::var_os(RESUME_PATH_ENV)
        .map_or_else(|| PathBuf::from("iroram-resume.journal"), PathBuf::from)
}

/// Opens the resume journal when `opts.resume` is set (announcing how many
/// cells it already holds and how many lines it skipped), or returns
/// `None`.
fn open_journal(opts: &ExpOptions) -> Option<Journal> {
    if !opts.resume {
        return None;
    }
    let path = resume_path();
    match Journal::open(&path) {
        Ok(j) => {
            if !j.is_empty() || j.skipped() > 0 {
                eprintln!(
                    "resume: {} finished cell(s) in {}, {} unreadable line(s) skipped",
                    j.len(),
                    j.path().display(),
                    j.skipped()
                );
            }
            Some(j)
        }
        Err(e) => {
            eprintln!(
                "resume: cannot open {}: {e}; journaling disabled",
                path.display()
            );
            None
        }
    }
}

/// The snapshot directory for checkpointed cells: [`CHECKPOINT_DIR_ENV`]
/// if set, else `iroram-ckpt` in the working directory.
pub fn checkpoint_dir() -> PathBuf {
    // lint: allow(determinism, CHECKPOINT_DIR_ENV is the documented snapshot-directory knob; it picks a file path and cannot affect reported numbers)
    std::env::var_os(CHECKPOINT_DIR_ENV).map_or_else(|| PathBuf::from("iroram-ckpt"), PathBuf::from)
}

/// The checkpoint spec for one cell, or `None` when the config disables
/// checkpointing (`checkpoint_interval == 0`) or the snapshot directory
/// cannot be created. The snapshot file is named by the cell fingerprint,
/// so concurrent cells never collide and a restart finds its own snapshot.
pub fn checkpoint_spec(cfg: &SystemConfig, fp: u64) -> Option<CheckpointSpec> {
    if cfg.checkpoint_interval == 0 {
        return None;
    }
    let dir = checkpoint_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!(
            "checkpoint: cannot create {}: {e}; checkpointing disabled",
            dir.display()
        );
        return None;
    }
    Some(CheckpointSpec {
        path: dir.join(format!("{fp:016x}.snap")),
        fingerprint: fp,
    })
}

/// The `IRORAM_ABORT_AFTER_CELLS` budget, if set to a number.
fn abort_budget() -> Option<usize> {
    // lint: allow(determinism, ABORT_AFTER_ENV is the documented CI kill switch; it aborts the process and never changes a completed run's output)
    std::env::var(ABORT_AFTER_ENV).ok()?.parse().ok()
}

/// The benchmark list used in the performance figures: Table II's thirteen
/// plus the `mix` bar.
pub fn perf_benches() -> Vec<Bench> {
    let mut v = iroram_trace::ALL_BENCHES.to_vec();
    v.push(Bench::Mix);
    v
}

/// Runs one scheme across `benches`, fanning the per-bench cells out over
/// [`ExpOptions::effective_jobs`] workers (journaled when `--resume` is on).
pub fn run_scheme(opts: &ExpOptions, scheme: Scheme, benches: &[Bench]) -> Vec<SimReport> {
    run_matrix(opts, &[scheme], benches).remove(0)
}

/// Runs the full `schemes × benches` product as one parallel batch,
/// returning reports indexed `[scheme][bench]`.
///
/// Prefer this over repeated [`run_scheme`] calls in figures that compare
/// schemes: the whole matrix becomes one pool of cells, so workers stay
/// busy across scheme boundaries.
///
/// With `--resume`, each finished cell is appended to the journal and any
/// cell the journal already holds is answered from it without simulating,
/// so a sweep killed mid-run and restarted produces output byte-identical
/// to an uninterrupted run.
///
/// # Panics
///
/// Panics with the cell's classified failure if a cell still fails after
/// its bounded retries (batch figures have no partial-output mode).
pub fn run_matrix(opts: &ExpOptions, schemes: &[Scheme], benches: &[Bench]) -> Vec<Vec<SimReport>> {
    // Batch figures have no partial-output mode: a cell that failed its
    // bounded retries must abort the whole figure, not publish a hole.
    // lint: allow(panic, documented batch-abort contract; the typed path is try_run_matrix)
    try_run_matrix(opts, schemes, benches).unwrap_or_else(|e| panic!("{e}"))
}

/// The fallible form of [`run_matrix`]: identical engine (same journal,
/// same fan-out, same abort budget), but a cell that still fails after its
/// bounded retries surfaces as the first [`CellError`] in input order
/// instead of panicking — for harnesses that want to report a failed sweep
/// without unwinding.
///
/// # Errors
///
/// Returns the first failing cell's [`CellError`] (input order, which is
/// deterministic for any `--jobs N`).
pub fn try_run_matrix(
    opts: &ExpOptions,
    schemes: &[Scheme],
    benches: &[Bench],
) -> Result<Vec<Vec<SimReport>>, CellError> {
    let configs: Vec<SystemConfig> = schemes.iter().map(|&s| opts.system(s)).collect();
    let cells: Vec<(usize, Bench)> = (0..schemes.len())
        .flat_map(|s| benches.iter().map(move |&b| (s, b)))
        .collect();
    let journal = open_journal(opts);
    let abort_after = journal.as_ref().and_then(|_| abort_budget());
    let journaled = AtomicUsize::new(0);
    let outcomes = par_map(opts.effective_jobs(), cells, |(s, b)| {
        let cfg = &configs[s];
        let fp = journal::fingerprint(cfg, b, opts.limit());
        if let Some(j) = &journal {
            if let Some(report) = j.lookup(fp) {
                return Ok(report);
            }
        }
        let ckpt = checkpoint_spec(cfg, fp);
        let report = run_cell_checked_at(cfg, b, opts.limit(), ckpt.as_ref())?;
        if let Some(j) = &journal {
            j.record(fp, &report);
            let n = journaled.fetch_add(1, Ordering::SeqCst) + 1;
            if abort_after.is_some_and(|budget| n >= budget) {
                eprintln!("aborting after {n} journaled cell(s) ({ABORT_AFTER_ENV})");
                std::process::exit(3);
            }
        }
        Ok(report)
    });
    let mut reports: Vec<SimReport> = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        reports.push(outcome?);
    }
    // The matrix completed: fold duplicate/stale journal lines down to one
    // line per cell. Failure keeps the (correct, append-only) journal.
    if let Some(j) = &journal {
        if let Err(e) = j.compact() {
            eprintln!("resume: journal compaction failed: {e}; journal kept as-is");
        }
    }
    let mut rows: Vec<Vec<SimReport>> = Vec::with_capacity(schemes.len());
    let mut it = reports.into_iter();
    for _ in 0..schemes.len() {
        rows.push(it.by_ref().take(benches.len()).collect());
    }
    Ok(rows)
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scales_are_ordered() {
        let q = ExpOptions::quick();
        let s = ExpOptions::standard();
        let f = ExpOptions::full();
        assert!(q.mem_ops < s.mem_ops && s.mem_ops < f.mem_ops);
        assert!(q.funct_levels <= s.funct_levels);
        assert!(s.random_trials < f.random_trials);
    }

    #[test]
    fn funct_config_is_valid() {
        let opts = ExpOptions::quick();
        let cfg = opts.funct_oram(|l, _| ZAllocation::uniform(l, 4));
        assert_eq!(cfg.validate(), Ok(()));
    }

    /// An inconsistent ORAM configuration is a typed, non-transient cell
    /// error, not a panic caught mid-construction.
    #[test]
    fn invalid_oram_config_is_a_cell_error() {
        let mut cfg = ExpOptions::quick().system(Scheme::Baseline);
        cfg.oram.data_blocks = cfg.oram.zalloc.total_slots() * 2;
        let e = run_cell_checked(&cfg, Bench::Mcf, RunLimit::mem_ops(100)).unwrap_err();
        assert!(
            e.message.starts_with("invalid ORAM configuration:"),
            "{}",
            e.message
        );
        assert!(!e.transient);
        assert_eq!(e.attempts, 1);
    }

    #[test]
    fn perf_benches_include_mix() {
        let b = perf_benches();
        assert_eq!(b.len(), 14);
        assert_eq!(*b.last().unwrap(), Bench::Mix);
    }

    #[test]
    fn parse_scales_and_jobs() {
        assert_eq!(
            ExpOptions::parse(&args(&[])).unwrap(),
            ExpOptions::standard()
        );
        assert_eq!(
            ExpOptions::parse(&args(&["--quick"])).unwrap(),
            ExpOptions::quick()
        );
        assert_eq!(
            ExpOptions::parse(&args(&["--full"])).unwrap(),
            ExpOptions::full()
        );
        let o = ExpOptions::parse(&args(&["--quick", "--jobs", "4"])).unwrap();
        assert_eq!(o.jobs, 4);
        assert_eq!(o.mem_ops, ExpOptions::quick().mem_ops);
        let o = ExpOptions::parse(&args(&["--jobs=8"])).unwrap();
        assert_eq!(o.jobs, 8);
        // Scale flags keep a previously parsed --jobs.
        let o = ExpOptions::parse(&args(&["--jobs", "3", "--quick"])).unwrap();
        assert_eq!((o.jobs, o.mem_ops), (3, ExpOptions::quick().mem_ops));
    }

    #[test]
    fn parse_audit_flag() {
        assert!(!ExpOptions::parse(&args(&[])).unwrap().audit);
        let o = ExpOptions::parse(&args(&["--audit"])).unwrap();
        assert!(o.audit);
        // Scale flags keep a previously parsed --audit.
        let o = ExpOptions::parse(&args(&["--audit", "--quick"])).unwrap();
        assert!(o.audit && o.mem_ops == ExpOptions::quick().mem_ops);
        // ...and it propagates into the cell configs.
        assert!(o.system(Scheme::Baseline).audit);
        assert!(!ExpOptions::quick().system(Scheme::IrOram).audit);
    }

    #[test]
    fn parse_profile_flag() {
        assert!(!ExpOptions::parse(&args(&[])).unwrap().profile);
        let o = ExpOptions::parse(&args(&["--profile"])).unwrap();
        assert!(o.profile);
        // Scale flags keep a previously parsed --profile.
        let o = ExpOptions::parse(&args(&["--profile", "--quick"])).unwrap();
        assert!(o.profile && o.mem_ops == ExpOptions::quick().mem_ops);
        // Profiling never reaches the simulated configuration: the cell
        // configs are identical with it on or off.
        let on = o.system(Scheme::Baseline);
        let off = ExpOptions::quick().system(Scheme::Baseline);
        assert_eq!(format!("{on:?}"), format!("{off:?}"));
    }

    #[test]
    fn parse_set_overrides() {
        let o = ExpOptions::parse(&args(&["--set", "t_interval=2000", "--set", "seed=7"])).unwrap();
        assert_eq!(
            o.overrides,
            vec![
                ("t_interval".to_owned(), "2000".to_owned()),
                ("seed".to_owned(), "7".to_owned())
            ]
        );
        let cfg = o.system(Scheme::Baseline);
        assert_eq!((cfg.t_interval, cfg.seed), (2000, 7));
        // Scale flags keep previously parsed --set overrides.
        let o = ExpOptions::parse(&args(&["--set", "ipc=2", "--quick"])).unwrap();
        assert_eq!(o.system(Scheme::IrOram).ipc, 2);
        // Bad key, bad value, and missing `=` all fail at parse time.
        assert!(ExpOptions::parse(&args(&["--set", "no_such=1"])).is_err());
        assert!(ExpOptions::parse(&args(&["--set", "seed=banana"])).is_err());
        assert!(ExpOptions::parse(&args(&["--set", "seed"])).is_err());
        assert!(ExpOptions::parse(&args(&["--set"])).is_err());
    }

    #[test]
    fn parse_rejects_unknown_and_malformed() {
        assert!(ExpOptions::parse(&args(&["--turbo"])).is_err());
        assert!(ExpOptions::parse(&args(&["quick"])).is_err());
        assert!(ExpOptions::parse(&args(&["--jobs"])).is_err());
        assert!(ExpOptions::parse(&args(&["--jobs", "many"])).is_err());
        assert!(ExpOptions::parse(&args(&["--csv"])).is_err());
        assert!(ExpOptions::parse(&args(&["--csv", "out"])).is_ok());
        assert!(ExpOptions::parse(&args(&["--set", "sched_threads=4"])).is_err());
        // Zeros the CPU model and the subtree layout cannot run with.
        for zero in ["rob_insts=0", "ipc=0", "mshrs=0", "subtree_group=0"] {
            assert!(
                ExpOptions::parse(&args(&["--set", zero])).is_err(),
                "{zero}"
            );
        }
    }

    #[test]
    fn effective_jobs_resolves_auto() {
        let mut o = ExpOptions::quick();
        o.jobs = 0;
        assert!(o.effective_jobs() >= 1);
        o.jobs = 7;
        assert_eq!(o.effective_jobs(), 7);
    }

    #[test]
    fn par_map_preserves_order_for_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = par_map(jobs, items.clone(), |x| x * x);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u64> = Vec::new();
        assert!(par_map(4, empty, |x: u64| x).is_empty());
        assert_eq!(par_map(4, vec![9u64], |x| x + 1), vec![10]);
    }
}
