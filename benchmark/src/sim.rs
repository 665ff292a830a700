//! The simulator workloads: every scheme on three Table II benchmarks at
//! standard scale, one cell at a time on one thread.

use std::time::Instant;

use ir_oram::{RunLimit, Scheme, SimReport, SystemConfig, ALL_SCHEMES};
use iroram_experiments::{geomean, run_cell_checked, ExpOptions};
use iroram_hash::md5;
use iroram_sim_engine::profiler::{self, Phase};
use iroram_trace::Bench;

use crate::host::Paired;
use crate::report::{pct_of, pct_over, Outcome};
use crate::stats::{median, time_setups};
use crate::trace::SpanStore;

/// Passes every measurement makes at least, so each cell's report can be
/// compared with a repeat.
const MIN_PASSES: usize = 2;

/// What one simulator workload runs.
pub struct SimShape {
    opts: ExpOptions,
    schemes: Vec<Scheme>,
    benches: Vec<Bench>,
}

impl SimShape {
    /// All eight schemes on `benches` at standard scale (L=17, 40k
    /// mem-ops per cell), seeded with `seed`.
    pub fn standard(benches: &[Bench], seed: u64) -> Self {
        SimShape {
            opts: ExpOptions {
                seed,
                ..ExpOptions::standard()
            },
            schemes: ALL_SCHEMES.to_vec(),
            benches: benches.to_vec(),
        }
    }

    /// Baseline and IR-ORAM on the first of `benches`, a few hundred
    /// mem-ops on a 10-level tree: the smoke-test size.
    pub fn smoke(benches: &[Bench], seed: u64) -> Self {
        SimShape {
            opts: ExpOptions {
                seed,
                mem_ops: 300,
                timed_levels: 10,
                ..ExpOptions::quick()
            },
            schemes: vec![Scheme::Baseline, Scheme::IrOram],
            benches: benches[..1].to_vec(),
        }
    }
}

/// One (scheme, bench) cell and what its runs produced.
struct Cell {
    scheme: Scheme,
    bench: Bench,
    cfg: SystemConfig,
    /// The first successful run's report and digest; every later run must
    /// reproduce the digest.
    first: Option<(SimReport, [u8; 16])>,
    /// Wall time of each untraced run, with the reference kernel's.
    runs: Paired,
    /// Wall time of each traced run, with the reference kernel's.
    traced_runs: Paired,
}

/// Runs one simulator workload: set-up, then an untraced measurement of
/// `seconds`; with `trace`, an untraced and a traced one of half as long
/// each.
pub fn run(
    workload: &'static str,
    shape: &SimShape,
    seconds: f64,
    trace: Option<&mut SpanStore>,
) -> Outcome {
    let mut out = Outcome::new(workload);
    let mut cells: Vec<Cell> = shape
        .schemes
        .iter()
        .flat_map(|&scheme| {
            shape.benches.iter().map(move |&bench| Cell {
                scheme,
                bench,
                cfg: shape.opts.system(scheme),
                first: None,
                runs: Paired::default(),
                traced_runs: Paired::default(),
            })
        })
        .collect();

    // Set-up: build every scheme's simulator (a one-mem-op run), twice
    // before the measurement and once after, so one slow spell of the host
    // cannot move the median.
    let setup = |out: &mut Outcome| {
        for &scheme in &shape.schemes {
            out.attempted += 1;
            let cfg = shape.opts.system(scheme);
            if run_cell_checked(&cfg, shape.benches[0], RunLimit::mem_ops(1)).is_err() {
                out.failed += 1;
            }
        }
    };
    let (mut setup_times, ()) = time_setups(2, 0.5, || setup(&mut out));

    let limit = shape.opts.limit();
    let seconds = if trace.is_some() {
        seconds / 2.0
    } else {
        seconds
    };
    let passes = measure(
        &mut cells,
        limit,
        seconds,
        &mut SpanStore::disabled(),
        false,
        &mut out,
    );
    let reports: Vec<&SimReport> = cells
        .iter()
        .filter_map(|c| c.first.as_ref().map(|f| &f.0))
        .collect();
    out.check("every cell completed", reports.len() == cells.len());
    if reports.len() < cells.len() {
        return out;
    }

    let (ops_per_s, unscaled) = pass_rates(&cells, |c| &c.runs, limit);
    out.set("ops_per_s", ops_per_s);
    out.set("bench.unscaled_ops_per_s", unscaled);
    let slowdowns: Vec<f64> = cells.iter().flat_map(|c| c.runs.slowdowns()).collect();
    out.set("bench.host_slowdown", median(&slowdowns));
    out.set("bench.passes", passes as f64);
    counts(&mut out, &cells, &reports, limit);

    if let Some(store) = trace {
        profiler::reset();
        profiler::set_enabled(true);
        measure(&mut cells, limit, seconds, store, true, &mut out);
        profiler::set_enabled(false);
        let phases = profiler::snapshot();
        let secs = |p: Phase| phases[p as usize].seconds();
        let cell_s = store.seconds("cell");
        let phase_s: f64 = phases.iter().map(|p| p.seconds()).sum();
        for (name, pct, s) in [
            (
                "dram-sim.sched_s",
                "dram-sim.sched_pct",
                secs(Phase::DramSchedule),
            ),
            (
                "oram-protocol.stash_s",
                "oram-protocol.stash_pct",
                secs(Phase::Stash),
            ),
            (
                "oram-protocol.posmap_s",
                "oram-protocol.posmap_pct",
                secs(Phase::PosMap),
            ),
            ("cache-sim.llc_s", "cache-sim.llc_pct", secs(Phase::Llc)),
            ("oram-ctrl.self_s", "oram-ctrl.self_pct", cell_s - phase_s),
        ] {
            out.set(name, s);
            out.set(pct, pct_of(s, cell_s));
        }
        let (traced_ops_per_s, _) = pass_rates(&cells, |c| &c.traced_runs, limit);
        let overhead = pct_over(ops_per_s, traced_ops_per_s);
        out.set("bench.trace_overhead_pct", overhead);
        out.notes
            .push(format!("bench.trace_overhead_pct.ops_per_s {overhead} %"));
    }

    setup_times.extend(time_setups(1, 0.25, || setup(&mut out)).0);
    out.set("setup_s", median(&setup_times.scaled_secs()));
    out.set("bench.unscaled_setup_s", median(setup_times.secs()));
    out
}

/// `(scaled, unscaled)` mem-ops per second over one pass of each cell's
/// median run; scaled, each run's time is first divided by the host's
/// slowdown right after it. Every run of a cell does identical work.
fn pass_rates(cells: &[Cell], runs: fn(&Cell) -> &Paired, limit: RunLimit) -> (f64, f64) {
    let mem_ops = limit.mem_ops as f64 * cells.len() as f64;
    let scaled: f64 = cells.iter().map(|c| median(&runs(c).scaled_secs())).sum();
    let unscaled: f64 = cells.iter().map(|c| median(runs(c).secs())).sum();
    (mem_ops / scaled, mem_ops / unscaled)
}

/// Runs whole passes over the cells, one cell at a time, until `seconds`
/// have passed (a pass starts only if it would end within half a pass of
/// the deadline), and checks every report against the cell's first.
/// Returns the number of passes.
fn measure(
    cells: &mut [Cell],
    limit: RunLimit,
    seconds: f64,
    store: &mut SpanStore,
    traced: bool,
    out: &mut Outcome,
) -> usize {
    let start = Instant::now();
    let mut identical = true;
    let mut passes = 0;
    store.enter("workload");
    loop {
        let pass_start = Instant::now();
        store.enter("pass");
        for cell in cells.iter_mut() {
            out.attempted += limit.mem_ops;
            store.enter("cell");
            let t0 = Instant::now();
            let result = run_cell_checked(&cell.cfg, cell.bench, limit);
            let wall = t0.elapsed().as_secs_f64();
            store.exit();
            let Ok(report) = result else {
                out.failed += limit.mem_ops;
                continue;
            };
            let digest = md5(format!("{report:?}").as_bytes());
            match &cell.first {
                None => cell.first = Some((report, digest)),
                Some((_, d)) if *d != digest => {
                    identical = false;
                    out.failed += limit.mem_ops;
                }
                Some(_) => {}
            }
            let runs = if traced {
                &mut cell.traced_runs
            } else {
                &mut cell.runs
            };
            runs.push(limit.mem_ops as f64, wall);
        }
        store.exit();
        passes += 1;
        let pass_s = pass_start.elapsed().as_secs_f64();
        if passes >= MIN_PASSES && start.elapsed().as_secs_f64() + pass_s / 2.0 >= seconds {
            break;
        }
    }
    store.exit();
    out.check(
        if traced {
            "traced reports identical to untraced"
        } else {
            "reports identical across passes"
        },
        identical,
    );
    passes
}

/// Per-layer counts over one pass of reports (main and ρ small trees).
fn counts(out: &mut Outcome, cells: &[Cell], reports: &[&SimReport], limit: RunLimit) {
    let sum = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    let both = |f: fn(&iroram_protocol::ProtocolStats) -> u64| {
        move |r: &SimReport| f(&r.protocol) + r.protocol_small.as_ref().map_or(0, f)
    };
    let mem_ops = sum(&|r| r.mem_ops);
    out.check(
        "every report covers its mem-ops",
        reports.iter().all(|r| r.mem_ops == limit.mem_ops),
    );
    let per_op = |n: u64| n as f64 / mem_ops as f64;
    out.set("paths_per_op", per_op(sum(&|r| r.total_paths())));
    out.set(
        "oram-protocol.pt_p_paths_per_op",
        per_op(sum(&both(|p| p.posmap_paths()))),
    );
    out.set(
        "oram-protocol.pt_d_paths_per_op",
        per_op(sum(&both(|p| p.data_paths))),
    );
    out.set(
        "oram-protocol.pt_m_paths_per_op",
        per_op(sum(&both(|p| p.dummy_paths))),
    );
    out.set(
        "oram-protocol.bg_paths_per_op",
        per_op(sum(&both(|p| p.bg_evict_paths))),
    );
    let peak = reports
        .iter()
        .map(|r| r.stash.max_occupancy)
        .max()
        .unwrap_or(0);
    out.set("oram-protocol.stash_peak", peak as f64);
    out.set(
        "oram-ctrl.useful_slot_ratio",
        sum(&|r| r.slots.real_slots) as f64 / sum(&|r| r.slots.total_slots) as f64,
    );
    out.set(
        "oram-ctrl.dwb_converted_slots",
        sum(&|r| r.slots.converted_slots) as f64,
    );
    out.set(
        "oram-ctrl.degraded_slots",
        sum(&|r| r.stash.degraded_slots) as f64,
    );
    let requests = sum(&|r| r.dram.requests);
    out.set("dram-sim.requests_per_op", per_op(requests));
    out.set(
        "dram-sim.row_hit_ratio",
        sum(&|r| r.dram.row_hits) as f64 / requests as f64,
    );
    out.set(
        "cache-sim.llc_misses_per_op",
        per_op(sum(&|r| r.hierarchy.misses)),
    );
    out.set(
        "cache-sim.dirty_writebacks_per_op",
        per_op(sum(&|r| r.hierarchy.dirty_writebacks)),
    );
    out.set("sim.cycles_per_mem_op", per_op(sum(&|r| r.cycles)));

    let cycles = |scheme: Scheme, bench: Bench| {
        cells
            .iter()
            .zip(reports)
            .find(|(c, _)| c.scheme == scheme && c.bench == bench)
            .map(|(_, r)| r.cycles as f64)
    };
    let speedups: Vec<f64> = cells
        .iter()
        .filter(|c| c.scheme == Scheme::Baseline)
        .filter_map(|c| Some(cycles(Scheme::Baseline, c.bench)? / cycles(Scheme::IrOram, c.bench)?))
        .collect();
    out.set("sim.ir_oram_speedup", geomean(&speedups));
}
