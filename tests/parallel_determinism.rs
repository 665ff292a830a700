//! Parallel-engine determinism regression: running the experiment matrix
//! with any `--jobs` value must reproduce the serial results bit for bit.
//! `--jobs` is the only parallelism inside a sweep: each simulation cell
//! itself (DRAM scheduling included) runs on one thread.
//!
//! Every simulation cell derives all of its randomness from its own config
//! seed, so the worker count can only change scheduling, never results.
//! These tests pin that contract — including the rendered CSV bytes, which
//! is what the recorded experiment outputs are built from.

use ir_oram::{Scheme, SimReport};
use iroram_experiments::render::Table;
use iroram_experiments::runner::{par_map, run_matrix, run_scheme, ExpOptions};
use iroram_trace::Bench;

/// A small-but-real scale: full protocol, two schemes, three benchmarks.
fn tiny_opts(jobs: usize) -> ExpOptions {
    let mut o = ExpOptions::quick();
    o.mem_ops = 1_500;
    o.timed_levels = 10;
    o.jobs = jobs;
    o
}

const SCHEMES: [Scheme; 2] = [Scheme::Baseline, Scheme::IrOram];
const BENCHES: [Bench; 3] = [Bench::Mcf, Bench::Xz, Bench::Gcc];

/// Renders a matrix of reports the way the experiment tables do, so the
/// comparison covers the exact bytes that end up in CSV files.
fn to_csv(rows: &[Vec<SimReport>]) -> String {
    let mut headers = vec!["Bench".to_owned()];
    headers.extend(SCHEMES.iter().map(|s| s.name().to_owned()));
    let mut t = Table::new("determinism probe", headers);
    for (b, bench) in BENCHES.iter().enumerate() {
        let mut row = vec![bench.name().to_owned()];
        for row_reports in rows {
            let r = &row_reports[b];
            row.push(format!(
                "{}:{}:{}:{}:{}",
                r.cycles,
                r.mem_ops,
                r.protocol.total_paths(),
                r.dram.requests,
                r.protocol.blocks_to_memory,
            ));
        }
        t.row(row);
    }
    t.to_csv()
}

#[test]
fn matrix_is_identical_serial_and_parallel() {
    let serial = run_matrix(&tiny_opts(1), &SCHEMES, &BENCHES);
    let par4 = run_matrix(&tiny_opts(4), &SCHEMES, &BENCHES);
    // SimReport intentionally has no PartialEq; the Debug form covers every
    // field of every nested stats struct.
    assert_eq!(
        format!("{serial:?}"),
        format!("{par4:?}"),
        "--jobs 4 must reproduce serial reports bit for bit"
    );
    assert_eq!(to_csv(&serial), to_csv(&par4), "CSV bytes must match");
}

#[test]
fn oversubscribed_workers_change_nothing() {
    // More workers than cells exercises the pool's tail handling.
    let serial = run_matrix(&tiny_opts(1), &SCHEMES, &BENCHES);
    let par32 = run_matrix(&tiny_opts(32), &SCHEMES, &BENCHES);
    assert_eq!(format!("{serial:?}"), format!("{par32:?}"));
}

#[test]
fn run_scheme_is_identical_serial_and_parallel() {
    for scheme in SCHEMES {
        let serial = run_scheme(&tiny_opts(1), scheme, &BENCHES);
        let par = run_scheme(&tiny_opts(3), scheme, &BENCHES);
        assert_eq!(format!("{serial:?}"), format!("{par:?}"), "{scheme:?}");
    }
}

#[test]
fn par_map_order_is_input_order() {
    let got = par_map(5, (0..100u64).collect::<Vec<_>>(), |x| x * 3 + 1);
    let expect: Vec<u64> = (0..100).map(|x| x * 3 + 1).collect();
    assert_eq!(got, expect);
}
