//! Intra-run parallelism determinism: `--jobs` (cell-parallel experiment
//! workers) must be invisible in every reported number, and the DRAM
//! scheduler's per-channel queues must reproduce the reference scheduler
//! on batches that keep every channel busy at once.
//!
//! Each simulation cell runs on one thread — DRAM scheduling included —
//! so the worker count of `--jobs` is the only host parallelism inside a
//! sweep. This suite pins the full scheme grid against it: every scheme
//! reports byte-identically at `jobs ∈ {1, 2, 4}`, and random uniform
//! batches far larger than one ORAM path produce the reference scheduler's
//! exact done times, stats and state at 2, 4 and 8 channels.

use ir_oram::ALL_SCHEMES;
use iroram_dram::{AddressMapping, DramConfig, DramSystem, Interleave};
use iroram_experiments::runner::{run_scheme, ExpOptions};
use iroram_sim_engine::{Cycle, SnapWriter};
use iroram_trace::Bench;
use proptest::prelude::*;

const BENCHES: [Bench; 2] = [Bench::Mcf, Bench::Gcc];

/// A small-but-real scale at `jobs` cell workers.
fn tiny_opts(jobs: usize) -> ExpOptions {
    let mut o = ExpOptions::quick();
    o.mem_ops = 1_500;
    o.timed_levels = 10;
    o.jobs = jobs;
    o
}

#[test]
fn every_scheme_reports_identically_at_any_thread_and_job_count() {
    for scheme in ALL_SCHEMES {
        // SimReport intentionally has no PartialEq; the Debug form covers
        // every field of every nested stats struct.
        let baseline = format!("{:?}", run_scheme(&tiny_opts(1), scheme, &BENCHES));
        // `jobs` is the worker-thread count of the cell pool.
        for jobs in [2usize, 4] {
            let got = format!("{:?}", run_scheme(&tiny_opts(jobs), scheme, &BENCHES));
            assert_eq!(baseline, got, "{} diverged at jobs={jobs}", scheme.name());
        }
    }
}

/// `splitmix64`: tiny, seedable, and good enough to scatter addresses.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A batch of exactly `n` lines whose addresses, direction and arrival
/// come from `seed`.
fn random_batch(seed: &mut u64, n: usize) -> (Vec<u64>, bool, Cycle) {
    let lines = (0..n).map(|_| splitmix(seed) % 50_000).collect();
    let is_write = splitmix(seed) & 1 == 1;
    (lines, is_write, Cycle(splitmix(seed) % 4_000))
}

fn snapshot(d: &DramSystem) -> Vec<u8> {
    let mut w = SnapWriter::new();
    d.save_state(&mut w);
    w.into_bytes()
}

/// Smallest batch the proptest draws: above the largest single-path batch
/// the timed controllers issue, so every channel's queue holds many
/// requests for FR-FCFS to reorder.
const MIN_BATCH: usize = 64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_batches_match_the_reference_scheduler(
        extra in 0usize..192,
        channels_pick in 0usize..3,
        seed in any::<u64>(),
    ) {
        let channels = [2u32, 4, 8][channels_pick];
        let cfg = DramConfig {
            mapping: AddressMapping::new(channels, 8, 128, Interleave::CacheLine),
            ..DramConfig::default()
        };
        let mut fast = DramSystem::new(cfg);
        let mut naive = DramSystem::new(cfg);
        let mut stream = seed;
        let n = MIN_BATCH + extra;
        for _ in 0..3 {
            let (lines, is_write, at) = random_batch(&mut stream, n);
            let naive_done = naive.schedule_lines_reference(&lines, is_write, at);
            prop_assert_eq!(fast.schedule_lines(lines, is_write, at), naive_done);
            prop_assert_eq!(fast.stats(), naive.stats());
            prop_assert_eq!(fast.latency_underflows(), naive.latency_underflows());
            prop_assert_eq!(snapshot(&fast), snapshot(&naive));
        }
    }
}
