//! Criterion micro-benchmarks for the substrate crates: the hot kernels
//! every simulated path leans on (stash write-back planning, DRAM batch
//! and path scheduling, path request tables, the payload Feistel
//! permutation) and the standard-scale ORAM construction every simulator
//! cell starts with.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use iroram_dram::{AddressMapping, DramConfig, DramSystem, Interleave, SubtreeLayout};
use iroram_hash::FeistelCipher;
use iroram_protocol::{
    BlockAddr, ChipBoundary, Leaf, OramConfig, PathOram, Stash, StoredBlock, TreeLayout,
    WritebackPlan, ZAllocation,
};
use iroram_sim_engine::{Cycle, SimRng, SnapReader, SnapWriter};

/// `n` shuffled lines (no subtree locality), exercising the scheduler's
/// queue handling rather than row-hit luck.
fn shuffled_lines(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(2_654_435_761) % 40_000)
        .collect()
}

fn bench_schedule_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("schedule_batch");
    for channels in [1u32, 2, 4] {
        for n in [16usize, 64, 256] {
            g.throughput(Throughput::Elements(n as u64));
            g.bench_function(&format!("ch{channels}_n{n}"), |b| {
                let cfg = DramConfig {
                    mapping: AddressMapping::new(channels, 8, 128, Interleave::CacheLine),
                    ..DramConfig::default()
                };
                let mut dram = DramSystem::new(cfg);
                let lines = shuffled_lines(n);
                // Reads and writes alternate, so every batch turns the bus.
                let mut is_write = false;
                b.iter(|| {
                    is_write = !is_write;
                    std::hint::black_box(dram.schedule_lines(
                        lines.iter().copied(),
                        is_write,
                        Cycle(0),
                    ))
                })
            });
        }
    }
    // What the serial controller submits: one L=17 path read (40 lines
    // under a 7-level tree top, the default system), then its write-back
    // once the read is done, the next path a slot later. `batches` runs
    // the two halves as separate batches, as the pipelined controller
    // does, `path` through the path entry point, as the serial one does;
    // compare the two within one run of this binary.
    let layout = SubtreeLayout::new(&[0, 0, 0, 0, 0, 0, 0, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4], 4);
    let table = layout.path_table(0);
    g.throughput(Throughput::Elements(
        2 * layout.path_slots(0, 0).len() as u64,
    ));
    for via_path in [false, true] {
        let name = if via_path { "path" } else { "batches" };
        g.bench_function(&format!("L17_read_writeback_{name}"), |b| {
            let mut dram = DramSystem::new(DramConfig::default());
            let (mut leaf, mut at) = (0u64, Cycle(0));
            b.iter(|| {
                leaf = (leaf + 12_345) % (1 << 16);
                let read_done = if via_path {
                    dram.schedule_path(table.lines(leaf, 0), at).0
                } else {
                    let read_done = dram.schedule_lines(table.lines(leaf, 0), false, at);
                    dram.schedule_lines(table.lines(leaf, 0), true, read_done);
                    read_done
                };
                at = (at + 300).max(read_done);
                std::hint::black_box(at)
            })
        });
    }
    g.finish();
}

/// The payload permutation over one path's worth of blocks (`Z = 4` slots
/// per bucket), one `encrypt` call per block.
fn bench_feistel(c: &mut Criterion) {
    let mut g = c.benchmark_group("feistel");
    for levels in [12usize, 16, 20] {
        let n = 4 * levels;
        let cipher = FeistelCipher::new(42);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(&format!("scalar_L{levels}"), |b| {
            let mut buf: Vec<u64> = (0..n as u64).collect();
            b.iter(|| {
                for v in buf.iter_mut() {
                    *v = cipher.encrypt(*v);
                }
                std::hint::black_box(buf[0])
            })
        });
    }
    g.finish();
}

fn bench_path_requests(c: &mut Criterion) {
    let mut g = c.benchmark_group("path_requests");
    let layout = SubtreeLayout::new(&[0, 0, 0, 0, 0, 0, 0, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4], 4);
    let path_len = layout.path_slots(0, 0).len() as u64;
    g.throughput(Throughput::Elements(path_len));
    // The per-access allocation path the controllers used to run.
    g.bench_function("path_slots_collect", |b| {
        let mut leaf = 0u64;
        b.iter(|| {
            leaf = (leaf + 12_345) % (1 << 16);
            std::hint::black_box(layout.path_slots(leaf, 0))
        })
    });
    // The precomputed table fill the controllers run now.
    g.bench_function("path_table_fill", |b| {
        let table = layout.path_table(0);
        let mut buf: Vec<u64> = Vec::new();
        let mut leaf = 0u64;
        b.iter(|| {
            leaf = (leaf + 12_345) % (1 << 16);
            buf.clear();
            buf.extend(table.lines(leaf, 0));
            std::hint::black_box(buf.len())
        })
    });
    g.finish();
}

/// The snapshot of a stash holding `occupancy` residents at addresses
/// `0..occupancy`, each mapped to a random leaf of the L=17 tree.
fn filled_stash(rng: &mut SimRng, occupancy: u64) -> Vec<u8> {
    let mut s = Stash::new(occupancy as usize);
    for i in 0..occupancy {
        s.insert(StoredBlock {
            addr: BlockAddr(i),
            leaf: Leaf(rng.next_below(1 << 16)),
            payload: i,
        });
    }
    let mut w = SnapWriter::new();
    s.save_state(&mut w);
    w.into_bytes()
}

/// A path read to `leaf` of the L=17, Z=4 tree: `len` blocks filling the
/// buckets of the deepest levels, four apiece, each mapped to a leaf under
/// its bucket, with addresses from `first_addr` up. The buckets come root
/// first, in the order `PathOram::path_access` reads them.
fn read_path(rng: &mut SimRng, leaf: Leaf, len: u64, first_addr: u64) -> Vec<StoredBlock> {
    (0..len)
        .map(|i| {
            let below = (len - 1 - i) / 4;
            StoredBlock {
                addr: BlockAddr(first_addr + i),
                leaf: Leaf((leaf.0 >> below << below) | rng.next_below(1 << below)),
                payload: i,
            }
        })
        .collect()
}

fn bench_stash(c: &mut Criterion) {
    let mut g = c.benchmark_group("stash");
    let layout = TreeLayout::new(ZAllocation::uniform(17, 4));
    // Resident occupancies from none through the soft capacity of 200 to
    // a deep over-capacity backlog (background-eviction storms), each
    // planned together with a 40-block path the way a path access does.
    // A plan keys only the residents near the path's leaf, so its time
    // should grow far slower than the occupancy. One stash and one plan
    // serve every iteration, so their scratch is warm; refilling the
    // stash from one of 16 prepared cases (which sorts the residents by
    // leaf) is not timed, only the plan is.
    for occupancy in [0u64, 50, 200, 800] {
        g.bench_function(&format!("plan_writeback_{occupancy}"), |b| {
            let mut rng = SimRng::seed_from(9);
            let cases: Vec<(Vec<u8>, Leaf, Vec<StoredBlock>)> = (0..16)
                .map(|_| {
                    let leaf = Leaf(rng.next_below(1 << 16));
                    let path = read_path(&mut rng, leaf, 40, occupancy);
                    (filled_stash(&mut rng, occupancy), leaf, path)
                })
                .collect();
            let mut s = Stash::new(occupancy as usize);
            let mut plan = WritebackPlan::new();
            b.iter_custom(|iters| {
                let mut timed = Duration::ZERO;
                for (residents, leaf, path) in cases.iter().cycle().take(iters as usize) {
                    s.restore_state(&mut SnapReader::new(residents), &layout)
                        .expect("prepared stash snapshot");
                    let start = Instant::now();
                    s.hold_path(path);
                    s.plan_writeback(
                        &layout,
                        *leaf,
                        0,
                        path,
                        ChipBoundary::PLAINTEXT,
                        |_, _| true,
                        &mut plan,
                    );
                    std::hint::black_box(plan.total_planned());
                    timed += start.elapsed();
                }
                timed
            })
        });
    }
    g.finish();
}

/// Building the L=17 Baseline ORAM (`OramConfig::scaled_default`), the
/// set-up every standard-scale simulator cell pays: the shuffle, the
/// PosMap draw and the by-subtree insert pass on every core. Dropping the
/// ORAM is not timed.
fn bench_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("construction");
    let cfg = OramConfig::scaled_default();
    g.throughput(Throughput::Elements(cfg.total_blocks()));
    g.bench_function("path_oram_new_L17", |b| {
        b.iter_custom(|iters| {
            let mut timed = Duration::ZERO;
            for _ in 0..iters {
                let start = Instant::now();
                let oram = std::hint::black_box(PathOram::new(cfg.clone()));
                timed += start.elapsed();
                drop(oram);
            }
            timed
        })
    });
    g.finish();
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_schedule_batch, bench_feistel, bench_path_requests, bench_stash, bench_construction
}
criterion_main!(micro);
