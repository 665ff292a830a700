//! Criterion micro-benchmarks for the substrate crates: the hot kernels
//! every simulated path leans on (stash write-back planning, DRAM batch
//! scheduling, path request tables, path checksums, the payload Feistel
//! permutation).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use iroram_dram::{AddressMapping, DramConfig, DramSystem, Interleave, MemRequest, SubtreeLayout};
use iroram_hash::FeistelCipher;
use iroram_protocol::{Leaf, OramTree, Stash, StoredBlock, TreeLayout, WritebackPlan, ZAllocation};
use iroram_sim_engine::{Cycle, SimRng};

/// A mixed read/write batch with shuffled addresses (no subtree locality),
/// exercising the scheduler's queue handling rather than row-hit luck.
fn shuffled_batch(n: usize) -> Vec<MemRequest> {
    (0..n)
        .map(|i| {
            let addr = (i as u64).wrapping_mul(2_654_435_761) % 40_000;
            let arrival = Cycle((i as u64 * 7) % 50);
            if i % 3 == 0 {
                MemRequest::write(addr, arrival)
            } else {
                MemRequest::read(addr, arrival)
            }
        })
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
                let batch = shuffled_batch(n);
                b.iter(|| std::hint::black_box(dram.schedule_batch(&batch)))
            });
        }
    }
    // Intra-batch channel parallelism: the same 4-channel batch scheduled
    // with 1, 2, and 4 workers. The core clamp is disabled so each variant
    // measures the dispatch it names, even on a small host (on a 1-core box
    // t2/t4 show pure scoped-thread overhead — that is the point of the
    // comparison, and why `PARALLEL_MIN_BATCH` and the clamp exist).
    for threads in [1u32, 2, 4] {
        let n = 256usize;
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(&format!("t{threads}_ch4_n{n}"), |b| {
            let mut dram = DramSystem::new(DramConfig::default());
            dram.set_sched_threads(threads);
            dram.set_ignore_core_clamp(true);
            let batch = shuffled_batch(n);
            b.iter(|| std::hint::black_box(dram.schedule_batch(&batch)))
        });
    }
    g.finish();
}

/// The read-phase integrity kernel: per-bucket FNV folds of one path,
/// bucket-at-a-time (the pre-batching call shape from the controllers)
/// vs the arena-sequential whole-path kernel the read phase runs now.
fn bench_checksum_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("checksum_path");
    for levels in [12usize, 16, 20] {
        let layout = TreeLayout::new(ZAllocation::uniform(levels, 4));
        let tree = OramTree::new(layout.clone());
        let leaves = 1u64 << (levels - 1);
        g.throughput(Throughput::Elements(levels as u64));
        g.bench_function(&format!("bucket_at_a_time_L{levels}"), |b| {
            let mut leaf = 0u64;
            let mut out: Vec<u64> = Vec::with_capacity(levels);
            b.iter(|| {
                leaf = (leaf + 12_345) % leaves;
                out.clear();
                for level in 0..levels {
                    let bucket = layout.bucket_on_path(Leaf(leaf), level);
                    out.push(tree.bucket_sum(level, bucket));
                }
                std::hint::black_box(out.len())
            })
        });
        g.bench_function(&format!("batched_L{levels}"), |b| {
            let mut leaf = 0u64;
            let mut out: Vec<u64> = Vec::with_capacity(levels);
            b.iter(|| {
                leaf = (leaf + 12_345) % leaves;
                out.clear();
                tree.path_sums_into(Leaf(leaf), 0, &mut out);
                std::hint::black_box(out.len())
            })
        });
    }
    g.finish();
}

/// The payload permutation over one path's worth of blocks (`Z = 4` slots
/// per bucket): element-at-a-time `encrypt` calls vs the slice kernel.
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
        g.bench_function(&format!("batch_L{levels}"), |b| {
            let mut buf: Vec<u64> = (0..n as u64).collect();
            b.iter(|| {
                cipher.encrypt_slice(&mut buf);
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
            let reqs: Vec<MemRequest> = layout
                .path_slots(leaf, 0)
                .into_iter()
                .map(|a| MemRequest::read(a, Cycle(7)))
                .collect();
            std::hint::black_box(reqs)
        })
    });
    // The precomputed table fill the controllers run now.
    g.bench_function("path_table_fill", |b| {
        let table = layout.path_table(0);
        let mut buf: Vec<MemRequest> = Vec::new();
        let mut leaf = 0u64;
        b.iter(|| {
            leaf = (leaf + 12_345) % (1 << 16);
            table.fill_reads(leaf, 0, Cycle(7), &mut buf);
            std::hint::black_box(buf.len())
        })
    });
    g.finish();
}

fn filled_stash(rng: &mut SimRng, occupancy: u64) -> Stash {
    let mut s = Stash::new(occupancy as usize);
    for i in 0..occupancy {
        s.insert(StoredBlock {
            addr: iroram_protocol::BlockAddr(i),
            leaf: Leaf(rng.next_below(1 << 16)),
            payload: i,
        });
    }
    s
}

fn bench_stash(c: &mut Criterion) {
    let mut g = c.benchmark_group("stash");
    let layout = TreeLayout::new(ZAllocation::uniform(17, 4));
    // Occupancies straddling the soft capacity of 200: a lightly loaded
    // stash, the paper's configured size, and a deep over-capacity backlog
    // (background-eviction storms).
    for occupancy in [50u64, 200, 800] {
        g.bench_function(&format!("plan_writeback_{occupancy}"), |b| {
            let mut rng = SimRng::seed_from(9);
            b.iter_batched(
                || (filled_stash(&mut rng, occupancy), Leaf(rng.next_below(1 << 16))),
                |(mut s, leaf)| {
                    std::hint::black_box(s.plan_writeback(&layout, leaf, 0, |_, _| true))
                },
                BatchSize::SmallInput,
            )
        });
        // The allocation-free entry point the controller actually uses:
        // scratch and plan buffers persist across iterations.
        g.bench_function(&format!("plan_writeback_into_{occupancy}"), |b| {
            let mut rng = SimRng::seed_from(9);
            let mut plan = WritebackPlan::new();
            b.iter_batched(
                || (filled_stash(&mut rng, occupancy), Leaf(rng.next_below(1 << 16))),
                |(mut s, leaf)| {
                    s.plan_writeback_into(&layout, leaf, 0, |_, _| true, &mut plan);
                    std::hint::black_box(plan.total_planned())
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_schedule_batch, bench_checksum_path, bench_feistel, bench_path_requests, bench_stash
}
criterion_main!(micro);
