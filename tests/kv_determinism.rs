//! The KV service determinism contract: a fixed seed produces
//! byte-identical replies, per-shard ORAM reports, and logical contents
//! at *any* worker count. `workers <= 1` is the serial reference twin;
//! threaded runs must match it exactly, because operations are
//! partitioned to shards before any worker runs and each shard's state
//! is private to it.

use iroram_kv::{FlushOutcome, KvConfig, KvOp, KvService, PROBES};
use iroram_sim_engine::SimRng;

/// A mixed workload: load phase then skewed gets/puts/deletes.
fn drive(workers: usize) -> (Vec<FlushOutcome>, KvService) {
    let mut cfg = KvConfig::for_keys(2_000, 4);
    cfg.workers = workers;
    cfg.batch_ops = 16;
    let mut kv = KvService::new(cfg);
    let mut rng = SimRng::seed_from(0xDE7E_2412);
    let mut outcomes = Vec::new();
    // Load.
    for k in 1..=1_500u32 {
        kv.submit(KvOp::Put {
            key: k,
            value: k.wrapping_mul(31),
        })
        .unwrap();
    }
    outcomes.push(kv.flush());
    // Mixed phases.
    for _ in 0..3 {
        for _ in 0..600 {
            let key = 1 + rng.next_below(2_000) as u32;
            let op = match rng.next_below(10) {
                0..=4 => KvOp::Get { key },
                5..=8 => KvOp::Put {
                    key,
                    value: rng.next_u64() as u32,
                },
                _ => KvOp::Delete { key },
            };
            kv.submit(op).unwrap();
        }
        outcomes.push(kv.flush());
    }
    (outcomes, kv)
}

#[test]
fn replies_reports_and_contents_are_identical_at_any_worker_count() {
    let (ref_outcomes, mut ref_kv) = drive(1);
    let ref_reports = ref_kv.reports();
    let ref_dump = ref_kv.dump();
    for workers in [2, 3, 4, 8] {
        let (outcomes, mut kv) = drive(workers);
        for (i, (a, b)) in ref_outcomes.iter().zip(&outcomes).enumerate() {
            assert_eq!(a.replies, b.replies, "flush {i} replies, workers={workers}");
            assert_eq!(
                a.shard_ops, b.shard_ops,
                "flush {i} shard op partition, workers={workers}"
            );
        }
        // Per-shard reports carry the full ORAM protocol counters: any
        // scheduling leak into protocol state shows up here.
        assert_eq!(ref_reports, kv.reports(), "reports, workers={workers}");
        assert_eq!(ref_dump, kv.dump(), "contents, workers={workers}");
    }
}

#[test]
fn clock_injection_changes_no_deterministic_output() {
    let run = |clocked: bool| {
        let mut cfg = KvConfig::for_keys(1_000, 2);
        cfg.workers = 2;
        let mut kv = KvService::new(cfg);
        for k in 1..=800u32 {
            kv.submit(KvOp::Put {
                key: k,
                value: k ^ 0xABCD,
            })
            .unwrap();
        }
        for k in 1..=400u32 {
            kv.submit(KvOp::Get { key: k * 2 }).unwrap();
        }
        // A fake monotone clock stands in for wall time: deterministic
        // here, but exercising the exact code path kv_bench uses.
        let counter = std::sync::atomic::AtomicU64::new(0);
        let clock = move || counter.fetch_add(3, std::sync::atomic::Ordering::Relaxed);
        let outcome = if clocked {
            kv.flush_with_clock(Some(&clock))
        } else {
            kv.flush()
        };
        (outcome, kv.reports())
    };
    let (clocked, clocked_reports) = run(true);
    let (plain, plain_reports) = run(false);
    assert_eq!(clocked.replies, plain.replies);
    assert_eq!(clocked_reports, plain_reports);
    // And the clocked run actually measured something.
    assert!(clocked.latencies.iter().any(|&l| l > 0));
    assert!(clocked.shard_busy.iter().any(|&b| b > 0));
    assert!(plain.latencies.iter().all(|&l| l == 0));
}

#[test]
fn shard_partition_is_submission_time_stable() {
    // The same ops submitted in a different interleaving still land on
    // the same shards with the same per-shard order (sequence numbers
    // differ, shard-local op order of any single shard does not change
    // relative order of its own ops).
    let mut kv = KvService::new(KvConfig::for_keys(1_000, 4));
    let mut seqs = Vec::new();
    for k in 1..=100u32 {
        seqs.push(kv.submit(KvOp::Put { key: k, value: k }).unwrap());
    }
    let shard_ops = kv.flush().shard_ops;
    assert_eq!(shard_ops.iter().sum::<u64>(), 100);
    assert!(
        shard_ops.iter().filter(|&&n| n > 0).count() > 1,
        "directory must actually spread keys: {shard_ops:?}"
    );
    assert_eq!(seqs, (0..100).collect::<Vec<u64>>());
}

/// PosMap (`PT_p`) traffic must not depend on which keys are accessed.
/// With a PLB that covers each shard's whole position map and is warmed
/// at construction, a hammered hot key and a stream of uniform cold keys
/// both take zero PosMap paths from the very first op; with a small PLB
/// the hot key would hit and the cold keys miss, leaking 0–2 extra paths
/// per access.
#[test]
fn posmap_paths_are_zero_for_hot_and_uniform_keys() {
    const OPS: usize = 400;
    const KEYS: u64 = 16_384;
    let mut rng = SimRng::seed_from(0x9071_7A95);
    let hot = vec![7u32; OPS];
    let uniform: Vec<u32> = (0..OPS).map(|_| 1 + rng.next_below(KEYS) as u32).collect();
    for (name, keys) in [("hot", hot), ("uniform", uniform)] {
        let mut kv = KvService::new(KvConfig::for_keys(KEYS, 2));
        for (i, &key) in keys.iter().enumerate() {
            let op = if i % 2 == 0 {
                KvOp::Put {
                    key,
                    value: i as u32,
                }
            } else {
                KvOp::Get { key }
            };
            kv.submit(op).unwrap();
            kv.flush();
            for r in kv.reports() {
                assert_eq!(
                    r.oram.pos1_paths + r.oram.pos2_paths,
                    0,
                    "{name} stream, op {i}, shard {}",
                    r.shard
                );
            }
        }
        let served: u64 = kv.reports().iter().map(|r| r.oram.accesses).sum();
        assert_eq!(
            served,
            (OPS * (PROBES + 1)) as u64,
            "{name}: every op reached an ORAM"
        );
        for s in kv.shards() {
            let (hits, misses) = s.oram().plb_counters();
            assert_eq!(misses, 0, "{name}: PLB never misses");
            let translated = s.oram().stats().data_paths + s.oram().stats().treetop_hits;
            assert!(hits >= translated, "{name}: every translation hit the PLB");
        }
    }
}
