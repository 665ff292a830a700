//! Model-based tests for the sharded oblivious KV layer: random
//! put/get/delete workloads must match a `BTreeMap` reference model
//! exactly — per-shard (one cuckoo table under stress) and cross-shard
//! (the directory + service plumbing) — and the packed-entry encoding
//! edge cases must hold.

use std::collections::BTreeMap;

use iroram_kv::{KvConfig, KvError, KvOp, KvService, KvShard};
use iroram_protocol::OramConfig;
use iroram_sim_engine::SimRng;
use proptest::prelude::*;

/// Applies one op to both the KV under test (via a closure) and the
/// model, asserting agreement. `full` tracks keys the store refused with
/// `StoreFull`, which the model then must not contain.
fn step_model(model: &mut BTreeMap<u32, u32>, op: KvOp, got: Result<Option<u32>, KvError>) {
    match op {
        KvOp::Put { key, value } => match got {
            Ok(prev) => {
                prop_assert_eq!(prev, model.insert(key, value), "put {}", key);
            }
            Err(KvError::StoreFull) => {
                // A refused put must not have touched the model's view.
                prop_assert!(
                    !model.contains_key(&key),
                    "StoreFull for a key that was already present: {}",
                    key
                );
            }
            Err(e) => prop_assert!(false, "unexpected error {:?}", e),
        },
        KvOp::Get { key } => {
            prop_assert_eq!(got, Ok(model.get(&key).copied()), "get {}", key);
        }
        KvOp::Delete { key } => {
            prop_assert_eq!(got, Ok(model.remove(&key)), "delete {}", key);
        }
    }
}

/// A random workload over a small key universe (so collisions, updates,
/// deletes of present keys, and re-inserts all actually happen).
fn workload(seed: u64, ops: usize, key_space: u32) -> Vec<KvOp> {
    let mut rng = SimRng::seed_from(seed);
    (0..ops)
        .map(|_| {
            let key = 1 + rng.next_below(u64::from(key_space)) as u32;
            match rng.next_below(10) {
                0..=4 => KvOp::Put {
                    key,
                    value: rng.next_u64() as u32,
                },
                5..=7 => KvOp::Get { key },
                _ => KvOp::Delete { key },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One shard, squeezed into a 64-slot table: the cuckoo displacement
    /// and overflow paths run constantly and must still agree with the
    /// model op for op.
    #[test]
    fn prop_single_shard_matches_btreemap(seed in any::<u64>()) {
        let mut shard = KvShard::new(OramConfig::tiny(), 64);
        let mut model: BTreeMap<u32, u32> = BTreeMap::new();
        for op in workload(seed, 300, 96) {
            let got = shard.run_op(op);
            step_model(&mut model, op, got);
        }
        // Everything the model holds must be readable at the end.
        let keys: Vec<u32> = model.keys().copied().collect();
        for k in keys {
            prop_assert_eq!(shard.run_op(KvOp::Get { key: k }), Ok(model.get(&k).copied()));
        }
        shard.oram().check_invariants().expect("ORAM sound");
    }

    /// The full service across 3 shards, flushing in batches: directory
    /// routing, per-shard queues and reply merging must preserve exact
    /// map semantics.
    #[test]
    fn prop_service_matches_btreemap(seed in any::<u64>()) {
        let mut cfg = KvConfig::for_keys(512, 3);
        cfg.batch_ops = 7; // odd batch size: exercise partial chunks
        let mut kv = KvService::new(cfg);
        let mut model: BTreeMap<u32, u32> = BTreeMap::new();
        let ops = workload(seed, 240, 400);
        for window in ops.chunks(40) {
            let mut submitted = Vec::new();
            for &op in window {
                let seq = kv.submit(op).expect("queue sized for the window");
                submitted.push((seq, op));
            }
            let outcome = kv.flush();
            prop_assert_eq!(outcome.replies.len(), submitted.len());
            // Replies come back sorted by and matched to sequence number.
            for ((seq, op), result) in submitted.into_iter().zip(outcome.replies) {
                prop_assert_eq!(result.seq, seq);
                step_model(&mut model, op, result.reply);
            }
        }
        // The store's dump is exactly the model's contents.
        let dump: Vec<(u32, u32)> = kv.dump();
        let expect: Vec<(u32, u32)> = model.into_iter().collect();
        prop_assert_eq!(dump, expect);
    }
}

#[test]
fn queue_full_is_reported_and_recoverable() {
    let mut cfg = KvConfig::for_keys(512, 1);
    cfg.queue_capacity = 4;
    let mut kv = KvService::new(cfg);
    for k in 1..=4u32 {
        kv.submit(KvOp::Get { key: k }).unwrap();
    }
    assert_eq!(kv.submit(KvOp::Get { key: 5 }), Err(KvError::QueueFull));
    kv.flush();
    assert!(
        kv.submit(KvOp::Get { key: 5 }).is_ok(),
        "flush drains the queue"
    );
}

#[test]
fn zero_key_errors_do_not_poison_the_batch() {
    let mut kv = KvService::new(KvConfig::for_keys(512, 2));
    kv.submit(KvOp::Put { key: 1, value: 10 }).unwrap();
    kv.submit(KvOp::Put { key: 0, value: 99 }).unwrap();
    kv.submit(KvOp::Get { key: 1 }).unwrap();
    let replies = kv.flush().replies;
    assert_eq!(replies[0].reply, Ok(None));
    assert_eq!(replies[1].reply, Err(KvError::ZeroKey));
    assert_eq!(replies[2].reply, Ok(Some(10)));
}

#[test]
fn extreme_keys_and_values_roundtrip() {
    // The packed-entry encoding edge cases, end to end: max key, max
    // value, value 0, and the key that packs to the all-ones upper half.
    let mut kv = KvService::new(KvConfig::for_keys(512, 2));
    for (k, v) in [(1u32, 0u32), (u32::MAX, u32::MAX), (1 << 31, 1)] {
        assert_eq!(kv.put(k, v), Ok(None), "put {k}");
        assert_eq!(kv.get(k), Ok(Some(v)), "get {k}");
    }
    // Updating the max key to value 0 must stay distinguishable from empty.
    assert_eq!(kv.put(u32::MAX, 0), Ok(Some(u32::MAX)));
    assert_eq!(kv.get(u32::MAX), Ok(Some(0)));
    assert_eq!(kv.delete(u32::MAX), Ok(Some(0)));
    assert_eq!(kv.get(u32::MAX), Ok(None));
}
