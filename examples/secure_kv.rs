//! An oblivious key–value store built on the sharded KV service layer.
//!
//! The scenario from the paper's introduction: an application running on an
//! untrusted cloud server whose *access pattern* must not leak. This
//! example stores a key→value map inside ORAM shards via `iroram-kv`: keys
//! hash to a shard and to a fixed set of candidate slots inside it, so
//! every lookup — hit or miss — turns into the same fixed number of
//! logical ORAM accesses. Unlike the linear-probe toy this example used to
//! be, a miss costs exactly as much as a hit (probe reads + one refresh
//! write), never a scan of the table.
//!
//! Run with: `cargo run --release -p iroram-kv --example secure_kv`

use iroram_kv::{KvConfig, KvOp, KvService, PROBES};

fn main() {
    // Two shards, sized for a few hundred keys; every shard is an
    // independent Path ORAM with its own position map and stash.
    let mut cfg = KvConfig::for_keys(256, 2);
    cfg.workers = 1; // the serial twin: same bytes as any worker count
    let mut kv = KvService::new(cfg);

    println!("inserting 40 entries…");
    for k in 1..=40u32 {
        assert_eq!(kv.put(k, k * k), Ok(None), "store full");
    }
    println!("reading them back…");
    for k in 1..=40u32 {
        assert_eq!(kv.get(k), Ok(Some(k * k)), "key {k}");
    }
    assert_eq!(kv.get(999), Ok(None));

    // Batched serving: queue a mixed workload, then flush once — the
    // service drains each shard's queue through a single ORAM access
    // batch and merges replies by submission order.
    for k in 1..=40u32 {
        kv.submit(KvOp::Get { key: k }).unwrap();
        kv.submit(KvOp::Put {
            key: k + 100,
            value: k,
        })
        .unwrap();
    }
    let outcome = kv.flush();
    assert_eq!(outcome.replies.len(), 80);

    // The security story: every get/put costs the same PROBES reads plus
    // one write-phase access (a real write, or an identity "refresh" that
    // remaps and re-encrypts just the same), so a hit and a miss look
    // alike. Each shard's PLB holds its whole position map and is warmed
    // at construction, so no op takes a PosMap path, hot key or cold.
    // Known deviation: a probe whose slot sits in the stash or the tree
    // top is served on-chip with no data path, so the data paths per op
    // still drop when keys are reused — a hot key is not yet fully
    // indistinguishable from a cold one.
    let mut accesses = 0u64;
    let mut paths = 0u64;
    for report in kv.reports() {
        let s = &report.oram;
        println!(
            "shard {}: {} KV ops -> {} logical ORAM accesses -> {} path accesses \
             ({} data, {} PosMap, {} background-eviction)",
            report.shard,
            report.kv.gets + report.kv.puts + report.kv.deletes,
            s.accesses,
            s.total_paths(),
            s.data_paths,
            s.posmap_paths(),
            s.bg_evict_paths,
        );
        assert_eq!(s.posmap_paths(), 0, "the warmed PLB never misses");
        accesses += s.accesses;
        paths += s.total_paths();
    }
    println!(
        "\ntotal: {accesses} ORAM accesses ({} per KV op), {paths} path accesses",
        PROBES + 1
    );
    for shard in kv.shards() {
        shard
            .oram()
            .check_invariants()
            .expect("ORAM structure sound");
    }
    println!("invariants hold; every block is on its mapped path.");
}
