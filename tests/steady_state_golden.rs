//! Golden steady states: the MD5 of [`PathOram::save_state`] plus the
//! access-record trail after a seeded mix of data, PosMap,
//! background-eviction and dummy paths, for every tree-top mode × remap
//! policy × payload encryption × integrity layer, and the MD5 of a KV
//! smoke run's `reports()` and `dump()`. Construction is pinned by
//! `construction_golden.rs`; these digests pin what the path access does
//! afterwards, so a change to the read or write phase that moves one
//! slot, stash entry, checksum, counter or RNG word fails here first.
//!
//! The standard-scale KV shard (131,072 keys, L=17) is `#[ignore]`d in a
//! debug build, where it is slow; run it with
//! `cargo test --release --test steady_state_golden -- --include-ignored`.

use iroram_hash::md5_hex;
use iroram_kv::{KvConfig, KvOp, KvService};
use iroram_protocol::{BlockAddr, OramConfig, PathOram, RemapPolicy, TreeTopMode};
use iroram_sim_engine::{SimRng, SnapWriter};

const TREETOPS: [TreeTopMode; 3] = [
    TreeTopMode::None,
    TreeTopMode::Dedicated { levels: 3 },
    TreeTopMode::IrStash {
        levels: 3,
        sets: 16,
        ways: 4,
    },
];

/// Runs `steps` seeded operations on `oram`, folding every returned record
/// into `trail`. With `fault_at`, a payload bit flip is injected into a
/// memory bucket at that step (the tree leaves its pristine state there).
fn drive(oram: &mut PathOram, steps: u64, fault_at: Option<u64>, trail: &mut String) {
    let mut rng = SimRng::seed_from(0x0057_EAD7);
    let data = oram.config().data_blocks;
    let delayed = oram.config().remap == RemapPolicy::Delayed;
    for step in 0..steps {
        if fault_at == Some(step) {
            let level = oram.config().levels - 1;
            let bucket = rng.next_below(1 << level);
            oram.inject_tree_fault(level, bucket, 0, 0x5A5A);
        }
        let addr = BlockAddr(rng.next_below(data));
        let held = oram.escrowed().next().filter(|_| delayed);
        let line = match rng.next_below(10) {
            0..=3 => format!("{:?}", oram.run_access(addr, None)),
            4..=5 => format!("{:?}", oram.run_access(addr, Some(rng.next_u64()))),
            6 => format!("{:?}", oram.run_access_with(addr, |v| v.rotate_left(7))),
            7 => match held {
                Some(held) => format!("{:?}", oram.delayed_writeback(held)),
                None => format!("{:?}", oram.dummy_path()),
            },
            8 => format!("{:?}", oram.dummy_path()),
            _ => format!("{:?}", oram.bg_evict_once()),
        };
        trail.push_str(&line);
        trail.push('\n');
    }
}

/// The digest of `cfg`'s ORAM after the seeded mix: its snapshot bytes,
/// then the record trail.
fn steady_state_md5(cfg: OramConfig, fault_at: Option<u64>) -> String {
    let mut oram = PathOram::new(cfg);
    let mut trail = String::new();
    drive(&mut oram, 600, fault_at, &mut trail);
    let mut w = SnapWriter::new();
    oram.save_state(&mut w);
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(trail.as_bytes());
    md5_hex(&bytes)
}

fn config(treetop: TreeTopMode, remap: RemapPolicy, encrypt: bool, integrity: bool) -> OramConfig {
    OramConfig {
        treetop,
        remap,
        encrypt_payloads: encrypt,
        integrity,
        ..OramConfig::tiny()
    }
}

/// The digests, in `TREETOPS` × (Immediate, Delayed) × encrypt (off, on)
/// × integrity (off, on) order.
const GOLDEN: [&str; 24] = [
    "541c8c08e6eb927a62a0ceaa02451784",
    "5fb8145001eb95f1fc6c62d670bd74a7",
    "5588b33b18bc7f0ca319493ff46a07a4",
    "a8b41e4d2cd624ef4491d5b799a5574b",
    "da8707b72727d08f324c0ebc7a6c7bbe",
    "77644fae8eaa1d89b640dcd36ca22a6b",
    "4bde916e596714cce1155892e31621f3",
    "aa49447e7ae118b264a31e4378ffef85",
    "d1b7b030b23607693880d71c135dbbcd",
    "b168bc2756a654f2317bbe8b98bffa9b",
    "ee4ba18dc2d2b02b58d9e82340931f35",
    "dfbd8c95173bc384242687557b5e5462",
    "b38979a4f3f4a7b20d42bf9f79b52875",
    "da93652d2c69b30b1b9b881bfda739de",
    "9234995ce8a07f39df63a424635e611f",
    "1993bedd8811c3cc415dbeb0b97d86eb",
    "ee077bfce5bd288f4cd40ef5022aad8e",
    "bfcc6ecedd0836467ce6a7f0c7abff85",
    "75744aa93be7dd8b84aa63652194c0c2",
    "520d449be5a3c5baa0247f0b7eda0837",
    "e2fb8db421bb5e8262ab380cb5817637",
    "09fff4f5bfe1b14f3bb95e95ff680e77",
    "42f61774fa7ed042d4de72d75f581131",
    "ea1b6483d0756b994011fca8b021a35d",
];

#[test]
fn every_mode_reaches_its_golden_steady_state() {
    let mut got = Vec::new();
    for treetop in TREETOPS {
        for remap in [RemapPolicy::Immediate, RemapPolicy::Delayed] {
            for encrypt in [false, true] {
                for integrity in [false, true] {
                    let cfg = config(treetop, remap, encrypt, integrity);
                    got.push(steady_state_md5(cfg, None));
                }
            }
        }
    }
    assert_eq!(got, GOLDEN);
}

/// A fault injected mid-run takes the tree off its pristine fast paths:
/// with integrity on, the checksums from then on must be those of a tree
/// that kept them all along.
#[test]
fn a_mid_run_fault_reaches_its_golden_state() {
    let dedicated = TreeTopMode::Dedicated { levels: 3 };
    let got: Vec<String> = [false, true]
        .into_iter()
        .map(|integrity| {
            let cfg = config(dedicated, RemapPolicy::Immediate, true, integrity);
            steady_state_md5(cfg, Some(300))
        })
        .collect();
    assert_eq!(
        got,
        [
            "575e586021f3a96312a60e9a3fd9e2da",
            "d78a0c9e4296128cecb6cf59f72e5168"
        ]
    );
}

#[test]
fn kv_smoke_run_reaches_its_golden_state() {
    let mut cfg = KvConfig::for_keys(2_000, 2);
    cfg.batch_ops = 16;
    let mut kv = KvService::new(cfg);
    let mut rng = SimRng::seed_from(0x4B56_5353);
    for k in 1..=1_200u32 {
        kv.submit(KvOp::Put {
            key: k,
            value: k.wrapping_mul(2_654_435_761),
        })
        .unwrap();
    }
    let mut replies = format!("{:?}\n", kv.flush().replies);
    for _ in 0..2 {
        for _ in 0..500 {
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
        replies.push_str(&format!("{:?}\n", kv.flush().replies));
    }
    let reports = format!("{:?}", kv.reports());
    let dump = format!("{:?}", kv.dump());
    assert_eq!(
        [
            md5_hex(replies.as_bytes()),
            md5_hex(reports.as_bytes()),
            md5_hex(dump.as_bytes())
        ],
        [
            "bc07f510fcd7b1a44e206d645322c44c",
            "058ff359233cab454465ca57b1f17201",
            "138b1c6433d7111fa5612a721e022234"
        ]
    );
}

/// The benchmark's `kv-large-uniform` shape: one L=17 shard, past a core's
/// L2, where the stash holds blocks across paths and every access misses
/// the tree top. Half the keys are loaded, then a seeded uniform get/put
/// mix runs in four flushes.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in a debug build; run with --release --include-ignored"
)]
fn kv_large_shard_reaches_its_golden_state() {
    const KEYS: u64 = 131_072;
    let mut kv = KvService::new(KvConfig::for_keys(KEYS, 1));
    let mut rng = SimRng::seed_from(0x4C41_5247);
    for _ in 0..KEYS / 2 {
        let key = 1 + rng.next_below(KEYS) as u32;
        kv.submit(KvOp::Put {
            key,
            value: rng.next_u64() as u32,
        })
        .unwrap();
    }
    let mut replies = format!("{:?}\n", kv.flush().replies);
    for _ in 0..4 {
        for _ in 0..5_000 {
            let key = 1 + rng.next_below(KEYS) as u32;
            let op = if rng.next_below(2) == 0 {
                KvOp::Get { key }
            } else {
                KvOp::Put {
                    key,
                    value: rng.next_u64() as u32,
                }
            };
            kv.submit(op).unwrap();
        }
        replies.push_str(&format!("{:?}\n", kv.flush().replies));
    }
    let reports = format!("{:?}", kv.reports());
    let dump = format!("{:?}", kv.dump());
    assert_eq!(
        [
            md5_hex(replies.as_bytes()),
            md5_hex(reports.as_bytes()),
            md5_hex(dump.as_bytes())
        ],
        [
            "b236dc6030f2f0608ed9af9003c686d0",
            "427a2bab6299bda9c80c27aaab9180e7",
            "d76aaf67460dba1f3840d4f88f08fdd8"
        ]
    );
}
