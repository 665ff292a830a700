//! Golden initial states: the MD5 of [`PathOram::save_state`] right after
//! [`PathOram::new`], for every scheme's quick- and standard-scale ORAM and
//! a small and a large KV shard. Construction places every block by a
//! random-order insert, and every figure starts from that state, so a
//! change to initialization that moves a single slot, stash entry, RNG
//! word or watermark fails here first, rather than only as a figure diff.
//!
//! The standard-scale (L=17) cases are `#[ignore]`d because a debug-build
//! construction at that size is slow; run them with
//! `cargo test --release --test construction_golden -- --include-ignored`.

use ir_oram::{Scheme, ALL_SCHEMES};
use iroram_experiments::ExpOptions;
use iroram_hash::md5_hex;
use iroram_kv::KvConfig;
use iroram_protocol::{OramConfig, PathOram};
use iroram_sim_engine::SnapWriter;

fn initial_state_md5(cfg: OramConfig) -> String {
    let oram = PathOram::new(cfg);
    let mut w = SnapWriter::new();
    oram.save_state(&mut w);
    md5_hex(&w.into_bytes())
}

/// The digest each scheme's quick-scale main tree starts from. Schemes
/// differing only in remap policy, tree-top reach or DWB share a tree.
fn golden(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Baseline | Scheme::Rho | Scheme::IrDwb | Scheme::LlcD => {
            "c41756173b7bd52b1aba7e2faed9d1da"
        }
        Scheme::IrAlloc => "22a70988b64ab2e20c15f77c27b2e8a2",
        Scheme::IrStash => "503fb4b8f60f2a2cc4f282dcfa759675",
        Scheme::IrOram | Scheme::IrAllocStashOnLlcD => "120d8e53d83ecf999af48cb5672b9a46",
    }
}

#[test]
fn every_scheme_starts_from_its_golden_state() {
    let opts = ExpOptions::quick();
    for scheme in ALL_SCHEMES {
        let digest = initial_state_md5(opts.system(scheme).oram);
        assert_eq!(digest, golden(scheme), "{}", scheme.name());
    }
}

#[test]
fn kv_shard_starts_from_its_golden_state() {
    let cfg = KvConfig::for_keys(8_192, 4).oram_config(0);
    assert_eq!(initial_state_md5(cfg), "e74fb19b1c0403f621969b2926686f38");
}

/// [`golden`] for the standard-scale (L=17) trees the simulator benchmark
/// runs on.
fn golden_standard(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Baseline | Scheme::Rho | Scheme::IrDwb | Scheme::LlcD => {
            "b502b2b01f943fb02bd4c89056cd1f26"
        }
        Scheme::IrAlloc => "08108485c1373c3b0aa571c8593d1736",
        Scheme::IrStash => "505f48aafd5353b472c9c22e322f70b7",
        Scheme::IrOram | Scheme::IrAllocStashOnLlcD => "2c7b11cebecfdc0cffb890487209a2b3",
    }
}

#[test]
#[ignore = "slow in a debug build; run with --release --include-ignored"]
fn every_scheme_starts_from_its_standard_golden_state() {
    let opts = ExpOptions::standard();
    for scheme in ALL_SCHEMES {
        let digest = initial_state_md5(opts.system(scheme).oram);
        assert_eq!(digest, golden_standard(scheme), "{}", scheme.name());
    }
}

#[test]
#[ignore = "slow in a debug build; run with --release --include-ignored"]
fn large_kv_shard_starts_from_its_golden_state() {
    let cfg = KvConfig::for_keys(131_072, 1).oram_config(0);
    assert_eq!(initial_state_md5(cfg), "1b0b58ee9529ea630b9e89d0e11087b9");
}
