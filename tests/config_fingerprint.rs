//! Regression guard for the [`SystemConfig`] surface. Two configurations
//! differing in any single field must fingerprint differently, for
//! **every** field: a field the resume-journal fingerprint ignored would
//! let `--resume` answer a cell from a run with different inputs — silent
//! result corruption. Every field must also have an arm in the `--set`
//! override table and a row in DESIGN.md's field table.
//!
//! The field names come from [`single_field_mutations`], which
//! [`mutation_list_covers_every_field`] keeps exhaustive: a new field
//! breaks its destructuring at compile time, and its count until the field
//! has a mutation. From then on the checks here cover it.

use ir_oram::{RunLimit, Scheme, SystemConfig};
use iroram_sim_engine::ClockRatio;
use iroram_trace::Bench;

use iroram_experiments::journal::fingerprint;

fn base() -> SystemConfig {
    SystemConfig::scaled(Scheme::Baseline)
}

fn fp(cfg: &SystemConfig) -> u64 {
    fingerprint(cfg, Bench::Gcc, RunLimit::mem_ops(1000))
}

/// One mutation per `SystemConfig` field, each touching only its field.
fn single_field_mutations() -> Vec<(&'static str, SystemConfig)> {
    let mut out: Vec<(&'static str, SystemConfig)> = Vec::new();
    let mut push = |name: &'static str, f: &dyn Fn(&mut SystemConfig)| {
        let mut cfg = base();
        f(&mut cfg);
        out.push((name, cfg));
    };
    push("scheme", &|c| c.scheme = Scheme::Rho);
    push("oram", &|c| c.oram.seed ^= 1);
    push("hierarchy", &|c| c.hierarchy.l1_assoc += 1);
    push("dram", &|c| c.dram.reorder_window += 1);
    push("t_interval", &|c| c.t_interval += 1);
    push("timing_protection", &|c| {
        c.timing_protection = !c.timing_protection;
    });
    push("clock", &|c| c.clock = ClockRatio::new(7, 3));
    push("rob_insts", &|c| c.rob_insts += 1);
    push("ipc", &|c| c.ipc += 1);
    push("mshrs", &|c| c.mshrs += 1);
    push("l1_hit_lat", &|c| c.l1_hit_lat += 1);
    push("llc_hit_lat", &|c| c.llc_hit_lat += 1);
    push("front_hit_lat", &|c| c.front_hit_lat += 1);
    push("decrypt_lat", &|c| c.decrypt_lat += 1);
    push("subtree_group", &|c| c.subtree_group += 1);
    push("seed", &|c| c.seed ^= 1);
    push("audit", &|c| c.audit = !c.audit);
    push("faults", &|c| c.faults.seed ^= 1);
    push("refetch_lat", &|c| c.refetch_lat += 1);
    push("stash_hard_limit", &|c| c.stash_hard_limit += 1);
    push("pipeline_depth", &|c| c.pipeline_depth += 1);
    push("checkpoint_interval", &|c| c.checkpoint_interval += 1);
    out
}

#[test]
fn every_field_is_fingerprinted() {
    let base_fp = fp(&base());
    for (field, cfg) in single_field_mutations() {
        assert_ne!(
            fp(&cfg),
            base_fp,
            "SystemConfig::{field} is not covered by the resume fingerprint"
        );
    }
}

#[test]
fn mutation_list_covers_every_field() {
    // The mutation list above must stay exhaustive. Destructure with no
    // `..` so adding a SystemConfig field breaks this test until a
    // mutation is added for it.
    let SystemConfig {
        scheme: _,
        oram: _,
        hierarchy: _,
        dram: _,
        t_interval: _,
        timing_protection: _,
        clock: _,
        rob_insts: _,
        ipc: _,
        mshrs: _,
        l1_hit_lat: _,
        llc_hit_lat: _,
        front_hit_lat: _,
        decrypt_lat: _,
        subtree_group: _,
        seed: _,
        audit: _,
        faults: _,
        refetch_lat: _,
        stash_hard_limit: _,
        pipeline_depth: _,
        checkpoint_interval: _,
    } = base();
    assert_eq!(single_field_mutations().len(), 22);
}

#[test]
fn every_field_is_settable_and_documented() {
    let design = include_str!("../DESIGN.md");
    for (field, _) in single_field_mutations() {
        // Structured fields answer with a pointer to their own knob, and a
        // value may fail to parse; only an unknown key is a gap.
        if let Err(e) = base().set_field(field, "0") {
            assert!(
                !e.contains("unknown SystemConfig field"),
                "SystemConfig::{field} has no arm in SystemConfig::set_field: {e}"
            );
        }
        let row = format!("| `{field}` |");
        assert!(
            design.lines().any(|l| l.starts_with(&row)),
            "DESIGN.md lacks a row for {field}"
        );
    }
}

#[test]
fn distinct_mutations_fingerprint_pairwise_distinct() {
    let fps: Vec<(&str, u64)> = single_field_mutations()
        .iter()
        .map(|(n, c)| (*n, fp(c)))
        .collect();
    for (i, (na, a)) in fps.iter().enumerate() {
        for (nb, b) in &fps[i + 1..] {
            assert_ne!(a, b, "fingerprint collision between {na} and {nb}");
        }
    }
}

#[test]
fn fingerprint_covers_bench_and_limit() {
    let c = base();
    let f = fingerprint(&c, Bench::Gcc, RunLimit::mem_ops(1000));
    assert_ne!(f, fingerprint(&c, Bench::Mcf, RunLimit::mem_ops(1000)));
    assert_ne!(f, fingerprint(&c, Bench::Gcc, RunLimit::mem_ops(1001)));
}
