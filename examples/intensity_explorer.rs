//! Memory-intensity explorer: sweep the timing-protection interval `T` and
//! the scheme, and watch where the cycles go.
//!
//! The paper's Section III argues Path ORAM's problem is *memory intensity*
//! — every slot moves `PL` blocks whether it carries real work or a dummy.
//! This tool makes that trade-off tangible: small `T` wastes bandwidth on
//! dummies, large `T` starves real requests.
//!
//! Run with:
//! `cargo run --release -p ir-oram --example intensity_explorer [bench]`

use ir_oram::{RunLimit, Scheme, Simulation, SystemConfig};
use iroram_trace::{Bench, ALL_BENCHES};

fn small_system(scheme: Scheme, t_interval: u64) -> SystemConfig {
    let mut cfg = SystemConfig::scaled(scheme);
    cfg.oram.levels = 13;
    cfg.oram.data_blocks = 1 << 14;
    cfg.oram.zalloc = iroram_protocol::ZAllocation::uniform(13, 4);
    cfg.oram.treetop = iroram_protocol::TreeTopMode::Dedicated { levels: 5 };
    cfg.t_interval = t_interval;
    cfg.with_scheme(scheme)
}

fn main() {
    let bench = std::env::args()
        .nth(1)
        .and_then(|name| ALL_BENCHES.iter().copied().find(|b| b.name() == name))
        .unwrap_or(Bench::Mcf);
    let limit = RunLimit::mem_ops(4_000);

    println!("workload: {}  ({} memory ops)\n", bench.name(), 4_000);
    println!(
        "{:<10} {:>6} {:>12} {:>8} {:>8} {:>8} {:>9}",
        "scheme", "T", "cycles", "real%", "dummy%", "conv%", "KB moved"
    );
    for scheme in [
        Scheme::Baseline,
        Scheme::IrAlloc,
        Scheme::IrStash,
        Scheme::IrDwb,
        Scheme::IrOram,
    ] {
        for t in [500u64, 1000, 2000, 4000] {
            let cfg = small_system(scheme, t);
            let r = Simulation::run_bench(&cfg, bench, limit);
            let total = r.slots.total_slots.max(1) as f64;
            let moved_kb =
                (r.protocol.blocks_from_memory + r.protocol.blocks_to_memory) * 64 / 1024;
            println!(
                "{:<10} {:>6} {:>12} {:>7.1}% {:>7.1}% {:>7.1}% {:>8}KB",
                scheme.name(),
                t,
                r.cycles,
                100.0 * r.slots.real_slots as f64 / total,
                100.0 * r.slots.dummy_slots as f64 / total,
                100.0 * r.slots.converted_slots as f64 / total,
                moved_kb,
            );
        }
        println!();
    }
    println!("note: higher T → fewer dummies but slower demand service;");
    println!("IR-ORAM reduces blocks moved per path instead, which helps at every T.");
}
