//! Quickstart: the two layers of the IR-ORAM library in one page.
//!
//! 1. The **functional protocol** (`iroram-protocol`): a complete Path ORAM
//!    you can read/write like a block device, with every path access it
//!    performs reported back.
//! 2. The **timed simulator** (`ir-oram`): the same protocol behind a
//!    fixed-rate controller, cache hierarchy and DDR3 model — used to
//!    compare the paper's schemes.
//!
//! Run with: `cargo run --release -p ir-oram --example quickstart`

use ir_oram::{RunLimit, Scheme, Simulation, SystemConfig};
use iroram_protocol::{BlockAddr, OramConfig, PathOram};
use iroram_trace::Bench;

fn main() {
    // --- Layer 1: functional Path ORAM ---------------------------------
    let mut oram = PathOram::new(OramConfig::tiny());
    oram.write(7, 0xC0FFEE);
    oram.write(8, 0xBEEF);
    assert_eq!(oram.read(7), 0xC0FFEE);
    assert_eq!(oram.read(8), 0xBEEF);

    let record = oram.run_access(BlockAddr(42), None);
    println!("accessing block 42:");
    println!("  served from  : {:?}", record.served);
    println!("  path accesses: {:?}", record.paths);

    oram.check_invariants()
        .expect("protocol structure is sound");
    let stats = oram.stats();
    println!(
        "protocol: {} accesses, {} paths ({} PosMap), stash peak {}",
        stats.accesses,
        stats.total_paths(),
        stats.posmap_paths(),
        oram.stash_peak()
    );

    // --- Layer 2: timed full-system comparison -------------------------
    println!("\ntimed comparison on the xz workload (small scale):");
    let limit = RunLimit::mem_ops(5_000);
    let mut base_cycles = 0;
    for scheme in [Scheme::Baseline, Scheme::IrOram] {
        let mut cfg = SystemConfig::scaled(scheme);
        // Shrink the tree so the example runs in seconds.
        cfg.oram.levels = 13;
        cfg.oram.data_blocks = 1 << 14;
        cfg.oram.zalloc = iroram_protocol::ZAllocation::uniform(13, 4);
        cfg.oram.treetop = iroram_protocol::TreeTopMode::Dedicated { levels: 5 };
        let cfg = cfg.with_scheme(scheme);
        let report = Simulation::run_bench(&cfg, Bench::Xz, limit);
        if scheme == Scheme::Baseline {
            base_cycles = report.cycles;
        }
        println!(
            "  {:<10} {:>12} cycles  ({} dummy / {} total slots)  speedup {:.2}x",
            scheme.name(),
            report.cycles,
            report.slots.dummy_slots,
            report.slots.total_slots,
            base_cycles as f64 / report.cycles as f64,
        );
    }
}
