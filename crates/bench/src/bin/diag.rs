//! Scheme diagnostics: per-scheme slot/DRAM breakdown on one benchmark.
//! Usage: `cargo run --release -p iroram-bench --bin diag [levels] [bench] [ops]`

use ir_oram::{RunLimit, Scheme, Simulation, SystemConfig};
use iroram_trace::{Bench, ALL_BENCHES};

const USAGE: &str = "\
usage: diag [levels] [bench] [ops]
  levels   ORAM tree height, 3..=24 (default 12)
  bench    Table II benchmark name, e.g. gcc, mcf, lbm (default mcf)
  ops      memory operations to replay, > 0 (default 6000)";

struct Args {
    levels: usize,
    bench: Bench,
    ops: u64,
}

/// Parses the positional arguments strictly: malformed values and excess
/// arguments are errors, not silent fallbacks to the defaults.
fn parse(args: &[String]) -> Result<Args, String> {
    if args.len() > 3 {
        return Err(format!("expected at most 3 arguments, got {}", args.len()));
    }
    let levels = match args.first() {
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|l| (3..=24).contains(l))
            .ok_or_else(|| format!("levels must be an integer in 3..=24, got `{v}`"))?,
        None => 12,
    };
    let bench = match args.get(1) {
        Some(name) => ALL_BENCHES
            .iter()
            .copied()
            .find(|b| b.name() == name.as_str())
            .ok_or_else(|| {
                let known: Vec<&str> = ALL_BENCHES.iter().map(|b| b.name()).collect();
                format!("unknown bench `{name}` (known: {})", known.join(", "))
            })?,
        None => Bench::Mcf,
    };
    let ops = match args.get(2) {
        Some(v) => v
            .parse::<u64>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("ops must be a positive integer, got `{v}`"))?,
        None => 6000,
    };
    Ok(Args { levels, bench, ops })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let levels = args.levels;
    for scheme in [
        Scheme::Baseline,
        Scheme::Rho,
        Scheme::IrAlloc,
        Scheme::IrStash,
        Scheme::IrDwb,
        Scheme::IrOram,
        Scheme::LlcD,
    ] {
        let mut cfg = SystemConfig::scaled(scheme);
        cfg.oram.levels = levels;
        cfg.oram.data_blocks = 1 << (levels + 1);
        cfg.oram.zalloc = iroram_protocol::ZAllocation::uniform(levels, 4);
        let top = (levels * 2 / 5).max(1);
        cfg.oram.treetop = iroram_protocol::TreeTopMode::Dedicated { levels: top };
        cfg.hierarchy =
            iroram_cache::HierarchyConfig::scaled((32usize << (17 - levels.min(17))).min(128));
        cfg.t_interval = SystemConfig::t_for(&cfg.oram);
        let cfg = cfg.with_scheme(scheme);
        let r = Simulation::run_bench(&cfg, args.bench, RunLimit::mem_ops(args.ops));
        let s = &r.slots;
        let p = &r.protocol;
        println!(
            "{:<10} T={} cyc={:>10} slots={:>6} (real {:>5} bg {:>4} dmy {:>5} cnv {:>4}) miss={:>5} pm={:>5} data={:>5} top={:>4} sst={:>4} fst={:>4} esc={:>4} stsh={:>4} dram={:>7} cyc/slot={:.0}",
            cfg.scheme.name(), cfg.t_interval, r.cycles, s.total_slots, s.real_slots,
            s.bg_slots, s.dummy_slots, s.converted_slots, r.hierarchy.misses,
            r.posmap_paths(), p.data_paths, p.treetop_hits, p.sstash_hits, p.fstash_hits,
            p.escrow_hits, p.served_stash, r.dram.requests,
            r.cycles as f64 / s.total_slots.max(1) as f64
        );
        let st = &r.stash;
        println!(
            "           stash: peak {}/{} soft, {} over-capacity slot(s), {} bg escalation(s)",
            st.max_occupancy, st.soft_capacity, st.overflow_slots, st.bg_escalations
        );
    }
}
