//! System configuration and the paper's scheme matrix.

use iroram_cache::HierarchyConfig;
use iroram_dram::DramConfig;
use iroram_protocol::{AllocPreset, OramConfig, RemapPolicy, TreeTopMode, ZAllocation};
use iroram_sim_engine::{ClockRatio, FaultConfig};

/// The evaluated configurations (paper Section VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Traditional Path ORAM \[27\] with Freecursive \[8\], ten top tree
    /// levels in a dedicated cache, subtree layout and background eviction
    /// \[25\].
    Baseline,
    /// The ρ design \[23\]: a smaller ORAM tree absorbing most accesses,
    /// 1 main : 2 small fixed issue pattern, delayed remapping.
    Rho,
    /// IR-Alloc over Baseline (standalone setting: `Z=1`/`Z=2` middle
    /// ranges — IR-Alloc4).
    IrAlloc,
    /// IR-Stash over Baseline (4-way S-Stash).
    IrStash,
    /// IR-DWB over Baseline.
    IrDwb,
    /// All three IR techniques (integrated `Z` setting — IR-Alloc1).
    IrOram,
    /// Baseline with the delayed block-remapping policy \[23\].
    LlcD,
    /// IR-Alloc + IR-Stash on top of the LLC-D baseline (Fig. 11).
    IrAllocStashOnLlcD,
}

/// All schemes, in the paper's presentation order.
pub const ALL_SCHEMES: [Scheme; 8] = [
    Scheme::Baseline,
    Scheme::Rho,
    Scheme::IrAlloc,
    Scheme::IrStash,
    Scheme::IrDwb,
    Scheme::IrOram,
    Scheme::LlcD,
    Scheme::IrAllocStashOnLlcD,
];

impl Scheme {
    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Baseline => "Baseline",
            Scheme::Rho => "Rho",
            Scheme::IrAlloc => "IR-Alloc",
            Scheme::IrStash => "IR-Stash",
            Scheme::IrDwb => "IR-DWB",
            Scheme::IrOram => "IR-ORAM",
            Scheme::LlcD => "LLC-D",
            Scheme::IrAllocStashOnLlcD => "IR-Stash+IR-Alloc(LLC-D)",
        }
    }

    /// Whether this scheme enables the IR-DWB dummy-conversion engine.
    pub fn uses_dwb(self) -> bool {
        matches!(self, Scheme::IrDwb | Scheme::IrOram)
    }

    /// Whether this scheme runs the ρ dual-tree controller.
    pub fn uses_rho(self) -> bool {
        matches!(self, Scheme::Rho)
    }
}

/// Full-system configuration (paper Table I, scaled).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Scheme under evaluation.
    pub scheme: Scheme,
    /// ORAM protocol configuration (already scheme-adjusted; see
    /// [`SystemConfig::scaled`]).
    pub oram: OramConfig,
    /// Cache hierarchy configuration.
    pub hierarchy: HierarchyConfig,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// Path issue interval `T` in CPU cycles (the paper uses 1000).
    pub t_interval: u64,
    /// Whether timing-channel protection (fixed-rate issue + dummies) is on.
    pub timing_protection: bool,
    /// CPU : DRAM clock ratio (3.2 GHz : 800 MHz).
    pub clock: ClockRatio,
    /// Reorder-buffer size in instructions (Table I: 128).
    pub rob_insts: u64,
    /// Retire width (Table I: 4).
    pub ipc: u64,
    /// Outstanding read-miss limit.
    pub mshrs: usize,
    /// L1 hit latency (CPU cycles).
    pub l1_hit_lat: u64,
    /// LLC hit latency (CPU cycles).
    pub llc_hit_lat: u64,
    /// On-chip ORAM front-store (stash/S-Stash) hit latency.
    pub front_hit_lat: u64,
    /// Decrypt + authenticate latency added to path-read completion.
    pub decrypt_lat: u64,
    /// Subtree-layout group height (levels per packed subtree).
    pub subtree_group: u32,
    /// Seed for all stochastic components.
    pub seed: u64,
    /// Run the audit subsystem (functional oracle, timing / conservation /
    /// structural / IR-DWB coherence checks — see [`crate::AuditReport`]).
    /// Audits observe only: every reported number is identical with this
    /// flag on or off.
    pub audit: bool,
    /// Fault-injection configuration (all rates zero by default; a zero-rate
    /// config builds no plan and cannot perturb the run in any way).
    pub faults: FaultConfig,
    /// CPU cycles charged per detected-and-repaired corrupted bucket — the
    /// modelled cost of re-fetching the bucket from redundancy (IRO's
    /// recovery path). Folded into the path's read-phase completion, so the
    /// timing schedule stretches publicly and stays audit-clean.
    pub refetch_lat: u64,
    /// Hard stash limit in blocks (the modelled SRAM's physical size).
    /// `0` means 8 × the soft capacity. Crossing it is a transient
    /// [`crate::SimError::StashOverflow`], not a panic.
    pub stash_hard_limit: usize,
    /// Access-pipeline depth of the timed controllers (`1` = serial, the
    /// default): how many path accesses may be in flight at once. At depth
    /// `k`, a slot's issue time is floored by the read completion of the
    /// access `k` slots back instead of the immediately preceding one, the
    /// next request's PosMap lookup is resolved speculatively, and two
    /// in-flight paths that share memory-level buckets serialize at DRAM
    /// (their blocks are held via the stash escrow). `0` is rejected at
    /// `--set` parse time and clamped to `1` by the controllers.
    pub pipeline_depth: u32,
    /// Checkpoint interval in path slots (`0` = checkpointing off, the
    /// default). When set, the runner snapshots the complete simulation
    /// state every N slots so a killed run resumes mid-cell and finishes
    /// with a report byte-identical to an uninterrupted one. Purely an
    /// execution knob: it never changes what is simulated.
    pub checkpoint_interval: u64,
}

impl SystemConfig {
    /// Path-issue interval preserving the paper's intensity regime.
    ///
    /// The paper's evaluation sits in the *service-bound* regime: with
    /// `T = 1000` and 60+60 blocks per baseline path on USIMM, a path takes
    /// longer than `T` to service, so execution time tracks blocks-per-path
    /// — that is exactly why IR-Alloc's PL reduction (60 → 36) buys its 41%
    /// (Section VI-A), and why "Path ORAM may easily deplete the peak
    /// off-chip memory bandwidth" (Section II-B). Our DRAM model extracts
    /// more per-access efficiency than USIMM (near-ideal channel
    /// interleaving), so to land in the same regime the scaled `T` is set
    /// below the baseline path's service time: ~8.3 CPU cycles per
    /// *read-phase* block. Security is unaffected — `T` is a public
    /// constant per configuration, identical for every scheme compared.
    pub fn t_for(oram: &OramConfig) -> u64 {
        let baseline_pl =
            ZAllocation::uniform(oram.levels, 4).path_len(oram.treetop.cached_levels());
        // ×25/3 ≈ 8.33 CPU cycles per block.
        (baseline_pl * 25 / 3).max(100)
    }

    /// The scaled default system for `scheme`: a 17-level tree protecting
    /// 2^18 data blocks, caches scaled 32× down from Table I, DDR3-1600
    /// with 4 channels, `T` scaled per [`SystemConfig::t_for`].
    pub fn scaled(scheme: Scheme) -> Self {
        let oram = OramConfig::scaled_default();
        let t_interval = Self::t_for(&oram);
        let base = SystemConfig {
            scheme,
            oram,
            hierarchy: HierarchyConfig::scaled(32),
            dram: DramConfig::default(),
            t_interval,
            timing_protection: true,
            clock: ClockRatio::cpu_dram_default(),
            rob_insts: 128,
            ipc: 4,
            mshrs: 8,
            l1_hit_lat: 2,
            llc_hit_lat: 12,
            front_hit_lat: 20,
            decrypt_lat: 50,
            subtree_group: 4,
            seed: 0x1235,
            audit: false,
            faults: FaultConfig::none(),
            refetch_lat: 100,
            stash_hard_limit: 0,
            pipeline_depth: 1,
            checkpoint_interval: 0,
        };
        base.with_scheme(scheme)
    }

    /// Returns a copy reconfigured for `scheme` (tree allocation, tree-top
    /// store, remap policy and engines set per the paper's Section VI).
    pub fn with_scheme(&self, scheme: Scheme) -> Self {
        let mut cfg = self.clone();
        cfg.scheme = scheme;
        let levels = cfg.oram.levels;
        let top = cfg.oram.treetop.cached_levels().max(1);
        let dedicated = TreeTopMode::Dedicated { levels: top };
        let irstash = TreeTopMode::ir_stash_sized(top);
        let uniform = ZAllocation::uniform(levels, 4);
        let alloc_standalone = ZAllocation::preset(AllocPreset::IrAlloc4, levels, top);
        let alloc_integrated = ZAllocation::preset(AllocPreset::IrAlloc1, levels, top);
        match scheme {
            Scheme::Baseline | Scheme::IrDwb => {
                cfg.oram.zalloc = uniform;
                cfg.oram.treetop = dedicated;
                cfg.oram.remap = RemapPolicy::Immediate;
            }
            Scheme::Rho => {
                cfg.oram.zalloc = uniform;
                cfg.oram.treetop = dedicated;
                cfg.oram.remap = RemapPolicy::Delayed;
            }
            Scheme::IrAlloc => {
                cfg.oram.zalloc = alloc_standalone;
                cfg.oram.treetop = dedicated;
                cfg.oram.remap = RemapPolicy::Immediate;
            }
            Scheme::IrStash => {
                cfg.oram.zalloc = uniform;
                cfg.oram.treetop = irstash;
                cfg.oram.remap = RemapPolicy::Immediate;
            }
            Scheme::IrOram => {
                cfg.oram.zalloc = alloc_integrated;
                cfg.oram.treetop = irstash;
                cfg.oram.remap = RemapPolicy::Immediate;
            }
            Scheme::LlcD => {
                cfg.oram.zalloc = uniform;
                cfg.oram.treetop = dedicated;
                cfg.oram.remap = RemapPolicy::Delayed;
            }
            Scheme::IrAllocStashOnLlcD => {
                cfg.oram.zalloc = alloc_integrated;
                cfg.oram.treetop = irstash;
                cfg.oram.remap = RemapPolicy::Delayed;
            }
        }
        cfg
    }

    /// Number of protected data blocks.
    pub fn data_blocks(&self) -> u64 {
        self.oram.data_blocks
    }

    /// The hard stash limit in force (`stash_hard_limit`, defaulting to
    /// 8 × the soft capacity when unset, saturating at `usize::MAX`).
    pub fn effective_stash_hard_limit(&self) -> usize {
        if self.stash_hard_limit > 0 {
            self.stash_hard_limit
        } else {
            self.oram.stash_capacity.saturating_mul(8)
        }
    }

    /// Sets one scalar field from its CLI spelling (the `--set KEY=VALUE`
    /// override table — every [`SystemConfig`] field has an arm here, which
    /// `tests/config_fingerprint.rs` checks).
    ///
    /// Structured fields (`oram`, `hierarchy`, `dram`, `clock`, `faults`)
    /// are deliberately *not* settable from one `KEY=VALUE` pair; their
    /// arms return an error naming the structured knob to use instead.
    /// Setting `scheme` re-derives the scheme-dependent ORAM parameters via
    /// [`SystemConfig::with_scheme`].
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown key, an unparsable value, or a
    /// structured field.
    pub fn set_field(&mut self, key: &str, value: &str) -> Result<(), String> {
        fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("--set {key}: cannot parse `{value}` as a number"))
        }
        fn flag(key: &str, value: &str) -> Result<bool, String> {
            match value {
                "true" | "1" | "on" => Ok(true),
                "false" | "0" | "off" => Ok(false),
                _ => Err(format!("--set {key}: expected true/false, got `{value}`")),
            }
        }
        match key {
            "scheme" => {
                let s = ALL_SCHEMES
                    .into_iter()
                    .find(|s| s.name().eq_ignore_ascii_case(value))
                    .ok_or_else(|| format!("--set scheme: unknown scheme `{value}`"))?;
                *self = self.with_scheme(s);
            }
            "t_interval" => self.t_interval = num(key, value)?,
            "timing_protection" => self.timing_protection = flag(key, value)?,
            "rob_insts" => self.rob_insts = num(key, value)?,
            "ipc" => self.ipc = num(key, value)?,
            "mshrs" => self.mshrs = num(key, value)?,
            "l1_hit_lat" => self.l1_hit_lat = num(key, value)?,
            "llc_hit_lat" => self.llc_hit_lat = num(key, value)?,
            "front_hit_lat" => self.front_hit_lat = num(key, value)?,
            "decrypt_lat" => self.decrypt_lat = num(key, value)?,
            "subtree_group" => self.subtree_group = num(key, value)?,
            "seed" => self.seed = num(key, value)?,
            "audit" => self.audit = flag(key, value)?,
            "refetch_lat" => self.refetch_lat = num(key, value)?,
            "stash_hard_limit" => self.stash_hard_limit = num(key, value)?,
            "pipeline_depth" => {
                let n: u32 = num(key, value)?;
                if n == 0 {
                    return Err("--set pipeline_depth: must be >= 1 (1 = serial pipeline)".into());
                }
                self.pipeline_depth = n;
            }
            "checkpoint_interval" => self.checkpoint_interval = num(key, value)?,
            "oram" => {
                return Err("--set oram: structured; use the scale flags or edit the config".into())
            }
            "hierarchy" => {
                return Err("--set hierarchy: structured; use the scale flags instead".into())
            }
            "dram" => return Err("--set dram: structured; not settable from the CLI".into()),
            "clock" => return Err("--set clock: structured; not settable from the CLI".into()),
            "faults" => {
                return Err("--set faults: structured; use the fault-injection flags".into())
            }
            _ => return Err(format!("--set: unknown SystemConfig field `{key}`")),
        }
        Ok(())
    }

    /// Renders the configuration as the paper's Table I rows.
    pub fn table1(&self) -> Vec<(String, String)> {
        let block_bytes = 64u64;
        vec![
            (
                "Processor Fetch Width / ROB Size".into(),
                format!("{} / {}", self.ipc, self.rob_insts),
            ),
            (
                "Memory Channels".into(),
                self.dram.mapping.channels().to_string(),
            ),
            ("DRAM Clk Frequency".into(), "800 MHz (DDR3-1600)".into()),
            (
                "L1 D-cache".into(),
                format!(
                    "{}-way {}KB",
                    self.hierarchy.l1_assoc,
                    self.hierarchy.l1_sets * self.hierarchy.l1_assoc * 64 / 1024
                ),
            ),
            (
                "L2 cache (LLC)".into(),
                format!(
                    "{}-way {}KB",
                    self.hierarchy.llc_assoc,
                    self.hierarchy.llc_sets * self.hierarchy.llc_assoc * 64 / 1024
                ),
            ),
            (
                "Protected space and user data".into(),
                format!(
                    "{}MB / {}MB",
                    self.oram.zalloc.total_slots() * block_bytes / (1 << 20),
                    self.oram.data_blocks * block_bytes / (1 << 20)
                ),
            ),
            ("ORAM tree levels".into(), self.oram.levels.to_string()),
            (
                "Bucket size / Block size".into(),
                format!(
                    "{} / {}B",
                    self.oram.zalloc.z_of(self.oram.levels - 1),
                    block_bytes
                ),
            ),
            ("Stash entries".into(), self.oram.stash_capacity.to_string()),
            (
                "Dedicated tree top cache".into(),
                format!(
                    "top {} levels ({} entries)",
                    self.oram.treetop.cached_levels(),
                    ((1u64 << self.oram.treetop.cached_levels()) - 1) * 4
                ),
            ),
            (
                "Path issue interval T".into(),
                format!("{} CPU cycles", self.t_interval),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hard_limit_saturates() {
        let mut cfg = SystemConfig::scaled(Scheme::Baseline);
        cfg.oram.stash_capacity = usize::MAX;
        assert_eq!(cfg.effective_stash_hard_limit(), usize::MAX);
        assert_eq!(cfg.oram.validate(), Ok(()));
    }

    #[test]
    fn scheme_names_unique() {
        let names: std::collections::HashSet<_> = ALL_SCHEMES.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), ALL_SCHEMES.len());
    }

    #[test]
    fn scheme_matrix_matches_paper() {
        let base = SystemConfig::scaled(Scheme::Baseline);
        assert_eq!(base.oram.remap, RemapPolicy::Immediate);
        assert!(matches!(base.oram.treetop, TreeTopMode::Dedicated { .. }));

        let alloc = SystemConfig::scaled(Scheme::IrAlloc);
        assert!(
            alloc
                .oram
                .zalloc
                .path_len(alloc.oram.treetop.cached_levels())
                < base.oram.zalloc.path_len(base.oram.treetop.cached_levels())
        );

        let stash = SystemConfig::scaled(Scheme::IrStash);
        assert!(matches!(stash.oram.treetop, TreeTopMode::IrStash { .. }));

        let iroram = SystemConfig::scaled(Scheme::IrOram);
        assert!(matches!(iroram.oram.treetop, TreeTopMode::IrStash { .. }));
        assert!(iroram.scheme.uses_dwb());

        let llcd = SystemConfig::scaled(Scheme::LlcD);
        assert_eq!(llcd.oram.remap, RemapPolicy::Delayed);

        assert!(Scheme::Rho.uses_rho());
        assert!(!Scheme::Baseline.uses_dwb());
    }

    #[test]
    fn integrated_alloc_is_gentler_than_standalone() {
        // IR-ORAM uses Z=2/3 (IR-Alloc1); standalone IR-Alloc uses Z=1/2
        // (IR-Alloc4) — the integrated setting must touch fewer slots less
        // aggressively (longer PL).
        let a4 = SystemConfig::scaled(Scheme::IrAlloc);
        let a1 = SystemConfig::scaled(Scheme::IrOram);
        let top = a4.oram.treetop.cached_levels();
        assert!(a1.oram.zalloc.path_len(top) > a4.oram.zalloc.path_len(top));
    }

    #[test]
    fn table1_has_expected_rows() {
        let t = SystemConfig::scaled(Scheme::Baseline).table1();
        assert!(t.iter().any(|(k, _)| k.contains("ROB")));
        assert!(t.iter().any(|(k, v)| k.contains("Stash") && v == "200"));
        assert!(t.len() >= 10);
    }

    #[test]
    fn set_field_covers_scalars_and_rejects_structured() {
        let mut cfg = SystemConfig::scaled(Scheme::Baseline);
        cfg.set_field("seed", "99").unwrap();
        assert_eq!(cfg.seed, 99);
        cfg.set_field("timing_protection", "off").unwrap();
        assert!(!cfg.timing_protection);
        cfg.set_field("t_interval", "1234").unwrap();
        assert_eq!(cfg.t_interval, 1234);
        cfg.set_field("stash_hard_limit", "4096").unwrap();
        assert_eq!(cfg.effective_stash_hard_limit(), 4096);
        cfg.set_field("pipeline_depth", "4").unwrap();
        assert_eq!(cfg.pipeline_depth, 4);
        // scheme re-derives the ORAM matrix.
        cfg.set_field("scheme", "IR-ORAM").unwrap();
        assert_eq!(cfg.scheme, Scheme::IrOram);
        assert!(matches!(cfg.oram.treetop, TreeTopMode::IrStash { .. }));
        // Structured fields and unknowns fail loudly.
        assert!(cfg.set_field("dram", "x").is_err());
        assert!(cfg.set_field("faults", "x").is_err());
        assert!(cfg.set_field("no_such_field", "1").is_err());
        assert!(cfg.set_field("seed", "not-a-number").is_err());
    }

    /// `--set pipeline_depth=0` fails at parse time rather than being
    /// silently clamped to `1` by the controllers.
    #[test]
    fn set_field_rejects_zero_for_clamped_knobs() {
        let mut cfg = SystemConfig::scaled(Scheme::Baseline);
        assert!(cfg.set_field("pipeline_depth", "0").is_err());
        assert_eq!(cfg.pipeline_depth, 1, "rejected value must not be applied");
    }

    #[test]
    fn oram_config_valid_for_all_schemes() {
        for s in ALL_SCHEMES {
            assert_eq!(
                SystemConfig::scaled(s).oram.validate(),
                Ok(()),
                "{}",
                s.name()
            );
        }
    }
}
