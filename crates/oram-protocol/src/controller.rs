//! The Path ORAM controller state machine.

use std::collections::BTreeMap;
use std::ops::Range;

use iroram_cache::CacheConfig;
use iroram_hash::FeistelCipher;
use iroram_sim_engine::{SimRng, SnapError, SnapReader, SnapWriter};

use crate::posmap::{PlbStatus, ENTRIES_PER_BLOCK};
use crate::treetop::{DedicatedTreeTop, IrStashTop, TreeTopStore};
use crate::{
    AddressSpace, BlockAddr, BlockKind, ChipBoundary, Leaf, OramTree, PathList, PathRecord,
    PathType, PosMapSystem, ServedFrom, Stash, StoredBlock, TreeLayout, WritebackPlan, ZAllocation,
};

/// Which tree-top store (if any) the controller uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeTopMode {
    /// No on-chip tree top: every path access touches all levels in memory.
    None,
    /// The Baseline's dedicated tree-top cache: top `levels` levels
    /// on-chip, indexed only by tree position (invisible to the LLC).
    Dedicated {
        /// Cached top levels (the paper uses 10).
        levels: usize,
    },
    /// IR-Stash: the double-indexed S-Stash caching the top `levels`
    /// levels, LLC-addressable by block address.
    IrStash {
        /// Cached top levels.
        levels: usize,
        /// S-Stash sets.
        sets: usize,
        /// S-Stash ways (the paper chose 4-way set associative).
        ways: usize,
    },
}

impl TreeTopMode {
    /// Number of on-chip top levels (0 for `None`).
    pub fn cached_levels(&self) -> usize {
        match *self {
            TreeTopMode::None => 0,
            TreeTopMode::Dedicated { levels } | TreeTopMode::IrStash { levels, .. } => levels,
        }
    }

    /// An IR-Stash mode sized to hold the top `levels` of a `Z=4` tree in a
    /// 4-way S-Stash with a small amount of slack.
    pub fn ir_stash_sized(levels: usize) -> Self {
        let slots = ((1usize << levels) - 1) * 4;
        TreeTopMode::IrStash {
            levels,
            sets: (slots / 4).next_power_of_two(),
            ways: 4,
        }
    }
}

/// A rejected block access: the caller asked the protocol for something its
/// escrow/translation state cannot serve. These used to be controller
/// panics; surfacing them as values lets the timed controllers propagate
/// them as a typed `SimError` instead of aborting the whole experiment
/// process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessError {
    /// The address has no PosMap mapping — it is escrowed (delayed remap
    /// discards the mapping at access time; front stores must serve it) or
    /// was never part of the address space.
    Unmapped(BlockAddr),
    /// [`PathOram::delayed_insert_block`] was asked to re-insert a block
    /// that is not in the escrow.
    NotEscrowed(BlockAddr),
    /// [`PathOram::delayed_insert_block`] was called under a remap policy
    /// other than [`RemapPolicy::Delayed`] (there is no escrow to drain).
    WrongPolicy(BlockAddr),
}

impl std::fmt::Display for AccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessError::Unmapped(a) => write!(
                f,
                "block {:#x} is unmapped (escrowed blocks are served by front_access)",
                a.0
            ),
            AccessError::NotEscrowed(a) => {
                write!(f, "block {:#x} is not escrowed", a.0)
            }
            AccessError::WrongPolicy(a) => write!(
                f,
                "delayed insert of block {:#x} needs the delayed remap policy",
                a.0
            ),
        }
    }
}

impl std::error::Error for AccessError {}

/// When accessed blocks get remapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemapPolicy {
    /// Standard Path ORAM: remap at access time; the tree keeps a copy while
    /// the LLC holds the line (dirty evictions issue a write access).
    Immediate,
    /// Delayed remapping (Nagarajan et al. \[23\], the paper's "LLC-D"):
    /// the mapping is discarded at access time and the block leaves the
    /// ORAM; it is re-inserted (with PosMap traffic) when the LLC evicts it
    /// — clean *or* dirty.
    Delayed,
}

/// Configuration of a [`PathOram`] instance.
#[derive(Debug, Clone, PartialEq)]
pub struct OramConfig {
    /// Tree levels `L` (root = level 0).
    pub levels: usize,
    /// Number of user data blocks protected (PosMap blocks are added on top
    /// inside the merged tree).
    pub data_blocks: u64,
    /// Per-level bucket capacities.
    pub zalloc: ZAllocation,
    /// Tree-top store.
    pub treetop: TreeTopMode,
    /// Soft stash capacity (Table I: 200 entries).
    pub stash_capacity: usize,
    /// PLB geometry: sets.
    pub plb_sets: usize,
    /// PLB geometry: ways.
    pub plb_ways: usize,
    /// Remap policy.
    pub remap: RemapPolicy,
    /// Cap on background-eviction paths drained after one access.
    pub max_bg_evicts_per_access: usize,
    /// Store payloads encrypted in the tree (Feistel permutation).
    pub encrypt_payloads: bool,
    /// IRO-style integrity layer: maintain per-bucket checksums and verify
    /// every memory bucket on path read, repairing detected corruption
    /// (modelled re-fetch). With this off, injected corruption flows into
    /// the stash undetected.
    pub integrity: bool,
    /// RNG seed; equal seeds give bit-identical protocol behaviour.
    pub seed: u64,
}

impl OramConfig {
    /// A tiny configuration for unit tests and doc examples: 8 levels,
    /// 256 data blocks, top 3 levels in a dedicated cache.
    pub fn tiny() -> Self {
        OramConfig {
            levels: 8,
            data_blocks: 256,
            zalloc: ZAllocation::uniform(8, 4),
            treetop: TreeTopMode::Dedicated { levels: 3 },
            stash_capacity: 64,
            plb_sets: 4,
            plb_ways: 2,
            remap: RemapPolicy::Immediate,
            max_bg_evicts_per_access: 8,
            encrypt_payloads: true,
            integrity: true,
            seed: 0xC0FFEE,
        }
    }

    /// The scaled default experiment configuration: a 17-level tree
    /// protecting 2^18 data blocks (the paper's L=25 / 2^26-block setup
    /// shrunk 256×, keeping the ~52% space utilization and the proportions
    /// of memory-resident levels), top 7 levels cached.
    pub fn scaled_default() -> Self {
        let levels = 17;
        OramConfig {
            levels,
            data_blocks: 1u64 << (levels + 1),
            zalloc: ZAllocation::uniform(levels, 4),
            treetop: TreeTopMode::Dedicated { levels: 7 },
            stash_capacity: 200,
            plb_sets: 16,
            plb_ways: 4,
            remap: RemapPolicy::Immediate,
            max_bg_evicts_per_access: 8,
            encrypt_payloads: false,
            integrity: true,
            seed: 0xC0FFEE,
        }
    }

    /// Total blocks (data + PosMap) stored in the merged tree.
    pub fn total_blocks(&self) -> u64 {
        AddressSpace::new(self.data_blocks).total_blocks()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// The first inconsistency found, as a [`ConfigError`]: a tree under
    /// two levels, leaves that do not fit 32 bits below the unmapped
    /// sentinel, an allocation height mismatch, cached levels out of
    /// range, a tree too small for the block population, or block
    /// addresses that do not fit 32 bits below the empty-slot sentinel.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.levels < 2 {
            return Err(ConfigError::TooFewLevels {
                levels: self.levels,
            });
        }
        // 2^(levels-1) leaves; the largest must stay below `u32::MAX`.
        if self.levels > 32 {
            return Err(ConfigError::LeafOverflow {
                levels: self.levels,
            });
        }
        if self.zalloc.levels() != self.levels {
            return Err(ConfigError::HeightMismatch {
                levels: self.levels,
                zalloc_levels: self.zalloc.levels(),
            });
        }
        let cached = self.treetop.cached_levels();
        if cached >= self.levels {
            return Err(ConfigError::TopCoversTree {
                cached,
                levels: self.levels,
            });
        }
        let blocks = self.total_blocks();
        // Saturating: a stash of `usize::MAX` blocks holds any population.
        let capacity = self
            .zalloc
            .total_slots()
            .saturating_add(self.stash_capacity as u64);
        if blocks > capacity {
            return Err(ConfigError::Overfull { blocks, capacity });
        }
        // Addresses run to `blocks - 1`; `u32::MAX` marks an empty slot.
        if blocks >= 1 << 32 {
            return Err(ConfigError::AddressOverflow { blocks });
        }
        Ok(())
    }
}

/// An inconsistent [`OramConfig`], as [`OramConfig::validate`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The tree has fewer than two levels.
    TooFewLevels {
        /// Configured tree levels.
        levels: usize,
    },
    /// The Z allocation describes a tree of another height.
    HeightMismatch {
        /// Configured tree levels.
        levels: usize,
        /// Levels the allocation covers.
        zalloc_levels: usize,
    },
    /// The tree top would cache every level on-chip.
    TopCoversTree {
        /// Cached top levels.
        cached: usize,
        /// Configured tree levels.
        levels: usize,
    },
    /// The tree slots plus the stash cannot hold every block.
    Overfull {
        /// Data plus PosMap blocks to store.
        blocks: u64,
        /// Tree slots plus soft stash capacity.
        capacity: u64,
    },
    /// More blocks than 32-bit addresses below the empty-slot sentinel
    /// name (slots, the insertion order and the leaf table store `u32`s).
    AddressOverflow {
        /// Data plus PosMap blocks to store.
        blocks: u64,
    },
    /// More leaves than 32-bit leaf indices below the unmapped sentinel
    /// name.
    LeafOverflow {
        /// Configured tree levels.
        levels: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigError::TooFewLevels { levels } => {
                write!(f, "tree needs at least two levels, got {levels}")
            }
            ConfigError::HeightMismatch {
                levels,
                zalloc_levels,
            } => write!(
                f,
                "allocation height {zalloc_levels} must match tree height {levels}"
            ),
            ConfigError::TopCoversTree { cached, levels } => write!(
                f,
                "cannot cache every level on-chip ({cached} of {levels} levels)"
            ),
            ConfigError::Overfull { blocks, capacity } => {
                write!(f, "{blocks} blocks cannot fit {capacity} slots")
            }
            ConfigError::AddressOverflow { blocks } => {
                write!(f, "{blocks} blocks exceed 2^32 - 1 block addresses")
            }
            ConfigError::LeafOverflow { levels } => write!(
                f,
                "a {levels}-level tree has more leaves than 32-bit leaf indices name"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Protocol-level statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Logical accesses served via [`PathOram::run_access`].
    pub accesses: u64,
    /// Served directly from F-Stash (no path, no PosMap).
    pub fstash_hits: u64,
    /// Served from S-Stash by address (IR-Stash front door).
    pub sstash_hits: u64,
    /// Served from escrow (delayed-remap block held by the LLC).
    pub escrow_hits: u64,
    /// Served from the tree top after PosMap resolution (no memory path).
    pub treetop_hits: u64,
    /// `PT_p` paths for PosMap₁ blocks.
    pub pos1_paths: u64,
    /// `PT_p` paths for PosMap₂ blocks.
    pub pos2_paths: u64,
    /// `PT_d` paths.
    pub data_paths: u64,
    /// Background-eviction paths.
    pub bg_evict_paths: u64,
    /// Dummy (`PT_m`) paths issued for timing protection.
    pub dummy_paths: u64,
    /// Where requested blocks were found: one counter per tree level.
    pub served_level: Vec<u64>,
    /// Requested blocks found already in the stash.
    pub served_stash: u64,
    /// Blocks read from memory (path read phases).
    pub blocks_from_memory: u64,
    /// Blocks written to memory (path write phases).
    pub blocks_to_memory: u64,
    /// Write-phase blocks bounced off full S-Stash sets.
    pub sstash_rejects: u64,
    /// Delayed-remap re-insertions.
    pub delayed_inserts: u64,
}

iroram_sim_engine::counter_codec!(ProtocolStats {
    accesses,
    fstash_hits,
    sstash_hits,
    escrow_hits,
    treetop_hits,
    pos1_paths,
    pos2_paths,
    data_paths,
    bg_evict_paths,
    dummy_paths,
    served_level,
    served_stash,
    blocks_from_memory,
    blocks_to_memory,
    sstash_rejects,
    delayed_inserts,
});

impl ProtocolStats {
    /// All path accesses of any type.
    pub fn total_paths(&self) -> u64 {
        self.pos1_paths + self.pos2_paths + self.data_paths + self.bg_evict_paths + self.dummy_paths
    }

    /// PosMap (`PT_p`) paths.
    pub fn posmap_paths(&self) -> u64 {
        self.pos1_paths + self.pos2_paths
    }
}

/// The outcome of one logical access (or sub-operation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRecord {
    /// Path accesses performed, in order.
    pub paths: PathList,
    /// Where the requested block was found.
    pub served: ServedFrom,
    /// The block's payload value (before any write of this access).
    pub payload: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RemapAction {
    Remap,
    UnmapEscrow,
}

/// How an access updates the requested block's payload.
///
/// The controller reads the block wherever it is found (stash, tree top,
/// tree) and applies the operation to the payload in place — so a
/// read-modify-write (the KV layer's packed-entry update) costs exactly one
/// ORAM access instead of a dependent read-then-write pair.
pub enum WriteOp<'a> {
    /// Read only: the payload is untouched.
    None,
    /// Unconditional overwrite with the given value.
    Set(u64),
    /// Compute the new payload from the current one; returning `None`
    /// leaves the block unchanged (still a full, externally indistinguishable
    /// access).
    With(&'a mut dyn FnMut(u64) -> u64),
}

impl WriteOp<'_> {
    /// The payload the block holds after this operation, given it currently
    /// holds `cur`.
    fn apply(&mut self, cur: u64) -> u64 {
        match self {
            WriteOp::None => cur,
            WriteOp::Set(v) => *v,
            WriteOp::With(f) => f(cur),
        }
    }
}

impl From<Option<u64>> for WriteOp<'_> {
    fn from(w: Option<u64>) -> Self {
        match w {
            None => WriteOp::None,
            Some(v) => WriteOp::Set(v),
        }
    }
}

/// The functional Path ORAM controller.
///
/// See the [crate docs](crate) for the role split between this state machine
/// and the timed simulator. All behaviour is deterministic given the
/// configuration seed.
///
/// # Examples
///
/// ```
/// use iroram_protocol::{OramConfig, PathOram};
/// let mut oram = PathOram::new(OramConfig::tiny());
/// oram.write(7, 1234);
/// let rec = oram.run_access(iroram_protocol::BlockAddr(7), None);
/// assert_eq!(rec.payload, 1234);
/// ```
pub struct PathOram {
    cfg: OramConfig,
    layout: TreeLayout,
    tree: OramTree,
    stash: Stash,
    posmap: PosMapSystem,
    top: Option<Box<dyn TreeTopStore + Send>>,
    escrow: BTreeMap<u64, u64>,
    // Keyed at construction from the seed; stateless per block.
    cipher: FeistelCipher,
    rng: SimRng,
    stats: ProtocolStats,
    // Hot-loop scratch reused across path accesses (never logical state).
    plan: WritebackPlan,
    read_buf: Vec<StoredBlock>,
    rej_buf: Vec<StoredBlock>,
}

impl std::fmt::Debug for PathOram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PathOram")
            .field("levels", &self.cfg.levels)
            .field("data_blocks", &self.cfg.data_blocks)
            .field("stash_len", &self.stash.len())
            .field("accesses", &self.stats.accesses)
            .finish_non_exhaustive()
    }
}

impl PathOram {
    /// Builds the ORAM and initializes it the way the paper does: every
    /// block (data and PosMap) is "accessed once in a random order",
    /// remapped, and written into the tree, so level-utilization snapshots
    /// start from the paper's "0B" state. Statistics are zeroed afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`OramConfig::validate`]).
    pub fn new(cfg: OramConfig) -> Self {
        let workers = init_workers(cfg.total_blocks());
        Self::build(cfg, workers).0
    }

    /// [`PathOram::new`] with the by-subtree pass on up to `workers`
    /// threads, also reporting how many of its runs abandoned it (any: the
    /// in-order loop built the state from scratch). Either way the state
    /// is the in-order loop's.
    fn build(cfg: OramConfig, workers: usize) -> (Self, usize) {
        let mut oram = PathOram::unplaced(cfg);
        let abandoned = oram.insert_by_subtree(workers);
        if abandoned > 0 {
            let cfg = oram.cfg.clone();
            drop(oram);
            oram = PathOram::unplaced(cfg);
            oram.insert_in_order();
        }
        oram.reset_stats();
        // Checksums are derived data while the tree is pristine: enabling
        // integrity only allocates the table, which the first injected
        // fault fills from the slots (the rng stream and statistics are
        // untouched, so reports cannot change).
        oram.tree.set_integrity(oram.cfg.integrity);
        (oram, abandoned)
    }

    /// The ORAM with every block mapped to a leaf but none placed yet:
    /// empty tree, tree top and stash.
    fn unplaced(cfg: OramConfig) -> Self {
        assert_eq!(cfg.validate(), Ok(()), "invalid ORAM configuration");
        let layout = TreeLayout::new(cfg.zalloc.clone());
        let mut rng = SimRng::seed_from(cfg.seed);
        let space = AddressSpace::new(cfg.data_blocks);
        let posmap = PosMapSystem::new(
            space,
            layout.num_leaves(),
            CacheConfig::new(cfg.plb_sets, cfg.plb_ways),
            &mut rng,
        );
        let top: Option<Box<dyn TreeTopStore + Send>> = match cfg.treetop {
            TreeTopMode::None => None,
            TreeTopMode::Dedicated { levels } => {
                Some(Box::new(DedicatedTreeTop::new(&layout, levels)))
            }
            TreeTopMode::IrStash { levels, sets, ways } => {
                Some(Box::new(IrStashTop::new(&layout, levels, sets, ways)))
            }
        };
        let tree = OramTree::new(layout.clone());
        PathOram {
            cipher: FeistelCipher::new(cfg.seed ^ 0x0BAD_5EED),
            tree,
            stash: Stash::new(cfg.stash_capacity),
            posmap,
            top,
            escrow: BTreeMap::new(),
            rng,
            plan: WritebackPlan::new(),
            read_buf: Vec::new(),
            rej_buf: Vec::new(),
            stats: ProtocolStats {
                served_level: vec![0; cfg.levels],
                ..ProtocolStats::default()
            },
            layout,
            cfg,
        }
    }

    /// The paper's insertion order: every block address, shuffled by the
    /// ORAM's RNG. [`OramConfig::validate`] bounds the block count by
    /// 2^32 - 1, so every address fits a `u32`.
    fn insertion_order(&mut self) -> Vec<u32> {
        let total = self.posmap.space().total_blocks();
        let mut order: Vec<u32> = (0..total).map(|a| a as u32).collect();
        self.rng.shuffle(&mut order);
        order
    }

    /// Paper-style initialization: every block is inserted once, in the
    /// shuffled order, by a stash insert and one path access to its leaf,
    /// each followed by the init-time background-eviction drain.
    fn insert_in_order(&mut self) {
        for addr in self.insertion_order() {
            let block = self.init_block(u64::from(addr));
            self.stash.insert(block);
            self.path_access(
                block.leaf,
                None,
                PathType::BgEvict,
                RemapAction::Remap,
                &mut WriteOp::None,
            );
            self.drain_init_overflow();
        }
    }

    /// [`PathOram::insert_in_order`]'s state, built subtree by subtree.
    /// Path ORAM places a block only on its own leaf's path, so while no
    /// block sits above level `split` (the tree-top boundary) and the
    /// stash stays empty, an insert reads and writes only the subtree
    /// rooted at `split` that holds its leaf, and inserts under different
    /// subtrees commute. The shuffled order is therefore stable-grouped by
    /// that subtree, keeping the shuffle order inside each, and every
    /// insert is placed on its path's levels `>= split` by
    /// [`SubtreeRun::insert`](crate::tree::SubtreeRun::insert), where
    /// nothing can veto a slot, so one subtree's slice of the arena stays
    /// in cache while its inserts run.
    /// Contiguous runs of subtrees go to up to `workers` threads
    /// ([`OramTree::par_subtrees`]): each run's inserts touch only its own
    /// slots, the per-level counts merge by a sum and the watermark by a
    /// maximum, and no RNG draw follows the shuffle, so the state does not
    /// depend on the worker count.
    ///
    /// An insert that cannot place every block at or below `split` would,
    /// in the in-order loop, have used the tree top or the stash, after
    /// which the subtrees no longer commute: its run stops there and the
    /// pass is abandoned, leaving a state the caller discards. Returns the
    /// number of runs that stopped so (0: the pass built the state).
    fn insert_by_subtree(&mut self, workers: usize) -> usize {
        let split = self.cfg.treetop.cached_levels();
        let shift = self.cfg.levels - 1 - split;
        let order = self.insertion_order();
        let grouped = group_stable(&order, 1 << split, |addr| {
            (self.init_block(u64::from(addr)).leaf.0 >> shift) as usize
        });
        // At most two orders of one `u32` per block are ever alive.
        drop(order);
        // The tree holds payloads encrypted: the new block's is encrypted
        // here, the path's other blocks move as they are.
        let payload = if self.cfg.encrypt_payloads {
            self.cipher.encrypt(0)
        } else {
            0
        };
        let posmap = &self.posmap;
        let peaks = self.tree.par_subtrees(split, workers, |run| {
            let mut peak = 0;
            for &addr in grouped.of(run.subtrees()) {
                let addr = BlockAddr(u64::from(addr));
                // lint: allow(panic, PosMapSystem::new maps every block, and nothing unmaps one before the first access)
                let leaf = posmap.leaf_of(addr).expect("all blocks mapped at init");
                peak = peak.max(run.insert(leaf, addr, payload)?);
            }
            Some(peak)
        });
        let abandoned = peaks.iter().filter(|peak| peak.is_none()).count();
        self.stash
            .raise_watermark(peaks.into_iter().flatten().max().unwrap_or(0));
        abandoned
    }

    /// Block `addr` as initialization inserts it: at its mapped leaf,
    /// holding plaintext 0.
    fn init_block(&self, addr: u64) -> StoredBlock {
        let leaf = self
            .posmap
            .leaf_of(BlockAddr(addr))
            .expect("all blocks mapped at init");
        StoredBlock {
            addr: BlockAddr(addr),
            leaf,
            payload: 0,
        }
    }

    /// Init-time background eviction after one insert: up to 32 random-leaf
    /// paths while the stash is over capacity. Returns the paths taken.
    fn drain_init_overflow(&mut self) -> usize {
        let mut evicts = 0;
        while self.stash.over_capacity() && evicts < 32 {
            self.bg_evict_once();
            evicts += 1;
        }
        evicts
    }

    /// The configuration.
    pub fn config(&self) -> &OramConfig {
        &self.cfg
    }

    /// The tree layout.
    pub fn layout(&self) -> &TreeLayout {
        &self.layout
    }

    /// Protocol statistics since the last reset.
    pub fn stats(&self) -> &ProtocolStats {
        &self.stats
    }

    /// Zeroes the statistics, including the PLB hit/miss counters (keeps
    /// protocol state).
    pub fn reset_stats(&mut self) {
        self.stats = ProtocolStats {
            served_level: vec![0; self.cfg.levels],
            ..ProtocolStats::default()
        };
        self.posmap.plb_hits = 0;
        self.posmap.plb_misses = 0;
    }

    /// Fetches every PosMap block once, in data-address order, then zeroes
    /// the statistics. With a PLB that covers the whole position map this
    /// leaves every translation a hit, so no later access takes a `PT_p`
    /// path.
    pub fn warm_plb(&mut self) {
        for a in (0..self.cfg.data_blocks).step_by(ENTRIES_PER_BLOCK as usize) {
            for pm in self.posmap_resolve(BlockAddr(a)) {
                self.fetch_posmap_block(pm);
            }
        }
        self.reset_stats();
    }

    /// Current stash occupancy.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Stash high-water mark.
    pub fn stash_peak(&self) -> usize {
        self.stash.max_occupancy()
    }

    /// The PLB hit/miss counters `(hits, misses)`.
    pub fn plb_counters(&self) -> (u64, u64) {
        (self.posmap.plb_hits, self.posmap.plb_misses)
    }

    /// A uniformly random leaf (for dummy paths).
    pub fn random_leaf(&mut self) -> Leaf {
        Leaf(self.rng.next_below(self.layout.num_leaves()))
    }

    // ------------------------------------------------------------------
    // Convenience API (functional experiments, examples, tests)
    // ------------------------------------------------------------------

    /// Reads data block `addr`, driving the whole protocol.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a data block address.
    pub fn read(&mut self, addr: u64) -> u64 {
        self.run_access(BlockAddr(addr), None).payload
    }

    /// Writes `payload` to data block `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a data block address.
    pub fn write(&mut self, addr: u64, payload: u64) {
        self.run_access(BlockAddr(addr), Some(payload));
    }

    /// Performs one complete logical access (front probe, PosMap
    /// resolution, data path, background eviction) immediately, returning
    /// everything the timed simulator would have spread over path slots.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a data block address.
    pub fn run_access(&mut self, addr: BlockAddr, write: Option<u64>) -> AccessRecord {
        let mut op = WriteOp::from(write);
        let rec = self.run_access_op(addr, &mut op);
        self.finish_access(rec)
    }

    /// Like [`PathOram::run_access`], but the new payload is computed from
    /// the current one by `update` — a read-modify-write in one access.
    /// Returning the input unchanged makes this a plain read; either way the
    /// externally visible path traffic is identical.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a data block address.
    pub fn run_access_with(
        &mut self,
        addr: BlockAddr,
        mut update: impl FnMut(u64) -> u64,
    ) -> AccessRecord {
        let mut op = WriteOp::With(&mut update);
        let rec = self.run_access_op(addr, &mut op);
        self.finish_access(rec)
    }

    /// Opens a batched access session: accesses submitted through it defer
    /// background-eviction drains to [`AccessBatch::finish`], amortizing the
    /// stash write-back planning the drain performs across the whole batch.
    pub fn batch(&mut self) -> AccessBatch<'_> {
        AccessBatch { oram: self, ops: 0 }
    }

    /// The complete logical access minus the trailing background-eviction
    /// drain (shared by [`PathOram::run_access`] and [`AccessBatch`]).
    fn run_access_op(&mut self, addr: BlockAddr, write: &mut WriteOp<'_>) -> AccessRecord {
        assert_eq!(
            self.posmap.space().kind_of(addr),
            BlockKind::Data,
            "run_access takes data addresses"
        );
        self.stats.accesses += 1;
        if let Some((served, payload)) = self.front_access_op(addr, write) {
            return AccessRecord {
                paths: PathList::new(),
                served,
                payload,
            };
        }
        let mut paths = PathList::new();
        for pm in self.posmap_resolve(addr) {
            let rec = self.fetch_posmap_block(pm);
            paths.extend(rec.paths);
        }
        let data = self
            .block_access(addr, PathType::Data, self.data_remap_action(), write)
            .expect("run_access serves escrowed blocks via front_access");
        let served = data.served;
        let payload = data.payload;
        paths.extend(data.paths.iter().copied());
        AccessRecord {
            paths,
            served,
            payload,
        }
    }

    /// Appends the per-access background-eviction drain to `rec`.
    fn finish_access(&mut self, mut rec: AccessRecord) -> AccessRecord {
        rec.paths.extend(self.drain_bg());
        rec
    }

    fn data_remap_action(&self) -> RemapAction {
        match self.cfg.remap {
            RemapPolicy::Immediate => RemapAction::Remap,
            RemapPolicy::Delayed => RemapAction::UnmapEscrow,
        }
    }

    // ------------------------------------------------------------------
    // Stepwise API (timed simulator)
    // ------------------------------------------------------------------

    /// Checks the on-chip front stores — F-Stash always; the escrow under
    /// delayed remapping; S-Stash (by block address) under IR-Stash. A hit
    /// serves the access with **no** path access, PosMap traffic, or remap.
    pub fn front_access(
        &mut self,
        addr: BlockAddr,
        write: Option<u64>,
    ) -> Option<(ServedFrom, u64)> {
        self.front_access_op(addr, &mut WriteOp::from(write))
    }

    fn front_access_op(
        &mut self,
        addr: BlockAddr,
        write: &mut WriteOp<'_>,
    ) -> Option<(ServedFrom, u64)> {
        // A block sits in one front store at most, so the order of the
        // probes does not matter; the stash goes last, as only it needs
        // the block's PosMap leaf.
        if let Some(p) = self.escrow.get_mut(&addr.0) {
            let payload = *p;
            *p = write.apply(payload);
            self.stats.escrow_hits += 1;
            return Some((ServedFrom::Escrow, payload));
        }
        if matches!(self.cfg.treetop, TreeTopMode::IrStash { .. }) {
            let top = self.top.as_mut().expect("IrStash mode has a top store");
            if let Some(b) = top.front_get_mut(addr) {
                let payload = b.payload;
                b.payload = write.apply(payload);
                self.stats.sstash_hits += 1;
                return Some((ServedFrom::SStash, payload));
            }
        }
        let leaf = self.posmap.leaf_of(addr);
        if let Some(p) = leaf.and_then(|leaf| self.stash.payload_mut(leaf, addr)) {
            let payload = *p;
            *p = write.apply(payload);
            self.stats.fstash_hits += 1;
            return Some((ServedFrom::FStash, payload));
        }
        None
    }

    /// Non-perturbing PLB status for `addr` (IR-DWB's `Stage` computation).
    pub fn posmap_status(&self, addr: BlockAddr) -> PlbStatus {
        self.posmap.plb_status(addr)
    }

    /// Performs the PLB lookups for `addr` and returns the PosMap blocks
    /// that must be fetched (outermost first).
    pub fn posmap_resolve(&mut self, addr: BlockAddr) -> Vec<BlockAddr> {
        self.posmap.resolve(addr)
    }

    /// Fetches one PosMap block through the ORAM (a `PT_p` path — unless it
    /// is found on-chip) and fills the PLB with it.
    ///
    /// # Panics
    ///
    /// Panics if `pm_addr` is a data address.
    pub fn fetch_posmap_block(&mut self, pm_addr: BlockAddr) -> AccessRecord {
        let ptype = match self.posmap.space().kind_of(pm_addr) {
            BlockKind::PosMap1 => PathType::Pos1,
            BlockKind::PosMap2 => PathType::Pos2,
            BlockKind::Data => panic!("fetch_posmap_block takes PosMap addresses"),
        };
        let rec = self
            .block_access(pm_addr, ptype, RemapAction::Remap, &mut WriteOp::None)
            .expect("PosMap blocks are always mapped (never escrowed)");
        self.posmap.plb_fill(pm_addr);
        rec
    }

    /// Accesses the data block itself. Requires translation to be complete
    /// (PosMap resolved). May return zero paths when the block is found in
    /// the tree-top store or stash.
    ///
    /// # Errors
    ///
    /// [`AccessError::Unmapped`] if `addr` has no PosMap mapping (escrowed
    /// blocks are served by [`PathOram::front_access`]).
    pub fn data_access(
        &mut self,
        addr: BlockAddr,
        write: Option<u64>,
    ) -> Result<AccessRecord, AccessError> {
        let action = self.data_remap_action();
        self.block_access(addr, PathType::Data, action, &mut WriteOp::from(write))
    }

    /// Whether the stash is over capacity (background eviction required).
    pub fn bg_evict_pending(&self) -> bool {
        self.stash.over_capacity()
    }

    /// Issues one background-eviction path to a random leaf.
    pub fn bg_evict_once(&mut self) -> PathRecord {
        let leaf = self.random_leaf();
        self.path_access(
            leaf,
            None,
            PathType::BgEvict,
            RemapAction::Remap,
            &mut WriteOp::None,
        )
        .0
    }

    /// Issues one dummy path (timing protection). Like every real path it
    /// reads and rewrites a random path, so it also drains the stash — the
    /// effect the paper notes when comparing background-eviction counts with
    /// and without timing protection (Section VI-A).
    pub fn dummy_path(&mut self) -> PathRecord {
        let leaf = self.random_leaf();
        self.path_access(
            leaf,
            None,
            PathType::Dummy,
            RemapAction::Remap,
            &mut WriteOp::None,
        )
        .0
    }

    /// Drains background evictions (up to the configured per-access cap).
    pub fn drain_bg(&mut self) -> Vec<PathRecord> {
        let mut out = Vec::new();
        while self.bg_evict_pending() && out.len() < self.cfg.max_bg_evicts_per_access {
            out.push(self.bg_evict_once());
        }
        out
    }

    /// Re-inserts an escrowed block into the ORAM (delayed-remap LLC
    /// eviction). The caller must have resolved the PosMap first (the
    /// paper's "it demands PosMap accesses at write-back time"). No path
    /// access happens here — the block enters the stash with a fresh leaf
    /// and sinks on later paths.
    ///
    /// # Errors
    ///
    /// [`AccessError::WrongPolicy`] if the policy is not delayed,
    /// [`AccessError::NotEscrowed`] if the block is not escrowed.
    pub fn delayed_insert_block(&mut self, addr: BlockAddr) -> Result<(), AccessError> {
        if self.cfg.remap != RemapPolicy::Delayed {
            return Err(AccessError::WrongPolicy(addr));
        }
        let payload = self
            .escrow
            .remove(&addr.0)
            .ok_or(AccessError::NotEscrowed(addr))?;
        let leaf = self.posmap.remap(addr, &mut self.rng);
        self.stash.insert(StoredBlock {
            addr,
            leaf,
            payload,
        });
        self.stats.delayed_inserts += 1;
        Ok(())
    }

    /// Full delayed write-back convenience (PosMap resolution + insertion),
    /// returning the PosMap paths it generated.
    ///
    /// # Errors
    ///
    /// Propagates [`PathOram::delayed_insert_block`]'s errors.
    pub fn delayed_writeback(&mut self, addr: BlockAddr) -> Result<AccessRecord, AccessError> {
        let mut paths = PathList::new();
        for pm in self.posmap_resolve(addr) {
            paths.extend(self.fetch_posmap_block(pm).paths);
        }
        self.delayed_insert_block(addr)?;
        paths.extend(self.drain_bg());
        Ok(AccessRecord {
            paths,
            served: ServedFrom::Escrow,
            payload: 0,
        })
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Per-level `(used, capacity)` merging the tree-top store with the
    /// in-memory tree (the paper's space-utilization metric, Figs. 3/13).
    pub fn utilization_per_level(&self) -> Vec<(u64, u64)> {
        let mut occ = self.tree.occupancy();
        if let Some(top) = &self.top {
            for (level, pair) in top.occupancy().into_iter().enumerate() {
                occ[level] = pair;
            }
        }
        occ
    }

    /// Direct access to the tree (tests, invariants).
    pub fn tree(&self) -> &OramTree {
        &self.tree
    }

    /// Integrity-layer counters (injected / detected / recovered /
    /// undetected corruptions).
    pub fn integrity_stats(&self) -> crate::IntegrityStats {
        self.tree.integrity_stats()
    }

    /// Injects a storage fault: XORs `mask` into the payload stored in slot
    /// `slot` of memory bucket `(level, bucket)` (fault-injection surface
    /// for the robustness harness; `level` must be a memory level, below
    /// any on-chip tree top).
    pub fn inject_tree_fault(&mut self, level: usize, bucket: u64, slot: u32, mask: u64) {
        self.tree.inject_fault(level, bucket, slot, mask);
    }

    /// Direct access to the stash.
    pub fn stash(&self) -> &Stash {
        &self.stash
    }

    /// The position-map subsystem.
    pub fn posmap(&self) -> &PosMapSystem {
        &self.posmap
    }

    /// The tree-top store, if configured.
    pub fn treetop_store(&self) -> Option<&(dyn TreeTopStore + Send)> {
        self.top.as_deref()
    }

    /// Addresses currently escrowed (delayed remap).
    pub fn escrowed(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.escrow.keys().map(|&a| BlockAddr(a))
    }

    /// Whether `addr` is currently escrowed (held by the LLC under the
    /// delayed-remap policy).
    pub fn is_escrowed(&self, addr: BlockAddr) -> bool {
        self.escrow.contains_key(&addr.0)
    }

    /// Decrypts an in-tree payload (for tests and invariant checks that
    /// look at raw tree contents).
    pub fn decrypt_payload(&self, v: u64) -> u64 {
        if self.cfg.encrypt_payloads {
            self.cipher.decrypt(v)
        } else {
            v
        }
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Serializes the complete logical protocol state for a checkpoint:
    /// tree, stash, PosMap (+PLB), tree-top store, escrow, RNG stream, and
    /// statistics. The cipher, layout, and hot-loop scratch are derived
    /// from the configuration and are not written.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.tree.save_state(w);
        self.stash.save_state(w);
        self.posmap.save_state(w);
        match &self.top {
            None => w.put_u8(0),
            Some(top) => {
                w.put_u8(1);
                top.save_state(w);
            }
        }
        w.put_usize(self.escrow.len());
        for (&addr, &payload) in &self.escrow {
            w.put_u64(addr);
            w.put_u64(payload);
        }
        for s in self.rng.state() {
            w.put_u64(s);
        }
        self.stats.save(w);
    }

    /// Restores the state written by [`PathOram::save_state`] into this
    /// instance, which must have been built from the same configuration.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] on truncation, or [`SnapError::Corrupt`] when the
    /// snapshot disagrees with this instance's geometry (tree size, tree-top
    /// mode, PosMap size, escrow ordering, per-level counter count) or a
    /// stash block's leaf is not its PosMap entry.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.tree.restore_state(r)?;
        self.stash.restore_state(r, &self.layout)?;
        self.posmap.restore_state(r)?;
        // The stash finds a resident under its PosMap leaf: one filed
        // under another could never be found again.
        let space = self.posmap.space().total_blocks();
        if self
            .stash
            .iter()
            .any(|b| b.addr.0 >= space || self.posmap.leaf_of(b.addr) != Some(b.leaf))
        {
            return Err(SnapError::Corrupt("stash block off its PosMap leaf"));
        }
        let top_tag = r.take_u8()?;
        match (&mut self.top, top_tag) {
            (None, 0) => {}
            (Some(top), 1) => top.restore_state(r, &self.layout)?,
            _ => return Err(SnapError::Corrupt("tree-top presence mismatch")),
        }
        let n = r.take_seq_len(16)?;
        self.escrow.clear();
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let addr = r.take_u64()?;
            if prev.is_some_and(|p| p >= addr) {
                return Err(SnapError::Corrupt("escrow entries out of order"));
            }
            prev = Some(addr);
            self.escrow.insert(addr, r.take_u64()?);
        }
        let mut rng_state = [0u64; 4];
        for s in &mut rng_state {
            *s = r.take_u64()?;
        }
        self.rng = SimRng::from_state(rng_state);
        let stats = ProtocolStats::restore(r)?;
        if stats.served_level.len() != self.stats.served_level.len() {
            return Err(SnapError::Corrupt("served-level counter count mismatch"));
        }
        self.stats = stats;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// One block-targeted ORAM access: stash check, tree-top probe, then a
    /// full path access.
    fn block_access(
        &mut self,
        addr: BlockAddr,
        ptype: PathType,
        action: RemapAction,
        write: &mut WriteOp<'_>,
    ) -> Result<AccessRecord, AccessError> {
        // The ORAM controller searches its on-chip stores before any path.
        // A block sits in one of them at most, so the S-Stash, which needs
        // no PosMap leaf, goes first; the stash keeps a resident under its
        // PosMap leaf.
        // IR-Stash: the S-Stash is indexed by block address, so *any* block
        // — including PosMap₁/₂ blocks, whose reuse is 16× denser than data
        // — can be found on-chip before any translation. This is the heart
        // of the PT_p reduction: a PosMap block served here costs no path
        // and needs no PosMap₂ lookup of its own.
        if matches!(self.cfg.treetop, TreeTopMode::IrStash { .. }) {
            let probed = self
                .top
                .as_ref()
                .expect("IrStash mode has a top store")
                .front_probe(addr);
            if let Some(level) = probed {
                let b = self
                    .top
                    .as_mut()
                    .expect("checked")
                    .front_get_mut(addr)
                    .expect("probe found it");
                let payload = b.payload;
                b.payload = write.apply(payload);
                self.stats.sstash_hits += 1;
                self.stats.served_level[level] += 1;
                return Ok(AccessRecord {
                    paths: PathList::new(),
                    served: ServedFrom::SStash,
                    payload,
                });
            }
        }
        let mapped = self.posmap.leaf_of(addr);
        if let Some(leaf) = mapped.filter(|&leaf| self.stash.contains(leaf, addr)) {
            return self.serve_from_stash(leaf, addr, action, write);
        }
        let leaf = mapped.ok_or(AccessError::Unmapped(addr))?;
        // Tree-top probe: with top levels on-chip, the controller checks
        // them before generating any memory traffic ("we will not start
        // off-chip memory accesses until we know if the requested block is
        // in the on-chip sub-stashes", Section IV-E). A hit needs no path
        // access and no remap.
        if self.top.is_some() {
            if let Some((level, payload)) = self.top_path_probe(leaf, addr, write) {
                self.stats.treetop_hits += 1;
                self.stats.served_level[level] += 1;
                return Ok(AccessRecord {
                    paths: PathList::new(),
                    served: ServedFrom::TreeTop { level },
                    payload,
                });
            }
        }
        let (rec, served, payload) = self.path_access(leaf, Some(addr), ptype, action, write);
        Ok(AccessRecord {
            paths: PathList::one(rec),
            served: served.expect("targeted path access reports a source"),
            payload,
        })
    }

    fn serve_from_stash(
        &mut self,
        leaf: Leaf,
        addr: BlockAddr,
        action: RemapAction,
        write: &mut WriteOp<'_>,
    ) -> Result<AccessRecord, AccessError> {
        self.stats.served_stash += 1;
        self.stats.fstash_hits += 1;
        let payload = match action {
            RemapAction::Remap => {
                let Some(p) = self.stash.payload_mut(leaf, addr) else {
                    return Err(AccessError::Unmapped(addr));
                };
                let payload = *p;
                *p = write.apply(payload);
                payload
            }
            RemapAction::UnmapEscrow => {
                let Some(b) = self.stash.take(leaf, addr) else {
                    return Err(AccessError::Unmapped(addr));
                };
                self.posmap.unmap(addr);
                self.escrow.insert(addr.0, write.apply(b.payload));
                b.payload
            }
        };
        Ok(AccessRecord {
            paths: PathList::new(),
            served: ServedFrom::FStash,
            payload,
        })
    }

    /// Probes the on-chip top portion of the path to `leaf` for `addr`;
    /// serves it in place on a hit (no remap, per the dedicated-cache
    /// design \[32\]).
    fn top_path_probe(
        &mut self,
        leaf: Leaf,
        addr: BlockAddr,
        write: &mut WriteOp<'_>,
    ) -> Option<(usize, u64)> {
        let cached = self.top.as_ref().map_or(0, |t| t.cached_levels());
        for level in 0..cached {
            let bucket = self.layout.bucket_on_path(leaf, level);
            let top = self.top.as_mut().expect("probed only when present");
            if !top.bucket_contains(level, bucket, addr) {
                continue;
            }
            // Serve in place through the controller scratch buffers: the
            // take/write round-trip reuses their capacity, so a tree-top
            // hit allocates nothing.
            let mut blocks = std::mem::take(&mut self.read_buf);
            let mut rejected = std::mem::take(&mut self.rej_buf);
            blocks.clear();
            rejected.clear();
            top.take_bucket_into(level, bucket, &mut blocks);
            let mut payload = 0;
            for b in &mut blocks {
                if b.addr == addr {
                    payload = b.payload;
                    b.payload = write.apply(payload);
                }
            }
            top.write_bucket_from(level, bucket, &mut blocks, &mut rejected);
            debug_assert!(
                rejected.is_empty(),
                "re-writing a bucket's own contents must fit"
            );
            for r in rejected.drain(..) {
                self.stash.insert(r);
            }
            self.read_buf = blocks;
            self.rej_buf = rejected;
            return Some((level, payload));
        }
        None
    }

    /// The full read–serve–remap–write path access.
    ///
    /// Returns the path record plus, for targeted accesses, where the block
    /// was found and its (pre-write) payload.
    fn path_access(
        &mut self,
        leaf: Leaf,
        target: Option<BlockAddr>,
        ptype: PathType,
        action: RemapAction,
        write: &mut WriteOp<'_>,
    ) -> (PathRecord, Option<ServedFrom>, u64) {
        match ptype {
            PathType::Pos1 => self.stats.pos1_paths += 1,
            PathType::Pos2 => self.stats.pos2_paths += 1,
            PathType::Data => self.stats.data_paths += 1,
            PathType::BgEvict => self.stats.bg_evict_paths += 1,
            PathType::Dummy => self.stats.dummy_paths += 1,
            PathType::DwbConverted => {}
        }
        let levels = self.cfg.levels;
        let cached = self.top.as_ref().map_or(0, |t| t.cached_levels());

        // --- Read phase: gather the whole path, tree top then memory
        //     levels, into `read_buf`, noting where the target landed.
        //     The path stays there until the write-back plan: the stash
        //     holds it only logically. `read_buf` is controller-owned
        //     scratch: taking it out and putting it back keeps its capacity
        //     across path accesses, so the path is read without
        //     allocating. ---
        let mut read_buf = std::mem::take(&mut self.read_buf);
        let mut found: Option<(usize, usize)> = None;
        read_buf.clear();
        for level in 0..cached {
            let bucket = self.layout.bucket_on_path(leaf, level);
            let start = read_buf.len();
            self.top
                .as_mut()
                .expect("cached levels imply a top store")
                .take_bucket_into(level, bucket, &mut read_buf);
            found = found.or_else(|| position(&read_buf, start, target).map(|i| (level, i)));
        }
        // Integrity layer: verify the whole path's checksums up front, before
        // any memory bucket is taken and its contents trusted; detected
        // corruption is repaired (re-fetch) and the timing layer charges the
        // penalty. Buckets on the path are level-distinct, so one pass ahead
        // of the takes performs exactly the per-level verifications.
        self.tree.verify_and_repair_path(leaf, cached);
        // The memory blocks stay sealed (see `ChipBoundary`):
        // `read_buf[sealed_from..]` holds ciphertext, the tree-top blocks
        // before it plaintext. Only a block that leaves memory is opened.
        let mut sealed_from = read_buf.len();
        for level in cached..levels {
            let bucket = self.layout.bucket_on_path(leaf, level);
            let start = read_buf.len();
            self.tree.take_bucket_into(level, bucket, &mut read_buf);
            found = found.or_else(|| position(&read_buf, start, target).map(|i| (level, i)));
        }
        let cipher = self.cfg.encrypt_payloads.then_some(&self.cipher);
        self.stash.hold_path(&read_buf);
        self.stats.blocks_from_memory += self.layout.path_len_memory(cached);

        // --- Serve + remap phase (before the write phase, so payload
        //     updates and unmapping are reflected in what gets written). ---
        let mut served = None;
        let mut payload_out = 0;
        if let Some(addr) = target {
            served = Some(match found {
                Some((level, _)) => {
                    self.stats.served_level[level] += 1;
                    if level < cached {
                        ServedFrom::TreeTop { level }
                    } else {
                        ServedFrom::Tree { level }
                    }
                }
                None => {
                    // Pre-existing stash resident (raced in via an earlier
                    // path): legal, counts as a stash serve.
                    self.stats.served_stash += 1;
                    ServedFrom::FStash
                }
            });
            let index = found.map(|(_, i)| i);
            match action {
                RemapAction::Remap => {
                    let new_leaf = self.posmap.remap(addr, &mut self.rng);
                    // A resident target is kept under its old leaf, the
                    // path's: it leaves the stash and comes back remapped.
                    let mut resident = None;
                    let b = match index {
                        Some(mut i) => {
                            if let Some(c) = cipher.filter(|_| i >= sealed_from) {
                                // The served block is opened and moved to
                                // the front of the sealed range, which then
                                // starts after it.
                                read_buf.swap(i, sealed_from);
                                i = sealed_from;
                                sealed_from += 1;
                                if let Some(b) = read_buf.get_mut(i) {
                                    b.payload = c.decrypt(b.payload);
                                }
                            }
                            read_buf.get_mut(i)
                        }
                        None => {
                            resident = self.stash.take(leaf, addr);
                            resident.as_mut()
                        }
                    }
                    .expect("target must be held after the read phase");
                    payload_out = b.payload;
                    b.payload = write.apply(payload_out);
                    b.leaf = new_leaf;
                    if let Some(b) = resident {
                        self.stash.insert(b);
                    }
                }
                RemapAction::UnmapEscrow => {
                    let b = match index {
                        Some(i) => {
                            let mut b = read_buf.swap_remove(i);
                            if let Some(c) = cipher {
                                // The target leaves memory opened. For a
                                // tree-top target, `swap_remove` moved the
                                // last block, sealed if the path has any,
                                // into the plaintext range: open it there.
                                let opened = if i >= sealed_from {
                                    Some(&mut b)
                                } else if sealed_from <= read_buf.len() {
                                    read_buf.get_mut(i)
                                } else {
                                    None
                                };
                                if let Some(o) = opened {
                                    o.payload = c.decrypt(o.payload);
                                }
                            }
                            Some(b)
                        }
                        None => self.stash.take(leaf, addr),
                    }
                    .expect("target must be held after the read phase");
                    self.posmap.unmap(addr);
                    payload_out = b.payload;
                    self.escrow.insert(addr.0, write.apply(b.payload));
                }
            }
        }

        // --- Write phase: push the stash and path blocks as deep as
        //     possible. ---
        // The plan is controller-owned scratch too: its per-level vectors
        // are refilled in place and drained below, so steady-state write
        // phases reallocate nothing.
        let mut plan = std::mem::take(&mut self.plan);
        let top = self.top.as_deref();
        self.stash.plan_writeback(
            &self.layout,
            leaf,
            0,
            &read_buf,
            ChipBoundary::new(cipher, cached, sealed_from),
            |level, b| top_accepts(top, cached, level, b),
            &mut plan,
        );
        self.read_buf = read_buf;
        let mut rej_buf = std::mem::take(&mut self.rej_buf);
        for level in 0..plan.len() {
            let bucket = self.layout.bucket_on_path(leaf, level);
            if level < cached {
                rej_buf.clear();
                self.top
                    .as_mut()
                    .expect("cached levels imply a top store")
                    .write_bucket_from(level, bucket, plan.level_mut(level), &mut rej_buf);
                self.stats.sstash_rejects += rej_buf.len() as u64;
                for r in rej_buf.drain(..) {
                    self.stash.insert(r);
                }
            } else {
                self.tree
                    .write_bucket_from(level, bucket, plan.level_mut(level));
            }
        }
        self.rej_buf = rej_buf;
        self.plan = plan;
        self.stats.blocks_to_memory += self.layout.path_len_memory(cached);

        (PathRecord { leaf, ptype }, served, payload_out)
    }
}

/// The index of `target` in `blocks[from..]`, if it is there.
fn position(blocks: &[StoredBlock], from: usize, target: Option<BlockAddr>) -> Option<usize> {
    let addr = target?;
    let at = blocks.get(from..)?.iter().position(|b| b.addr == addr)?;
    Some(from + at)
}

/// The write-back placement predicate: a memory level takes any block; a
/// cached level only one its tree-top store can hold (an S-Stash set may
/// be full).
fn top_accepts(
    top: Option<&(dyn TreeTopStore + Send)>,
    cached: usize,
    level: usize,
    b: &StoredBlock,
) -> bool {
    // Bucket identity is irrelevant to both stores' accept check (S-Stash
    // keys on the block address).
    level >= cached
        || top
            .expect("cached levels imply a top store")
            .can_accept(level, 0, b)
}

/// Blocks each by-subtree worker gets at least. A spawned worker took
/// 0.1–0.25 ms to start on a 2-vCPU VM, about a thousand inserts' worth,
/// so a quick-scale tree (a few thousand blocks) builds on one thread and
/// an L=17 tree (~280k blocks) on every core.
const MIN_BLOCKS_PER_WORKER: u64 = 1 << 15;

/// The by-subtree pass's worker count for `blocks` blocks: one per core,
/// as [`MIN_BLOCKS_PER_WORKER`] allows. The built state does not depend
/// on it.
fn init_workers(blocks: u64) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let by_size = usize::try_from(blocks / MIN_BLOCKS_PER_WORKER).unwrap_or(usize::MAX);
    cores.min(by_size).max(1)
}

/// A [`group_stable`] order: the items group by group, and where each
/// group ends.
struct Grouped {
    items: Vec<u32>,
    ends: Vec<usize>,
}

impl Grouped {
    /// The items of the consecutive groups `groups`, in order.
    fn of(&self, groups: Range<usize>) -> &[u32] {
        // lint: allow(panic, `ends` holds one end per group, and `groups` are among them)
        let start = groups.start.checked_sub(1).map_or(0, |g| self.ends[g]);
        // lint: allow(panic, start <= end <= items.len(): a counting sort's group ends never decrease)
        &self.items[start..self.ends[groups.end - 1]]
    }
}

/// `items`, a permutation of `0..items.len()`, stably grouped by `key`,
/// which maps each below `groups`: one counting sort, so items with equal
/// keys keep their order. The count pass visits the keys in ascending
/// item order, so a `key` that reads a table indexed by item reads it
/// sequentially there; only the scatter follows `items`.
fn group_stable(items: &[u32], groups: usize, key: impl Fn(u32) -> usize) -> Grouped {
    // `next[k]` counts group `k`, then becomes where its next item goes.
    let mut next = vec![0usize; groups];
    for item in (0..=u32::MAX).take(items.len()) {
        if let Some(n) = next.get_mut(key(item)) {
            *n += 1;
        }
    }
    let mut start = 0;
    for n in &mut next {
        let count = *n;
        *n = start;
        start += count;
    }
    let mut grouped = vec![0u32; items.len()];
    for &item in items {
        if let Some(n) = next.get_mut(key(item)) {
            if let Some(slot) = grouped.get_mut(*n) {
                *slot = item;
            }
            *n += 1;
        }
    }
    // Each group's cursor has reached its end.
    Grouped {
        items: grouped,
        ends: next,
    }
}

/// A batched access session over a [`PathOram`].
///
/// Every access submitted through the batch performs its front probe,
/// PosMap resolution, and data path immediately — but the trailing
/// background-eviction drain (and the stash write-back planning it repeats)
/// is deferred to [`AccessBatch::finish`], which drains once for the whole
/// batch under the same per-access cap. Submitting `n` accesses and
/// finishing is therefore protocol-equivalent to `n` bare accesses with the
/// drains reordered to the end; the stash soft capacity absorbs the
/// intra-batch growth.
///
/// # Examples
///
/// ```
/// use iroram_protocol::{BlockAddr, OramConfig, PathOram};
/// let mut oram = PathOram::new(OramConfig::tiny());
/// let mut batch = oram.batch();
/// batch.access(BlockAddr(3), Some(7));
/// let payload = batch.access(BlockAddr(3), None).payload;
/// let bg_paths = batch.finish();
/// assert_eq!(payload, 7);
/// assert!(bg_paths.len() <= 2 * 8);
/// ```
pub struct AccessBatch<'a> {
    oram: &'a mut PathOram,
    ops: usize,
}

impl AccessBatch<'_> {
    /// One logical access (read, or overwrite with `write`), without the
    /// per-access background-eviction drain.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a data block address.
    pub fn access(&mut self, addr: BlockAddr, write: Option<u64>) -> AccessRecord {
        self.ops += 1;
        self.oram.run_access_op(addr, &mut WriteOp::from(write))
    }

    /// One logical read-modify-write access: the block's new payload is
    /// computed from its current one by `update` (see
    /// [`PathOram::run_access_with`]).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a data block address.
    pub fn access_with(
        &mut self,
        addr: BlockAddr,
        mut update: impl FnMut(u64) -> u64,
    ) -> AccessRecord {
        self.ops += 1;
        self.oram
            .run_access_op(addr, &mut WriteOp::With(&mut update))
    }

    /// Accesses submitted so far.
    pub fn len(&self) -> usize {
        self.ops
    }

    /// Whether no access has been submitted yet.
    pub fn is_empty(&self) -> bool {
        self.ops == 0
    }

    /// Drains background evictions for the whole batch — up to the same
    /// per-access cap the unbatched path enforces, summed over the batch —
    /// and returns the eviction paths performed.
    pub fn finish(self) -> Vec<PathRecord> {
        let cap = self.ops * self.oram.cfg.max_bg_evicts_per_access;
        let mut out = Vec::new();
        while self.oram.bg_evict_pending() && out.len() < cap {
            out.push(self.oram.bg_evict_once());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocPreset;
    use proptest::prelude::*;

    /// What the reference initialization met on its way: S-Stash
    /// write-back rejections, inserts that found the stash non-empty (the
    /// kernel's fallback to a full path access) and init-time background
    /// evictions.
    #[derive(Debug, Default)]
    struct InitTally {
        sstash_rejects: u64,
        fallback_inserts: usize,
        bg_evicts: usize,
    }

    /// [`PathOram::new`] with the initialization loop the placement kernel
    /// replaced: every insert goes through the stash and a full path
    /// access. The reference the equivalence property compares against.
    fn reference_new(cfg: OramConfig) -> (PathOram, InitTally) {
        let mut oram = PathOram::unplaced(cfg);
        let total = oram.posmap.space().total_blocks();
        let mut order: Vec<u64> = (0..total).collect();
        oram.rng.shuffle(&mut order);
        let mut tally = InitTally::default();
        for addr in order {
            let block = oram.init_block(addr);
            tally.fallback_inserts += usize::from(!oram.stash.is_empty());
            oram.stash.insert(block);
            oram.path_access(
                block.leaf,
                None,
                PathType::BgEvict,
                RemapAction::Remap,
                &mut WriteOp::None,
            );
            tally.bg_evicts += oram.drain_init_overflow();
        }
        tally.sstash_rejects = oram.stats.sstash_rejects;
        oram.reset_stats();
        oram.tree.set_integrity(oram.cfg.integrity);
        (oram, tally)
    }

    fn snapshot(oram: &PathOram) -> Vec<u8> {
        let mut w = SnapWriter::new();
        oram.save_state(&mut w);
        w.into_bytes()
    }

    /// A random small configuration: `levels` high, Z uniform or an
    /// IR-Alloc preset, up to `util_pct` of the slots holding blocks.
    /// `pressure` 1 fills every slot plus a tenth of the tree in stash
    /// blocks and shrinks the S-Stash to one entry, so blocks bound for
    /// the tree top get rejected or left over and stay in the stash; 2
    /// fills exactly the slots and drops the stash's soft capacity to
    /// zero, so every leftover triggers background eviction.
    fn init_config(
        levels: usize,
        shape: u8,
        treetop: u8,
        pressure: u8,
        util_pct: u64,
        encrypt: bool,
        seed: u64,
    ) -> OramConfig {
        let cached = (levels / 3).max(1);
        let zalloc = match shape {
            0 => ZAllocation::uniform(levels, 4),
            1 => ZAllocation::uniform(levels, 2),
            2 => ZAllocation::preset(AllocPreset::IrAlloc1, levels, cached),
            _ => ZAllocation::preset(AllocPreset::IrAlloc4, levels, cached),
        };
        let slots = zalloc.total_slots();
        let util_pct = match pressure {
            0 => util_pct,
            1 => 110,
            _ => 100,
        };
        // The most data blocks whose PosMap blocks still keep the total
        // within the target.
        let target = slots * util_pct / 100;
        let mut data_blocks = target;
        while AddressSpace::new(data_blocks).total_blocks() > target {
            data_blocks -= 1;
        }
        let treetop = match (treetop, pressure) {
            (_, 1..) => TreeTopMode::IrStash {
                levels: cached,
                sets: 1,
                ways: 1,
            },
            (0, _) => TreeTopMode::None,
            (1, _) => TreeTopMode::Dedicated { levels: cached },
            _ => TreeTopMode::ir_stash_sized(cached),
        };
        OramConfig {
            levels,
            data_blocks,
            zalloc,
            treetop,
            stash_capacity: if pressure == 2 {
                0
            } else {
                slots as usize / 10
            },
            plb_sets: 4,
            plb_ways: 2,
            remap: RemapPolicy::Immediate,
            max_bg_evicts_per_access: 8,
            encrypt_payloads: encrypt,
            integrity: seed & 1 == 1,
            seed,
        }
    }

    /// The construction routes a case can take: the by-subtree pass
    /// completes, on one run of subtrees or on several; it is abandoned
    /// for the in-order loop, among several runs by one run alone; and,
    /// within that loop, inserts that find the stash non-empty and init
    /// background evictions.
    #[derive(Debug, Default, Clone, Copy)]
    struct RouteCounts {
        by_subtree: usize,
        multi_run: usize,
        fallback: usize,
        one_of_many_abandons: usize,
        stash_inserts: usize,
        bg_evicts: usize,
    }

    thread_local! {
        static ROUTES: std::cell::Cell<RouteCounts> =
            std::cell::Cell::new(RouteCounts::default());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Construction builds byte-for-byte the state of the reference
        /// loop: tree, tree top, stash and watermark, PosMap, RNG stream
        /// and statistics, on any number of by-subtree workers. Under
        /// pressure both of the in-order loop's fallbacks must actually
        /// run. Each case's route is tallied in `ROUTES`.
        fn construction_matches_the_reference_loop(
            levels in 3usize..10,
            shape in 0u8..4,
            treetop in 0u8..3,
            pressure in 0u8..3,
            util_pct in 20u64..70,
            encrypt in any::<bool>(),
            seed in any::<u64>(),
            workers in 1usize..5,
        ) {
            let cfg = init_config(levels, shape, treetop, pressure, util_pct, encrypt, seed);
            let (reference, tally) = reference_new(cfg.clone());
            let (built, abandoned) = PathOram::build(cfg.clone(), workers);
            let by_subtree = abandoned == 0;
            // Below a tree top, two or more workers split the subtrees
            // into as many runs.
            let multi_run = workers > 1 && cfg.treetop.cached_levels() > 0;
            prop_assert!(snapshot(&built) == snapshot(&reference), "{cfg:?}");
            built.check_invariants().expect("constructed ORAM is sound");
            match pressure {
                1 => prop_assert!(
                    tally.sstash_rejects > 0 && tally.fallback_inserts > 0,
                    "{cfg:?} {tally:?}"
                ),
                2 => prop_assert!(tally.bg_evicts > 0, "{cfg:?} {tally:?}"),
                _ => {}
            }
            let mut seen = ROUTES.get();
            if by_subtree {
                // The by-subtree pass completes only if no insert needs
                // the tree top or the stash, so neither holds a block.
                let split = cfg.treetop.cached_levels();
                let above_split: u64 = built.utilization_per_level()[..split]
                    .iter()
                    .map(|&(used, _)| used)
                    .sum();
                prop_assert!(above_split == 0 && built.stash_len() == 0, "{cfg:?}");
                prop_assert!(
                    tally.fallback_inserts == 0 && tally.bg_evicts == 0,
                    "{cfg:?} {tally:?}"
                );
                seen.by_subtree += 1;
                seen.multi_run += usize::from(multi_run);
            } else {
                // Abandoned, the in-order loop built it: the reference
                // tally is that loop's own route.
                seen.fallback += 1;
                seen.one_of_many_abandons += usize::from(multi_run && abandoned == 1);
                seen.stash_inserts += usize::from(tally.fallback_inserts > 0);
                seen.bg_evicts += usize::from(tally.bg_evicts > 0);
            }
            ROUTES.set(seen);
        }
    }

    /// The property above, plus route coverage: across its cases every
    /// construction route must have run at least once.
    #[test]
    fn init_kernel_matches_the_reference_loop() {
        ROUTES.set(RouteCounts::default());
        construction_matches_the_reference_loop();
        let seen = ROUTES.get();
        assert!(
            seen.by_subtree > 0
                && seen.multi_run > 0
                && seen.fallback > 0
                && seen.one_of_many_abandons > 0
                && seen.stash_inserts > 0
                && seen.bg_evicts > 0,
            "{seen:?}"
        );
    }

    /// A uniform Z=2 tree filled to every slot cannot keep the tree top
    /// empty: the by-subtree pass is abandoned after placing some blocks,
    /// and the restarted in-order loop still builds the reference state.
    #[test]
    fn an_abandoned_subtree_pass_restarts_to_the_reference_state() {
        let cfg = init_config(8, 1, 1, 2, 100, true, 0x5EED);
        let mut partial = PathOram::unplaced(cfg.clone());
        assert!(partial.insert_by_subtree(1) > 0);
        let placed: u64 = partial
            .utilization_per_level()
            .iter()
            .map(|&(used, _)| used)
            .sum();
        assert!(
            placed > 1,
            "abandoned mid-pass, not at the first insert ({placed})"
        );
        let (built, abandoned) = PathOram::build(cfg.clone(), 1);
        assert!(abandoned > 0);
        let (reference, _) = reference_new(cfg);
        assert!(snapshot(&built) == snapshot(&reference));
    }

    /// The L=17 trees the simulator runs on: `scaled_default` with
    /// uniform Z under a dedicated top, IR-Alloc4 under it, and IR-Stash
    /// over uniform Z or IR-Alloc1.
    fn standard_scale_trees() -> [(&'static str, OramConfig); 4] {
        let base = OramConfig::scaled_default();
        let (levels, top) = (base.levels, base.treetop.cached_levels());
        let alloc = |preset| ZAllocation::preset(preset, levels, top);
        let irstash = TreeTopMode::ir_stash_sized(top);
        [
            ("uniform", base.clone()),
            (
                "IR-Alloc4",
                OramConfig {
                    zalloc: alloc(AllocPreset::IrAlloc4),
                    ..base.clone()
                },
            ),
            (
                "IR-Stash",
                OramConfig {
                    treetop: irstash,
                    ..base.clone()
                },
            ),
            (
                "IR-Stash + IR-Alloc1",
                OramConfig {
                    zalloc: alloc(AllocPreset::IrAlloc1),
                    treetop: irstash,
                    ..base
                },
            ),
        ]
    }

    /// The standard-scale trees are all built by the by-subtree pass, so
    /// a silent fall back to the in-order loop fails a test, not only a
    /// timing.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow in a debug build; run with --release")]
    fn standard_scale_trees_are_built_by_subtree() {
        for (name, cfg) in standard_scale_trees() {
            let workers = init_workers(cfg.total_blocks());
            assert_eq!(
                PathOram::build(cfg, workers).1,
                0,
                "{name} fell back to the in-order loop"
            );
        }
    }

    /// The initial state does not depend on how many workers the
    /// by-subtree pass runs on: the standard-scale trees, ρ's small tree
    /// beside the main one (`RhoTrees::new`: two levels shorter, Z=2, no
    /// top) and the `kv-large-uniform` shard's tree
    /// (`KvConfig::for_keys(131_072, 1).oram_config(0)`) snapshot
    /// byte-equal at 1, 2 and every core's worth of workers.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow in a debug build; run with --release")]
    fn builds_are_independent_of_the_worker_count() {
        let base = OramConfig::scaled_default();
        let small_levels = base.levels - 2;
        let rho_small = OramConfig {
            levels: small_levels,
            data_blocks: 1 << (small_levels - 1),
            zalloc: ZAllocation::from_z(vec![2; small_levels]),
            treetop: TreeTopMode::None,
            plb_sets: 512,
            seed: base.seed ^ 0x5A11,
            ..base.clone()
        };
        let kv_space = AddressSpace::new(base.data_blocks);
        let kv_shard = OramConfig {
            plb_sets: (kv_space.n_pm1() + kv_space.n_pm2()).div_ceil(4) as usize,
            encrypt_payloads: true,
            seed: iroram_hash::mix64(0xC0FFEE ^ 0x0053_4841_5244),
            ..base
        };
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let trees = standard_scale_trees()
            .into_iter()
            .chain([("rho small tree", rho_small), ("KV shard", kv_shard)]);
        for (name, cfg) in trees {
            let (one, abandoned) = PathOram::build(cfg.clone(), 1);
            assert_eq!(abandoned, 0, "{name}");
            let one = snapshot(&one);
            for workers in [2, cores] {
                let (built, _) = PathOram::build(cfg.clone(), workers);
                assert!(snapshot(&built) == one, "{name} on {workers} workers");
            }
        }
    }

    #[test]
    fn warm_plb_covering_the_map_hits_every_address() {
        let space = AddressSpace::new(OramConfig::tiny().data_blocks);
        let lines = (space.n_pm1() + space.n_pm2()) as usize;
        let mut oram = PathOram::new(OramConfig {
            plb_sets: lines.div_ceil(4),
            plb_ways: 4,
            ..OramConfig::tiny()
        });
        oram.warm_plb();
        for a in 0..space.n_data() {
            assert_eq!(oram.posmap_status(BlockAddr(a)), PlbStatus::Hit, "addr {a}");
        }
        let zero = ProtocolStats {
            served_level: vec![0; oram.config().levels],
            ..ProtocolStats::default()
        };
        assert_eq!(oram.stats(), &zero);
        assert_eq!(oram.plb_counters(), (0, 0));
        oram.check_invariants().expect("ORAM sound after warm-up");
    }

    fn tiny_with(treetop: TreeTopMode, remap: RemapPolicy) -> PathOram {
        let cfg = OramConfig {
            treetop,
            remap,
            ..OramConfig::tiny()
        };
        PathOram::new(cfg)
    }

    #[test]
    fn read_your_writes_all_modes() {
        for treetop in [
            TreeTopMode::None,
            TreeTopMode::Dedicated { levels: 3 },
            TreeTopMode::IrStash {
                levels: 3,
                sets: 8,
                ways: 4,
            },
        ] {
            for remap in [RemapPolicy::Immediate, RemapPolicy::Delayed] {
                let mut oram = tiny_with(treetop, remap);
                for a in 0..64u64 {
                    oram.write(a, a * 7 + 1);
                }
                for a in 0..64u64 {
                    assert_eq!(oram.read(a), a * 7 + 1, "{treetop:?} {remap:?} addr {a}");
                }
            }
        }
    }

    #[test]
    fn untouched_blocks_read_zero() {
        let mut oram = PathOram::new(OramConfig::tiny());
        assert_eq!(oram.read(42), 0);
    }

    #[test]
    fn accesses_generate_paths_and_stats() {
        let mut oram = PathOram::new(OramConfig::tiny());
        let mut total_paths = 0usize;
        for a in 0..128u64 {
            let rec = oram.run_access(BlockAddr(a % 256), None);
            total_paths += rec.paths.len();
        }
        assert!(total_paths > 0, "cold accesses must generate path traffic");
        let s = oram.stats();
        assert_eq!(s.accesses, 128);
        assert_eq!(
            s.total_paths() as usize,
            total_paths,
            "stats must agree with returned records"
        );
    }

    #[test]
    fn posmap_misses_cost_extra_paths() {
        let mut oram = PathOram::new(OramConfig::tiny());
        // First touch of a cold region: PLB cold → Pos2+Pos1+Data possible.
        let rec = oram.run_access(BlockAddr(0), None);
        let n_cold = rec.paths.len();
        // Immediately touching a sibling under the same PosMap1 block can
        // only need the data path (PLB now warm), unless served on-chip.
        let rec2 = oram.run_access(BlockAddr(1), None);
        assert!(rec2.paths.len() <= 1 + oram.config().max_bg_evicts_per_access);
        assert!(n_cold >= rec2.paths.len());
    }

    #[test]
    fn dummy_and_bg_paths_have_types() {
        let mut oram = PathOram::new(OramConfig::tiny());
        let d = oram.dummy_path();
        assert_eq!(d.ptype, PathType::Dummy);
        let b = oram.bg_evict_once();
        assert_eq!(b.ptype, PathType::BgEvict);
        assert_eq!(oram.stats().dummy_paths, 1);
        assert_eq!(oram.stats().bg_evict_paths, 1);
    }

    #[test]
    fn delayed_policy_escrows_and_reinserts() {
        let mut oram = tiny_with(TreeTopMode::Dedicated { levels: 3 }, RemapPolicy::Delayed);
        oram.write(5, 99);
        // After the access the block is escrowed (unmapped).
        assert!(oram.escrowed().any(|a| a == BlockAddr(5)));
        assert!(!oram.posmap().is_mapped(BlockAddr(5)));
        // A re-access hits the escrow with no paths.
        let rec = oram.run_access(BlockAddr(5), None);
        assert_eq!(rec.served, ServedFrom::Escrow);
        assert_eq!(rec.payload, 99);
        assert!(rec.paths.is_empty());
        // LLC evicts it: write-back re-inserts with a fresh mapping.
        oram.delayed_writeback(BlockAddr(5)).unwrap();
        assert!(oram.posmap().is_mapped(BlockAddr(5)));
        assert!(!oram.escrowed().any(|a| a == BlockAddr(5)));
        assert_eq!(oram.read(5), 99);
    }

    /// The documented escrow misuses are typed errors, not panics: a
    /// delayed insert of a non-escrowed block, a delayed insert under the
    /// immediate policy, and a data access to an unmapped (escrowed) block.
    #[test]
    fn escrow_misuse_is_a_typed_error() {
        let mut oram = tiny_with(TreeTopMode::Dedicated { levels: 3 }, RemapPolicy::Delayed);
        assert_eq!(
            oram.delayed_insert_block(BlockAddr(5)),
            Err(AccessError::NotEscrowed(BlockAddr(5)))
        );
        oram.write(5, 1); // escrows block 5, unmapping it
        assert_eq!(
            oram.data_access(BlockAddr(5), None).unwrap_err(),
            AccessError::Unmapped(BlockAddr(5))
        );
        let mut imm = tiny_with(TreeTopMode::Dedicated { levels: 3 }, RemapPolicy::Immediate);
        assert_eq!(
            imm.delayed_insert_block(BlockAddr(5)),
            Err(AccessError::WrongPolicy(BlockAddr(5)))
        );
        assert_eq!(
            imm.delayed_writeback(BlockAddr(5)).unwrap_err(),
            AccessError::WrongPolicy(BlockAddr(5))
        );
    }

    #[test]
    fn irstash_front_door_serves_without_paths() {
        let mut oram = tiny_with(
            TreeTopMode::IrStash {
                levels: 3,
                sets: 16,
                ways: 4,
            },
            RemapPolicy::Immediate,
        );
        // Touch a block repeatedly: once it settles in S-Stash or F-Stash,
        // accesses stop generating paths.
        let mut free_hits = 0;
        for _ in 0..20 {
            let rec = oram.run_access(BlockAddr(3), None);
            if rec.paths.is_empty() {
                free_hits += 1;
            }
        }
        assert!(
            free_hits > 10,
            "hot block should serve on-chip ({free_hits})"
        );
        let s = oram.stats();
        assert!(s.fstash_hits + s.sstash_hits + s.treetop_hits > 0);
    }

    #[test]
    fn utilization_snapshot_counts_all_blocks() {
        let oram = PathOram::new(OramConfig::tiny());
        let occ = oram.utilization_per_level();
        let placed: u64 = occ.iter().map(|&(u, _)| u).sum();
        let total = oram.config().total_blocks();
        let in_stash = oram.stash_len() as u64;
        assert_eq!(placed + in_stash, total, "every block accounted for");
    }

    #[test]
    fn stats_reset_keeps_state() {
        let mut oram = PathOram::new(OramConfig::tiny());
        oram.write(9, 1);
        oram.reset_stats();
        assert_eq!(oram.stats().accesses, 0);
        assert_eq!(oram.read(9), 1);
    }

    #[test]
    #[should_panic(expected = "data addresses")]
    fn run_access_rejects_posmap_addresses() {
        let mut oram = PathOram::new(OramConfig::tiny());
        let pm = oram.posmap().space().pm1_block_of(BlockAddr(0));
        oram.run_access(pm, None);
    }

    #[test]
    fn encrypted_payloads_differ_at_rest() {
        let cfg = OramConfig {
            encrypt_payloads: true,
            ..OramConfig::tiny()
        };
        let mut oram = PathOram::new(cfg);
        oram.write(1, 0x1234_5678);
        // Drain the block out of the stash into the tree.
        for _ in 0..50 {
            oram.dummy_path();
        }
        // Find it in the tree; the stored payload must be ciphertext.
        let stored = oram
            .tree()
            .iter_blocks()
            .find(|(_, _, b)| b.addr == BlockAddr(1));
        if let Some((_, _, b)) = stored {
            assert_ne!(b.payload, 0x1234_5678, "payload must not be plaintext");
            assert_eq!(oram.decrypt_payload(b.payload), 0x1234_5678);
        }
        // Regardless of where it ended up, it reads back correctly.
        assert_eq!(oram.read(1), 0x1234_5678);
    }

    /// Asserts that every at-rest copy of every block holds the last value
    /// `written` to its address (0 if none): sealed in a memory slot, in
    /// plaintext in the stash, the tree top (S-Stash included) and the
    /// escrow.
    fn assert_at_rest(oram: &PathOram, written: &BTreeMap<u64, u64>, when: &str) {
        let want = |addr: BlockAddr| written.get(&addr.0).copied().unwrap_or(0);
        for (level, bucket, b) in oram.tree().iter_blocks() {
            let got = oram.decrypt_payload(b.payload);
            assert_eq!(got, want(b.addr), "{when}: memory L{level}/B{bucket} {b:?}");
        }
        for b in oram.stash().iter() {
            assert_eq!(b.payload, want(b.addr), "{when}: stash {b:?}");
        }
        let top = oram.treetop_store().map(|t| t.blocks()).unwrap_or_default();
        for (level, bucket, b) in top {
            assert_eq!(
                b.payload,
                want(b.addr),
                "{when}: top L{level}/B{bucket} {b:?}"
            );
        }
        for (&addr, &payload) in &oram.escrow {
            assert_eq!(payload, want(BlockAddr(addr)), "{when}: escrow {addr:#x}");
        }
    }

    /// Escrows, writing `value`, a data block that sits in a tree-top
    /// bucket, by the delayed-remap path access that finds it there (the
    /// public entry points serve such a block by the tree-top probe,
    /// without a path). Returns whether the path held a memory block, so
    /// that taking the target out of the read buffer moved a sealed block
    /// into the tree-top range; `None` if the tree top holds no data block.
    fn escrow_from_the_tree_top(
        oram: &mut PathOram,
        written: &mut BTreeMap<u64, u64>,
        value: u64,
    ) -> Option<bool> {
        let data = oram.config().data_blocks;
        let (_, _, b) = oram
            .treetop_store()?
            .blocks()
            .into_iter()
            .find(|(_, _, b)| b.addr.0 < data)?;
        let layout = oram.layout();
        let cached = oram.cfg.treetop.cached_levels();
        let sealed_on_path = (cached..layout.levels()).any(|level| {
            let bucket = layout.bucket_on_path(b.leaf, level);
            !oram.tree().peek_bucket(level, bucket).is_empty()
        });
        let (_, served, payload) = oram.path_access(
            b.leaf,
            Some(b.addr),
            PathType::Data,
            RemapAction::UnmapEscrow,
            &mut WriteOp::from(Some(value)),
        );
        assert!(matches!(served, Some(ServedFrom::TreeTop { .. })));
        assert_eq!(payload, written.get(&b.addr.0).copied().unwrap_or(0));
        written.insert(b.addr.0, value);
        Some(sealed_on_path)
    }

    /// Payloads cross the chip boundary exactly where blocks do: with
    /// encryption on, in every tree-top mode under both remap policies,
    /// a seeded stream of reads and writes (under the delayed policy also
    /// delayed write-backs and escrows of blocks found in a tree-top
    /// bucket) keeps every memory slot sealed and every on-chip copy in
    /// plaintext, each holding the last value written.
    #[test]
    fn payloads_are_sealed_in_memory_and_plaintext_on_chip() {
        for treetop in [
            TreeTopMode::None,
            TreeTopMode::Dedicated { levels: 3 },
            TreeTopMode::IrStash {
                levels: 3,
                sets: 8,
                ways: 4,
            },
        ] {
            for remap in [RemapPolicy::Immediate, RemapPolicy::Delayed] {
                let mut oram = tiny_with(treetop, remap);
                assert!(oram.config().encrypt_payloads);
                let data = oram.config().data_blocks;
                let mut rng = SimRng::seed_from(0x5EA1_ED00);
                let mut written = BTreeMap::new();
                let mut sealed_moves = 0;
                for op in 0..400 {
                    let when = format!("{treetop:?} {remap:?} op {op}");
                    let addr = rng.next_below(data);
                    let write = rng.chance(0.5).then(|| rng.next_u64());
                    let rec = oram.run_access(BlockAddr(addr), write);
                    let before = written.get(&addr).copied().unwrap_or(0);
                    assert_eq!(rec.payload, before, "{when}: read");
                    if let Some(v) = write {
                        written.insert(addr, v);
                    }
                    if remap == RemapPolicy::Delayed {
                        if op % 20 == 0 {
                            let moved =
                                escrow_from_the_tree_top(&mut oram, &mut written, rng.next_u64());
                            sealed_moves += usize::from(moved == Some(true));
                        }
                        while oram.escrowed().count() > 4 {
                            let a = oram.escrowed().next().expect("escrowed");
                            oram.delayed_writeback(a).expect("escrowed block");
                        }
                    }
                    assert_at_rest(&oram, &written, &when);
                }
                if remap == RemapPolicy::Delayed && treetop != TreeTopMode::None {
                    assert!(sealed_moves > 0, "{treetop:?}: no sealed block moved");
                }
            }
        }
    }

    #[test]
    fn determinism_same_seed() {
        let run = || {
            let mut oram = PathOram::new(OramConfig::tiny());
            let mut sig = 0u64;
            for a in 0..64u64 {
                let rec = oram.run_access(BlockAddr(a * 3 % 256), Some(a));
                sig = sig
                    .wrapping_mul(31)
                    .wrapping_add(rec.paths.len() as u64)
                    .wrapping_add(rec.payload);
            }
            (sig, oram.stats().clone())
        };
        let (s1, st1) = run();
        let (s2, st2) = run();
        assert_eq!(s1, s2);
        assert_eq!(st1, st2);
    }

    #[test]
    fn save_restore_resumes_identically_all_modes() {
        for treetop in [
            TreeTopMode::None,
            TreeTopMode::Dedicated { levels: 3 },
            TreeTopMode::IrStash {
                levels: 3,
                sets: 16,
                ways: 4,
            },
        ] {
            for remap in [RemapPolicy::Immediate, RemapPolicy::Delayed] {
                let mut a = tiny_with(treetop, remap);
                for i in 0..48u64 {
                    a.run_access(BlockAddr(i * 5 % 256), Some(i));
                }
                let mut w = SnapWriter::new();
                a.save_state(&mut w);
                let bytes = w.into_bytes();
                let mut b = tiny_with(treetop, remap);
                let mut r = SnapReader::new(&bytes);
                b.restore_state(&mut r).unwrap();
                r.finish().unwrap();
                // The restored instance must continue bit-identically.
                for i in 0..48u64 {
                    let ra = a.run_access(BlockAddr(i * 3 % 256), None);
                    let rb = b.run_access(BlockAddr(i * 3 % 256), None);
                    assert_eq!(ra, rb, "{treetop:?} {remap:?} step {i}");
                }
                assert_eq!(a.stats(), b.stats(), "{treetop:?} {remap:?}");
                assert_eq!(a.plb_counters(), b.plb_counters());
                assert_eq!(a.stash_len(), b.stash_len());
            }
        }
    }

    #[test]
    fn checksums_filled_on_demand_equal_checksums_kept_up_to_date() {
        // One tree leaves its pristine state at step 0 and keeps its
        // checksum table on every take and write from then on; the other
        // stays pristine until step `steps`, where its first fault fills
        // the table from the slots. Zero masks flip nothing, so both run
        // the same accesses on the same slots.
        let steps = 240u64;
        let run = |fault_at: u64| {
            let mut oram = tiny_with(TreeTopMode::Dedicated { levels: 3 }, RemapPolicy::Immediate);
            let mut rng = SimRng::seed_from(0xF111);
            for step in 0..=steps {
                if step == fault_at {
                    oram.inject_tree_fault(7, 5, 0, 0);
                }
                if step < steps {
                    oram.run_access(BlockAddr(rng.next_below(256)), Some(step));
                    if step % 5 == 0 {
                        oram.dummy_path();
                    }
                }
            }
            oram
        };
        let kept = run(0);
        let filled = run(steps);
        assert!(kept.tree.checksums().iter().any(|&s| s != 0));
        assert_eq!(kept.tree.checksums(), filled.tree.checksums());
    }

    #[test]
    fn restore_rejects_treetop_mode_mismatch() {
        let a = tiny_with(TreeTopMode::Dedicated { levels: 3 }, RemapPolicy::Immediate);
        let mut w = SnapWriter::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut b = tiny_with(TreeTopMode::None, RemapPolicy::Immediate);
        let mut r = SnapReader::new(&bytes);
        assert!(b.restore_state(&mut r).is_err());
    }

    #[test]
    fn restore_rejects_a_bucket_fill_beyond_z() {
        // The last leaf bucket's fill count sits at the end of the tree's
        // count table: slot count + slots, level count + level totals,
        // bucket count + u32 counts.
        let cfg = OramConfig {
            integrity: false,
            ..OramConfig::tiny()
        };
        let a = PathOram::new(cfg.clone());
        let mut w = SnapWriter::new();
        a.save_state(&mut w);
        let mut bytes = w.into_bytes();
        let slots = a.layout().total_slots() as usize;
        let buckets = (1usize << cfg.levels) - 1;
        let at = 8 + 24 * slots + 8 + 8 * cfg.levels + 8 + 4 * (buckets - 1);
        let used = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        assert!(used <= 4, "offset lands on a fill count ({used})");
        bytes[at..at + 4].copy_from_slice(&9u32.to_le_bytes());
        let mut b = PathOram::new(cfg);
        assert!(matches!(
            b.restore_state(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt(_))
        ));
    }

    /// A snapshot whose stash holds a block mapped past the last leaf is
    /// corrupt: restored, it would make the next write-back plan compute
    /// a common depth below the root.
    #[test]
    fn restore_rejects_a_stash_block_past_the_last_leaf() {
        let mut a = PathOram::new(OramConfig::tiny());
        let past_last = a.layout().num_leaves();
        a.stash.insert(StoredBlock {
            addr: BlockAddr(0),
            leaf: Leaf(past_last),
            payload: 0,
        });
        let bytes = snapshot(&a);
        let mut b = PathOram::new(OramConfig::tiny());
        assert!(matches!(
            b.restore_state(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt(_))
        ));
    }

    /// A snapshot whose stash files a block under a leaf other than its
    /// PosMap entry is corrupt: restored, the stash could not find it.
    #[test]
    fn restore_rejects_a_stash_block_off_its_posmap_leaf() {
        let mut a = PathOram::new(OramConfig::tiny());
        let data_blocks = a.cfg.data_blocks;
        let mut addr = 0;
        while a.stash.is_empty() {
            a.read(addr % data_blocks);
            addr += 1;
            assert!(addr < 10_000, "no access left a block in the stash");
        }
        let mut b = PathOram::new(OramConfig::tiny());
        b.restore_state(&mut SnapReader::new(&snapshot(&a)))
            .expect("the run's own snapshot restores");
        let resident = *a.stash.iter().next().expect("a resident");
        let moved = a
            .stash
            .take(resident.leaf, resident.addr)
            .expect("resident");
        a.stash.insert(StoredBlock {
            leaf: Leaf((moved.leaf.0 + 1) % a.layout().num_leaves()),
            ..moved
        });
        assert!(matches!(
            b.restore_state(&mut SnapReader::new(&snapshot(&a))),
            Err(SnapError::Corrupt("stash block off its PosMap leaf"))
        ));
    }

    /// The same for a block in the tree top: after 256 reads the top
    /// holds blocks, and one of them remapped past the last leaf would sit
    /// stuck in the stash once fetched.
    #[test]
    fn restore_rejects_a_tree_top_block_past_the_last_leaf() {
        let mut a = PathOram::new(OramConfig::tiny());
        for addr in 0..256 {
            a.read(addr);
        }
        let past_last = a.layout().num_leaves();
        let top = a.top.as_mut().expect("tiny config has a tree top");
        let (level, bucket, _) = top.blocks()[0];
        let mut blocks = top.take_bucket(level, bucket);
        blocks[0].leaf = Leaf(past_last);
        assert!(top.write_bucket(level, bucket, blocks).is_empty());
        let bytes = snapshot(&a);
        let mut b = PathOram::new(OramConfig::tiny());
        assert!(matches!(
            b.restore_state(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn validate_catches_overfull_tree() {
        let mut cfg = OramConfig::tiny();
        cfg.data_blocks = 1 << 12; // far beyond an 8-level tree's 1020 slots
        let err = cfg.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::Overfull {
                blocks: cfg.total_blocks(),
                capacity: 1020 + 64,
            }
        );
        assert!(err.to_string().contains("cannot fit 1084 slots"), "{err}");
        let result = std::panic::catch_unwind(|| PathOram::new(cfg));
        assert!(result.is_err(), "PathOram::new panics on an invalid config");
    }

    #[test]
    fn validate_saturates_an_unbounded_stash_capacity() {
        let huge = OramConfig {
            stash_capacity: usize::MAX,
            ..OramConfig::tiny()
        };
        assert_eq!(huge.validate(), Ok(()));
        // A tree the slots alone cannot hold fits with that stash, and the
        // other checks still run past the capacity sum.
        let overfull = OramConfig {
            data_blocks: 1 << 12,
            ..huge.clone()
        };
        assert_eq!(overfull.validate(), Ok(()));
        let too_many = OramConfig {
            data_blocks: 1 << 32,
            ..huge
        };
        assert!(matches!(
            too_many.validate(),
            Err(ConfigError::AddressOverflow { .. })
        ));
    }

    #[test]
    fn validate_reports_each_inconsistency() {
        let ok = OramConfig::tiny();
        assert_eq!(ok.validate(), Ok(()));
        let short = OramConfig {
            levels: 1,
            zalloc: ZAllocation::uniform(1, 4),
            treetop: TreeTopMode::None,
            ..ok.clone()
        };
        assert_eq!(
            short.validate(),
            Err(ConfigError::TooFewLevels { levels: 1 })
        );
        let mismatch = OramConfig {
            zalloc: ZAllocation::uniform(9, 4),
            ..ok.clone()
        };
        assert_eq!(
            mismatch.validate(),
            Err(ConfigError::HeightMismatch {
                levels: 8,
                zalloc_levels: 9
            })
        );
        let all_top = OramConfig {
            treetop: TreeTopMode::Dedicated { levels: 8 },
            ..ok.clone()
        };
        assert_eq!(
            all_top.validate(),
            Err(ConfigError::TopCoversTree {
                cached: 8,
                levels: 8
            })
        );
        // 2^32 leaves: the last one would be the unmapped sentinel.
        let tall = OramConfig {
            levels: 33,
            zalloc: ZAllocation::uniform(33, 4),
            ..ok.clone()
        };
        assert_eq!(
            tall.validate(),
            Err(ConfigError::LeafOverflow { levels: 33 })
        );
        let tallest = OramConfig {
            levels: 32,
            zalloc: ZAllocation::uniform(32, 4),
            ..ok.clone()
        };
        assert_eq!(tallest.validate(), Ok(()));
        // 4,027,515,120 data blocks make exactly 2^32 with their PosMap
        // blocks, so the last address would be the empty-slot sentinel.
        let wide = |data_blocks| OramConfig {
            levels: 31,
            data_blocks,
            zalloc: ZAllocation::uniform(31, 4),
            ..ok.clone()
        };
        assert_eq!(wide(4_027_515_120).total_blocks(), 1 << 32);
        assert_eq!(
            wide(4_027_515_120).validate(),
            Err(ConfigError::AddressOverflow { blocks: 1 << 32 })
        );
        assert_eq!(wide(4_027_515_119).validate(), Ok(()));
    }

    #[test]
    fn batch_of_one_plus_finish_matches_bare_access() {
        // A single batched access followed by finish() must be
        // protocol-identical to run_access: same record payload/paths, same
        // background evictions, same end state.
        let mut a = PathOram::new(OramConfig::tiny());
        let mut b = PathOram::new(OramConfig::tiny());
        for i in 0..64u64 {
            let addr = BlockAddr(i * 7 % 256);
            let write = if i % 3 == 0 { Some(i) } else { None };
            let ra = a.run_access(addr, write);
            let mut batch = b.batch();
            let mut rb = batch.access(addr, write);
            rb.paths.extend(batch.finish());
            assert_eq!(ra, rb, "step {i}");
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.stash_len(), b.stash_len());
    }

    #[test]
    fn batch_defers_bg_drain_and_caps_it() {
        let mut oram = PathOram::new(OramConfig::tiny());
        let mut batch = oram.batch();
        for i in 0..16u64 {
            let rec = batch.access(BlockAddr(i), Some(i + 1));
            // No per-access drain inside a batch: only the data path and
            // its PosMap fetches appear on the record.
            assert!(rec.paths.iter().all(|p| p.ptype != PathType::BgEvict));
        }
        assert_eq!(batch.len(), 16);
        assert!(!batch.is_empty());
        let bg = batch.finish();
        assert!(bg.len() <= 16 * oram.config().max_bg_evicts_per_access);
        assert!(bg.iter().all(|p| p.ptype == PathType::BgEvict));
        assert!(!oram.bg_evict_pending());
    }

    #[test]
    fn run_access_with_modifies_in_one_access() {
        let mut oram = PathOram::new(OramConfig::tiny());
        oram.run_access(BlockAddr(9), Some(40));
        let before = oram.stats().accesses;
        let rec = oram.run_access_with(BlockAddr(9), |cur| cur + 2);
        // The record reports the pre-update payload; the update lands in a
        // single logical access.
        assert_eq!(rec.payload, 40);
        assert_eq!(oram.stats().accesses, before + 1);
        assert_eq!(oram.run_access(BlockAddr(9), None).payload, 42);
    }

    #[test]
    fn batched_run_is_functionally_equivalent_to_unbatched() {
        // Same op sequence, batched in groups of 8 vs one-at-a-time: the
        // logical KV contents must agree even though eviction scheduling
        // differs inside a batch.
        let ops: Vec<(u64, Option<u64>)> = (0..128u64)
            .map(|i| {
                (
                    i * 13 % 256,
                    if i % 2 == 0 { Some(i * 3 + 1) } else { None },
                )
            })
            .collect();
        let mut a = PathOram::new(OramConfig::tiny());
        for &(addr, write) in &ops {
            a.run_access(BlockAddr(addr), write);
        }
        let mut b = PathOram::new(OramConfig::tiny());
        for chunk in ops.chunks(8) {
            let mut batch = b.batch();
            for &(addr, write) in chunk {
                batch.access(BlockAddr(addr), write);
            }
            batch.finish();
        }
        for addr in 0..256u64 {
            assert_eq!(
                a.run_access(BlockAddr(addr), None).payload,
                b.run_access(BlockAddr(addr), None).payload,
                "addr {addr}"
            );
        }
        a.check_invariants().unwrap();
        b.check_invariants().unwrap();
    }
}
