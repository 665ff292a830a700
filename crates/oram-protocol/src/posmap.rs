//! The recursive position map (Freecursive \[8\]) and its lookaside buffer.
//!
//! Path ORAM must map every block address to its current leaf. The map is
//! too large to keep on-chip, so it is split recursively: PosMap₁ blocks
//! (16 leaf entries each, one 64 B line per block) map data blocks; PosMap₂
//! blocks map PosMap₁ blocks; PosMap₃ is small enough to stay on-chip.
//! Following Freecursive, PosMap₁/₂ blocks live *in the same ORAM tree* as
//! data — fetching one is a normal, indistinguishable path access — and the
//! PLB (PosMap lookaside buffer) caches recently used PosMap blocks so most
//! translations need no extra path.
//!
//! Modelling note: the authoritative address→leaf table is held here as a
//! flat vector (the "contents" of all PosMap levels); PosMap blocks in the
//! tree are tag-only. A PLB *hit* on a PosMap block means the translation it
//! serves is available; a miss requires a real path access for that block.
//! PLB evictions are free — the evicted block's content is, by construction,
//! the authoritative table, and the block itself still lives in the tree,
//! which is exactly the accounting the paper uses (PosMap paths arise only
//! from PLB misses).

use iroram_cache::{CacheConfig, SetAssocCache};
use iroram_sim_engine::{SimRng, SnapError, SnapReader, SnapWriter};

use crate::{BlockAddr, BlockKind, Leaf};

/// Entries per PosMap block: a 64 B line holds 16 × 4 B leaf indices.
pub const ENTRIES_PER_BLOCK: u64 = 16;

/// Sentinel for "not currently mapped" (delayed-remap blocks living in the
/// LLC). Leaves are stored as `u32`, so every leaf must sit below it.
const UNMAPPED: u32 = u32::MAX;

/// [`UNMAPPED`] as snapshots encode it: entries stay `u64` on disk.
const WIDE_UNMAPPED: u64 = u64::MAX;

/// The unified (Freecursive-merged) block address space.
///
/// Data blocks occupy `[0, n_data)`, PosMap₁ `[n_data, n_data+n_pm1)` and
/// PosMap₂ the range after that. PosMap₃ (one leaf entry per PosMap₂ block)
/// is on-chip and occupies no block addresses.
///
/// # Examples
///
/// ```
/// use iroram_protocol::AddressSpace;
/// let s = AddressSpace::new(4096);
/// assert_eq!(s.n_pm1(), 256);
/// assert_eq!(s.n_pm2(), 16);
/// assert_eq!(s.total_blocks(), 4096 + 256 + 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressSpace {
    n_data: u64,
    n_pm1: u64,
    n_pm2: u64,
}

impl AddressSpace {
    /// Creates the address space for `n_data` data blocks.
    ///
    /// # Panics
    ///
    /// Panics if `n_data == 0`.
    pub fn new(n_data: u64) -> Self {
        assert!(n_data > 0, "need at least one data block");
        let n_pm1 = n_data.div_ceil(ENTRIES_PER_BLOCK).max(1);
        let n_pm2 = n_pm1.div_ceil(ENTRIES_PER_BLOCK).max(1);
        AddressSpace {
            n_data,
            n_pm1,
            n_pm2,
        }
    }

    /// Number of data blocks.
    pub fn n_data(&self) -> u64 {
        self.n_data
    }

    /// Number of PosMap₁ blocks.
    pub fn n_pm1(&self) -> u64 {
        self.n_pm1
    }

    /// Number of PosMap₂ blocks (= on-chip PosMap₃ entries).
    pub fn n_pm2(&self) -> u64 {
        self.n_pm2
    }

    /// Total blocks stored in the merged ORAM tree.
    pub fn total_blocks(&self) -> u64 {
        self.n_data + self.n_pm1 + self.n_pm2
    }

    /// Classifies an address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the space.
    pub fn kind_of(&self, addr: BlockAddr) -> BlockKind {
        let a = addr.0;
        if a < self.n_data {
            BlockKind::Data
        } else if a < self.n_data + self.n_pm1 {
            BlockKind::PosMap1
        } else if a < self.total_blocks() {
            BlockKind::PosMap2
        } else {
            panic!("address {a} outside the block address space");
        }
    }

    /// The PosMap₁ block holding the leaf entry of data block `addr`.
    pub fn pm1_block_of(&self, addr: BlockAddr) -> BlockAddr {
        debug_assert_eq!(self.kind_of(addr), BlockKind::Data);
        BlockAddr(self.n_data + addr.0 / ENTRIES_PER_BLOCK)
    }

    /// The PosMap₂ block holding the leaf entry of PosMap₁ block `addr`.
    pub fn pm2_block_of(&self, addr: BlockAddr) -> BlockAddr {
        debug_assert_eq!(self.kind_of(addr), BlockKind::PosMap1);
        BlockAddr(self.n_data + self.n_pm1 + (addr.0 - self.n_data) / ENTRIES_PER_BLOCK)
    }
}

/// How far PLB state can translate a data address right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlbStatus {
    /// PosMap₁ block resident: translation is free.
    Hit,
    /// PosMap₁ misses but PosMap₂ is resident: one extra path (Pos1).
    MissPm1,
    /// Both miss: two extra paths (Pos2 then Pos1).
    MissBoth,
}

impl PlbStatus {
    /// Number of extra PosMap path accesses this status implies.
    pub fn extra_paths(self) -> u32 {
        match self {
            PlbStatus::Hit => 0,
            PlbStatus::MissPm1 => 1,
            PlbStatus::MissBoth => 2,
        }
    }
}

/// The complete position-map subsystem: authoritative leaf table, on-chip
/// PosMap₃, and the PLB.
#[derive(Debug, Clone)]
pub struct PosMapSystem {
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    space: AddressSpace,
    /// Current leaf per block address, [`UNMAPPED`] if none; 32 bits an
    /// entry (Stefanov et al.'s position map needs only `L` bits).
    leaf_of: Vec<u32>,
    plb: SetAssocCache,
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    num_leaves: u64,
    /// PLB lookups that hit (PosMap₁ resolved without a path access).
    pub plb_hits: u64,
    /// PLB lookups that missed.
    pub plb_misses: u64,
}

impl PosMapSystem {
    /// Creates the subsystem with every block mapped to a uniformly random
    /// leaf.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < num_leaves <= u32::MAX` (leaves are stored as
    /// `u32` below the unmapped sentinel).
    pub fn new(space: AddressSpace, num_leaves: u64, plb_cfg: CacheConfig, rng: &mut SimRng) -> Self {
        assert!(num_leaves > 0 && num_leaves <= u64::from(UNMAPPED));
        let leaf_of = (0..space.total_blocks())
            .map(|_| rng.next_below(num_leaves) as u32)
            .collect();
        PosMapSystem {
            space,
            leaf_of,
            plb: SetAssocCache::new(plb_cfg),
            num_leaves,
            plb_hits: 0,
            plb_misses: 0,
        }
    }

    /// The address space.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Number of leaves in the tree this map targets.
    pub fn num_leaves(&self) -> u64 {
        self.num_leaves
    }

    /// The current leaf of `addr`, or `None` if unmapped (delayed-remap
    /// block held by the LLC).
    pub fn leaf_of(&self, addr: BlockAddr) -> Option<Leaf> {
        let v = self.leaf_of[addr.0 as usize];
        (v != UNMAPPED).then_some(Leaf(u64::from(v)))
    }

    /// Remaps `addr` to a fresh uniformly random leaf, returning it.
    pub fn remap(&mut self, addr: BlockAddr, rng: &mut SimRng) -> Leaf {
        let leaf = rng.next_below(self.num_leaves);
        self.leaf_of[addr.0 as usize] = leaf as u32;
        Leaf(leaf)
    }

    /// Discards `addr`'s mapping (delayed-remap policy: the block leaves the
    /// ORAM tree when fetched). Returns the old leaf if it was mapped.
    pub fn unmap(&mut self, addr: BlockAddr) -> Option<Leaf> {
        let old = self.leaf_of[addr.0 as usize];
        self.leaf_of[addr.0 as usize] = UNMAPPED;
        (old != UNMAPPED).then_some(Leaf(u64::from(old)))
    }

    /// Whether `addr` currently has a mapping.
    pub fn is_mapped(&self, addr: BlockAddr) -> bool {
        self.leaf_of[addr.0 as usize] != UNMAPPED
    }

    /// Serializes the authoritative leaf table, the PLB and the hit/miss
    /// counters for a checkpoint (the address space and PLB geometry come
    /// from configuration).
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.leaf_of.len());
        for &l in &self.leaf_of {
            w.put_u64(if l == UNMAPPED {
                WIDE_UNMAPPED
            } else {
                u64::from(l)
            });
        }
        self.plb.save_state(w);
        w.put_u64(self.plb_hits);
        w.put_u64(self.plb_misses);
    }

    /// Restores the state captured by [`PosMapSystem::save_state`] into a
    /// subsystem built from the same configuration.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] on a geometry mismatch or a mapped leaf
    /// beyond the tree; any [`SnapError`] on truncation.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.take_seq_len(8)?;
        if n != self.leaf_of.len() {
            return Err(SnapError::Corrupt("position-map size mismatch"));
        }
        for l in &mut self.leaf_of {
            *l = match r.take_u64()? {
                WIDE_UNMAPPED => UNMAPPED,
                leaf if leaf < self.num_leaves => leaf as u32,
                _ => return Err(SnapError::Corrupt("position-map leaf beyond the tree")),
            };
        }
        self.plb.restore_state(r)?;
        self.plb_hits = r.take_u64()?;
        self.plb_misses = r.take_u64()?;
        Ok(())
    }

    /// Non-perturbing PLB state for translating data block `addr`.
    ///
    /// PosMap₂ blocks themselves always resolve through the on-chip PosMap₃.
    pub fn plb_status(&self, addr: BlockAddr) -> PlbStatus {
        let pm1 = self.space.pm1_block_of(addr);
        if self.plb.probe(pm1.0).is_some() {
            PlbStatus::Hit
        } else if self.plb.probe(self.space.pm2_block_of(pm1).0).is_some() {
            PlbStatus::MissPm1
        } else {
            PlbStatus::MissBoth
        }
    }

    /// Performs the PLB lookups for translating `addr`, updating LRU state
    /// and hit/miss counters, and returns the PosMap blocks that must be
    /// fetched through the ORAM, **outermost first** (PosMap₂ before
    /// PosMap₁).
    pub fn resolve(&mut self, addr: BlockAddr) -> Vec<BlockAddr> {
        let pm1 = self.space.pm1_block_of(addr);
        if self.plb.access(pm1.0, false) {
            self.plb_hits += 1;
            return Vec::new();
        }
        self.plb_misses += 1;
        let pm2 = self.space.pm2_block_of(pm1);
        if self.plb.access(pm2.0, false) {
            self.plb_hits += 1;
            vec![pm1]
        } else {
            self.plb_misses += 1;
            vec![pm2, pm1]
        }
    }

    /// Fills the PLB with a just-fetched PosMap block. Evictions are free
    /// (see the module docs).
    pub fn plb_fill(&mut self, pm_addr: BlockAddr) {
        debug_assert_ne!(self.space.kind_of(pm_addr), BlockKind::Data);
        let _ = self.plb.insert(pm_addr.0, false);
    }

    /// Flushes the PLB (context switch).
    pub fn plb_flush(&mut self) {
        let _ = self.plb.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(n_data: u64) -> PosMapSystem {
        let mut rng = SimRng::seed_from(7);
        PosMapSystem::new(
            AddressSpace::new(n_data),
            64,
            CacheConfig::new(4, 2),
            &mut rng,
        )
    }

    #[test]
    fn address_space_partitions() {
        let s = AddressSpace::new(4096);
        assert_eq!(s.kind_of(BlockAddr(0)), BlockKind::Data);
        assert_eq!(s.kind_of(BlockAddr(4095)), BlockKind::Data);
        assert_eq!(s.kind_of(BlockAddr(4096)), BlockKind::PosMap1);
        assert_eq!(s.kind_of(BlockAddr(4096 + 255)), BlockKind::PosMap1);
        assert_eq!(s.kind_of(BlockAddr(4096 + 256)), BlockKind::PosMap2);
        assert_eq!(s.kind_of(BlockAddr(4096 + 256 + 15)), BlockKind::PosMap2);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn address_space_bounds() {
        let s = AddressSpace::new(4096);
        let _ = s.kind_of(BlockAddr(s.total_blocks()));
    }

    #[test]
    fn pm_block_mapping() {
        let s = AddressSpace::new(4096);
        assert_eq!(s.pm1_block_of(BlockAddr(0)), BlockAddr(4096));
        assert_eq!(s.pm1_block_of(BlockAddr(15)), BlockAddr(4096));
        assert_eq!(s.pm1_block_of(BlockAddr(16)), BlockAddr(4097));
        let pm1 = BlockAddr(4096);
        assert_eq!(s.pm2_block_of(pm1), BlockAddr(4096 + 256));
        assert_eq!(s.pm2_block_of(BlockAddr(4096 + 16)), BlockAddr(4096 + 257));
    }

    #[test]
    fn tiny_space_has_minimum_pm_levels() {
        let s = AddressSpace::new(8);
        assert_eq!(s.n_pm1(), 1);
        assert_eq!(s.n_pm2(), 1);
    }

    #[test]
    fn initial_mapping_in_range() {
        let p = sys(256);
        for a in 0..p.space().total_blocks() {
            let leaf = p.leaf_of(BlockAddr(a)).expect("mapped at init");
            assert!(leaf.0 < 64);
        }
    }

    #[test]
    fn remap_changes_distribution() {
        let mut p = sys(256);
        let mut rng = SimRng::seed_from(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            seen.insert(p.remap(BlockAddr(0), &mut rng).0);
        }
        assert!(seen.len() > 20, "remaps should cover many leaves");
    }

    #[test]
    fn unmap_round_trip() {
        let mut p = sys(256);
        assert!(p.is_mapped(BlockAddr(5)));
        let old = p.unmap(BlockAddr(5)).unwrap();
        assert!(old.0 < 64);
        assert!(!p.is_mapped(BlockAddr(5)));
        assert_eq!(p.leaf_of(BlockAddr(5)), None);
        assert_eq!(p.unmap(BlockAddr(5)), None);
        let mut rng = SimRng::seed_from(4);
        p.remap(BlockAddr(5), &mut rng);
        assert!(p.is_mapped(BlockAddr(5)));
    }

    #[test]
    fn resolve_miss_chain() {
        let mut p = sys(4096);
        // Cold: both levels miss → fetch pm2 then pm1.
        let need = p.resolve(BlockAddr(0));
        assert_eq!(need.len(), 2);
        assert_eq!(p.space().kind_of(need[0]), BlockKind::PosMap2);
        assert_eq!(p.space().kind_of(need[1]), BlockKind::PosMap1);
        p.plb_fill(need[0]);
        p.plb_fill(need[1]);
        // Warm: hit.
        assert!(p.resolve(BlockAddr(0)).is_empty());
        assert_eq!(p.plb_status(BlockAddr(0)), PlbStatus::Hit);
        // Sibling data block under the same pm1 block also hits.
        assert!(p.resolve(BlockAddr(15)).is_empty());
        // A block under a different pm1 but same pm2 needs only pm1.
        let need2 = p.resolve(BlockAddr(16));
        assert_eq!(need2.len(), 1);
        assert_eq!(p.space().kind_of(need2[0]), BlockKind::PosMap1);
        assert_eq!(p.plb_status(BlockAddr(16)), PlbStatus::MissPm1);
    }

    #[test]
    fn plb_status_is_non_perturbing() {
        let p = sys(4096);
        let before_hits = p.plb_hits;
        for _ in 0..10 {
            assert_eq!(p.plb_status(BlockAddr(0)), PlbStatus::MissBoth);
        }
        assert_eq!(p.plb_hits, before_hits);
    }

    #[test]
    fn status_extra_paths() {
        assert_eq!(PlbStatus::Hit.extra_paths(), 0);
        assert_eq!(PlbStatus::MissPm1.extra_paths(), 1);
        assert_eq!(PlbStatus::MissBoth.extra_paths(), 2);
    }

    #[test]
    fn save_restore_round_trips_mappings_and_plb() {
        let mut p = sys(4096);
        let need = p.resolve(BlockAddr(0));
        for n in need {
            p.plb_fill(n);
        }
        p.unmap(BlockAddr(7));
        let mut w = SnapWriter::new();
        p.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = sys(4096); // different random init, fully overwritten
        let mut r = SnapReader::new(&bytes);
        fresh.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh.leaf_of(BlockAddr(3)), p.leaf_of(BlockAddr(3)));
        assert!(!fresh.is_mapped(BlockAddr(7)));
        assert_eq!(fresh.plb_status(BlockAddr(0)), PlbStatus::Hit);
        assert_eq!((fresh.plb_hits, fresh.plb_misses), (p.plb_hits, p.plb_misses));
    }

    #[test]
    fn restore_rejects_leaves_the_table_cannot_hold() {
        let mut p = sys(256);
        p.unmap(BlockAddr(7));
        let mut w = SnapWriter::new();
        p.save_state(&mut w);
        let bytes = w.into_bytes();
        // The table length, then one u64 per block.
        let entry = |addr: usize| 8 + addr * 8;
        let restore = |at: usize, v: u64| {
            let mut patched = bytes.clone();
            patched[at..at + 8].copy_from_slice(&v.to_le_bytes());
            let mut fresh = sys(256);
            fresh
                .restore_state(&mut SnapReader::new(&patched))
                .map(|()| fresh)
        };
        for v in [64, u64::from(u32::MAX), 1 << 32, u64::MAX - 1] {
            assert!(
                matches!(restore(entry(3), v), Err(SnapError::Corrupt(_))),
                "leaf {v:#x}"
            );
        }
        let unmapped = restore(entry(3), u64::MAX).unwrap();
        assert!(!unmapped.is_mapped(BlockAddr(3)));
        let remapped = restore(entry(7), 63).unwrap();
        assert_eq!(remapped.leaf_of(BlockAddr(7)), Some(Leaf(63)));
    }

    #[test]
    fn plb_flush_clears() {
        let mut p = sys(4096);
        let need = p.resolve(BlockAddr(0));
        for n in need {
            p.plb_fill(n);
        }
        assert_eq!(p.plb_status(BlockAddr(0)), PlbStatus::Hit);
        p.plb_flush();
        assert_eq!(p.plb_status(BlockAddr(0)), PlbStatus::MissBoth);
    }
}
