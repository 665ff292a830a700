//! The two-level data-cache hierarchy in front of the ORAM controller.

use iroram_sim_engine::{SnapError, SnapReader, SnapWriter};

use crate::{CacheConfig, SetAssocCache};

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Hit in the L1 data cache.
    L1Hit,
    /// Missed L1, hit the LLC.
    LlcHit,
    /// Missed both levels; the line was filled and the request must go to
    /// memory (the ORAM controller).
    Miss,
}

/// Hierarchy configuration (line counts; lines are 64 B as in Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 sets.
    pub l1_sets: usize,
    /// L1 associativity (paper: 2-way).
    pub l1_assoc: usize,
    /// LLC sets.
    pub llc_sets: usize,
    /// LLC associativity (paper: 8-way).
    pub llc_assoc: usize,
}

impl HierarchyConfig {
    /// The paper's Table I sizes: 256 KB 2-way L1, 2 MB 8-way LLC
    /// (64 B lines → 2048 L1 sets, 4096 LLC sets).
    pub fn paper() -> Self {
        HierarchyConfig {
            l1_sets: 2048,
            l1_assoc: 2,
            llc_sets: 4096,
            llc_assoc: 8,
        }
    }

    /// A proportionally scaled-down configuration for reduced protected
    /// spaces (`scale` divides the line counts; associativities are kept).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero or exceeds the set counts.
    pub fn scaled(scale: usize) -> Self {
        let p = Self::paper();
        assert!(scale > 0 && scale <= p.llc_sets && scale <= p.l1_sets);
        HierarchyConfig {
            l1_sets: (p.l1_sets / scale).max(1),
            l1_assoc: p.l1_assoc,
            llc_sets: (p.llc_sets / scale).max(1),
            llc_assoc: p.llc_assoc,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::paper()
    }
}

/// Aggregate hierarchy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Total accesses issued to the hierarchy.
    pub accesses: u64,
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// LLC hits (of L1 misses).
    pub llc_hits: u64,
    /// Misses to memory.
    pub misses: u64,
    /// Read misses to memory.
    pub read_misses: u64,
    /// Write misses to memory.
    pub write_misses: u64,
    /// Dirty LLC lines evicted to memory.
    pub dirty_writebacks: u64,
}

/// An inclusive L1 + LLC hierarchy with immediate fill.
///
/// `access` models the complete transaction tag-wise: on a miss the line is
/// filled into both levels right away and any dirty LLC victim is reported
/// for memory write-back. The timing simulator charges latencies separately;
/// this keeps cache state independent of ORAM service order, which is the
/// standard trace-simulation simplification.
///
/// # Examples
///
/// ```
/// use iroram_cache::{AccessOutcome, HierarchyConfig, MemoryHierarchy};
/// let mut h = MemoryHierarchy::new(HierarchyConfig { l1_sets: 4, l1_assoc: 1, llc_sets: 16, llc_assoc: 2 });
/// let (outcome, wb) = h.access(42, false);
/// assert_eq!(outcome, AccessOutcome::Miss);
/// assert_eq!(wb, None);
/// assert_eq!(h.access(42, false).0, AccessOutcome::L1Hit);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1: SetAssocCache,
    llc: SetAssocCache,
    stats: HierarchyStats,
}

impl MemoryHierarchy {
    /// Creates an empty hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        MemoryHierarchy {
            l1: SetAssocCache::new(CacheConfig::new(cfg.l1_sets, cfg.l1_assoc)),
            llc: SetAssocCache::new(CacheConfig::new(cfg.llc_sets, cfg.llc_assoc)),
            stats: HierarchyStats::default(),
        }
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Immutable view of the LLC (for the IR-DWB scanner).
    pub fn llc(&self) -> &SetAssocCache {
        &self.llc
    }

    /// Clears the dirty bit of an LLC line (IR-DWB early write-back
    /// completion). Returns whether the line was present.
    pub fn llc_mark_clean(&mut self, addr: u64) -> bool {
        self.llc.mark_clean(addr)
    }

    /// Whether an LLC line is currently dirty.
    pub fn llc_is_dirty(&self, addr: u64) -> bool {
        self.llc.probe(addr).map(|l| l.dirty).unwrap_or(false)
    }

    /// Issues one access. Returns the hit level and, if an LLC victim had to
    /// be written back to memory, its address.
    ///
    /// This is the common-case API; delayed-remap ORAM policies also need
    /// *clean* evictions — use [`MemoryHierarchy::access_full`] for those.
    pub fn access(&mut self, addr: u64, is_write: bool) -> (AccessOutcome, Option<u64>) {
        let (outcome, evicted) = self.access_full(addr, is_write);
        (outcome, evicted.filter(|e| e.dirty).map(|e| e.addr))
    }

    /// Issues one access, reporting any LLC eviction (clean or dirty).
    pub fn access_full(
        &mut self,
        addr: u64,
        is_write: bool,
    ) -> (AccessOutcome, Option<crate::EvictedLine>) {
        self.stats.accesses += 1;
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        if self.l1.access(addr, is_write) {
            self.stats.l1_hits += 1;
            return (AccessOutcome::L1Hit, None);
        }
        let mut wb = None;
        let outcome = if self.llc.access(addr, is_write) {
            self.stats.llc_hits += 1;
            AccessOutcome::LlcHit
        } else {
            self.stats.misses += 1;
            if is_write {
                self.stats.write_misses += 1;
            } else {
                self.stats.read_misses += 1;
            }
            // Fill LLC; handle inclusive victim.
            if let Some(victim) = self.llc.insert(addr, is_write) {
                wb = self.handle_llc_victim(victim.addr, victim.dirty);
            }
            AccessOutcome::Miss
        };
        // Fill L1; a dirty L1 victim folds into the LLC (inclusive).
        if let Some(victim) = self.l1.insert(addr, is_write) {
            if victim.dirty && !self.llc.set_dirty(victim.addr) {
                // Inclusion should make this unreachable, but stay safe.
                self.llc.insert(victim.addr, true);
            }
        }
        (outcome, wb)
    }

    fn handle_llc_victim(&mut self, addr: u64, mut dirty: bool) -> Option<crate::EvictedLine> {
        // Inclusion: the L1 copy must go too; merge its dirty state.
        if let Some(l1_dirty) = self.l1.invalidate(addr) {
            dirty |= l1_dirty;
        }
        if dirty {
            self.stats.dirty_writebacks += 1;
        }
        Some(crate::EvictedLine { addr, dirty })
    }

    /// Serializes both cache levels and the aggregate statistics for a
    /// checkpoint.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.l1.save_state(w);
        self.llc.save_state(w);
        w.put_u64(self.stats.accesses);
        w.put_u64(self.stats.reads);
        w.put_u64(self.stats.writes);
        w.put_u64(self.stats.l1_hits);
        w.put_u64(self.stats.llc_hits);
        w.put_u64(self.stats.misses);
        w.put_u64(self.stats.read_misses);
        w.put_u64(self.stats.write_misses);
        w.put_u64(self.stats.dirty_writebacks);
    }

    /// Restores the state captured by [`MemoryHierarchy::save_state`] into
    /// a hierarchy of the same geometry.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] from the underlying cache restores (geometry
    /// mismatch, truncation, corruption).
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.l1.restore_state(r)?;
        self.llc.restore_state(r)?;
        self.stats = HierarchyStats {
            accesses: r.take_u64()?,
            reads: r.take_u64()?,
            writes: r.take_u64()?,
            l1_hits: r.take_u64()?,
            llc_hits: r.take_u64()?,
            misses: r.take_u64()?,
            read_misses: r.take_u64()?,
            write_misses: r.take_u64()?,
            dirty_writebacks: r.take_u64()?,
        };
        Ok(())
    }

    /// Flushes both levels (context switch), returning dirty line addresses
    /// needing memory write-back.
    pub fn flush(&mut self) -> Vec<u64> {
        let mut dirty: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        for e in self.l1.flush() {
            dirty.insert(e.addr);
        }
        for e in self.llc.flush() {
            dirty.insert(e.addr);
        }
        dirty.into_iter().collect()
    }

    /// Misses per kilo-*access* (the experiment harness converts to MPKI
    /// using instruction counts from the trace).
    pub fn miss_rate(&self) -> f64 {
        if self.stats.accesses == 0 {
            0.0
        } else {
            self.stats.misses as f64 / self.stats.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig {
            l1_sets: 2,
            l1_assoc: 1,
            llc_sets: 4,
            llc_assoc: 2,
        })
    }

    #[test]
    fn miss_fill_hit_sequence() {
        let mut h = small();
        assert_eq!(h.access(0, false).0, AccessOutcome::Miss);
        assert_eq!(h.access(0, false).0, AccessOutcome::L1Hit);
        let s = h.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.l1_hits, 1);
    }

    #[test]
    fn llc_hit_after_l1_eviction() {
        let mut h = small();
        h.access(0, false); // L1 set 0
        h.access(2, false); // L1 set 0 → evicts 0 from L1, stays in LLC
        assert_eq!(h.access(0, false).0, AccessOutcome::LlcHit);
    }

    #[test]
    fn dirty_writeback_on_llc_eviction() {
        let mut h = small();
        h.access(0, true); // dirty in set 0 of LLC (llc sets=4: addr%4)
        // Fill two more lines mapping to LLC set 0 to force eviction.
        h.access(4, false);
        let (_, wb) = h.access(8, false);
        assert_eq!(wb, Some(0), "dirty line 0 must be written back");
        assert_eq!(h.stats().dirty_writebacks, 1);
    }

    #[test]
    fn clean_eviction_produces_no_writeback() {
        let mut h = small();
        h.access(0, false);
        h.access(4, false);
        let (_, wb) = h.access(8, false);
        assert_eq!(wb, None);
    }

    #[test]
    fn l1_dirty_victim_folds_into_llc() {
        let mut h = small();
        h.access(0, true); // dirty in both
        h.access(2, false); // evicts 0 from L1 (set 0), dirtiness folds to LLC
        // Evict 0 from LLC: sets=4, so 0,4,8 map to set 0.
        h.access(4, false);
        let (_, wb) = h.access(8, false);
        assert_eq!(wb, Some(0), "dirtiness must survive the L1→LLC fold");
    }

    #[test]
    fn inclusion_invalidates_l1_on_llc_eviction() {
        let mut h = small();
        h.access(0, false); // in L1 + LLC
        h.access(4, false); // LLC set 0 now {0,4}; L1 set 0 holds 4
        h.access(8, false); // evicts LRU (0) from LLC
        // 0 must now be a full miss again, not an L1 hit.
        assert_eq!(h.access(0, false).0, AccessOutcome::Miss);
    }

    #[test]
    fn dirty_l1_copy_merges_on_llc_eviction() {
        let mut h = small();
        h.access(0, true); // dirty in L1 (and LLC tag dirty too here)
        h.access(4, false);
        let (_, wb) = h.access(8, false); // evict 0 from LLC while L1 copy dirty
        assert_eq!(wb, Some(0));
    }

    #[test]
    fn flush_collects_all_dirty() {
        let mut h = small();
        h.access(0, true);
        h.access(1, true);
        h.access(2, false);
        let dirty = h.flush();
        assert_eq!(dirty, vec![0, 1]);
        assert_eq!(h.access(0, false).0, AccessOutcome::Miss);
    }

    #[test]
    fn paper_config_dimensions() {
        let p = HierarchyConfig::paper();
        // 2048 × 2 × 64 B = 256 KB; 4096 × 8 × 64 B = 2 MB.
        assert_eq!(p.l1_sets * p.l1_assoc * 64, 256 * 1024);
        assert_eq!(p.llc_sets * p.llc_assoc * 64, 2 * 1024 * 1024);
        let s = HierarchyConfig::scaled(16);
        assert_eq!(s.llc_sets, 256);
        assert_eq!(s.l1_assoc, 2);
    }

    #[test]
    fn save_restore_preserves_future_behaviour() {
        let mut h = small();
        for i in 0..32u64 {
            h.access(i % 7, i % 3 == 0);
        }
        let mut w = SnapWriter::new();
        h.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = MemoryHierarchy::new(HierarchyConfig {
            l1_sets: 2,
            l1_assoc: 1,
            llc_sets: 4,
            llc_assoc: 2,
        });
        let mut r = SnapReader::new(&bytes);
        fresh.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh.stats(), h.stats());
        for i in 0..32u64 {
            assert_eq!(fresh.access_full(i % 5, i % 4 == 0), h.access_full(i % 5, i % 4 == 0));
        }
        assert_eq!(fresh.stats(), h.stats());
    }

    #[test]
    fn stats_read_write_split() {
        let mut h = small();
        h.access(0, false);
        h.access(16, true);
        let s = h.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.read_misses, 1);
        assert_eq!(s.write_misses, 1);
        assert!(h.miss_rate() > 0.99);
    }
}
