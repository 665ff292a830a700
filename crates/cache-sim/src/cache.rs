//! A generic set-associative, write-back cache model.

use iroram_hash::mix64;
use iroram_sim_engine::{SnapError, SnapReader, SnapWriter};

/// How a line address is mapped to a set index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Classic low-order-bits indexing (`addr % sets`), as in the L1/LLC.
    LowBits,
    /// Avalanche-hashed indexing, used where the paper calls for hashing the
    /// address to spread pathological strides (IR-Stash hashes with MD5; the
    /// cheap mixer here is distribution-equivalent for simulation, and the
    /// protocol crate's S-Stash uses real MD5).
    Hashed,
}

/// Configuration of a [`SetAssocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (need not be a power of two).
    pub sets: usize,
    /// Ways per set.
    pub assoc: usize,
    /// Set-index function.
    pub index: IndexKind,
}

impl CacheConfig {
    /// A low-bits-indexed configuration with `sets` sets of `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(sets: usize, assoc: usize) -> Self {
        assert!(sets > 0 && assoc > 0, "cache dimensions must be nonzero");
        CacheConfig {
            sets,
            assoc,
            index: IndexKind::LowBits,
        }
    }

    /// Same, with hashed indexing.
    pub fn hashed(sets: usize, assoc: usize) -> Self {
        CacheConfig {
            index: IndexKind::Hashed,
            ..CacheConfig::new(sets, assoc)
        }
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.sets * self.assoc
    }
}

/// A line evicted by an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The evicted line's address.
    pub addr: u64,
    /// Whether it was dirty (needs write-back).
    pub dirty: bool,
}

/// A non-perturbing view of a resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineInfo {
    /// The line's address.
    pub addr: u64,
    /// Whether the line is dirty.
    pub dirty: bool,
    /// Whether the line is the LRU entry of its set.
    pub is_lru: bool,
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines inserted.
    pub fills: u64,
    /// Dirty lines evicted.
    pub dirty_evictions: u64,
    /// Clean lines evicted.
    pub clean_evictions: u64,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    addr: u64,
    dirty: bool,
    last_use: u64,
    valid: bool,
}

const EMPTY: Line = Line {
    addr: 0,
    dirty: false,
    last_use: 0,
    valid: false,
};

/// A set-associative, write-back, write-allocate cache with true-LRU
/// replacement.
///
/// Addresses are cache-line granular (the caller strips the offset bits).
/// The model stores no data payloads — only tags and dirty state — because
/// the simulators track contents elsewhere.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    tick: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        SetAssocCache {
            cfg,
            lines: vec![EMPTY; cfg.capacity()],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The set index for `addr`.
    #[inline]
    pub fn set_of(&self, addr: u64) -> usize {
        let h = match self.cfg.index {
            IndexKind::LowBits => addr,
            IndexKind::Hashed => mix64(addr),
        };
        let sets = self.cfg.sets as u64;
        // Set counts are runtime values, so spell out the shift/mask form
        // for the (universal in practice) power-of-two geometries — this
        // sits on the per-access hot path of every cache level.
        if sets.is_power_of_two() {
            (h & (sets - 1)) as usize
        } else {
            (h % sets) as usize
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.cfg.sets
    }

    #[inline]
    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.cfg.assoc;
        base..base + self.cfg.assoc
    }

    /// Looks up `addr`; on a hit, updates LRU and (for writes) the dirty
    /// bit, and returns `true`. On a miss returns `false` **without**
    /// allocating — pair with [`SetAssocCache::insert`] to model the fill.
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        self.tick += 1;
        let range = self.set_range(self.set_of(addr));
        for line in &mut self.lines[range] {
            if line.valid && line.addr == addr {
                line.last_use = self.tick;
                line.dirty |= is_write;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Inserts `addr` (e.g. on fill after a miss), evicting the set's LRU
    /// line if the set is full. Returns the evicted line, if any.
    ///
    /// Inserting an address that is already resident just refreshes its LRU
    /// position and ORs the dirty bit, returning `None`.
    pub fn insert(&mut self, addr: u64, dirty: bool) -> Option<EvictedLine> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(self.set_of(addr));
        let slice = &mut self.lines[range];
        // Already resident?
        if let Some(line) = slice.iter_mut().find(|l| l.valid && l.addr == addr) {
            line.last_use = tick;
            line.dirty |= dirty;
            return None;
        }
        self.stats.fills += 1;
        // Free way?
        if let Some(line) = slice.iter_mut().find(|l| !l.valid) {
            *line = Line {
                addr,
                dirty,
                last_use: tick,
                valid: true,
            };
            return None;
        }
        // Evict LRU.
        let victim = slice
            .iter_mut()
            .min_by_key(|l| l.last_use)
            .expect("nonzero associativity");
        let evicted = EvictedLine {
            addr: victim.addr,
            dirty: victim.dirty,
        };
        if evicted.dirty {
            self.stats.dirty_evictions += 1;
        } else {
            self.stats.clean_evictions += 1;
        }
        *victim = Line {
            addr,
            dirty,
            last_use: tick,
            valid: true,
        };
        Some(evicted)
    }

    /// Non-perturbing lookup: returns line info without touching LRU state.
    pub fn probe(&self, addr: u64) -> Option<LineInfo> {
        let set = self.set_of(addr);
        let range = self.set_range(set);
        let lru_tick = self.lines[range.clone()]
            .iter()
            .filter(|l| l.valid)
            .map(|l| l.last_use)
            .min();
        self.lines[range]
            .iter()
            .find(|l| l.valid && l.addr == addr)
            .map(|l| LineInfo {
                addr: l.addr,
                dirty: l.dirty,
                is_lru: Some(l.last_use) == lru_tick,
            })
    }

    /// Removes `addr` if resident, returning its dirty state.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let range = self.set_range(self.set_of(addr));
        for line in &mut self.lines[range] {
            if line.valid && line.addr == addr {
                line.valid = false;
                return Some(line.dirty);
            }
        }
        None
    }

    /// Sets the dirty bit of `addr` if resident, **without** touching LRU
    /// state (models a write-back from an inner cache level, which is not a
    /// demand reference). Returns whether the line was found.
    pub fn set_dirty(&mut self, addr: u64) -> bool {
        let range = self.set_range(self.set_of(addr));
        for line in &mut self.lines[range] {
            if line.valid && line.addr == addr {
                line.dirty = true;
                return true;
            }
        }
        false
    }

    /// Clears the dirty bit of `addr` if resident (IR-DWB's "mark the entry
    /// clean" step). Returns whether the line was found.
    pub fn mark_clean(&mut self, addr: u64) -> bool {
        let range = self.set_range(self.set_of(addr));
        for line in &mut self.lines[range] {
            if line.valid && line.addr == addr {
                line.dirty = false;
                return true;
            }
        }
        false
    }

    /// The LRU entry of `set`, if the set has any valid line.
    pub fn lru_of_set(&self, set: usize) -> Option<LineInfo> {
        assert!(set < self.cfg.sets, "set {set} out of range");
        self.lines[self.set_range(set)]
            .iter()
            .filter(|l| l.valid)
            .min_by_key(|l| l.last_use)
            .map(|l| LineInfo {
                addr: l.addr,
                dirty: l.dirty,
                is_lru: true,
            })
    }

    /// Iterates over all resident lines (for invariant checks and flushes).
    pub fn iter(&self) -> impl Iterator<Item = LineInfo> + '_ {
        self.lines.iter().filter(|l| l.valid).map(|l| LineInfo {
            addr: l.addr,
            dirty: l.dirty,
            is_lru: false,
        })
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Whether no line is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the full tag array, LRU clock and statistics for a
    /// checkpoint. Geometry (the config) is not written — it is rebuilt
    /// from the run configuration on restore.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.lines.len());
        for line in &self.lines {
            w.put_u64(line.addr);
            w.put_bool(line.dirty);
            w.put_u64(line.last_use);
            w.put_bool(line.valid);
        }
        w.put_u64(self.tick);
        w.put_u64(self.stats.hits);
        w.put_u64(self.stats.misses);
        w.put_u64(self.stats.fills);
        w.put_u64(self.stats.dirty_evictions);
        w.put_u64(self.stats.clean_evictions);
    }

    /// Restores the state captured by [`SetAssocCache::save_state`] into a
    /// cache of the same geometry.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] if the snapshot's line count does not match
    /// this cache's capacity; any [`SnapError`] on a truncated payload.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.take_seq_len(18)?;
        if n != self.lines.len() {
            return Err(SnapError::Corrupt("cache geometry mismatch"));
        }
        for line in &mut self.lines {
            line.addr = r.take_u64()?;
            line.dirty = r.take_bool()?;
            line.last_use = r.take_u64()?;
            line.valid = r.take_bool()?;
        }
        self.tick = r.take_u64()?;
        self.stats = CacheStats {
            hits: r.take_u64()?,
            misses: r.take_u64()?,
            fills: r.take_u64()?,
            dirty_evictions: r.take_u64()?,
            clean_evictions: r.take_u64()?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = SetAssocCache::new(CacheConfig::new(4, 2));
        assert!(!c.access(10, false));
        assert_eq!(c.insert(10, false), None);
        assert!(c.access(10, false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = SetAssocCache::new(CacheConfig::new(1, 2));
        c.insert(1, false);
        c.insert(2, false);
        c.access(1, false); // 2 becomes LRU
        let ev = c.insert(3, false).expect("eviction");
        assert_eq!(ev.addr, 2);
        assert!(!ev.dirty);
        assert!(c.probe(1).is_some() && c.probe(3).is_some());
    }

    #[test]
    fn write_sets_dirty_and_eviction_reports_it() {
        let mut c = SetAssocCache::new(CacheConfig::new(1, 1));
        c.insert(5, false);
        c.access(5, true);
        let ev = c.insert(6, false).unwrap();
        assert_eq!(
            ev,
            EvictedLine {
                addr: 5,
                dirty: true
            }
        );
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn insert_existing_merges_dirty() {
        let mut c = SetAssocCache::new(CacheConfig::new(1, 2));
        c.insert(5, false);
        assert_eq!(c.insert(5, true), None);
        assert!(c.probe(5).unwrap().dirty);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn probe_does_not_touch_lru() {
        let mut c = SetAssocCache::new(CacheConfig::new(1, 2));
        c.insert(1, false);
        c.insert(2, false);
        let _ = c.probe(1); // must NOT refresh 1
        let ev = c.insert(3, false).unwrap();
        assert_eq!(ev.addr, 1);
    }

    #[test]
    fn probe_reports_lru_flag() {
        let mut c = SetAssocCache::new(CacheConfig::new(1, 2));
        c.insert(1, false);
        c.insert(2, false);
        assert!(c.probe(1).unwrap().is_lru);
        assert!(!c.probe(2).unwrap().is_lru);
    }

    #[test]
    fn invalidate_and_mark_clean() {
        let mut c = SetAssocCache::new(CacheConfig::new(2, 2));
        c.insert(4, true);
        assert!(c.mark_clean(4));
        assert_eq!(c.invalidate(4), Some(false));
        assert_eq!(c.invalidate(4), None);
        assert!(!c.mark_clean(4));
    }

    #[test]
    fn lru_of_set_finds_dirty_lru() {
        let mut c = SetAssocCache::new(CacheConfig::new(1, 3));
        c.insert(1, true);
        c.insert(2, false);
        c.insert(3, false);
        let lru = c.lru_of_set(0).unwrap();
        assert_eq!(lru.addr, 1);
        assert!(lru.dirty);
        assert!(c.lru_of_set(0).unwrap().is_lru);
    }

    #[test]
    fn hashed_index_spreads_strided_addresses() {
        // Stride equal to set count: low-bits indexing maps all to one set,
        // hashed indexing spreads them.
        let sets = 64;
        let mut low = SetAssocCache::new(CacheConfig::new(sets, 1));
        let mut hashed = SetAssocCache::new(CacheConfig::hashed(sets, 1));
        for i in 0..64u64 {
            low.insert(i * sets as u64, false);
            hashed.insert(i * sets as u64, false);
        }
        assert_eq!(low.len(), 1, "low-bits: all conflict into one set");
        assert!(hashed.len() > 32, "hashed: most addresses survive");
    }

    #[test]
    fn save_restore_round_trips_lru_and_stats() {
        let mut c = SetAssocCache::new(CacheConfig::new(2, 2));
        c.insert(1, true);
        c.insert(2, false);
        c.access(1, false);
        c.access(9, false); // miss: perturbs stats
        let mut w = SnapWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = SetAssocCache::new(CacheConfig::new(2, 2));
        let mut r = SnapReader::new(&bytes);
        fresh.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh.stats(), c.stats());
        // LRU order must survive: 2 is LRU in its set after the refresh of 1.
        assert_eq!(fresh.probe(2).unwrap().is_lru, c.probe(2).unwrap().is_lru);
        // Behavioural equivalence: same evictions after restore.
        assert_eq!(fresh.insert(5, false), c.insert(5, false));
    }

    #[test]
    fn restore_rejects_geometry_mismatch() {
        let c = SetAssocCache::new(CacheConfig::new(2, 2));
        let mut w = SnapWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut other = SetAssocCache::new(CacheConfig::new(4, 2));
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            other.restore_state(&mut r),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lru_of_set_bounds() {
        let c = SetAssocCache::new(CacheConfig::new(2, 1));
        let _ = c.lru_of_set(2);
    }
}
