//! On-chip tree-top stores: the dedicated cache and IR-Stash's S-Stash.
//!
//! Both the Baseline and IR-ORAM keep the top ten tree levels on-chip
//! (Table I: a 256 KB dedicated cache). The two designs differ in *how the
//! store can be addressed*:
//!
//! * [`DedicatedTreeTop`] — indexed only by tree position (level, bucket),
//!   "invisible to the LLC" (Section IV-C). A request must resolve its
//!   PosMap entry before discovering its block was on-chip all along — the
//!   wasted PosMap traffic IR-Stash eliminates.
//! * [`IrStashTop`] — the double-indexed S-Stash: a set-associative array
//!   indexed by **MD5 of the block address** for LLC-side lookups, plus the
//!   `TT` pointer table that rebuilds the tree structure for ORAM-side path
//!   accesses. The TT index uses the paper's code: skip all-zeros, the root
//!   is `0…01`, and level `l` bucket `b` gets code `(1 << l) | b`.

use std::cell::RefCell;
// lint: allow(determinism, lookup-only memo map; never iterated)
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use iroram_hash::{md5_u64, mix64};
use iroram_sim_engine::{SnapError, SnapReader, SnapWriter};

use crate::{BlockAddr, StoredBlock, TreeLayout};

/// A deterministic single-multiply hasher for block addresses, keying the
/// S-Stash set memo. The memo is consulted on every S-Stash probe, accept
/// check and fill, where the default SipHash costs more than the lookup it
/// guards; one `mix64` round spreads addresses fine. Determinism is *not*
/// load-bearing here — the memo is only looked up, never iterated — but a
/// fixed hasher keeps the whole simulator free of per-process randomness.
#[derive(Debug, Default, Clone)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys (unused by the memo): FNV-1a.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = mix64(v);
    }
}

// lint: allow(determinism, lookup-only memo with a fixed hasher; never iterated, so no output depends on its order)
type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// Common interface of the two tree-top stores.
///
/// Levels `[0, cached_levels)` of the logical tree live in the store; the
/// controller routes those levels' bucket reads/writes here instead of to
/// memory.
pub trait TreeTopStore {
    /// Number of cached top levels.
    fn cached_levels(&self) -> usize;

    /// Removes and returns the real blocks of a cached bucket.
    fn take_bucket(&mut self, level: usize, bucket: u64) -> Vec<StoredBlock>;

    /// [`TreeTopStore::take_bucket`] appending into a caller-provided
    /// buffer. Implementations override this so the steady-state read path
    /// moves no heap allocations.
    fn take_bucket_into(&mut self, level: usize, bucket: u64, out: &mut Vec<StoredBlock>) {
        out.extend(self.take_bucket(level, bucket));
    }

    /// Stores `blocks` as the new contents of a cached bucket. Returns the
    /// blocks that could **not** be stored (S-Stash set conflicts); the
    /// caller returns them to the stash ("we skip picking this block for
    /// this round", Section IV-C).
    fn write_bucket(
        &mut self,
        level: usize,
        bucket: u64,
        blocks: Vec<StoredBlock>,
    ) -> Vec<StoredBlock>;

    /// [`TreeTopStore::write_bucket`] draining a caller-owned buffer;
    /// rejected blocks are appended to `rejected` instead of returned.
    /// Implementations override this so both vectors keep their capacity
    /// across path accesses.
    fn write_bucket_from(
        &mut self,
        level: usize,
        bucket: u64,
        blocks: &mut Vec<StoredBlock>,
        rejected: &mut Vec<StoredBlock>,
    ) {
        rejected.extend(self.write_bucket(level, bucket, std::mem::take(blocks)));
    }

    /// Non-destructive view of a cached bucket.
    fn peek_bucket(&self, level: usize, bucket: u64) -> Vec<StoredBlock>;

    /// Whether a cached bucket currently holds `addr`. Semantically
    /// `peek_bucket(..).iter().any(|b| b.addr == addr)`, but implementations
    /// override it to scan their storage directly — path probes run this on
    /// every cached level of every access, so it must not allocate.
    fn bucket_contains(&self, level: usize, bucket: u64, addr: BlockAddr) -> bool {
        self.peek_bucket(level, bucket)
            .iter()
            .any(|b| b.addr == addr)
    }

    /// Whether a block could currently be stored into bucket
    /// `(level, bucket)`.
    fn can_accept(&self, level: usize, bucket: u64, block: &StoredBlock) -> bool;

    /// LLC-side lookup by block address. Only the double-indexed S-Stash
    /// supports this; the dedicated cache always reports `None` (it cannot
    /// be searched by address in hardware).
    fn front_probe(&self, addr: BlockAddr) -> Option<usize>;

    /// Mutable access to a front-probed block (for write hits).
    fn front_get_mut(&mut self, addr: BlockAddr) -> Option<&mut StoredBlock>;

    /// Per-cached-level `(used, capacity)`.
    fn occupancy(&self) -> Vec<(u64, u64)>;

    /// Total blocks stored.
    fn total_used(&self) -> u64;

    /// All stored blocks with their coordinates.
    fn blocks(&self) -> Vec<(usize, u64, StoredBlock)>;

    /// Empties the store (context switch), returning every block so the
    /// controller can write them back to their memory locations.
    fn flush(&mut self) -> Vec<(usize, u64, StoredBlock)>;

    /// Deep structural self-check for the audit subsystem: internal indices
    /// must be coherent and every cached bucket within its level's `Z`
    /// bound. Returns a description of the first violation found.
    fn check_coherence(&self) -> Result<(), String> {
        Ok(())
    }

    /// Serializes the store's mutable contents for a checkpoint. Placement
    /// in the S-Stash is history-dependent (set conflicts depend on the
    /// fill order), so implementations write their storage verbatim rather
    /// than re-deriving it from the logical bucket contents.
    fn save_state(&self, w: &mut SnapWriter);

    /// Restores the contents captured by [`TreeTopStore::save_state`] into
    /// a store built from the same configuration over `layout`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] on a geometry mismatch, a block the tree
    /// cannot hold (see [`StoredBlock::restore_within`]) or contents that
    /// fail [`TreeTopStore::check_coherence`]; any [`SnapError`] on
    /// truncation.
    fn restore_state(
        &mut self,
        r: &mut SnapReader<'_>,
        layout: &TreeLayout,
    ) -> Result<(), SnapError>;
}

fn node_code(level: usize, bucket: u64) -> usize {
    ((1u64 << level) | bucket) as usize
}

/// The dedicated tree-top cache design (Wang et al. \[32\], Baseline here).
#[derive(Debug, Clone)]
pub struct DedicatedTreeTop {
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    cached_levels: usize,
    /// Bucket storage indexed by the paper's node code.
    buckets: Vec<Vec<StoredBlock>>,
    /// Logical capacity per level.
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    z: Vec<u32>,
}

impl DedicatedTreeTop {
    /// Creates an empty store for the top `cached_levels` of `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `cached_levels` is zero or not below the tree height.
    pub fn new(layout: &TreeLayout, cached_levels: usize) -> Self {
        assert!(
            cached_levels > 0 && cached_levels < layout.levels(),
            "cached levels must be in 1..levels"
        );
        DedicatedTreeTop {
            cached_levels,
            buckets: vec![Vec::new(); 1 << cached_levels],
            z: (0..cached_levels).map(|l| layout.z_of(l)).collect(),
        }
    }
}

impl TreeTopStore for DedicatedTreeTop {
    fn cached_levels(&self) -> usize {
        self.cached_levels
    }

    fn take_bucket(&mut self, level: usize, bucket: u64) -> Vec<StoredBlock> {
        assert!(level < self.cached_levels);
        std::mem::take(&mut self.buckets[node_code(level, bucket)])
    }

    fn take_bucket_into(&mut self, level: usize, bucket: u64, out: &mut Vec<StoredBlock>) {
        assert!(level < self.cached_levels);
        out.append(&mut self.buckets[node_code(level, bucket)]);
    }

    fn write_bucket(
        &mut self,
        level: usize,
        bucket: u64,
        blocks: Vec<StoredBlock>,
    ) -> Vec<StoredBlock> {
        assert!(level < self.cached_levels);
        assert!(
            blocks.len() <= self.z[level] as usize,
            "bucket overflow at level {level}"
        );
        self.buckets[node_code(level, bucket)] = blocks;
        Vec::new()
    }

    fn write_bucket_from(
        &mut self,
        level: usize,
        bucket: u64,
        blocks: &mut Vec<StoredBlock>,
        _rejected: &mut Vec<StoredBlock>,
    ) {
        assert!(level < self.cached_levels);
        assert!(
            blocks.len() <= self.z[level] as usize,
            "bucket overflow at level {level}"
        );
        let slot = &mut self.buckets[node_code(level, bucket)];
        slot.clear();
        slot.append(blocks);
    }

    fn peek_bucket(&self, level: usize, bucket: u64) -> Vec<StoredBlock> {
        self.buckets[node_code(level, bucket)].clone()
    }

    fn bucket_contains(&self, level: usize, bucket: u64, addr: BlockAddr) -> bool {
        self.buckets[node_code(level, bucket)]
            .iter()
            .any(|b| b.addr == addr)
    }

    fn can_accept(&self, level: usize, _bucket: u64, _block: &StoredBlock) -> bool {
        level < self.cached_levels
    }

    fn front_probe(&self, _addr: BlockAddr) -> Option<usize> {
        None // not addressable by block address
    }

    fn front_get_mut(&mut self, _addr: BlockAddr) -> Option<&mut StoredBlock> {
        None
    }

    fn occupancy(&self) -> Vec<(u64, u64)> {
        (0..self.cached_levels)
            .map(|l| {
                let used: u64 = (0..(1u64 << l))
                    .map(|b| self.buckets[node_code(l, b)].len() as u64)
                    .sum();
                (used, (1u64 << l) * self.z[l] as u64)
            })
            .collect()
    }

    fn total_used(&self) -> u64 {
        self.buckets.iter().map(|b| b.len() as u64).sum()
    }

    fn blocks(&self) -> Vec<(usize, u64, StoredBlock)> {
        let mut out = Vec::new();
        for l in 0..self.cached_levels {
            for b in 0..(1u64 << l) {
                for blk in &self.buckets[node_code(l, b)] {
                    out.push((l, b, *blk));
                }
            }
        }
        out
    }

    fn flush(&mut self) -> Vec<(usize, u64, StoredBlock)> {
        let out = self.blocks();
        for b in &mut self.buckets {
            b.clear();
        }
        out
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.buckets.len());
        for b in &self.buckets {
            w.put_usize(b.len());
            for blk in b {
                blk.save_state(w);
            }
        }
    }

    fn restore_state(
        &mut self,
        r: &mut SnapReader<'_>,
        layout: &TreeLayout,
    ) -> Result<(), SnapError> {
        let n = r.take_seq_len(8)?;
        if n != self.buckets.len() {
            return Err(SnapError::Corrupt("tree-top bucket count mismatch"));
        }
        for b in &mut self.buckets {
            let m = r.take_seq_len(StoredBlock::SNAP_BYTES)?;
            b.clear();
            for _ in 0..m {
                b.push(StoredBlock::restore_within(r, layout)?);
            }
        }
        self.check_coherence()
            .map_err(|_| SnapError::Corrupt("incoherent tree-top contents"))
    }

    fn check_coherence(&self) -> Result<(), String> {
        if !self.buckets[0].is_empty() {
            return Err("dedicated tree-top: node code 0 (skip-all-zeros) is occupied".into());
        }
        for l in 0..self.cached_levels {
            for b in 0..(1u64 << l) {
                let len = self.buckets[node_code(l, b)].len();
                if len > self.z[l] as usize {
                    return Err(format!(
                        "dedicated tree-top: bucket L{l}/B{b} holds {len} > Z={}",
                        self.z[l]
                    ));
                }
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct SEntry {
    block: StoredBlock,
    level: u16,
    bucket: u64,
}

/// IR-Stash's S-Stash: a set-associative, double-indexed tree-top store.
///
/// Data entries live in a set-associative array indexed by `MD5(addr)`; the
/// `TT` pointer table maps each cached tree bucket to its (up to `Z`)
/// entries, so ORAM path accesses can gather a bucket without knowing block
/// addresses. A block can be rejected at fill time when its target set is
/// full even though the bucket has room — the structural cost of set
/// associativity that [`TreeTopStore::can_accept`] exposes to the write
/// planner.
#[derive(Debug, Clone)]
pub struct IrStashTop {
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    cached_levels: usize,
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    sets: usize,
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    ways: usize,
    entries: Vec<Option<SEntry>>,
    /// TT pointer table: node code → entry indices.
    tt: Vec<Vec<u32>>,
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    z: Vec<u32>,
    /// Memoized set indices (`addr → MD5(addr) % sets`). The modeled
    /// hardware hashes each address once into its set wiring, but the
    /// software model calls [`IrStashTop::set_of`] on every probe, accept
    /// check and fill — recomputing a full MD5 compression each time
    /// dominated S-Stash scheme runtime. The digest is a pure function of
    /// the address, so caching it cannot change any result.
    // lint: allow(snapshot-drift, memo cache over a pure function of the address; safe to lose)
    set_memo: RefCell<AddrMap<u32>>,
}

impl IrStashTop {
    /// Creates an empty S-Stash of `sets × ways` entries caching the top
    /// `cached_levels` of `layout`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero or `cached_levels` is not below the
    /// tree height.
    pub fn new(layout: &TreeLayout, cached_levels: usize, sets: usize, ways: usize) -> Self {
        assert!(
            cached_levels > 0 && cached_levels < layout.levels(),
            "cached levels must be in 1..levels"
        );
        assert!(sets > 0 && ways > 0, "S-Stash dimensions must be nonzero");
        IrStashTop {
            cached_levels,
            sets,
            ways,
            entries: vec![None; sets * ways],
            tt: vec![Vec::new(); 1 << cached_levels],
            z: (0..cached_levels).map(|l| layout.z_of(l)).collect(),
            set_memo: RefCell::new(AddrMap::default()),
        }
    }

    /// Total entry capacity (`sets × ways`).
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    #[inline]
    fn set_of(&self, addr: BlockAddr) -> usize {
        *self
            .set_memo
            .borrow_mut()
            .entry(addr.0)
            .or_insert_with(|| (md5_u64(addr.0) % self.sets as u64) as u32) as usize
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    fn find_entry(&self, addr: BlockAddr) -> Option<usize> {
        let range = self.set_range(self.set_of(addr));
        (range.start..range.end).find(|&i| self.entries[i].is_some_and(|e| e.block.addr == addr))
    }
}

impl TreeTopStore for IrStashTop {
    fn cached_levels(&self) -> usize {
        self.cached_levels
    }

    fn take_bucket(&mut self, level: usize, bucket: u64) -> Vec<StoredBlock> {
        let mut out = Vec::new();
        self.take_bucket_into(level, bucket, &mut out);
        out
    }

    fn take_bucket_into(&mut self, level: usize, bucket: u64, out: &mut Vec<StoredBlock>) {
        assert!(level < self.cached_levels);
        let code = node_code(level, bucket);
        for i in 0..self.tt[code].len() {
            let p = self.tt[code][i] as usize; // lint: allow(panic, i < tt[code].len() by the loop bound)
            let e = self.entries[p] // lint: allow(panic, TT pointers index into entries by construction)
                .take()
                .expect("TT pointer must reference a live entry");
            out.push(e.block);
        }
        self.tt[code].clear();
    }

    fn write_bucket(
        &mut self,
        level: usize,
        bucket: u64,
        blocks: Vec<StoredBlock>,
    ) -> Vec<StoredBlock> {
        assert!(level < self.cached_levels);
        assert!(
            blocks.len() <= self.z[level] as usize,
            "bucket overflow at level {level}"
        );
        let code = node_code(level, bucket);
        // The caller always takes before writing; any leftover pointers are
        // stale content being replaced.
        for p in std::mem::take(&mut self.tt[code]) {
            self.entries[p as usize] = None;
        }
        let mut rejected = Vec::new();
        for block in blocks {
            let range = self.set_range(self.set_of(block.addr));
            match (range.start..range.end).find(|&i| self.entries[i].is_none()) {
                Some(free) => {
                    self.entries[free] = Some(SEntry {
                        block,
                        level: level as u16,
                        bucket,
                    });
                    self.tt[code].push(free as u32);
                }
                None => rejected.push(block),
            }
        }
        rejected
    }

    fn write_bucket_from(
        &mut self,
        level: usize,
        bucket: u64,
        blocks: &mut Vec<StoredBlock>,
        rejected: &mut Vec<StoredBlock>,
    ) {
        assert!(level < self.cached_levels);
        assert!(
            blocks.len() <= self.z[level] as usize,
            "bucket overflow at level {level}"
        );
        let code = node_code(level, bucket);
        // The caller always takes before writing; any leftover pointers are
        // stale content being replaced. `tt[code]` is cleared in place so
        // its capacity survives the path access.
        for i in 0..self.tt[code].len() {
            let p = self.tt[code][i] as usize;
            self.entries[p] = None;
        }
        self.tt[code].clear();
        for block in blocks.drain(..) {
            let range = self.set_range(self.set_of(block.addr));
            match (range.start..range.end).find(|&i| self.entries[i].is_none()) {
                Some(free) => {
                    self.entries[free] = Some(SEntry {
                        block,
                        level: level as u16,
                        bucket,
                    });
                    self.tt[code].push(free as u32);
                }
                None => rejected.push(block),
            }
        }
    }

    fn peek_bucket(&self, level: usize, bucket: u64) -> Vec<StoredBlock> {
        self.tt[node_code(level, bucket)]
            .iter()
            .map(|&p| {
                self.entries[p as usize]
                    .expect("TT pointer must reference a live entry")
                    .block
            })
            .collect()
    }

    fn bucket_contains(&self, level: usize, bucket: u64, addr: BlockAddr) -> bool {
        self.tt[node_code(level, bucket)].iter().any(|&p| {
            self.entries[p as usize]
                .expect("TT pointer must reference a live entry")
                .block
                .addr
                == addr
        })
    }

    fn can_accept(&self, level: usize, _bucket: u64, block: &StoredBlock) -> bool {
        if level >= self.cached_levels {
            return false;
        }
        let range = self.set_range(self.set_of(block.addr));
        self.entries[range].iter().any(Option::is_none)
    }

    fn front_probe(&self, addr: BlockAddr) -> Option<usize> {
        self.find_entry(addr)
            .map(|i| self.entries[i].expect("found entry").level as usize)
    }

    fn front_get_mut(&mut self, addr: BlockAddr) -> Option<&mut StoredBlock> {
        let i = self.find_entry(addr)?;
        self.entries[i].as_mut().map(|e| &mut e.block)
    }

    fn occupancy(&self) -> Vec<(u64, u64)> {
        let mut used = vec![0u64; self.cached_levels];
        for e in self.entries.iter().flatten() {
            used[e.level as usize] += 1;
        }
        (0..self.cached_levels)
            .map(|l| (used[l], (1u64 << l) * self.z[l] as u64))
            .collect()
    }

    fn total_used(&self) -> u64 {
        self.entries.iter().flatten().count() as u64
    }

    fn blocks(&self) -> Vec<(usize, u64, StoredBlock)> {
        self.entries
            .iter()
            .flatten()
            .map(|e| (e.level as usize, e.bucket, e.block))
            .collect()
    }

    fn flush(&mut self) -> Vec<(usize, u64, StoredBlock)> {
        let out = self.blocks();
        self.entries.iter_mut().for_each(|e| *e = None);
        self.tt.iter_mut().for_each(Vec::clear);
        out
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.entries.len());
        for e in &self.entries {
            match e {
                None => w.put_u8(0),
                Some(e) => {
                    w.put_u8(1);
                    e.block.save_state(w);
                    w.put_u32(u32::from(e.level));
                    w.put_u64(e.bucket);
                }
            }
        }
        w.put_usize(self.tt.len());
        for ptrs in &self.tt {
            w.put_usize(ptrs.len());
            for &p in ptrs {
                w.put_u32(p);
            }
        }
    }

    fn restore_state(
        &mut self,
        r: &mut SnapReader<'_>,
        layout: &TreeLayout,
    ) -> Result<(), SnapError> {
        let n = r.take_seq_len(1)?;
        if n != self.entries.len() {
            return Err(SnapError::Corrupt("S-Stash entry count mismatch"));
        }
        for e in &mut self.entries {
            *e = match r.take_u8()? {
                0 => None,
                1 => {
                    let block = StoredBlock::restore_within(r, layout)?;
                    let level = u16::try_from(r.take_u32()?)
                        .map_err(|_| SnapError::Corrupt("S-Stash level exceeds u16"))?;
                    let bucket = r.take_u64()?;
                    Some(SEntry {
                        block,
                        level,
                        bucket,
                    })
                }
                _ => return Err(SnapError::Corrupt("bad S-Stash entry tag")),
            };
        }
        let n = r.take_seq_len(8)?;
        if n != self.tt.len() {
            return Err(SnapError::Corrupt("S-Stash TT table size mismatch"));
        }
        let cap = self.entries.len() as u32;
        for ptrs in &mut self.tt {
            let m = r.take_seq_len(4)?;
            ptrs.clear();
            for _ in 0..m {
                let p = r.take_u32()?;
                if p >= cap {
                    return Err(SnapError::Corrupt("S-Stash TT pointer out of range"));
                }
                ptrs.push(p);
            }
        }
        self.check_coherence()
            .map_err(|_| SnapError::Corrupt("incoherent S-Stash contents"))
    }

    fn check_coherence(&self) -> Result<(), String> {
        if !self.tt[0].is_empty() {
            return Err("S-Stash: node code 0 (skip-all-zeros) has TT pointers".into());
        }
        let mut refs = vec![0u32; self.entries.len()];
        for (code, ptrs) in self.tt.iter().enumerate().skip(1) {
            // Invert the paper's node code: level = ⌊log2 code⌋,
            // bucket = the remaining low bits.
            let level = (usize::BITS - 1 - code.leading_zeros()) as usize;
            let bucket = (code - (1 << level)) as u64;
            if ptrs.is_empty() {
                continue;
            }
            if level >= self.cached_levels {
                return Err(format!(
                    "S-Stash: TT code {code} (level {level}) beyond cached levels"
                ));
            }
            if ptrs.len() > self.z[level] as usize {
                return Err(format!(
                    "S-Stash: bucket L{level}/B{bucket} has {} TT pointers > Z={}",
                    ptrs.len(),
                    self.z[level]
                ));
            }
            for &p in ptrs {
                let Some(e) = self.entries.get(p as usize).copied().flatten() else {
                    return Err(format!(
                        "S-Stash: TT pointer L{level}/B{bucket}→{p} references a dead entry"
                    ));
                };
                if (e.level as usize, e.bucket) != (level, bucket) {
                    return Err(format!(
                        "S-Stash: entry {p} tagged L{}/B{} but pointed to by L{level}/B{bucket}",
                        e.level, e.bucket
                    ));
                }
                if !self
                    .set_range(self.set_of(e.block.addr))
                    .contains(&(p as usize))
                {
                    return Err(format!(
                        "S-Stash: entry {p} ({}) outside its MD5-indexed set",
                        e.block.addr
                    ));
                }
                refs[p as usize] += 1;
            }
        }
        for (i, e) in self.entries.iter().enumerate() {
            match (e.is_some(), refs[i]) {
                (true, 1) | (false, 0) => {}
                (true, n) => {
                    return Err(format!("S-Stash: live entry {i} has {n} TT references"));
                }
                (false, n) => {
                    return Err(format!("S-Stash: free entry {i} has {n} TT references"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Leaf, ZAllocation};

    fn layout() -> TreeLayout {
        TreeLayout::new(ZAllocation::uniform(6, 4))
    }

    fn blk(addr: u64, leaf: u64) -> StoredBlock {
        StoredBlock {
            addr: BlockAddr(addr),
            leaf: Leaf(leaf),
            payload: addr,
        }
    }

    #[test]
    fn node_codes_match_paper() {
        // Root is 0…01; level-by-level continuation.
        assert_eq!(node_code(0, 0), 1);
        assert_eq!(node_code(1, 0), 2);
        assert_eq!(node_code(1, 1), 3);
        assert_eq!(node_code(2, 0), 4);
        assert_eq!(node_code(2, 3), 7);
    }

    #[test]
    fn dedicated_round_trip() {
        let l = layout();
        let mut top = DedicatedTreeTop::new(&l, 3);
        assert_eq!(top.cached_levels(), 3);
        let rejected = top.write_bucket(2, 3, vec![blk(1, 28), blk(2, 31)]);
        assert!(rejected.is_empty());
        assert_eq!(top.peek_bucket(2, 3).len(), 2);
        assert_eq!(top.total_used(), 2);
        let got = top.take_bucket(2, 3);
        assert_eq!(got.len(), 2);
        assert_eq!(top.total_used(), 0);
    }

    #[test]
    fn dedicated_has_no_front_door() {
        let l = layout();
        let mut top = DedicatedTreeTop::new(&l, 3);
        top.write_bucket(0, 0, vec![blk(9, 0)]);
        assert_eq!(top.front_probe(BlockAddr(9)), None);
        assert!(top.front_get_mut(BlockAddr(9)).is_none());
    }

    #[test]
    fn dedicated_occupancy_and_flush() {
        let l = layout();
        let mut top = DedicatedTreeTop::new(&l, 2);
        top.write_bucket(0, 0, vec![blk(1, 0)]);
        top.write_bucket(1, 1, vec![blk(2, 16), blk(3, 24)]);
        assert_eq!(top.occupancy(), vec![(1, 4), (2, 8)]);
        let flushed = top.flush();
        assert_eq!(flushed.len(), 3);
        assert_eq!(top.total_used(), 0);
    }

    #[test]
    fn irstash_round_trip_via_tt() {
        let l = layout();
        let mut top = IrStashTop::new(&l, 3, 8, 4);
        let rejected = top.write_bucket(2, 1, vec![blk(10, 8), blk(11, 9)]);
        assert!(rejected.is_empty());
        assert_eq!(top.peek_bucket(2, 1).len(), 2);
        let got = top.take_bucket(2, 1);
        assert_eq!(got.len(), 2);
        assert_eq!(top.total_used(), 0);
        assert!(top.peek_bucket(2, 1).is_empty());
    }

    #[test]
    fn irstash_front_door_finds_blocks() {
        let l = layout();
        let mut top = IrStashTop::new(&l, 3, 8, 4);
        top.write_bucket(1, 0, vec![blk(42, 0)]);
        assert_eq!(top.front_probe(BlockAddr(42)), Some(1));
        assert_eq!(top.front_probe(BlockAddr(43)), None);
        top.front_get_mut(BlockAddr(42)).unwrap().payload = 777;
        assert_eq!(top.peek_bucket(1, 0)[0].payload, 777);
    }

    #[test]
    fn irstash_rejects_on_set_conflict() {
        let l = layout();
        // One set, one way: the second block to that set must be rejected.
        let mut top = IrStashTop::new(&l, 3, 1, 1);
        let b1 = blk(1, 0);
        let b2 = blk(2, 0);
        assert!(top.can_accept(0, 0, &b1));
        let rej = top.write_bucket(0, 0, vec![b1, b2]);
        assert_eq!(rej.len(), 1);
        assert!(!top.can_accept(1, 0, &b2), "full set must refuse");
        assert_eq!(top.total_used(), 1);
    }

    #[test]
    fn irstash_write_replaces_stale_bucket() {
        let l = layout();
        let mut top = IrStashTop::new(&l, 3, 8, 4);
        top.write_bucket(2, 2, vec![blk(1, 21)]);
        top.write_bucket(2, 2, vec![blk(2, 20)]);
        let got = top.peek_bucket(2, 2);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].addr, BlockAddr(2));
        assert_eq!(top.total_used(), 1, "stale entry must be freed");
        assert_eq!(top.front_probe(BlockAddr(1)), None);
    }

    #[test]
    fn irstash_occupancy_per_level() {
        let l = layout();
        let mut top = IrStashTop::new(&l, 2, 16, 4);
        top.write_bucket(0, 0, vec![blk(1, 0), blk(2, 17)]);
        top.write_bucket(1, 1, vec![blk(3, 16)]);
        assert_eq!(top.occupancy(), vec![(2, 4), (1, 8)]);
    }

    #[test]
    fn irstash_flush_reports_coordinates() {
        let l = layout();
        let mut top = IrStashTop::new(&l, 2, 16, 4);
        top.write_bucket(1, 1, vec![blk(3, 16)]);
        let flushed = top.flush();
        assert_eq!(flushed, vec![(1, 1, blk(3, 16))]);
        assert_eq!(top.total_used(), 0);
        assert_eq!(top.front_probe(BlockAddr(3)), None);
    }

    #[test]
    fn irstash_capacity() {
        let l = layout();
        let top = IrStashTop::new(&l, 3, 8, 4);
        assert_eq!(top.capacity(), 32);
    }

    #[test]
    fn bucket_contains_matches_peek_for_both_stores() {
        let l = layout();
        let mut ded = DedicatedTreeTop::new(&l, 3);
        ded.write_bucket(2, 3, vec![blk(1, 28), blk(2, 31)]);
        let mut ir = IrStashTop::new(&l, 3, 8, 4);
        ir.write_bucket(2, 3, vec![blk(1, 28), blk(2, 31)]);
        for top in [&ded as &dyn TreeTopStore, &ir as &dyn TreeTopStore] {
            for addr in [1u64, 2, 3] {
                assert_eq!(
                    top.bucket_contains(2, 3, BlockAddr(addr)),
                    top.peek_bucket(2, 3)
                        .iter()
                        .any(|b| b.addr == BlockAddr(addr)),
                    "bucket_contains diverged from peek_bucket for addr {addr}"
                );
            }
            assert!(!top.bucket_contains(2, 2, BlockAddr(1)), "wrong bucket");
        }
    }

    #[test]
    fn save_restore_round_trips_both_stores() {
        let l = layout();
        let mut ded = DedicatedTreeTop::new(&l, 3);
        ded.write_bucket(2, 3, vec![blk(1, 28), blk(2, 31)]);
        let mut ir = IrStashTop::new(&l, 3, 8, 4);
        ir.write_bucket(2, 1, vec![blk(10, 8), blk(11, 9)]);
        ir.write_bucket(0, 0, vec![blk(3, 4)]);

        let mut w = SnapWriter::new();
        ded.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut ded2 = DedicatedTreeTop::new(&l, 3);
        let mut r = SnapReader::new(&bytes);
        ded2.restore_state(&mut r, &l).unwrap();
        r.finish().unwrap();
        assert_eq!(ded2.blocks(), ded.blocks());
        ded2.check_coherence().unwrap();

        let mut w = SnapWriter::new();
        ir.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut ir2 = IrStashTop::new(&l, 3, 8, 4);
        let mut r = SnapReader::new(&bytes);
        ir2.restore_state(&mut r, &l).unwrap();
        r.finish().unwrap();
        // Placement (which entry slot each block occupies) must survive
        // verbatim — the front door and TT views agree with the original.
        assert_eq!(ir2.blocks(), ir.blocks());
        assert_eq!(
            ir2.front_probe(BlockAddr(10)),
            ir.front_probe(BlockAddr(10))
        );
        assert_eq!(ir2.peek_bucket(2, 1), ir.peek_bucket(2, 1));
        ir2.check_coherence().unwrap();
    }

    #[test]
    fn irstash_restore_rejects_out_of_range_pointer() {
        let l = layout();
        let mut ir = IrStashTop::new(&l, 3, 8, 4);
        ir.write_bucket(1, 0, vec![blk(42, 0)]);
        let mut w = SnapWriter::new();
        ir.save_state(&mut w);
        let bytes = w.into_bytes();
        // A smaller store: the serialized entry count cannot match.
        let mut tiny = IrStashTop::new(&l, 3, 2, 2);
        let mut r = SnapReader::new(&bytes);
        assert!(tiny.restore_state(&mut r, &l).is_err());
    }

    /// Snapshots `top` and restores it into `fresh`.
    fn round_trip(
        top: &dyn TreeTopStore,
        fresh: &mut dyn TreeTopStore,
        l: &TreeLayout,
    ) -> Result<(), SnapError> {
        let mut w = SnapWriter::new();
        top.save_state(&mut w);
        fresh.restore_state(&mut SnapReader::new(&w.into_bytes()), l)
    }

    /// A dedicated top holding a block no path reaches, a block no arena
    /// slot can hold, or a bucket over its `Z` cannot run an access:
    /// restore rejects each, and accepts their sound neighbours.
    #[test]
    fn dedicated_restore_rejects_state_it_cannot_run() {
        let l = layout();
        let (last_leaf, widest) = (l.num_leaves() - 1, u64::from(u32::MAX) - 1);
        for (bucket, ok) in [
            (vec![blk(253, last_leaf)], true),
            (vec![blk(253, last_leaf + 1)], false),
            (vec![blk(widest, 0)], true),
            (vec![blk(widest + 1, 0)], false),
            (vec![blk(1, 0), blk(2, 0), blk(3, 0), blk(4, 0)], true),
            (
                vec![blk(1, 0), blk(2, 0), blk(3, 0), blk(4, 0), blk(5, 0)],
                false,
            ),
        ] {
            let mut ded = DedicatedTreeTop::new(&l, 3);
            ded.buckets[node_code(0, 0)] = bucket.clone();
            let got = round_trip(&ded, &mut DedicatedTreeTop::new(&l, 3), &l);
            match ok {
                true => assert!(got.is_ok(), "{bucket:?}"),
                false => assert!(matches!(got, Err(SnapError::Corrupt(_))), "{bucket:?}"),
            }
        }
    }

    /// An S-Stash entry tagged with a level past the cached ones (which
    /// `occupancy` would index out of bounds) or holding a block past the
    /// last leaf is rejected on restore.
    #[test]
    fn irstash_restore_rejects_state_it_cannot_run() {
        let l = layout();
        let mut ir = IrStashTop::new(&l, 3, 8, 4);
        ir.write_bucket(2, 1, vec![blk(10, 8), blk(11, 9)]);
        round_trip(&ir, &mut IrStashTop::new(&l, 3, 8, 4), &l).expect("sound store");
        let live = ir.find_entry(BlockAddr(10)).expect("entry written");
        let tagged_past = |e: &mut SEntry| e.level = 9;
        let past_last_leaf = |e: &mut SEntry| e.block.leaf = Leaf(l.num_leaves());
        for corrupt in [&tagged_past as &dyn Fn(&mut SEntry), &past_last_leaf] {
            let mut bad = ir.clone();
            corrupt(bad.entries[live].as_mut().expect("live entry"));
            let got = round_trip(&bad, &mut IrStashTop::new(&l, 3, 8, 4), &l);
            assert!(matches!(got, Err(SnapError::Corrupt(_))), "{got:?}");
        }
    }

    #[test]
    fn coherence_check_accepts_sound_stores() {
        let l = layout();
        let mut ded = DedicatedTreeTop::new(&l, 3);
        ded.write_bucket(2, 3, vec![blk(1, 28), blk(2, 31)]);
        ded.check_coherence().unwrap();
        let mut ir = IrStashTop::new(&l, 3, 8, 4);
        ir.write_bucket(2, 1, vec![blk(10, 8), blk(11, 9)]);
        ir.write_bucket(0, 0, vec![blk(3, 4)]);
        ir.check_coherence().unwrap();
    }

    #[test]
    fn coherence_check_catches_dangling_tt_pointer() {
        let l = layout();
        let mut ir = IrStashTop::new(&l, 3, 8, 4);
        ir.write_bucket(1, 0, vec![blk(42, 0)]);
        // Corrupt: kill the entry but leave its TT pointer behind.
        let p = ir.tt[node_code(1, 0)][0] as usize;
        ir.entries[p] = None;
        let err = ir.check_coherence().unwrap_err();
        assert!(err.contains("dead entry"), "{err}");
    }

    #[test]
    fn coherence_check_catches_leaked_entry() {
        let l = layout();
        let mut ir = IrStashTop::new(&l, 3, 8, 4);
        ir.write_bucket(1, 0, vec![blk(42, 0)]);
        // Corrupt: drop the TT pointer but keep the entry alive.
        ir.tt[node_code(1, 0)].clear();
        let err = ir.check_coherence().unwrap_err();
        assert!(err.contains("0 TT references"), "{err}");
    }

    #[test]
    fn coherence_check_catches_mistagged_entry() {
        let l = layout();
        let mut ir = IrStashTop::new(&l, 3, 8, 4);
        ir.write_bucket(1, 1, vec![blk(42, 16)]);
        let p = ir.tt[node_code(1, 1)][0] as usize;
        ir.entries[p].as_mut().unwrap().bucket = 0;
        let err = ir.check_coherence().unwrap_err();
        assert!(err.contains("tagged"), "{err}");
    }

    #[test]
    fn coherence_check_catches_dedicated_overflow() {
        let l = layout();
        let mut ded = DedicatedTreeTop::new(&l, 3);
        ded.write_bucket(0, 0, vec![blk(1, 0), blk(2, 17)]);
        // Corrupt past the Z bound behind the store's back.
        ded.buckets[node_code(0, 0)].extend([blk(3, 1), blk(4, 2), blk(5, 3)]);
        let err = ded.check_coherence().unwrap_err();
        assert!(err.contains("> Z="), "{err}");
    }
}
