//! The fully-associative stash (the paper's F-Stash).

// lint: allow(determinism, hot-path lookup map; every iteration sorts keys before use)
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use iroram_hash::mix64;
use iroram_sim_engine::{SnapError, SnapReader, SnapWriter};

use crate::{BlockAddr, Leaf, StoredBlock, TreeLayout};

/// A deterministic single-multiply hasher for block addresses. The stash
/// map is keyed by `u64` addresses and sits on the per-path hot loop, where
/// the default SipHash costs more than the lookup it guards; one `mix64`
/// round spreads addresses fine. Determinism is *not* load-bearing here —
/// no report-visible output depends on map iteration order (write-back
/// planning sorts its candidates) — but a fixed hasher keeps the whole
/// simulator free of per-process randomness.
#[derive(Debug, Default, Clone)]
pub(crate) struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys (unused by the stash): FNV-1a.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = mix64(v);
    }
}

// lint: allow(determinism, lookup-only map with a fixed keyed hasher; every report-visible iteration sorts in plan_writeback_into)
pub(crate) type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// The small fully-associative on-chip buffer holding in-flight blocks.
///
/// Path ORAM temporarily parks blocks here between the read and write
/// phases, and blocks that cannot be pushed into the tree accumulate here
/// until background eviction drains them (Ren et al. \[25\]). Capacity is a
/// *soft* threshold: occupancy may exceed it transiently (the protocol then
/// schedules background-eviction paths), mirroring how the paper converts
/// stash overflow from a correctness failure into a performance cost.
///
/// # Examples
///
/// ```
/// use iroram_protocol::{Stash, StoredBlock, BlockAddr, Leaf};
/// let mut s = Stash::new(200);
/// s.insert(StoredBlock { addr: BlockAddr(1), leaf: Leaf(0), payload: 9 });
/// assert!(s.contains(BlockAddr(1)));
/// assert_eq!(s.take(BlockAddr(1)).unwrap().payload, 9);
/// ```
#[derive(Debug, Clone)]
pub struct Stash {
    /// Resident blocks, kept sorted by address. Most schemes peak near or
    /// under a hundred blocks, but IR-Alloc runs past the 200-block soft
    /// capacity: on mcf at L=17 it peaks at 249 (`diag 17 mcf 40000`),
    /// and the benchmark's `oram-protocol.stash_peak` reads 256. Even at
    /// that peak the vector is about 6 KB, so a binary search (8 probes)
    /// plus a memmove within L1 still beats a hash map on the per-path
    /// hot loop, *and* it hands the write-back planner an address-ordered
    /// iteration for free (its counting sort becomes fully
    /// comparison-free).
    blocks: Vec<StoredBlock>,
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    capacity: usize,
    max_occupancy: usize,
    // Write-back planning scratch, kept across calls so the per-path hot
    // loop allocates nothing. Not logical state: always left consistent but
    // meaningless between calls.
    // lint: allow(snapshot-drift, per-call scratch, cleared before each use)
    cands: Vec<(u32, u32)>,
    // lint: allow(snapshot-drift, per-call scratch, cleared before each use)
    sorted: Vec<(u32, u32)>,
    // lint: allow(snapshot-drift, per-call scratch, cleared before each use)
    offsets: Vec<usize>,
    // lint: allow(snapshot-drift, per-call scratch, cleared before each use)
    placed: Vec<bool>,
    // lint: allow(snapshot-drift, per-call scratch, cleared before each use)
    skipped: Vec<(u32, u32)>,
}

/// A reusable write-back plan: the per-level block lists
/// [`Stash::plan_writeback_into`] fills (index 0 = the plan's `top_level`).
///
/// Holding one plan per controller and re-filling it each path access keeps
/// the write phase free of `Vec<Vec<_>>` churn: the inner vectors keep their
/// capacity across accesses.
#[derive(Debug, Clone, Default)]
pub struct WritebackPlan {
    levels: Vec<Vec<StoredBlock>>,
    len: usize,
}

impl WritebackPlan {
    /// An empty plan.
    pub fn new() -> Self {
        WritebackPlan::default()
    }

    /// Number of levels in the current plan.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the current plan covers zero levels.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mutable access to plan level `i` (the write phase drains these).
    pub fn level_mut(&mut self, i: usize) -> &mut Vec<StoredBlock> {
        assert!(i < self.len, "plan level {i} out of range {}", self.len);
        &mut self.levels[i]
    }

    /// Total blocks across all levels of the current plan.
    pub fn total_planned(&self) -> usize {
        self.levels[..self.len].iter().map(Vec::len).sum()
    }

    /// Clears the plan and sizes it to `n` levels, keeping allocations.
    fn reset(&mut self, n: usize) {
        if self.levels.len() < n {
            self.levels.resize_with(n, Vec::new);
        }
        for lvl in &mut self.levels[..n] {
            lvl.clear();
        }
        self.len = n;
    }

    /// Consumes the plan into plain per-level vectors (compatibility path
    /// for callers that do not reuse plans).
    fn into_level_vecs(mut self) -> Vec<Vec<StoredBlock>> {
        self.levels.truncate(self.len);
        self.levels
    }
}

impl Stash {
    /// Creates an empty stash with soft capacity `capacity` (the paper uses
    /// 200 entries, Table I).
    pub fn new(capacity: usize) -> Self {
        Stash {
            blocks: Vec::new(),
            capacity,
            max_occupancy: 0,
            cands: Vec::new(),
            sorted: Vec::new(),
            offsets: Vec::new(),
            placed: Vec::new(),
            skipped: Vec::new(),
        }
    }

    /// Position of `addr` in the sorted block vector (`Err` = insertion
    /// point).
    #[inline]
    fn pos(&self, addr: u64) -> Result<usize, usize> {
        self.blocks.binary_search_by_key(&addr, |b| b.addr.0)
    }

    /// The soft capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the stash is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The high-water mark of occupancy over the stash's lifetime.
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Whether occupancy exceeds the soft capacity (background eviction
    /// should run).
    pub fn over_capacity(&self) -> bool {
        self.blocks.len() > self.capacity
    }

    /// Inserts a block (replacing any stale copy of the same address).
    pub fn insert(&mut self, block: StoredBlock) {
        match self.pos(block.addr.0) {
            // lint: allow(panic, index returned by binary_search is in range)
            Ok(i) => self.blocks[i] = block,
            Err(i) => self.blocks.insert(i, block),
        }
        self.max_occupancy = self.max_occupancy.max(self.blocks.len());
    }

    /// Inserts every block of `incoming` (clearing it). Equivalent to one
    /// [`Stash::insert`] per element, but a single O(n + k) backward merge
    /// replaces k O(n) shifted inserts — the read phase of a path access
    /// lands a whole path's worth of blocks at once, and per-element
    /// insertion was the stash's largest memmove source.
    pub fn insert_batch(&mut self, incoming: &mut Vec<StoredBlock>) {
        if incoming.is_empty() {
            return;
        }
        incoming.sort_unstable_by_key(|b| b.addr.0);
        debug_assert!(
            incoming.windows(2).all(|w| w[0].addr.0 != w[1].addr.0),
            "insert_batch: duplicate addresses within one batch"
        );
        let n = self.blocks.len();
        let k = incoming.len();
        // lint: allow(panic, k >= 1 checked above)
        let filler = incoming[k - 1];
        self.blocks.resize(n + k, filler);
        let (mut i, mut j, mut w) = (n, k, n + k);
        while j > 0 {
            w -= 1;
            // lint: allow(panic, i <= n and j <= k and w < n + k throughout the merge)
            if i > 0 && self.blocks[i - 1].addr.0 > incoming[j - 1].addr.0 {
                // lint: allow(panic, i >= 1 and w < n + k)
                self.blocks[w] = self.blocks[i - 1];
                i -= 1;
            } else {
                // lint: allow(panic, i >= 1 inside the guard; j >= 1 from the loop condition)
                if i > 0 && self.blocks[i - 1].addr.0 == incoming[j - 1].addr.0 {
                    i -= 1; // stale copy replaced by the incoming block
                }
                // lint: allow(panic, j >= 1 from the loop condition and w < n + k)
                self.blocks[w] = incoming[j - 1];
                j -= 1;
            }
        }
        if w > i {
            // Address collisions dropped stale copies, leaving a gap
            // between the untouched prefix and the merged tail; close it.
            let dropped = w - i;
            self.blocks.copy_within(w.., i);
            self.blocks.truncate(n + k - dropped);
        }
        incoming.clear();
        self.max_occupancy = self.max_occupancy.max(self.blocks.len());
    }

    /// Whether a block with `addr` is resident.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.pos(addr.0).is_ok()
    }

    /// Immutable view of a resident block.
    pub fn get(&self, addr: BlockAddr) -> Option<&StoredBlock> {
        self.pos(addr.0).ok().and_then(|i| self.blocks.get(i))
    }

    /// Mutable view of a resident block (for payload updates and remaps).
    pub fn get_mut(&mut self, addr: BlockAddr) -> Option<&mut StoredBlock> {
        match self.pos(addr.0) {
            // lint: allow(panic, index returned by binary_search is in range)
            Ok(i) => Some(&mut self.blocks[i]),
            Err(_) => None,
        }
    }

    /// Removes and returns the block with `addr`.
    pub fn take(&mut self, addr: BlockAddr) -> Option<StoredBlock> {
        self.pos(addr.0).ok().map(|i| self.blocks.remove(i))
    }

    /// Iterates over resident blocks in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = &StoredBlock> {
        self.blocks.iter()
    }

    /// Serializes the resident blocks and the occupancy high-water mark for
    /// a checkpoint (capacity is configuration; the write-back scratch is
    /// meaningless between calls and not written).
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.blocks.len());
        for b in &self.blocks {
            b.save_state(w);
        }
        w.put_usize(self.max_occupancy);
    }

    /// Restores the state captured by [`Stash::save_state`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] if the serialized blocks are not in ascending
    /// address order (the vector's invariant); any [`SnapError`] on
    /// truncation.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.take_seq_len(StoredBlock::SNAP_BYTES)?;
        self.blocks.clear();
        for _ in 0..n {
            let b = StoredBlock::restore_state(r)?;
            if self
                .blocks
                .last()
                .is_some_and(|prev| prev.addr.0 >= b.addr.0)
            {
                return Err(SnapError::Corrupt("stash blocks out of order"));
            }
            self.blocks.push(b);
        }
        self.max_occupancy = r.take_usize()?;
        Ok(())
    }

    /// Plans the write-back of a path to `leaf`: selects, for each level in
    /// `[top_level, L)`, up to `Z_level` stash blocks that may legally live
    /// in that level's bucket on this path, **removing them from the stash**.
    ///
    /// Returns one `Vec<StoredBlock>` per level (index 0 of the result is
    /// `top_level`). Blocks are pushed as deep as possible (the Path ORAM
    /// eviction rule); the greedy deepest-first order is optimal for
    /// maximizing placed blocks. `exclude` (the just-requested block under
    /// the immediate-remap policy, which returns to the program) is never
    /// selected.
    ///
    /// `cap_override` lets the caller shrink a level's usable capacity (used
    /// by IR-Stash when an S-Stash set is full: those blocks are "skipped
    /// this round", paper Section IV-C); a `None` entry means use
    /// `layout.z_of(level)`.
    pub fn plan_writeback(
        &mut self,
        layout: &TreeLayout,
        leaf: Leaf,
        top_level: usize,
        may_place: impl FnMut(usize, &StoredBlock) -> bool,
    ) -> Vec<Vec<StoredBlock>> {
        let mut plan = WritebackPlan::new();
        self.plan_writeback_into(layout, leaf, top_level, may_place, &mut plan);
        plan.into_level_vecs()
    }

    /// Allocation-free variant of [`Stash::plan_writeback`]: fills `plan`
    /// in place, reusing both the plan's level vectors and the stash's
    /// internal candidate scratch across calls.
    ///
    /// Candidates are ordered deepest-common-depth first (ties broken by
    /// ascending address) via a **stable counting sort** over depths: the
    /// block vector is already address-sorted, the scatter preserves the
    /// source order inside each depth segment, so the final order is
    /// (depth desc, addr asc) with no comparison sort at all. Selection is
    /// mark-and-sweep — placed blocks are flagged and removed in one
    /// compaction pass at the end, so the greedy fill itself never shifts
    /// the vector.
    pub fn plan_writeback_into(
        &mut self,
        layout: &TreeLayout,
        leaf: Leaf,
        top_level: usize,
        may_place: impl FnMut(usize, &StoredBlock) -> bool,
        plan: &mut WritebackPlan,
    ) {
        let levels = layout.levels();
        plan.reset(levels - top_level);

        // --- Stable counting sort of (common depth, index), deepest first.
        self.cands.clear();
        self.offsets.clear();
        self.offsets.resize(levels, 0);
        for (i, b) in self.blocks.iter().enumerate() {
            let depth = layout.common_depth(b.leaf, leaf);
            // lint: allow(secret-flow, on-chip write-back planning; the path is read and written in full regardless of placement)
            self.offsets[depth] += 1;
            self.cands.push((depth as u32, i as u32));
        }
        let n = self.cands.len();
        let mut acc = 0usize;
        for depth in (0..levels).rev() {
            // lint: allow(secret-flow, on-chip write-back planning; the path is read and written in full regardless of placement)
            let count = self.offsets[depth];
            // lint: allow(secret-flow, on-chip write-back planning; the path is read and written in full regardless of placement)
            self.offsets[depth] = acc;
            acc += count;
        }
        self.sorted.clear();
        self.sorted.resize(n, (0, 0));
        for i in 0..n {
            let (depth, idx) = self.cands[i];
            // lint: allow(secret-flow, on-chip write-back planning; the path is read and written in full regardless of placement)
            let pos = self.offsets[depth as usize];
            // lint: allow(secret-flow, on-chip write-back planning; the path is read and written in full regardless of placement)
            self.offsets[depth as usize] += 1;
            // lint: allow(secret-flow, on-chip write-back planning; the path is read and written in full regardless of placement)
            self.sorted[pos] = (depth, idx);
        }
        greedy_fill(
            layout,
            top_level,
            &self.sorted,
            &self.blocks,
            may_place,
            plan,
            &mut self.placed,
            &mut self.skipped,
        );

        // --- Sweep: drop every placed block, preserving address order. ---
        let mut w = 0usize;
        for r in 0..n {
            // lint: allow(panic, r < n = blocks.len = placed.len)
            if !self.placed[r] {
                if w != r {
                    // lint: allow(panic, w <= r < n)
                    self.blocks[w] = self.blocks[r];
                }
                w += 1;
            }
        }
        self.blocks.truncate(w);
    }

    /// Raises the occupancy high-water mark to `n`: a path placed by
    /// [`OramTree::insert_below`](crate::OramTree::insert_below) never
    /// enters the stash, but its `n` blocks would all have sat here
    /// between the read and write phases of a path access, and the
    /// watermark is part of the logical state.
    pub(crate) fn raise_watermark(&mut self, n: usize) {
        self.max_occupancy = self.max_occupancy.max(n);
    }
}

/// The Path ORAM placement rule of [`Stash::plan_writeback_into`]: fill
/// levels `[top_level, L)` of `plan` deepest first, each up to its `Z`,
/// from `cands` — `(common depth with the path, index into blocks)` pairs
/// in (depth desc, addr asc) order — and resetting `placed` to flag, per
/// block, whether it was placed. Blocks are pushed as deep as possible;
/// the greedy deepest-first order is optimal for maximizing placed blocks.
///
/// `may_place` can veto a block at a level (IR-Stash when an S-Stash set
/// is full: the block is "skipped this round", paper Section IV-C). A
/// vetoed block stays a candidate for shallower levels.
#[allow(clippy::too_many_arguments)]
fn greedy_fill(
    layout: &TreeLayout,
    top_level: usize,
    cands: &[(u32, u32)],
    blocks: &[StoredBlock],
    mut may_place: impl FnMut(usize, &StoredBlock) -> bool,
    plan: &mut WritebackPlan,
    placed: &mut Vec<bool>,
    skipped: &mut Vec<(u32, u32)>,
) {
    let n = cands.len();
    placed.clear();
    placed.resize(blocks.len(), false);
    skipped.clear();
    // An entry the cursor passes without placing was rejected by
    // `may_place`; it lands on the `skipped` list (in cursor order, i.e.
    // global candidate order) so shallower levels can revisit exactly
    // those entries instead of rescanning the whole prefix — every
    // unplaced entry before the cursor is on the list by construction.
    let mut cursor = 0usize;
    let mut unplaced = n;
    for level in (top_level..layout.levels()).rev() {
        if unplaced == 0 {
            // Every candidate is placed: the shallower levels stay empty.
            break;
        }
        let cap = layout.z_of(level) as usize;
        let slot = &mut plan.levels[level - top_level];
        // Blocks with common depth ≥ level can live at `level` (or
        // deeper, but deeper levels were already filled).
        while cursor < n && slot.len() < cap {
            // lint: allow(panic, cursor < n = cands.len())
            let (depth, idx) = cands[cursor];
            if (depth as usize) < level {
                break;
            }
            cursor += 1;
            // lint: allow(panic, candidate indices address blocks by construction)
            let b = &blocks[idx as usize];
            if !may_place(level, b) {
                // Skipped this round (e.g. S-Stash set full); still a
                // candidate for shallower levels.
                skipped.push((depth, idx));
                continue;
            }
            slot.push(*b);
            // lint: allow(panic, placed has one flag per block)
            placed[idx as usize] = true;
            unplaced -= 1;
        }
        // Give passed-over candidates another chance at this level: they
        // were rejected by may_place at deeper levels (or at this one, if
        // a deeper set freed up mid-fill) and remain eligible.
        for &(depth, idx) in skipped.iter() {
            if slot.len() >= cap {
                break;
            }
            // lint: allow(panic, placed has one flag per block)
            if (depth as usize) < level || placed[idx as usize] {
                continue;
            }
            // lint: allow(panic, candidate indices address blocks by construction)
            let b = &blocks[idx as usize];
            if !may_place(level, b) {
                continue;
            }
            slot.push(*b);
            // lint: allow(panic, placed has one flag per block)
            placed[idx as usize] = true;
            unplaced -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ZAllocation;

    fn blk(addr: u64, leaf: u64) -> StoredBlock {
        StoredBlock {
            addr: BlockAddr(addr),
            leaf: Leaf(leaf),
            payload: addr * 100,
        }
    }

    fn layout4() -> TreeLayout {
        // 4 levels, Z=1 for visibility of placement decisions.
        TreeLayout::new(ZAllocation::uniform(4, 1))
    }

    #[test]
    fn insert_get_take() {
        let mut s = Stash::new(10);
        s.insert(blk(1, 3));
        assert_eq!(s.len(), 1);
        assert!(s.contains(BlockAddr(1)));
        assert_eq!(s.get(BlockAddr(1)).unwrap().leaf, Leaf(3));
        s.get_mut(BlockAddr(1)).unwrap().payload = 7;
        assert_eq!(s.take(BlockAddr(1)).unwrap().payload, 7);
        assert!(s.is_empty());
    }

    #[test]
    fn insert_replaces_same_address() {
        let mut s = Stash::new(10);
        s.insert(blk(1, 3));
        s.insert(blk(1, 5));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(BlockAddr(1)).unwrap().leaf, Leaf(5));
    }

    #[test]
    fn occupancy_tracking() {
        let mut s = Stash::new(2);
        s.insert(blk(1, 0));
        s.insert(blk(2, 0));
        assert!(!s.over_capacity());
        s.insert(blk(3, 0));
        assert!(s.over_capacity());
        assert_eq!(s.max_occupancy(), 3);
        s.take(BlockAddr(1));
        s.take(BlockAddr(2));
        assert_eq!(s.max_occupancy(), 3, "high-water mark persists");
    }

    #[test]
    fn writeback_pushes_deepest() {
        let mut s = Stash::new(10);
        // Block mapped to the accessed leaf itself: can go to leaf level.
        s.insert(blk(1, 5));
        // Block sharing only the root with leaf 5 (leaf 1 differs in top bit).
        s.insert(blk(2, 1));
        let layout = layout4();
        let plan = s.plan_writeback(&layout, Leaf(5), 0, |_, _| true);
        assert_eq!(plan.len(), 4);
        assert_eq!(plan[3], vec![blk(1, 5)], "own-leaf block at leaf level");
        assert_eq!(plan[0], vec![blk(2, 1)], "distant block at root");
        assert!(s.is_empty());
    }

    #[test]
    fn writeback_respects_capacity() {
        let mut s = Stash::new(10);
        // Three blocks all mapped to leaf 5; Z=1 per level: they can occupy
        // levels 3, 2, 1, 0 (all on the same path).
        for a in 1..=5 {
            s.insert(blk(a, 5));
        }
        let layout = layout4();
        let plan = s.plan_writeback(&layout, Leaf(5), 0, |_, _| true);
        let placed: usize = plan.iter().map(Vec::len).sum();
        assert_eq!(placed, 4, "one block per level fits");
        assert_eq!(s.len(), 1, "one block left in stash");
    }

    #[test]
    fn writeback_excludes_via_predicate() {
        let mut s = Stash::new(10);
        s.insert(blk(1, 5));
        let layout = layout4();
        let plan = s.plan_writeback(&layout, Leaf(5), 0, |_, b| b.addr != BlockAddr(1));
        assert!(plan.iter().all(Vec::is_empty));
        assert!(s.contains(BlockAddr(1)));
    }

    #[test]
    fn writeback_honours_top_level_offset() {
        let mut s = Stash::new(10);
        s.insert(blk(1, 5)); // could go to leaf level
        s.insert(blk(2, 1)); // only the root — below top_level=1, unplaceable
        let layout = layout4();
        let plan = s.plan_writeback(&layout, Leaf(5), 1, |_, _| true);
        assert_eq!(plan.len(), 3, "levels 1..4");
        let placed: usize = plan.iter().map(Vec::len).sum();
        assert_eq!(placed, 1);
        assert!(s.contains(BlockAddr(2)), "root-only block stays in stash");
    }

    #[test]
    fn writeback_skip_then_place_shallower() {
        // A block skipped at the leaf level (e.g. S-Stash conflict) must
        // still be eligible for shallower levels.
        let mut s = Stash::new(10);
        s.insert(blk(1, 5));
        let layout = layout4();
        let plan = s.plan_writeback(&layout, Leaf(5), 0, |level, _| level != 3);
        assert!(plan[3].is_empty());
        let placed: usize = plan.iter().map(Vec::len).sum();
        assert_eq!(placed, 1, "placed at a shallower level instead");
        assert!(s.is_empty());
    }

    #[test]
    fn writeback_empty_stash() {
        let mut s = Stash::new(10);
        let layout = layout4();
        let plan = s.plan_writeback(&layout, Leaf(0), 0, |_, _| true);
        assert!(plan.iter().all(Vec::is_empty));
    }

    /// Builds a populated stash from a deterministic pseudo-random mix.
    fn mixed_stash(seed: u64, count: u64, leaves: u64) -> Stash {
        let mut s = Stash::new(1024);
        let mut x = seed;
        for a in 0..count {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s.insert(blk(a, (x >> 33) % leaves));
        }
        s
    }

    #[test]
    fn save_restore_round_trips_blocks_and_watermark() {
        let layout = TreeLayout::new(ZAllocation::uniform(6, 4));
        let mut s = mixed_stash(13, 40, layout.num_leaves());
        for a in 0..30 {
            s.take(BlockAddr(a)); // drop below the watermark
        }
        let mut w = SnapWriter::new();
        s.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = Stash::new(1024);
        let mut r = SnapReader::new(&bytes);
        fresh.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh.len(), s.len());
        assert_eq!(fresh.max_occupancy(), 40);
        // Identical future planning behaviour.
        let a = s.plan_writeback(&layout, Leaf(3), 0, |_, _| true);
        let b = fresh.plan_writeback(&layout, Leaf(3), 0, |_, _| true);
        assert_eq!(a, b);
    }

    #[test]
    fn restore_rejects_unsorted_blocks() {
        let mut w = SnapWriter::new();
        w.put_usize(2);
        blk(5, 0).save_state(&mut w);
        blk(3, 0).save_state(&mut w);
        w.put_usize(2);
        let bytes = w.into_bytes();
        let mut s = Stash::new(8);
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            s.restore_state(&mut r),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn writeback_into_matches_allocating_variant() {
        let layout = TreeLayout::new(ZAllocation::uniform(6, 4));
        let leaves = layout.num_leaves();
        let mut plan = WritebackPlan::new();
        for seed in 1..6u64 {
            let mut a = mixed_stash(seed, 120, leaves);
            let mut b = a.clone();
            let expect = a.plan_writeback(&layout, Leaf(seed % leaves), 1, |_, _| true);
            b.plan_writeback_into(&layout, Leaf(seed % leaves), 1, |_, _| true, &mut plan);
            assert_eq!(plan.len(), expect.len());
            for (i, lvl) in expect.iter().enumerate() {
                assert_eq!(plan.level_mut(i), lvl, "seed {seed} level {i}");
            }
            assert_eq!(
                plan.total_planned(),
                expect.iter().map(Vec::len).sum::<usize>()
            );
            assert_eq!(a.len(), b.len(), "both variants drain identically");
        }
    }

    #[test]
    fn writeback_reused_plan_is_deterministic() {
        // The same stash contents must plan identically regardless of the
        // HashMap's internal order or leftover scratch from earlier calls.
        let layout = TreeLayout::new(ZAllocation::uniform(6, 2));
        let leaves = layout.num_leaves();
        let mut plan = WritebackPlan::new();
        // Dirty the scratch with an unrelated big plan first.
        let mut warmup = mixed_stash(99, 300, leaves);
        warmup.plan_writeback_into(&layout, Leaf(0), 0, |_, _| true, &mut plan);

        let run = |plan: &mut WritebackPlan| {
            let mut s = Stash::new(1024);
            // Insertion order differs from address order on purpose.
            for &(a, l) in &[(9u64, 3u64), (2, 3), (7, 3), (1, 5), (4, 5), (3, 0)] {
                s.insert(blk(a, l));
            }
            s.plan_writeback_into(&layout, Leaf(3), 0, |_, _| true, plan);
            (0..plan.len())
                .map(|i| plan.level_mut(i).clone())
                .collect::<Vec<_>>()
        };
        let first = run(&mut plan);
        let mut fresh = WritebackPlan::new();
        let second = run(&mut fresh);
        assert_eq!(first, second);
        // Within-depth ties must come out in ascending address order.
        for lvl in &first {
            for pair in lvl.windows(2) {
                let d0 = layout.common_depth(pair[0].leaf, Leaf(3));
                let d1 = layout.common_depth(pair[1].leaf, Leaf(3));
                if d0 == d1 {
                    assert!(pair[0].addr.0 < pair[1].addr.0);
                }
            }
        }
    }
}
