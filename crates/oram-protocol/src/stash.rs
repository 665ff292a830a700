//! The fully-associative stash (the paper's F-Stash).

use iroram_sim_engine::{SnapError, SnapReader, SnapWriter};

use crate::layout::{key_index, placement_key};
use crate::{BlockAddr, Leaf, StoredBlock, TreeLayout};

/// The small fully-associative on-chip buffer holding in-flight blocks.
///
/// Path ORAM temporarily parks blocks here between the read and write
/// phases, and blocks that cannot be pushed into the tree accumulate here
/// until background eviction drains them (Ren et al. \[25\]). Capacity is a
/// *soft* threshold: occupancy may exceed it transiently (the protocol then
/// schedules background-eviction paths), mirroring how the paper converts
/// stash overflow from a correctness failure into a performance cost.
///
/// A path's blocks are in the stash only logically between the read and
/// the write: they stay in the caller's read buffer ([`Stash::hold_path`]),
/// the write-back plan takes its candidates from both
/// ([`Stash::plan_writeback`]), and only the path blocks it leaves over
/// become residents.
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
    /// plus a memmove within L1 still beats a hash map for lookups and
    /// inserts, and the write-back sweep keeps the order without sorting.
    blocks: Vec<StoredBlock>,
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    capacity: usize,
    max_occupancy: usize,
    // Write-back planning scratch, kept across calls so the per-path hot
    // loop allocates nothing. Not logical state: always left consistent but
    // meaningless between calls.
    // lint: allow(snapshot-drift, per-call scratch, cleared before each use)
    keys: Vec<u64>,
    // lint: allow(snapshot-drift, per-call scratch, cleared before each use)
    placed: Vec<bool>,
    // lint: allow(snapshot-drift, per-call scratch, cleared before each use)
    skipped: Vec<u64>,
    // lint: allow(snapshot-drift, per-call scratch, cleared before each use)
    leftover: Vec<StoredBlock>,
}

/// A reusable write-back plan: the per-level block lists
/// [`Stash::plan_writeback`] fills (index 0 = the plan's `top_level`).
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
}

impl Stash {
    /// Creates an empty stash with soft capacity `capacity` (the paper uses
    /// 200 entries, Table I).
    pub fn new(capacity: usize) -> Self {
        Stash {
            blocks: Vec::new(),
            capacity,
            max_occupancy: 0,
            keys: Vec::new(),
            placed: Vec::new(),
            skipped: Vec::new(),
            leftover: Vec::new(),
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

    /// Restores the state captured by [`Stash::save_state`] for a stash
    /// of the tree `layout` describes.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] if the serialized blocks are not in ascending
    /// address order (the vector's invariant), if a block's leaf lies
    /// outside `layout` or its address is too wide for a placement key
    /// (`u32::MAX` or more), or if the high-water mark is below the
    /// occupancy; any [`SnapError`] on truncation.
    pub fn restore_state(
        &mut self,
        r: &mut SnapReader<'_>,
        layout: &TreeLayout,
    ) -> Result<(), SnapError> {
        let n = r.take_seq_len(StoredBlock::SNAP_BYTES)?;
        self.blocks.clear();
        for _ in 0..n {
            let b = StoredBlock::restore_within(r, layout)?;
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
        if self.max_occupancy < self.blocks.len() {
            return Err(SnapError::Corrupt("stash watermark below its occupancy"));
        }
        Ok(())
    }

    /// The read phase of a path access hands the stash the path's blocks,
    /// which stay in the caller's buffer until [`Stash::plan_writeback`]
    /// places them or keeps the leftovers. Logically they are resident
    /// from now on, so the occupancy watermark counts them here. A block
    /// is in the tree or in the stash, never both.
    pub fn hold_path(&mut self, path: &[StoredBlock]) {
        debug_assert!(
            path.iter().all(|b| !self.contains(b.addr)),
            "a path block is also resident in the stash"
        );
        self.raise_watermark(self.blocks.len() + path.len());
    }

    /// Plans the write-back of the path to `leaf`: selects, for each level
    /// in `[top_level, L)`, up to `Z_level` blocks that may legally live in
    /// that level's bucket on this path, from the resident blocks and the
    /// held `path` blocks (see [`Stash::hold_path`]) together. Placed
    /// residents leave the stash and the unplaced path blocks join it, so
    /// afterwards each block of both sets is in `plan` or in the stash.
    ///
    /// Blocks are pushed as deep as possible (the Path ORAM eviction rule);
    /// the greedy deepest-first order is optimal for maximizing placed
    /// blocks. Candidates are taken in (common depth desc, address asc)
    /// order: one sort of packed `u64` keys. `may_place` can veto a block
    /// at a level (IR-Stash when an S-Stash set is full: the block is
    /// "skipped this round", paper Section IV-C); a vetoed block stays a
    /// candidate for shallower levels.
    pub fn plan_writeback(
        &mut self,
        layout: &TreeLayout,
        leaf: Leaf,
        top_level: usize,
        path: &[StoredBlock],
        may_place: impl FnMut(usize, &StoredBlock) -> bool,
        plan: &mut WritebackPlan,
    ) {
        plan.reset(layout.levels() - top_level);
        let residents = self.blocks.len();
        self.keys.clear();
        self.keys.extend(
            self.blocks
                .iter()
                .chain(path)
                .enumerate()
                .map(|(i, b)| placement_key(b.leaf.0, leaf, b.addr.0, i)),
        );
        self.keys.sort_unstable();
        greedy_fill(
            layout,
            top_level,
            &self.keys,
            (&self.blocks, path),
            may_place,
            plan,
            &mut self.placed,
            &mut self.skipped,
        );
        // Sweep the placed residents out, keeping address order, then
        // merge the path's leftovers in.
        let (resident_placed, path_placed) = self.placed.split_at(residents);
        let mut flags = resident_placed.iter();
        self.blocks.retain(|_| flags.next() == Some(&false));
        self.leftover.clear();
        self.leftover.extend(
            path.iter()
                .zip(path_placed)
                .filter(|&(_, &placed)| !placed)
                .map(|(b, _)| *b),
        );
        self.merge_leftover();
    }

    /// Merges the `leftover` path blocks into the address-sorted residents
    /// (disjoint from them, see [`Stash::hold_path`]): one O(n + k)
    /// backward merge.
    fn merge_leftover(&mut self) {
        let Some(&filler) = self.leftover.first() else {
            return;
        };
        self.leftover.sort_unstable_by_key(|b| b.addr.0);
        let (n, k) = (self.blocks.len(), self.leftover.len());
        self.blocks.resize(n + k, filler);
        let (mut i, mut j) = (n, k);
        while j > 0 {
            // lint: allow(panic, 1 <= j <= k)
            let next = self.leftover[j - 1];
            // lint: allow(panic, 1 <= i <= n inside the guard)
            if i > 0 && self.blocks[i - 1].addr.0 > next.addr.0 {
                // lint: allow(panic, 1 <= i and i + j - 1 < n + k)
                self.blocks[i + j - 1] = self.blocks[i - 1];
                i -= 1;
            } else {
                // lint: allow(panic, i + j - 1 < n + k)
                self.blocks[i + j - 1] = next;
                j -= 1;
            }
        }
        self.max_occupancy = self.max_occupancy.max(self.blocks.len());
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

/// Candidate `idx` of a write-back plan over `(residents, path)`: the
/// residents first, then the path blocks.
#[inline]
fn candidate<'a>(
    (residents, path): (&'a [StoredBlock], &'a [StoredBlock]),
    idx: usize,
) -> &'a StoredBlock {
    match residents.get(idx) {
        Some(b) => b,
        // lint: allow(panic, a candidate index below residents + path.len() by construction)
        None => &path[idx - residents.len()],
    }
}

/// The Path ORAM placement rule of [`Stash::plan_writeback`]: fill levels
/// `[top_level, L)` of `plan` deepest first, each up to its `Z`, from the
/// sorted placement `keys` of `cands`, and reset `placed` to flag, per
/// candidate, whether it was placed. Blocks are pushed as deep as
/// possible; the greedy deepest-first order is optimal for maximizing
/// placed blocks.
///
/// `may_place` can veto a block at a level (IR-Stash when an S-Stash set
/// is full: the block is "skipped this round", paper Section IV-C). A
/// vetoed block stays a candidate for shallower levels.
#[allow(clippy::too_many_arguments)]
fn greedy_fill(
    layout: &TreeLayout,
    top_level: usize,
    keys: &[u64],
    cands: (&[StoredBlock], &[StoredBlock]),
    mut may_place: impl FnMut(usize, &StoredBlock) -> bool,
    plan: &mut WritebackPlan,
    placed: &mut Vec<bool>,
    skipped: &mut Vec<u64>,
) {
    let n = keys.len();
    placed.clear();
    placed.resize(n, false);
    skipped.clear();
    // A key the cursor passes without placing was rejected by
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
        let fits_below = layout.placement_bound(level);
        let slot = &mut plan.levels[level - top_level];
        // Blocks with common depth ≥ level can live at `level` (or
        // deeper, but deeper levels were already filled).
        while slot.len() < cap {
            let Some(&key) = keys.get(cursor).filter(|&&key| key < fits_below) else {
                break;
            };
            cursor += 1;
            let idx = key_index(key);
            let b = candidate(cands, idx);
            if !may_place(level, b) {
                // Skipped this round (e.g. S-Stash set full); still a
                // candidate for shallower levels.
                skipped.push(key);
                continue;
            }
            slot.push(*b);
            // lint: allow(panic, placed has one flag per candidate)
            placed[idx] = true;
            unplaced -= 1;
        }
        // Give passed-over candidates another chance at this level: they
        // were rejected by may_place at deeper levels (or at this one, if
        // a deeper set freed up mid-fill) and remain eligible.
        for &key in skipped.iter() {
            if slot.len() >= cap {
                break;
            }
            let idx = key_index(key);
            // lint: allow(panic, placed has one flag per candidate)
            if key >= fits_below || placed[idx] {
                continue;
            }
            let b = candidate(cands, idx);
            if !may_place(level, b) {
                continue;
            }
            slot.push(*b);
            // lint: allow(panic, placed has one flag per candidate)
            placed[idx] = true;
            unplaced -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AllocPreset, ZAllocation};
    use iroram_sim_engine::SimRng;
    use proptest::prelude::*;

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

    /// The plan's levels as plain vectors.
    fn levels_of(plan: &mut WritebackPlan) -> Vec<Vec<StoredBlock>> {
        (0..plan.len()).map(|i| plan.level_mut(i).clone()).collect()
    }

    /// A path access's stash side: hold `path`, then plan the write-back
    /// to `leaf` over the residents and `path`.
    fn plan_path(
        s: &mut Stash,
        layout: &TreeLayout,
        leaf: u64,
        top_level: usize,
        path: &[StoredBlock],
        may_place: impl FnMut(usize, &StoredBlock) -> bool,
    ) -> Vec<Vec<StoredBlock>> {
        let mut plan = WritebackPlan::new();
        s.hold_path(path);
        s.plan_writeback(layout, Leaf(leaf), top_level, path, may_place, &mut plan);
        levels_of(&mut plan)
    }

    /// [`plan_path`] with every block resident beforehand: no path blocks.
    fn plan(
        s: &mut Stash,
        layout: &TreeLayout,
        leaf: u64,
        top_level: usize,
        may_place: impl FnMut(usize, &StoredBlock) -> bool,
    ) -> Vec<Vec<StoredBlock>> {
        plan_path(s, layout, leaf, top_level, &[], may_place)
    }

    /// The merge-then-plan route [`Stash::plan_writeback`] replaced: the
    /// path is merged into the stash first (raising the watermark), then
    /// every resident is counting-sorted by common depth with the path,
    /// deepest first (stable, so each depth keeps the stash's address
    /// order), placed by `greedy_fill`, and the placed ones swept out.
    fn reference_plan(
        s: &mut Stash,
        layout: &TreeLayout,
        leaf: Leaf,
        top_level: usize,
        path: &[StoredBlock],
        may_place: impl FnMut(usize, &StoredBlock) -> bool,
        plan: &mut WritebackPlan,
    ) {
        s.blocks.extend_from_slice(path);
        s.blocks.sort_unstable_by_key(|b| b.addr.0);
        s.max_occupancy = s.max_occupancy.max(s.blocks.len());
        let levels = layout.levels();
        let depths: Vec<usize> = s
            .blocks
            .iter()
            .map(|b| layout.common_depth(b.leaf, leaf))
            .collect();
        let mut offsets = vec![0usize; levels];
        for &d in &depths {
            offsets[d] += 1;
        }
        let mut acc = 0;
        for d in (0..levels).rev() {
            let count = offsets[d];
            offsets[d] = acc;
            acc += count;
        }
        let mut keys = vec![0u64; depths.len()];
        for (i, &d) in depths.iter().enumerate() {
            let b = &s.blocks[i];
            keys[offsets[d]] = placement_key(b.leaf.0, leaf, b.addr.0, i);
            offsets[d] += 1;
        }
        plan.reset(levels - top_level);
        let (mut placed, mut skipped) = (Vec::new(), Vec::new());
        greedy_fill(
            layout,
            top_level,
            &keys,
            (&s.blocks, &[]),
            may_place,
            plan,
            &mut placed,
            &mut skipped,
        );
        let mut flags = placed.iter();
        s.blocks.retain(|_| flags.next() == Some(&false));
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
        let plan = plan(&mut s, &layout, 5, 0, |_, _| true);
        assert_eq!(plan.len(), 4);
        assert_eq!(plan[3], vec![blk(1, 5)], "own-leaf block at leaf level");
        assert_eq!(plan[0], vec![blk(2, 1)], "distant block at root");
        assert!(s.is_empty());
    }

    #[test]
    fn writeback_respects_capacity() {
        let mut s = Stash::new(10);
        // Five blocks all mapped to leaf 5; Z=1 per level: they can occupy
        // levels 3, 2, 1, 0 (all on the same path).
        for a in 1..=5 {
            s.insert(blk(a, 5));
        }
        let layout = layout4();
        let plan = plan(&mut s, &layout, 5, 0, |_, _| true);
        let placed: usize = plan.iter().map(Vec::len).sum();
        assert_eq!(placed, 4, "one block per level fits");
        assert_eq!(s.len(), 1, "one block left in stash");
    }

    #[test]
    fn writeback_excludes_via_predicate() {
        let mut s = Stash::new(10);
        s.insert(blk(1, 5));
        let layout = layout4();
        let plan = plan(&mut s, &layout, 5, 0, |_, b| b.addr != BlockAddr(1));
        assert!(plan.iter().all(Vec::is_empty));
        assert!(s.contains(BlockAddr(1)));
    }

    #[test]
    fn writeback_honours_top_level_offset() {
        let mut s = Stash::new(10);
        s.insert(blk(1, 5)); // could go to leaf level
        s.insert(blk(2, 1)); // only the root — below top_level=1, unplaceable
        let layout = layout4();
        let plan = plan(&mut s, &layout, 5, 1, |_, _| true);
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
        let plan = plan(&mut s, &layout, 5, 0, |level, _| level != 3);
        assert!(plan[3].is_empty());
        let placed: usize = plan.iter().map(Vec::len).sum();
        assert_eq!(placed, 1, "placed at a shallower level instead");
        assert!(s.is_empty());
    }

    #[test]
    fn writeback_empty_stash() {
        let mut s = Stash::new(10);
        let layout = layout4();
        let plan = plan(&mut s, &layout, 0, 0, |_, _| true);
        assert!(plan.iter().all(Vec::is_empty));
    }

    #[test]
    fn path_blocks_are_placed_or_left_over_in_address_order() {
        // Z=1 on leaf 5's path: of the two path blocks at its leaf, the
        // lower address takes the leaf bucket and the other the next one
        // up; the root-only resident takes the root, the leaf-1 path
        // block has no bucket left and joins the stash between residents.
        let mut s = Stash::new(10);
        s.insert(blk(2, 1));
        s.insert(blk(9, 1));
        s.insert(blk(4, 0));
        let path = [blk(7, 5), blk(3, 5), blk(5, 1)];
        let layout = layout4();
        let plan = plan_path(&mut s, &layout, 5, 0, &path, |_, _| true);
        assert_eq!(plan[3], vec![blk(3, 5)]);
        assert_eq!(plan[2], vec![blk(7, 5)]);
        assert_eq!(plan[0], vec![blk(2, 1)], "lowest root-only address");
        let left: Vec<u64> = s.iter().map(|b| b.addr.0).collect();
        assert_eq!(left, [4, 5, 9], "resident, leftover, resident");
        assert_eq!(s.max_occupancy(), 6, "residents plus the held path");
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

    fn restore(bytes: &[u8], layout: &TreeLayout) -> Result<Stash, SnapError> {
        let mut s = Stash::new(1024);
        let mut r = SnapReader::new(bytes);
        s.restore_state(&mut r, layout)?;
        r.finish()?;
        Ok(s)
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
        let mut fresh = restore(&w.into_bytes(), &layout).unwrap();
        assert_eq!(fresh.len(), s.len());
        assert_eq!(fresh.max_occupancy(), 40);
        // Identical future planning behaviour.
        let a = plan(&mut s, &layout, 3, 0, |_, _| true);
        let b = plan(&mut fresh, &layout, 3, 0, |_, _| true);
        assert_eq!(a, b);
    }

    /// The bytes of a stash holding `blocks` (in the given order) under
    /// high-water mark `watermark`.
    fn stash_bytes(blocks: &[StoredBlock], watermark: usize) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_usize(blocks.len());
        for b in blocks {
            b.save_state(&mut w);
        }
        w.put_usize(watermark);
        w.into_bytes()
    }

    #[test]
    fn restore_rejects_unsorted_blocks() {
        let bytes = stash_bytes(&[blk(5, 0), blk(3, 0)], 2);
        assert!(matches!(
            restore(&bytes, &layout4()),
            Err(SnapError::Corrupt(_))
        ));
    }

    /// A block past the last leaf, an address too wide for a placement
    /// key, and a watermark below the occupancy each fail to restore;
    /// their boundary neighbours restore.
    #[test]
    fn restore_rejects_blocks_the_planner_cannot_key() {
        let layout = layout4();
        let last_leaf = layout.num_leaves() - 1;
        let widest = u64::from(u32::MAX) - 1;
        for (blocks, watermark, ok) in [
            (vec![blk(1, last_leaf)], 1, true),
            (vec![blk(1, last_leaf + 1)], 1, false),
            (vec![blk(widest, 0)], 1, true),
            (vec![blk(widest + 1, 0)], 1, false),
            (vec![blk(1, 0), blk(2, 0)], 2, true),
            (vec![blk(1, 0), blk(2, 0)], 1, false),
        ] {
            let got = restore(&stash_bytes(&blocks, watermark), &layout);
            match ok {
                true => assert!(got.is_ok(), "{blocks:?} {watermark}"),
                false => assert!(
                    matches!(got, Err(SnapError::Corrupt(_))),
                    "{blocks:?} {watermark}"
                ),
            }
        }
    }

    #[test]
    fn writeback_reused_plan_is_deterministic() {
        // The same stash contents must plan identically regardless of
        // insertion order or leftover scratch from earlier calls.
        let layout = TreeLayout::new(ZAllocation::uniform(6, 2));
        let leaves = layout.num_leaves();
        let mut plan = WritebackPlan::new();
        // Dirty the scratch with an unrelated big plan first.
        let mut warmup = mixed_stash(99, 300, leaves);
        warmup.plan_writeback(&layout, Leaf(0), 0, &[], |_, _| true, &mut plan);

        let run = |plan: &mut WritebackPlan| {
            let mut s = Stash::new(1024);
            // Insertion order differs from address order on purpose.
            for &(a, l) in &[(9u64, 3u64), (2, 3), (7, 3), (1, 5), (4, 5), (3, 0)] {
                s.insert(blk(a, l));
            }
            s.plan_writeback(&layout, Leaf(3), 0, &[], |_, _| true, plan);
            levels_of(plan)
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

    /// A planning case: a stash of `residents` random blocks and, on the
    /// path to `leaf`, up to each level's `Z` path blocks that belong to
    /// that level's bucket; addresses all distinct.
    fn planning_case(
        layout: &TreeLayout,
        residents: usize,
        seed: u64,
    ) -> (Stash, Leaf, Vec<StoredBlock>) {
        let mut rng = SimRng::seed_from(seed);
        let levels = layout.levels();
        let leaves = layout.num_leaves();
        let path_slots = layout.path_len_memory(0) as usize;
        let mut addrs: Vec<u64> = (0..3 * (residents + path_slots) as u64).collect();
        rng.shuffle(&mut addrs);
        let mut addrs = addrs.into_iter();
        let mut stash = Stash::new(200);
        for _ in 0..residents {
            let addr = addrs.next().expect("enough addresses");
            stash.insert(blk(addr, rng.next_below(leaves)));
        }
        let leaf = Leaf(rng.next_below(leaves));
        let mut path = Vec::new();
        for level in 0..levels {
            let below = levels - 1 - level;
            for _ in 0..rng.next_below(u64::from(layout.z_of(level)) + 1) {
                let addr = addrs.next().expect("enough addresses");
                let low = rng.next_below(1 << below);
                path.push(blk(addr, (leaf.0 >> below << below) | low));
            }
        }
        (stash, leaf, path)
    }

    /// A `may_place` for veto pattern `veto`, logging every call: 0 never
    /// vetoes; 1 vetoes a third of the addresses above level `cached` (an
    /// S-Stash with full sets); 2 lets each level above `cached` take two
    /// blocks (a stateful veto); 3 vetoes odd addresses at the two deepest
    /// levels.
    fn veto_pattern(
        veto: u8,
        levels: usize,
        cached: usize,
        log: &mut Vec<(usize, u64, bool)>,
    ) -> impl FnMut(usize, &StoredBlock) -> bool + '_ {
        let mut taken = vec![0usize; levels];
        move |level, b| {
            let ok = match veto {
                0 => true,
                1 => level >= cached || b.addr.0 % 3 != 0,
                2 => level >= cached || taken[level] < 2,
                _ => level + 2 < levels || b.addr.0 % 2 == 0,
            };
            taken[level] += usize::from(ok);
            log.push((level, b.addr.0, ok));
            ok
        }
    }

    /// Routes the planning cases took: a path block left in the stash, a
    /// resident placed in the tree, a vetoed block placed shallower.
    #[derive(Debug, Default, Clone, Copy)]
    struct PlanRoutes {
        leftover_path_block: usize,
        placed_resident: usize,
        vetoed_then_placed: usize,
    }

    thread_local! {
        static PLAN_ROUTES: std::cell::Cell<PlanRoutes> =
            std::cell::Cell::new(PlanRoutes::default());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The planner over residents and the held path plans exactly what
        /// merging the path into the stash and planning the stash did: the
        /// same levels in the same order, the same `may_place` calls, the
        /// same stash contents and order, the same watermark.
        fn planning_from_the_path_matches_the_merge_then_plan_reference(
            levels in 3usize..18,
            shape in 0u8..4,
            residents in 0usize..301,
            veto in 0u8..4,
            top_level in 0usize..2,
            seed in any::<u64>(),
        ) {
            let cached = (levels / 3).max(1);
            let layout = TreeLayout::new(match shape {
                0 => ZAllocation::uniform(levels, 4),
                1 => ZAllocation::uniform(levels, 2),
                2 => ZAllocation::preset(AllocPreset::IrAlloc1, levels, cached),
                _ => ZAllocation::preset(AllocPreset::IrAlloc4, levels, cached),
            });
            let (mut stash, leaf, path) = planning_case(&layout, residents, seed);
            let mut reference = stash.clone();

            let (mut got_log, mut want_log) = (Vec::new(), Vec::new());
            let mut plan = WritebackPlan::new();
            stash.hold_path(&path);
            stash.plan_writeback(
                &layout,
                leaf,
                top_level,
                &path,
                veto_pattern(veto, levels, cached, &mut got_log),
                &mut plan,
            );
            let mut want = WritebackPlan::new();
            reference_plan(
                &mut reference,
                &layout,
                leaf,
                top_level,
                &path,
                veto_pattern(veto, levels, cached, &mut want_log),
                &mut want,
            );
            let got = levels_of(&mut plan);
            prop_assert_eq!(&got, &levels_of(&mut want));
            prop_assert_eq!(&got_log, &want_log);
            prop_assert_eq!(&stash.blocks, &reference.blocks);
            prop_assert_eq!(stash.max_occupancy(), reference.max_occupancy());

            let mut seen = PLAN_ROUTES.get();
            seen.leftover_path_block +=
                usize::from(path.iter().any(|b| stash.contains(b.addr)));
            let planned = |addr: BlockAddr| {
                got.iter().position(|lvl| lvl.iter().any(|b| b.addr == addr))
            };
            seen.placed_resident += usize::from(got.iter().flatten().any(|b| !path.contains(b)));
            seen.vetoed_then_placed += usize::from(got_log.iter().any(|&(level, addr, ok)| {
                !ok && planned(BlockAddr(addr)).is_some_and(|i| i + top_level < level)
            }));
            PLAN_ROUTES.set(seen);
        }
    }

    /// The property above, plus route coverage: across its cases a path
    /// block was left over, a resident was placed and a vetoed block was
    /// placed at a shallower level.
    #[test]
    fn writeback_matches_the_merge_then_plan_reference() {
        PLAN_ROUTES.set(PlanRoutes::default());
        planning_from_the_path_matches_the_merge_then_plan_reference();
        let seen = PLAN_ROUTES.get();
        assert!(
            seen.leftover_path_block > 0 && seen.placed_resident > 0 && seen.vetoed_then_placed > 0,
            "{seen:?}"
        );
    }
}
