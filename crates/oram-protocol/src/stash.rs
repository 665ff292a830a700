//! The fully-associative stash (the paper's F-Stash).

use iroram_hash::FeistelCipher;
use iroram_sim_engine::{SnapError, SnapReader, SnapWriter};

use crate::layout::{key_index, key_spread, placement_key, spread_bound};
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
/// Residents are found by leaf and address: a resident's leaf is its
/// PosMap entry, so the caller always knows it.
///
/// # Examples
///
/// ```
/// use iroram_protocol::{Stash, StoredBlock, BlockAddr, Leaf};
/// let mut s = Stash::new(200);
/// s.insert(StoredBlock { addr: BlockAddr(1), leaf: Leaf(0), payload: 9 });
/// assert!(s.contains(Leaf(0), BlockAddr(1)));
/// assert!(!s.contains(Leaf(1), BlockAddr(1)));
/// assert_eq!(s.take(Leaf(0), BlockAddr(1)).unwrap().payload, 9);
/// ```
#[derive(Debug, Clone)]
pub struct Stash {
    /// Resident blocks, kept sorted by (leaf, address). The residents
    /// that share at least `d` levels with a path then form one
    /// contiguous run, found by binary search, so a write-back plan keys
    /// only the runs its fill reaches. IR-Alloc runs past the 200-block
    /// soft capacity (on mcf at L=17 it peaks at 249, `diag 17 mcf
    /// 40000`), yet even there the vector is about 6 KB: a binary search
    /// plus a memmove within L1 beats a tree for lookups and inserts.
    blocks: Vec<StoredBlock>,
    capacity: usize,
    max_occupancy: usize,
    // Write-back planning scratch, kept across calls so the per-path hot
    // loop allocates nothing. Not logical state: always left consistent but
    // meaningless between calls.
    keys: Vec<u64>,
    path_keys: Vec<u64>,
    placed: Vec<bool>,
    skipped: Vec<u64>,
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

/// Where a write-back's blocks cross the chip boundary: memory levels
/// hold payloads encrypted at rest, the stash and the tree top hold
/// plaintext.
///
/// Path ORAM re-encrypts every block it writes back. The model's cipher
/// is a deterministic permutation, so re-encrypting a block that stays in
/// memory gives back its ciphertext: only a block that changes sides runs
/// through the cipher. A path access therefore keeps the memory blocks it
/// reads sealed, and [`Stash::plan_writeback`] opens a sealed block the
/// plan leaves in the stash or places in a tree-top level, and seals a
/// plaintext block it places in a memory level.
///
/// # Examples
///
/// ```
/// use iroram_hash::FeistelCipher;
/// use iroram_protocol::{BlockAddr, ChipBoundary, Leaf, Stash, StoredBlock, TreeLayout, WritebackPlan, ZAllocation};
/// let cipher = FeistelCipher::new(7);
/// // One slot per level: level 0 is on chip, levels 1 and 2 in memory.
/// let layout = TreeLayout::new(ZAllocation::uniform(3, 1));
/// let block = |addr, payload| StoredBlock { addr: BlockAddr(addr), leaf: Leaf(0), payload };
/// let mut stash = Stash::new(8);
/// stash.insert(block(1, 10));
/// // Both path blocks were read from memory, sealed.
/// let path = [block(2, cipher.encrypt(20)), block(3, cipher.encrypt(30))];
/// stash.hold_path(&path);
/// let mut plan = WritebackPlan::new();
/// let boundary = ChipBoundary::new(Some(&cipher), 1, 0);
/// stash.plan_writeback(&layout, Leaf(0), 0, &path, boundary, |_, _| true, &mut plan);
/// assert_eq!(plan.level_mut(2)[0].payload, cipher.encrypt(10)); // sealed
/// assert_eq!(plan.level_mut(1)[0].payload, cipher.encrypt(20)); // left sealed
/// assert_eq!(plan.level_mut(0)[0].payload, 30); // opened
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ChipBoundary<'a> {
    /// The at-rest cipher; `None` keeps payloads plaintext everywhere.
    cipher: Option<&'a FeistelCipher>,
    /// The first memory level: the levels above it are the tree top.
    memory_level: usize,
    /// The first sealed path block: `path[sealed_from..]` holds
    /// ciphertext, the residents and `path[..sealed_from]` plaintext.
    sealed_from: usize,
}

impl<'a> ChipBoundary<'a> {
    /// No boundary: every payload is plaintext wherever it is stored.
    pub const PLAINTEXT: ChipBoundary<'static> = ChipBoundary {
        cipher: None,
        memory_level: 0,
        sealed_from: usize::MAX,
    };

    /// Payloads are encrypted under `cipher` at levels `>= memory_level`,
    /// and the path blocks from index `sealed_from` on are read sealed;
    /// with no cipher, the same as [`ChipBoundary::PLAINTEXT`].
    pub fn new(cipher: Option<&'a FeistelCipher>, memory_level: usize, sealed_from: usize) -> Self {
        ChipBoundary {
            cipher,
            memory_level,
            sealed_from,
        }
    }

    /// Block `b`, read as block `i` of the path, as it is stored at
    /// `level` (`None`: in the stash).
    #[inline]
    fn carry(&self, i: usize, b: &StoredBlock, level: Option<usize>) -> StoredBlock {
        let mut b = *b;
        if let Some(cipher) = self.cipher {
            let sealed = i >= self.sealed_from;
            match (sealed, level.is_some_and(|l| l >= self.memory_level)) {
                (true, false) => b.payload = cipher.decrypt(b.payload),
                (false, true) => b.payload = cipher.encrypt(b.payload),
                _ => {}
            }
        }
        b
    }

    /// The boundary with `residents` plaintext blocks put in front of
    /// the path.
    fn behind(self, residents: usize) -> Self {
        ChipBoundary {
            sealed_from: self.sealed_from.saturating_add(residents),
            ..self
        }
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
            path_keys: Vec::new(),
            placed: Vec::new(),
            skipped: Vec::new(),
            leftover: Vec::new(),
        }
    }

    /// Position of the block `addr` mapped to `leaf` in the sorted block
    /// vector (`Err` = insertion point).
    #[inline]
    fn pos(&self, leaf: Leaf, addr: BlockAddr) -> Result<usize, usize> {
        self.blocks
            .binary_search_by_key(&(leaf.0, addr.0), stash_order)
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

    /// Inserts a block, replacing a resident with the same leaf and
    /// address. The caller keeps one copy per address: a copy under
    /// another leaf would be a second resident.
    pub fn insert(&mut self, block: StoredBlock) {
        debug_assert!(
            self.blocks
                .iter()
                .all(|b| b.addr != block.addr || b.leaf == block.leaf),
            "a copy of the block is resident under another leaf"
        );
        match self.pos(block.leaf, block.addr) {
            // lint: allow(panic, index returned by binary_search is in range)
            Ok(i) => self.blocks[i] = block,
            Err(i) => self.blocks.insert(i, block),
        }
        self.max_occupancy = self.max_occupancy.max(self.blocks.len());
    }

    /// Whether the block `addr` mapped to `leaf` is resident.
    pub fn contains(&self, leaf: Leaf, addr: BlockAddr) -> bool {
        self.pos(leaf, addr).is_ok()
    }

    /// Immutable view of the resident block `addr` mapped to `leaf`.
    pub fn get(&self, leaf: Leaf, addr: BlockAddr) -> Option<&StoredBlock> {
        self.pos(leaf, addr).ok().and_then(|i| self.blocks.get(i))
    }

    /// The payload of the resident block `addr` mapped to `leaf`, for an
    /// update in place (a remap moves the block: [`Stash::take`] it and
    /// [`Stash::insert`] it again).
    pub fn payload_mut(&mut self, leaf: Leaf, addr: BlockAddr) -> Option<&mut u64> {
        match self.pos(leaf, addr) {
            // lint: allow(panic, index returned by binary_search is in range)
            Ok(i) => Some(&mut self.blocks[i].payload),
            Err(_) => None,
        }
    }

    /// Removes and returns the block `addr` mapped to `leaf`.
    pub fn take(&mut self, leaf: Leaf, addr: BlockAddr) -> Option<StoredBlock> {
        self.pos(leaf, addr).ok().map(|i| self.blocks.remove(i))
    }

    /// Iterates over resident blocks in ascending (leaf, address) order.
    pub fn iter(&self) -> impl Iterator<Item = &StoredBlock> {
        self.blocks.iter()
    }

    /// Serializes the resident blocks, in ascending address order, and the
    /// occupancy high-water mark for a checkpoint (capacity is
    /// configuration; the write-back scratch is meaningless between calls
    /// and not written).
    pub fn save_state(&self, w: &mut SnapWriter) {
        let mut by_addr: Vec<&StoredBlock> = self.blocks.iter().collect();
        by_addr.sort_unstable_by_key(|b| b.addr.0);
        w.put_usize(by_addr.len());
        for b in by_addr {
            b.save_state(w);
        }
        w.put_usize(self.max_occupancy);
    }

    /// Restores the state captured by [`Stash::save_state`] for a stash
    /// of the tree `layout` describes, and rebuilds the (leaf, address)
    /// order.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] if the serialized blocks are not in ascending
    /// address order (so no address is resident twice), if a block's leaf
    /// lies outside `layout` or its address is too wide for a placement
    /// key (`u32::MAX` or more), or if the high-water mark is below the
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
        self.blocks.sort_unstable_by_key(stash_order);
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
            path.iter()
                .all(|p| self.blocks.iter().all(|b| b.addr != p.addr)),
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
    /// order, as packed `u64` keys. Only the common depths the fill
    /// reaches are keyed: the path's blocks are keyed and sorted once, and
    /// each depth's residents, one or two runs of the (leaf, address)
    /// order, join them a depth at a time while a level still has room
    /// (up to `FEW_RESIDENTS` residents are keyed with the path at once).
    /// `may_place` can veto a block at a level (IR-Stash when an S-Stash
    /// set is full: the block is "skipped this round", paper Section
    /// IV-C); a vetoed block stays a candidate for shallower levels. Each
    /// block is planned and kept as its destination stores it: `boundary`
    /// says which path blocks were read sealed and which levels are in
    /// memory.
    #[allow(clippy::too_many_arguments)]
    pub fn plan_writeback(
        &mut self,
        layout: &TreeLayout,
        leaf: Leaf,
        top_level: usize,
        path: &[StoredBlock],
        boundary: ChipBoundary<'_>,
        may_place: impl FnMut(usize, &StoredBlock) -> bool,
        plan: &mut WritebackPlan,
    ) {
        plan.reset(layout.levels() - top_level);
        let residents = self.blocks.len();
        // A few residents are keyed with the path and sorted at once; more
        // wait for the fill to reach their depth.
        let few = residents <= FEW_RESIDENTS;
        self.keys.clear();
        self.path_keys.clear();
        let sorted = if few {
            &mut self.keys
        } else {
            &mut self.path_keys
        };
        // A path is read root first: keyed from its leaf end, its keys
        // come nearly sorted.
        sorted.extend(
            path.iter()
                .enumerate()
                .rev()
                .map(|(i, b)| placement_key(b.leaf.0, leaf, b.addr.0, residents + i)),
        );
        if few {
            sorted.extend(
                self.blocks
                    .iter()
                    .enumerate()
                    .map(|(i, b)| placement_key(b.leaf.0, leaf, b.addr.0, i)),
            );
        }
        sorted.sort_unstable();
        let mut reach = Reach::new(&self.blocks, &self.path_keys, leaf, few);
        greedy_fill(
            layout,
            top_level,
            &mut self.keys,
            |fits_below, keys| reach.more(fits_below, keys),
            (&self.blocks, path),
            boundary.behind(residents),
            may_place,
            plan,
            &mut self.placed,
            &mut self.skipped,
        );
        // Sweep the placed residents, all within the reached run, out,
        // then merge the path's leftovers in, opened.
        let (lo, hi) = (reach.lo, reach.hi);
        let mut kept = lo;
        for i in lo..hi {
            // lint: allow(panic, placed has one flag per candidate and hi <= residents)
            if !self.placed[i] {
                // lint: allow(panic, kept <= i < hi <= residents)
                self.blocks[kept] = self.blocks[i];
                kept += 1;
            }
        }
        self.blocks.drain(kept..hi);
        let path_placed = self.placed.get(residents..).unwrap_or_default();
        self.leftover.clear();
        self.leftover.extend(
            path.iter()
                .enumerate()
                .zip(path_placed)
                .filter(|&(_, &placed)| !placed)
                .map(|((i, b), _)| boundary.carry(i, b, None)),
        );
        self.merge_leftover();
    }

    /// Merges the `leftover` path blocks into the (leaf, address)-sorted
    /// residents (disjoint from them, see [`Stash::hold_path`]): each
    /// leftover finds its place by binary search, and the residents after
    /// it move once, as one block copy per leftover.
    fn merge_leftover(&mut self) {
        let Some(&filler) = self.leftover.first() else {
            return;
        };
        self.leftover.sort_unstable_by_key(stash_order);
        let (n, k) = (self.blocks.len(), self.leftover.len());
        self.blocks.resize(n + k, filler);
        // Residents `[0, end)` have not moved yet.
        let mut end = n;
        for (j, b) in self.leftover.iter().enumerate().rev() {
            // lint: allow(panic, end <= n)
            let at = self.blocks[..end].partition_point(|r| stash_order(r) < stash_order(b));
            self.blocks.copy_within(at..end, at + j + 1);
            // lint: allow(panic, at + j < at + j + 1 + (end - at) <= n + k)
            self.blocks[at + j] = *b;
            end = at;
        }
        self.max_occupancy = self.max_occupancy.max(self.blocks.len());
    }

    /// Raises the occupancy high-water mark to `n`: a path placed by
    /// [`SubtreeRun::insert`](crate::tree::SubtreeRun::insert) never
    /// enters the stash, but its `n` blocks would all have sat here
    /// between the read and write phases of a path access, and the
    /// watermark is part of the logical state.
    pub(crate) fn raise_watermark(&mut self, n: usize) {
        self.max_occupancy = self.max_occupancy.max(n);
    }
}

/// The stash's sort key: leaf, then address.
#[inline]
fn stash_order(b: &StoredBlock) -> (u64, u64) {
    (b.leaf.0, b.addr.0)
}

/// Residents at or below which a write-back plan keys them all at once:
/// so few sort with the path's keys faster than depth by depth. IR-ORAM's
/// plans (about 9 residents) are the ones this serves; a sweep of
/// thresholds levels off from 16 on (EXPERIMENTS.md).
const FEW_RESIDENTS: usize = 16;

/// The candidates a write-back plan keys as its fill reaches them: the
/// path's keys, sorted, from `next_path` on, and the residents outside
/// the run `[lo, hi)` of the (leaf, address) order. The run grows
/// outwards from the path's leaf: it holds every resident whose common
/// depth with the path is the deepest depth keyed or more. Outside it,
/// the resident next to it on each side is that side's deepest, and
/// `resident` is the smaller of their keys.
struct Reach<'a> {
    residents: &'a [StoredBlock],
    path_keys: &'a [u64],
    path_leaf: Leaf,
    next_path: usize,
    lo: usize,
    hi: usize,
    resident: Option<u64>,
}

impl<'a> Reach<'a> {
    /// Every resident keyed already (`all`), or none: an empty run where
    /// the path's leaf starts.
    fn new(residents: &'a [StoredBlock], path_keys: &'a [u64], path_leaf: Leaf, all: bool) -> Self {
        let (lo, hi) = match all {
            true => (0, residents.len()),
            false => {
                let at = residents.partition_point(|b| b.leaf.0 < path_leaf.0);
                (at, at)
            }
        };
        let mut reach = Reach {
            residents,
            path_keys,
            path_leaf,
            next_path: 0,
            lo,
            hi,
            resident: None,
        };
        reach.resident = reach.nearest();
        reach
    }

    /// The leaf of resident `i` (`u64::MAX` past the end).
    #[inline]
    fn leaf_at(&self, i: usize) -> u64 {
        self.residents.get(i).map_or(u64::MAX, |b| b.leaf.0)
    }

    /// The placement key of resident `i`.
    #[inline]
    fn key(&self, i: usize) -> Option<u64> {
        let b = self.residents.get(i)?;
        Some(placement_key(b.leaf.0, self.path_leaf, b.addr.0, i))
    }

    /// The smaller key of the residents next to the run.
    fn nearest(&self) -> Option<u64> {
        let left = self.lo.checked_sub(1).and_then(|i| self.key(i));
        left.into_iter().chain(self.key(self.hi)).min()
    }

    /// Pushes onto `keys` the next keys of the candidates in sorted order,
    /// if the first of them lies below `fits_below`; whether it pushed
    /// any. Path keys go in up to the common depth of the deepest
    /// resident outside the run, as none of them sorts between; that
    /// depth's residents go in with its path keys.
    fn more(&mut self, fits_below: u64, keys: &mut Vec<u64>) -> bool {
        // lint: allow(panic, next_path <= path_keys.len())
        let path = &self.path_keys[self.next_path..];
        let next = self.resident.into_iter().chain(path.first().copied()).min();
        if next.is_none_or(|k| k >= fits_below) {
            return false;
        }
        let Some(resident) = self.resident else {
            keys.extend_from_slice(path);
            self.next_path = self.path_keys.len();
            return true;
        };
        // The resident's common depth is the path's subtree of `spread`
        // leaf bits: keys in `[floor, end)` are at that depth.
        let spread = key_spread(resident);
        let floor = spread.checked_sub(1).map_or(0, spread_bound);
        let end = spread_bound(spread);
        let deeper = path.partition_point(|&k| k < floor);
        if deeper > 0 {
            // lint: allow(panic, deeper <= path.len())
            keys.extend_from_slice(&path[..deeper]);
            self.next_path += deeper;
            return true;
        }
        let start = keys.len();
        let at_depth = path.partition_point(|&k| k < end);
        // lint: allow(panic, at_depth <= path.len())
        keys.extend_from_slice(&path[..at_depth]);
        self.next_path += at_depth;
        // Walk the run outwards over the subtree's leaves: the walk is no
        // longer than the keys it adds.
        let first = self.path_leaf.0 >> spread << spread;
        let last = first + (1 << spread);
        while let Some(i) = self.lo.checked_sub(1).filter(|&i| self.leaf_at(i) >= first) {
            keys.extend(self.key(i));
            self.lo = i;
        }
        while self.leaf_at(self.hi) < last {
            keys.extend(self.key(self.hi));
            self.hi += 1;
        }
        self.resident = self.nearest();
        // lint: allow(panic, start <= keys.len())
        keys[start..].sort_unstable();
        true
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
/// placement `keys` of `cands` in ascending order, and reset `placed` to
/// flag, per candidate, whether it was placed. Blocks are pushed as deep
/// as possible; the greedy deepest-first order is optimal for maximizing
/// placed blocks.
///
/// `keys` grows as the fill goes: once the fill has used every key and a
/// level still has room, `more(bound, keys)` appends the sorted keys of
/// the candidates at the next common depth that has any, if their keys
/// lie below `bound` (the level takes them), and says whether it did.
/// Every key it appends sorts after every key before it, so the fill
/// takes the keys in the order one sort of them all would give. A caller
/// may also pass every key up front, sorted, and a `more` that adds none.
///
/// `may_place` can veto a block at a level (IR-Stash when an S-Stash set
/// is full: the block is "skipped this round", paper Section IV-C). A
/// vetoed block stays a candidate for shallower levels. A block enters
/// its level as that level stores it: `boundary` numbers the candidates
/// as `cands` does.
#[allow(clippy::too_many_arguments)]
fn greedy_fill(
    layout: &TreeLayout,
    top_level: usize,
    keys: &mut Vec<u64>,
    mut more: impl FnMut(u64, &mut Vec<u64>) -> bool,
    cands: (&[StoredBlock], &[StoredBlock]),
    boundary: ChipBoundary<'_>,
    mut may_place: impl FnMut(usize, &StoredBlock) -> bool,
    plan: &mut WritebackPlan,
    placed: &mut Vec<bool>,
    skipped: &mut Vec<u64>,
) {
    let n = cands.0.len() + cands.1.len();
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
        loop {
            let sorted: &[u64] = keys;
            while slot.len() < cap {
                let Some(&key) = sorted.get(cursor).filter(|&&key| key < fits_below) else {
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
                slot.push(boundary.carry(idx, b, Some(level)));
                // lint: allow(panic, placed has one flag per candidate)
                placed[idx] = true;
                unplaced -= 1;
            }
            // Only keys running out with room left calls for more.
            if slot.len() == cap || cursor < keys.len() || !more(fits_below, keys) {
                break;
            }
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
            slot.push(boundary.carry(idx, b, Some(level)));
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
        s.plan_writeback(
            layout,
            Leaf(leaf),
            top_level,
            path,
            ChipBoundary::PLAINTEXT,
            may_place,
            &mut plan,
        );
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
    /// path is merged into the residents in address order, then every
    /// block is counting-sorted by common depth with the path, deepest
    /// first (stable, so each depth keeps the address order), placed by
    /// `greedy_fill` from every key at once, and the placed ones swept
    /// out. Returns the blocks left, in address order.
    fn reference_plan(
        residents: &[StoredBlock],
        layout: &TreeLayout,
        leaf: Leaf,
        top_level: usize,
        path: &[StoredBlock],
        may_place: impl FnMut(usize, &StoredBlock) -> bool,
        plan: &mut WritebackPlan,
    ) -> Vec<StoredBlock> {
        let mut blocks = residents.to_vec();
        blocks.extend_from_slice(path);
        blocks.sort_unstable_by_key(|b| b.addr.0);
        let levels = layout.levels();
        let depths: Vec<usize> = blocks
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
            let b = &blocks[i];
            keys[offsets[d]] = placement_key(b.leaf.0, leaf, b.addr.0, i);
            offsets[d] += 1;
        }
        plan.reset(levels - top_level);
        let (mut placed, mut skipped) = (Vec::new(), Vec::new());
        greedy_fill(
            layout,
            top_level,
            &mut keys,
            |_, _| false,
            (&blocks, &[]),
            ChipBoundary::PLAINTEXT,
            may_place,
            plan,
            &mut placed,
            &mut skipped,
        );
        let mut flags = placed.iter();
        blocks.retain(|_| flags.next() == Some(&false));
        blocks
    }

    #[test]
    fn insert_get_take() {
        let mut s = Stash::new(10);
        s.insert(blk(1, 3));
        assert_eq!(s.len(), 1);
        assert!(s.contains(Leaf(3), BlockAddr(1)));
        assert!(
            !s.contains(Leaf(2), BlockAddr(1)),
            "found by leaf and address"
        );
        assert_eq!(s.get(Leaf(3), BlockAddr(1)).unwrap().payload, 100);
        *s.payload_mut(Leaf(3), BlockAddr(1)).unwrap() = 7;
        assert_eq!(s.take(Leaf(3), BlockAddr(1)).unwrap().payload, 7);
        assert!(s.is_empty());
    }

    #[test]
    fn insert_replaces_same_address() {
        let mut s = Stash::new(10);
        s.insert(blk(1, 3));
        s.insert(StoredBlock {
            payload: 5,
            ..blk(1, 3)
        });
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(Leaf(3), BlockAddr(1)).unwrap().payload, 5);
    }

    /// A resident is found only under its own leaf, so a second copy of
    /// an address under another leaf would never be replaced or found:
    /// debug builds refuse one on insert and on hold.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a copy of the block is resident under another leaf")]
    fn a_second_copy_under_another_leaf_panics_in_debug_on_insert() {
        let mut s = Stash::new(10);
        s.insert(blk(1, 3));
        s.insert(blk(1, 4));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a path block is also resident in the stash")]
    fn a_second_copy_under_another_leaf_panics_in_debug_on_hold() {
        let mut s = Stash::new(10);
        s.insert(blk(1, 3));
        s.hold_path(&[blk(1, 4)]);
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
        s.take(Leaf(0), BlockAddr(1));
        s.take(Leaf(0), BlockAddr(2));
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
        assert!(s.contains(Leaf(5), BlockAddr(1)));
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
        assert!(
            s.contains(Leaf(1), BlockAddr(2)),
            "root-only block stays in stash"
        );
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
        s.blocks.retain(|b| b.addr.0 >= 30); // drop below the watermark
        let mut w = SnapWriter::new();
        s.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut by_addr = s.blocks.clone();
        by_addr.sort_unstable_by_key(|b| b.addr.0);
        assert_eq!(bytes, stash_bytes(&by_addr, 40), "saved in address order");
        let mut fresh = restore(&bytes, &layout).unwrap();
        assert_eq!(fresh.blocks, s.blocks, "restored in (leaf, address) order");
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

    /// The bytes of `s`'s snapshot.
    fn saved(s: &Stash) -> Vec<u8> {
        let mut w = SnapWriter::new();
        s.save_state(&mut w);
        w.into_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A damaged stash snapshot never panics the decoder: truncated,
        /// spliced from the front of one snapshot and the back of
        /// another, or with a byte flipped, it restores to a typed
        /// [`SnapError`] or to a stash that keeps every invariant the
        /// planner relies on, saves back to the same bytes, and plans.
        #[test]
        fn damaged_snapshots_restore_to_an_error_or_a_valid_stash(
            residents in 0u64..40,
            others in 0u64..40,
            damage in 0u8..3,
            at in any::<usize>(),
            from in any::<usize>(),
            mask in 1u8..255,
            seed in any::<u64>(),
        ) {
            let layout = TreeLayout::new(ZAllocation::uniform(6, 4));
            let leaves = layout.num_leaves();
            let bytes = saved(&mixed_stash(seed, residents, leaves));
            let other = saved(&mixed_stash(seed ^ 1, others, leaves));
            let damaged = match damage {
                0 => bytes[..at % (bytes.len() + 1)].to_vec(),
                1 => [&bytes[..at % (bytes.len() + 1)], &other[from % (other.len() + 1)..]].concat(),
                _ => {
                    let mut flipped = bytes.clone();
                    flipped[at % bytes.len()] ^= mask;
                    flipped
                }
            };
            if let Ok(mut s) = restore(&damaged, &layout) {
                prop_assert!(
                    s.blocks.windows(2).all(|w| stash_order(&w[0]) < stash_order(&w[1])),
                    "restored out of (leaf, address) order"
                );
                let mut addrs: Vec<u64> = s.iter().map(|b| b.addr.0).collect();
                addrs.sort_unstable();
                prop_assert!(addrs.windows(2).all(|w| w[0] < w[1]), "an address twice");
                prop_assert!(s.iter().all(|b| b.leaf.0 < leaves && b.addr.0 < u64::from(u32::MAX)));
                prop_assert!(s.max_occupancy() >= s.len());
                prop_assert_eq!(saved(&s), damaged);
                let before = s.len();
                let planned = plan(&mut s, &layout, at as u64 % leaves, 0, |_, _| true);
                prop_assert_eq!(planned.iter().map(Vec::len).sum::<usize>() + s.len(), before);
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
        warmup.plan_writeback(
            &layout,
            Leaf(0),
            0,
            &[],
            ChipBoundary::PLAINTEXT,
            |_, _| true,
            &mut plan,
        );

        let run = |plan: &mut WritebackPlan| {
            let mut s = Stash::new(1024);
            // Insertion order differs from address order on purpose.
            for &(a, l) in &[(9u64, 3u64), (2, 3), (7, 3), (1, 5), (4, 5), (3, 0)] {
                s.insert(blk(a, l));
            }
            s.plan_writeback(
                &layout,
                Leaf(3),
                0,
                &[],
                ChipBoundary::PLAINTEXT,
                |_, _| true,
                plan,
            );
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
    /// resident placed in the tree, a vetoed block placed shallower, a
    /// sealed path block kept on chip, an open block placed in memory, a
    /// plan that keyed only some candidates, a plan that keyed them all,
    /// a few residents keyed with the path at once.
    #[derive(Debug, Default, Clone, Copy)]
    struct PlanRoutes {
        few_residents_at_once: usize,
        stopped_above_some_depth: usize,
        keyed_every_depth: usize,
        leftover_path_block: usize,
        placed_resident: usize,
        vetoed_then_placed: usize,
        sealed_path_block_opened: usize,
        open_block_sealed: usize,
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
            residents in 0usize..801,
            veto in 0u8..4,
            top_level in 0usize..2,
            seal in 0u8..2,
            sealed_from in 0usize..80,
            seed in any::<u64>(),
        ) {

            let cached = (levels / 3).max(1);
            let layout = TreeLayout::new(match shape {
                0 => ZAllocation::uniform(levels, 4),
                1 => ZAllocation::uniform(levels, 2),
                2 => ZAllocation::preset(AllocPreset::IrAlloc1, levels, cached),
                _ => ZAllocation::preset(AllocPreset::IrAlloc4, levels, cached),
            });
            let (mut stash, leaf, mut path) = planning_case(&layout, residents, seed);
            let reference = stash.blocks.clone();
            let plaintext_path = path.clone();
            // With a cipher, levels from `cached` on are in memory and the
            // path is read sealed from `sealed_from` on.
            let cipher = FeistelCipher::new(seed);
            let sealed = (seal == 1).then_some(sealed_from.min(path.len()));
            let boundary = match sealed {
                None => ChipBoundary::PLAINTEXT,
                Some(from) => {
                    for b in &mut path[from..] {
                        b.payload = cipher.encrypt(b.payload);
                    }
                    ChipBoundary::new(Some(&cipher), cached, from)
                }
            };

            let (mut got_log, mut want_log) = (Vec::new(), Vec::new());
            let mut plan = WritebackPlan::new();
            stash.hold_path(&path);
            stash.plan_writeback(
                &layout,
                leaf,
                top_level,
                &path,
                boundary,
                veto_pattern(veto, levels, cached, &mut got_log),
                &mut plan,
            );
            let mut want = WritebackPlan::new();
            let want_left = reference_plan(
                &reference,
                &layout,
                leaf,
                top_level,
                &plaintext_path,
                veto_pattern(veto, levels, cached, &mut want_log),
                &mut want,
            );
            // The reference plans plaintext: seal what it puts in memory.
            let mut want = levels_of(&mut want);
            let on_chip = cached - top_level;
            if sealed.is_some() {
                for b in want.iter_mut().skip(on_chip).flatten() {
                    b.payload = cipher.encrypt(b.payload);
                }
            }
            let got = levels_of(&mut plan);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(&got_log, &want_log);
            let mut left = stash.blocks.clone();
            left.sort_unstable_by_key(|b| b.addr.0);
            prop_assert_eq!(&left, &want_left);
            prop_assert!(
                stash.blocks.windows(2).all(|w| stash_order(&w[0]) < stash_order(&w[1])),
                "the stash stays in (leaf, address) order"
            );
            prop_assert_eq!(stash.max_occupancy(), residents + path.len());

            let mut seen = PLAN_ROUTES.get();
            let keyed = stash.keys.len();
            seen.stopped_above_some_depth += usize::from(keyed < residents + path.len());
            seen.keyed_every_depth += usize::from(keyed == residents + path.len());
            seen.few_residents_at_once += usize::from((1..=FEW_RESIDENTS).contains(&residents));
            seen.leftover_path_block +=
                usize::from(path.iter().any(|b| stash.contains(b.leaf, b.addr)));
            if let Some(from) = sealed {
                let read_sealed = |addr: BlockAddr| path[from..].iter().any(|b| b.addr == addr);
                let (top, memory) = got.split_at(on_chip);
                seen.sealed_path_block_opened += usize::from(
                    stash.iter().chain(top.iter().flatten()).any(|b| read_sealed(b.addr)),
                );
                seen.open_block_sealed +=
                    usize::from(memory.iter().flatten().any(|b| !read_sealed(b.addr)));
            }
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

    /// The property above, plus route coverage: across its cases a plan
    /// stopped keying above some common depth, one keyed every candidate
    /// and one keyed a few residents with the path, a path block was
    /// left over, a resident was placed, a
    /// vetoed block was placed at a shallower level, and blocks crossed
    /// the chip boundary both ways.
    #[test]
    fn writeback_matches_the_merge_then_plan_reference() {
        PLAN_ROUTES.set(PlanRoutes::default());
        planning_from_the_path_matches_the_merge_then_plan_reference();
        let seen = PLAN_ROUTES.get();
        assert!(
            seen.stopped_above_some_depth > 0
                && seen.keyed_every_depth > 0
                && seen.few_residents_at_once > 0
                && seen.leftover_path_block > 0
                && seen.placed_resident > 0
                && seen.vetoed_then_placed > 0
                && seen.sealed_path_block_opened > 0
                && seen.open_block_sealed > 0,
            "{seen:?}"
        );
    }
}
