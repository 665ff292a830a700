//! Dense storage for the ORAM tree's buckets, with an optional IRO-style
//! per-bucket integrity layer (checksums verified on read, repair by
//! re-fetch) and a fault-injection surface for corrupting stored lines.

use std::collections::BTreeMap;
use std::ops::Range;

use iroram_sim_engine::{SnapError, SnapReader, SnapWriter};

use crate::layout::{key_index, placement_key};
use crate::{BlockAddr, Leaf, StoredBlock, TreeLayout};

/// Sentinel address marking an empty (dummy) slot, as stored in the
/// arena. [`OramConfig::validate`](crate::OramConfig::validate) keeps every
/// block address below it.
const DUMMY: u32 = u32::MAX;

/// A dummy's address wherever a slot leaves the arena (checksums and
/// snapshots), so both read as they did when slots held `u64` fields.
const WIDE_DUMMY: u64 = u64::MAX;

/// One stored slot, narrowed to 16 bytes: addresses and leaves fit 32 bits
/// at every configuration `validate` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    addr: u32,
    leaf: u32,
    payload: u64,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 16);

const EMPTY_SLOT: Slot = Slot {
    addr: DUMMY,
    leaf: 0,
    payload: 0,
};

impl Slot {
    /// Narrows a block into a slot; the caller's configuration guarantees
    /// its address and leaf fit.
    #[inline]
    fn of(b: &StoredBlock) -> Slot {
        debug_assert!(b.addr.0 < u64::from(DUMMY) && b.leaf.0 <= u64::from(u32::MAX));
        Slot {
            addr: b.addr.0 as u32,
            leaf: b.leaf.0 as u32,
            payload: b.payload,
        }
    }

    #[inline]
    fn is_dummy(&self) -> bool {
        self.addr == DUMMY
    }

    /// The address widened back to `u64`, the dummy to [`WIDE_DUMMY`].
    #[inline]
    fn wide_addr(&self) -> u64 {
        if self.is_dummy() {
            WIDE_DUMMY
        } else {
            u64::from(self.addr)
        }
    }

    /// The real block this slot holds (the caller has checked it is not a
    /// dummy).
    #[inline]
    fn block(&self) -> StoredBlock {
        StoredBlock {
            addr: BlockAddr(u64::from(self.addr)),
            leaf: Leaf(u64::from(self.leaf)),
            payload: self.payload,
        }
    }
}

/// The ORAM tree's slot array (logical storage for every level, including
/// levels that are mirrored on-chip by a tree-top store).
///
/// Real blocks and dummies share slots; a dummy is an empty slot (in
/// hardware it would be an encrypted indistinguishable block — the
/// distinguishability aspect is handled by the access protocol, not the
/// storage).
///
/// # Examples
///
/// ```
/// use iroram_protocol::{OramTree, TreeLayout, ZAllocation, StoredBlock, BlockAddr, Leaf};
/// let layout = TreeLayout::new(ZAllocation::uniform(3, 2));
/// let mut tree = OramTree::new(layout.clone());
/// tree.write_bucket(2, 3, vec![StoredBlock { addr: BlockAddr(1), leaf: Leaf(3), payload: 5 }]);
/// let blocks = tree.take_bucket(2, 3);
/// assert_eq!(blocks.len(), 1);
/// assert!(tree.take_bucket(2, 3).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct OramTree {
    // lint: allow(snapshot-drift, configuration; restore cross-checks the snapshot geometry against it)
    layout: TreeLayout,
    slots: Vec<Slot>,
    /// Real blocks per level, maintained incrementally for O(L) utilization
    /// snapshots.
    used_per_level: Vec<u64>,
    /// Real blocks per bucket, indexed by flat bucket index. Writes pack
    /// real blocks into slots `0..used` (dummies fill the tail), so a take
    /// walks exactly `used` contiguous slots instead of scanning all `Z`.
    used: Vec<u16>,
    /// Whether per-bucket checksums are verified (the IRO-style integrity
    /// layer; see [`OramTree::set_integrity`]).
    integrity: bool,
    /// Per-bucket checksums, indexed by flat bucket index
    /// `(1 << level) - 1 + bucket`. Empty while integrity is off. While
    /// the tree is pristine they are derived data, not kept: the table is
    /// filled from the slots by the first [`OramTree::inject_fault`] and
    /// kept up to date from then on.
    sums: Vec<u64>,
    /// Outstanding injected corruptions: flat bucket index → `(slot, mask)`
    /// pairs whose XOR has been applied to the stored payload but not yet
    /// repaired or consumed.
    injected: BTreeMap<usize, Vec<(u32, u64)>>,
    istats: IntegrityStats,
}

/// Counters for the integrity layer's fault ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Corruptions injected into stored lines.
    pub injected: u64,
    /// Corruptions detected by a checksum mismatch on path read.
    pub detected: u64,
    /// Detected corruptions repaired (modelled re-fetch).
    pub recovered: u64,
    /// Corrupted real blocks consumed without detection (integrity off).
    pub undetected: u64,
}

/// FNV-1a-style fold for bucket checksums.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

impl OramTree {
    /// Creates an all-dummy tree (integrity layer off; see
    /// [`OramTree::set_integrity`]).
    pub fn new(layout: TreeLayout) -> Self {
        let slots = vec![EMPTY_SLOT; layout.total_slots() as usize];
        let used_per_level = vec![0; layout.levels()];
        let used = vec![0u16; (1usize << layout.levels()) - 1];
        OramTree {
            layout,
            slots,
            used_per_level,
            used,
            integrity: false,
            sums: Vec::new(),
            injected: BTreeMap::new(),
            istats: IntegrityStats::default(),
        }
    }

    /// Whether no corruption has ever been injected. While pristine, every
    /// bucket's checksum is by definition the sum of its slots (nothing
    /// else could have changed them), so the table is not kept at all;
    /// every dummy slot holds the canonical empty pattern, and the fast
    /// paths below may skip re-scanning slots. One `inject_fault` call
    /// fills the table and permanently drops the tree back to the
    /// exhaustive legacy scans — fault campaigns pay full price, fault-free
    /// runs (the default) never checksum a bucket on a path access.
    #[inline]
    fn pristine(&self) -> bool {
        self.istats.injected == 0
    }

    /// The layout.
    pub fn layout(&self) -> &TreeLayout {
        &self.layout
    }

    /// Flat bucket index for the checksum and fault ledgers.
    #[inline]
    fn bucket_index(&self, level: usize, bucket: u64) -> usize {
        ((1usize << level) - 1) + bucket as usize
    }

    /// Checksum of a bucket's current contents (dummies included, so a
    /// flipped bit anywhere in the stored bucket is visible). Walks the
    /// bucket's `Z` slots as one contiguous slice — the level-major arena
    /// makes a whole path's checksums sequential reads.
    pub fn bucket_sum(&self, level: usize, bucket: u64) -> u64 {
        let z = self.layout.z_of(level) as usize;
        if z == 0 {
            return 0xCBF2_9CE4_8422_2325;
        }
        let base = self.layout.slot_index(level, bucket, 0);
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for slot in &self.slots[base..base + z] {
            h = mix(h, slot.wide_addr());
            h = mix(h, u64::from(slot.leaf));
            h = mix(h, slot.payload);
        }
        h
    }

    /// Every bucket's checksum computed from its slots, in flat bucket
    /// index order: the checksum table of a pristine tree.
    fn derived_sums(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.layout.levels()).flat_map(move |level| {
            (0..1u64 << level).map(move |bucket| self.bucket_sum(level, bucket))
        })
    }

    /// The checksum table (stale while the tree is pristine).
    #[cfg(test)]
    pub(crate) fn checksums(&self) -> &[u64] {
        &self.sums
    }

    /// Fills the checksum table from the slots, in place.
    fn fill_sums(&mut self) {
        let mut sums = std::mem::take(&mut self.sums);
        sums.clear();
        sums.extend(self.derived_sums());
        self.sums = sums;
    }

    /// Refreshes a bucket's stored checksum after a legitimate mutation.
    #[inline]
    fn resum(&mut self, level: usize, bucket: u64) {
        if self.integrity {
            let idx = self.bucket_index(level, bucket);
            self.sums[idx] = self.bucket_sum(level, bucket);
        }
    }

    /// Turns the per-bucket checksum layer on or off. Enabling allocates
    /// the checksum table; a pristine tree leaves it to be filled by the
    /// first fault, any other computes every bucket's sum once (O(total
    /// slots)). Disabling drops the table.
    pub fn set_integrity(&mut self, enabled: bool) {
        if enabled == self.integrity {
            return;
        }
        self.integrity = enabled;
        if enabled {
            self.sums = vec![0; (1usize << self.layout.levels()) - 1];
            if !self.pristine() {
                self.fill_sums();
            }
        } else {
            self.sums = Vec::new();
        }
    }

    /// Whether the integrity layer is on.
    pub fn integrity(&self) -> bool {
        self.integrity
    }

    /// Integrity counters so far.
    pub fn integrity_stats(&self) -> IntegrityStats {
        self.istats
    }

    /// Injects a fault: XORs `mask` into the stored payload of slot `slot`
    /// of bucket `(level, bucket)` — a bit flip in off-chip memory. The
    /// stored checksum is deliberately *not* refreshed: it still reflects
    /// the legitimate contents, which is what detection compares against.
    /// The first fault into a pristine tree fills the checksum table from
    /// the slots before flipping, and it is kept up to date from then on.
    pub fn inject_fault(&mut self, level: usize, bucket: u64, slot: u32, mask: u64) {
        if self.integrity && self.pristine() {
            self.fill_sums();
        }
        let idx = self.layout.slot_index(level, bucket, slot);
        self.slots[idx].payload ^= mask;
        let bidx = self.bucket_index(level, bucket);
        self.injected.entry(bidx).or_default().push((slot, mask));
        self.istats.injected += 1;
    }

    /// With integrity on: recomputes the bucket checksum and compares it to
    /// the stored one (the read-path verification step). On mismatch the
    /// recorded corruption masks are re-applied — modelling a re-fetch of
    /// the bucket from redundancy — and the detected/recovered counters
    /// grow. Returns the number of corruptions detected by this call (the
    /// caller charges the timing penalty per detection).
    pub fn verify_and_repair(&mut self, level: usize, bucket: u64) -> u64 {
        if !self.integrity {
            return 0;
        }
        if self.pristine() {
            // Nothing was ever corrupted, so the bucket's checksum is by
            // definition the sum of its slots: nothing to compare.
            return 0;
        }
        let bidx = self.bucket_index(level, bucket);
        if self.bucket_sum(level, bucket) == self.sums[bidx] {
            return 0;
        }
        let entries = self.injected.remove(&bidx).unwrap_or_default();
        for &(slot, mask) in &entries {
            let idx = self.layout.slot_index(level, bucket, slot);
            self.slots[idx].payload ^= mask;
        }
        self.istats.detected += entries.len().max(1) as u64;
        self.istats.recovered += entries.len() as u64;
        if entries.is_empty() || self.bucket_sum(level, bucket) != self.sums[bidx] {
            // Unattributable mismatch (possible only outside the injection
            // model): resync so one event is not re-counted every read.
            self.sums[bidx] = self.bucket_sum(level, bucket);
        }
        entries.len().max(1) as u64
    }

    /// Verifies (and repairs) every memory bucket on the path to `leaf`
    /// from `from_level` down, returning the total detections — the
    /// batched read-phase verification step. Per-bucket effects and
    /// counter evolution are identical to calling
    /// [`OramTree::verify_and_repair`] level by level (a path visits each
    /// bucket at most once, so the per-bucket order is the same).
    pub fn verify_and_repair_path(&mut self, leaf: Leaf, from_level: usize) -> u64 {
        if !self.integrity || self.pristine() {
            return 0;
        }
        let mut detections = 0;
        for level in from_level..self.layout.levels() {
            let bucket = self.layout.bucket_on_path(leaf, level);
            detections += self.verify_and_repair(level, bucket);
        }
        detections
    }

    /// Removes and returns the real blocks of bucket `(level, bucket)`
    /// (the read-path step: fetched blocks move to the stash, dummies are
    /// discarded).
    pub fn take_bucket(&mut self, level: usize, bucket: u64) -> Vec<StoredBlock> {
        let mut out = Vec::new();
        self.take_bucket_into(level, bucket, &mut out);
        out
    }

    /// Like [`OramTree::take_bucket`] but appends into `out`, reusing its
    /// capacity (the controller's per-path hot loop).
    pub fn take_bucket_into(&mut self, level: usize, bucket: u64, out: &mut Vec<StoredBlock>) {
        let z = self.layout.z_of(level);
        if self.pristine() {
            // Fast path: real blocks are packed into slots `0..used`, so
            // read exactly those and reset them. An empty bucket mutates
            // nothing at all.
            let bidx = self.bucket_index(level, bucket);
            let used = self.used[bidx] as usize;
            if used == 0 {
                return;
            }
            let base = self.layout.slot_index(level, bucket, 0);
            let taken = &mut self.slots[base..base + used];
            debug_assert!(
                taken.iter().all(|s| !s.is_dummy()),
                "used count exceeds packed prefix"
            );
            out.extend(taken.iter().map(Slot::block));
            taken.fill(EMPTY_SLOT);
            self.used[bidx] = 0;
            self.used_per_level[level] -= used as u64;
            return;
        }
        if !self.injected.is_empty() {
            // Corruptions still outstanding at consumption time were not
            // caught by verification (integrity off, or a direct take).
            // Count those sitting in real slots as undetected — their
            // corrupted payloads are about to enter the stash; masks on
            // dummy slots are discarded along with the dummies.
            let bidx = self.bucket_index(level, bucket);
            if let Some(entries) = self.injected.remove(&bidx) {
                for &(slot, _mask) in &entries {
                    let idx = self.layout.slot_index(level, bucket, slot);
                    if !self.slots[idx].is_dummy() {
                        self.istats.undetected += 1;
                    }
                }
            }
        }
        let mut taken = 0u64;
        for s in 0..z {
            let idx = self.layout.slot_index(level, bucket, s);
            let slot = &mut self.slots[idx];
            if !slot.is_dummy() {
                out.push(slot.block());
                *slot = EMPTY_SLOT;
                taken += 1;
            }
        }
        self.used_per_level[level] -= taken;
        let bidx = self.bucket_index(level, bucket);
        self.used[bidx] = 0;
        self.resum(level, bucket);
    }

    /// Overwrites bucket `(level, bucket)` with `blocks`, padding the rest
    /// with dummies (the write-path step).
    ///
    /// # Panics
    ///
    /// Panics if more blocks than the bucket's capacity are supplied, or if
    /// any block's leaf path does not pass through this bucket.
    pub fn write_bucket(&mut self, level: usize, bucket: u64, mut blocks: Vec<StoredBlock>) {
        self.write_bucket_from(level, bucket, &mut blocks);
    }

    /// Like [`OramTree::write_bucket`] but drains `blocks`, leaving its
    /// capacity behind for the caller to reuse.
    ///
    /// # Panics
    ///
    /// Same contract as [`OramTree::write_bucket`].
    pub fn write_bucket_from(&mut self, level: usize, bucket: u64, blocks: &mut Vec<StoredBlock>) {
        let z = self.layout.z_of(level);
        assert!(
            blocks.len() <= z as usize,
            "bucket overflow: {} blocks into Z={z}",
            blocks.len()
        );
        let bidx = self.bucket_index(level, bucket);
        if self.pristine() {
            // Fast path: slots beyond the packed prefix are already the
            // canonical empty pattern, so only `max(old_used, new_len)`
            // slots are touched.
            let old = self.used[bidx] as usize;
            let new = blocks.len();
            let base = self.layout.slot_index(level, bucket, 0);
            for (slot, b) in self.slots[base..base + new].iter_mut().zip(blocks.iter()) {
                debug_assert_eq!(
                    self.layout.bucket_on_path(b.leaf, level),
                    bucket,
                    "block {} (leaf {}) does not belong to bucket {bucket} at level {level}",
                    b.addr,
                    b.leaf
                );
                *slot = Slot::of(b);
            }
            if old > new {
                self.slots[base + new..base + old].fill(EMPTY_SLOT);
            }
            self.used[bidx] = new as u16;
            self.used_per_level[level] += new as u64;
            self.used_per_level[level] -= old as u64;
            blocks.clear();
            return;
        }
        // Clear old contents first.
        let mut removed = 0u64;
        for s in 0..z {
            let idx = self.layout.slot_index(level, bucket, s);
            if !self.slots[idx].is_dummy() {
                removed += 1;
            }
            self.slots[idx] = EMPTY_SLOT;
        }
        self.used_per_level[level] -= removed;
        for (s, b) in blocks.iter().enumerate() {
            debug_assert_eq!(
                self.layout.bucket_on_path(b.leaf, level),
                bucket,
                "block {} (leaf {}) does not belong to bucket {bucket} at level {level}",
                b.addr,
                b.leaf
            );
            let idx = self.layout.slot_index(level, bucket, s as u32);
            self.slots[idx] = Slot::of(b);
        }
        self.used_per_level[level] += blocks.len() as u64;
        self.used[bidx] = blocks.len() as u16;
        blocks.clear();
        if !self.injected.is_empty() {
            // Overwriting a corrupted bucket destroys the corruption before
            // anything consumed it — drop the ledger entries uncounted.
            let bidx = self.bucket_index(level, bucket);
            self.injected.remove(&bidx);
        }
        self.resum(level, bucket);
    }

    /// Splits the subtrees rooted at level `from` into at most `workers`
    /// contiguous runs and calls `work` on each, every run but the first
    /// on its own scoped thread, with [`SubtreeRun`]'s disjoint `&mut`
    /// view of the run's slots and fill counts. The arena is level-major,
    /// so at each level `>= from` a run owns one contiguous stretch of
    /// both. Each worker owns its run outright, scratch included, so no
    /// two workers write the same cache line but at a stretch's edge.
    /// Afterwards each run's per-level block counts are added into the
    /// tree's. Returns `work`'s results in subtree order.
    ///
    /// Initialization only: the levels `>= from` must be empty, the
    /// integrity layer off and no fault injected, since the runs keep no
    /// checksums or fault ledger.
    pub(crate) fn par_subtrees<R: Send>(
        &mut self,
        from: usize,
        workers: usize,
        work: impl Fn(&mut SubtreeRun<'_>) -> R + Sync,
    ) -> Vec<R> {
        debug_assert!(!self.integrity && self.pristine(), "init-only kernel");
        let OramTree {
            layout,
            slots,
            used,
            used_per_level,
            ..
        } = self;
        debug_assert!(
            used_per_level.iter().skip(from).all(|&n| n == 0),
            "levels below the split must be empty"
        );
        let layout = &*layout;
        let subtrees = 1usize << from;
        let per_run = subtrees.div_ceil(workers.clamp(1, subtrees));
        let mut runs: Vec<SubtreeRun<'_>> = (0..subtrees.div_ceil(per_run))
            .map(|i| SubtreeRun::new(layout, from, i * per_run..((i + 1) * per_run).min(subtrees)))
            .collect();
        // Skip the levels above `from`, then deal each level out.
        let top_slots = (0..from).map(|l| layout.slots_at(l) as usize).sum();
        // lint: allow(panic, level `from`'s first slot and first bucket lie inside the arena and the fill counts)
        let (mut slots, mut used) = (&mut slots[top_slots..], &mut used[subtrees - 1..]);
        for level in from..layout.levels() {
            let (level_slots, level_used);
            (level_slots, slots) = slots.split_at_mut(layout.slots_at(level) as usize);
            (level_used, used) = used.split_at_mut(1 << level);
            let buckets = per_run << (level - from);
            let z = layout.z_of(level) as usize;
            let mut slot_chunks = level_slots.chunks_mut((buckets * z).max(1));
            for (run, fill) in runs.iter_mut().zip(level_used.chunks_mut(buckets)) {
                run.levels.push(RunLevel {
                    // A level with `Z = 0` holds no slots: its runs get none.
                    slots: slot_chunks.next().unwrap_or_default(),
                    fill,
                    z,
                    fits_below: layout.placement_bound(level),
                    shift: layout.levels() - 1 - level,
                    first: (run.subtrees.start as u64) << (level - from),
                    held: 0,
                });
            }
        }
        // lint: allow(thread-order, each run owns a disjoint stretch of every level and inserts its subtrees' blocks in their own order; runs are joined in subtree order and merged by a sum and a maximum)
        let finished = std::thread::scope(|scope| {
            let work = &work;
            let mut runs = runs.into_iter();
            let first = runs.next();
            // lint: allow(thread-order, one scoped worker per run after the first, joined below)
            let spawned: Vec<_> = runs
                .map(|mut run| scope.spawn(move || (work(&mut run), run)))
                .collect();
            let mut finished: Vec<_> = first
                .map(|mut run| (work(&mut run), run))
                .into_iter()
                .collect();
            finished.extend(spawned.into_iter().map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }));
            finished
        });
        finished
            .into_iter()
            .map(|(result, run)| {
                // lint: allow(panic, from < levels = used_per_level.len())
                for (total, level) in used_per_level[from..].iter_mut().zip(&run.levels) {
                    *total += level.held;
                }
                result
            })
            .collect()
    }

    /// Non-destructive scan of a bucket's real blocks.
    pub fn peek_bucket(&self, level: usize, bucket: u64) -> Vec<StoredBlock> {
        let z = self.layout.z_of(level);
        (0..z)
            .filter_map(|s| {
                let slot = &self.slots[self.layout.slot_index(level, bucket, s)];
                (!slot.is_dummy()).then(|| slot.block())
            })
            .collect()
    }

    /// Real-block count at `level`.
    pub fn used_at(&self, level: usize) -> u64 {
        self.used_per_level[level]
    }

    /// Space utilization of `level`: real blocks / allocated slots.
    pub fn utilization_at(&self, level: usize) -> f64 {
        let slots = self.layout.slots_at(level);
        if slots == 0 {
            0.0
        } else {
            self.used_per_level[level] as f64 / slots as f64
        }
    }

    /// Per-level `(used, capacity)` pairs.
    pub fn occupancy(&self) -> Vec<(u64, u64)> {
        (0..self.layout.levels())
            .map(|l| (self.used_per_level[l], self.layout.slots_at(l)))
            .collect()
    }

    /// Total real blocks stored.
    pub fn total_used(&self) -> u64 {
        self.used_per_level.iter().sum()
    }

    /// Serializes the full slot arena, occupancy ledgers, checksum table,
    /// outstanding-fault ledger and integrity counters for a checkpoint.
    /// The layout and the integrity *flag* come from configuration and are
    /// written only as cross-checks. A pristine tree writes the checksums
    /// derived from its slots; any other writes its table verbatim (not
    /// recomputed on restore) because with an outstanding injected
    /// corruption the stored sum deliberately reflects the legitimate
    /// contents, not the corrupted slots.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.slots.len());
        for s in &self.slots {
            w.put_u64(s.wide_addr());
            w.put_u64(u64::from(s.leaf));
            w.put_u64(s.payload);
        }
        w.put_usize(self.used_per_level.len());
        for &u in &self.used_per_level {
            w.put_u64(u);
        }
        w.put_usize(self.used.len());
        for &u in &self.used {
            w.put_u32(u as u32);
        }
        w.put_bool(self.integrity);
        w.put_usize(self.sums.len());
        if self.integrity && self.pristine() {
            self.derived_sums().for_each(|s| w.put_u64(s));
        } else {
            self.sums.iter().for_each(|&s| w.put_u64(s));
        }
        w.put_usize(self.injected.len());
        for (&bidx, entries) in &self.injected {
            w.put_usize(bidx);
            w.put_usize(entries.len());
            for &(slot, mask) in entries {
                w.put_u32(slot);
                w.put_u64(mask);
            }
        }
        w.put_u64(self.istats.injected);
        w.put_u64(self.istats.detected);
        w.put_u64(self.istats.recovered);
        w.put_u64(self.istats.undetected);
    }

    /// Restores the state captured by [`OramTree::save_state`] into a tree
    /// built from the same layout and integrity configuration.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] if the snapshot's geometry or integrity mode
    /// disagrees with this tree, a slot does not fit the 16-byte arena (an
    /// address of 32 bits or more other than the dummy's, a leaf beyond
    /// the tree), a real slot's leaf path misses its bucket, or its fill
    /// counts disagree with its slots (a count above `Z`, real and dummy
    /// slots out of their packed order, or a level total that is not its
    /// buckets' sum), or a pristine snapshot's checksum table disagrees
    /// with its slots; any [`SnapError`] on truncation.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.take_seq_len(24)?;
        if n != self.slots.len() {
            return Err(SnapError::Corrupt("tree slot count mismatch"));
        }
        // The arena is level-major, each bucket's `Z` slots contiguous.
        let layout = &self.layout;
        let coords = (0..layout.levels()).flat_map(|level| {
            (0..1u64 << level)
                .flat_map(move |bucket| (0..layout.z_of(level)).map(move |_| (level, bucket)))
        });
        for (s, (level, bucket)) in self.slots.iter_mut().zip(coords) {
            let addr = r.take_u64()?;
            let leaf = r.take_u64()?;
            if leaf >= layout.num_leaves() {
                return Err(SnapError::Corrupt("slot leaf beyond the tree"));
            }
            s.addr = if addr == WIDE_DUMMY {
                DUMMY
            } else if layout.bucket_on_path(Leaf(leaf), level) != bucket {
                return Err(SnapError::Corrupt("slot leaf off its bucket's path"));
            } else {
                u32::try_from(addr)
                    .ok()
                    .filter(|&a| a != DUMMY)
                    .ok_or(SnapError::Corrupt("slot address beyond 32 bits"))?
            };
            s.leaf = leaf as u32;
            s.payload = r.take_u64()?;
        }
        let n = r.take_seq_len(8)?;
        if n != self.used_per_level.len() {
            return Err(SnapError::Corrupt("tree level count mismatch"));
        }
        for u in &mut self.used_per_level {
            *u = r.take_u64()?;
        }
        let n = r.take_seq_len(4)?;
        if n != self.used.len() {
            return Err(SnapError::Corrupt("tree bucket count mismatch"));
        }
        for u in &mut self.used {
            let v = r.take_u32()?;
            *u = u16::try_from(v).map_err(|_| SnapError::Corrupt("bucket fill exceeds u16"))?;
        }
        self.check_fill_counts()?;
        if r.take_bool()? != self.integrity {
            return Err(SnapError::Corrupt("integrity mode mismatch"));
        }
        let n = r.take_seq_len(8)?;
        if n != if self.integrity {
            (1usize << self.layout.levels()) - 1
        } else {
            0
        } {
            return Err(SnapError::Corrupt("checksum table size mismatch"));
        }
        self.sums.clear();
        for _ in 0..n {
            self.sums.push(r.take_u64()?);
        }
        let n = r.take_seq_len(16)?;
        self.injected.clear();
        for _ in 0..n {
            let bidx = r.take_usize()?;
            let m = r.take_seq_len(12)?;
            let mut entries = Vec::with_capacity(m);
            for _ in 0..m {
                let slot = r.take_u32()?;
                let mask = r.take_u64()?;
                entries.push((slot, mask));
            }
            self.injected.insert(bidx, entries);
        }
        self.istats = IntegrityStats {
            injected: r.take_u64()?,
            detected: r.take_u64()?,
            recovered: r.take_u64()?,
            undetected: r.take_u64()?,
        };
        if self.integrity && self.pristine() && !self.derived_sums().eq(self.sums.iter().copied()) {
            return Err(SnapError::Corrupt(
                "checksum table disagrees with its slots",
            ));
        }
        Ok(())
    }

    /// Checks the restored fill counts against the slots: every bucket's
    /// count fits its `Z`, its slots `[0, used)` are real and `[used, Z)`
    /// dummy (the packed prefix the take and write fast paths index by),
    /// and each level's total is the sum of its buckets' counts.
    fn check_fill_counts(&self) -> Result<(), SnapError> {
        for level in 0..self.layout.levels() {
            let z = self.layout.z_of(level) as usize;
            let mut level_used = 0u64;
            for bucket in 0..(1u64 << level) {
                // lint: allow(panic, bucket_index < used.len() = 2^L - 1 for every (level, bucket) of the layout)
                let used = self.used[self.bucket_index(level, bucket)] as usize;
                if used > z {
                    return Err(SnapError::Corrupt("bucket fill exceeds its Z"));
                }
                level_used += used as u64;
                if z == 0 {
                    continue;
                }
                let base = self.layout.slot_index(level, bucket, 0);
                // lint: allow(panic, a bucket's Z slots lie inside the arena the layout sized)
                let slots = &self.slots[base..base + z];
                if slots
                    .iter()
                    .enumerate()
                    .any(|(i, s)| s.is_dummy() == (i < used))
                {
                    return Err(SnapError::Corrupt("bucket fill disagrees with its slots"));
                }
            }
            // lint: allow(panic, used_per_level has one entry per level)
            if self.used_per_level[level] != level_used {
                return Err(SnapError::Corrupt("level fill disagrees with its buckets"));
            }
        }
        Ok(())
    }

    /// Iterates over all stored real blocks with their coordinates
    /// (for invariant checking; O(total slots)).
    pub fn iter_blocks(&self) -> impl Iterator<Item = (usize, u64, StoredBlock)> + '_ {
        (0..self.layout.levels()).flat_map(move |level| {
            (0..(1u64 << level)).flat_map(move |bucket| {
                (0..self.layout.z_of(level)).filter_map(move |s| {
                    let slot = &self.slots[self.layout.slot_index(level, bucket, s)];
                    (!slot.is_dummy()).then(|| (level, bucket, slot.block()))
                })
            })
        })
    }
}

/// One run of [`OramTree::par_subtrees`]: a contiguous run of the
/// subtrees rooted at level `from`, with its own stretch of the arena at
/// every level `>= from` and its own insert scratch, sized before any
/// worker starts.
pub(crate) struct SubtreeRun<'a> {
    subtrees: Range<usize>,
    /// The levels `>= from`, top down.
    levels: Vec<RunLevel<'a>>,
    gathered: Vec<Slot>,
    keys: Vec<u64>,
}

/// A run's share of one level: its buckets' slots and fill counts, the
/// level's constants, and the blocks the run holds there.
struct RunLevel<'a> {
    slots: &'a mut [Slot],
    fill: &'a mut [u16],
    z: usize,
    /// The level's [`TreeLayout::placement_bound`].
    fits_below: u64,
    /// A leaf's bucket here is `leaf >> shift`, less `first`, the run's
    /// first bucket.
    shift: usize,
    first: u64,
    held: u64,
}

impl RunLevel<'_> {
    /// The run's index of the bucket on the path to `leaf`.
    #[inline]
    fn bucket(&self, leaf: Leaf) -> usize {
        ((leaf.0 >> self.shift) - self.first) as usize
    }
}

impl<'a> SubtreeRun<'a> {
    fn new(layout: &TreeLayout, from: usize, subtrees: Range<usize>) -> Self {
        // A path's blocks below `from`, plus the one inserted.
        let path = layout.path_len_memory(from) as usize + 1;
        SubtreeRun {
            subtrees,
            levels: Vec::with_capacity(layout.levels() - from),
            gathered: Vec::with_capacity(path),
            keys: Vec::with_capacity(path),
        }
    }

    /// The subtrees of this run, numbered left to right at level `from`.
    pub(crate) fn subtrees(&self) -> Range<usize> {
        self.subtrees.clone()
    }

    /// Inserts block `addr`, mapped to `leaf` (in one of this run's
    /// subtrees) and holding the (already encrypted) `payload`, the way a
    /// path access to `leaf` places it when the stash is otherwise empty
    /// and no level above `from` takes part: the blocks at levels
    /// `>= from` of that path plus the new one are pushed as deep as they
    /// go, levels deepest first, each bucket taking its candidates in
    /// (common depth desc, address asc) order up to its `Z`. Below a tree
    /// top nothing can veto a slot, so this is the whole Path ORAM
    /// placement rule there. Only each bucket's packed prefix is read,
    /// slots move as they are, and one `u64` key per block is sorted. A
    /// level where the run holds no block is not read, and the fill stops
    /// above the shallowest block once every block is placed, since
    /// nothing changes there.
    ///
    /// Returns the number of blocks placed (the new one included), the
    /// stash occupancy the path access would have peaked at; or `None` if
    /// some block fits none of those levels, after which the tree has lost
    /// it and must be discarded.
    pub(crate) fn insert(&mut self, leaf: Leaf, addr: BlockAddr, payload: u64) -> Option<usize> {
        let SubtreeRun {
            ref mut levels,
            ref mut gathered,
            ref mut keys,
            ..
        } = *self;
        gathered.clear();
        gathered.push(Slot::of(&StoredBlock {
            addr,
            leaf,
            payload,
        }));
        // The top-down index of the shallowest level the path holds a
        // block at.
        let mut shallowest = levels.len();
        for (i, level) in levels.iter().enumerate() {
            if level.held == 0 {
                continue;
            }
            let b = level.bucket(leaf);
            // lint: allow(panic, a leaf of the run's subtrees has its bucket inside the run's fill counts)
            let used = level.fill[b] as usize;
            if used > 0 {
                shallowest = shallowest.min(i);
                let base = b * level.z;
                // lint: allow(panic, a bucket's packed prefix lies inside its Z slots of the run)
                gathered.extend_from_slice(&level.slots[base..base + used]);
            }
        }
        keys.clear();
        keys.extend(
            gathered
                .iter()
                .enumerate()
                .map(|(i, s)| placement_key(u64::from(s.leaf), leaf, u64::from(s.addr), i)),
        );
        keys.sort_unstable();
        let mut next = keys.iter().peekable();
        for (i, level) in levels.iter_mut().enumerate().rev() {
            if i < shallowest && next.peek().is_none() {
                break;
            }
            if level.z == 0 {
                continue;
            }
            let b = level.bucket(leaf);
            // lint: allow(panic, a leaf of the run's subtrees has its bucket's Z slots inside the run)
            let dst = &mut level.slots[b * level.z..(b + 1) * level.z];
            let mut new = 0;
            for slot in dst.iter_mut() {
                let Some(&key) = next.next_if(|&&key| key < level.fits_below) else {
                    break;
                };
                // lint: allow(panic, a key's low bits are the index of the gathered block it was built from)
                *slot = gathered[key_index(key)];
                new += 1;
            }
            // lint: allow(panic, a leaf of the run's subtrees has its bucket inside the run's fill counts)
            let old = std::mem::replace(&mut level.fill[b], new as u16) as usize;
            dst.iter_mut()
                .take(old)
                .skip(new)
                .for_each(|s| *s = EMPTY_SLOT);
            level.held = level.held + new as u64 - old as u64;
        }
        next.peek().is_none().then_some(gathered.len())
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
            payload: addr,
        }
    }

    fn tree3() -> OramTree {
        OramTree::new(TreeLayout::new(ZAllocation::uniform(3, 2)))
    }

    #[test]
    fn starts_empty() {
        let t = tree3();
        assert_eq!(t.total_used(), 0);
        assert_eq!(t.utilization_at(0), 0.0);
        assert!(t.peek_bucket(0, 0).is_empty());
    }

    #[test]
    fn write_take_round_trip() {
        let mut t = tree3();
        t.write_bucket(2, 1, vec![blk(10, 1), blk(11, 1)]);
        assert_eq!(t.used_at(2), 2);
        assert_eq!(t.utilization_at(2), 2.0 / 8.0);
        let got = t.take_bucket(2, 1);
        assert_eq!(got.len(), 2);
        assert_eq!(t.used_at(2), 0);
    }

    #[test]
    fn write_overwrites_previous_contents() {
        let mut t = tree3();
        t.write_bucket(2, 1, vec![blk(10, 1)]);
        t.write_bucket(2, 1, vec![blk(11, 1), blk(12, 1)]);
        let got = t.peek_bucket(2, 1);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|b| b.addr != BlockAddr(10)));
        assert_eq!(t.used_at(2), 2);
    }

    #[test]
    fn partial_bucket_pads_with_dummies() {
        let mut t = tree3();
        t.write_bucket(1, 0, vec![blk(5, 1)]);
        assert_eq!(t.peek_bucket(1, 0).len(), 1);
        assert_eq!(t.take_bucket(1, 0).len(), 1);
    }

    #[test]
    #[should_panic(expected = "bucket overflow")]
    fn overflow_panics() {
        let mut t = tree3();
        t.write_bucket(0, 0, vec![blk(1, 0), blk(2, 0), blk(3, 0)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not belong")]
    fn wrong_path_panics_in_debug() {
        let mut t = tree3();
        // leaf 3's path at level 2 is bucket 3, not bucket 0.
        t.write_bucket(2, 0, vec![blk(1, 3)]);
    }

    #[test]
    fn iter_blocks_reports_coordinates() {
        let mut t = tree3();
        t.write_bucket(2, 3, vec![blk(7, 3)]);
        t.write_bucket(0, 0, vec![blk(8, 2)]);
        let all: Vec<_> = t.iter_blocks().collect();
        assert_eq!(all.len(), 2);
        assert!(all.contains(&(2, 3, blk(7, 3))));
        assert!(all.contains(&(0, 0, blk(8, 2))));
    }

    #[test]
    fn occupancy_snapshot() {
        let mut t = tree3();
        t.write_bucket(2, 0, vec![blk(1, 0), blk(2, 0)]);
        let occ = t.occupancy();
        assert_eq!(occ, vec![(0, 2), (0, 4), (2, 8)]);
    }

    #[test]
    fn integrity_detects_and_repairs_injected_corruption() {
        let mut t = tree3();
        t.set_integrity(true);
        t.write_bucket(2, 1, vec![blk(10, 1), blk(11, 1)]);
        assert_eq!(t.verify_and_repair(2, 1), 0, "clean bucket must verify");
        t.inject_fault(2, 1, 0, 0xFF);
        assert_eq!(t.verify_and_repair(2, 1), 1);
        let s = t.integrity_stats();
        assert_eq!(
            (s.injected, s.detected, s.recovered, s.undetected),
            (1, 1, 1, 0)
        );
        // Repaired payload is the original.
        let got = t.take_bucket(2, 1);
        assert!(got
            .iter()
            .any(|b| b.addr == BlockAddr(10) && b.payload == 10));
        assert_eq!(t.integrity_stats().undetected, 0);
    }

    #[test]
    fn corruption_without_integrity_is_undetected_when_consumed() {
        let mut t = tree3();
        t.write_bucket(2, 1, vec![blk(10, 1)]);
        t.inject_fault(2, 1, 0, 0xFF);
        assert_eq!(t.verify_and_repair(2, 1), 0, "integrity off: no detection");
        let got = t.take_bucket(2, 1);
        assert_eq!(got[0].payload, 10 ^ 0xFF, "corrupted payload consumed");
        let s = t.integrity_stats();
        assert_eq!((s.detected, s.undetected), (0, 1));
    }

    #[test]
    fn corruption_of_dummy_slot_is_harmless() {
        let mut t = tree3();
        t.write_bucket(2, 1, vec![blk(10, 1)]);
        // Slot 1 of the bucket is a dummy; corrupt it.
        t.inject_fault(2, 1, 1, 0xAB);
        let got = t.take_bucket(2, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, 10);
        assert_eq!(t.integrity_stats().undetected, 0);
    }

    #[test]
    fn overwrite_destroys_outstanding_corruption() {
        let mut t = tree3();
        t.set_integrity(true);
        t.write_bucket(2, 1, vec![blk(10, 1)]);
        t.inject_fault(2, 1, 0, 0xFF);
        t.write_bucket(2, 1, vec![blk(11, 1)]);
        assert_eq!(t.verify_and_repair(2, 1), 0, "rewrite resyncs the checksum");
        let s = t.integrity_stats();
        assert_eq!((s.detected, s.undetected), (0, 0));
    }

    #[test]
    fn save_restore_round_trips_mid_fault_state() {
        let mut t = tree3();
        t.set_integrity(true);
        t.write_bucket(2, 1, vec![blk(10, 1), blk(11, 1)]);
        t.write_bucket(1, 0, vec![blk(5, 1)]);
        t.inject_fault(2, 1, 0, 0xFF); // outstanding, undetected yet
        let mut w = SnapWriter::new();
        t.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = tree3();
        fresh.set_integrity(true);
        let mut r = SnapReader::new(&bytes);
        fresh.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        // The outstanding corruption must still be detectable and repairable.
        assert_eq!(fresh.verify_and_repair(2, 1), 1);
        let got = fresh.take_bucket(2, 1);
        assert!(got
            .iter()
            .any(|b| b.addr == BlockAddr(10) && b.payload == 10));
        assert_eq!(fresh.used_at(1), 1);
        assert_eq!(fresh.integrity_stats().injected, 1);
    }

    #[test]
    fn restore_rejects_wrong_integrity_mode() {
        let mut t = tree3();
        t.set_integrity(true);
        let mut w = SnapWriter::new();
        t.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = tree3(); // integrity off
        let mut r = SnapReader::new(&bytes);
        assert!(fresh.restore_state(&mut r).is_err());
    }

    #[test]
    fn restore_rejects_a_pristine_checksum_table_that_disagrees_with_its_slots() {
        let mut t = tree3();
        t.set_integrity(true);
        t.write_bucket(2, 1, vec![blk(10, 1)]);
        let mut w = SnapWriter::new();
        t.save_state(&mut w);
        let bytes = w.into_bytes();
        let restore = |bytes: &[u8]| {
            let mut fresh = tree3();
            fresh.set_integrity(true);
            fresh.restore_state(&mut SnapReader::new(bytes))
        };
        assert_eq!(restore(&bytes), Ok(()));
        // The last of the 7 checksums precedes the empty fault ledger's
        // length (8 bytes) and the 4 integrity counters (32).
        let last_sum = bytes.len() - 40 - 8;
        let mut patched = bytes;
        patched[last_sum] ^= 1;
        assert!(matches!(restore(&patched), Err(SnapError::Corrupt(_))));
    }

    /// A tree snapshot with its integrity flag off, the fill counts of
    /// bucket `(2, 1)` and level 2 at known offsets for corruption tests.
    fn snapshot_with_fill_offsets() -> (Vec<u8>, usize, usize) {
        let mut t = tree3();
        t.write_bucket(2, 1, vec![blk(10, 1)]);
        let mut w = SnapWriter::new();
        t.save_state(&mut w);
        // Slot count + 14 slots of 24 bytes, level count + 3 level totals,
        // bucket count + 7 u32 bucket counts.
        let level_totals = 8 + 14 * 24 + 8;
        let bucket_counts = level_totals + 3 * 8 + 8;
        let level2 = level_totals + 2 * 8;
        let bucket_2_1 = bucket_counts + 4 * ((1 << 2) - 1 + 1);
        (w.into_bytes(), bucket_2_1, level2)
    }

    fn restore_patched(bytes: &[u8], at: usize, v: u32) -> Result<(), SnapError> {
        let mut bytes = bytes.to_vec();
        bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
        tree3().restore_state(&mut SnapReader::new(&bytes))
    }

    #[test]
    fn restore_accepts_its_own_snapshot() {
        let (bytes, bucket, _) = snapshot_with_fill_offsets();
        assert_eq!(restore_patched(&bytes, bucket, 1), Ok(()));
    }

    #[test]
    fn restore_rejects_fill_count_beyond_z() {
        // Before the check, a count above Z restored fine and the next take
        // sliced past the bucket (and, at the last bucket, the arena).
        let (bytes, bucket, level) = snapshot_with_fill_offsets();
        let mut bytes = bytes;
        bytes[level..level + 8].copy_from_slice(&3u64.to_le_bytes());
        assert!(matches!(
            restore_patched(&bytes, bucket, 3),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn restore_rejects_fill_count_disagreeing_with_slots() {
        let (bytes, bucket, level) = snapshot_with_fill_offsets();
        // Within Z, but slot 1 is a dummy: not a packed prefix.
        let mut two = bytes.clone();
        two[level..level + 8].copy_from_slice(&2u64.to_le_bytes());
        assert!(matches!(
            restore_patched(&two, bucket, 2),
            Err(SnapError::Corrupt(_))
        ));
        // Zero while slot 0 holds a real block.
        let mut zero = bytes;
        zero[level..level + 8].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            restore_patched(&zero, bucket, 0),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn restore_rejects_level_total_disagreeing_with_buckets() {
        let (bytes, _, level) = snapshot_with_fill_offsets();
        let mut bytes = bytes;
        bytes[level..level + 8].copy_from_slice(&2u64.to_le_bytes());
        assert!(matches!(
            tree3().restore_state(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt(_))
        ));
    }

    /// Byte offset of slot `idx`'s `field` (0 addr, 1 leaf, 2 payload) in a
    /// tree snapshot: the slot count, then 24 bytes per slot.
    fn slot_field(idx: usize, field: usize) -> usize {
        8 + idx * 24 + field * 8
    }

    fn restore_patched_u64(bytes: &[u8], at: usize, v: u64) -> Result<(), SnapError> {
        let mut bytes = bytes.to_vec();
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
        tree3().restore_state(&mut SnapReader::new(&bytes))
    }

    #[test]
    fn restore_rejects_slot_fields_the_arena_cannot_hold() {
        let (bytes, _, _) = snapshot_with_fill_offsets();
        let layout = tree3().layout().clone();
        let real = layout.slot_index(2, 1, 0);
        let dummy = layout.slot_index(2, 1, 1);
        let corrupt = |at, v| {
            matches!(
                restore_patched_u64(&bytes, at, v),
                Err(SnapError::Corrupt(_))
            )
        };
        // An address at or past the arena's dummy sentinel, on a real slot
        // or a dummy one: narrowing it would forge or hide a block.
        for v in [u64::from(u32::MAX), 1 << 32, u64::MAX - 1] {
            assert!(corrupt(slot_field(real, 0), v), "addr {v:#x}");
            assert!(corrupt(slot_field(dummy, 0), v), "dummy addr {v:#x}");
        }
        // A leaf beyond the tree's 4 leaves, on either kind of slot.
        for v in [4, u64::from(u32::MAX), 1 << 32, u64::MAX] {
            assert!(corrupt(slot_field(real, 1), v), "leaf {v:#x}");
            assert!(corrupt(slot_field(dummy, 1), v), "dummy leaf {v:#x}");
        }
        // A leaf inside the tree whose path misses the bucket: leaf 3's
        // level-2 bucket is 3, not 1.
        assert!(corrupt(slot_field(real, 1), 3));
        assert_eq!(restore_patched_u64(&bytes, slot_field(real, 1), 1), Ok(()));
    }

    #[test]
    fn restore_never_panics_and_never_truncates_a_slot() {
        // Every slot's address and leaf, patched to each hostile value: the
        // restore returns (no panic), and whatever it accepts re-saves to
        // the very bytes it read.
        let (bytes, _, _) = snapshot_with_fill_offsets();
        let hostile = [
            0,
            1,
            3,
            4,
            10,
            u64::from(u32::MAX) - 1,
            u64::from(u32::MAX),
            1 << 32,
            u64::MAX - 1,
            u64::MAX,
        ];
        for idx in 0..14 {
            for field in 0..2 {
                for v in hostile {
                    let mut patched = bytes.clone();
                    let at = slot_field(idx, field);
                    patched[at..at + 8].copy_from_slice(&v.to_le_bytes());
                    let mut t = tree3();
                    if t.restore_state(&mut SnapReader::new(&patched)).is_ok() {
                        let mut w = SnapWriter::new();
                        t.save_state(&mut w);
                        assert_eq!(w.into_bytes(), patched, "slot {idx} field {field} = {v:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn checksums_track_legitimate_mutations() {
        let mut t = tree3();
        t.set_integrity(true);
        t.write_bucket(2, 3, vec![blk(7, 3)]);
        assert_eq!(t.verify_and_repair(2, 3), 0);
        let _ = t.take_bucket(2, 3);
        assert_eq!(t.verify_and_repair(2, 3), 0);
    }
}
