//! The ORAM subtree data layout (Ren et al. \[25\]).
//!
//! Laying out the ORAM tree node-by-node in level order scatters a path's
//! buckets across DRAM rows, so every level costs a row activation. The
//! subtree layout instead packs each `g`-level subtree contiguously: a path
//! then touches one subtree per `g` levels, and within a subtree all of its
//! blocks share one (or a few) DRAM rows. The paper's baseline "adopts the
//! subtree layout to improve row buffer hits" (Section VI), so ours does too.
//!
//! The layout supports **per-level bucket sizes** (`Z` values), which is what
//! IR-Alloc changes; shrinking `Z` at middle levels shrinks those subtrees
//! and the address space accordingly.

/// Maps ORAM tree coordinates (level, bucket, slot) to flat cache-line
/// addresses using the subtree layout.
///
/// # Examples
///
/// ```
/// use iroram_dram::SubtreeLayout;
/// // A 4-level tree with uniform Z=4, grouped 2 levels per subtree.
/// let layout = SubtreeLayout::new(&[4, 4, 4, 4], 2);
/// assert_eq!(layout.total_lines(), 4 * (1 + 2 + 4 + 8));
/// let path = layout.path_slots(0b101, 0);
/// assert_eq!(path.len(), 4 * 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubtreeLayout {
    z_per_level: Vec<u32>,
    group_height: u32,
    /// For each level: base address of its group's subtree region.
    group_base: Vec<u64>,
    /// For each level: size in lines of one subtree of its group.
    subtree_size: Vec<u64>,
    /// For each level: offset of this level's first slot inside a subtree.
    level_offset: Vec<u64>,
    /// For each level: `level - group_start_level`.
    depth_in_group: Vec<u32>,
    total_lines: u64,
}

impl SubtreeLayout {
    /// Creates a layout for a tree whose level `l` buckets hold
    /// `z_per_level[l]` blocks, grouping `group_height` levels per subtree.
    ///
    /// Levels with `Z = 0` (e.g. a tree top that lives entirely on-chip under
    /// IR-Alloc) occupy no memory; addressing them panics.
    ///
    /// # Panics
    ///
    /// Panics if `z_per_level` is empty or `group_height == 0`.
    pub fn new(z_per_level: &[u32], group_height: u32) -> Self {
        assert!(!z_per_level.is_empty(), "tree must have at least one level");
        assert!(group_height > 0, "group height must be nonzero");
        let levels = z_per_level.len();
        let g = group_height as usize;
        let mut group_base = vec![0u64; levels];
        let mut subtree_size = vec![0u64; levels];
        let mut level_offset = vec![0u64; levels];
        let mut depth_in_group = vec![0u32; levels];
        let mut base = 0u64;
        let mut s = 0usize;
        while s < levels {
            let end = (s + g).min(levels);
            // Size of one subtree rooted at level s.
            let mut size = 0u64;
            for l in s..end {
                level_offset[l] = size;
                depth_in_group[l] = (l - s) as u32;
                size += (1u64 << (l - s)) * z_per_level[l] as u64;
            }
            for l in s..end {
                group_base[l] = base;
                subtree_size[l] = size;
            }
            base += size * (1u64 << s);
            s = end;
        }
        SubtreeLayout {
            z_per_level: z_per_level.to_vec(),
            group_height,
            group_base,
            subtree_size,
            level_offset,
            depth_in_group,
            total_lines: base,
        }
    }

    /// Number of tree levels.
    pub fn levels(&self) -> usize {
        self.z_per_level.len()
    }

    /// The `Z` value (bucket slot count) of `level`.
    pub fn z_of(&self, level: usize) -> u32 {
        self.z_per_level[level]
    }

    /// Total memory footprint in cache lines.
    pub fn total_lines(&self) -> u64 {
        self.total_lines
    }

    /// Line address of `slot` of bucket `bucket` (index within its level) at
    /// `level`.
    ///
    /// # Panics
    ///
    /// Panics if coordinates are out of range or the level has `Z = 0`.
    pub fn slot_addr(&self, level: usize, bucket: u64, slot: u32) -> u64 {
        let z = self.z_per_level[level];
        assert!(z > 0, "level {level} is not memory-backed (Z=0)");
        assert!(slot < z, "slot {slot} out of range for Z={z}");
        assert!(
            bucket < (1u64 << level),
            "bucket {bucket} out of range at level {level}"
        );
        let d = self.depth_in_group[level];
        let root_idx = bucket >> d;
        let within = bucket & ((1u64 << d) - 1);
        self.group_base[level]
            + root_idx * self.subtree_size[level]
            + self.level_offset[level]
            + within * z as u64
            + slot as u64
    }

    /// Bucket index at `level` on the path to `leaf` (a value in
    /// `[0, 2^(levels-1))`).
    #[inline]
    pub fn path_bucket(&self, leaf: u64, level: usize) -> u64 {
        leaf >> (self.levels() - 1 - level)
    }

    /// All slot addresses on the path to `leaf`, for levels in
    /// `[from_level, levels)`, skipping levels with `Z = 0`.
    ///
    /// The `from_level` parameter models a tree-top cache: cached levels
    /// produce no memory traffic.
    pub fn path_slots(&self, leaf: u64, from_level: usize) -> Vec<u64> {
        let mut out = Vec::new();
        for level in from_level..self.levels() {
            let z = self.z_per_level[level];
            if z == 0 {
                continue;
            }
            let bucket = self.path_bucket(leaf, level);
            let base = self.slot_addr(level, bucket, 0);
            out.extend(base..base + z as u64);
        }
        out
    }

    /// Number of blocks a path access touches in memory from `from_level`
    /// down (the paper's "PL" metric, e.g. 43 for IR-Alloc1).
    pub fn path_len(&self, from_level: usize) -> u64 {
        self.z_per_level[from_level.min(self.levels())..]
            .iter()
            .map(|&z| z as u64)
            .sum()
    }

    /// Precomputes the path→line-address fill table for paths addressed
    /// from `from_level` down.
    ///
    /// The subtree layout is fixed at construction, so everything about a
    /// path's addresses except the leaf is static: per memory-backed level,
    /// the leaf→bucket shift, the bucket→subtree split, and the combined
    /// base offset. [`PathTable::lines`] then generates a whole path's
    /// lines with two shifts, a mask and two multiplies per level — no
    /// asserts, no allocation.
    pub fn path_table(&self, from_level: usize) -> PathTable {
        let mut rows = Vec::new();
        let mut path_len = 0usize;
        for level in from_level..self.levels() {
            let z = self.z_per_level[level];
            if z == 0 {
                continue;
            }
            rows.push(PathRow {
                shift: (self.levels() - 1 - level) as u32,
                depth: self.depth_in_group[level],
                base: self.group_base[level] + self.level_offset[level],
                subtree_size: self.subtree_size[level],
                z,
            });
            path_len += z as usize;
        }
        PathTable { rows, path_len }
    }
}

/// Per-level precomputed constants for one memory-backed level of a
/// [`PathTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PathRow {
    /// `levels - 1 - level`: shifts a leaf down to this level's bucket.
    shift: u32,
    /// Depth of the level inside its subtree group.
    depth: u32,
    /// `group_base + level_offset`, folded into one constant.
    base: u64,
    /// Lines per subtree of this level's group.
    subtree_size: u64,
    /// Bucket slot count at this level.
    z: u32,
}

/// A precomputed path→line-address table (see
/// [`SubtreeLayout::path_table`]): turns per-access address arithmetic into
/// a table fill over reused buffers. Produces exactly the addresses of
/// [`SubtreeLayout::path_slots`], in the same order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathTable {
    rows: Vec<PathRow>,
    path_len: usize,
}

impl PathTable {
    /// Number of lines one path access touches (the paper's "PL").
    pub fn path_len(&self) -> usize {
        self.path_len
    }

    /// True when the paths to `leaf_a` and `leaf_b` touch at least one
    /// common **memory-backed** bucket — the bucket-sharing condition a
    /// k-deep access pipeline must treat as a conflict (two overlapped
    /// accesses to a shared bucket would race on its slots).
    ///
    /// Sharing at any memory level implies sharing at the shallowest one
    /// (paths that diverge never re-converge), so a single shift compare at
    /// the first memory-backed row decides it. Levels above `from_level` or
    /// with `Z = 0` live on-chip and cannot conflict; a fully on-chip table
    /// reports no conflicts.
    pub fn paths_share_memory_bucket(&self, leaf_a: u64, leaf_b: u64) -> bool {
        match self.rows.first() {
            Some(top) => (leaf_a >> top.shift) == (leaf_b >> top.shift),
            None => false,
        }
    }

    /// The line addresses of the path to `leaf`, root first, each
    /// displaced by `offset` (ρ's small tree lives after the main tree's
    /// region): the lines [`DramSystem::schedule_path`] and
    /// [`DramSystem::schedule_lines`] take. `leaf` must be below the
    /// tree's leaf count.
    ///
    /// [`DramSystem::schedule_path`]: crate::DramSystem::schedule_path
    /// [`DramSystem::schedule_lines`]: crate::DramSystem::schedule_lines
    pub fn lines(&self, leaf: u64, offset: u64) -> impl Iterator<Item = u64> + '_ {
        self.rows.iter().flat_map(move |r| {
            let bucket = leaf >> r.shift;
            let root = bucket >> r.depth;
            let within = bucket & ((1u64 << r.depth) - 1);
            let base = offset + r.base + root * r.subtree_size + within * r.z as u64;
            base..base + r.z as u64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn uniform_tree_total() {
        let l = SubtreeLayout::new(&[4; 5], 3);
        assert_eq!(l.total_lines(), 4 * 31);
    }

    #[test]
    fn addresses_are_unique_and_dense() {
        let layout = SubtreeLayout::new(&[4, 4, 2, 2, 3, 4], 2);
        let mut seen = HashSet::new();
        for level in 0..layout.levels() {
            for bucket in 0..(1u64 << level) {
                for slot in 0..layout.z_of(level) {
                    let a = layout.slot_addr(level, bucket, slot);
                    assert!(a < layout.total_lines());
                    assert!(seen.insert(a), "duplicate address {a}");
                }
            }
        }
        assert_eq!(seen.len() as u64, layout.total_lines());
    }

    #[test]
    fn path_bucket_heap_walk() {
        let layout = SubtreeLayout::new(&[4; 4], 2);
        // leaf index 0b101 = 5 of 8.
        assert_eq!(layout.path_bucket(5, 0), 0);
        assert_eq!(layout.path_bucket(5, 1), 1);
        assert_eq!(layout.path_bucket(5, 2), 2);
        assert_eq!(layout.path_bucket(5, 3), 5);
    }

    #[test]
    fn path_slots_skip_cached_and_zero_levels() {
        let layout = SubtreeLayout::new(&[0, 0, 2, 4], 2);
        let p = layout.path_slots(3, 0);
        assert_eq!(p.len(), 6);
        let p2 = layout.path_slots(3, 3);
        assert_eq!(p2.len(), 4);
        assert_eq!(layout.path_len(0), 6);
        assert_eq!(layout.path_len(2), 6);
        assert_eq!(layout.path_len(3), 4);
    }

    #[test]
    fn paper_pl_arithmetic() {
        // Paper Section IV-B: Z=0 for [0,9], Z=2 for [10,16], Z=3 for
        // [17,19], Z=4 for [20,24] gives PL=43.
        let mut z = vec![0u32; 25];
        z[10..=16].fill(2);
        z[17..=19].fill(3);
        z[20..=24].fill(4);
        let layout = SubtreeLayout::new(&z, 4);
        assert_eq!(layout.path_len(0), 43);
        // Baseline with 10-level top cache: 15 × 4 = 60.
        let base = SubtreeLayout::new(&[4u32; 25], 4);
        assert_eq!(base.path_len(10), 60);
        assert_eq!(base.path_len(0), 100);
    }

    #[test]
    fn subtree_is_contiguous() {
        // With group height 3 and uniform Z, the slots of one subtree
        // (root level 3 tree of depth 3) must be contiguous.
        let layout = SubtreeLayout::new(&[4; 6], 3);
        // Group for levels 3..6; subtree of root bucket 2 at level 3.
        let mut addrs = Vec::new();
        for level in 3..6 {
            let first = 2u64 << (level - 3);
            let count = 1u64 << (level - 3);
            for b in first..first + count {
                for s in 0..4 {
                    addrs.push(layout.slot_addr(level, b, s));
                }
            }
        }
        addrs.sort_unstable();
        let lo = addrs[0];
        let expect: Vec<u64> = (lo..lo + addrs.len() as u64).collect();
        assert_eq!(addrs, expect, "subtree not contiguous");
    }

    #[test]
    fn path_visits_one_subtree_per_group() {
        // A path within one group touches exactly one subtree, so its
        // addresses within the group span at most subtree_size lines.
        let layout = SubtreeLayout::new(&[4; 9], 3);
        let leaf = 0b1011_0110 & 0xff;
        for group_start in [0usize, 3, 6] {
            let mut addrs = Vec::new();
            for level in group_start..group_start + 3 {
                let b = layout.path_bucket(leaf, level);
                for s in 0..4 {
                    addrs.push(layout.slot_addr(level, b, s));
                }
            }
            let span = addrs.iter().max().unwrap() - addrs.iter().min().unwrap();
            assert!(
                span < 4 * 7,
                "group at {group_start} spans {span} lines (> one subtree)"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not memory-backed")]
    fn zero_level_addressing_panics() {
        let layout = SubtreeLayout::new(&[0, 4], 2);
        let _ = layout.slot_addr(0, 0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bucket_bounds_checked() {
        let layout = SubtreeLayout::new(&[4, 4], 2);
        let _ = layout.slot_addr(1, 2, 0);
    }

    #[test]
    fn path_table_matches_path_slots() {
        let shapes: [(&[u32], u32, usize); 4] = [
            (&[4, 4, 4, 4, 4, 4], 2, 0),
            (&[0, 0, 2, 4, 4], 2, 0),
            (&[4, 4, 2, 2, 3, 4], 3, 2),
            (&[4; 9], 4, 0),
        ];
        for (z, g, from) in shapes {
            let layout = SubtreeLayout::new(z, g);
            let table = layout.path_table(from);
            assert_eq!(table.path_len() as u64, layout.path_len(from));
            for leaf in 0..(1u64 << (layout.levels() - 1)) {
                let expect = layout.path_slots(leaf, from);
                let got: Vec<u64> = table.lines(leaf, 0).collect();
                assert_eq!(got, expect, "leaf {leaf} of {z:?} group {g} from {from}");
            }
        }
    }

    #[test]
    fn bucket_sharing_matches_address_intersection() {
        // The shift-compare fast path must agree with literally
        // intersecting the two paths' address sets, for every leaf pair.
        let shapes: [(&[u32], u32, usize); 3] = [
            (&[4, 4, 4, 4, 4], 2, 0),
            (&[0, 0, 2, 4, 4], 2, 0),
            (&[4; 6], 3, 2),
        ];
        for (z, g, from) in shapes {
            let layout = SubtreeLayout::new(z, g);
            let table = layout.path_table(from);
            let leaves = 1u64 << (layout.levels() - 1);
            for a in 0..leaves {
                let sa: HashSet<u64> = layout.path_slots(a, from).into_iter().collect();
                for b in 0..leaves {
                    let sb: HashSet<u64> = layout.path_slots(b, from).into_iter().collect();
                    let expect = !sa.is_disjoint(&sb);
                    assert_eq!(
                        table.paths_share_memory_bucket(a, b),
                        expect,
                        "leaves {a},{b} of {z:?} from {from}"
                    );
                }
            }
        }
    }

    #[test]
    fn fully_cached_table_never_conflicts() {
        let layout = SubtreeLayout::new(&[4, 4, 4], 2);
        let table = layout.path_table(3);
        assert!(!table.paths_share_memory_bucket(0, 0));
    }

    #[test]
    fn path_table_offset_displaces_all_addresses() {
        let layout = SubtreeLayout::new(&[4; 5], 2);
        let table = layout.path_table(0);
        let shifted: Vec<u64> = table.lines(9, 0).map(|line| line + 1000).collect();
        let got: Vec<u64> = table.lines(9, 1000).collect();
        assert_eq!(got, shifted);
    }
}
