//! Logical geometry of the ORAM tree.

use crate::{Leaf, ZAllocation};

/// The logical geometry of an ORAM tree: level count, per-level bucket
/// capacities, and path arithmetic.
///
/// "Logical" means on-chip-cached top levels keep their real capacities here
/// (they hold blocks, just not in memory); the memory-side view with cached
/// levels zeroed is produced by [`TreeLayout::memory_z`] for the DRAM layout.
///
/// # Examples
///
/// ```
/// use iroram_protocol::{TreeLayout, ZAllocation, Leaf};
/// let layout = TreeLayout::new(ZAllocation::uniform(4, 4));
/// assert_eq!(layout.levels(), 4);
/// assert_eq!(layout.num_leaves(), 8);
/// assert_eq!(layout.bucket_on_path(Leaf(5), 3), 5);
/// assert_eq!(layout.common_depth(Leaf(5), Leaf(4)), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeLayout {
    zalloc: ZAllocation,
    level_base: Vec<u64>,
    total_slots: u64,
}

impl TreeLayout {
    /// Creates a layout from a per-level allocation.
    pub fn new(zalloc: ZAllocation) -> Self {
        let levels = zalloc.levels();
        let mut level_base = Vec::with_capacity(levels);
        let mut acc = 0u64;
        for l in 0..levels {
            level_base.push(acc);
            acc += (1u64 << l) * zalloc.z_of(l) as u64;
        }
        TreeLayout {
            zalloc,
            level_base,
            total_slots: acc,
        }
    }

    /// Number of levels `L` (root is level 0, leaves level `L-1`).
    pub fn levels(&self) -> usize {
        self.zalloc.levels()
    }

    /// The per-level allocation.
    pub fn zalloc(&self) -> &ZAllocation {
        &self.zalloc
    }

    /// Bucket capacity at `level`.
    #[inline]
    pub fn z_of(&self, level: usize) -> u32 {
        self.zalloc.z_of(level)
    }

    /// Number of leaf buckets, `2^(L-1)`.
    pub fn num_leaves(&self) -> u64 {
        1u64 << (self.levels() - 1)
    }

    /// Total logical slot count across all levels.
    pub fn total_slots(&self) -> u64 {
        self.total_slots
    }

    /// Slot count at one level (`2^level × Z_level`).
    pub fn slots_at(&self, level: usize) -> u64 {
        (1u64 << level) * self.z_of(level) as u64
    }

    /// The bucket index (within its level) on the path to `leaf` at `level`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `leaf` or `level` is out of range.
    #[inline]
    pub fn bucket_on_path(&self, leaf: Leaf, level: usize) -> u64 {
        debug_assert!(leaf.0 < self.num_leaves());
        debug_assert!(level < self.levels());
        leaf.0 >> (self.levels() - 1 - level)
    }

    /// Flat index of `(level, bucket, slot)` into a dense slot array.
    #[inline]
    pub fn slot_index(&self, level: usize, bucket: u64, slot: u32) -> usize {
        debug_assert!(slot < self.z_of(level));
        (self.level_base[level] + bucket * self.z_of(level) as u64 + slot as u64) as usize
    }

    /// The deepest level at which the paths to `a` and `b` share a bucket.
    ///
    /// Both paths always share the root (level 0); identical leaves share
    /// all `L` levels, returning `L-1`. This is the quantity that decides
    /// how deep a stash block can be written back on another path, computed
    /// in O(1) from the XOR of the leaf indices.
    #[inline]
    pub fn common_depth(&self, a: Leaf, b: Leaf) -> usize {
        let lvl = self.levels() - 1;
        let x = a.0 ^ b.0;
        if x == 0 {
            lvl
        } else {
            // Highest differing bit position within the leaf-index width.
            let hb = 63 - x.leading_zeros() as usize;
            lvl - 1 - hb
        }
    }

    /// The memory-side per-level capacities: logical `Z` with the top
    /// `cached_levels` zeroed (those buckets live on-chip).
    pub fn memory_z(&self, cached_levels: usize) -> Vec<u32> {
        (0..self.levels())
            .map(|l| if l < cached_levels { 0 } else { self.z_of(l) })
            .collect()
    }

    /// Blocks a path access reads from memory when the top `cached_levels`
    /// are on-chip (the paper's per-path block count "PL").
    pub fn path_len_memory(&self, cached_levels: usize) -> u64 {
        (cached_levels..self.levels())
            .map(|l| self.z_of(l) as u64)
            .sum()
    }
}

// A placement sort key: the inverse common depth of a block's leaf with
// the path's (6 bits), then the block's address (32), then its index among
// the caller's candidates (26). Ascending keys are the Path ORAM placement
// order, deepest common depth first and ascending address within a depth,
// so one `u64` sort puts every candidate of a path in it.
const KEY_DEPTH_SHIFT: u32 = 58;
const KEY_ADDR_SHIFT: u32 = 26;
const KEY_INDEX_MASK: u64 = (1 << KEY_ADDR_SHIFT) - 1;

/// The placement key of candidate `index`, block `addr` mapped to
/// `block_leaf`, on the path to `path_leaf`.
#[inline]
pub(crate) fn placement_key(block_leaf: u64, path_leaf: Leaf, addr: u64, index: usize) -> u64 {
    // `levels - 1 - common_depth` is the bit length of the XOR.
    let inverse_depth = 64 - (block_leaf ^ path_leaf.0).leading_zeros();
    debug_assert!(
        addr < u64::from(u32::MAX),
        "address {addr} too wide for the key"
    );
    debug_assert!(
        index as u64 <= KEY_INDEX_MASK,
        "too many candidates for the key"
    );
    u64::from(inverse_depth) << KEY_DEPTH_SHIFT | addr << KEY_ADDR_SHIFT | index as u64
}

/// The leaf bits a placement key's block may differ from the path's leaf
/// in: `L - 1 -` its common depth with the path.
#[inline]
pub(crate) fn key_spread(key: u64) -> u32 {
    (key >> KEY_DEPTH_SHIFT) as u32
}

/// Placement keys below this bound belong to blocks whose leaves differ
/// from the path's in the low `spread` bits at most.
#[inline]
pub(crate) fn spread_bound(spread: u32) -> u64 {
    (u64::from(spread) + 1) << KEY_DEPTH_SHIFT
}

/// The candidate index a placement key was built with.
#[inline]
pub(crate) fn key_index(key: u64) -> usize {
    (key & KEY_INDEX_MASK) as usize
}

impl TreeLayout {
    /// Placement keys below this bound belong to blocks whose common depth
    /// with the path is `level` or more: the blocks `level`'s bucket on the
    /// path may take.
    #[inline]
    pub(crate) fn placement_bound(&self, level: usize) -> u64 {
        spread_bound((self.levels() - 1 - level) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(levels: usize, z: u32) -> TreeLayout {
        TreeLayout::new(ZAllocation::uniform(levels, z))
    }

    #[test]
    fn geometry_uniform() {
        let t = uniform(5, 4);
        assert_eq!(t.levels(), 5);
        assert_eq!(t.num_leaves(), 16);
        assert_eq!(t.total_slots(), 4 * 31);
        assert_eq!(t.slots_at(0), 4);
        assert_eq!(t.slots_at(4), 64);
    }

    #[test]
    fn bucket_walk_matches_bits() {
        let t = uniform(4, 4);
        // leaf 6 = 0b110 → buckets 0, 1, 3, 6.
        assert_eq!(t.bucket_on_path(Leaf(6), 0), 0);
        assert_eq!(t.bucket_on_path(Leaf(6), 1), 1);
        assert_eq!(t.bucket_on_path(Leaf(6), 2), 3);
        assert_eq!(t.bucket_on_path(Leaf(6), 3), 6);
    }

    #[test]
    fn slot_index_dense_and_unique() {
        let t = TreeLayout::new(ZAllocation::uniform(4, 3));
        let mut seen = std::collections::HashSet::new();
        for l in 0..4 {
            for b in 0..(1u64 << l) {
                for s in 0..3 {
                    assert!(seen.insert(t.slot_index(l, b, s)));
                }
            }
        }
        assert_eq!(seen.len() as u64, t.total_slots());
        assert_eq!(
            seen.iter().max().copied().unwrap() as u64,
            t.total_slots() - 1
        );
    }

    #[test]
    fn common_depth_brute_force_agreement() {
        let t = uniform(6, 4);
        for a in 0..t.num_leaves() {
            for b in 0..t.num_leaves() {
                let mut expect = 0;
                for l in 0..t.levels() {
                    if t.bucket_on_path(Leaf(a), l) == t.bucket_on_path(Leaf(b), l) {
                        expect = l;
                    } else {
                        break;
                    }
                }
                assert_eq!(t.common_depth(Leaf(a), Leaf(b)), expect, "leaves {a},{b}");
            }
        }
    }

    #[test]
    fn common_depth_same_leaf_is_leaf_level() {
        let t = uniform(8, 4);
        assert_eq!(t.common_depth(Leaf(99), Leaf(99)), 7);
        // Leaves differing in the top bit share only the root.
        assert_eq!(t.common_depth(Leaf(0), Leaf(64)), 0);
    }

    #[test]
    fn memory_view_zeroes_cached_top() {
        let t = uniform(5, 4);
        assert_eq!(t.memory_z(2), vec![0, 0, 4, 4, 4]);
        assert_eq!(t.path_len_memory(2), 12);
        assert_eq!(t.path_len_memory(0), 20);
    }

    #[test]
    fn variable_z_levels() {
        let t = TreeLayout::new(ZAllocation::from_z(vec![4, 4, 2, 3]));
        assert_eq!(t.z_of(2), 2);
        assert_eq!(t.total_slots(), 4 + 8 + 8 + 24);
        assert_eq!(t.path_len_memory(0), 13);
    }
}
