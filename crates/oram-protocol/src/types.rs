//! Core protocol value types.

use iroram_sim_engine::{SnapError, SnapReader, SnapWriter};
use std::fmt;

use crate::TreeLayout;

/// A block address in the unified (Freecursive-merged) block address space.
///
/// Data blocks occupy `[0, n_data)`; PosMap₁ blocks follow them; PosMap₂
/// blocks follow those (see [`crate::AddressSpace`]). One block = one 64 B
/// cache line in the paper's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk#{}", self.0)
    }
}

impl From<u64> for BlockAddr {
    fn from(v: u64) -> Self {
        BlockAddr(v)
    }
}

/// A path identifier: the index of a leaf bucket, in `[0, 2^(L-1))` for an
/// `L`-level tree. Accessing path `l` touches every bucket from the root to
/// leaf `l`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Leaf(pub u64);

impl fmt::Display for Leaf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "leaf#{}", self.0)
    }
}

impl From<u64> for Leaf {
    fn from(v: u64) -> Self {
        Leaf(v)
    }
}

/// What role a block address plays in the Freecursive-merged tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// User data block.
    Data,
    /// First-level position-map block (maps 16 data blocks to leaves).
    PosMap1,
    /// Second-level position-map block (maps 16 PosMap₁ blocks to leaves).
    PosMap2,
}

/// A block as stored in the stash, tree, or tree-top cache.
///
/// The `payload` carries user data through the protocol so correctness tests
/// can verify read-your-writes end to end; it is stored "encrypted" (a keyed
/// permutation) inside the tree by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredBlock {
    /// The block's address.
    pub addr: BlockAddr,
    /// The path the block is currently mapped to.
    pub leaf: Leaf,
    /// 64-bit payload standing in for the 64 B line contents.
    pub payload: u64,
}

impl StoredBlock {
    /// Fixed serialized size in bytes (three `u64` fields).
    pub const SNAP_BYTES: usize = 24;

    /// Serializes the block for a checkpoint.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_u64(self.addr.0);
        w.put_u64(self.leaf.0);
        w.put_u64(self.payload);
    }

    /// Reads one block back from a checkpoint payload.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] on a truncated payload.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(StoredBlock {
            addr: BlockAddr(r.take_u64()?),
            leaf: Leaf(r.take_u64()?),
            payload: r.take_u64()?,
        })
    }

    /// [`StoredBlock::restore_state`] for a block held by a tree of
    /// `layout`: a leaf past the last one (no path reaches it) or an
    /// address of `u32::MAX` or more (no placement key or arena slot holds
    /// it) is rejected, since no path access could run on such a block.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] for such a block; any [`SnapError`] on a
    /// truncated payload.
    pub fn restore_within(r: &mut SnapReader<'_>, layout: &TreeLayout) -> Result<Self, SnapError> {
        let b = StoredBlock::restore_state(r)?;
        // lint: allow(secret-flow, checkpoint decoding: a corrupt snapshot is rejected before any path access runs)
        if b.leaf.0 >= layout.num_leaves() {
            return Err(SnapError::Corrupt("block mapped past the last leaf"));
        }
        if b.addr.0 >= u64::from(u32::MAX) {
            return Err(SnapError::Corrupt("block address too wide"));
        }
        Ok(b)
    }
}

/// The externally observable classification of one ORAM path access.
///
/// *Inside* the trusted controller these types exist; *outside* they are
/// indistinguishable (Section III-A: "an attacker cannot determine the type
/// of a particular path access outside of the TCB"). The obliviousness tests
/// assert that the externally visible trace — leaf choice and per-level
/// block counts — has the same distribution for every variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathType {
    /// `PT_p` fetching a PosMap₁ block (paper's "Pos1").
    Pos1,
    /// `PT_p` fetching a PosMap₂ block (paper's "Pos2").
    Pos2,
    /// `PT_d` fetching the requested data block.
    Data,
    /// A background-eviction path draining the stash (Ren et al. \[25\]).
    BgEvict,
    /// `PT_m` dummy path inserted for timing protection.
    Dummy,
    /// A dummy slot converted by IR-DWB into useful early write-back work.
    DwbConverted,
}

/// One path access performed by the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathRecord {
    /// The leaf (path ID) accessed.
    pub leaf: Leaf,
    /// The internal type of the access.
    pub ptype: PathType,
}

/// A small list of [`PathRecord`]s with inline storage.
///
/// Every logical access returns its performed paths by value; a `Vec`
/// here meant one heap allocation per access on the simulator's hottest
/// boundary. A record is 16 bytes and an access performs at most
/// `1 (data) + 2 (PosMap) + max_bg_evicts_per_access` paths, so the list
/// stays inline in practice and only spills to the heap beyond
/// [`PathList::INLINE`] entries. Dereferences to `[PathRecord]`, so slice
/// reads (`first`, `len`, indexing, iteration) look exactly like the old
/// `Vec` field.
#[derive(Clone)]
pub struct PathList {
    len: u8,
    inline: [PathRecord; Self::INLINE],
    spill: Vec<PathRecord>,
}

impl PathList {
    /// Inline capacity; pushes beyond this move the list to the heap.
    pub const INLINE: usize = 12;

    const FILLER: PathRecord = PathRecord {
        leaf: Leaf(0),
        ptype: PathType::Dummy,
    };

    /// An empty list (no allocation).
    pub fn new() -> Self {
        PathList {
            len: 0,
            inline: [Self::FILLER; Self::INLINE],
            spill: Vec::new(),
        }
    }

    /// A one-element list (no allocation).
    pub fn one(rec: PathRecord) -> Self {
        let mut l = Self::new();
        l.push(rec);
        l
    }

    /// Appends a record.
    pub fn push(&mut self, rec: PathRecord) {
        if !self.spill.is_empty() {
            self.spill.push(rec);
        } else if (self.len as usize) < Self::INLINE {
            self.inline[self.len as usize] = rec;
            self.len += 1;
        } else {
            // Spill: move everything to the heap and continue there.
            self.spill.extend_from_slice(&self.inline);
            self.spill.push(rec);
            self.len = 0;
        }
    }

    fn as_slice(&self) -> &[PathRecord] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }
}

impl Default for PathList {
    fn default() -> Self {
        PathList::new()
    }
}

impl std::ops::Deref for PathList {
    type Target = [PathRecord];

    fn deref(&self) -> &[PathRecord] {
        self.as_slice()
    }
}

impl std::fmt::Debug for PathList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

// Manual equality over the live prefix: the unused inline tail holds
// stale filler that must not participate.
impl PartialEq for PathList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PathList {}

impl Extend<PathRecord> for PathList {
    fn extend<T: IntoIterator<Item = PathRecord>>(&mut self, iter: T) {
        for r in iter {
            self.push(r);
        }
    }
}

impl IntoIterator for PathList {
    type Item = PathRecord;
    type IntoIter = PathListIter;

    fn into_iter(self) -> PathListIter {
        PathListIter { list: self, pos: 0 }
    }
}

impl<'a> IntoIterator for &'a PathList {
    type Item = &'a PathRecord;
    type IntoIter = std::slice::Iter<'a, PathRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// By-value iterator over a [`PathList`].
#[derive(Debug)]
pub struct PathListIter {
    list: PathList,
    pos: usize,
}

impl Iterator for PathListIter {
    type Item = PathRecord;

    fn next(&mut self) -> Option<PathRecord> {
        let r = self.list.as_slice().get(self.pos).copied();
        self.pos += r.is_some() as usize;
        r
    }
}

/// Where a requested block was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedFrom {
    /// The small fully-associative stash (F-Stash).
    FStash,
    /// The set-associative S-Stash, hit by block address (IR-Stash only).
    SStash,
    /// The on-chip tree-top store, found after PosMap resolution.
    TreeTop {
        /// The cached tree level the block was found at.
        level: usize,
    },
    /// The in-memory portion of the ORAM tree.
    Tree {
        /// The tree level the block was found at.
        level: usize,
    },
    /// The block is escrowed outside the ORAM (delayed-remap policy: the
    /// LLC holds the only copy).
    Escrow,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(BlockAddr(7).to_string(), "blk#7");
        assert_eq!(Leaf(3).to_string(), "leaf#3");
    }

    #[test]
    fn conversions() {
        assert_eq!(BlockAddr::from(4u64), BlockAddr(4));
        assert_eq!(Leaf::from(9u64), Leaf(9));
    }
}
