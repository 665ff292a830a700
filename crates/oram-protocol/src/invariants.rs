//! Protocol invariant checking.
//!
//! Path ORAM's correctness rests on two structural invariants (Stefanov et
//! al. \[27\]):
//!
//! 1. **Single residence** — every mapped block exists in exactly one place:
//!    the in-memory tree, the tree-top store, or the stash. Escrowed blocks
//!    (delayed remap) exist nowhere in the ORAM.
//! 2. **Path consistency** — a block stored at `(level, bucket)` lies on
//!    the path to its mapped leaf, and its recorded leaf matches the
//!    position map.
//!
//! The checker walks the whole structure (O(total slots)), so it is meant
//! for tests and property-based fuzzing, not hot loops.

use std::collections::BTreeMap;
use std::fmt;

use crate::{BlockAddr, PathOram};

/// A violated protocol invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantError {
    /// A block appears in more than one place.
    DuplicateResidence {
        /// The offending block.
        addr: BlockAddr,
        /// Human-readable locations.
        first: String,
        /// Second location found.
        second: String,
    },
    /// A stored block is not on the path to its mapped leaf.
    OffPath {
        /// The offending block.
        addr: BlockAddr,
        /// Level it was found at.
        level: usize,
        /// Bucket it was found in.
        bucket: u64,
    },
    /// A stored block's leaf disagrees with the position map.
    LeafMismatch {
        /// The offending block.
        addr: BlockAddr,
    },
    /// A mapped block was not found anywhere.
    Missing {
        /// The missing block.
        addr: BlockAddr,
    },
    /// An escrowed block was found inside the ORAM.
    EscrowedButStored {
        /// The offending block.
        addr: BlockAddr,
    },
    /// A bucket holds more blocks than its level's `Z` allocation allows
    /// (the IR-Alloc per-level bound).
    BucketOverflow {
        /// Level of the overflowing bucket.
        level: usize,
        /// Bucket index within the level.
        bucket: u64,
        /// Blocks found in the bucket.
        len: usize,
        /// The level's configured `Z`.
        cap: u32,
    },
    /// The tree-top store's internal indices are incoherent (e.g. a
    /// dangling or duplicated S-Stash TT pointer).
    StoreIncoherent {
        /// Description from the store's self-check.
        detail: String,
    },
}

impl fmt::Display for InvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantError::DuplicateResidence {
                addr,
                first,
                second,
            } => {
                write!(f, "{addr} resides in both {first} and {second}")
            }
            InvariantError::OffPath {
                addr,
                level,
                bucket,
            } => write!(
                f,
                "{addr} stored at level {level} bucket {bucket} is off its mapped path"
            ),
            InvariantError::LeafMismatch { addr } => {
                write!(f, "{addr} stored leaf disagrees with the position map")
            }
            InvariantError::Missing { addr } => write!(f, "mapped block {addr} not found"),
            InvariantError::EscrowedButStored { addr } => {
                write!(f, "escrowed block {addr} still stored in the ORAM")
            }
            InvariantError::BucketOverflow {
                level,
                bucket,
                len,
                cap,
            } => write!(
                f,
                "bucket at level {level} index {bucket} holds {len} blocks, Z allows {cap}"
            ),
            InvariantError::StoreIncoherent { detail } => {
                write!(f, "tree-top store incoherent: {detail}")
            }
        }
    }
}

impl std::error::Error for InvariantError {}

impl PathOram {
    /// Verifies the structural invariants, returning the first violation.
    ///
    /// # Errors
    ///
    /// Returns an [`InvariantError`] describing the first inconsistency
    /// found; `Ok(())` when the structure is sound.
    pub fn check_invariants(&self) -> Result<(), InvariantError> {
        let layout = self.layout();
        let mut seen: BTreeMap<u64, String> = BTreeMap::new();
        let mut record = |addr: BlockAddr, place: String| -> Result<(), InvariantError> {
            if let Some(first) = seen.insert(addr.0, place.clone()) {
                return Err(InvariantError::DuplicateResidence {
                    addr,
                    first,
                    second: place,
                });
            }
            Ok(())
        };

        // Tree blocks: position + leaf consistency + per-level Z bounds.
        let mut bucket_fill: BTreeMap<(usize, u64), usize> = BTreeMap::new();
        for (level, bucket, block) in self.tree().iter_blocks() {
            record(block.addr, format!("tree L{level}/B{bucket}"))?;
            let fill = bucket_fill.entry((level, bucket)).or_insert(0);
            *fill += 1;
            if *fill > layout.z_of(level) as usize {
                return Err(InvariantError::BucketOverflow {
                    level,
                    bucket,
                    len: *fill,
                    cap: layout.z_of(level),
                });
            }
            if layout.bucket_on_path(block.leaf, level) != bucket {
                return Err(InvariantError::OffPath {
                    addr: block.addr,
                    level,
                    bucket,
                });
            }
            if self.posmap().leaf_of(block.addr) != Some(block.leaf) {
                return Err(InvariantError::LeafMismatch { addr: block.addr });
            }
        }
        // Tree-top blocks: same position/leaf checks plus the store's own
        // deep coherence (S-Stash TT↔entry agreement, Z bounds).
        if let Some(top) = self.treetop_store() {
            if let Err(detail) = top.check_coherence() {
                return Err(InvariantError::StoreIncoherent { detail });
            }
            let mut top_fill: BTreeMap<(usize, u64), usize> = BTreeMap::new();
            for (level, bucket, block) in top.blocks() {
                record(block.addr, format!("top L{level}/B{bucket}"))?;
                let fill = top_fill.entry((level, bucket)).or_insert(0);
                *fill += 1;
                if *fill > layout.z_of(level) as usize {
                    return Err(InvariantError::BucketOverflow {
                        level,
                        bucket,
                        len: *fill,
                        cap: layout.z_of(level),
                    });
                }
                if layout.bucket_on_path(block.leaf, level) != bucket {
                    return Err(InvariantError::OffPath {
                        addr: block.addr,
                        level,
                        bucket,
                    });
                }
                if self.posmap().leaf_of(block.addr) != Some(block.leaf) {
                    return Err(InvariantError::LeafMismatch { addr: block.addr });
                }
            }
        }
        // Stash blocks (leaf must agree with the map; position free).
        for block in self.stash().iter() {
            record(block.addr, "stash".to_owned())?;
            if self.posmap().leaf_of(block.addr) != Some(block.leaf) {
                return Err(InvariantError::LeafMismatch { addr: block.addr });
            }
        }
        // Escrow: must NOT be stored, and must be unmapped.
        for addr in self.escrowed() {
            if seen.contains_key(&addr.0) {
                return Err(InvariantError::EscrowedButStored { addr });
            }
            seen.insert(addr.0, "escrow".to_owned());
        }
        // Completeness: every block address is somewhere.
        for a in 0..self.posmap().space().total_blocks() {
            if !seen.contains_key(&a) {
                return Err(InvariantError::Missing { addr: BlockAddr(a) });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OramConfig, PathOram, RemapPolicy, TreeTopMode};

    #[test]
    fn fresh_oram_is_sound() {
        let oram = PathOram::new(OramConfig::tiny());
        oram.check_invariants().unwrap();
    }

    #[test]
    fn invariants_hold_across_workloads() {
        for treetop in [
            TreeTopMode::None,
            TreeTopMode::Dedicated { levels: 3 },
            TreeTopMode::IrStash {
                levels: 3,
                sets: 16,
                ways: 4,
            },
        ] {
            for remap in [RemapPolicy::Immediate, RemapPolicy::Delayed] {
                let cfg = OramConfig {
                    treetop,
                    remap,
                    ..OramConfig::tiny()
                };
                let mut oram = PathOram::new(cfg);
                for i in 0..200u64 {
                    oram.run_access(crate::BlockAddr((i * 37) % 256), Some(i));
                    if i % 50 == 0 {
                        oram.check_invariants()
                            .unwrap_or_else(|e| panic!("{treetop:?} {remap:?}: {e}"));
                    }
                }
                oram.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = InvariantError::Missing {
            addr: crate::BlockAddr(7),
        };
        assert!(e.to_string().contains("blk#7"));
        let d = InvariantError::DuplicateResidence {
            addr: crate::BlockAddr(1),
            first: "stash".into(),
            second: "tree L2/B1".into(),
        };
        assert!(d.to_string().contains("stash") && d.to_string().contains("tree"));
    }
}
