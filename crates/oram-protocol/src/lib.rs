//! Functional (untimed) Path ORAM protocol with the IR-ORAM extensions.
//!
//! This crate implements the complete Path ORAM state machine of the paper
//! — Stefanov et al.'s protocol \[27\] with Freecursive recursion \[8\],
//! background eviction \[25\], tree-top caching \[22\]\[32\], and the
//! IR-ORAM additions (IR-Alloc per-level bucket sizing and the IR-Stash
//! double-indexed sub-stash) — *without* timing. Every path access the
//! protocol performs is reported as a [`PathRecord`]; the timed simulator in
//! the `ir-oram` crate replays those records against the DRAM model at the
//! fixed one-path-per-`T`-cycles rate that defends the timing channel.
//!
//! Keeping protocol semantics separate from timing lets the same state
//! machine drive both billion-access utilization studies (paper Figs. 3, 4,
//! 6, 13) and cycle-level performance runs (Figs. 2, 10–16), and makes the
//! protocol invariants (every block exists exactly once; every block lies on
//! its assigned path) directly property-testable.
//!
//! # Examples
//!
//! ```
//! use iroram_protocol::{OramConfig, PathOram};
//!
//! let mut oram = PathOram::new(OramConfig::tiny());
//! oram.write(3, 0xAB);
//! assert_eq!(oram.read(3), 0xAB);
//! oram.check_invariants().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod invariants;
mod layout;
mod posmap;
mod stash;
mod tree;
mod treetop;
mod types;
mod zalloc;

pub use controller::{
    AccessBatch, AccessError, AccessRecord, ConfigError, OramConfig, PathOram, ProtocolStats,
    RemapPolicy, TreeTopMode, WriteOp,
};
pub use invariants::InvariantError;
pub use layout::TreeLayout;
pub use posmap::{AddressSpace, PlbStatus, PosMapSystem, ENTRIES_PER_BLOCK};
pub use stash::{ChipBoundary, Stash, WritebackPlan};
pub use tree::{IntegrityStats, OramTree};
pub use treetop::{DedicatedTreeTop, IrStashTop, TreeTopStore};
pub use types::{
    BlockAddr, BlockKind, Leaf, PathList, PathRecord, PathType, ServedFrom, StoredBlock,
};
pub use zalloc::{AllocPreset, GreedySearchOutcome, ZAllocation};
