//! A USIMM-style DRAM memory-system model.
//!
//! The IR-ORAM paper evaluates on USIMM, "a trace-based simulator … for
//! cycle-accurate DRAM memory simulation" (Section V). This crate is the
//! from-scratch Rust substitute: a transaction-level DDR3 model with
//!
//! * per-channel command/data-bus serialization,
//! * per-bank row-buffer state machines with activate / precharge /
//!   CAS timing constraints ([`DramTimings`]),
//! * FR-FCFS scheduling (row hits first, then oldest) within a reorder
//!   window ([`DramSystem`]),
//! * configurable address interleaving ([`AddressMapping`]), and
//! * the ORAM **subtree data layout** of Ren et al. \[25\] that packs small
//!   subtrees into DRAM rows so a path access enjoys row-buffer hits
//!   ([`SubtreeLayout`]).
//!
//! Timing is expressed in DRAM clock cycles (800 MHz for the paper's
//! DDR3-1600 configuration); callers convert with
//! [`iroram_sim_engine::ClockRatio`].
//!
//! # Examples
//!
//! ```
//! use iroram_dram::{DramConfig, DramSystem, SubtreeLayout};
//! use iroram_sim_engine::Cycle;
//!
//! let mut dram = DramSystem::new(DramConfig::default());
//! // One path of a Z=4, 5-level tree in the subtree layout: its lines,
//! // read at cycle 0, then written back once the read is done.
//! let table = SubtreeLayout::new(&[4; 5], 2).path_table(0);
//! let read_done = dram.schedule_lines(table.lines(3, 0), false, Cycle(0));
//! let write_done = dram.schedule_lines(table.lines(3, 0), true, read_done);
//! assert!(Cycle(0) < read_done && read_done < write_done);
//! assert_eq!(dram.stats().requests, 2 * table.path_len() as u64);
//! // `schedule_path` does both in one call, decoding each line once.
//! let (read, write) = dram.schedule_path(table.lines(5, 0), write_done);
//! assert!(write_done < read && read < write);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod bank;
mod subtree;
mod system;
mod timing;

pub use address::{AddressMapping, DecodedAddr, Interleave};
pub use bank::BankState;
pub use subtree::{PathTable, SubtreeLayout};
#[cfg(any(test, feature = "reference-scheduler"))]
pub use system::reference;
pub use system::{DramConfig, DramStats, DramSystem};
pub use timing::DramTimings;
